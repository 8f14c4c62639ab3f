// XIO: the extensible I/O library for fast servers (Sec. 7.3).
//
// XIO exists so application writers can "exploit domain-specific knowledge" without
// tricking the OS. The pieces Cheetah uses:
//   - DocumentStore: file bytes with per-MSS TCP checksums computed when the
//     file is written and stored with it; transmission then never touches the
//     data with the CPU.
//   - The merged file-cache/retransmission-pool: a pinned document version is
//     handed to TcpConn::Send as PinnedBytes, and TCP holds the pin until the
//     bytes are acknowledged.
//   - HttpResponseCache: prepared response headers, keyed to the document
//     version they were rendered against.
//   - Ready-made TcpProfiles for each server configuration measured in Figure 3.
#ifndef EXO_NET_XIO_H_
#define EXO_NET_XIO_H_

#include <cstdint>
#include <functional>
#include <list>
#include <map>
#include <memory>
#include <span>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "net/tcp.h"

namespace exo::net {

// Admission control and lifecycle limits for a serving stack. The shape is
// SEDA's: detect overload from queue depth (here, CPU backlog — the one queue
// every request crosses), shed early while rejection is still cheap, and bound
// every resource a hostile or unlucky client could otherwise pin forever.
// Default-constructed (enabled=false) the policy is inert and the server
// behaves exactly as before.
struct ServerOverloadPolicy {
  bool enabled = false;
  // Passed to TcpStack::Listen: SYNs beyond this many half-open connections per
  // port are dropped before a PCB is allocated. 0 = unbounded.
  uint32_t listen_backlog = 0;
  // Hysteresis watermarks on CPU backlog (busy_until - now), in microseconds.
  // Backlog >= high: start shedding (cheap 503s). Backlog <= low: stop.
  sim::Cycles high_watermark_us = 2'000;
  sim::Cycles low_watermark_us = 500;
  // An admitted request that has not fully acknowledged its response within
  // this budget is aborted (RST) and its resources reclaimed. 0 = no deadline.
  sim::Cycles request_deadline_us = 0;
};

// The libFS-side document registry: file bytes plus their per-MSS checksums,
// computed once when the file is written and *stored with the file* (Sec.
// 7.3). Every server instance sharing the store sees the same bytes and the
// same checksums. Each write installs a new version, so a Pin taken earlier
// keeps the version it saw alive and unchanged: that is what lets the bytes
// double as the zero-copy retransmission pool while documents are rewritten.
class DocumentStore {
 public:
  using ChargeFn = std::function<void(sim::Cycles)>;

  struct Doc {
    std::vector<uint8_t> bytes;
    std::vector<uint32_t> checksums;  // one per MSS segment of `bytes`
  };

  DocumentStore(const sim::CostModel* cost, ChargeFn charge = {})
      : cost_(cost), charge_(std::move(charge)) {}

  // Writes (or rewrites) a document as a new version. The checksum cost is
  // charged here, at file-write time, never on the serving path.
  const Doc* Put(const std::string& name, std::vector<uint8_t> bytes) {
    auto d = std::make_shared<Doc>();
    d->bytes = std::move(bytes);
    if (charge_) {
      charge_(cost_->ChecksumCost(d->bytes.size()));
    }
    std::span<const uint8_t> data = d->bytes;
    for (size_t off = 0; off < data.size(); off += kMss) {
      const size_t n = std::min<size_t>(kMss, data.size() - off);
      d->checksums.push_back(Checksum(data.subspan(off, n)));
    }
    const Doc* current = d.get();
    docs_[name] = std::move(d);  // the replaced version lives on while pinned
    return current;
  }

  // The current version, or nullptr.
  const Doc* Find(const std::string& name) const {
    auto it = docs_.find(name);
    return it != docs_.end() ? it->second.get() : nullptr;
  }

  // The current version, kept alive by the returned pointer however often
  // the document is rewritten; nullptr if there is no such document.
  std::shared_ptr<const Doc> Pin(const std::string& name) const {
    auto it = docs_.find(name);
    return it != docs_.end() ? it->second : nullptr;
  }

 private:
  const sim::CostModel* cost_;
  ChargeFn charge_;
  std::map<std::string, std::shared_ptr<const Doc>> docs_;
};

// An LRU cache of fully prepared responses shared across requests (and across
// server instances, if desired): the rendered, even-length-padded header, its
// checksum, and a pin on the document version whose body completes the
// response. A lookup names the store's current version; an entry pinning any
// other version was rendered before a rewrite, so it misses and is dropped —
// a Put in the DocumentStore can never serve a stale header.
class HttpResponseCache {
 public:
  struct Entry {
    std::vector<uint8_t> header;  // padded to even length for ChecksumCombine
    uint32_t header_checksum = 0;
    std::shared_ptr<const DocumentStore::Doc> doc;
  };

  explicit HttpResponseCache(size_t capacity) : capacity_(capacity) {}

  // `current` is the store's current version of the document `key` names.
  const Entry* Get(const std::string& key, const DocumentStore::Doc* current) {
    auto it = index_.find(key);
    if (it == index_.end()) {
      ++misses_;
      return nullptr;
    }
    if (it->second->second.doc.get() != current) {
      // The document was rewritten since this response was rendered.
      lru_.erase(it->second);
      index_.erase(it);
      ++misses_;
      return nullptr;
    }
    lru_.splice(lru_.begin(), lru_, it->second);  // move to front: most recent
    ++hits_;
    return &lru_.front().second;
  }

  const Entry* Put(const std::string& key, Entry e) {
    auto it = index_.find(key);
    if (it != index_.end()) {
      lru_.erase(it->second);
      index_.erase(it);
    }
    lru_.emplace_front(key, std::move(e));
    index_[key] = lru_.begin();
    while (capacity_ != 0 && lru_.size() > capacity_) {
      index_.erase(lru_.back().first);
      lru_.pop_back();
      ++evictions_;
    }
    return &lru_.front().second;
  }

  size_t size() const { return lru_.size(); }
  uint64_t hits() const { return hits_; }
  uint64_t misses() const { return misses_; }
  uint64_t evictions() const { return evictions_; }

 private:
  size_t capacity_;
  std::list<std::pair<std::string, Entry>> lru_;
  std::unordered_map<std::string, std::list<std::pair<std::string, Entry>>::iterator> index_;
  uint64_t hits_ = 0;
  uint64_t misses_ = 0;
  uint64_t evictions_ = 0;
};

// Cost/option profiles for the four server stacks in Figure 3.
//
// Fixed per-segment costs decompose as protocol work + kernel crossings + driver
// work; copy counts are the number of times the CPU moves the payload.
inline TcpProfile BsdSocketProfile() {
  TcpProfile p;
  p.tx_fixed = 3200;  // syscall + socket layer + in-kernel TCP + mbufs + driver
  p.rx_fixed = 3200;
  p.tx_copies = 2.0;  // user->kernel, kernel->driver
  p.rx_copies = 2.0;
  p.checksum_tx = true;
  p.checksum_rx = true;
  p.piggyback_ack = false;
  p.zero_copy_tx = false;
  p.pcb_reuse = false;
  return p;
}

// ExOS sockets over XIO on Xok: user-level TCP, one copy each way (application
// buffer <-> pinned packet buffer), PCB reuse and simple packet merging already on
// (the "default socket implementation built on top of XIO", Sec. 7.3).
inline TcpProfile XokSocketProfile() {
  TcpProfile p;
  p.tx_fixed = 1500;  // transmit syscall + user-level protocol work
  p.rx_fixed = 1200;  // packet-ring consume + user-level protocol work
  p.tx_copies = 1.0;
  p.rx_copies = 1.0;
  p.checksum_tx = true;
  p.checksum_rx = true;
  p.piggyback_ack = true;
  p.zero_copy_tx = false;
  p.pcb_reuse = true;
  return p;
}

// Cheetah: everything XokSocket does, plus transmission directly from the file
// cache with precomputed checksums — the CPU never touches response payloads.
inline TcpProfile CheetahProfile() {
  TcpProfile p = XokSocketProfile();
  p.tx_fixed = 700;
  p.zero_copy_tx = true;   // file cache doubles as the retransmission pool
  p.checksum_tx = false;   // precomputed, stored with the file
  return p;
}

// A load-generating client: cost-free CPU (the experiment isolates the server).
inline TcpProfile ClientProfile() {
  TcpProfile p;
  p.tx_fixed = 0;
  p.rx_fixed = 0;
  p.tx_copies = 0;
  p.rx_copies = 0;
  p.checksum_tx = false;
  p.checksum_rx = false;
  p.pcb_reuse = true;
  return p;
}

}  // namespace exo::net

#endif  // EXO_NET_XIO_H_
