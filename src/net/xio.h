// XIO: the extensible I/O library for fast servers (Sec. 7.3).
//
// XIO exists so application writers can "exploit domain-specific knowledge" without
// tricking the OS. The pieces Cheetah uses:
//   - ChecksumCache: per-file precomputed TCP checksums, stored with the file and
//     computed once; transmission then never touches the data with the CPU.
//   - The merged file-cache/retransmission-pool convention: callers pass stable
//     cache spans to TcpConn::Send under a zero-copy profile.
//   - Ready-made TcpProfiles for each server configuration measured in Figure 3.
#ifndef EXO_NET_XIO_H_
#define EXO_NET_XIO_H_

#include <cstdint>
#include <functional>
#include <list>
#include <map>
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

// Computes and caches per-MSS-segment checksums for stable buffers keyed by an
// application-chosen id (Cheetah keys by file). The first request charges the
// checksum cost; later requests are free — the point of storing checksums with the
// file (Sec. 7.3, "Merged File Cache and Retransmission Pool").
class ChecksumCache {
 public:
  using ChargeFn = std::function<void(sim::Cycles)>;

  ChecksumCache(const sim::CostModel* cost, ChargeFn charge)
      : cost_(cost), charge_(std::move(charge)) {}

  const std::vector<uint32_t>& For(uint64_t key, std::span<const uint8_t> data) {
    auto it = cache_.find(key);
    if (it != cache_.end()) {
      ++hits_;
      return it->second;
    }
    if (charge_) {
      charge_(cost_->ChecksumCost(data.size()));
    }
    std::vector<uint32_t> sums;
    for (size_t off = 0; off < data.size(); off += kMss) {
      size_t n = std::min<size_t>(kMss, data.size() - off);
      sums.push_back(Checksum(data.subspan(off, n)));
    }
    ++misses_;
    return cache_.emplace(key, std::move(sums)).first->second;
  }

  void Invalidate(uint64_t key) { cache_.erase(key); }
  uint64_t hits() const { return hits_; }
  uint64_t misses() const { return misses_; }

 private:
  const sim::CostModel* cost_;
  ChargeFn charge_;
  std::map<uint64_t, std::vector<uint32_t>> cache_;
  uint64_t hits_ = 0;
  uint64_t misses_ = 0;
};

// The libFS-side document registry: file bytes plus their per-MSS checksums,
// computed once when the file is written and *stored with the file* — the full
// Cheetah discipline (Sec. 7.3), one step past ChecksumCache's lazy per-server
// memo. Every server instance sharing the store sees the same pinned bytes
// (they double as the zero-copy retransmission pool) and the same checksums.
// Mutations (Put over an existing name, Truncate) recompute the checksums and
// bump the generation so response caches can detect staleness; callers must
// quiesce in-flight zero-copy transmissions first, exactly as a real merged
// file-cache/retransmission-pool requires.
class DocumentStore {
 public:
  using ChargeFn = std::function<void(sim::Cycles)>;

  struct Doc {
    uint64_t id = 0;
    uint64_t generation = 1;
    std::vector<uint8_t> bytes;
    std::vector<uint32_t> checksums;  // one per MSS segment of `bytes`
  };

  DocumentStore(const sim::CostModel* cost, ChargeFn charge = {})
      : cost_(cost), charge_(std::move(charge)) {}

  // Writes (or rewrites) a document. The checksum cost is charged here, at
  // file-write time, never on the serving path.
  const Doc* Put(const std::string& name, std::vector<uint8_t> bytes) {
    Doc& d = docs_[name];
    if (d.id == 0) {
      d.id = next_id_++;
    } else {
      ++d.generation;  // rewrite: every cached reference to the old bytes is stale
    }
    d.bytes = std::move(bytes);
    Resum(d);
    return &d;
  }

  // Shrinks a document in place. Returns false if it does not exist or would
  // grow. The tail segment's checksum changes, so all checksums are recomputed.
  bool Truncate(const std::string& name, size_t new_size) {
    auto it = docs_.find(name);
    if (it == docs_.end() || new_size > it->second.bytes.size()) {
      return false;
    }
    Doc& d = it->second;
    ++d.generation;
    d.bytes.resize(new_size);
    Resum(d);
    return true;
  }

  const Doc* Find(const std::string& name) const {
    auto it = docs_.find(name);
    return it != docs_.end() ? &it->second : nullptr;
  }

  size_t size() const { return docs_.size(); }

 private:
  void Resum(Doc& d) {
    if (charge_) {
      charge_(cost_->ChecksumCost(d.bytes.size()));
    }
    d.checksums.clear();
    std::span<const uint8_t> data = d.bytes;
    for (size_t off = 0; off < data.size(); off += kMss) {
      size_t n = std::min<size_t>(kMss, data.size() - off);
      d.checksums.push_back(Checksum(data.subspan(off, n)));
    }
  }

  const sim::CostModel* cost_;
  ChargeFn charge_;
  std::map<std::string, Doc> docs_;
  uint64_t next_id_ = 1;
};

// An LRU cache of fully prepared responses shared across requests (and across
// server instances, if desired): the rendered, even-length-padded header, its
// checksum, and a pointer to the document whose body completes the response.
// Entries carry the document generation they were rendered against; a
// generation mismatch at lookup is treated as a miss and the entry dropped, so
// a Put/Truncate in the DocumentStore can never serve a stale header.
class HttpResponseCache {
 public:
  struct Entry {
    std::vector<uint8_t> header;  // padded to even length for ChecksumCombine
    uint32_t header_checksum = 0;
    const DocumentStore::Doc* doc = nullptr;
    uint64_t doc_generation = 0;
  };

  explicit HttpResponseCache(size_t capacity) : capacity_(capacity) {}

  const Entry* Get(const std::string& key) {
    auto it = index_.find(key);
    if (it == index_.end()) {
      ++misses_;
      return nullptr;
    }
    const Entry& e = it->second->second;
    if (e.doc != nullptr && e.doc_generation != e.doc->generation) {
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

  void Invalidate(const std::string& key) {
    auto it = index_.find(key);
    if (it != index_.end()) {
      lru_.erase(it->second);
      index_.erase(it);
    }
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
