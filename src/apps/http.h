// HTTP/1.0 servers and load generator for the Figure 3 experiment (Sec. 7.3).
//
// Five server configurations, matching the figure:
//   kNcsaBsd    — NCSA 1.4.2 style: a process is forked per request; BSD sockets.
//   kHarvestBsd — Harvest-cache style: single process, in-memory document cache,
//                 BSD sockets (the best conventional server the paper measured).
//   kSocketBsd  — the paper's own server over plain BSD sockets.
//   kSocketXok  — the same server over ExOS sockets layered on XIO (PCB reuse and
//                 packet merging on, but payloads still copied and checksummed).
//   kCheetah    — all Cheetah optimizations: transmit directly from the file cache
//                 with precomputed checksums (merged retransmission pool) and
//                 knowledge-based ACK piggybacking.
//
// Documents live in a warm file cache (the paper measures cached documents; disk
// placement is exercised separately). Per-request file-system work is charged per
// style: NCSA pays a fork, Socket servers pay open/stat/read syscalls and a
// file-cache-to-user copy, Cheetah uses its cached file pointers.
#ifndef EXO_APPS_HTTP_H_
#define EXO_APPS_HTTP_H_

#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "net/tcp.h"
#include "net/xio.h"
#include "sim/cpu_meter.h"
#include "sim/rng.h"
#include "trace/histogram.h"

namespace exo::apps {

enum class ServerStyle { kNcsaBsd, kHarvestBsd, kSocketBsd, kSocketXok, kCheetah };

const char* ServerStyleName(ServerStyle s);

// Fleet-scale serving options. Default-constructed = the historical HTTP/1.0
// close-per-request server, byte-identical to pre-options behavior; every field
// is an independent opt-in so figs and benches arm exactly what they measure.
struct HttpServerOptions {
  // Keep connections open and answer pipelined requests in arrival order
  // (responses carry HTTP/1.1). Off: one request per connection, server closes.
  bool persistent = false;
  // Shared libFS document store: bodies are served from its bytes with its
  // stored per-MSS checksums (computed at file-write time). nullptr: the
  // server keeps a store of its own.
  net::DocumentStore* documents = nullptr;
  // LRU response cache capacity (prepared header + checksum + body pin),
  // shared across requests. 0 = no cache.
  size_t response_cache_entries = 0;
  // Cheetah only: transmit header+body in one gather segment when they fit one
  // MSS, with the combined checksum stapled from the stored body checksum.
  bool gather_tx = false;
};

class HttpServer {
 public:
  HttpServer(sim::Engine* engine, const sim::CostModel* cost, ServerStyle style,
             net::IpAddr ip, const HttpServerOptions& options = {});

  // Attaches a NIC; frames to `peer_ip` leave through it (one client per link).
  void AttachNic(hw::Nic* nic, net::IpAddr peer_ip);

  // Writes a document into the server's store (a new version if the name
  // exists; responses still in flight keep the version they pinned).
  void AddDocument(const std::string& name, std::vector<uint8_t> content);

  // Installs the overload policy. Must precede Listen (the listen backlog is
  // fixed at listen time). Default-constructed policy = historic behavior.
  void SetOverloadPolicy(const net::ServerOverloadPolicy& policy);

  Status Listen(net::Port port = 80);

  uint64_t requests_served() const { return requests_; }
  // Requests answered with a cheap 503 while shedding (admission control).
  uint64_t requests_rejected() const { return rejected_; }
  bool shedding() const { return shedding_; }
  // Response-cache counters (0s when no cache is configured).
  uint64_t cache_hits() const { return cache_ != nullptr ? cache_->hits() : 0; }
  uint64_t cache_misses() const { return cache_ != nullptr ? cache_->misses() : 0; }
  uint64_t cache_evictions() const { return cache_ != nullptr ? cache_->evictions() : 0; }
  uint64_t gather_sends() const { return gather_sends_; }
  sim::CpuMeter& cpu() { return cpu_; }
  net::TcpStack& stack() { return *stack_; }

  // Attaches a tracer: requests become `app` spans with nested syscall/fs
  // sub-spans, the CPU meter gets its own busy track, and the TCP stack emits
  // segment instants. Call before serving traffic.
  void SetTracer(trace::Tracer* tracer);

  // Machine-death teardown: cancels every deadline timer, drops partially
  // parsed requests, and shuts the TCP stack down (no FINs, no callbacks —
  // see TcpStack::Shutdown). The object stays valid as a zombie so engine
  // events already scheduled against it no-op; a rebooted machine builds a
  // fresh HttpServer instead of reviving this one.
  void Shutdown();

 private:
  struct DeadlineEntry {
    uint64_t epoch = 0;
    sim::Engine::EventId timer = 0;
  };

  void OnRequest(net::TcpConn* conn, std::span<const uint8_t> data);
  void ServeOne(net::TcpConn* conn, const std::string& request);
  sim::Cycles PerRequestOsCost(size_t doc_size) const;
  void ArmDeadline(net::TcpConn* conn);
  void DisarmDeadline(net::TcpConn* conn);
  // Close, or keep open when the server is persistent AND the request spoke
  // HTTP/1.1 (a 1.0 client on an armed server still learns end-of-body from
  // the close, so mixed tenants can share one server).
  void FinishResponse(net::TcpConn* conn, bool keep_alive);
  // Transmits a prepared (header, pinned body) response: one gather segment
  // with a stapled checksum when configured and it fits, else the header and
  // the pinned body as separate sends.
  void SendPrepared(net::TcpConn* conn, const net::HttpResponseCache::Entry& e);

  sim::Engine* engine_;
  const sim::CostModel* cost_;
  ServerStyle style_;
  sim::CpuMeter cpu_;
  trace::Tracer* tracer_ = nullptr;
  uint32_t trace_track_ = 0;
  std::unique_ptr<net::TcpStack> stack_;
  std::map<net::IpAddr, hw::Nic*> routes_;
  HttpServerOptions options_;
  std::unique_ptr<net::HttpResponseCache> cache_;
  uint64_t gather_sends_ = 0;
  net::DocumentStore own_documents_;  // used when options_.documents is null
  net::DocumentStore* documents_;     // every response's body source
  uint64_t requests_ = 0;
  std::map<net::TcpConn*, std::string> partial_;  // request bytes per connection
  net::ServerOverloadPolicy policy_;
  bool shedding_ = false;
  uint64_t rejected_ = 0;
  uint64_t deadline_epoch_ = 0;
  // Keyed by PCB pointer; the epoch disambiguates a reused PCB from the
  // connection whose deadline was armed (stale timers check it and stand down).
  std::map<net::TcpConn*, DeadlineEntry> deadlines_;
};

// A load generator: `concurrency` closed-loop clients fetching `doc` over new
// connections (HTTP/1.0) until the deadline. Client CPU is free — the experiment
// isolates the server (Sec. 7.3 methodology).
class HttpClient {
 public:
  HttpClient(sim::Engine* engine, const sim::CostModel* cost, hw::Nic* nic, net::IpAddr ip,
             net::IpAddr server_ip, std::string doc, int concurrency);

  void Start(sim::Cycles deadline);
  uint64_t completed() const { return completed_; }
  uint64_t bytes_received() const { return bytes_; }
  net::TcpStack& stack() { return *stack_; }

  // Client-side request deadline: a request outstanding longer than this is
  // aborted (RST) and its loop slot reissued. Covers the case where the
  // server's own abort RST is lost on the wire — without it the client would
  // wait forever in kEstablished with no timer armed. 0 (default) disables;
  // the disabled path schedules nothing, keeping fig3 runs event-for-event
  // identical.
  void set_request_timeout(sim::Cycles cycles) { request_timeout_ = cycles; }

  // Attaches a tracer under track `name`; completed requests feed the
  // "http.request_latency_cycles" histogram (connect to close).
  void SetTracer(trace::Tracer* tracer, const std::string& name);

 private:
  void StartOne();

  sim::Engine* engine_;
  hw::Nic* nic_;
  net::IpAddr server_ip_;
  std::string doc_;
  int concurrency_;
  sim::Cycles deadline_ = 0;
  std::unique_ptr<net::TcpStack> stack_;
  uint64_t completed_ = 0;
  uint64_t bytes_ = 0;
  trace::Tracer* tracer_ = nullptr;
  trace::LatencyHistogram* latency_hist_ = nullptr;
  sim::Cycles request_timeout_ = 0;
  uint64_t timeout_epoch_ = 0;
  // Outstanding requests by PCB pointer; the epoch disambiguates a reused PCB
  // from the request whose timeout was armed (stale timers stand down).
  std::map<net::TcpConn*, uint64_t> inflight_;
};

// An open-loop load generator: connection attempts arrive on a fixed schedule
// regardless of how the previous ones fared — the arrival process does not slow
// down when the server does, which is what makes overload visible (a closed
// loop self-throttles and can never offer more than concurrency × 1/RTT).
// Each request is classified from the response status line: 200 with a
// complete body counts as goodput, 503 as shed, and an aborted/reset/short
// connection as failed. Successful-request latency lands in latency() —
// a standalone histogram, recorded regardless of tracing.
class OpenLoopHttpClient {
 public:
  // `profile` defaults to the cost-free load-generator stack; soak tests pass a
  // checksum-verifying profile so corrupted responses are detected and retried.
  OpenLoopHttpClient(sim::Engine* engine, const sim::CostModel* cost, hw::Nic* nic,
                     net::IpAddr ip, net::IpAddr server_ip, std::string doc,
                     sim::Cycles interval_cycles,
                     net::TcpProfile profile = net::ClientProfile());

  // Issues requests every interval until `deadline`.
  void Start(sim::Cycles deadline);

  uint64_t issued() const { return issued_; }
  uint64_t completed() const { return completed_; }
  uint64_t rejected() const { return rejected_; }
  uint64_t failed() const { return failed_; }
  uint64_t bytes_received() const { return bytes_; }
  // Connections this client opened (handshakes): one per request in the
  // historical mode, at most the pool size (plus reconnects) when persistent.
  uint64_t conns_opened() const { return conns_opened_; }
  const trace::LatencyHistogram& latency() const { return latency_; }
  net::TcpStack& stack() { return *stack_; }

  // Same semantics as HttpClient::set_request_timeout: abort (and count as
  // failed) a request still unresolved after this long. 0 (default) disables.
  void set_request_timeout(sim::Cycles cycles) { request_timeout_ = cycles; }

  // Persistent-connection mode: requests ride a fixed pool of keep-alive
  // connections (HTTP/1.1), pipelined up to `max_pipeline` deep per connection,
  // instead of a fresh handshake per request. A request that finds its
  // connection's pipeline full counts as failed (client-side shed — the
  // open-loop equivalent of a connect timeout). Call before Start(); off by
  // default, leaving the historical one-connection-per-request behavior.
  void EnablePersistent(size_t pool_size, size_t max_pipeline = 8);
  // Closes every pool connection (client-side FIN). Requests still in flight
  // fail through the normal on_close accounting. For drain checks: a pool
  // otherwise keeps its keep-alive connections established forever.
  void ClosePool();
  // Chooses the document for each request (Zipf sweeps); default: the
  // constructor's single doc.
  void set_doc_picker(std::function<std::string()> f) { doc_picker_ = std::move(f); }

  // Reconnect backoff for persistent pools: after a pool connection dies
  // aborted, the slot refuses to redial for min(cap, base << consecutive
  // failures) plus seeded jitter; arrivals landing on a backing-off slot
  // count as failed immediately (the open loop never waits). A successfully
  // completed response resets the slot's streak. 0 base (default) keeps the
  // historical redial-on-next-arrival behavior.
  void set_reconnect_backoff(sim::Cycles base, sim::Cycles cap, uint64_t seed) {
    reconnect_base_ = base;
    reconnect_cap_ = cap;
    reconnect_rng_ = sim::Rng(seed);
  }

 private:
  struct Pending {
    std::string data;    // response bytes captured so far
    uint64_t epoch = 0;  // guards timeout timers against PCB reuse
  };
  struct PoolSlot {
    net::TcpConn* conn = nullptr;
    bool established = false;
    std::string rx;                  // response bytes not yet parsed
    std::deque<sim::Cycles> starts;  // issue time per outstanding request, in order
    std::deque<std::string> queued;  // requests issued before the handshake finished
    sim::Cycles retry_at = 0;        // no redial before this time (backoff)
    uint32_t consec_fails = 0;       // aborted closes since the last success
  };

  void IssueOne();
  void IssuePersistent();
  void OpenPoolSlot(size_t slot);
  void DrainPoolResponses(size_t slot);
  void Tick();

  sim::Engine* engine_;
  hw::Nic* nic_;
  net::IpAddr server_ip_;
  std::string doc_;
  sim::Cycles interval_;
  sim::Cycles deadline_ = 0;
  std::unique_ptr<net::TcpStack> stack_;
  std::map<net::TcpConn*, Pending> responses_;
  bool persistent_ = false;
  size_t max_pipeline_ = 8;
  std::vector<PoolSlot> pool_;
  size_t pool_rr_ = 0;
  std::function<std::string()> doc_picker_;
  sim::Cycles request_timeout_ = 0;
  uint64_t timeout_epoch_ = 0;
  sim::Cycles reconnect_base_ = 0;
  sim::Cycles reconnect_cap_ = 0;
  sim::Rng reconnect_rng_{1};
  uint64_t issued_ = 0;
  uint64_t completed_ = 0;
  uint64_t rejected_ = 0;
  uint64_t failed_ = 0;
  uint64_t bytes_ = 0;
  uint64_t conns_opened_ = 0;
  trace::LatencyHistogram latency_;
};

}  // namespace exo::apps

#endif  // EXO_APPS_HTTP_H_
