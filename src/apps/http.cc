#include "apps/http.h"

#include <algorithm>
#include <cstdlib>
#include <cstring>

namespace exo::apps {

namespace {

// Per-request OS-path costs (beyond the per-segment TCP profile), in cycles.
// Calibrated so the Figure 3 ordering and rough factors reproduce: NCSA pays a fork
// per request; Harvest avoids the fork but runs a heavyweight cache + logging path;
// the Socket servers pay accept/open/stat/close syscalls; Cheetah resolves requests
// via application-cached pointers to file-cache blocks.
constexpr sim::Cycles kNcsaPerRequest = 260'000;    // fork + exec-lite + FS open path
constexpr sim::Cycles kHarvestPerRequest = 26'000;  // cache lookup, logging, select loop
constexpr sim::Cycles kSocketBsdPerRequest = 24'000;  // accept/open/stat/read/close
constexpr sim::Cycles kSocketXokPerRequest = 11'000;   // same ops as libOS calls
constexpr sim::Cycles kCheetahPerRequest = 1'400;     // cached file pointers (XIO)
constexpr sim::Cycles kParseCost = 600;
// Shedding a request must cost far less than serving one, or rejection itself
// collapses under load: a canned 503 is a table-free header write.
constexpr sim::Cycles kRejectCost = 500;
// A response-cache hit skips the per-request OS path entirely: one hash probe
// plus stapling the prepared header onto the pinned body.
constexpr sim::Cycles kCacheHitCost = 300;

net::TcpProfile ProfileFor(ServerStyle s) {
  switch (s) {
    case ServerStyle::kNcsaBsd:
    case ServerStyle::kHarvestBsd:
    case ServerStyle::kSocketBsd:
      return net::BsdSocketProfile();
    case ServerStyle::kSocketXok:
      return net::XokSocketProfile();
    case ServerStyle::kCheetah:
      return net::CheetahProfile();
  }
  return net::BsdSocketProfile();
}

}  // namespace

const char* ServerStyleName(ServerStyle s) {
  switch (s) {
    case ServerStyle::kNcsaBsd:
      return "NCSA/BSD";
    case ServerStyle::kHarvestBsd:
      return "Harvest/BSD";
    case ServerStyle::kSocketBsd:
      return "Socket/BSD";
    case ServerStyle::kSocketXok:
      return "Socket/Xok";
    case ServerStyle::kCheetah:
      return "Cheetah";
  }
  return "?";
}

HttpServer::HttpServer(sim::Engine* engine, const sim::CostModel* cost, ServerStyle style,
                       net::IpAddr ip, const HttpServerOptions& options)
    : engine_(engine),
      cost_(cost),
      style_(style),
      cpu_(engine),
      options_(options),
      own_documents_(cost),
      documents_(options.documents != nullptr ? options.documents : &own_documents_) {
  if (options_.response_cache_entries != 0) {
    cache_ = std::make_unique<net::HttpResponseCache>(options_.response_cache_entries);
  }
  net::TcpStack::Hooks hooks;
  hooks.engine = engine_;
  hooks.cost = cost_;
  hooks.cpu = &cpu_;
  hooks.transmit = [this](hw::Packet p, sim::Cycles when) {
    // Route by destination IP (offset 5..8 of the frame); one client per link.
    net::IpAddr dst = static_cast<net::IpAddr>(p.bytes[5]) |
                      (static_cast<net::IpAddr>(p.bytes[6]) << 8) |
                      (static_cast<net::IpAddr>(p.bytes[7]) << 16) |
                      (static_cast<net::IpAddr>(p.bytes[8]) << 24);
    auto it = routes_.find(dst);
    if (it == routes_.end()) {
      return;
    }
    hw::Nic* nic = it->second;
    engine_->ScheduleAt(std::max(when, engine_->now()),
                        [nic, p = std::move(p)]() mutable { nic->Transmit(std::move(p)); });
  };
  stack_ = std::make_unique<net::TcpStack>(hooks, ip, ProfileFor(style));
}

void HttpServer::SetTracer(trace::Tracer* tracer) {
  tracer_ = tracer;
  trace_track_ = tracer->NewTrack("server");
  cpu_.SetTracer(tracer, tracer->NewTrack("server.cpu"));
  stack_->SetTracer(tracer, trace_track_);
}

void HttpServer::AttachNic(hw::Nic* nic, net::IpAddr peer_ip) {
  routes_[peer_ip] = nic;
  nic->SetReceiveHandler([this](hw::Packet p) { stack_->Input(p); });
}

void HttpServer::AddDocument(const std::string& name, std::vector<uint8_t> content) {
  documents_->Put(name, std::move(content));  // checksums computed at write time
}

void HttpServer::SetOverloadPolicy(const net::ServerOverloadPolicy& policy) {
  policy_ = policy;
}

Status HttpServer::Listen(net::Port port) {
  return stack_->Listen(
      port,
      [this](net::TcpConn* c) {
        c->set_on_data(
            [this](net::TcpConn* conn, std::span<const uint8_t> d) { OnRequest(conn, d); });
        c->set_on_close([this](net::TcpConn* conn) {
          partial_.erase(conn);
          DisarmDeadline(conn);
          if (conn->state() == net::TcpConn::State::kCloseWait) {
            conn->Close();  // client closed first (e.g. abort): close our side too
          }
        });
      },
      policy_.enabled ? policy_.listen_backlog : 0);
}

void HttpServer::ArmDeadline(net::TcpConn* conn) {
  if (!policy_.enabled || policy_.request_deadline_us == 0) {
    return;
  }
  const uint64_t epoch = ++deadline_epoch_;
  DeadlineEntry& e = deadlines_[conn];
  if (e.timer != 0) {
    engine_->Cancel(e.timer);
  }
  e.epoch = epoch;
  e.timer = engine_->ScheduleAfter(
      policy_.request_deadline_us * cost_->cpu_mhz, [this, conn, epoch] {
        auto it = deadlines_.find(conn);
        if (it == deadlines_.end() || it->second.epoch != epoch) {
          return;  // completed (or the PCB was reused) before the timer fired
        }
        deadlines_.erase(it);
        stack_->Abort(conn);
      });
}

void HttpServer::Shutdown() {
  for (auto& [conn, entry] : deadlines_) {
    if (entry.timer != 0) {
      engine_->Cancel(entry.timer);
    }
  }
  deadlines_.clear();
  partial_.clear();
  stack_->Shutdown();
}

void HttpServer::DisarmDeadline(net::TcpConn* conn) {
  auto it = deadlines_.find(conn);
  if (it == deadlines_.end()) {
    return;
  }
  if (it->second.timer != 0) {
    engine_->Cancel(it->second.timer);
  }
  deadlines_.erase(it);
}

sim::Cycles HttpServer::PerRequestOsCost(size_t doc_size) const {
  switch (style_) {
    case ServerStyle::kNcsaBsd:
      return kNcsaPerRequest + cost_->CopyCost(doc_size);  // read() into user space
    case ServerStyle::kHarvestBsd:
      return kHarvestPerRequest;  // served from its user-space cache (already copied)
    case ServerStyle::kSocketBsd:
      return kSocketBsdPerRequest + cost_->CopyCost(doc_size);
    case ServerStyle::kSocketXok:
      return kSocketXokPerRequest + cost_->CopyCost(doc_size);
    case ServerStyle::kCheetah:
      return kCheetahPerRequest;  // transmit straight from the file cache: no copy
  }
  return 0;
}

void HttpServer::OnRequest(net::TcpConn* conn, std::span<const uint8_t> data) {
  {
    std::string& buf = partial_[conn];
    buf.append(reinterpret_cast<const char*>(data.data()), data.size());
    if (!options_.persistent) {
      // Historical one-request-per-connection path: the whole buffer is the
      // request once the blank line arrives.
      if (buf.find("\r\n\r\n") == std::string::npos) {
        return;
      }
      std::string request = std::move(buf);
      buf.clear();
      ServeOne(conn, request);
      return;
    }
  }
  // Persistent mode: the buffer may hold several pipelined requests; answer
  // them in arrival order (responses serialize on the connection anyway).
  for (;;) {
    auto pit = partial_.find(conn);
    if (pit == partial_.end()) {
      return;  // connection torn down while serving the previous request
    }
    std::string& buf = pit->second;
    const auto end = buf.find("\r\n\r\n");
    if (end == std::string::npos) {
      return;
    }
    std::string request = buf.substr(0, end + 4);
    buf.erase(0, end + 4);
    ServeOne(conn, request);
  }
}

void HttpServer::FinishResponse(net::TcpConn* conn, bool keep_alive) {
  if (keep_alive) {
    // Keep-alive: the connection outlives the response.
    conn->set_on_send_complete([this](net::TcpConn* c) { DisarmDeadline(c); });
  } else {
    conn->set_on_send_complete([this](net::TcpConn* c) {
      DisarmDeadline(c);
      c->Close();
    });
  }
  ArmDeadline(conn);
}

void HttpServer::SendPrepared(net::TcpConn* conn, const net::HttpResponseCache::Entry& e) {
  const net::DocumentStore::Doc& doc = *e.doc;
  if (doc.bytes.empty()) {
    conn->Send(e.header);
    return;
  }
  net::PinnedBytes body{e.doc, doc.bytes, doc.checksums};
  if (options_.gather_tx && e.header.size() % 2 == 0 &&
      e.header.size() + doc.bytes.size() <= net::kMss) {
    // One wire segment: copied header + zero-copy body, checksum stapled from
    // the stored sums — the CPU never touches the payload, and small responses
    // cost one frame instead of two.
    conn->SendGather(e.header, std::move(body),
                     net::ChecksumCombine(e.header_checksum, doc.checksums[0]));
    ++gather_sends_;
    return;
  }
  conn->Send(e.header);
  conn->Send(std::move(body));
}

void HttpServer::ServeOne(net::TcpConn* conn, const std::string& buf) {
  // Keep-alive needs both sides: the server armed for it AND a request that
  // speaks HTTP/1.1. A 1.0 client learns end-of-body from the close.
  const bool keep_alive = options_.persistent && buf.find("HTTP/1.1") != std::string::npos;
  if (policy_.enabled) {
    // Admission control on CPU backlog with hysteresis: the meter's busy_until
    // is exactly the queueing delay a request admitted *now* would see before
    // its first cycle of service.
    const sim::Cycles now = engine_->now();
    const sim::Cycles backlog = cpu_.busy_until() > now ? cpu_.busy_until() - now : 0;
    const sim::Cycles mhz = cost_->cpu_mhz;
    if (!shedding_ && backlog >= policy_.high_watermark_us * mhz) {
      shedding_ = true;
      if (tracer_ != nullptr && tracer_->enabled(trace::Category::kApp)) {
        tracer_->Instant(trace::Category::kApp, trace_track_, "http.shed_on", now, backlog);
      }
    } else if (shedding_ && backlog <= policy_.low_watermark_us * mhz) {
      shedding_ = false;
      if (tracer_ != nullptr && tracer_->enabled(trace::Category::kApp)) {
        tracer_->Instant(trace::Category::kApp, trace_track_, "http.shed_off", now, backlog);
      }
    }
    if (shedding_) {
      // Reject before parsing: the whole point is to spend ~nothing per
      // turned-away request so goodput plateaus instead of cratering.
      ++rejected_;
      cpu_.Occupy(kRejectCost);
      if (keep_alive) {
        static const std::string k503p =
            "HTTP/1.1 503 Service Unavailable\r\nRetry-After: 1\r\nContent-Length: 0\r\n\r\n";
        conn->Send(std::vector<uint8_t>(k503p.begin(), k503p.end()));
      } else {
        static const std::string k503 =
            "HTTP/1.0 503 Service Unavailable\r\nRetry-After: 1\r\nContent-Length: 0\r\n\r\n";
        conn->Send(std::vector<uint8_t>(k503.begin(), k503.end()));
        conn->set_on_send_complete([this](net::TcpConn* c) { c->Close(); });
      }
      return;
    }
  }

  const sim::Cycles parse_done = cpu_.Occupy(kParseCost);

  std::string name;
  if (buf.rfind("GET /", 0) == 0) {
    auto sp = buf.find(' ', 5);
    name = buf.substr(5, sp == std::string::npos ? std::string::npos : sp - 5);
  }
  const char* version = options_.persistent ? "HTTP/1.1" : "HTTP/1.0";

  // The request's one store lookup: it pins the current version, which the
  // response cache checks its entry against and the response body rides on.
  std::shared_ptr<const net::DocumentStore::Doc> doc = documents_->Pin(name);

  // Response-cache fast path: one probe replaces the whole per-request OS walk.
  if (cache_ != nullptr) {
    if (const net::HttpResponseCache::Entry* e = cache_->Get(name, doc.get()); e != nullptr) {
      cpu_.Occupy(kCacheHitCost);
      ++requests_;
      SendPrepared(conn, *e);
      FinishResponse(conn, keep_alive);
      return;
    }
  }

  std::string header;
  if (doc == nullptr) {
    header = std::string(version) + " 404 Not Found\r\nContent-Length: 0\r\n\r\n";
    cpu_.Occupy(1'000);
    conn->Send(std::vector<uint8_t>(header.begin(), header.end()));
    FinishResponse(conn, keep_alive);
    return;
  }
  const size_t body_size = doc->bytes.size();
  const bool tracing = tracer_ != nullptr && tracer_->enabled(trace::Category::kApp);
  // The copy portion of the OS path is file-cache work; the remainder is the
  // syscall path. Splitting the single Occupy keeps the total cycles identical
  // while letting the trace attribute the two separately.
  sim::Cycles copy_part = 0;
  if (style_ == ServerStyle::kNcsaBsd || style_ == ServerStyle::kSocketBsd ||
      style_ == ServerStyle::kSocketXok) {
    copy_part = cost_->CopyCost(body_size);
  }
  const sim::Cycles os_part = PerRequestOsCost(body_size) - copy_part;
  sim::Cycles done = cpu_.Occupy(os_part);
  if (tracing && os_part > 0) {
    tracer_->Begin(trace::Category::kSyscall, trace_track_, "os", done - os_part, os_part);
    tracer_->End(trace::Category::kSyscall, trace_track_, "os", done, os_part);
  }
  if (copy_part > 0) {
    done = cpu_.Occupy(copy_part);
    if (tracing) {
      tracer_->Begin(trace::Category::kFs, trace_track_, "file_cache", done - copy_part,
                     copy_part);
      tracer_->End(trace::Category::kFs, trace_track_, "file_cache", done, copy_part);
    }
  }
  ++requests_;

  header = std::string(version) +
           " 200 OK\r\nContent-Length: " + std::to_string(body_size);
  if ((cache_ != nullptr || options_.gather_tx) && (header.size() + 4) % 2 != 0) {
    header += ' ';  // even-length pad: lets the stored body checksum staple on
  }
  header += "\r\n\r\n";
  if (style_ == ServerStyle::kCheetah) {
    // Prepared header + the pinned version's bytes and stored checksums, the
    // CPU never touching the payload (Sec. 7.3); optionally cached and/or
    // gathered into one segment.
    net::HttpResponseCache::Entry e;
    e.header.assign(header.begin(), header.end());
    if (cache_ != nullptr || options_.gather_tx) {
      cpu_.Occupy(cost_->ChecksumCost(e.header.size()));
      e.header_checksum = net::Checksum(e.header);
    }
    e.doc = std::move(doc);
    if (cache_ != nullptr) {
      SendPrepared(conn, *cache_->Put(name, std::move(e)));
    } else {
      SendPrepared(conn, e);
    }
  } else {
    std::vector<uint8_t> response(header.begin(), header.end());
    response.insert(response.end(), doc->bytes.begin(), doc->bytes.end());
    conn->Send(std::move(response));
  }
  FinishResponse(conn, keep_alive);
  if (tracing) {
    // The request's CPU window: parse through the last transmit Occupy. Windows
    // are serialized on the meter, so these spans never interleave.
    tracer_->Begin(trace::Category::kApp, trace_track_, "http.request",
                   parse_done - kParseCost, body_size);
    tracer_->End(trace::Category::kApp, trace_track_, "http.request", cpu_.busy_until(),
                 body_size);
  }
}

HttpClient::HttpClient(sim::Engine* engine, const sim::CostModel* cost, hw::Nic* nic,
                       net::IpAddr ip, net::IpAddr server_ip, std::string doc,
                       int concurrency)
    : engine_(engine),
      nic_(nic),
      server_ip_(server_ip),
      doc_(std::move(doc)),
      concurrency_(concurrency) {
  net::TcpStack::Hooks hooks;
  hooks.engine = engine;
  hooks.cost = cost;
  hooks.cpu = nullptr;  // load generators are infinitely fast
  hooks.transmit = [this](hw::Packet p, sim::Cycles when) {
    engine_->ScheduleAt(std::max(when, engine_->now()),
                        [this, p = std::move(p)]() mutable { nic_->Transmit(std::move(p)); });
  };
  stack_ = std::make_unique<net::TcpStack>(hooks, ip, net::ClientProfile());
  nic->SetReceiveHandler([this](hw::Packet p) { stack_->Input(p); });
}

void HttpClient::SetTracer(trace::Tracer* tracer, const std::string& name) {
  tracer_ = tracer;
  stack_->SetTracer(tracer, tracer->NewTrack(name));
  latency_hist_ = tracer->Histogram("http.request_latency_cycles");
}

void HttpClient::Start(sim::Cycles deadline) {
  deadline_ = deadline;
  for (int i = 0; i < concurrency_; ++i) {
    StartOne();
  }
}

void HttpClient::StartOne() {
  if (engine_->now() >= deadline_) {
    return;
  }
  std::string req = "GET /" + doc_ + " HTTP/1.0\r\n\r\n";
  const sim::Cycles start = engine_->now();
  // Handlers go on the PCB before the handshake completes, so every close path
  // — including a pre-establishment abort (SYN retry exhaustion) — reissues
  // this loop slot instead of silently retiring it.
  net::TcpConn* c = stack_->Connect(server_ip_, 80, [req](net::TcpConn* conn) {
    conn->Send(std::vector<uint8_t>(req.begin(), req.end()));
  });
  c->set_on_data([this](net::TcpConn*, std::span<const uint8_t> d) { bytes_ += d.size(); });
  c->set_on_close([this, start](net::TcpConn* conn) {
    inflight_.erase(conn);
    if (conn->aborted()) {
      // Reset mid-request (server deadline abort or retry exhaustion): not a
      // completed fetch. Reissue at once to keep the closed loop offering load.
      StartOne();
      return;
    }
    // The server closes after the response: we have the whole document.
    if (latency_hist_ != nullptr && tracer_->enabled(trace::Category::kApp)) {
      latency_hist_->Record(engine_->now() - start);
    }
    ++completed_;
    conn->Close();  // finish our side; the stack reaps the PCB when fully closed
    StartOne();     // closed loop: immediately issue the next request
  });
  if (request_timeout_ != 0) {
    const uint64_t epoch = ++timeout_epoch_;
    inflight_[c] = epoch;
    engine_->ScheduleAfter(request_timeout_, [this, c, epoch] {
      auto it = inflight_.find(c);
      if (it != inflight_.end() && it->second == epoch) {
        stack_->Abort(c);  // fires on_close with aborted() set
      }
    });
  }
}

OpenLoopHttpClient::OpenLoopHttpClient(sim::Engine* engine, const sim::CostModel* cost,
                                       hw::Nic* nic, net::IpAddr ip, net::IpAddr server_ip,
                                       std::string doc, sim::Cycles interval_cycles,
                                       net::TcpProfile profile)
    : engine_(engine),
      nic_(nic),
      server_ip_(server_ip),
      doc_(std::move(doc)),
      interval_(interval_cycles) {
  net::TcpStack::Hooks hooks;
  hooks.engine = engine;
  hooks.cost = cost;
  hooks.cpu = nullptr;  // load generators are infinitely fast
  hooks.transmit = [this](hw::Packet p, sim::Cycles when) {
    engine_->ScheduleAt(std::max(when, engine_->now()),
                        [this, p = std::move(p)]() mutable { nic_->Transmit(std::move(p)); });
  };
  stack_ = std::make_unique<net::TcpStack>(hooks, ip, profile);
  nic->SetReceiveHandler([this](hw::Packet p) { stack_->Input(p); });
}

void OpenLoopHttpClient::Start(sim::Cycles deadline) {
  deadline_ = deadline;
  Tick();
}

void OpenLoopHttpClient::Tick() {
  if (engine_->now() >= deadline_) {
    return;
  }
  if (persistent_) {
    IssuePersistent();
  } else {
    IssueOne();
  }
  engine_->ScheduleAfter(interval_, [this] { Tick(); });
}

void OpenLoopHttpClient::EnablePersistent(size_t pool_size, size_t max_pipeline) {
  persistent_ = true;
  max_pipeline_ = max_pipeline;
  pool_.assign(pool_size, PoolSlot{});
}

void OpenLoopHttpClient::ClosePool() {
  for (PoolSlot& slot : pool_) {
    if (slot.conn != nullptr) {
      slot.conn->Close();
    }
  }
}

namespace {

// Classifies a captured HTTP response (1.0 or 1.1): status from the first
// line, body completeness against Content-Length.
enum class RespKind { kOk, kShed, kBad };

bool StatusIs(const std::string& resp, const char* code) {
  return (resp.rfind("HTTP/1.0 ", 0) == 0 || resp.rfind("HTTP/1.1 ", 0) == 0) &&
         resp.compare(9, 3, code) == 0;
}

RespKind ClassifyResponse(const std::string& resp) {
  if (StatusIs(resp, "503")) {
    return RespKind::kShed;
  }
  if (!StatusIs(resp, "200")) {
    return RespKind::kBad;
  }
  const auto blank = resp.find("\r\n\r\n");
  if (blank == std::string::npos) {
    return RespKind::kBad;
  }
  const auto cl = resp.find("Content-Length: ");
  size_t want = 0;
  if (cl != std::string::npos && cl < blank) {
    want = std::strtoull(resp.c_str() + cl + 16, nullptr, 10);
  }
  return resp.size() - (blank + 4) == want ? RespKind::kOk : RespKind::kBad;
}

}  // namespace

void OpenLoopHttpClient::IssuePersistent() {
  ++issued_;
  const size_t idx = pool_rr_++ % pool_.size();
  PoolSlot& s = pool_[idx];
  if (s.conn == nullptr) {
    if (engine_->now() < s.retry_at) {
      // Slot is backing off a dead connection: the arrival neither waits nor
      // redials — open-loop client-side failure.
      ++failed_;
      return;
    }
    OpenPoolSlot(idx);
  }
  if (s.starts.size() + s.queued.size() >= max_pipeline_) {
    // This connection's pipeline is full: client-side shed, the open-loop
    // analogue of a connect timeout. The arrival process does not wait.
    ++failed_;
    return;
  }
  const std::string doc = doc_picker_ ? doc_picker_() : doc_;
  std::string req = "GET /" + doc + " HTTP/1.1\r\n\r\n";
  const sim::Cycles start = engine_->now();
  s.starts.push_back(start);
  if (!s.established) {
    s.queued.push_back(std::move(req));  // flushed when the handshake completes
  } else {
    s.conn->Send(std::vector<uint8_t>(req.begin(), req.end()));
  }
  if (request_timeout_ != 0) {
    net::TcpConn* c = s.conn;
    engine_->ScheduleAfter(request_timeout_, [this, idx, c, start] {
      PoolSlot& slot = pool_[idx];
      // Still the same connection and the oldest outstanding request is at
      // least as old as ours: the pipeline is stuck. Abort the connection;
      // on_close fails everything outstanding and the slot reconnects lazily.
      if (slot.conn == c && !slot.starts.empty() && slot.starts.front() <= start) {
        stack_->Abort(c);
      }
    });
  }
}

void OpenLoopHttpClient::OpenPoolSlot(size_t idx) {
  PoolSlot& s = pool_[idx];
  s.established = false;
  s.rx.clear();
  ++conns_opened_;
  s.conn = stack_->Connect(server_ip_, 80, [this, idx](net::TcpConn* conn) {
    PoolSlot& slot = pool_[idx];
    if (slot.conn != conn) {
      return;  // the slot moved on (abort + reconnect) before we established
    }
    slot.established = true;
    for (std::string& req : slot.queued) {
      conn->Send(std::vector<uint8_t>(req.begin(), req.end()));
    }
    slot.queued.clear();
  });
  s.conn->set_on_data([this, idx](net::TcpConn* conn, std::span<const uint8_t> d) {
    bytes_ += d.size();
    PoolSlot& slot = pool_[idx];
    if (slot.conn != conn) {
      return;
    }
    slot.rx.append(reinterpret_cast<const char*>(d.data()), d.size());
    DrainPoolResponses(idx);
  });
  s.conn->set_on_close([this, idx](net::TcpConn* conn) {
    PoolSlot& slot = pool_[idx];
    if (slot.conn != conn) {
      return;
    }
    // Everything still outstanding on this connection is lost.
    failed_ += slot.starts.size();
    slot.starts.clear();
    slot.queued.clear();
    slot.rx.clear();
    slot.established = false;
    slot.conn = nullptr;  // next issue through this slot reconnects
    if (conn->aborted() && reconnect_base_ != 0) {
      // Died hard (RST, retry exhaustion): back the slot off before redialing,
      // doubling per consecutive failure up to the cap, with seeded jitter so
      // a fleet of slots doesn't redial in lockstep.
      const uint32_t shift = slot.consec_fails < 16 ? slot.consec_fails : 16;
      sim::Cycles delay = reconnect_base_ << shift;
      if (reconnect_cap_ != 0 && delay > reconnect_cap_) {
        delay = reconnect_cap_;
      }
      delay += reconnect_rng_.Below(reconnect_base_ / 2 + 1);
      slot.retry_at = engine_->now() + delay;
      ++slot.consec_fails;
    }
    if (conn->state() == net::TcpConn::State::kCloseWait) {
      conn->Close();  // server closed first: finish our side too
    }
  });
}

void OpenLoopHttpClient::DrainPoolResponses(size_t idx) {
  PoolSlot& s = pool_[idx];
  for (;;) {
    const auto blank = s.rx.find("\r\n\r\n");
    if (blank == std::string::npos) {
      return;
    }
    size_t want = 0;
    const auto cl = s.rx.find("Content-Length: ");
    if (cl != std::string::npos && cl < blank) {
      want = std::strtoull(s.rx.c_str() + cl + 16, nullptr, 10);
    }
    const size_t total = blank + 4 + want;
    if (s.rx.size() < total) {
      return;  // body still in flight
    }
    const bool ok = StatusIs(s.rx, "200");
    const bool shed = StatusIs(s.rx, "503");
    s.rx.erase(0, total);
    if (s.starts.empty()) {
      ++failed_;  // a response with no matching request: protocol desync
      continue;
    }
    const sim::Cycles start = s.starts.front();
    s.starts.pop_front();
    if (ok) {
      ++completed_;
      latency_.Record(engine_->now() - start);
      s.consec_fails = 0;  // the connection is healthy: forget the backoff streak
      s.retry_at = 0;
    } else if (shed) {
      ++rejected_;
    } else {
      ++failed_;
    }
  }
}

void OpenLoopHttpClient::IssueOne() {
  ++issued_;
  ++conns_opened_;  // one fresh connection per request in the historical mode
  const std::string doc = doc_picker_ ? doc_picker_() : doc_;
  std::string req = "GET /" + doc + " HTTP/1.0\r\n\r\n";
  const sim::Cycles start = engine_->now();
  net::TcpConn* c = stack_->Connect(
      server_ip_, 80, [req](net::TcpConn* conn) {
        conn->Send(std::vector<uint8_t>(req.begin(), req.end()));
      });
  Pending& pending = responses_[c];
  pending.epoch = ++timeout_epoch_;
  c->set_on_data([this](net::TcpConn* conn, std::span<const uint8_t> d) {
    bytes_ += d.size();
    auto it = responses_.find(conn);
    if (it != responses_.end()) {
      it->second.data.append(reinterpret_cast<const char*>(d.data()), d.size());
    }
  });
  c->set_on_close([this, start](net::TcpConn* conn) {
    auto it = responses_.find(conn);
    if (it == responses_.end()) {
      return;  // already classified (close delivered once per conn, but be safe)
    }
    const std::string resp = std::move(it->second.data);
    responses_.erase(it);
    if (conn->aborted()) {
      ++failed_;  // RST (server deadline abort), retry exhaustion, or SYN shed
      return;
    }
    switch (ClassifyResponse(resp)) {
      case RespKind::kOk:
        ++completed_;
        latency_.Record(engine_->now() - start);
        break;
      case RespKind::kShed:
        ++rejected_;
        break;
      case RespKind::kBad:
        ++failed_;
        break;
    }
    conn->Close();
  });
  if (request_timeout_ != 0) {
    const uint64_t epoch = pending.epoch;
    engine_->ScheduleAfter(request_timeout_, [this, c, epoch] {
      auto it = responses_.find(c);
      if (it != responses_.end() && it->second.epoch == epoch) {
        stack_->Abort(c);  // fires on_close with aborted() set -> counted failed
      }
    });
  }
}

}  // namespace exo::apps
