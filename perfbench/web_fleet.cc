// web_fleet: Cheetah serving a Zipf(1.1) mix over 64 documents from one
// server machine to four client machines on a cluster::Topology, driven by
// open-loop generators in simulated time. The 32-entry response cache is
// smaller than the document set. Three clients pipeline over small keep-alive
// pools, so connections are reused; the fourth is HTTP/1.0 close-per-request,
// so connection churn runs beside keep-alive. The server rewrites one
// document every few milliseconds, which invalidates cached responses by
// generation. The offered rate is below the server's capacity: every request
// should complete. It touches no fs, xn or disk code.
//
// The seed picks the document contents, each client's rate and request
// stream, and the rewrite sequence.
#include <cmath>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "harness.h"

#include "apps/http.h"
#include "cluster/topology.h"
#include "sim/rng.h"

namespace perfbench {
namespace {

namespace apps = exo::apps;
namespace net = exo::net;
using exo::sim::Cycles;

constexpr uint32_t kClients = 4;
constexpr uint32_t kCloseClient = 3;   // the HTTP/1.0 close-per-request client
constexpr size_t kPoolPerClient = 8;   // keep-alive connections per client
constexpr size_t kMaxPipeline = 8;
constexpr size_t kNumDocs = 64;
constexpr size_t kCacheEntries = 32;
// Each client's open-loop rate is drawn from the seed within +-3% of this,
// well below the server's capacity.
constexpr double kRequestsPerSecondPerClient = 3'000;
constexpr double kOfferedSeconds = 1.0;
constexpr Cycles Ms(double ms) { return static_cast<Cycles>(ms * 1e3 * kCyclesPerMicro); }
constexpr Cycles kClientTimeout = Ms(100);  // a request unanswered this long fails
constexpr Cycles kRewriteEvery = Ms(2);     // one document rewrite per 2 ms

// Popular pages are small, archives are big (rank 0 is the most popular).
size_t DocBytes(size_t rank) { return 200 + rank * 64; }

// Bytes of one 200 response carrying `body` bytes: Cheetah's persistent-mode
// header, padded to even length so the stored body checksum staples on.
uint64_t ResponseBytes(size_t body) {
  size_t header = std::string("HTTP/1.1 200 OK\r\nContent-Length: ").size() +
                  std::to_string(body).size();
  header += (header + 4) % 2;
  return header + 4 + body;
}

std::vector<uint8_t> DocContent(size_t rank, exo::sim::Rng& rng) {
  std::vector<uint8_t> bytes(DocBytes(rank));
  for (uint8_t& b : bytes) {
    b = static_cast<uint8_t>('a' + rng.Below(26));
  }
  return bytes;
}

// Zipf(1.1) over document ranks.
class ZipfPicker {
 public:
  ZipfPicker(size_t n, uint64_t seed) : rng_(seed) {
    double total = 0;
    for (size_t i = 0; i < n; ++i) {
      total += 1.0 / std::pow(static_cast<double>(i + 1), 1.1);
      cdf_.push_back(total);
    }
    for (double& c : cdf_) {
      c /= total;
    }
  }

  size_t Pick() {
    const double u = rng_.NextDouble();
    size_t lo = 0;
    size_t hi = cdf_.size() - 1;
    while (lo < hi) {
      const size_t mid = (lo + hi) / 2;
      if (cdf_[mid] < u) {
        lo = mid + 1;
      } else {
        hi = mid;
      }
    }
    return lo;
  }

 private:
  std::vector<double> cdf_;
  exo::sim::Rng rng_;
};

// One client's request stream: what it asked for, for the body check.
struct Stream {
  std::unique_ptr<ZipfPicker> picker;
  uint64_t expected_bytes = 0;  // sum of ResponseBytes over picked documents
};

}  // namespace

Iteration RunWebFleet(const RunOptions& o) {
  Iteration it;
  const Clock::time_point setup_start = Clock::now();
  exo::cluster::TopologyConfig tc;
  tc.servers = 1;
  tc.clients = kClients;
  tc.front_end_lb = false;
  tc.threads = o.threads;
  tc.seed = o.seed;
  tc.client_mbit_per_s = 1000.0;
  tc.client_latency_us = 40.0;
  tc.machine.mem_frames = 256;
  tc.machine.disks.clear();
  exo::cluster::Topology topo(tc);
  std::vector<exo::trace::Tracer*> tracers;
  for (uint32_t id = 0; id < topo.num_machines(); ++id) {
    tracers.push_back(&topo.machine(id).tracer());
    if (o.traced) {
      tracers.back()->Enable(exo::trace::kAllCategories, kTraceCapacity);
    }
  }
  const exo::sim::CostModel cost = exo::sim::CostModel::PentiumPro200();
  exo::sim::Rng rng(exo::cluster::DeriveSeed(o.seed, 1));

  net::DocumentStore store(&cost);
  apps::HttpServerOptions opts;
  opts.persistent = true;
  opts.documents = &store;
  opts.response_cache_entries = kCacheEntries;
  opts.gather_tx = true;
  exo::sim::Engine& server_engine = topo.engine_of(topo.server_id(0));
  apps::HttpServer server(&server_engine, &cost, apps::ServerStyle::kCheetah,
                          exo::cluster::Topology::kVip, opts);
  net::ServerOverloadPolicy policy;
  policy.enabled = true;
  policy.listen_backlog = 512;
  server.SetOverloadPolicy(policy);
  for (size_t i = 0; i < kNumDocs; ++i) {
    server.AddDocument("d" + std::to_string(i), DocContent(i, rng));
  }
  if (o.traced) {
    server.SetTracer(&topo.server(0).tracer());
  }
  Check(it, server.Listen(80) == exo::Status::kOk);

  std::vector<std::unique_ptr<apps::OpenLoopHttpClient>> clients;
  std::vector<Stream> streams(kClients);
  for (uint32_t j = 0; j < kClients; ++j) {
    const net::IpAddr ip = topo.client_ip(j);
    server.AttachNic(&topo.server(0).nic(topo.server_nic_for_client(j)), ip);
    auto client = std::make_unique<apps::OpenLoopHttpClient>(
        &topo.engine_of(topo.client_id(j)), &cost, &topo.client(j).nic(0), ip,
        exo::cluster::Topology::kVip, "d0",
        static_cast<Cycles>(kCyclesPerSecond /
                            (kRequestsPerSecondPerClient * (0.97 + 0.06 * rng.NextDouble()))));
    client->set_request_timeout(kClientTimeout);
    Stream& s = streams[j];
    s.picker = std::make_unique<ZipfPicker>(kNumDocs, exo::cluster::DeriveSeed(o.seed, 100 + j));
    client->set_doc_picker([&s] {
      const size_t rank = s.picker->Pick();
      s.expected_bytes += ResponseBytes(DocBytes(rank));
      return "d" + std::to_string(rank);
    });
    if (j != kCloseClient) {
      client->EnablePersistent(kPoolPerClient, kMaxPipeline);
    }
    clients.push_back(std::move(client));
  }

  // Same-size rewrites on the server's own engine. DocumentStore::Put frees
  // the old bytes and checksums, which zero-copy sends still in flight point
  // at; an open-loop run never quiesces, so the old buffers are moved out and
  // kept until the run ends, as a merged file cache would pin them.
  const Cycles deadline = static_cast<Cycles>(kOfferedSeconds * kCyclesPerSecond);
  std::vector<std::vector<uint8_t>> retired_bytes;
  std::vector<std::vector<uint32_t>> retired_sums;
  for (Cycles t = kRewriteEvery; t < deadline; t += kRewriteEvery) {
    server_engine.ScheduleAt(t, [&] {
      const size_t rank = static_cast<size_t>(rng.Below(kNumDocs));
      const std::string name = "d" + std::to_string(rank);
      auto* doc = const_cast<net::DocumentStore::Doc*>(store.Find(name));
      retired_bytes.push_back(std::move(doc->bytes));
      retired_sums.push_back(std::move(doc->checksums));
      store.Put(name, DocContent(rank, rng));
    });
  }
  it.setup_s = SecondsSince(setup_start);

  const Clock::time_point measure_start = Clock::now();
  for (auto& c : clients) {
    c->Start(deadline);
  }
  topo.Run();
  it.host_s = SecondsSince(measure_start);

  // Output checks: every request is accounted for, and the 200 responses
  // carried exactly the bodies of the documents asked for (checked in bulk
  // per client, when all of its requests completed).
  exo::trace::LatencyHistogram latency;
  uint64_t completed = 0;
  uint64_t missed = 0;
  double keepalive_completed = 0;
  double keepalive_conns = 0;
  for (uint32_t j = 0; j < kClients; ++j) {
    const apps::OpenLoopHttpClient& c = *clients[j];
    Check(it, c.issued() == c.completed() + c.rejected() + c.failed());
    if (c.rejected() + c.failed() == 0) {
      Check(it, c.bytes_received() == streams[j].expected_bytes);
    }
    it.attempted += c.issued();
    it.failed += c.rejected() + c.failed();
    completed += c.completed();
    missed += c.rejected() + c.failed();
    latency.Merge(c.latency());
    if (j == kCloseClient) {
      it.layer["http.requests_per_conn_close"] =
          c.conns_opened() > 0 ? static_cast<double>(c.completed()) / c.conns_opened() : 0;
    } else {
      keepalive_completed += static_cast<double>(c.completed());
      keepalive_conns += static_cast<double>(c.conns_opened());
    }
  }

  // Shed and failed requests count as missing any latency limit: they rank
  // above every completed request, at the client timeout.
  const auto ms = [](double cycles) { return cycles / kCyclesPerMicro / 1e3; };
  const double timeout = static_cast<double>(kClientTimeout);
  // Open-loop arrivals fix when the work ends, so the simulated time the
  // work takes is the server CPU's busy time.
  it.sim["sim_s"] = SimSeconds(server.cpu().total_busy());
  it.sim["sim_goodput_rps"] = static_cast<double>(completed) / kOfferedSeconds;
  it.sim["sim_latency_p50_ms"] = ms(InterpolatedPercentile(latency, 50, missed, timeout));
  it.sim["sim_latency_p99_ms"] = ms(InterpolatedPercentile(latency, 99, missed, timeout));
  it.sim["sim_job_latency_max_s"] = SimSeconds(missed > 0 ? kClientTimeout : latency.max());

  auto& L = it.layer;
  L["http.requests_per_conn"] = keepalive_conns > 0 ? keepalive_completed / keepalive_conns : 0;
  const double lookups = static_cast<double>(server.cache_hits() + server.cache_misses());
  L["http.cache_hit_frac"] = lookups > 0 ? static_cast<double>(server.cache_hits()) / lookups : 0;
  L["http.cache_evictions"] = static_cast<double>(server.cache_evictions());
  L["http.gather_sends"] = static_cast<double>(server.gather_sends());
  L["http.server_cpu_util"] =
      static_cast<double>(server.cpu().total_busy()) / static_cast<double>(deadline);
  L["http.shed"] = static_cast<double>(server.requests_rejected());
  const net::TcpStats& tcp = server.stack().stats();
  L["tcp.segments_out"] = static_cast<double>(tcp.segments_out);
  L["tcp.segments_in"] = static_cast<double>(tcp.segments_in);
  L["tcp.retransmits"] = static_cast<double>(tcp.retransmits);
  L["tcp.pure_acks_out"] = static_cast<double>(tcp.pure_acks_out);
  L["tcp.conns_opened"] = static_cast<double>(tcp.conns_opened);
  const exo::trace::LatencyHistogram rtt = MergedHistogram(tracers, "tcp.rtt_cycles");
  L["tcp.rtt_p50_us"] = InterpolatedPercentile(rtt, 50) / kCyclesPerMicro;
  L["tcp.rtt_p99_us"] = InterpolatedPercentile(rtt, 99) / kCyclesPerMicro;
  L["cluster.rounds"] = static_cast<double>(topo.cluster().rounds());
  L["cluster.cross_messages"] = static_cast<double>(topo.cluster().cross_messages());
  for (uint32_t id = 0; id < topo.num_machines(); ++id) {
    exo::hw::Machine& m = topo.machine(id);
    AddMachineLayers(it, m, MachineSnapshot{}, Snapshot(m), deadline);
  }
  if (o.traced) {
    AddTraceCounts(it, tracers, 0, std::numeric_limits<uint64_t>::max());
    L["cluster.events_per_round"] =
        L["cluster.rounds"] > 0 ? L["sim.events"] / L["cluster.rounds"] : 0;
  }
  it.counters_dump = topo.MergedCountersDump();
  return it;
}

}  // namespace perfbench
