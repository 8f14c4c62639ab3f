// Fleet-scale HTTP: the demux flow cache under big filter tables, and Cheetah
// with persistent pipelined connections, the shared document store, the
// response cache, and gather transmit — against the historical
// connection-per-request server.
//
// Part 1 (kernel): N installed packet filters, all checking the destination
// port in the first 16 bytes. A packet for the *last* filter forces the linear
// walk to evaluate every program; the hashed flow cache replaces the walk with
// one probe after the first packet of the flow. Rows sweep N; the ablation
// gate is the simulated cycles-per-packet ratio at the largest table (wall
// clock is reported on stderr — informative, but CI machines are noisy).
//
// Part 2 (server): four client machines, one link each, offering an open-loop
// Zipf document mix at a ladder of arrival rates that crosses the server's
// capacity. The fleet lane runs Cheetah with HttpServerOptions fully armed and
// clients pipelining over ~10k pooled keep-alive connections; the legacy lane
// is the same Cheetah server in its historical close-per-request mode. Stdout
// is deterministic (sim metrics only). The JSON report goes to
// BENCH_fleet_http.json (--out overrides); with
// `--check bench/fleet_http_baseline.json` the binary exits nonzero unless the
// committed floors hold.
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "apps/http.h"
#include "bench/common.h"
#include "cluster/topology.h"
#include "hw/nic.h"
#include "sim/engine.h"
#include "sim/rng.h"
#include "udf/assembler.h"
#include "xok/capability.h"
#include "xok/kernel.h"

namespace {

using namespace exo;

constexpr uint32_t kMhz = 200;
constexpr sim::Cycles kCyclesPerSec = static_cast<sim::Cycles>(kMhz) * 1'000'000;

// ---- Part 1: demux ablation ----

struct DemuxResult {
  size_t filters = 0;
  double walk_cycles_per_pkt = 0;   // SetDemuxCache(false): linear program walk
  double cache_cycles_per_pkt = 0;  // cache on: one probe per packet after warmup
  double speedup = 0;
  double walk_wall_ns = 0;  // stderr only: not deterministic
  double cache_wall_ns = 0;
  uint64_t hits = 0;
  uint64_t misses = 0;
};

// Runs one configuration: installs `n_filters` port filters (target last, so
// the walk is worst-case), then times `packets` deliveries to the target flow.
// Returns {simulated cycles, wall ns} per packet.
void RunDemuxConfig(size_t n_filters, size_t packets, bool cache_on,
                    double* cycles_per_pkt, double* wall_ns_per_pkt, uint64_t* hits,
                    uint64_t* misses) {
  sim::Engine engine;
  hw::Machine machine(&engine, hw::MachineConfig{.mem_frames = 256});
  xok::XokKernel kernel(&machine);
  kernel.SetDemuxCache(cache_on);

  hw::Nic peer(99);
  hw::Link link(&engine, 1000.0, 1.0, kMhz);
  link.Connect(&peer, &machine.nic(0));

  // 16-byte frame whose destination port (offset 11, 2 bytes LE) is 80.
  std::vector<uint8_t> frame(16, 0);
  frame[11] = 80;

  constexpr size_t kBatch = 64;  // the filter ring capacity: no drops
  double cycles = 0;
  double wall_ns = 0;
  kernel.CreateEnv(xok::kInvalidEnv, {xok::Capability::Root()}, [&] {
    xok::FilterId target = 0;
    for (size_t i = 0; i < n_filters; ++i) {
      const unsigned port = i + 1 < n_filters ? 20000 + static_cast<unsigned>(i) : 80;
      auto prog = udf::Assemble("ld2 r1, r0, 11, meta\nldi r2, " + std::to_string(port) +
                                "\nceq r3, r1, r2\nret r3\n");
      EXO_CHECK(prog.ok);
      auto fid = kernel.SysFilterInstall(prog.program, 0);
      EXO_CHECK(fid.ok());
      target = *fid;
    }
    uint64_t consumed = 0;
    auto pump = [&](size_t count) {
      for (size_t off = 0; off < count; off += kBatch) {
        const size_t n = std::min(kBatch, count - off);
        for (size_t i = 0; i < n; ++i) {
          peer.Transmit({.bytes = frame});
        }
        const uint64_t want = consumed + n;
        xok::WakeupPredicate p;
        p.host = [&kernel, target, want] {
          return kernel.Filter(target)->delivered >= want;
        };
        kernel.SysSleep(std::move(p));
        for (size_t i = 0; i < n; ++i) {
          EXO_CHECK(kernel.SysRingConsume(target, 0).ok());
        }
        consumed = want;
      }
    };
    pump(kBatch);  // warmup: populates the flow cache (or proves the walk cold)
    const sim::Cycles c0 = engine.now();
    const auto t0 = std::chrono::steady_clock::now();
    pump(packets);
    const auto t1 = std::chrono::steady_clock::now();
    cycles = static_cast<double>(engine.now() - c0) / static_cast<double>(packets);
    wall_ns = std::chrono::duration<double, std::nano>(t1 - t0).count() /
              static_cast<double>(packets);
  });
  kernel.Run();
  *cycles_per_pkt = cycles;
  *wall_ns_per_pkt = wall_ns;
  *hits = machine.counters().Get("xok.demux_hits");
  *misses = machine.counters().Get("xok.demux_misses");
}

DemuxResult RunDemuxRow(size_t n_filters, size_t packets) {
  DemuxResult r;
  r.filters = n_filters;
  uint64_t h = 0;
  uint64_t m = 0;
  RunDemuxConfig(n_filters, packets, /*cache_on=*/false, &r.walk_cycles_per_pkt,
                 &r.walk_wall_ns, &h, &m);
  RunDemuxConfig(n_filters, packets, /*cache_on=*/true, &r.cache_cycles_per_pkt,
                 &r.cache_wall_ns, &r.hits, &r.misses);
  r.speedup = r.walk_cycles_per_pkt / r.cache_cycles_per_pkt;
  return r;
}

// ---- Part 2: fleet HTTP sweep ----

constexpr int kClients = 4;
constexpr size_t kPoolPerClient = 2'600;  // 4 x 2600 = 10,400 concurrent conns
constexpr size_t kMaxPipeline = 8;
constexpr size_t kNumDocs = 64;
constexpr sim::Cycles kClientTimeout = 100'000'000;  // 500 ms abandonment
constexpr double kSimSeconds = 0.5;

net::ServerOverloadPolicy FleetPolicy(bool persistent) {
  net::ServerOverloadPolicy p;
  p.enabled = true;
  p.listen_backlog = 512;
  p.high_watermark_us = 2'000;
  p.low_watermark_us = 500;
  // The per-request abort deadline suits close-per-request serving; on a
  // pipelined connection one abort kills every in-flight request on it and
  // forces a reconnect storm. The persistent lane relies on watermark
  // shedding plus the client-side abandonment timeout instead.
  p.request_deadline_us = persistent ? 0 : 100'000;
  return p;
}

// Zipf(1.1) over document ranks; rank 0 is both the most popular and the
// smallest, as on real sites (popular pages are small, archives are big).
struct ZipfPicker {
  std::vector<double> cdf;
  sim::Rng rng{12345};

  explicit ZipfPicker(size_t n) {
    double total = 0;
    cdf.resize(n);
    for (size_t i = 0; i < n; ++i) {
      total += 1.0 / std::pow(static_cast<double>(i + 1), 1.1);
      cdf[i] = total;
    }
    for (double& c : cdf) {
      c /= total;
    }
  }

  size_t Pick() {
    const double u = rng.NextDouble();
    size_t lo = 0;
    size_t hi = cdf.size() - 1;
    while (lo < hi) {
      const size_t mid = (lo + hi) / 2;
      if (cdf[mid] < u) {
        lo = mid + 1;
      } else {
        hi = mid;
      }
    }
    return lo;
  }
};

size_t DocBytes(size_t rank) { return 200 + rank * 64; }

// "d<rank>". Appended, not concatenated: GCC 12 at -O3 reports a false
// -Wrestrict overlap inside "d" + std::to_string(rank).
std::string DocName(size_t rank) {
  std::string name = "d";
  name += std::to_string(rank);
  return name;
}

struct FleetRunResult {
  double goodput = 0;  // completed / s
  double shed = 0;
  double failed = 0;
  double conns_per_s = 0;  // handshakes / s: what persistence amortizes away
  double p50_ms = 0;
  double p99_ms = 0;
  double p999_ms = 0;
  size_t peak_conns = 0;  // server-side concurrent connection high-water
  uint64_t cache_hits = 0;
  uint64_t cache_misses = 0;
  uint64_t cache_evictions = 0;
  uint64_t gather_sends = 0;
};

// Collects the per-run metrics shared by both wiring modes.
FleetRunResult CollectFleetResult(
    std::vector<std::unique_ptr<apps::OpenLoopHttpClient>>& clients,
    apps::HttpServer& server) {
  FleetRunResult r;
  trace::LatencyHistogram merged;
  uint64_t completed = 0, rejected = 0, failed = 0, conns = 0;
  for (auto& c : clients) {
    completed += c->completed();
    rejected += c->rejected();
    failed += c->failed();
    conns += c->conns_opened();
    merged.Merge(c->latency());
  }
  r.goodput = static_cast<double>(completed) / kSimSeconds;
  r.shed = static_cast<double>(rejected) / kSimSeconds;
  r.failed = static_cast<double>(failed) / kSimSeconds;
  r.conns_per_s = static_cast<double>(conns) / kSimSeconds;
  const double cycles_per_ms = static_cast<double>(kMhz) * 1000.0;
  r.p50_ms = static_cast<double>(merged.Percentile(50)) / cycles_per_ms;
  r.p99_ms = static_cast<double>(merged.Percentile(99)) / cycles_per_ms;
  r.p999_ms = static_cast<double>(merged.Percentile(99.9)) / cycles_per_ms;
  r.peak_conns = server.stack().peak_conn_count();
  r.cache_hits = server.cache_hits();
  r.cache_misses = server.cache_misses();
  r.cache_evictions = server.cache_evictions();
  r.gather_sends = server.gather_sends();
  return r;
}

// The server is one machine, every open-loop client generator runs on its own
// dedicated client machine with its own event queue; the wires between them
// are the conservative-horizon fabric. Output is bit-identical for any
// `threads`.
FleetRunResult RunFleetCluster(double offered_per_sec, bool armed,
                               uint32_t threads) {
  cluster::TopologyConfig tc;
  tc.servers = 1;
  tc.clients = kClients;
  tc.front_end_lb = false;  // per-client wires, as on the historical testbed
  tc.threads = threads;
  tc.client_mbit_per_s = 1000.0;
  tc.client_latency_us = 40.0;
  tc.machine.mem_frames = 256;
  tc.machine.disks.clear();
  cluster::Topology topo(tc);
  sim::CostModel cost = sim::CostModel::PentiumPro200();

  net::DocumentStore store(&cost);
  apps::HttpServerOptions opts;
  if (armed) {
    opts.persistent = true;
    opts.documents = &store;
    opts.response_cache_entries = 32;
    opts.gather_tx = true;
  }
  sim::Engine& server_engine = topo.engine_of(topo.server_id(0));
  apps::HttpServer server(&server_engine, &cost, apps::ServerStyle::kCheetah,
                          /*ip=*/cluster::Topology::kVip, opts);
  server.SetOverloadPolicy(FleetPolicy(armed));
  for (size_t i = 0; i < kNumDocs; ++i) {
    server.AddDocument(DocName(i),
                       std::vector<uint8_t>(DocBytes(i), static_cast<uint8_t>(i)));
  }
  EXO_CHECK_EQ(server.Listen(80), Status::kOk);

  std::vector<std::unique_ptr<apps::OpenLoopHttpClient>> clients;
  std::vector<std::unique_ptr<ZipfPicker>> pickers;
  const double per_client = offered_per_sec / kClients;
  const sim::Cycles interval =
      static_cast<sim::Cycles>(static_cast<double>(kCyclesPerSec) / per_client);
  for (int i = 0; i < kClients; ++i) {
    const uint32_t j = static_cast<uint32_t>(i);
    const net::IpAddr client_ip = topo.client_ip(j);
    server.AttachNic(&topo.server(0).nic(topo.server_nic_for_client(j)), client_ip);
    auto client = std::make_unique<apps::OpenLoopHttpClient>(
        &topo.engine_of(topo.client_id(j)), &cost, &topo.client(j).nic(0),
        client_ip, cluster::Topology::kVip, "d0", interval);
    client->set_request_timeout(kClientTimeout);
    auto picker = std::make_unique<ZipfPicker>(kNumDocs);
    client->set_doc_picker(
        [p = picker.get()] { return DocName(p->Pick()); });
    if (armed) {
      client->EnablePersistent(kPoolPerClient, kMaxPipeline);
    }
    pickers.push_back(std::move(picker));
    clients.push_back(std::move(client));
  }

  const sim::Cycles deadline = static_cast<sim::Cycles>(kSimSeconds * kCyclesPerSec);
  for (auto& c : clients) {
    c->Start(deadline);
  }
  topo.Run();
  return CollectFleetResult(clients, server);
}

void AddLane(const std::string& lane, const FleetRunResult& r, bench::Report* report) {
  report->Add(lane + "goodput", r.goodput);
  report->Add(lane + "shed", r.shed);
  report->Add(lane + "failed", r.failed);
  report->Add(lane + "conns_per_s", r.conns_per_s);
  report->Add(lane + "p50_ms", r.p50_ms);
  report->Add(lane + "p99_ms", r.p99_ms);
  report->Add(lane + "p999_ms", r.p999_ms);
  report->Add(lane + "peak_conns", r.peak_conns);
  report->Add(lane + "cache_hits", r.cache_hits);
  report->Add(lane + "gather_sends", r.gather_sends);
}

}  // namespace

int main(int argc, char** argv) {
  bench::Report report("fleet_http", argc, argv);
  const auto threads =
      static_cast<uint32_t>(std::atoi(bench::FlagValue(argc, argv, "--threads", "1").c_str()));
  report.Add("threads", threads);

  bench::PrintHeader("fleet HTTP: hashed demux + persistent pipelined Cheetah");

  // ---- Part 1: demux flow cache vs linear walk ----
  std::printf("\ndemux: cycles/packet, linear filter walk vs hashed flow cache\n");
  std::printf("%-9s %-11s %-11s %-8s %-7s %-7s\n", "filters", "walk cy/pkt",
              "cache cy/pkt", "speedup", "hits", "misses");
  DemuxResult big;  // the last row: the largest table
  for (size_t n : {64, 256, 1024, 2048}) {
    DemuxResult r = RunDemuxRow(n, /*packets=*/1024);
    std::printf("%-9zu %-11.0f %-11.0f %-8.1f %-7llu %-7llu\n", r.filters,
                r.walk_cycles_per_pkt, r.cache_cycles_per_pkt, r.speedup,
                static_cast<unsigned long long>(r.hits),
                static_cast<unsigned long long>(r.misses));
    std::fprintf(stderr, "demux %zu filters: wall %.0f ns/pkt walk, %.0f ns/pkt cached\n",
                 r.filters, r.walk_wall_ns, r.cache_wall_ns);
    std::string row = "demux.";
    row += std::to_string(n);
    report.Add(row + ".walk_cycles_per_pkt", r.walk_cycles_per_pkt);
    report.Add(row + ".cache_cycles_per_pkt", r.cache_cycles_per_pkt);
    report.Add(row + ".speedup", r.speedup);
    big = r;
  }

  // ---- Part 2: open-loop sweep, legacy vs fleet-armed Cheetah ----
  std::printf("\nhttp: %d clients, Zipf(1.1) over %zu docs, %.1fs simulated\n", kClients,
              kNumDocs, kSimSeconds);
  std::printf("mode: cluster (1 server + %d client machines; deterministic "
              "for any thread count)\n",
              kClients);
  std::printf("fleet lane: persistent+pipelined (%d x %zu conns), doc store, "
              "response cache, gather tx\n",
              kClients, kPoolPerClient);
  std::printf("%-9s | %-31s | %-61s\n", "", "legacy (conn per request)",
              "fleet (persistent + cache + gather)");
  std::printf("%-9s | %-9s %-9s %-10s | %-9s %-7s %-7s %-9s %-7s %-7s %-8s\n",
              "offered", "goodput", "conns/s", "p99ms", "goodput", "shed/s", "fail/s",
              "conns/s", "p99ms", "p999ms", "peak");

  const double rates[] = {5'000, 10'000, 20'000, 40'000};
  std::vector<FleetRunResult> legacy_v, fleet_v;
  size_t peak_conns = 0;
  for (double rate : rates) {
    const FleetRunResult legacy = RunFleetCluster(rate, /*armed=*/false, threads);
    const FleetRunResult fleet = RunFleetCluster(rate, /*armed=*/true, threads);
    std::printf(
        "%-9.0f | %-9.0f %-9.0f %-10.1f | %-9.0f %-7.0f %-7.0f %-9.0f %-7.1f %-7.1f "
        "%-8zu\n",
        rate, legacy.goodput, legacy.conns_per_s, legacy.p99_ms, fleet.goodput,
        fleet.shed, fleet.failed, fleet.conns_per_s, fleet.p99_ms, fleet.p999_ms,
        fleet.peak_conns);
    peak_conns = std::max(peak_conns, fleet.peak_conns);
    legacy_v.push_back(legacy);
    fleet_v.push_back(fleet);
    std::string row = "http.";
    row += std::to_string(static_cast<long>(rate));
    AddLane(row + ".legacy.", legacy, &report);
    AddLane(row + ".fleet.", fleet, &report);
  }
  // Gate row: the highest rate the fleet lane fully sustains — where the two
  // lanes diverge hardest. The final row is past both lanes' capacity, and
  // the armed lane does not shed gracefully there: it collapses to 440/s
  // goodput with 30180 shed/s and 9380 fail/s.
  constexpr size_t kGateIdx = 2;
  const FleetRunResult& fleet_gate = fleet_v[kGateIdx];
  const FleetRunResult& legacy_gate = legacy_v[kGateIdx];
  const double gate_ratio =
      legacy_gate.goodput > 0 ? fleet_gate.goodput / legacy_gate.goodput : 0;

  std::printf("\nat %.0f req/s offered: fleet goodput %.0f/s vs legacy %.0f/s "
              "(%.1fx), peak %zu concurrent conns\n",
              rates[kGateIdx], fleet_gate.goodput, legacy_gate.goodput, gate_ratio,
              peak_conns);
  std::printf("response cache at gate rate: %llu hits, %llu misses, %llu evictions; "
              "%llu gather sends\n",
              static_cast<unsigned long long>(fleet_gate.cache_hits),
              static_cast<unsigned long long>(fleet_gate.cache_misses),
              static_cast<unsigned long long>(fleet_gate.cache_evictions),
              static_cast<unsigned long long>(fleet_gate.gather_sends));

  report.Add("demux_speedup", big.speedup);
  report.Add("peak_concurrent_conns", peak_conns);
  report.Add("gate_rate", rates[kGateIdx]);
  report.Add("fleet_goodput_at_gate_rate", fleet_gate.goodput);
  report.Add("fleet_vs_legacy_goodput_ratio", gate_ratio);
  return report.Finish();
}
