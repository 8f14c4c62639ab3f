#include "harness.h"

#include <algorithm>
#include <cmath>
#include <cstring>

namespace perfbench {

using exo::trace::LatencyHistogram;

std::string CountersDump(const exo::sim::Counters& counters) {
  std::string out;
  for (const auto& [name, value] : counters.Snapshot()) {
    out += name;
    out += ' ';
    out += std::to_string(value);
    out += '\n';
  }
  return out;
}

namespace {

double NearestRank(const std::vector<double>& sorted, double p) {
  const size_t n = sorted.size();
  const size_t rank = static_cast<size_t>(std::ceil(p / 100.0 * static_cast<double>(n)));
  return sorted[std::clamp<size_t>(rank, 1, n) - 1];
}

// Value at 1-based rank r of the bucketed samples (the bucket's upper bound,
// clamped to the recorded min/max), via the histogram's public Percentile.
uint64_t ValueAtRank(const LatencyHistogram& h, uint64_t r) {
  // Percentile rounds p/100*count up to a rank; aim just below r so float
  // error cannot push it to r+1.
  const double p = (static_cast<double>(r) - 0.5) * 100.0 / static_cast<double>(h.count());
  return h.Percentile(p);
}

}  // namespace

void AddOperationMetrics(Iteration& it, std::vector<double> latencies_s, double sim_s) {
  if (latencies_s.empty() || sim_s <= 0) {
    return;
  }
  std::sort(latencies_s.begin(), latencies_s.end());
  it.sim["sim_s"] = sim_s;
  it.sim["sim_latency_p50_ms"] = NearestRank(latencies_s, 50) * 1e3;
  it.sim["sim_latency_p99_ms"] = NearestRank(latencies_s, 99) * 1e3;
  it.sim["sim_job_latency_max_s"] = latencies_s.back();
  it.sim["sim_goodput_rps"] = static_cast<double>(latencies_s.size()) / sim_s;
}

double InterpolatedPercentile(const LatencyHistogram& h, double p, uint64_t extra_top,
                              double top_value) {
  const uint64_t n = h.count() + extra_top;
  if (n == 0) {
    return 0;
  }
  uint64_t rank = static_cast<uint64_t>(std::ceil(p / 100.0 * static_cast<double>(n)));
  rank = std::clamp<uint64_t>(rank, 1, n);
  if (rank > h.count()) {
    return top_value;
  }
  const uint64_t v = ValueAtRank(h, rank);
  // Ranks [first, last] share v's bucket; bisect for both ends.
  uint64_t lo = 1;
  uint64_t hi = rank;
  while (lo < hi) {
    const uint64_t mid = (lo + hi) / 2;
    if (ValueAtRank(h, mid) < v) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  const uint64_t first = lo;
  lo = rank;
  hi = h.count();
  while (lo < hi) {
    const uint64_t mid = (lo + hi + 1) / 2;
    if (ValueAtRank(h, mid) > v) {
      hi = mid - 1;
    } else {
      lo = mid;
    }
  }
  const uint64_t last = lo;
  const uint32_t idx = LatencyHistogram::Index(v);
  uint64_t low = idx == 0 ? 0 : LatencyHistogram::BucketUpperBound(idx - 1) + 1;
  low = std::max(low, h.min());
  if (v <= low) {
    return static_cast<double>(v);
  }
  const double frac =
      static_cast<double>(rank - first + 1) / static_cast<double>(last - first + 1);
  return static_cast<double>(low) + frac * static_cast<double>(v - low);
}

LatencyHistogram MergedHistogram(const std::vector<exo::trace::Tracer*>& tracers,
                                 const std::string& suffix) {
  LatencyHistogram out;
  for (const exo::trace::Tracer* t : tracers) {
    for (const auto& [name, h] : t->histograms()) {
      if (name.size() >= suffix.size() &&
          name.compare(name.size() - suffix.size(), suffix.size(), suffix) == 0) {
        out.Merge(*h);
      }
    }
  }
  return out;
}

void AddTraceCounts(Iteration& it, const std::vector<exo::trace::Tracer*>& tracers,
                    uint64_t from, uint64_t to) {
  double records = 0;
  double dropped = 0;
  double events = 0;
  double fs_ops = 0;
  for (const exo::trace::Tracer* t : tracers) {
    records += static_cast<double>(t->emitted());
    dropped += static_cast<double>(t->dropped());
    for (const exo::trace::Record& r : t->Records()) {
      if (r.time < from || r.time >= to) {
        continue;
      }
      if (r.category == exo::trace::Category::kFs) {
        ++fs_ops;
      } else if (r.category == exo::trace::Category::kSched &&
                 r.kind == exo::trace::Kind::kInstant && std::strcmp(r.name, "event") == 0) {
        ++events;
      }
    }
  }
  it.layer["trace.records"] += records;
  it.layer["trace.dropped"] += dropped;
  it.layer["sim.events"] += events;
  it.layer["fs.ops"] += fs_ops;
}

MachineSnapshot Snapshot(exo::hw::Machine& m) {
  MachineSnapshot s;
  for (size_t i = 0; i < m.num_disks(); ++i) {
    const exo::hw::DiskStats& d = m.disk(i).stats();
    s.disk.requests += d.requests;
    s.disk.merged_requests += d.merged_requests;
    s.disk.seeks += d.seeks;
    s.disk.blocks_read += d.blocks_read;
    s.disk.blocks_written += d.blocks_written;
    s.disk.busy_cycles += d.busy_cycles;
  }
  for (size_t i = 0; i < m.num_nics(); ++i) {
    const exo::hw::NicStats& n = m.nic(i).stats();
    s.nic.tx_packets += n.tx_packets;
    s.nic.rx_packets += n.rx_packets;
    s.nic.dropped += n.dropped;
    s.nic.tx_rejected += n.tx_rejected;
  }
  const size_t strip = m.counters().prefix().size();
  for (const auto& [name, value] : m.counters().Snapshot()) {
    s.counters[name.substr(strip)] = value;
  }
  return s;
}

void AddMachineLayers(Iteration& it, exo::hw::Machine& m, const MachineSnapshot& before,
                      const MachineSnapshot& after, uint64_t window) {
  auto& L = it.layer;
  const auto delta = [](uint64_t a, uint64_t b) { return static_cast<double>(a - b); };
  const double requests = delta(after.disk.requests, before.disk.requests);
  const double merged = delta(after.disk.merged_requests, before.disk.merged_requests);
  L["disk.requests"] += requests;
  L["disk.merged_frac"] = requests + merged > 0 ? merged / (requests + merged) : 0;
  L["disk.seeks"] += delta(after.disk.seeks, before.disk.seeks);
  L["disk.blocks_read"] += delta(after.disk.blocks_read, before.disk.blocks_read);
  L["disk.blocks_written"] += delta(after.disk.blocks_written, before.disk.blocks_written);
  if (m.num_disks() > 0 && window > 0) {
    L["disk.busy_frac"] = delta(after.disk.busy_cycles, before.disk.busy_cycles) /
                          (static_cast<double>(window) * static_cast<double>(m.num_disks()));
  }
  L["nic.tx_packets"] += delta(after.nic.tx_packets, before.nic.tx_packets);
  L["nic.rx_packets"] += delta(after.nic.rx_packets, before.nic.rx_packets);
  L["nic.dropped"] += delta(after.nic.dropped, before.nic.dropped);
  L["nic.rejected"] += delta(after.nic.tx_rejected, before.nic.tx_rejected);
  for (const char* c : {"xok.syscalls", "xok.context_switches", "xok.page_faults",
                        "xok.predicate_evals", "xok.predicate_skips", "sched.stride_picks"}) {
    const auto a = after.counters.find(c);
    const auto b = before.counters.find(c);
    L[c] += static_cast<double>((a == after.counters.end() ? 0 : a->second) -
                                (b == before.counters.end() ? 0 : b->second));
  }
  const std::vector<exo::trace::Tracer*> tracers = {&m.tracer()};
  const LatencyHistogram service = MergedHistogram(tracers, "disk.service_cycles");
  L["disk.service_p50_us"] = InterpolatedPercentile(service, 50) / kCyclesPerMicro;
  L["disk.service_p99_us"] = InterpolatedPercentile(service, 99) / kCyclesPerMicro;
  const LatencyHistogram syscall = MergedHistogram(tracers, "syscall.latency_cycles");
  L["syscall.latency_p50_cycles"] = InterpolatedPercentile(syscall, 50);
  L["syscall.latency_p99_cycles"] = InterpolatedPercentile(syscall, 99);
}

void ResetHistograms(exo::trace::Tracer& tracer) {
  for (const auto& [name, h] : tracer.histograms()) {
    h->Reset();
  }
}

void SystemWindow::Open(exo::os::System& sys) {
  ResetHistograms(sys.machine().tracer());
  before = Snapshot(sys.machine());
  xn_before = sys.xn()->stats();
  syscalls = sys.syscall_count();
  from = sys.machine().engine().now();
}

void SystemWindow::Close(exo::os::System& sys) {
  to = sys.machine().engine().now();
  after = Snapshot(sys.machine());
  xn_after = sys.xn()->stats();
  syscalls = sys.syscall_count() - syscalls;
}

void SystemWindow::Report(Iteration& it, exo::os::System& sys, bool traced) const {
  AddMachineLayers(it, sys.machine(), before, after, to - from);
  const double ops = static_cast<double>(xn_after.ops - xn_before.ops);
  const double udf_runs = static_cast<double>(xn_after.udf_runs - xn_before.udf_runs);
  it.layer["xn.ops"] = ops;
  it.layer["xn.udf_runs"] = udf_runs;
  it.layer["xn.udf_runs_per_op"] = ops > 0 ? udf_runs / ops : 0;
  double spawns = 0;
  for (const auto& rec : sys.proc_records()) {
    spawns += rec.spawned_at >= from && rec.spawned_at < to ? 1 : 0;
  }
  it.layer["exos.spawns"] = spawns;
  it.layer["exos.syscalls"] = static_cast<double>(syscalls);
  if (traced) {
    AddTraceCounts(it, {&sys.machine().tracer()}, from, to);
  }
  it.counters_dump = CountersDump(sys.machine().counters());
}

const std::vector<std::string>& LayerMetricNames() {
  static const std::vector<std::string> names = [] {
    std::vector<std::string> v = {
        "sim.events", "sim.host_ns_per_event",
        "cluster.rounds", "cluster.cross_messages", "cluster.events_per_round",
        "cluster.host_us_per_round",
        "disk.requests", "disk.merged_frac", "disk.seeks", "disk.blocks_read",
        "disk.blocks_written", "disk.busy_frac", "disk.service_p50_us", "disk.service_p99_us",
        "nic.tx_packets", "nic.rx_packets", "nic.dropped", "nic.rejected",
        "xn.ops", "xn.udf_runs", "xn.udf_runs_per_op",
        "xok.syscalls", "xok.context_switches", "xok.page_faults", "xok.predicate_evals",
        "xok.predicate_skips", "sched.stride_picks", "syscall.latency_p50_cycles",
        "syscall.latency_p99_cycles",
        "fs.ops", "exos.spawns", "exos.syscalls",
    };
    for (const char* step : {"cp_small", "gunzip", "cp_large", "pax_r", "cp_r", "diff", "gcc",
                             "rm_o", "pax_w", "gzip", "rm_r"}) {
      v.push_back(std::string("apps.") + step + ".host_ms");
      v.push_back(std::string("apps.") + step + ".sim_s");
    }
    for (const char* m :
         {"http.requests_per_conn", "http.requests_per_conn_close", "http.cache_hit_frac",
          "http.cache_evictions", "http.gather_sends", "http.server_cpu_util", "http.shed",
          "tcp.segments_out", "tcp.segments_in", "tcp.retransmits", "tcp.pure_acks_out",
          "tcp.conns_opened", "tcp.rtt_p50_us", "tcp.rtt_p99_us", "trace.overhead_frac",
          "trace.records", "trace.dropped"}) {
      v.push_back(m);
    }
    return v;
  }();
  return names;
}

}  // namespace perfbench
