// Repository benchmark binary: runs one workload over and over for a fixed
// host time and prints, as its last stdout line, one JSON object
//   {"correct": ..., "attempted": N, "failed": N, "sim_digest": "...",
//    "metrics": {"<name>": <value>, ...}}
// perfbench/run.py builds this binary and attaches units from BENCHMARK.json.
//
//   perfbench --workload lcc_install|global_mix|web_fleet --seed N
//             --seconds S --trace 0|1
//
// --trace 0 reports the end-to-end metrics: medians over iterations of the
// host times (in reference seconds, see below), peak RSS, and the simulated
// metrics (which are identical in every iteration of a seed; each iteration
// checks that). The error rate is failed / attempted.
// --trace 1 alternates untraced and traced iterations and reports the
// per-layer metrics: counts from a traced iteration (every trace category on),
// host times per layer from the untraced ones, and the tracing overhead.
#include <sys/mman.h>
#include <sys/resource.h>

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <string>
#include <vector>

#include "harness.h"
#include "sim/rng.h"

namespace perfbench {
namespace {

// The host speed probe's time on the host the benchmark was tuned on (a
// shared 4-vCPU Xeon VM at 2.0 GHz).
constexpr double kProbeReferenceS = 0.03;

struct Args {
  std::string workload;
  uint64_t seed = 0;
  double seconds = 0;
  bool trace = false;
};

bool ParseArgs(int argc, char** argv, Args* a) {
  bool seen[4] = {false, false, false, false};
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* v = argv[i + 1];
    char* end = nullptr;
    if (flag == "--workload") {
      a->workload = v;
      seen[0] = true;
    } else if (flag == "--seed") {
      a->seed = std::strtoull(v, &end, 10);
      seen[1] = *end == '\0';
    } else if (flag == "--seconds") {
      a->seconds = std::strtod(v, &end);
      seen[2] = *end == '\0' && a->seconds >= 0;
    } else if (flag == "--trace") {
      a->trace = std::strcmp(v, "1") == 0;
      seen[3] = a->trace || std::strcmp(v, "0") == 0;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && seen[0] && seen[1] && seen[2] && seen[3];
}

double Median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

template <typename F>
double MedianOf(const std::vector<Iteration>& its, F field) {
  std::vector<double> v;
  for (const Iteration& it : its) {
    v.push_back(field(it));
  }
  return Median(v);
}

// Shortest decimal that reads back as the same double.
std::string Number(double v) {
  if (!std::isfinite(v)) {
    return "null";
  }
  char buf[64];
  const auto res = std::to_chars(buf, buf + sizeof(buf), v);
  return std::string(buf, res.ptr);
}

std::string Digest(const Iteration& it) {
  std::string state = it.counters_dump;
  for (const auto& [name, value] : it.sim) {
    state += name + "=" + Number(value) + "\n";
  }
  uint64_t h = 1469598103934665603ull;  // FNV-1a
  for (unsigned char c : state) {
    h = (h ^ c) * 1099511628211ull;
  }
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx", static_cast<unsigned long long>(h));
  return buf;
}

volatile uint64_t probe_sink = 0;  // keeps the probe's work observable

// The host's speed probe: a fixed kernel that shares no code with the
// simulator and mixes what the workloads spend host time on: faulting in and
// zeroing fresh pages (machine construction zero-fills disks), a random walk
// through one 4 MiB cycle (the maps and heaps of the simulator), and
// dependent integer work.
double ProbeSeconds() {
  constexpr uint32_t kSlots = uint32_t{1} << 20;
  // Fresh pages come 2 MiB at a time so the probe barely raises peak RSS.
  constexpr size_t kFreshBytes = size_t{2} << 20;
  constexpr int kFreshRounds = 8;
  static const std::vector<uint32_t> next = [] {
    std::vector<uint32_t> v(kSlots);
    for (uint32_t i = 0; i < kSlots; ++i) {
      v[i] = i;
    }
    exo::sim::Rng rng(1);
    for (uint32_t i = kSlots - 1; i > 0; --i) {  // Sattolo: one cycle
      std::swap(v[i], v[rng.Below(i)]);
    }
    return v;
  }();
  const Clock::time_point t0 = Clock::now();
  for (int round = 0; round < kFreshRounds; ++round) {
    void* fresh = mmap(nullptr, kFreshBytes, PROT_READ | PROT_WRITE,
                       MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
    if (fresh != MAP_FAILED) {
      std::memset(fresh, 1, kFreshBytes);
      munmap(fresh, kFreshBytes);
    }
  }
  uint32_t at = 0;
  uint64_t h = 0;
  for (uint32_t step = 0; step < kSlots / 4; ++step) {
    at = next[at];
    for (int k = 0; k < 16; ++k) {
      h = (h ^ at ^ static_cast<uint64_t>(k)) * 1099511628211ull;
    }
  }
  probe_sink = h;
  return SecondsSince(t0);
}

double PeakRssMb() {
  struct rusage ru {};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: %s --workload lcc_install|global_mix|web_fleet --seed N "
                 "--seconds S --trace 0|1\n",
                 argv[0]);
    return 2;
  }
  const std::map<std::string, Iteration (*)(const RunOptions&)> workloads = {
      {"lcc_install", RunLccInstall},
      {"global_mix", RunGlobalMix},
      {"web_fleet", RunWebFleet},
  };
  const auto w = workloads.find(args.workload);
  if (w == workloads.end()) {
    std::fprintf(stderr, "unknown workload %s\n", args.workload.c_str());
    return 2;
  }

  // At least one iteration of each kind; then whole iterations until the
  // measuring time is spent.
  //
  // Shared hosts drift by tens of percent within minutes, which would swamp
  // any change worth measuring. So the host probe runs between iterations,
  // and host times are reported in reference seconds: measured seconds times
  // kProbeReferenceS over the run's median probe time. A faster simulator
  // still reads faster; a slower host does not.
  std::vector<Iteration> plain;
  std::vector<Iteration> traced;
  std::vector<double> probes;
  const Clock::time_point start = Clock::now();
  do {
    probes.push_back(ProbeSeconds());
    plain.push_back(w->second({.seed = args.seed, .traced = false}));
    if (args.trace) {
      traced.push_back(w->second({.seed = args.seed, .traced = true}));
    }
  } while (SecondsSince(start) < args.seconds);
  probes.push_back(ProbeSeconds());
  const double speed = kProbeReferenceS / Median(probes);

  uint64_t attempted = 0;
  uint64_t failed = 0;
  // Every iteration of a seed, traced or not, must simulate the same thing.
  const std::string digest = Digest(plain.front());
  auto check = [&](bool ok) {
    ++attempted;
    failed += ok ? 0 : 1;
  };
  for (const auto* its : {&plain, &traced}) {
    for (const Iteration& it : *its) {
      attempted += it.attempted;
      failed += it.failed;
      check(Digest(it) == digest);
    }
  }
  if (args.trace && args.workload == "web_fleet") {
    // The cluster engine's determinism contract: one thread, same result.
    check(Digest(w->second({.seed = args.seed, .traced = false, .threads = 1})) == digest);
  }

  std::map<std::string, double> metrics;
  const double host_s = speed * MedianOf(plain, [](const Iteration& it) { return it.host_s; });
  if (!args.trace) {
    metrics = plain.front().sim;
    metrics["host_s"] = host_s;
    metrics["setup_s"] = speed * MedianOf(plain, [](const Iteration& it) { return it.setup_s; });
    metrics["peak_rss_mb"] = PeakRssMb();
  } else {
    for (const std::string& name : LayerMetricNames()) {
      const auto v = traced.front().layer.find(name);
      metrics[name] = v == traced.front().layer.end() ? 0 : v->second;
    }
    for (const auto& [name, value] : plain.front().layer_host) {
      metrics[name] =
          speed * MedianOf(plain, [&](const Iteration& it) { return it.layer_host.at(name); });
    }
    if (metrics["sim.events"] > 0) {
      metrics["sim.host_ns_per_event"] = host_s * 1e9 / metrics["sim.events"];
    }
    if (metrics["cluster.rounds"] > 0) {
      metrics["cluster.host_us_per_round"] = host_s * 1e6 / metrics["cluster.rounds"];
    }
    metrics["trace.overhead_frac"] =
        speed * MedianOf(traced, [](const Iteration& it) { return it.host_s; }) / host_s - 1.0;
  }

  std::printf("%s: %zu untraced and %zu traced iterations, error_rate %g, probe %.5f s, "
              "sim_digest %s\n",
              args.workload.c_str(), plain.size(), traced.size(),
              static_cast<double>(failed) / static_cast<double>(attempted), Median(probes),
              digest.c_str());
  std::string json = "{\"correct\": " + std::string(failed == 0 ? "true" : "false") +
                     ", \"attempted\": " + std::to_string(attempted) +
                     ", \"failed\": " + std::to_string(failed) + ", \"sim_digest\": \"" +
                     digest + "\", \"metrics\": {";
  const char* sep = "";
  for (const auto& [name, value] : metrics) {
    json += sep + ("\"" + name + "\": ") + Number(value);
    sep = ", ";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  return 0;
}
