// Shared pieces of the repository benchmark: the per-iteration result every
// workload returns, and the helpers that read the simulator's own counters,
// stats structs and trace rings from outside. Nothing here adds spans inside
// the simulator; per-layer numbers are either counts the modules already keep
// or host time measured around the benchmark's own calls.
#ifndef EXO_PERFBENCH_HARNESS_H_
#define EXO_PERFBENCH_HARNESS_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "exos/system.h"
#include "hw/machine.h"
#include "sim/counters.h"
#include "trace/histogram.h"
#include "trace/trace.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double SecondsSince(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

constexpr double kCyclesPerSecond = 200e6;  // the modelled 200 MHz Pentium Pro
constexpr double kCyclesPerMicro = kCyclesPerSecond / 1e6;
inline double SimSeconds(uint64_t cycles) { return static_cast<double>(cycles) / kCyclesPerSecond; }

// The paper's testbed machine: 64 MB of memory and one disk of `disk_mb`.
inline exo::hw::MachineConfig PaperMachine(uint32_t disk_mb) {
  exo::hw::MachineConfig cfg;
  cfg.mem_frames = 16384;
  cfg.disks = {exo::hw::DiskGeometry{.num_blocks = disk_mb * 256}};
  return cfg;
}

// Traced iterations get a ring large enough that no record of these workloads
// is dropped, so per-category record counts are exact (trace.dropped shows it).
constexpr size_t kTraceCapacity = size_t{1} << 19;

struct RunOptions {
  uint64_t seed = 1;
  bool traced = false;
  uint32_t threads = 2;  // cluster engine threads (web_fleet only)
};

// One iteration of a workload: set-up, then the measured phase, then output
// checks (which are neither in host_s nor in the simulated metrics).
struct Iteration {
  double setup_s = 0;  // host: construct machines, boot, stage inputs
  double host_s = 0;   // host: the measured phase
  uint64_t attempted = 0;  // operations plus output checks
  uint64_t failed = 0;     // failed checks, failed or shed operations
  // Simulated end-to-end metrics; identical for a given seed.
  std::map<std::string, double> sim;
  // Per-layer counts and ratios read from the modules; those that come from
  // the trace ring or its histograms are filled in traced iterations only.
  std::map<std::string, double> layer;
  // Per-layer host-time metrics, in their own units; taken from untraced
  // iterations so tracing cost does not inflate them.
  std::map<std::string, double> layer_host;
  // Every machine's counters, in machine order: with `sim` it forms sim_digest.
  std::string counters_dump;
};

Iteration RunLccInstall(const RunOptions& o);
Iteration RunGlobalMix(const RunOptions& o);
Iteration RunWebFleet(const RunOptions& o);

// Counts a check: one attempt, and a failure unless it held.
inline void Check(Iteration& it, bool ok) {
  ++it.attempted;
  if (!ok) {
    ++it.failed;
  }
}

// The simulated end-to-end metrics of a workload whose operations (steps,
// jobs) took `latencies_s` and finished all work in `sim_s`: nearest-rank p50
// and p99, the maximum, and operations per simulated second.
void AddOperationMetrics(Iteration& it, std::vector<double> latencies_s, double sim_s);

// "name value\n" for each counter; the cluster's MergedCountersDump format.
std::string CountersDump(const exo::sim::Counters& counters);

// Percentile of a LatencyHistogram, interpolated linearly inside the 1/16-octave
// bucket that holds the rank, so a percentile moves when the samples do rather
// than jumping between bucket bounds. `extra_top` samples count as larger than
// any recorded one (shed or failed requests); a rank among them returns
// `top_value`.
double InterpolatedPercentile(const exo::trace::LatencyHistogram& h, double p,
                              uint64_t extra_top = 0, double top_value = 0);

// Sum of the named histogram over tracers, matched by suffix so cluster
// machines' "m<id>." prefixes are covered.
exo::trace::LatencyHistogram MergedHistogram(const std::vector<exo::trace::Tracer*>& tracers,
                                             const std::string& suffix);

// Trace-ring counts of a traced run: trace.records, trace.dropped, sim.events
// (engine dispatch instants) and fs.ops (fs-category records), the last two
// only for records in [from, to) (the measured phase).
void AddTraceCounts(Iteration& it, const std::vector<exo::trace::Tracer*>& tracers,
                    uint64_t from, uint64_t to);

// A machine's disk and NIC stats (summed over devices) and counters (without
// the cluster "m<id>." prefix) at one instant.
struct MachineSnapshot {
  exo::hw::DiskStats disk;
  exo::hw::NicStats nic;
  std::map<std::string, uint64_t> counters;
};
MachineSnapshot Snapshot(exo::hw::Machine& m);

// Adds the disk, NIC and xok metrics of one machine over [before, after],
// an interval `window` cycles long; disk service and syscall latency
// percentiles come from the machine tracer's histograms. Metrics of a layer
// the machine lacks stay 0.
void AddMachineLayers(Iteration& it, exo::hw::Machine& m, const MachineSnapshot& before,
                      const MachineSnapshot& after, uint64_t window);

// Empties every histogram of a tracer, so they cover only what follows.
void ResetHistograms(exo::trace::Tracer& tracer);

// The measured phase of a workload on one os::System. Open and Close run
// inside the simulation at the phase's bounds; Report adds the machine, xn,
// exos and (when traced) trace metrics of that window.
struct SystemWindow {
  exo::sim::Cycles from = 0;
  exo::sim::Cycles to = 0;
  MachineSnapshot before;
  MachineSnapshot after;
  exo::xn::XnStats xn_before;
  exo::xn::XnStats xn_after;
  uint64_t syscalls = 0;

  void Open(exo::os::System& sys);
  void Close(exo::os::System& sys);
  void Report(Iteration& it, exo::os::System& sys, bool traced) const;
};

// Every per-layer metric the benchmark defines, in output order. Workloads
// that do not exercise a layer report it as 0.
const std::vector<std::string>& LayerMetricNames();

}  // namespace perfbench

#endif  // EXO_PERFBENCH_HARNESS_H_
