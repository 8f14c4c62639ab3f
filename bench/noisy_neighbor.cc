// Noisy-neighbor isolation: per-tenant goodput and tail latency under stride
// scheduling with per-tenant tickets + pressure revocation, vs the same
// scheduler with every env at equal tickets (per-env fairness).
//
// Method. Both lanes run the scenario in src/apps/noisy_neighbor.h from seed 1
// for 8 epochs, so they face an identical flood script: three latency-sensitive
// victim envs against an eight-worker flooder tenant. The table reports the
// victims' goodput (requests answered within the SLO), p50/p99 latency over
// the whole run, each tenant's CPU share (the `run` spans on its envs' trace
// tracks over the kernel's run, NoisyResult::kernel_end_time, which goes on
// past the epochs while the victims drain their backlog; the flooder's queued
// disk writes, which finish later with no env left to run, are not in it), and
// the pressure revocations.
//
// Stdout is the human-readable table (deterministic, golden-diffable). The
// JSON report goes to BENCH_noisy_neighbor.json (--out FILE overrides). With
// `--check bench/noisy_neighbor_baseline.json` the binary exits nonzero
// unless, under tenant tickets, victim goodput and p99 hold their committed
// bounds while the equal-ticket lane still demonstrates the starvation that
// per-tenant tickets exist to fix.
#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "apps/noisy_neighbor.h"
#include "bench/common.h"
#include "sim/check.h"

namespace {

using namespace exo;

double CpuFrac(const std::vector<apps::EnvRun>& runs, sim::Cycles length) {
  sim::Cycles cycles = 0;
  for (const apps::EnvRun& run : runs) {
    cycles += run.cycles;
  }
  return static_cast<double>(cycles) / static_cast<double>(length);
}

// Runs one lane, prints its table row and reports its metrics. Returns the
// victims' p99 latency in ms.
double Lane(bench::Report& report, const char* name, const std::string& lane,
            const apps::NoisyConfig& cfg) {
  const apps::NoisyResult r = apps::RunNoisyNeighbor(cfg);
  std::vector<sim::Cycles> all;
  for (const auto& victim : r.victims) {
    for (const apps::NoisySample& s : victim) {
      all.push_back(s.latency);
    }
  }
  EXO_CHECK_EQ(all.size(), r.requests_per_victim * apps::kVictims);  // none lost outright
  std::sort(all.begin(), all.end());
  const auto good = std::count_if(all.begin(), all.end(),
                                  [](sim::Cycles l) { return l <= apps::kLatencySlo; });
  const double cycles_per_ms = apps::kNoisyMhz * 1000.0;
  const double goodput = static_cast<double>(good) / static_cast<double>(all.size());
  const double p50 = static_cast<double>(all[all.size() / 2]) / cycles_per_ms;
  const double p99 = static_cast<double>(all[(all.size() * 99 + 99) / 100 - 1]) / cycles_per_ms;
  // One CPU runs at most one env at a time, so the shares of the kernel's run
  // sum to at most 1.
  const double victim_cpu = CpuFrac(r.victim_runs, r.kernel_end_time);
  const double flood_cpu = CpuFrac(r.flood_runs, r.kernel_end_time);
  EXO_CHECK_LE(victim_cpu + flood_cpu, 1.0);
  std::printf("%-12s %-9.3f %-8.2f %-8.2f %-11.2f %-10.2f %-8llu\n", name, goodput, p50, p99,
              victim_cpu, flood_cpu, static_cast<unsigned long long>(r.pressure_revokes));
  report.Add(lane + ".goodput_frac", goodput);
  report.Add(lane + ".p50_ms", p50);
  report.Add(lane + ".p99_ms", p99);
  report.Add(lane + ".victim_cpu_frac", victim_cpu);
  report.Add(lane + ".flood_cpu_frac", flood_cpu);
  report.Add(lane + ".pressure_revokes", r.pressure_revokes);
  return p99;
}

}  // namespace

int main(int argc, char** argv) {
  bench::Report report("noisy_neighbor", argc, argv);
  apps::NoisyConfig cfg;
  bench::PrintHeader("noisy neighbor: per-tenant goodput/latency, tenant vs equal tickets");
  std::printf("victims %d x %u tickets, flooder %d x %u tickets (control: all %u), "
              "%llu epochs of %.1f ms\n\n",
              apps::kVictims, apps::kVictimTickets, apps::kFloodWorkers, apps::kFloodTickets,
              apps::kEqualTickets, static_cast<unsigned long long>(cfg.epochs),
              static_cast<double>(apps::kNoisyEpoch) / (apps::kNoisyMhz * 1000.0));

  std::printf("%-12s %-9s %-8s %-8s %-11s %-10s %-8s\n", "scheduler", "goodput",
              "p50ms", "p99ms", "victim-cpu", "flood-cpu", "revokes");
  const double stride_p99 = Lane(report, "stride", "stride", cfg);
  cfg.equal_tickets = true;
  const double equal_p99 = Lane(report, "equal-ticket", "equal_tickets", cfg);
  std::printf("\nvictim p99: %.2f ms under tenant tickets vs %.2f ms under equal tickets "
              "(%.0fx)\n",
              stride_p99, equal_p99, equal_p99 / stride_p99);

  return report.Finish();
}
