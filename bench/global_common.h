// Shared driver for the global-performance experiments (Sec. 8, Figures 4 and 5):
// run a randomized job mix from an apps:: pool with a fixed concurrency cap and
// report total throughput plus per-job min/max latency. The pseudo-random
// schedules are seeded identically across compared systems, as in the paper.
#ifndef EXO_BENCH_GLOBAL_COMMON_H_
#define EXO_BENCH_GLOBAL_COMMON_H_

#include <algorithm>

#include "bench/common.h"
#include "sim/rng.h"

namespace exo::bench {

struct GlobalResult {
  double total = 0;  // end-to-end seconds (throughput)
  double max_latency = 0;
  double min_latency = 0;
};

inline GlobalResult RunGlobal(os::Flavor flavor, const std::vector<apps::Job>& pool,
                              const apps::SharedInputSpecs& inputs, int total_jobs,
                              int max_concurrent, uint64_t seed,
                              const TraceOptions* trace_opts = nullptr) {
  sim::Engine engine;
  hw::Machine machine(&engine, PaperMachine(512));
  if (trace_opts != nullptr && trace_opts->on()) {
    machine.tracer().Enable(trace_opts->mask);
  }
  os::System sys(&machine, flavor);
  EXO_CHECK_EQ(sys.Boot(), Status::kOk);

  GlobalResult result;
  sys.SpawnInit("sh", [&](os::UnixEnv& env) {
    // Identical pseudo-random schedules across systems (same seed, Sec. 8).
    sim::Rng rng(seed);
    std::vector<size_t> schedule;
    for (int i = 0; i < total_jobs; ++i) {
      schedule.push_back(static_cast<size_t>(rng.Below(pool.size())));
    }
    // Pre-create each job instance's private directory and the shared inputs (untimed).
    for (int i = 0; i < total_jobs; ++i) {
      EXO_CHECK_EQ(env.Mkdir(apps::JobDir(i)), Status::kOk);
      if (pool[schedule[static_cast<size_t>(i)]].reads_shared && !env.Stat("/shared").ok()) {
        EXO_CHECK_EQ(apps::MakeSharedInputs(env, inputs), Status::kOk);
      }
    }
    EXO_CHECK_EQ(env.Sync(), Status::kOk);

    const sim::Cycles t0 = env.Now();
    for (Status s : apps::RunJobs(env, pool, schedule, max_concurrent)) {
      EXO_CHECK_EQ(s, Status::kOk);
    }
    result.total = Secs(env.Now() - t0);
  });
  sys.Run();

  result.min_latency = 1e18;
  for (const auto& rec : sys.proc_records()) {
    if (rec.program == "sh") {
      continue;  // the driver itself
    }
    double lat = Secs(rec.exited_at - rec.spawned_at);
    result.max_latency = std::max(result.max_latency, lat);
    result.min_latency = std::min(result.min_latency, lat);
  }
  if (trace_opts != nullptr) {
    WriteTraceFile(machine.tracer(), *trace_opts);
  }
  return result;
}

// --trace=PATH captures the highest-concurrency Xok/ExOS run.
inline void PrintGlobalTable(const char* title, const std::vector<apps::Job>& pool,
                             const apps::SharedInputSpecs& inputs, uint64_t seed,
                             const TraceOptions& trace_opts = {}) {
  PrintHeader(title);
  std::printf("%-8s %28s %28s\n", "", "Xok/ExOS", "FreeBSD");
  std::printf("%-8s %9s %9s %8s %9s %9s %8s\n", "jobs/conc", "total", "max", "min",
              "total", "max", "min");
  const int configs[][2] = {{7, 1}, {14, 2}, {21, 3}, {28, 4}, {35, 5}};
  for (auto [jobs, conc] : configs) {
    const bool traced = trace_opts.on() && jobs == 35;
    GlobalResult xok = RunGlobal(os::Flavor::kXokExos, pool, inputs, jobs, conc, seed,
                                 traced ? &trace_opts : nullptr);
    GlobalResult bsd = RunGlobal(os::Flavor::kFreeBsd, pool, inputs, jobs, conc, seed);
    std::printf("%4d/%-4d %8.2fs %8.2fs %7.2fs %8.2fs %8.2fs %7.2fs\n", jobs, conc,
                xok.total, xok.max_latency, xok.min_latency, bsd.total, bsd.max_latency,
                bsd.min_latency);
  }
}

}  // namespace exo::bench

#endif  // EXO_BENCH_GLOBAL_COMMON_H_
