// Shared driver for the global-performance experiments (Sec. 8, Figures 4 and 5):
// run a randomized job mix with a fixed concurrency cap and report total throughput
// plus per-job min/max latency. The pseudo-random schedules are seeded identically
// across compared systems, as in the paper.
#ifndef EXO_BENCH_GLOBAL_COMMON_H_
#define EXO_BENCH_GLOBAL_COMMON_H_

#include <algorithm>
#include <string_view>

#include "bench/common.h"
#include "sim/rng.h"

namespace exo::bench {

struct GlobalJob {
  std::string program;  // /bin name (drives fork/exec cost)
  std::function<void(os::UnixEnv&, int job_index)> body;
  std::function<void(os::UnixEnv&, int job_index)> setup;  // pre-created, untimed
};

struct GlobalResult {
  double total = 0;  // end-to-end seconds (throughput)
  double max_latency = 0;
  double min_latency = 0;
};

inline GlobalResult RunGlobal(os::Flavor flavor, const std::vector<GlobalJob>& pool,
                              int total_jobs, int max_concurrent, uint64_t seed,
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
    std::vector<int> schedule;
    for (int i = 0; i < total_jobs; ++i) {
      schedule.push_back(static_cast<int>(rng.Below(pool.size())));
    }
    // Pre-create each job instance's private directory and inputs (untimed).
    for (int i = 0; i < total_jobs; ++i) {
      EXO_CHECK_EQ(env.Mkdir("/job" + std::to_string(i)), Status::kOk);
      if (pool[static_cast<size_t>(schedule[i])].setup) {
        pool[static_cast<size_t>(schedule[i])].setup(env, i);
      }
    }
    EXO_CHECK_EQ(env.Sync(), Status::kOk);

    sim::Cycles t0 = env.Now();
    int launched = 0;
    int running = 0;
    while (launched < total_jobs || running > 0) {
      while (launched < total_jobs && running < max_concurrent) {
        const GlobalJob& job = pool[static_cast<size_t>(schedule[launched])];
        int idx = launched;
        auto pid = env.Spawn(job.program, [&job, idx](os::UnixEnv& child) {
          job.body(child, idx);
        });
        EXO_CHECK(pid.ok());
        ++launched;
        ++running;
      }
      EXO_CHECK(env.WaitAny().ok());
      --running;
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
inline void PrintGlobalTable(const char* title, const std::vector<GlobalJob>& pool,
                             uint64_t seed, const TraceOptions& trace_opts = {}) {
  PrintHeader(title);
  std::printf("%-8s %28s %28s\n", "", "Xok/ExOS", "FreeBSD");
  std::printf("%-8s %9s %9s %8s %9s %9s %8s\n", "jobs/conc", "total", "max", "min",
              "total", "max", "min");
  const int configs[][2] = {{7, 1}, {14, 2}, {21, 3}, {28, 4}, {35, 5}};
  for (auto [jobs, conc] : configs) {
    const bool traced = trace_opts.on() && jobs == 35;
    GlobalResult xok = RunGlobal(os::Flavor::kXokExos, pool, jobs, conc, seed,
                                 traced ? &trace_opts : nullptr);
    GlobalResult bsd = RunGlobal(os::Flavor::kFreeBsd, pool, jobs, conc, seed);
    std::printf("%4d/%-4d %8.2fs %8.2fs %7.2fs %8.2fs %8.2fs %7.2fs\n", jobs, conc,
                xok.total, xok.max_latency, xok.min_latency, bsd.total, bsd.max_latency,
                bsd.min_latency);
  }
}

// Pool helpers: inputs shared read-only live under /shared; per-job outputs go to
// the job's private directory.
struct SharedInputSpecs {
  apps::TreeSpec tree;  // /shared/t/s0.c .. s9.c, for pax/cp/gcc/cksum jobs
  apps::FileSpec big;   // /shared/big.txt, for grep/wc/gzip jobs
};

inline SharedInputSpecs SharedInputs() {
  SharedInputSpecs specs;
  specs.tree.dirs = {"t"};
  for (int i = 0; i < 10; ++i) {
    specs.tree.files.push_back({"t/s" + std::to_string(i) + ".c",
                                static_cast<uint32_t>(15'000 + i * 2'000),
                                static_cast<uint64_t>(i + 7)});
  }
  specs.big = {.path = "big", .size = 2'000'000, .seed = 99};
  return specs;
}

// What grep "symbol" and wc over /shared/big.txt and cksum over /shared/t must
// return, computed on the host from the specs (untimed), so the pools check the
// bytes they read through the simulated file system.
struct SharedAnswers {
  uint64_t grep_symbol = 0;
  uint64_t wc_lines = 0;
  uint64_t cksum = 0;
};

inline SharedAnswers ExpectedAnswers(int cksum_rounds) {
  const SharedInputSpecs specs = SharedInputs();
  SharedAnswers a;
  const std::vector<uint8_t> big = apps::FileContent(specs.big);
  const std::string_view text(reinterpret_cast<const char*>(big.data()), big.size());
  for (size_t at = text.find("symbol"); at != std::string_view::npos;
       at = text.find("symbol", at + 1)) {
    ++a.grep_symbol;
  }
  a.wc_lines = static_cast<uint64_t>(std::count(text.begin(), text.end(), '\n'));
  // cksum chains sum = sum * 131 + byte across the files in directory order,
  // which is creation order on C-FFS and FFS, and across rounds.
  std::vector<std::vector<uint8_t>> files;
  for (const apps::FileSpec& f : specs.tree.files) {
    files.push_back(apps::FileContent(f));
  }
  for (int r = 0; r < cksum_rounds; ++r) {
    for (const auto& bytes : files) {
      for (uint8_t c : bytes) {
        a.cksum = a.cksum * 131 + c;
      }
    }
  }
  return a;
}

inline void MakeSharedInputs(os::UnixEnv& env, bool big_diff_files) {
  if (env.Stat("/shared").ok()) {
    return;
  }
  EXO_CHECK_EQ(env.Mkdir("/shared"), Status::kOk);
  const SharedInputSpecs specs = SharedInputs();
  EXO_CHECK_EQ(apps::WriteTree(env, specs.tree, "/shared"), Status::kOk);
  EXO_CHECK_EQ(apps::PaxWrite(env, "/shared/t", "/shared/t.pax"), Status::kOk);
  auto content = apps::FileContent(specs.big);
  auto fd = env.Open("/shared/big.txt", true);
  EXO_CHECK(fd.ok());
  EXO_CHECK(env.Write(*fd, content).ok());
  env.Close(*fd);
  if (big_diff_files) {
    apps::FileSpec five{.path = "five", .size = 5'000'000, .seed = 123};
    auto c5 = apps::FileContent(five);
    for (const char* name : {"/shared/five.a", "/shared/five.b"}) {
      auto f5 = env.Open(name, true);
      EXO_CHECK(f5.ok());
      EXO_CHECK(env.Write(*f5, c5).ok());
      env.Close(*f5);
    }
  }
}

}  // namespace exo::bench

#endif  // EXO_BENCH_GLOBAL_COMMON_H_
