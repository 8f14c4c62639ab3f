// global_mix: the Figure 4 application pool on Xok/ExOS at its highest
// concurrency cell, 35 jobs with at most 5 running at once. Read-mostly over
// inputs that many jobs share (a source tree and a 2 MB text), with small
// private outputs; it loads the xok scheduler, exos fork/exec, app compute
// and LZ.
//
// The job multiset is Figure 4's (its seed-11 draw from the pool); the seed
// picks the launch order and the contents of the shared inputs.
#include <functional>
#include <string>
#include <vector>

#include "harness.h"

#include "apps/unix_apps.h"
#include "apps/workload.h"
#include "exos/system.h"
#include "sim/rng.h"

namespace perfbench {
namespace {

using exo::Status;
namespace apps = exo::apps;
namespace os = exo::os;

constexpr int kJobs = 35;
constexpr int kConcurrency = 5;
constexpr uint64_t kFig4Seed = 11;

std::string JobDir(int i) { return "/job" + std::to_string(i); }

struct Job {
  const char* program;
  std::function<bool(os::UnixEnv&, int)> body;
};

// Figure 4's pool, in its order (the schedule indexes into it).
const std::vector<Job>& Pool() {
  static const std::vector<Job> pool = {
      {"pax", [](os::UnixEnv& e, int i) {
         return apps::PaxWrite(e, "/shared/t", JobDir(i) + "/t.pax") == Status::kOk;
       }},
      {"grep", [](os::UnixEnv& e, int) {
         bool ok = true;
         for (int r = 0; r < 6; ++r) {
           ok = apps::Grep(e, "symbol", "/shared/big.txt").ok() && ok;
         }
         return ok;
       }},
      {"cksum", [](os::UnixEnv& e, int) { return apps::Cksum(e, "/shared/t", 40).ok(); }},
      {"tsp", [](os::UnixEnv& e, int) { return apps::Tsp(e, 500, 30, 7).ok(); }},
      {"sor", [](os::UnixEnv& e, int) { return apps::Sor(e, 300, 60).ok(); }},
      {"wc", [](os::UnixEnv& e, int) {
         bool ok = true;
         for (int r = 0; r < 8; ++r) {
           ok = apps::Wc(e, "/shared/big.txt").ok() && ok;
         }
         return ok;
       }},
      {"gcc", [](os::UnixEnv& e, int i) {
         const std::string dir = JobDir(i) + "/t";
         return apps::CpR(e, "/shared/t", dir) == Status::kOk &&
                apps::GccBuild(e, dir) == Status::kOk;
       }},
      {"gzip", [](os::UnixEnv& e, int i) {
         return apps::Gzip(e, "/shared/big.txt", JobDir(i) + "/big.gz") == Status::kOk;
       }},
      {"gunzip", [](os::UnixEnv& e, int i) {
         const std::string gz = JobDir(i) + "/in.gz";
         return apps::Gzip(e, "/shared/big.txt", gz) == Status::kOk &&
                apps::Gunzip(e, gz, JobDir(i) + "/out.txt") == Status::kOk;
       }},
  };
  return pool;
}

std::vector<size_t> Schedule(uint64_t seed) {
  exo::sim::Rng draw(kFig4Seed);
  std::vector<size_t> schedule;
  for (int i = 0; i < kJobs; ++i) {
    schedule.push_back(static_cast<size_t>(draw.Below(Pool().size())));
  }
  exo::sim::Rng order(seed);
  for (size_t i = schedule.size() - 1; i > 0; --i) {
    std::swap(schedule[i], schedule[static_cast<size_t>(order.Below(i + 1))]);
  }
  return schedule;
}

bool WriteFile(os::UnixEnv& env, const std::string& path, const std::vector<uint8_t>& bytes) {
  const exo::Result<int> fd = env.Open(path, /*create=*/true);
  if (!fd.ok()) {
    return false;
  }
  const bool wrote = env.Write(*fd, bytes).ok();
  return env.Close(*fd) == Status::kOk && wrote;
}

// Figure 4's shared inputs (a ten-file source tree, its pax archive, a 2 MB
// text), with contents drawn from the seed.
bool MakeSharedInputs(os::UnixEnv& env, uint64_t seed) {
  exo::sim::Rng rng(seed);
  apps::TreeSpec tree;
  tree.dirs = {"t"};
  for (int i = 0; i < 10; ++i) {
    tree.files.push_back({"t/s" + std::to_string(i) + ".c",
                          static_cast<uint32_t>(15'000 + i * 2'000), rng.Next()});
  }
  const apps::FileSpec big{.path = "big", .size = 2'000'000, .seed = rng.Next()};
  return env.Mkdir("/shared") == Status::kOk &&
         apps::WriteTree(env, tree, "/shared") == Status::kOk &&
         apps::PaxWrite(env, "/shared/t", "/shared/t.pax") == Status::kOk &&
         WriteFile(env, "/shared/big.txt", apps::FileContent(big));
}

bool SameAsBig(os::UnixEnv& env, const std::string& path) {
  const exo::Result<int> d = apps::DiffFile(env, path, "/shared/big.txt");
  return d.ok() && *d == 0;
}

}  // namespace

Iteration RunGlobalMix(const RunOptions& o) {
  Iteration it;
  const Clock::time_point setup_start = Clock::now();
  exo::sim::Engine engine;
  exo::hw::Machine machine(&engine, PaperMachine(512));
  if (o.traced) {
    machine.tracer().Enable(exo::trace::kAllCategories, kTraceCapacity);  // before Boot
  }
  os::System sys(&machine, os::Flavor::kXokExos);
  Check(it, sys.Boot() == Status::kOk);
  const std::vector<size_t> schedule = Schedule(o.seed);

  std::vector<char> job_ok(kJobs, 0);
  exo::sim::Cycles makespan = 0;
  SystemWindow window;
  sys.SpawnInit("sh", [&](os::UnixEnv& env) {
    bool staged = MakeSharedInputs(env, o.seed);
    for (int i = 0; i < kJobs; ++i) {
      staged = env.Mkdir(JobDir(i)) == Status::kOk && staged;
    }
    Check(it, staged && env.Sync() == Status::kOk);
    it.setup_s = SecondsSince(setup_start);

    window.Open(sys);
    const Clock::time_point measure_start = Clock::now();
    int launched = 0;
    int running = 0;
    while (launched < kJobs || running > 0) {
      while (launched < kJobs && running < kConcurrency) {
        const Job& job = Pool()[schedule[static_cast<size_t>(launched)]];
        const int idx = launched;
        const exo::Result<int> pid = env.Spawn(
            job.program, [&job, &job_ok, idx](os::UnixEnv& child) {
              job_ok[static_cast<size_t>(idx)] = job.body(child, idx) ? 1 : 0;
            });
        ++launched;
        running += pid.ok() ? 1 : 0;
      }
      if (running > 0 && !env.WaitAny().ok()) {
        break;  // the unfinished jobs count as failed below
      }
      running = running > 0 ? running - 1 : 0;
    }
    it.host_s = SecondsSince(measure_start);
    window.Close(sys);
    makespan = window.to - window.from;

    // Output checks, after the measured phase: every job exited OK, and every
    // gzip output decompresses to its input.
    for (int i = 0; i < kJobs; ++i) {
      Check(it, job_ok[static_cast<size_t>(i)] != 0);
      const std::string program = Pool()[schedule[static_cast<size_t>(i)]].program;
      if (program == "gunzip") {
        Check(it, SameAsBig(env, JobDir(i) + "/out.txt"));
      } else if (program == "gzip") {
        const std::string out = JobDir(i) + "/check.txt";
        Check(it, apps::Gunzip(env, JobDir(i) + "/big.gz", out) == Status::kOk &&
                      SameAsBig(env, out));
      }
    }
  });
  sys.Run();

  std::vector<double> latencies;
  for (const auto& rec : sys.proc_records()) {
    if (rec.program != "sh" && rec.spawned_at >= window.from && rec.spawned_at < window.to) {
      latencies.push_back(SimSeconds(rec.exited_at - rec.spawned_at));
    }
  }
  AddOperationMetrics(it, latencies, SimSeconds(makespan));
  window.Report(it, sys, o.traced);
  return it;
}

}  // namespace perfbench
