// lcc_install: the Figure 2 / Table 1 install of the lcc distribution on
// Xok/ExOS, eleven programs run through fork/exec as a shell would run them.
// It is create/write/delete-heavy on fs -> xn -> udf -> disk plus LZ in
// gzip/gunzip, and touches no net or cluster code.
//
// At seed 42 the run is the fig2_io_workload Xok/ExOS column.
#include <cmath>
#include <functional>

#include "harness.h"

#include "apps/unix_apps.h"
#include "apps/workload.h"
#include "exos/system.h"

namespace perfbench {
namespace {

using exo::Status;
namespace apps = exo::apps;
namespace os = exo::os;

// The seed's lcc-shaped tree, its file sizes scaled so the tree holds as many
// bytes as the Figure 2 tree: the work stays the same size across seeds while
// the sizes and contents of its files vary.
apps::TreeSpec SeededTree(uint64_t seed) {
  const uint64_t fig2_bytes = apps::LccTree(42).total_bytes;
  apps::TreeSpec tree = apps::LccTree(seed);
  const double scale = static_cast<double>(fig2_bytes) / static_cast<double>(tree.total_bytes);
  tree.total_bytes = 0;
  for (apps::FileSpec& f : tree.files) {
    f.size = static_cast<uint32_t>(std::lround(f.size * scale));
    tree.total_bytes += f.size;
  }
  return tree;
}

struct Step {
  const char* metric;   // apps.<metric>.host_ms / .sim_s
  const char* program;  // /bin image (exec cost)
  std::function<Status(os::UnixEnv&)> body;
};

Status DiffClean(os::UnixEnv& e) {
  const exo::Result<int> d = apps::DiffTree(e, "/lcc", "/lcc-copy");
  return d.ok() && *d == 0 ? Status::kOk : Status::kCorrupted;
}

const Step kSteps[] = {
    {"cp_small", "cp", [](os::UnixEnv& e) { return apps::Cp(e, "/lcc.pax.gz", "/lcc2.pax.gz"); }},
    {"gunzip", "gunzip",
     [](os::UnixEnv& e) { return apps::Gunzip(e, "/lcc2.pax.gz", "/lcc.pax"); }},
    {"cp_large", "cp", [](os::UnixEnv& e) { return apps::Cp(e, "/lcc.pax", "/lcc-copy.pax"); }},
    {"pax_r", "pax", [](os::UnixEnv& e) { return apps::PaxRead(e, "/lcc.pax", "/lcc"); }},
    {"cp_r", "cp", [](os::UnixEnv& e) { return apps::CpR(e, "/lcc", "/lcc-copy"); }},
    {"diff", "diff", DiffClean},
    {"gcc", "gcc", [](os::UnixEnv& e) { return apps::GccBuild(e, "/lcc"); }},
    {"rm_o", "rm", [](os::UnixEnv& e) { return apps::RmByExt(e, "/lcc", ".o"); }},
    {"pax_w", "pax", [](os::UnixEnv& e) { return apps::PaxWrite(e, "/lcc", "/lcc-new.pax"); }},
    {"gzip", "gzip",
     [](os::UnixEnv& e) { return apps::Gzip(e, "/lcc-new.pax", "/lcc-new.pax.gz"); }},
    {"rm_r", "rm", [](os::UnixEnv& e) { return apps::RmTree(e, "/lcc"); }},
};

bool Stage(os::UnixEnv& env, const apps::TreeSpec& tree) {
  return apps::WriteTree(env, tree, "/stage") == Status::kOk &&
         apps::PaxWrite(env, "/stage", "/lcc.pax") == Status::kOk &&
         apps::Gzip(env, "/lcc.pax", "/lcc.pax.gz") == Status::kOk &&
         apps::RmTree(env, "/stage") == Status::kOk && env.Unlink("/lcc.pax") == Status::kOk &&
         env.Sync() == Status::kOk;
}

}  // namespace

Iteration RunLccInstall(const RunOptions& o) {
  Iteration it;
  const Clock::time_point setup_start = Clock::now();
  exo::sim::Engine engine;
  exo::hw::Machine machine(&engine, PaperMachine(256));
  if (o.traced) {
    machine.tracer().Enable(exo::trace::kAllCategories, kTraceCapacity);  // before Boot
  }
  os::System sys(&machine, os::Flavor::kXokExos);
  Check(it, sys.Boot() == Status::kOk);
  const apps::TreeSpec tree = SeededTree(o.seed);

  std::vector<double> step_s;
  SystemWindow window;
  sys.SpawnInit("sh", [&](os::UnixEnv& env) {
    Check(it, Stage(env, tree));
    it.setup_s = SecondsSince(setup_start);

    window.Open(sys);
    const Clock::time_point measure_start = Clock::now();
    for (const Step& step : kSteps) {
      const Clock::time_point t0 = Clock::now();
      const exo::sim::Cycles c0 = env.Now();
      Status status = Status::kCrashed;
      const exo::Result<int> pid =
          env.Spawn(step.program, [&](os::UnixEnv& e) { status = step.body(e); });
      Check(it, pid.ok() && env.Wait(*pid).ok() && status == Status::kOk);
      step_s.push_back(SimSeconds(env.Now() - c0));
      it.layer_host[std::string("apps.") + step.metric + ".host_ms"] = SecondsSince(t0) * 1e3;
      it.layer[std::string("apps.") + step.metric + ".sim_s"] = step_s.back();
    }
    it.host_s = SecondsSince(measure_start);
    window.Close(sys);

    // Output checks, after the measured phase. gzip is deterministic, so the
    // gunzip output round-trips the staged archive iff re-compressing it
    // reproduces the staged .gz byte for byte.
    Check(it, !env.Stat("/lcc").ok());
    const bool regzipped = apps::Gzip(env, "/lcc.pax", "/check.pax.gz") == Status::kOk;
    const exo::Result<int> d = apps::DiffFile(env, "/check.pax.gz", "/lcc2.pax.gz");
    Check(it, regzipped && d.ok() && *d == 0);
  });
  sys.Run();

  double total = 0;
  for (double s : step_s) {
    total += s;
  }
  AddOperationMetrics(it, step_s, total);
  window.Report(it, sys, o.traced);
  return it;
}

}  // namespace perfbench
