// Section 7.2: XCP, the zero-touch file copier, vs cp on the same Xok/ExOS system.
// Paper: XCP is a factor of three faster than cp, whether the files are in core
// (XCP never touches the data) or on disk (XCP issues large sorted schedules).
#include "apps/xcp.h"
#include "bench/common.h"

namespace {

using namespace exo;

struct CopyTimes {
  double cp = 0;
  double xcp = 0;
};

CopyTimes Run(bool cold_cache, const bench::TraceOptions* trace_opts = nullptr) {
  sim::Engine engine;
  hw::Machine machine(&engine, bench::PaperMachine());
  if (trace_opts != nullptr && trace_opts->on()) {
    machine.tracer().Enable(trace_opts->mask);
  }
  os::System sys(&machine, os::Flavor::kXokExos);
  EXO_CHECK_EQ(sys.Boot(), Status::kOk);

  CopyTimes times;
  sys.SpawnInit("sh", [&](os::UnixEnv& env) {
    // 24 files of 160 KB = ~3.8 MB.
    std::vector<std::string> srcs;
    EXO_CHECK_EQ(env.Mkdir("/src"), Status::kOk);
    for (int i = 0; i < 24; ++i) {
      apps::FileSpec spec{.path = "f", .size = 160'000,
                          .seed = static_cast<uint64_t>(i + 1)};
      std::string p = "/src/f" + std::to_string(i);
      EXO_CHECK_EQ(apps::WriteFile(env, p, apps::FileContent(spec)), Status::kOk);
      srcs.push_back(p);
    }
    EXO_CHECK_EQ(env.Sync(), Status::kOk);

    auto drop_cache = [&] {
      if (!cold_cache) {
        return;
      }
      // Recycle every clean buffer: the next reads must hit the disk.
      while (sys.xn()->RecycleOldest().ok()) {
      }
    };

    drop_cache();
    sim::Cycles t0 = env.Now();
    EXO_CHECK_EQ(env.Mkdir("/cp-out"), Status::kOk);
    for (const auto& s : srcs) {
      EXO_CHECK_EQ(apps::Cp(env, s, "/cp-out/" + s.substr(5)), Status::kOk);
    }
    times.cp = bench::Secs(env.Now() - t0);
    EXO_CHECK_EQ(env.Sync(), Status::kOk);

    drop_cache();
    t0 = env.Now();
    auto st = apps::Xcp(sys, env, srcs, "/xcp-out");
    EXO_CHECK(st.ok());
    times.xcp = bench::Secs(env.Now() - t0);
    EXO_CHECK_EQ(env.Sync(), Status::kOk);
  });
  sys.Run();
  if (trace_opts != nullptr) {
    bench::WriteTraceFile(machine.tracer(), *trace_opts);
  }
  return times;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace exo;
  // --trace=PATH captures the cold-cache run (the disk-bound schedules).
  const bench::TraceOptions trace_opts = bench::ParseTraceArgs(argc, argv);
  bench::PrintHeader("Section 7.2: XCP vs cp on Xok/ExOS (3.8 MB across 24 files)");
  CopyTimes warm = Run(/*cold_cache=*/false);
  CopyTimes cold = Run(/*cold_cache=*/true, trace_opts.on() ? &trace_opts : nullptr);
  std::printf("%-22s %10s %10s %9s\n", "case", "cp", "xcp", "speedup");
  std::printf("%-22s %9.3fs %9.3fs %8.1fx\n", "in core (cached)", warm.cp, warm.xcp,
              warm.cp / warm.xcp);
  std::printf("%-22s %9.3fs %9.3fs %8.1fx\n", "on disk (cold cache)", cold.cp, cold.xcp,
              cold.cp / cold.xcp);
  std::printf("\npaper: XCP is a factor of three faster than cp in both cases\n");
  return 0;
}
