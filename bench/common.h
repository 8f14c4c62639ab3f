// Shared bench harness pieces: machine construction, the Table 1 workload driver,
// and table printing. Every bench binary regenerates one paper table/figure.
#ifndef EXO_BENCH_COMMON_H_
#define EXO_BENCH_COMMON_H_

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "apps/unix_apps.h"
#include "apps/workload.h"
#include "exos/system.h"
#include "trace/trace.h"

namespace exo::bench {

// ---- --trace support, shared by the figure benches ----
//
// `--trace=PATH` writes a Chrome/Perfetto trace_event JSON (or a compact text
// dump when PATH ends in ".txt") of one traced run. `--trace-categories=LIST`
// narrows the category mask ("disk,net,fault"; default all). The simulated run
// is bit-identical with tracing on or off; trace status goes to stderr so
// stdout stays diffable.
struct TraceOptions {
  std::string path;  // empty: tracing off
  uint32_t mask = trace::kAllCategories;

  bool on() const { return !path.empty(); }
};

inline TraceOptions ParseTraceArgs(int argc, char** argv) {
  TraceOptions t;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (a.rfind("--trace=", 0) == 0) {
      t.path = a.substr(8);
    } else if (a.rfind("--trace-categories=", 0) == 0) {
      if (!trace::ParseCategoryMask(a.substr(19), &t.mask)) {
        std::fprintf(stderr, "unknown category in %s\n", a.c_str());
        std::exit(2);
      }
    }
  }
  return t;
}

inline void WriteTraceFile(const trace::Tracer& tracer, const TraceOptions& opts,
                           uint32_t cpu_mhz = 200) {
  if (!opts.on()) {
    return;
  }
  const bool text =
      opts.path.size() >= 4 && opts.path.compare(opts.path.size() - 4, 4, ".txt") == 0;
  const std::string out =
      text ? trace::TextDump(tracer, cpu_mhz) : trace::PerfettoJson(tracer, cpu_mhz);
  FILE* f = std::fopen(opts.path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "trace: cannot open %s\n", opts.path.c_str());
    std::exit(2);
  }
  std::fwrite(out.data(), 1, out.size(), f);
  std::fclose(f);
  std::fprintf(stderr, "trace: wrote %zu bytes (%llu records, %llu dropped) to %s\n",
               out.size(), static_cast<unsigned long long>(tracer.emitted()),
               static_cast<unsigned long long>(tracer.dropped()), opts.path.c_str());
  const std::string hist = trace::HistogramSummary(tracer);
  if (!hist.empty()) {
    std::fprintf(stderr, "%s", hist.c_str());
  }
}

// Prints every nonzero fault/integrity counter (fault.*, disk.corrupted,
// disk.repaired, scrub.*) one per line. A healthy unarmed run prints nothing,
// so the figure stdout stays byte-identical unless faults actually fired.
inline void PrintFaultCounters(sim::Counters& counters) {
  for (const char* prefix : {"fault.", "disk.corrupted", "disk.repaired", "scrub."}) {
    for (const auto& [name, value] : counters.Snapshot(prefix)) {
      if (value != 0) {
        std::printf("%s %llu\n", name.c_str(), static_cast<unsigned long long>(value));
      }
    }
  }
}

inline hw::MachineConfig PaperMachine(uint32_t disk_mb = 256) {
  hw::MachineConfig cfg;
  cfg.mem_frames = 16384;  // 64 MB
  cfg.disks = {hw::DiskGeometry{.num_blocks = disk_mb * 256}};
  return cfg;
}

inline double Secs(sim::Cycles c) { return static_cast<double>(c) / 200e6; }

struct StepResult {
  std::string name;
  double seconds = 0;
};

struct WorkloadResult {
  std::vector<StepResult> steps;
  double total = 0;
  uint64_t syscalls = 0;
};

// The Table 1 / Figure 2 workload: install the lcc distribution. Eleven steps, each
// run as a separate program through fork/exec, exactly as a shell would run them.
inline WorkloadResult RunIoWorkload(os::Flavor flavor, os::SystemOptions opts = {},
                                    uint64_t seed = 42,
                                    const TraceOptions* trace_opts = nullptr) {
  sim::Engine engine;
  hw::Machine machine(&engine, PaperMachine());
  if (trace_opts != nullptr && trace_opts->on()) {
    machine.tracer().Enable(trace_opts->mask);  // before Boot: env tracks register
  }
  os::System sys(&machine, flavor, opts);
  EXO_CHECK_EQ(sys.Boot(), Status::kOk);

  WorkloadResult result;
  sys.SpawnInit("sh", [&](os::UnixEnv& env) {
    // Stage the distribution archive (not timed): build the tree once, archive and
    // compress it, then delete the staging copy.
    auto tree = apps::LccTree(seed);
    EXO_CHECK_EQ(apps::WriteTree(env, tree, "/stage"), Status::kOk);
    EXO_CHECK_EQ(apps::PaxWrite(env, "/stage", "/lcc.pax"), Status::kOk);
    EXO_CHECK_EQ(apps::Gzip(env, "/lcc.pax", "/lcc.pax.gz"),
                 Status::kOk);
    EXO_CHECK_EQ(apps::RmTree(env, "/stage"), Status::kOk);
    EXO_CHECK_EQ(env.Unlink("/lcc.pax"), Status::kOk);
    EXO_CHECK_EQ(env.Sync(), Status::kOk);

    auto step = [&](const std::string& name, const std::string& program,
                    std::function<void(os::UnixEnv&)> body) {
      sim::Cycles t0 = env.Now();
      auto pid = env.Spawn(program, std::move(body));
      EXO_CHECK(pid.ok());
      EXO_CHECK(env.Wait(*pid).ok());
      result.steps.push_back({name, Secs(env.Now() - t0)});
    };

    step("cp (small)", "cp", [](os::UnixEnv& e) {
      EXO_CHECK_EQ(apps::Cp(e, "/lcc.pax.gz", "/lcc2.pax.gz"), Status::kOk);
    });
    step("gunzip", "gunzip", [](os::UnixEnv& e) {
      EXO_CHECK_EQ(apps::Gunzip(e, "/lcc2.pax.gz", "/lcc.pax"), Status::kOk);
    });
    step("cp (large)", "cp", [](os::UnixEnv& e) {
      EXO_CHECK_EQ(apps::Cp(e, "/lcc.pax", "/lcc-copy.pax"), Status::kOk);
    });
    step("pax -r", "pax", [](os::UnixEnv& e) {
      EXO_CHECK_EQ(apps::PaxRead(e, "/lcc.pax", "/lcc"), Status::kOk);
    });
    step("cp -r", "cp", [](os::UnixEnv& e) {
      EXO_CHECK_EQ(apps::CpR(e, "/lcc", "/lcc-copy"), Status::kOk);
    });
    step("diff", "diff", [](os::UnixEnv& e) {
      auto d = apps::DiffTree(e, "/lcc", "/lcc-copy");
      EXO_CHECK(d.ok());
      EXO_CHECK_EQ(*d, 0);
    });
    step("gcc", "gcc", [](os::UnixEnv& e) {
      EXO_CHECK_EQ(apps::GccBuild(e, "/lcc"), Status::kOk);
    });
    step("rm (.o)", "rm", [](os::UnixEnv& e) {
      EXO_CHECK_EQ(apps::RmByExt(e, "/lcc", ".o"), Status::kOk);
    });
    step("pax -w", "pax", [](os::UnixEnv& e) {
      EXO_CHECK_EQ(apps::PaxWrite(e, "/lcc", "/lcc-new.pax"), Status::kOk);
    });
    step("gzip", "gzip", [](os::UnixEnv& e) {
      EXO_CHECK_EQ(apps::Gzip(e, "/lcc-new.pax", "/lcc-new.pax.gz"), Status::kOk);
    });
    step("rm -r", "rm", [](os::UnixEnv& e) {
      EXO_CHECK_EQ(apps::RmTree(e, "/lcc"), Status::kOk);
    });
  });
  sys.Run();
  for (const auto& s : result.steps) {
    result.total += s.seconds;
  }
  result.syscalls = sys.syscall_count();
  PrintFaultCounters(machine.counters());
  if (trace_opts != nullptr) {
    WriteTraceFile(machine.tracer(), *trace_opts);
  }
  return result;
}

inline void PrintHeader(const char* title) {
  std::printf("\n==== %s ====\n", title);
}

// Host wall-clock seconds (the second clock; docs/PERFORMANCE.md).
inline double WallNow() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// ---- --check support, shared by the gated benches ----
//
// A gated bench writes its own JSON report, then `--check BASELINE` holds a few
// measured values to the bounds committed in a flat JSON baseline file
// (bench/*_baseline.json). `fail` and `pass` are printf formats given
// (measured, bound): the FAIL line's text and this bound's part of the
// "baseline check passed (...)" summary.
struct Bound {
  enum Kind { kFloor, kCeiling };  // measured >= bound / measured <= bound
  Kind kind;
  const char* key;  // baseline key holding the bound
  double measured;
  const char* fail;
  const char* pass;
};

// Pulls `"key": <number>` out of a flat JSON text without a JSON dependency.
inline bool JsonNumber(const std::string& text, const char* key, double* out) {
  const std::string needle = std::string("\"") + key + "\"";
  const size_t at = text.find(needle);
  if (at == std::string::npos) {
    return false;
  }
  const size_t colon = text.find(':', at + needle.size());
  if (colon == std::string::npos) {
    return false;
  }
  *out = std::strtod(text.c_str() + colon + 1, nullptr);
  return true;
}

// Returns the bench's exit code: 1 when the baseline cannot be read, lacks a
// key, or any bound fails (each failing bound prints its FAIL line to stderr);
// otherwise 0, after one summary line.
inline int CheckBaseline(const std::string& path, const std::vector<Bound>& bounds) {
  FILE* b = std::fopen(path.c_str(), "r");
  if (b == nullptr) {
    std::fprintf(stderr, "cannot read baseline %s\n", path.c_str());
    return 1;
  }
  std::string text;
  char buf[4096];
  size_t n;
  while ((n = std::fread(buf, 1, sizeof(buf), b)) > 0) {
    text.append(buf, n);
  }
  std::fclose(b);
  std::vector<double> limits(bounds.size());
  for (size_t i = 0; i < bounds.size(); ++i) {
    if (!JsonNumber(text, bounds[i].key, &limits[i])) {
      std::fprintf(stderr, "baseline %s missing required keys\n", path.c_str());
      return 1;
    }
  }
  bool ok = true;
  std::string summary;
  for (size_t i = 0; i < bounds.size(); ++i) {
    const Bound& bd = bounds[i];
    if (bd.kind == Bound::kFloor ? bd.measured < limits[i] : bd.measured > limits[i]) {
      std::fprintf(stderr, ("FAIL: " + std::string(bd.fail) + "\n").c_str(), bd.measured,
                   limits[i]);
      ok = false;
    }
    char part[256];
    std::snprintf(part, sizeof(part), bd.pass, bd.measured, limits[i]);
    summary += (i == 0 ? "" : ", ") + std::string(part);
  }
  if (!ok) {
    return 1;
  }
  std::fprintf(stderr, "baseline check passed (%s)\n", summary.c_str());
  return 0;
}

}  // namespace exo::bench

#endif  // EXO_BENCH_COMMON_H_
