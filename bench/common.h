// Shared bench harness pieces: machine construction, the Table 1 workload driver,
// table printing, and the JSON report and gate. Every bench binary regenerates
// one paper table/figure.
#ifndef EXO_BENCH_COMMON_H_
#define EXO_BENCH_COMMON_H_

#include <algorithm>
#include <cctype>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "apps/unix_apps.h"
#include "apps/workload.h"
#include "exos/system.h"
#include "sim/check.h"
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

// The Table 1 / Figure 2 workload: install the lcc distribution, each of
// apps::LccInstallSteps run as a separate program through fork/exec, as a shell would.
inline WorkloadResult RunIoWorkload(os::Flavor flavor, os::SystemOptions opts = {},
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
    EXO_CHECK_EQ(apps::StageLccArchive(env, apps::LccTree()), Status::kOk);  // not timed
    for (const apps::Job& step : apps::LccInstallSteps()) {
      const sim::Cycles t0 = env.Now();
      Status status = Status::kCrashed;
      auto pid = env.Spawn(step.program, [&](os::UnixEnv& e) { status = step.body(e, 0); });
      EXO_CHECK(pid.ok());
      EXO_CHECK(env.Wait(*pid).ok());
      EXO_CHECK_EQ(status, Status::kOk);
      result.steps.push_back({step.label, Secs(env.Now() - t0)});
    }
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

// ---- The bench report: `--out` writes it, `--check` gates it ----

// The argument after `flag` in argv, or `fallback` when the flag is absent.
inline std::string FlagValue(int argc, char** argv, const char* flag,
                             std::string fallback = "") {
  for (int i = 1; i + 1 < argc; ++i) {
    if (std::strcmp(argv[i], flag) == 0) {
      return argv[i + 1];
    }
  }
  return fallback;
}

// Every report-writing bench adds its named numbers in order and ends main
// with `return report.Finish();`. Finish writes one flat JSON object to
// `--out FILE` (default BENCH_<bench>.json): "bench" first, then each metric,
// with dotted names for table rows ("http.20000.fleet.goodput").
//
// `--check BASELINE` then gates the report against a flat JSON baseline
// (bench/<bench>_baseline.json): each `min_<metric>` key is a floor and each
// `max_<metric>` key a ceiling on the metric of exactly that name, and string
// values such as the `comment` are ignored. One ok:/FAIL:/skipped: line per
// bound goes to stderr. Finish returns 1 when the baseline cannot be read,
// holds no bound, holds a number that is not a bound, bounds a metric the
// report lacks (so a renamed metric cannot drop its gate), or a bound is
// broken; otherwise 0.
class Report {
 public:
  Report(std::string bench, int argc, char** argv)
      : bench_(std::move(bench)),
        out_(FlagValue(argc, argv, "--out", "BENCH_" + bench_ + ".json")),
        check_(FlagValue(argc, argv, "--check")) {}

  void Add(std::string name, double value) {
    EXO_CHECK(std::isfinite(value));
    metrics_.push_back({std::move(name), value, {}});
  }

  // A metric this host cannot measure: written as null, and a bound on it
  // prints `skipped: <key> (<why>)` instead of failing.
  void Skip(std::string name, std::string why) {
    metrics_.push_back({std::move(name), std::nullopt, std::move(why)});
  }

  int Finish() const {
    FILE* f = std::fopen(out_.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "cannot write %s\n", out_.c_str());
      return 1;
    }
    std::fprintf(f, "{\n  \"bench\": \"%s\"", bench_.c_str());
    for (const Metric& m : metrics_) {
      if (m.value) {
        std::fprintf(f, ",\n  \"%s\": %.15g", m.name.c_str(), *m.value);
      } else {
        std::fprintf(f, ",\n  \"%s\": null", m.name.c_str());
      }
    }
    std::fprintf(f, "\n}\n");
    std::fclose(f);
    std::fprintf(stderr, "wrote %s\n", out_.c_str());
    if (check_.empty()) {
      return 0;
    }

    std::vector<std::pair<std::string, double>> bounds;
    if (!ReadFlatNumbers(check_, &bounds)) {
      std::fprintf(stderr, "cannot read baseline %s\n", check_.c_str());
      return 1;
    }
    if (bounds.empty()) {
      std::fprintf(stderr, "baseline %s holds no min_/max_ bound\n", check_.c_str());
      return 1;
    }
    bool ok = true;
    for (const auto& [key, bound] : bounds) {
      const bool is_floor = key.rfind("min_", 0) == 0;
      if (!is_floor && key.rfind("max_", 0) != 0) {
        std::fprintf(stderr, "FAIL: baseline key %s is not a min_/max_ bound\n",
                     key.c_str());
        ok = false;
        continue;
      }
      const std::string name = key.substr(4);
      const auto m = std::find_if(metrics_.begin(), metrics_.end(),
                                  [&](const Metric& x) { return x.name == name; });
      if (m == metrics_.end()) {
        std::fprintf(stderr, "FAIL: %s bounds no metric in this report\n", key.c_str());
        ok = false;
      } else if (!m->value) {
        std::fprintf(stderr, "skipped: %s (%s)\n", key.c_str(), m->why.c_str());
      } else if (is_floor ? *m->value < bound : *m->value > bound) {
        std::fprintf(stderr, "FAIL: %s = %g, %s %g\n", name.c_str(), *m->value,
                     is_floor ? "below floor" : "above ceiling", bound);
        ok = false;
      } else {
        std::fprintf(stderr, "ok: %s = %g %s %g\n", name.c_str(), *m->value,
                     is_floor ? ">=" : "<=", bound);
      }
    }
    return ok ? 0 : 1;
  }

 private:
  // Reads the number-valued keys of a flat JSON object in file order, skipping
  // string values. False when the file cannot be read or holds anything else.
  static bool ReadFlatNumbers(const std::string& path,
                              std::vector<std::pair<std::string, double>>* out) {
    FILE* f = std::fopen(path.c_str(), "r");
    if (f == nullptr) {
      return false;
    }
    std::string s;
    char buf[4096];
    size_t n;
    while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) {
      s.append(buf, n);
    }
    std::fclose(f);
    size_t i = 0;
    auto next = [&] {  // skips whitespace; '\0' at the end
      while (i < s.size() && std::isspace(static_cast<unsigned char>(s[i]))) {
        ++i;
      }
      return s[i];
    };
    auto quoted = [&](std::string* v) {  // from the opening quote
      for (++i; i < s.size() && s[i] != '"'; ++i) {
        if (s[i] == '\\') {
          ++i;  // keep the escaped character
        }
        v->push_back(s[i]);
      }
      return i++ < s.size();
    };
    if (next() != '{') {
      return false;
    }
    ++i;
    if (next() == '}') {
      return true;
    }
    for (;;) {
      std::string key, ignored;
      if (next() != '"' || !quoted(&key) || next() != ':') {
        return false;
      }
      ++i;
      if (next() == '"') {
        if (!quoted(&ignored)) {
          return false;
        }
      } else {
        char* end = nullptr;
        const double v = std::strtod(s.c_str() + i, &end);
        if (end == s.c_str() + i || !std::isfinite(v)) {
          return false;
        }
        i = static_cast<size_t>(end - s.c_str());
        out->emplace_back(std::move(key), v);
      }
      const char c = next();
      ++i;
      if (c == '}') {
        return true;
      }
      if (c != ',') {
        return false;
      }
    }
  }

  struct Metric {
    std::string name;
    std::optional<double> value;  // nullopt: skipped
    std::string why;
  };

  std::string bench_;
  std::string out_;
  std::string check_;  // empty: no gate
  std::vector<Metric> metrics_;
};

}  // namespace exo::bench

#endif  // EXO_BENCH_COMMON_H_
