// Figure 2 / Table 1: the I/O-intensive lcc-install workload across all four OS
// configurations. Prints per-application runtimes (seconds) like the figure's bars,
// plus totals (paper: Xok/ExOS 41 s, OpenBSD/C-FFS 51 s, OpenBSD/FreeBSD ~60 s).
//
// --trace=PATH captures the Xok/ExOS run (the other flavors run untraced).
#include "bench/common.h"

int main(int argc, char** argv) {
  using namespace exo;
  using namespace exo::bench;

  const TraceOptions trace_opts = ParseTraceArgs(argc, argv);

  const os::Flavor flavors[] = {os::Flavor::kXokExos, os::Flavor::kOpenBsdCffs,
                                os::Flavor::kOpenBsd, os::Flavor::kFreeBsd};

  PrintHeader("Figure 2: unmodified UNIX applications, lcc install workload");
  std::vector<WorkloadResult> results;
  for (os::Flavor f : flavors) {
    const bool traced = trace_opts.on() && f == os::Flavor::kXokExos;
    results.push_back(RunIoWorkload(f, {}, traced ? &trace_opts : nullptr));
  }

  std::printf("%-12s", "step");
  for (os::Flavor f : flavors) {
    std::printf("  %14s", os::FlavorName(f));
  }
  std::printf("\n");
  for (size_t i = 0; i < results[0].steps.size(); ++i) {
    std::printf("%-12s", results[0].steps[i].name.c_str());
    for (const auto& r : results) {
      std::printf("  %13.2fs", r.steps[i].seconds);
    }
    std::printf("\n");
  }
  std::printf("%-12s", "TOTAL");
  for (const auto& r : results) {
    std::printf("  %13.2fs", r.total);
  }
  std::printf("\n\npaper totals: Xok/ExOS 41 s | OpenBSD/C-FFS 51 s | OpenBSD ~60 s | FreeBSD ~60 s\n");
  return 0;
}
