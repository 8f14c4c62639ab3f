// Figure 5: global performance with the second application pool, where specialized
// applications (ones that benefit from C-FFS, emulated here by the pax -r / cp -r /
// diff jobs) compete with each other and with CPU-bound jobs. Paper: global
// performance does not degrade when some applications use resources aggressively —
// the relative advantage of Xok/ExOS grows with concurrency.
#include "bench/global_common.h"

int main(int argc, char** argv) {
  using namespace exo;
  using namespace exo::bench;

  const TraceOptions trace_opts = ParseTraceArgs(argc, argv);
  PrintGlobalTable("Figure 5: global performance, application pool 2 (seconds)",
                   apps::Fig5Pool(), apps::Fig5Inputs(), 13, trace_opts);

  std::printf("\npaper: global performance does not degrade with aggressive applications;\n");
  std::printf("the Xok/ExOS advantage grows with job concurrency\n");
  return 0;
}
