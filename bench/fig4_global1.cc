// Figure 4: global performance with the first application pool — a mix of I/O- and
// CPU-intensive programs on which Xok/ExOS and FreeBSD run roughly equivalently in
// isolation (pax -w, grep, cksum, tsp, sor, wc, gcc, gzip, gunzip). number/number is
// total jobs / maximum concurrency. Paper: the exokernel achieves performance
// roughly comparable to FreeBSD despite being untuned for global performance.
#include "bench/global_common.h"

int main(int argc, char** argv) {
  using namespace exo;
  using namespace exo::bench;

  const TraceOptions trace_opts = ParseTraceArgs(argc, argv);
  const apps::SharedInputSpecs inputs = apps::Fig4Inputs();
  PrintGlobalTable("Figure 4: global performance, application pool 1 (seconds)",
                   apps::Fig4Pool(inputs), inputs, 11, trace_opts);

  std::printf("\npaper: Xok/ExOS achieves throughput and latency roughly comparable to\n");
  std::printf("FreeBSD across all concurrency levels, despite decentralized management\n");
  return 0;
}
