// CostModel: the cycle costs of primitive hardware and software operations.
//
// The model is calibrated to the paper's testbed (200-MHz Intel Pentium Pro, 256-KB L2,
// 64-MB RAM) using the microbenchmark numbers the paper publishes:
//   - getpid: 270 cycles on OpenBSD, 100 cycles as a procedure call into ExOS (Sec. 7.1)
//   - pipe latency: 13/30/34 us (1 byte), 148-160 us (8 KB) (Table 2)
//   - fork: 6 ms on ExOS vs <1 ms on OpenBSD (Sec. 6.2)
// Only hardware and microarchitectural costs live here; each kernel composes these into
// its own operation costs (e.g. a BSD syscall = trap + dispatch + argument validation,
// while a Xok syscall = trap + capability check).
#ifndef EXO_SIM_COST_MODEL_H_
#define EXO_SIM_COST_MODEL_H_

#include <cstdint>

#include "sim/engine.h"

namespace exo::sim {

struct CostModel {
  uint32_t cpu_mhz = 200;

  // Privilege crossing: INT + IRET round trip with kernel entry bookkeeping.
  Cycles trap_round_trip = 120;
  // Extra work a monolithic UNIX kernel performs per syscall: dispatch table,
  // copyin of arguments, errno plumbing (getpid on OpenBSD = trap + this + body).
  Cycles unix_syscall_dispatch = 130;
  // Extra work Xok performs per syscall: credential lookup + capability check.
  Cycles xok_syscall_check = 50;
  // One capability-dominance comparison (hierarchical name prefix match).
  Cycles cap_check = 25;
  // A libOS procedure call standing in for a syscall (emulated INT rerouted).
  Cycles libos_procedure_call = 80;
  // Trivial syscall body (e.g. reading the pid field).
  Cycles getpid_body = 20;

  // Context switch between address spaces (page-table base reload + TLB refill wave).
  Cycles context_switch = 1400;
  // Upcall delivery into an unscheduled environment (no address-space change assumed).
  Cycles upcall = 350;
  // Hardware page-fault trap overhead (before any handler work).
  Cycles page_fault_trap = 400;

  // Page-table entry updates. Xok applications must use syscalls; batching amortizes
  // the trap (Sec. 5.2.1). BSD kernels touch PTEs directly.
  Cycles pte_update_kernel = 40;
  Cycles pte_update_batched = 60;   // per PTE inside a batched syscall

  // Memory operation throughput. ~66-MHz FSB: copies move roughly one byte per
  // 1.6 CPU cycles once both miss the L2.
  double copy_per_byte = 1.6;
  double checksum_per_byte = 0.5;
  double zero_per_byte = 0.8;
  double compare_per_byte = 0.7;

  // Downloaded-code interpretation (UDFs, wakeup predicates, packet filters).
  Cycles downloaded_insn = 5;
  Cycles udf_setup = 150;          // per UDF invocation: argument marshalling

  // Scheduler quantum (one slice), ~10 ms at 200 MHz.
  Cycles quantum = 2'000'000;
  // Per-pick bookkeeping of the stride scheduler (pass update + ordered-queue
  // reinsert), charged once per scheduling decision.
  Cycles stride_pick = 60;

  // Interrupt servicing overhead (disk or NIC completion).
  Cycles interrupt_overhead = 500;

  Cycles FromMicros(double us) const {
    return static_cast<Cycles>(us * static_cast<double>(cpu_mhz));
  }
  double ToMicros(Cycles c) const { return static_cast<double>(c) / cpu_mhz; }
  double ToSeconds(Cycles c) const { return ToMicros(c) / 1e6; }

  Cycles CopyCost(uint64_t bytes) const {
    return static_cast<Cycles>(static_cast<double>(bytes) * copy_per_byte);
  }
  Cycles ChecksumCost(uint64_t bytes) const {
    return static_cast<Cycles>(static_cast<double>(bytes) * checksum_per_byte);
  }
  Cycles ZeroCost(uint64_t bytes) const {
    return static_cast<Cycles>(static_cast<double>(bytes) * zero_per_byte);
  }
  Cycles CompareCost(uint64_t bytes) const {
    return static_cast<Cycles>(static_cast<double>(bytes) * compare_per_byte);
  }

  static CostModel PentiumPro200() { return CostModel{}; }
};

}  // namespace exo::sim

#endif  // EXO_SIM_COST_MODEL_H_
