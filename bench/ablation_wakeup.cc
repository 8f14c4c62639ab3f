// Ablation: wakeup predicates vs polling (Sec. 5.1). A process waiting for a disk
// block can either sleep on a downloaded predicate (evaluated by the kernel when it
// is about to be scheduled) or busy-poll with yield system calls. This bench
// measures wasted CPU and wakeup latency for both, plus the effect of declaring
// the predicate's watched windows: the scheduler then evaluates the predicate only
// after a write to a watched kernel object instead of on every scheduling
// decision (xok.predicate_evals vs xok.predicate_skips).
#include "bench/common.h"
#include "udf/assembler.h"
#include "udf/vm.h"

namespace {

using namespace exo;

// The waiter's wakeup predicate: runnable once the flag word is nonzero.
const udf::Program& FlagPredicate() {
  static const udf::Program prog = [] {
    auto r = udf::Assemble("ldi r1, 0\nld4 r2, r1, 0, meta\nret r2\n");
    EXO_CHECK(r.ok);
    return r.program;
  }();
  return prog;
}

struct WaitResult {
  double wake_latency_us = 0;   // condition-true to running
  uint64_t waiter_syscalls = 0;
  uint64_t predicate_evals = 0;
  uint64_t predicate_skips = 0;
  uint64_t insns_per_eval = 0;  // downloaded instructions one evaluation runs
  sim::Cycles cycles_per_eval = 0;  // what the kernel charges for them
};

enum class Mechanism { kPredicate, kWatchedPredicate, kPolling };

WaitResult Run(Mechanism mech) {
  sim::Engine engine;
  hw::Machine machine(&engine, bench::PaperMachine(64));
  xok::XokKernel kernel(&machine);

  // The flag lives in a kernel region so the watched variant's producer write is
  // visible to the scheduler; the unwatched variants read the same region through
  // a live window, and the polling variant reads it through SysRegionRead.
  auto rid_r = kernel.SysRegionCreate(8, {}, 0);
  EXO_CHECK(rid_r.ok());
  const xok::RegionId rid = *rid_r;

  sim::Cycles condition_set_at = 0;
  sim::Cycles woke_at = 0;

  kernel.CreateEnv(xok::kInvalidEnv, {xok::Capability::Root()}, [&] {
    if (mech != Mechanism::kPolling) {
      xok::WakeupPredicate p;
      p.program = FlagPredicate();
      p.live_window = kernel.RegionBytes(rid);
      if (mech == Mechanism::kWatchedPredicate) {
        p.watches.push_back(xok::WatchSpec{xok::WatchKind::kRegion, rid});
      }
      kernel.SysSleep(std::move(p));
    } else {
      // Busy polling: yield-loop until the flag flips.
      uint8_t flag = 0;
      do {
        kernel.SysYield();
        EXO_CHECK_EQ(kernel.SysRegionRead(rid, 0, std::span<uint8_t>(&flag, 1), 0),
                     Status::kOk);
      } while (flag == 0);
    }
    woke_at = engine.now();
  });
  kernel.CreateEnv(xok::kInvalidEnv, {xok::Capability::Root()}, [&] {
    kernel.ChargeCpu(10'000'000);  // 50 ms of foreground work
    const uint8_t one = 1;
    EXO_CHECK_EQ(kernel.SysRegionWrite(rid, 0, std::span<const uint8_t>(&one, 1), 0),
                 Status::kOk);
    condition_set_at = engine.now();
    kernel.ChargeCpu(2'000'000);  // keep running a little: does the waiter preempt?
  });
  uint64_t syscalls0 = machine.counters().Get("xok.syscalls");
  uint64_t evals0 = machine.counters().Get("xok.predicate_evals");
  uint64_t skips0 = machine.counters().Get("xok.predicate_skips");
  kernel.Run();

  WaitResult r;
  r.wake_latency_us = static_cast<double>(woke_at - condition_set_at) / 200.0;
  r.waiter_syscalls = machine.counters().Get("xok.syscalls") - syscalls0;
  r.predicate_evals = machine.counters().Get("xok.predicate_evals") - evals0;
  r.predicate_skips = machine.counters().Get("xok.predicate_skips") - skips0;
  // One evaluation, on the flag as the waiter last saw it, charged as the
  // scheduler charges it (insns x downloaded_insn).
  udf::RunInput in;
  in.buffers[udf::kBufMeta] = *kernel.RegionBytes(rid);
  r.insns_per_eval = udf::Run(FlagPredicate(), in).insns;
  r.cycles_per_eval = r.insns_per_eval * machine.cost().downloaded_insn;
  return r;
}

}  // namespace

int main() {
  using namespace exo;
  bench::PrintHeader("Ablation: wakeup predicates vs yield-polling (50 ms wait)");
  WaitResult pred = Run(Mechanism::kPredicate);
  WaitResult watched = Run(Mechanism::kWatchedPredicate);
  WaitResult poll = Run(Mechanism::kPolling);
  std::printf("%-20s %16s %16s %12s %12s\n", "mechanism", "wake latency", "syscalls burned",
              "pred evals", "pred skips");
  std::printf("%-20s %13.1f us %16llu %12llu %12llu\n", "wakeup predicate",
              pred.wake_latency_us, static_cast<unsigned long long>(pred.waiter_syscalls),
              static_cast<unsigned long long>(pred.predicate_evals),
              static_cast<unsigned long long>(pred.predicate_skips));
  std::printf("%-20s %13.1f us %16llu %12llu %12llu\n", "watched predicate",
              watched.wake_latency_us,
              static_cast<unsigned long long>(watched.waiter_syscalls),
              static_cast<unsigned long long>(watched.predicate_evals),
              static_cast<unsigned long long>(watched.predicate_skips));
  std::printf("%-20s %13.1f us %16llu %12llu %12llu\n", "yield polling",
              poll.wake_latency_us, static_cast<unsigned long long>(poll.waiter_syscalls),
              static_cast<unsigned long long>(poll.predicate_evals),
              static_cast<unsigned long long>(poll.predicate_skips));
  std::printf("\npredicates burn no CPU while waiting; the kernel runs %llu downloaded\n",
              static_cast<unsigned long long>(pred.insns_per_eval));
  std::printf("instructions (%llu cycles) per scheduling decision instead (Sec. 5.1).\n",
              static_cast<unsigned long long>(pred.cycles_per_eval));
  std::printf("declared watches skip even that: of %llu blocked-env scheduling decisions,\n",
              static_cast<unsigned long long>(watched.predicate_evals +
                                              watched.predicate_skips));
  std::printf("only %llu ran the predicate; %llu were skipped as clean.\n",
              static_cast<unsigned long long>(watched.predicate_evals),
              static_cast<unsigned long long>(watched.predicate_skips));
  if (watched.predicate_evals + watched.predicate_skips <= watched.predicate_evals ||
      watched.predicate_skips == 0) {
    std::printf("ERROR: watch indexing skipped nothing\n");
    return 1;
  }
  return 0;
}
