// Ablation: what do UDFs and XN's guarded operations cost?
//
// DESIGN.md calls out the template/UDF design as XN's central trade-off (Sec. 4.2
// rejected per-block capabilities and declarative templates). This bench measures:
//   - host-side interpreter throughput of the C-FFS directory owns-udf,
//   - simulated-cycle cost of guarded Alloc/Modify vs the trusted kernel backend,
//   - wakeup-predicate evaluation cost.
// Stdout holds only deterministic numbers (UDF instructions per run, simulated
// cycles per create), pinned by bench/golden/ablation_udf.txt. Host times are
// wall-clock (steady_clock) averages over a fixed iteration count, vary with the
// machine, and go to stderr.
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "bench/common.h"
#include "fs/cffs.h"
#include "fs/kernel_backend.h"
#include "fs/xn_backend.h"
#include "hw/machine.h"
#include "udf/assembler.h"
#include "udf/vm.h"
#include "xn/xn.h"

namespace {

using namespace exo;
using bench::WallNow;

// Host throughput of the UDF interpreter on a realistic program: a directory-block
// scan (the hot owns-udf in C-FFS).
void UdfInterpreterDirScan(int iters) {
  auto prog = udf::Assemble(R"(
      ldi r1, 0
      ldi r2, 32
    slot:
      ld1 r3, r1, 0, meta
      bz r3, next
      ld4 r9, r1, 12, meta
      ldi r10, 8
      cle r11, r9, r10
      mul r12, r9, r11
      ldi r13, 1
      sub r13, r13, r11
      mul r13, r10, r13
      add r12, r12, r13
      addi r13, r1, 80
      ldi r14, 1
    dloop:
      bz r12, next
      ld4 r15, r13, 0, meta
      emit r15, r14, r14
      addi r13, r13, 4
      addi r12, r12, -1
      jmp dloop
    next:
      addi r1, r1, 128
      addi r2, r2, -1
      bnz r2, slot
      ldi r1, 0
      ret r1
  )");
  EXO_CHECK(prog.ok);
  std::vector<uint8_t> block(4096, 0);
  for (int slot = 1; slot < 32; ++slot) {
    block[static_cast<size_t>(slot) * 128] = 1;      // kind = file
    block[static_cast<size_t>(slot) * 128 + 12] = 4;  // nblocks = 4
  }
  uint64_t insns = 0;
  uint64_t sink = 0;
  const double t0 = WallNow();
  for (int i = 0; i < iters; ++i) {
    udf::RunInput in;
    in.buffers[udf::kBufMeta] = block;
    auto out = udf::Run(prog.program, in);
    sink += out.ret;
    insns += out.insns;
  }
  const double t1 = WallNow();
  EXO_CHECK_EQ(sink, 0u);
  std::printf("%-26s %7.0f udf insns/run\n", "udf dir-scan interpreter",
              static_cast<double>(insns) / iters);
  std::fprintf(stderr, "%-26s %9.0f host ns/run\n", "udf dir-scan interpreter",
               (t1 - t0) * 1e9 / iters);
}

// Simulated cycles per guarded metadata allocation (XN running owns-udf twice +
// acl-uf) vs the trusted kernel backend (no verification) — the price of letting
// untrusted code define metadata formats. Setup (format, mkfs) is untimed.
void GuardedAllocCycles(bool guarded, int reps) {
  constexpr int kCreates = 64;
  double sim_cycles = 0;
  double wall = 0;
  for (int rep = 0; rep < reps; ++rep) {
    sim::Engine engine;
    hw::Machine machine(&engine, hw::MachineConfig{
                                     .mem_frames = 4096,
                                     .disks = {hw::DiskGeometry{.num_blocks = 8192}}});
    const fs::Blocker blocker = fs::SpinEngine(engine);
    std::unique_ptr<xn::Xn> xn;
    std::unique_ptr<fs::FsBackend> backend;
    if (guarded) {
      xn = std::make_unique<xn::Xn>(&machine, &machine.disk());
      xn->Format();
      EXO_CHECK_EQ(xn->Attach(), Status::kOk);
      backend = std::make_unique<fs::XnBackend>(
          xn.get(), xn::Caps{xok::Capability::For({xok::kCapFs, 1})}, blocker, [&machine] {
            auto f = machine.mem().Alloc();
            return f.ok() ? *f : hw::kInvalidFrame;
          });
    } else {
      backend = std::make_unique<fs::KernelBackend>(&machine, &machine.disk(), blocker);
    }
    fs::Cffs cffs(backend.get(), fs::CffsOptions{.fsid = 1});
    EXO_CHECK_EQ(cffs.Mkfs(), Status::kOk);
    const sim::Cycles c0 = engine.now();
    const double t0 = WallNow();

    // File creates + one-block writes: each is a guarded Alloc on a dir block.
    for (int i = 0; i < kCreates; ++i) {
      auto h = cffs.Create("/f" + std::to_string(i), 7);
      EXO_CHECK(h.ok());
      std::vector<uint8_t> data(512, 1);
      EXO_CHECK(cffs.Write(*h, 0, data, 7).ok());
    }
    wall += WallNow() - t0;
    sim_cycles = static_cast<double>(engine.now() - c0) / kCreates;
  }
  const char* label = guarded ? "create+write, xn guarded" : "create+write, kernel fs";
  std::printf("%-26s %7.0f sim cycles/create\n", label, sim_cycles);
  std::fprintf(stderr, "%-26s %9.0f host ns/create\n", label,
               wall * 1e9 / (static_cast<double>(reps) * kCreates));
}

// Wakeup-predicate evaluation: host cost of one interpreter run of the
// protected-pipe predicate the kernel evaluates per scheduling decision.
void WakeupPredicateEval(int iters) {
  auto prog = udf::Assemble(R"(
      ldi r1, 0
      ld4 r2, r1, 0, meta
      ld1 r3, r1, 4, meta
      or r4, r2, r3
      ret r4
  )");
  EXO_CHECK(prog.ok);
  std::vector<uint8_t> window(8, 0);
  window[0] = 1;
  uint64_t insns = 0;
  uint64_t sink = 0;
  const double t0 = WallNow();
  for (int i = 0; i < iters; ++i) {
    udf::RunInput in;
    in.buffers[udf::kBufMeta] = window;
    auto out = udf::Run(prog.program, in);
    sink += out.ret;
    insns += out.insns;
  }
  const double t1 = WallNow();
  EXO_CHECK_EQ(sink, static_cast<uint64_t>(iters));
  std::printf("%-26s %7.0f udf insns/eval\n", "wakeup predicate",
              static_cast<double>(insns) / iters);
  std::fprintf(stderr, "%-26s %9.0f host ns/eval\n", "wakeup predicate",
               (t1 - t0) * 1e9 / iters);
}

}  // namespace

int main() {
  exo::bench::PrintHeader("ablation: UDF interpretation and XN guard costs");
  UdfInterpreterDirScan(20'000);
  GuardedAllocCycles(/*guarded=*/true, /*reps=*/5);
  GuardedAllocCycles(/*guarded=*/false, /*reps=*/5);
  WakeupPredicateEval(200'000);
  return 0;
}
