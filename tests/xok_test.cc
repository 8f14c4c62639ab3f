// Tests for the Xok exokernel: capabilities, environments, scheduling, memory
// protection, software regions, IPC, wakeup predicates, and packet filters.
#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "hw/machine.h"
#include "sim/engine.h"
#include "udf/assembler.h"
#include "xok/capability.h"
#include "xok/kernel.h"

namespace exo::xok {
namespace {

class XokTest : public ::testing::Test {
 protected:
  XokTest() : machine_(&engine_, hw::MachineConfig{.mem_frames = 256}), kernel_(&machine_) {}

  sim::Engine engine_;
  hw::Machine machine_;
  XokKernel kernel_;
};

TEST(CapabilityTest, RootDominatesEverything) {
  Capability root = Capability::Root();
  EXPECT_TRUE(Dominates(root, {1, 2, 3}, true));
  EXPECT_TRUE(Dominates(root, {}, true));
}

TEST(CapabilityTest, PrefixDominance) {
  Capability user = Capability::For({kCapUsers, 100});
  EXPECT_TRUE(Dominates(user, {kCapUsers, 100}, true));
  EXPECT_TRUE(Dominates(user, {kCapUsers, 100, 7}, true));
  EXPECT_FALSE(Dominates(user, {kCapUsers, 101}, true));
  EXPECT_FALSE(Dominates(user, {kCapUsers}, true));  // shorter guard: no dominance
}

TEST(CapabilityTest, ReadOnlyCannotWrite) {
  Capability ro = Capability::For({kCapUsers, 5}, /*w=*/false);
  EXPECT_TRUE(Dominates(ro, {kCapUsers, 5, 1}, false));
  EXPECT_FALSE(Dominates(ro, {kCapUsers, 5, 1}, true));
}

TEST_F(XokTest, EnvRunsToCompletion) {
  int ran = 0;
  kernel_.CreateEnv(kInvalidEnv, {Capability::Root()}, [&] {
    kernel_.ChargeCpu(1000);
    ++ran;
  });
  kernel_.Run();
  EXPECT_EQ(ran, 1);
  EXPECT_EQ(kernel_.alive_count(), 0u);
  EXPECT_GE(engine_.now(), 1000u);
}

TEST_F(XokTest, SysExitSetsCode) {
  EnvId id = kernel_.CreateEnv(kInvalidEnv, {Capability::Root()},
                               [&] { kernel_.SysExit(42); });
  kernel_.Run();
  EXPECT_EQ(kernel_.env(id).state, EnvState::kZombie);
  EXPECT_EQ(kernel_.env(id).exit_code, 42);
  EXPECT_EQ(kernel_.ReapEnv(id), Status::kOk);
  EXPECT_FALSE(kernel_.EnvExists(id));
}

TEST_F(XokTest, WaitReapsChild) {
  int child_code = -1;
  kernel_.CreateEnv(kInvalidEnv, {Capability::Root()}, [&] {
    EnvId child = kernel_.CreateEnv(kernel_.current_id(), {Capability::Root()}, [&] {
      kernel_.ChargeCpu(5000);
      kernel_.SysExit(7);
    });
    auto r = kernel_.SysWait(child);
    ASSERT_TRUE(r.ok());
    child_code = *r;
    EXPECT_FALSE(kernel_.EnvExists(child));
  });
  kernel_.Run();
  EXPECT_EQ(child_code, 7);
}

TEST_F(XokTest, WaitOnNonChildDenied) {
  EnvId other = kernel_.CreateEnv(kInvalidEnv, {Capability::Root()}, [&] {});
  Status got = Status::kOk;
  kernel_.CreateEnv(kInvalidEnv, {Capability::Root()},
                    [&] { got = kernel_.SysWait(other).status(); });
  kernel_.Run();
  EXPECT_EQ(got, Status::kPermissionDenied);
}

TEST_F(XokTest, RoundRobinInterleavesAtQuantum) {
  // Two CPU-bound envs; each records the order of its slices.
  std::vector<int> order;
  const sim::Cycles q = machine_.cost().quantum;
  for (int i = 0; i < 2; ++i) {
    kernel_.CreateEnv(kInvalidEnv, {Capability::Root()}, [&, i] {
      for (int s = 0; s < 3; ++s) {
        order.push_back(i);
        kernel_.ChargeCpu(q);  // exactly one slice of work
      }
    });
  }
  kernel_.Run();
  // Strict alternation: 0,1,0,1,0,1.
  EXPECT_EQ(order, (std::vector<int>{0, 1, 0, 1, 0, 1}));
}

TEST_F(XokTest, CriticalSectionDefersSliceEnd) {
  std::vector<int> order;
  const sim::Cycles q = machine_.cost().quantum;
  kernel_.CreateEnv(kInvalidEnv, {Capability::Root()}, [&] {
    kernel_.EnterCritical();
    order.push_back(0);
    kernel_.ChargeCpu(3 * q);  // would normally be preempted twice
    order.push_back(0);
    kernel_.ExitCritical();
  });
  kernel_.CreateEnv(kInvalidEnv, {Capability::Root()}, [&] {
    order.push_back(1);
    kernel_.ChargeCpu(q / 2);
  });
  kernel_.Run();
  // Env 0 runs its whole critical section before env 1 ever runs.
  EXPECT_EQ(order, (std::vector<int>{0, 0, 1}));
}

TEST_F(XokTest, DirectedYieldHandsOffSlice) {
  std::vector<int> order;
  EnvId b = kInvalidEnv;
  kernel_.CreateEnv(kInvalidEnv, {Capability::Root()}, [&] {
    order.push_back(0);
    kernel_.SysYield(b);  // hand the CPU to b specifically
    order.push_back(0);
  });
  // A decoy env between a and b in scheduling order.
  kernel_.CreateEnv(kInvalidEnv, {Capability::Root()}, [&] { order.push_back(9); });
  b = kernel_.CreateEnv(kInvalidEnv, {Capability::Root()}, [&] {
    order.push_back(1);
    kernel_.SysYield();
  });
  kernel_.Run();
  ASSERT_GE(order.size(), 2u);
  EXPECT_EQ(order[0], 0);
  EXPECT_EQ(order[1], 1);  // b ran before the decoy despite queue order
}

TEST_F(XokTest, HostPredicateBlocksUntilTrue) {
  bool flag = false;
  std::vector<int> order;
  kernel_.CreateEnv(kInvalidEnv, {Capability::Root()}, [&] {
    WakeupPredicate p;
    p.host = [&] { return flag; };
    kernel_.SysSleep(std::move(p));
    order.push_back(1);
  });
  kernel_.CreateEnv(kInvalidEnv, {Capability::Root()}, [&] {
    kernel_.ChargeCpu(10'000);
    order.push_back(0);
    flag = true;
  });
  kernel_.Run();
  EXPECT_EQ(order, (std::vector<int>{0, 1}));
}

TEST_F(XokTest, UdfPredicateWatchesMemoryWindow) {
  // The predicate wakes the sleeper when the first word of a shared window becomes
  // nonzero — the real wakeup-predicate mechanism (Sec. 5.1).
  std::vector<uint8_t> window(8, 0);
  auto prog = udf::Assemble(R"(
    ldi r1, 0
    ld4 r2, r1, 0, meta
    ret r2
  )");
  ASSERT_TRUE(prog.ok);

  std::vector<int> order;
  kernel_.CreateEnv(kInvalidEnv, {Capability::Root()}, [&] {
    WakeupPredicate p;
    p.program = prog.program;
    p.live_window = &window;
    kernel_.SysSleep(std::move(p));
    order.push_back(1);
  });
  kernel_.CreateEnv(kInvalidEnv, {Capability::Root()}, [&] {
    kernel_.ChargeCpu(50'000);
    order.push_back(0);
    window[0] = 1;
  });
  kernel_.Run();
  EXPECT_EQ(order, (std::vector<int>{0, 1}));
}

TEST_F(XokTest, TimeBasedPredicateFiresOnIdleClock) {
  const sim::Cycles wake_at = 1'000'000;
  sim::Cycles woke = 0;
  kernel_.CreateEnv(kInvalidEnv, {Capability::Root()}, [&] {
    WakeupPredicate p;
    p.host = [&] { return engine_.now() >= wake_at; };
    p.deadline = wake_at;
    kernel_.SysSleep(std::move(p));
    woke = engine_.now();
  });
  kernel_.Run();
  EXPECT_GE(woke, wake_at);
  EXPECT_LT(woke, wake_at + 100'000);  // deadline hint avoids gross overshoot
}

TEST_F(XokTest, WatchedPredicateSkipsEvalUntilRegionWrite) {
  // A predicate that declares its watched kernel objects is only re-evaluated
  // after a write to one of them; every other scheduling decision skips it.
  auto rid_r = kernel_.SysRegionCreate(8, {}, 0);
  ASSERT_TRUE(rid_r.ok());
  const RegionId rid = *rid_r;
  auto prog = udf::Assemble(R"(
    ldi r1, 0
    ld4 r2, r1, 0, meta
    ret r2
  )");
  ASSERT_TRUE(prog.ok);

  std::vector<int> order;
  kernel_.CreateEnv(kInvalidEnv, {Capability::Root()}, [&] {
    WakeupPredicate p;
    p.program = prog.program;
    p.live_window = kernel_.RegionBytes(rid);
    p.watches.push_back(WatchSpec{WatchKind::kRegion, rid});
    kernel_.SysSleep(std::move(p));
    order.push_back(1);
  });
  kernel_.CreateEnv(kInvalidEnv, {Capability::Root()}, [&] {
    // Each yield forces a scheduling decision; while the flag region is clean
    // every one after the first must skip the sleeper's predicate, not run it.
    for (int i = 0; i < 5; ++i) {
      kernel_.ChargeCpu(50'000);
      kernel_.SysYield();
    }
    order.push_back(0);
    const uint8_t one = 1;
    ASSERT_EQ(kernel_.SysRegionWrite(rid, 0, std::span<const uint8_t>(&one, 1), 0),
              Status::kOk);
  });
  uint64_t evals0 = machine_.counters().Get("xok.predicate_evals");
  uint64_t skips0 = machine_.counters().Get("xok.predicate_skips");
  kernel_.Run();
  EXPECT_EQ(order, (std::vector<int>{0, 1}));  // write still wakes the sleeper
  uint64_t evals = machine_.counters().Get("xok.predicate_evals") - evals0;
  uint64_t skips = machine_.counters().Get("xok.predicate_skips") - skips0;
  EXPECT_GT(skips, 0u);
  // Dirty on block, dirty after the write: a handful of evals at most, and
  // strictly fewer than total blocked-env scheduling decisions.
  EXPECT_LT(evals, evals + skips);
  EXPECT_LE(evals, 3u);
}

TEST_F(XokTest, WatchedPredicateStillHonorsDeadline) {
  // Declared watches must not starve a predicate that also carries a deadline:
  // once now >= deadline the scheduler re-evaluates it even with no notify.
  auto rid_r = kernel_.SysRegionCreate(8, {}, 0);
  ASSERT_TRUE(rid_r.ok());
  const RegionId rid = *rid_r;

  const sim::Cycles wake_at = 500'000;
  sim::Cycles woke = 0;
  kernel_.CreateEnv(kInvalidEnv, {Capability::Root()}, [&] {
    WakeupPredicate p;
    p.host = [&] { return engine_.now() >= wake_at; };
    p.deadline = wake_at;
    p.watches.push_back(WatchSpec{WatchKind::kRegion, rid});  // never written
    kernel_.SysSleep(std::move(p));
    woke = engine_.now();
  });
  kernel_.Run();
  EXPECT_GE(woke, wake_at);
  EXPECT_LT(woke, wake_at + 100'000);
}

TEST_F(XokTest, IpcWatchWakesReceiver) {
  // An IPC-watched predicate sleeps through unrelated work and wakes on the send.
  std::vector<int> order;
  EnvId receiver = kInvalidEnv;
  kernel_.CreateEnv(kInvalidEnv, {Capability::Root()}, [&] {
    Env* self = kernel_.current();
    receiver = self->id;
    WakeupPredicate p;
    p.host = [self] { return !self->ipc_queue.empty(); };
    p.watches.push_back(WatchSpec{WatchKind::kIpc, receiver});
    kernel_.SysSleep(std::move(p));
    auto m = kernel_.SysIpcRecv();
    ASSERT_TRUE(m.ok());
    order.push_back(static_cast<int>(m->words[0]));
  });
  kernel_.CreateEnv(kInvalidEnv, {Capability::Root()}, [&] {
    kernel_.ChargeCpu(100'000);
    IpcMessage m;
    m.words[0] = 7;
    ASSERT_EQ(kernel_.SysIpcSend(receiver, m, 0), Status::kOk);
    kernel_.ChargeCpu(100'000);
  });
  kernel_.Run();
  EXPECT_EQ(order, (std::vector<int>{7}));
}

TEST_F(XokTest, FrameAllocationGuardsEnforced) {
  Status steal = Status::kOk;
  kernel_.CreateEnv(kInvalidEnv, {Capability::For({kCapUsers, 1})}, [&] {
    // Allocate a frame guarded by user 1's namespace.
    auto f = kernel_.SysFrameAlloc(0, {kCapUsers, 1, 99});
    ASSERT_TRUE(f.ok());
    // A second env owned by user 2 must not be able to free or map it.
    EnvId thief = kernel_.CreateEnv(kernel_.current_id(),
                                    {Capability::For({kCapUsers, 2})}, [&, f] {
      steal = kernel_.SysFrameFree(*f, 0);
    });
    EXPECT_TRUE(kernel_.SysWait(thief).ok());
    EXPECT_EQ(kernel_.SysFrameFree(*f, 0), Status::kOk);
  });
  kernel_.Run();
  EXPECT_EQ(steal, Status::kPermissionDenied);
}

TEST_F(XokTest, PageTableMappingAndAccess) {
  kernel_.CreateEnv(kInvalidEnv, {Capability::Root()}, [&] {
    EnvId self = kernel_.current_id();
    auto f = kernel_.SysFrameAlloc(0, {});
    ASSERT_TRUE(f.ok());
    PtOp op;
    op.kind = PtOp::Kind::kInsert;
    op.vpage = 16;
    op.pte = {.frame = *f, .readable = true, .writable = true, .software_bits = 0};
    ASSERT_EQ(kernel_.SysPtUpdate(self, op, 0), Status::kOk);

    std::vector<uint8_t> data = {1, 2, 3, 4};
    ASSERT_EQ(kernel_.AccessUserMemory(self, 16 * 4096 + 100, data, /*write=*/true),
              Status::kOk);
    std::vector<uint8_t> back(4);
    ASSERT_EQ(kernel_.AccessUserMemory(self, 16 * 4096 + 100, back, /*write=*/false),
              Status::kOk);
    EXPECT_EQ(back, data);
  });
  kernel_.Run();
}

TEST_F(XokTest, ReadOnlyMappingFaultsOnWriteAndCowResolves) {
  int faults = 0;
  kernel_.CreateEnv(kInvalidEnv, {Capability::Root()}, [&] {
    EnvId self = kernel_.current_id();
    Env& e = kernel_.env(self);
    auto f = kernel_.SysFrameAlloc(0, {});
    ASSERT_TRUE(f.ok());
    std::memset(machine_.mem().Data(*f).data(), 0x77, hw::kPageSize);

    PtOp op;
    op.kind = PtOp::Kind::kInsert;
    op.vpage = 3;
    op.pte = {.frame = *f, .readable = true, .writable = false,
              .software_bits = kSwBitCow};
    ASSERT_EQ(kernel_.SysPtUpdate(self, op, 0), Status::kOk);

    // Install a libOS-style COW fault handler: copy to a fresh frame, remap writable.
    e.on_page_fault = [&, self](VPage vp, bool write) {
      if (!write) {
        return false;
      }
      const Pte* old = kernel_.env(self).pt.Lookup(vp);
      if (old == nullptr || (old->software_bits & kSwBitCow) == 0) {
        return false;
      }
      ++faults;
      auto nf = kernel_.SysFrameAlloc(0, {});
      if (!nf.ok()) {
        return false;
      }
      machine_.mem().CopyFrame(*nf, old->frame);
      machine_.Charge(machine_.cost().CopyCost(hw::kPageSize));
      PtOp fix;
      fix.kind = PtOp::Kind::kInsert;
      fix.vpage = vp;
      fix.pte = {.frame = *nf, .readable = true, .writable = true, .software_bits = 0};
      return kernel_.SysPtUpdate(self, fix, 0) == Status::kOk;
    };

    std::vector<uint8_t> data = {0xaa};
    ASSERT_EQ(kernel_.AccessUserMemory(self, 3 * 4096, data, /*write=*/true), Status::kOk);
    // Original frame is untouched; new mapping has the write.
    EXPECT_EQ(machine_.mem().Data(*f)[0], 0x77);
    std::vector<uint8_t> back(1);
    ASSERT_EQ(kernel_.AccessUserMemory(self, 3 * 4096, back, /*write=*/false), Status::kOk);
    EXPECT_EQ(back[0], 0xaa);
  });
  kernel_.Run();
  EXPECT_EQ(faults, 1);
}

TEST_F(XokTest, BatchedPtUpdatesCostLessThanSingles) {
  auto run = [&](bool batched) {
    sim::Engine engine;
    hw::Machine m(&engine, hw::MachineConfig{.mem_frames = 256});
    XokKernel k(&m);
    k.CreateEnv(kInvalidEnv, {Capability::Root()}, [&] {
      EnvId self = k.current_id();
      std::vector<PtOp> ops;
      for (uint32_t i = 0; i < 64; ++i) {
        auto f = k.SysFrameAlloc(0, {});
        ASSERT_TRUE(f.ok());
        PtOp op;
        op.kind = PtOp::Kind::kInsert;
        op.vpage = i;
        op.pte = {.frame = *f, .readable = true, .writable = true, .software_bits = 0};
        ops.push_back(op);
      }
      sim::Cycles before = engine.now();
      if (batched) {
        ASSERT_EQ(k.SysPtBatch(self, ops, 0), Status::kOk);
      } else {
        for (const auto& op : ops) {
          ASSERT_EQ(k.SysPtUpdate(self, op, 0), Status::kOk);
        }
      }
      m.counters().Add(batched ? "t.batched" : "t.single", engine.now() - before);
    });
    k.Run();
    return m.counters().Get(batched ? "t.batched" : "t.single");
  };
  EXPECT_LT(run(true) * 2, run(false));
}

TEST_F(XokTest, SoftwareRegionProtectsSubPageState) {
  Status intruder = Status::kOk;
  kernel_.CreateEnv(kInvalidEnv, {Capability::For({kCapUsers, 1})}, [&] {
    auto rid = kernel_.SysRegionCreate(128, {kCapUsers, 1, 5}, 0);
    ASSERT_TRUE(rid.ok());
    std::vector<uint8_t> msg = {'h', 'i'};
    ASSERT_EQ(kernel_.SysRegionWrite(*rid, 10, msg, 0), Status::kOk);

    std::vector<uint8_t> out(2);
    ASSERT_EQ(kernel_.SysRegionRead(*rid, 10, out, 0), Status::kOk);
    EXPECT_EQ(out, msg);

    EnvId other = kernel_.CreateEnv(kernel_.current_id(),
                                    {Capability::For({kCapUsers, 2})}, [&, rid] {
      std::vector<uint8_t> evil = {0, 0};
      intruder = kernel_.SysRegionWrite(*rid, 10, evil, 0);
    });
    EXPECT_TRUE(kernel_.SysWait(other).ok());
    // Out-of-bounds write rejected too.
    EXPECT_EQ(kernel_.SysRegionWrite(*rid, 127, msg, 0), Status::kInvalidArgument);
  });
  kernel_.Run();
  EXPECT_EQ(intruder, Status::kPermissionDenied);
}

TEST_F(XokTest, IpcDeliversInOrder) {
  std::vector<uint64_t> got;
  EnvId receiver = kernel_.CreateEnv(kInvalidEnv, {Capability::Root()}, [&] {
    for (int i = 0; i < 3;) {
      auto m = kernel_.SysIpcRecv();
      if (m.ok()) {
        got.push_back(m->words[0]);
        ++i;
      } else {
        kernel_.SysYield();
      }
    }
  });
  kernel_.CreateEnv(kInvalidEnv, {Capability::Root()}, [&] {
    for (uint64_t i = 1; i <= 3; ++i) {
      IpcMessage m;
      m.words[0] = i * 10;
      EXPECT_EQ(kernel_.SysIpcSend(receiver, m, 0), Status::kOk);
    }
  });
  kernel_.Run();
  EXPECT_EQ(got, (std::vector<uint64_t>{10, 20, 30}));
}

TEST_F(XokTest, PacketFilterClaimsMatchingPackets) {
  // Filter: claim packets whose first byte equals 0x42.
  auto prog = udf::Assemble(R"(
    ldi r1, 0
    ld1 r2, r1, 0, meta
    ldi r3, 0x42
    ceq r4, r2, r3
    ret r4
  )");
  ASSERT_TRUE(prog.ok);

  // Wire a peer NIC into the machine's NIC 0.
  hw::Nic peer(99);
  hw::Link link(&engine_, 100.0, 10.0, 200);
  link.Connect(&peer, &machine_.nic(0));

  std::vector<uint8_t> first;
  kernel_.CreateEnv(kInvalidEnv, {Capability::Root()}, [&] {
    auto fid = kernel_.SysFilterInstall(prog.program, 0);
    ASSERT_TRUE(fid.ok());
    peer.Transmit({.bytes = {0x41, 1}});  // not ours
    peer.Transmit({.bytes = {0x42, 2}});  // ours
    WakeupPredicate p;
    p.host = [&, fid] { return kernel_.Filter(*fid)->delivered > 0; };
    kernel_.SysSleep(std::move(p));
    auto pkt = kernel_.SysRingConsume(*fid, 0);
    ASSERT_TRUE(pkt.ok());
    first = pkt->bytes;
    EXPECT_EQ(kernel_.SysRingConsume(*fid, 0).status(), Status::kWouldBlock);
  });
  kernel_.Run();
  EXPECT_EQ(first, (std::vector<uint8_t>{0x42, 2}));
  EXPECT_EQ(machine_.counters().Get("xok.packets_unclaimed"), 1u);
}

// A filter that claims frames whose destination port (offset 11, 2 bytes)
// matches — loads only immovable offsets within the 16-byte flow key, so the
// demux flow cache may memoize its verdicts.
udf::AssembleResult CacheablePortFilter(unsigned port) {
  return udf::Assemble("ld2 r1, r0, 11, meta\nldi r2, " + std::to_string(port) +
                       "\nceq r3, r1, r2\nret r3\n");
}

std::vector<uint8_t> FrameForPort(unsigned port) {
  std::vector<uint8_t> frame(16, 0);
  frame[11] = static_cast<uint8_t>(port & 0xff);
  frame[12] = static_cast<uint8_t>(port >> 8);
  return frame;
}

TEST_F(XokTest, DemuxFlowCacheHitsAfterFirstPacket) {
  auto prog = CacheablePortFilter(80);
  ASSERT_TRUE(prog.ok);
  hw::Nic peer(99);
  hw::Link link(&engine_, 100.0, 10.0, 200);
  link.Connect(&peer, &machine_.nic(0));
  kernel_.CreateEnv(kInvalidEnv, {Capability::Root()}, [&] {
    auto fid = kernel_.SysFilterInstall(prog.program, 0);
    ASSERT_TRUE(fid.ok());
    peer.Transmit({.bytes = FrameForPort(80)});
    peer.Transmit({.bytes = FrameForPort(80)});
    WakeupPredicate p;
    p.host = [&, fid] { return kernel_.Filter(*fid)->delivered >= 2; };
    kernel_.SysSleep(std::move(p));
    EXPECT_TRUE(kernel_.SysRingConsume(*fid, 0).ok());
    EXPECT_TRUE(kernel_.SysRingConsume(*fid, 0).ok());
  });
  kernel_.Run();
  EXPECT_EQ(machine_.counters().Get("xok.demux_misses"), 1u);
  EXPECT_EQ(machine_.counters().Get("xok.demux_hits"), 1u);
  EXPECT_EQ(kernel_.flow_cache_size(), 1u);
}

TEST_F(XokTest, DemuxFlowCacheInvalidatedOnInstallAndRemove) {
  auto p80 = CacheablePortFilter(80);
  auto p81 = CacheablePortFilter(81);
  ASSERT_TRUE(p80.ok && p81.ok);
  hw::Nic peer(99);
  hw::Link link(&engine_, 100.0, 10.0, 200);
  link.Connect(&peer, &machine_.nic(0));
  kernel_.CreateEnv(kInvalidEnv, {Capability::Root()}, [&] {
    auto fid = kernel_.SysFilterInstall(p80.program, 0);
    ASSERT_TRUE(fid.ok());
    peer.Transmit({.bytes = FrameForPort(80)});
    WakeupPredicate p;
    p.host = [&, fid] { return kernel_.Filter(*fid)->delivered >= 1; };
    kernel_.SysSleep(std::move(p));
    EXPECT_EQ(kernel_.flow_cache_size(), 1u);
    // Any filter-set mutation drops every memoized verdict: a new filter could
    // legitimately claim a flow an old entry would have short-circuited past.
    auto fid2 = kernel_.SysFilterInstall(p81.program, 0);
    ASSERT_TRUE(fid2.ok());
    EXPECT_EQ(kernel_.flow_cache_size(), 0u);
    // Re-learn the flow, then remove the claiming filter: cache drops again.
    peer.Transmit({.bytes = FrameForPort(80)});
    WakeupPredicate p2;
    p2.host = [&, fid] { return kernel_.Filter(*fid)->delivered >= 2; };
    kernel_.SysSleep(std::move(p2));
    EXPECT_EQ(kernel_.flow_cache_size(), 1u);
    EXPECT_EQ(kernel_.SysFilterRemove(*fid, 0), Status::kOk);
    EXPECT_EQ(kernel_.flow_cache_size(), 0u);
  });
  kernel_.Run();
  EXPECT_EQ(kernel_.flow_cache_size(), 0u);
}

TEST_F(XokTest, DemuxFlowCacheInvalidatedOnEnvTeardown) {
  auto prog = CacheablePortFilter(80);
  ASSERT_TRUE(prog.ok);
  hw::Nic peer(99);
  hw::Link link(&engine_, 100.0, 10.0, 200);
  link.Connect(&peer, &machine_.nic(0));
  EnvId id = kernel_.CreateEnv(kInvalidEnv, {Capability::Root()}, [&] {
    auto fid = kernel_.SysFilterInstall(prog.program, 0);
    ASSERT_TRUE(fid.ok());
    peer.Transmit({.bytes = FrameForPort(80)});
    WakeupPredicate p;
    p.host = [&, fid] { return kernel_.Filter(*fid)->delivered >= 1; };
    kernel_.SysSleep(std::move(p));
    EXPECT_EQ(kernel_.flow_cache_size(), 1u);
    // Env exits here; ReapEnv tears down its filters and must drop the cache.
  });
  kernel_.Run();
  EXPECT_EQ(kernel_.flow_cache_size(), 1u);  // zombie still owns its filter
  EXPECT_EQ(kernel_.ReapEnv(id), Status::kOk);
  EXPECT_EQ(kernel_.flow_cache_size(), 0u);
  EXPECT_TRUE(kernel_.CheckInvariants().empty()) << kernel_.CheckInvariants();
}

TEST_F(XokTest, DemuxNonCacheableProgramIsNeverMemoized) {
  // `len` consults frame length, which lives outside the 16-byte flow key —
  // two frames with identical prefixes could demux differently, so the kernel
  // must keep walking programs for this filter's flows.
  auto prog = udf::Assemble("len r1, meta\nldi r2, 16\nceq r3, r1, r2\nret r3\n");
  ASSERT_TRUE(prog.ok);
  hw::Nic peer(99);
  hw::Link link(&engine_, 100.0, 10.0, 200);
  link.Connect(&peer, &machine_.nic(0));
  kernel_.CreateEnv(kInvalidEnv, {Capability::Root()}, [&] {
    auto fid = kernel_.SysFilterInstall(prog.program, 0);
    ASSERT_TRUE(fid.ok());
    peer.Transmit({.bytes = FrameForPort(80)});
    peer.Transmit({.bytes = FrameForPort(80)});
    WakeupPredicate p;
    p.host = [&, fid] { return kernel_.Filter(*fid)->delivered >= 2; };
    kernel_.SysSleep(std::move(p));
  });
  kernel_.Run();
  EXPECT_EQ(kernel_.flow_cache_size(), 0u);
  EXPECT_EQ(machine_.counters().Get("xok.demux_hits"), 0u);
  EXPECT_EQ(machine_.counters().Get("xok.demux_misses"), 2u);
}

TEST_F(XokTest, DemuxNonCacheableEarlierFilterBlocksMemoization) {
  // Filter 1 (dispatched first) keys on frame length — outside the flow key —
  // and rejects; filter 2 is cacheable and claims. Memoizing flow->filter2
  // would be unsound: a longer frame with the same 16-byte prefix belongs to
  // filter 1, so the kernel must not cache past a non-cacheable program.
  auto len_prog = udf::Assemble("len r1, meta\nldi r2, 999\nceq r3, r1, r2\nret r3\n");
  auto port_prog = CacheablePortFilter(80);
  ASSERT_TRUE(len_prog.ok && port_prog.ok);
  hw::Nic peer(99);
  hw::Link link(&engine_, 100.0, 10.0, 200);
  link.Connect(&peer, &machine_.nic(0));
  kernel_.CreateEnv(kInvalidEnv, {Capability::Root()}, [&] {
    auto f1 = kernel_.SysFilterInstall(len_prog.program, 0);
    auto f2 = kernel_.SysFilterInstall(port_prog.program, 0);
    ASSERT_TRUE(f1.ok() && f2.ok());
    peer.Transmit({.bytes = FrameForPort(80)});
    peer.Transmit({.bytes = FrameForPort(80)});
    WakeupPredicate p;
    p.host = [&, f2] { return kernel_.Filter(*f2)->delivered >= 2; };
    kernel_.SysSleep(std::move(p));
  });
  kernel_.Run();
  EXPECT_EQ(kernel_.flow_cache_size(), 0u);
  EXPECT_EQ(machine_.counters().Get("xok.demux_hits"), 0u);
  EXPECT_EQ(machine_.counters().Get("xok.demux_misses"), 2u);
}

TEST_F(XokTest, DemuxCacheOffCountsNothingAndStillDelivers) {
  auto prog = CacheablePortFilter(80);
  ASSERT_TRUE(prog.ok);
  kernel_.SetDemuxCache(false);
  hw::Nic peer(99);
  hw::Link link(&engine_, 100.0, 10.0, 200);
  link.Connect(&peer, &machine_.nic(0));
  kernel_.CreateEnv(kInvalidEnv, {Capability::Root()}, [&] {
    auto fid = kernel_.SysFilterInstall(prog.program, 0);
    ASSERT_TRUE(fid.ok());
    peer.Transmit({.bytes = FrameForPort(80)});
    peer.Transmit({.bytes = FrameForPort(80)});
    WakeupPredicate p;
    p.host = [&, fid] { return kernel_.Filter(*fid)->delivered >= 2; };
    kernel_.SysSleep(std::move(p));
  });
  kernel_.Run();
  EXPECT_EQ(kernel_.flow_cache_size(), 0u);
  EXPECT_EQ(machine_.counters().Get("xok.demux_hits"), 0u);
  EXPECT_EQ(machine_.counters().Get("xok.demux_misses"), 0u);
}

TEST_F(XokTest, FilterInstallRejectsNondeterministicProgram) {
  auto prog = udf::Assemble("time r1\nret r1\n");
  ASSERT_TRUE(prog.ok);
  kernel_.CreateEnv(kInvalidEnv, {Capability::Root()}, [&] {
    EXPECT_EQ(kernel_.SysFilterInstall(prog.program, 0).status(), Status::kVerifierReject);
  });
  kernel_.Run();
}

TEST_F(XokTest, SysNullCountsSyscalls) {
  kernel_.CreateEnv(kInvalidEnv, {Capability::Root()}, [&] { kernel_.SysNull(3); });
  uint64_t before = machine_.counters().Get("xok.syscalls");  // env_alloc already counted
  kernel_.Run();
  EXPECT_EQ(machine_.counters().Get("xok.syscalls") - before, 3u);
}

TEST_F(XokTest, ExposedStructuresReadableWithoutSyscalls) {
  kernel_.CreateEnv(kInvalidEnv, {Capability::Root()}, [&] {
    uint64_t before = machine_.counters().Get("xok.syscalls");
    (void)kernel_.FreeFrameCount();
    (void)kernel_.Now();
    (void)kernel_.env(kernel_.current_id()).pt.entries();
    EXPECT_EQ(machine_.counters().Get("xok.syscalls"), before);
  });
  kernel_.Run();
}

TEST_F(XokTest, FramesSurviveEnvExitWhenShared) {
  hw::FrameId shared = hw::kInvalidFrame;
  EnvId child = kInvalidEnv;
  kernel_.CreateEnv(kInvalidEnv, {Capability::Root()}, [&] {
    child = kernel_.CreateEnv(kernel_.current_id(), {Capability::Root()}, [&] {
      auto f = kernel_.SysFrameAlloc(0, {});
      ASSERT_TRUE(f.ok());
      shared = *f;
      machine_.mem().Data(shared)[0] = 0x99;
      // A second reference, as the buffer-cache registry would take.
      ASSERT_EQ(kernel_.SysFrameRef(shared, 0), Status::kOk);
    });
    EXPECT_TRUE(kernel_.SysWait(child).ok());
    // Child is gone but the frame (refcount 1 via the registry-style ref) survives.
    EXPECT_TRUE(machine_.mem().allocated(shared));
    EXPECT_EQ(machine_.mem().Data(shared)[0], 0x99);
  });
  kernel_.Run();
}

// ---- Quotas, revocation, and the abort protocol ----

TEST(CapabilityTest, EdgeCases) {
  // A zero-length capability name is a prefix of everything (root-like).
  Capability empty = Capability{CapName{}, true};
  EXPECT_TRUE(Dominates(empty, {}, true));
  EXPECT_TRUE(Dominates(empty, {1, 2, 3}, true));
  // A zero-length guard is reachable only through a zero-length capability name.
  Capability one = Capability::For({1});
  EXPECT_FALSE(Dominates(one, {}, true));
  // Self-dominance: a name dominates exactly itself.
  EXPECT_TRUE(Dominates(one, {1}, true));
  EXPECT_TRUE(Dominates(one, {1}, false));
  // Write-bit downgrade survives prefix extension: a read-only root-like
  // capability reads everything and writes nothing.
  Capability ro = Capability{CapName{}, /*write=*/false};
  EXPECT_TRUE(Dominates(ro, {5, 6}, false));
  EXPECT_FALSE(Dominates(ro, {5, 6}, true));
}

TEST_F(XokTest, QuotaCapsAllocationsAndLockedSelfRaiseDenied) {
  Status third = Status::kOk;
  Status raise = Status::kOk;
  bool refree_ok = false;
  EnvId id = kernel_.CreateEnv(kInvalidEnv, {Capability::For({kCapUsers, 1})}, [&] {
    auto a = kernel_.SysFrameAlloc(0, {kCapUsers, 1, 1});
    auto b = kernel_.SysFrameAlloc(0, {kCapUsers, 1, 2});
    ASSERT_TRUE(a.ok());
    ASSERT_TRUE(b.ok());
    third = kernel_.SysFrameAlloc(0, {kCapUsers, 1, 3}).status();
    ResourceQuota lift;  // default-unlimited
    raise = kernel_.SysSetQuota(kernel_.current_id(), lift, kCredAny);
    // Freeing restores headroom under the same quota.
    ASSERT_EQ(kernel_.SysFrameFree(*a, 0), Status::kOk);
    refree_ok = kernel_.SysFrameAlloc(0, {kCapUsers, 1, 4}).ok();
  });
  ResourceQuota q;
  q.frames = 2;
  q.locked = true;
  ASSERT_EQ(kernel_.SysSetQuota(id, q, kCredAny), Status::kOk);  // host: always allowed
  kernel_.Run();
  EXPECT_EQ(third, Status::kQuotaExceeded);
  EXPECT_EQ(raise, Status::kPermissionDenied);  // a limited env may not lift its own cap
  EXPECT_TRUE(refree_ok);
  EXPECT_EQ(kernel_.CheckInvariants(), "");
}

TEST_F(XokTest, IpcFloodBoundedByReceiverQuota) {
  int drained = 0;
  EnvId receiver = kernel_.CreateEnv(kInvalidEnv, {Capability::Root()}, [&] {
    while (drained < 4) {
      if (kernel_.SysIpcRecv().ok()) {
        ++drained;
      } else {
        kernel_.SysYield();
      }
    }
  });
  ResourceQuota q;
  q.ipc_depth = 4;
  ASSERT_EQ(kernel_.SysSetQuota(receiver, q, kCredAny), Status::kOk);
  int accepted = 0;
  int rejected = 0;
  kernel_.CreateEnv(kInvalidEnv, {Capability::Root()}, [&] {
    for (int i = 0; i < 10; ++i) {
      IpcMessage m;
      m.words[0] = static_cast<uint64_t>(i);
      Status s = kernel_.SysIpcSend(receiver, m, 0);
      if (s == Status::kOk) {
        ++accepted;
      } else {
        EXPECT_EQ(s, Status::kWouldBlock);  // bounded queue: flood hurts the sender
        ++rejected;
      }
    }
  });
  kernel_.Run();
  EXPECT_EQ(accepted + rejected, 10);
  EXPECT_GE(rejected, 2);  // receiver stops draining after 4: the tail must bounce
  EXPECT_EQ(machine_.counters().Get("xok.rejected"),
            static_cast<uint64_t>(rejected));
  EXPECT_EQ(drained, 4);
}

TEST_F(XokTest, RevocationUpcallShedsToAllowance) {
  bool done = false;
  uint32_t usage_after = 999;
  EnvId worker = kernel_.CreateEnv(
      kInvalidEnv, {Capability::For({kCapUsers, 3})}, [&] {
        for (uint16_t i = 0; i < 6; ++i) {
          ASSERT_TRUE(kernel_.SysFrameAlloc(0, {kCapUsers, 3, i}).ok());
        }
        WakeupPredicate p;
        p.host = [&] { return done; };
        kernel_.SysSleep(std::move(p));
      });
  // A cooperative libOS: the upcall sheds direct refs until within allowance.
  kernel_.env(worker).on_revoke = [this, worker](const RevocationRequest& req) {
    Env& self = kernel_.env(worker);
    while (self.usage.frames > req.allowed && !self.frame_refs.empty()) {
      if (kernel_.SysFrameFree(self.frame_refs.begin()->first, kCredAny) != Status::kOk) {
        break;
      }
    }
  };
  kernel_.CreateEnv(kInvalidEnv, {Capability::Root()}, [&] {
    EXPECT_EQ(kernel_.SysRevoke(worker, RevokeResource::kFrames, 2, 1'000'000, 0),
              Status::kOk);
    usage_after = kernel_.env(worker).usage.frames;  // shed synchronously by the upcall
    EXPECT_FALSE(kernel_.env(worker).pending_revoke.has_value());
    done = true;
  });
  kernel_.Run();
  EXPECT_EQ(usage_after, 2u);
  EXPECT_EQ(machine_.counters().Get("xok.revocations_complied"), 1u);
  EXPECT_EQ(machine_.counters().Get("xok.env_aborts"), 0u);
  EXPECT_EQ(kernel_.CheckInvariants(), "");
}

TEST_F(XokTest, IgnoredRevocationAbortsAndReclaimsEverything) {
  const uint32_t free_before = kernel_.FreeFrameCount();
  EnvId hog = kernel_.CreateEnv(kInvalidEnv, {Capability::For({kCapUsers, 4})}, [&] {
    for (int i = 0; i < 6; ++i) {
      // Empty guard: no credential here dominates it, so only abort can reclaim.
      ASSERT_TRUE(kernel_.SysFrameAlloc(0, {}).ok());
    }
    for (;;) {
      kernel_.ChargeCpu(5'000);  // ignores the request forever
    }
  });
  kernel_.CreateEnv(kInvalidEnv, {Capability::Root()}, [&] {
    EXPECT_EQ(kernel_.SysRevoke(hog, RevokeResource::kFrames, 1, 100'000, 0),
              Status::kOk);
  });
  kernel_.Run();  // must terminate: the kernel repossesses by aborting the hog
  ASSERT_TRUE(kernel_.EnvExists(hog));
  EXPECT_EQ(kernel_.env(hog).state, EnvState::kZombie);
  EXPECT_STREQ(kernel_.env(hog).abort_reason, "revocation deadline passed");
  EXPECT_EQ(machine_.counters().Get("xok.env_aborts"), 1u);
  EXPECT_EQ(kernel_.FreeFrameCount(), free_before);  // abort reclaimed all six frames
  EXPECT_EQ(kernel_.ReapEnv(hog), Status::kOk);
  EXPECT_EQ(kernel_.CheckInvariants(), "");
}

TEST_F(XokTest, OrphanedChildAutoReapedLeakFree) {
  const uint32_t free_before = kernel_.FreeFrameCount();
  EnvId child = kInvalidEnv;
  kernel_.CreateEnv(kInvalidEnv, {Capability::Root()}, [&] {
    child = kernel_.CreateEnv(kernel_.current_id(), {Capability::Root()}, [&] {
      auto f = kernel_.SysFrameAlloc(0, {});
      ASSERT_TRUE(f.ok());
      kernel_.ChargeCpu(50'000);  // outlive the parent
      EXPECT_EQ(kernel_.SysFrameFree(*f, 0), Status::kOk);
    });
    // Parent exits immediately: the child becomes an orphan with no reaper.
  });
  kernel_.Run();
  EXPECT_FALSE(kernel_.EnvExists(child));  // auto-reaped; nobody needed to wait()
  EXPECT_GE(machine_.counters().Get("xok.orphans_reaped"), 1u);
  EXPECT_EQ(kernel_.FreeFrameCount(), free_before);
  EXPECT_EQ(kernel_.CheckInvariants(), "");
}

// ---- Syscall-surface hardening ----

TEST_F(XokTest, FreeingMappedOnlyFrameRefusedNotStolen) {
  kernel_.CreateEnv(kInvalidEnv, {Capability::Root()}, [&] {
    EnvId self = kernel_.current_id();
    auto f = kernel_.SysFrameAlloc(0, {});
    ASSERT_TRUE(f.ok());
    PtOp op;
    op.kind = PtOp::Kind::kInsert;
    op.vpage = 5;
    op.pte = {.frame = *f, .readable = true, .writable = true, .software_bits = 0};
    ASSERT_EQ(kernel_.SysPtUpdate(self, op, 0), Status::kOk);
    ASSERT_EQ(kernel_.SysFrameFree(*f, 0), Status::kOk);  // drops the direct ref
    EXPECT_TRUE(machine_.mem().allocated(*f));             // the mapping still holds it
    // The only remaining reference belongs to the mapping; freeing again must
    // refuse rather than steal it out from under the page table (refcount
    // underflow found by the syscall fuzzer).
    EXPECT_EQ(kernel_.SysFrameFree(*f, 0), Status::kBusy);
    EXPECT_EQ(kernel_.CheckInvariants(), "");
    PtOp rm;
    rm.kind = PtOp::Kind::kRemove;
    rm.vpage = 5;
    ASSERT_EQ(kernel_.SysPtUpdate(self, rm, 0), Status::kOk);
    EXPECT_FALSE(machine_.mem().allocated(*f));  // unmapping released the last ref
    EXPECT_EQ(kernel_.SysFrameFree(*f, 0), Status::kNotFound);  // guard retired with it
  });
  kernel_.Run();
}

TEST_F(XokTest, RemappingSameFrameKeepsItAlive) {
  kernel_.CreateEnv(kInvalidEnv, {Capability::Root()}, [&] {
    EnvId self = kernel_.current_id();
    auto f = kernel_.SysFrameAlloc(0, {});
    ASSERT_TRUE(f.ok());
    PtOp op;
    op.kind = PtOp::Kind::kInsert;
    op.vpage = 7;
    op.pte = {.frame = *f, .readable = true, .writable = false, .software_bits = 0};
    ASSERT_EQ(kernel_.SysPtUpdate(self, op, 0), Status::kOk);
    // Flip protection by re-inserting the same frame at the same vpage: the swap
    // must take the new reference before dropping the old one.
    op.pte.writable = true;
    ASSERT_EQ(kernel_.SysPtUpdate(self, op, 0), Status::kOk);
    EXPECT_TRUE(machine_.mem().allocated(*f));
    EXPECT_EQ(kernel_.CheckInvariants(), "");
    ASSERT_EQ(kernel_.SysFrameFree(*f, 0), Status::kOk);  // direct ref
    EXPECT_TRUE(machine_.mem().allocated(*f));  // exactly one mapping ref remains
    PtOp rm;
    rm.kind = PtOp::Kind::kRemove;
    rm.vpage = 7;
    ASSERT_EQ(kernel_.SysPtUpdate(self, rm, 0), Status::kOk);
    EXPECT_FALSE(machine_.mem().allocated(*f));
  });
  kernel_.Run();
}

TEST_F(XokTest, MalformedArgumentsRejectedNotFatal) {
  kernel_.CreateEnv(kInvalidEnv, {Capability::Root()}, [&] {
    // Frame ids beyond physical memory.
    EXPECT_EQ(kernel_.SysFrameFree(1u << 30, kCredAny), Status::kInvalidArgument);
    EXPECT_EQ(kernel_.SysFrameRef(1u << 30, kCredAny), Status::kInvalidArgument);
    // Oversized guard names.
    EXPECT_EQ(kernel_.SysFrameAlloc(0, CapName(kMaxGuardName + 1, 1)).status(),
              Status::kInvalidArgument);
    // Nonexistent environments.
    ResourceQuota q;
    EXPECT_EQ(kernel_.SysSetQuota(777'777, q, kCredAny), Status::kNotFound);
    EXPECT_EQ(kernel_.SysRevoke(777'777, RevokeResource::kFrames, 0, 1'000, kCredAny),
              Status::kNotFound);
    EXPECT_EQ(kernel_.SysIpcSend(777'777, IpcMessage{}, kCredAny), Status::kNotFound);
    std::vector<uint8_t> buf(4);
    EXPECT_EQ(kernel_.AccessUserMemory(777'777, 0, buf, /*write=*/false),
              Status::kNotFound);
    // Oversized filter programs.
    EXPECT_EQ(kernel_.SysFilterInstall(udf::Program(kMaxFilterProgramInsns + 1,
                                                    udf::Insn{}),
                                       kCredAny)
                  .status(),
              Status::kInvalidArgument);
    // Oversized or misdirected NIC transmits never reach the DMA engine.
    EXPECT_EQ(kernel_.SysNicTransmit(
                  0, {.bytes = std::vector<uint8_t>(hw::kMaxFrameBytes + 1, 0xee)}),
              Status::kInvalidArgument);
    EXPECT_EQ(kernel_.SysNicTransmit(500, {.bytes = {1, 2, 3}}),
              Status::kInvalidArgument);
    EXPECT_EQ(kernel_.CheckInvariants(), "");
  });
  kernel_.Run();
}

TEST_F(XokTest, OutOfRangeCredIndexRejected) {
  kernel_.CreateEnv(kInvalidEnv, {Capability::Root()}, [&] {
    auto f = kernel_.SysFrameAlloc(0, {kCapUsers, 9});
    ASSERT_TRUE(f.ok());
    EXPECT_EQ(kernel_.SysFrameFree(*f, 99), Status::kInvalidArgument);
    EXPECT_EQ(kernel_.SysFrameFree(*f, -7), Status::kInvalidArgument);
    EXPECT_EQ(kernel_.SysFrameFree(*f, kCredAny), Status::kOk);
  });
  kernel_.Run();
}

TEST_F(XokTest, UnverifiableSleepPredicateDegradesSafely) {
  auto bad = udf::Assemble("time r1\nret r1\n");  // nondeterministic: verifier rejects
  ASSERT_TRUE(bad.ok);
  bool woke = false;
  kernel_.CreateEnv(kInvalidEnv, {Capability::Root()}, [&] {
    WakeupPredicate p;
    p.deadline = 1'000'000'000;  // never reached if the degrade works
    p.program = bad.program;
    kernel_.SysSleep(std::move(p));
    woke = true;
  });
  kernel_.Run();
  EXPECT_TRUE(woke);  // degraded to an immediately-runnable sleep, not evaluated
  EXPECT_LT(kernel_.Now(), 1'000'000'000u);
}

// ---- Misbehavior watchdogs ----

TEST_F(XokTest, CriticalSectionUnderflowAbortsOnlyTheOffender) {
  bool other_ran = false;
  EnvId bad = kernel_.CreateEnv(kInvalidEnv, {Capability::Root()}, [&] {
    kernel_.ExitCritical();  // never entered; previously crashed the host
    ADD_FAILURE() << "abort must not return";
  });
  kernel_.CreateEnv(kInvalidEnv, {Capability::Root()}, [&] { other_ran = true; });
  kernel_.Run();
  ASSERT_TRUE(kernel_.EnvExists(bad));
  EXPECT_EQ(kernel_.env(bad).state, EnvState::kZombie);
  EXPECT_STREQ(kernel_.env(bad).abort_reason, "critical-section underflow");
  EXPECT_TRUE(other_ran);
}

TEST_F(XokTest, RunawayCriticalSectionRepossessed) {
  const sim::Cycles q = machine_.cost().quantum;
  bool other_ran = false;
  EnvId hog = kernel_.CreateEnv(kInvalidEnv, {Capability::Root()}, [&] {
    kernel_.EnterCritical();
    for (;;) {
      kernel_.ChargeCpu(q);  // defers every slice end, forever
    }
  });
  kernel_.CreateEnv(kInvalidEnv, {Capability::Root()}, [&] { other_ran = true; });
  kernel_.Run();
  EXPECT_STREQ(kernel_.env(hog).abort_reason, "runaway critical section");
  EXPECT_TRUE(other_ran);  // the CPU came back
}

TEST_F(XokTest, CriticalDepthOverflowAborts) {
  EnvId bad = kernel_.CreateEnv(kInvalidEnv, {Capability::Root()}, [&] {
    for (;;) {
      kernel_.EnterCritical();  // never exits: unbounded nesting
    }
  });
  kernel_.Run();
  EXPECT_STREQ(kernel_.env(bad).abort_reason, "critical-section depth overflow");
}

TEST_F(XokTest, DeadlockDiagnosedInsteadOfHanging) {
  kernel_.SetDeadlockBound(1'000'000);
  EnvId stuck = kernel_.CreateEnv(kInvalidEnv, {Capability::Root()}, [&] {
    WakeupPredicate p;
    p.host = [] { return false; };  // can never become true
    kernel_.SysSleep(std::move(p));
  });
  kernel_.Run();  // must return with a diagnostic, not spin the host forever
  EXPECT_NE(kernel_.deadlock_report(), "");
  ASSERT_TRUE(kernel_.EnvExists(stuck));
  EXPECT_STREQ(kernel_.env(stuck).abort_reason,
               "deadlock: wakeup predicate can never become true");
  EXPECT_EQ(kernel_.CheckInvariants(), "");
}

// ---- Stride scheduling (proportional-share CPU isolation) ----

TEST_F(XokTest, StrideFairnessProportionalToTickets) {
  // Three CPU-bound envs with 3:2:1 tickets; each counts the quanta it
  // consumes until a common deadline. Stride guarantees the counts track the
  // ticket ratio to within one quantum over the run.
  const sim::Cycles q = machine_.cost().quantum;
  const sim::Cycles deadline = 60 * q;
  const uint32_t tickets[3] = {300, 200, 100};
  int counts[3] = {0, 0, 0};
  EnvId ids[3];
  for (int i = 0; i < 3; ++i) {
    ids[i] = kernel_.CreateEnv(kInvalidEnv, {Capability::Root()}, [&, i] {
      while (kernel_.Now() < deadline) {
        ++counts[i];
        kernel_.ChargeCpu(q);
      }
    });
    ResourceQuota quota;
    quota.cpu_tickets = tickets[i];
    ASSERT_EQ(kernel_.SysSetQuota(ids[i], quota, kCredAny), Status::kOk);
  }
  kernel_.Run();
  const double total = counts[0] + counts[1] + counts[2];
  ASSERT_GT(total, 30);
  EXPECT_NEAR(counts[0], total * 3 / 6, 1.0) << counts[0] << ":" << counts[1] << ":" << counts[2];
  EXPECT_NEAR(counts[1], total * 2 / 6, 1.0) << counts[0] << ":" << counts[1] << ":" << counts[2];
  EXPECT_NEAR(counts[2], total * 1 / 6, 1.0) << counts[0] << ":" << counts[1] << ":" << counts[2];
  EXPECT_GT(machine_.counters().Get("sched.stride_picks"), 0u);
  EXPECT_EQ(kernel_.CheckInvariants(), "");
}

TEST_F(XokTest, StrideScheduleIsDeterministic) {
  // The same workload on two fresh machines produces the identical slice-by-
  // slice schedule: stride has no randomness, and ties break on a counter.
  auto run_once = [](std::vector<int>* order) {
    sim::Engine engine;
    hw::Machine machine(&engine, hw::MachineConfig{.mem_frames = 256});
    XokKernel kernel(&machine);
    const sim::Cycles q = machine.cost().quantum;
    const sim::Cycles deadline = 40 * q;
    const uint32_t tickets[3] = {500, 200, 100};
    for (int i = 0; i < 3; ++i) {
      EnvId id = kernel.CreateEnv(kInvalidEnv, {Capability::Root()}, [&kernel, order, i, q, deadline] {
        while (kernel.Now() < deadline) {
          order->push_back(i);
          kernel.ChargeCpu(q);
        }
      });
      ResourceQuota quota;
      quota.cpu_tickets = tickets[i];
      ASSERT_EQ(kernel.SysSetQuota(id, quota, kCredAny), Status::kOk);
    }
    kernel.Run();
  };
  std::vector<int> first, second;
  run_once(&first);
  run_once(&second);
  ASSERT_FALSE(first.empty());
  EXPECT_EQ(first, second);
}

TEST_F(XokTest, ZeroTicketEnvStillProgressesViaFloor) {
  // Tickets of zero mean best-effort, not starvation: the one-ticket floor
  // still schedules the env, just rarely.
  const sim::Cycles q = machine_.cost().quantum;
  const sim::Cycles deadline = 150 * q;
  int hog_count = 0, idle_count = 0;
  kernel_.CreateEnv(kInvalidEnv, {Capability::Root()}, [&] {
    while (kernel_.Now() < deadline) {
      ++hog_count;
      kernel_.ChargeCpu(q);
    }
  });
  EnvId idle = kernel_.CreateEnv(kInvalidEnv, {Capability::Root()}, [&] {
    while (kernel_.Now() < deadline) {
      ++idle_count;
      kernel_.ChargeCpu(q);
    }
  });
  ResourceQuota zero;
  zero.cpu_tickets = 0;
  ASSERT_EQ(kernel_.SysSetQuota(idle, zero, kCredAny), Status::kOk);
  kernel_.Run();
  EXPECT_GE(idle_count, 1);                // progress despite zero tickets
  EXPECT_GT(hog_count, idle_count * 20);   // but nowhere near a fair share
  EXPECT_EQ(kernel_.CheckInvariants(), "");
}

TEST_F(XokTest, SysSetQuotaAdjustsTicketsLive) {
  // A supervisor env re-weights a sibling mid-run; the new ratio applies from
  // the next deschedule without any scheduler reset.
  const sim::Cycles q = machine_.cost().quantum;
  const sim::Cycles deadline = 60 * q;
  int counts[2] = {0, 0};
  EnvId worker = kInvalidEnv;
  kernel_.CreateEnv(kInvalidEnv, {Capability::Root()}, [&] {
    for (int i = 0; kernel_.Now() < deadline; ++i) {
      if (i == 5) {
        ResourceQuota boost;
        boost.cpu_tickets = 900;
        ASSERT_EQ(kernel_.SysSetQuota(worker, boost, 0), Status::kOk);
      }
      ++counts[0];
      kernel_.ChargeCpu(q);
    }
  });
  worker = kernel_.CreateEnv(kInvalidEnv, {Capability::Root()}, [&] {
    while (kernel_.Now() < deadline) {
      ++counts[1];
      kernel_.ChargeCpu(q);
    }
  });
  kernel_.Run();
  // 9:1 tickets from slice ~10 onwards: the worker ends far ahead.
  EXPECT_GT(counts[1], counts[0] * 3) << counts[0] << " vs " << counts[1];
  EXPECT_EQ(kernel_.CheckInvariants(), "");
}

// ---- Pressure-driven revocation ----

TEST_F(XokTest, PressureRevokesOverShareTenantThatSheds) {
  // A frame hog pushes the free list below the low watermark; the monitor
  // picks the env most over its tickets-proportional share, asks it to shed,
  // and the hog's compliant handler frees frames until pressure clears.
  MemoryPressurePolicy policy;
  policy.low_frames = 120;
  policy.high_frames = 160;
  policy.grace = 10 * machine_.cost().quantum;  // roomy: we want the shed path
  kernel_.SetMemoryPressurePolicy(policy);
  const sim::Cycles q = machine_.cost().quantum;
  std::vector<hw::FrameId> held;
  uint32_t shed_allowed = UINT32_MAX;
  EnvId hog = kernel_.CreateEnv(kInvalidEnv, {Capability::Root()}, [&] {
    for (int i = 0; i < 150; ++i) {  // 256-frame machine: free dips to ~106
      auto f = kernel_.SysFrameAlloc(0, CapName{kCapUsers, 1});
      ASSERT_TRUE(f.ok());
      held.push_back(*f);
    }
    for (int s = 0; s < 6; ++s) {
      kernel_.ChargeCpu(q);  // give the monitor host passes to act
    }
    for (hw::FrameId f : held) {
      EXPECT_EQ(kernel_.SysFrameFree(f, 0), Status::kOk);
    }
    held.clear();
  });
  kernel_.env(hog).on_revoke = [&](const RevocationRequest& req) {
    shed_allowed = req.allowed;
    EXPECT_TRUE(req.from_pressure);
    while (kernel_.env(hog).usage.frames > req.allowed && !held.empty()) {
      EXPECT_EQ(kernel_.SysFrameFree(held.back(), 0), Status::kOk);
      held.pop_back();
    }
  };
  int victim_slices = 0;
  kernel_.CreateEnv(kInvalidEnv, {Capability::Root()}, [&] {
    for (int s = 0; s < 6; ++s) {
      ++victim_slices;
      kernel_.ChargeCpu(q);
    }
  });
  kernel_.Run();
  EXPECT_GE(machine_.counters().Get("xok.pressure_revokes"), 1u);
  EXPECT_EQ(machine_.counters().Get("xok.pressure_aborts"), 0u);
  EXPECT_EQ(machine_.counters().Get("xok.env_aborts"), 0u);
  // The request never asked the hog to go below its fair share (128 frames
  // split over two equal-ticket envs).
  EXPECT_GE(shed_allowed, 128u);
  EXPECT_LT(shed_allowed, 150u);
  EXPECT_EQ(victim_slices, 6);
  EXPECT_EQ(kernel_.CheckInvariants(), "");
}

TEST_F(XokTest, PressureEscalatesToAbortWhenIgnored) {
  // Same squeeze, but the hog has no revocation handler and keeps running:
  // past the grace deadline the kernel repossesses by abort, and the abort is
  // attributed to pressure in both the counter and the reason string.
  MemoryPressurePolicy policy;
  policy.low_frames = 120;
  policy.high_frames = 160;
  policy.grace = machine_.cost().quantum / 2;
  kernel_.SetMemoryPressurePolicy(policy);
  const sim::Cycles q = machine_.cost().quantum;
  EnvId hog = kernel_.CreateEnv(kInvalidEnv, {Capability::Root()}, [&] {
    for (int i = 0; i < 150; ++i) {
      auto f = kernel_.SysFrameAlloc(0, CapName{kCapUsers, 1});
      ASSERT_TRUE(f.ok());
    }
    for (;;) {
      kernel_.ChargeCpu(q);  // ignores the revocation forever
    }
  });
  bool victim_finished = false;
  kernel_.CreateEnv(kInvalidEnv, {Capability::Root()}, [&] {
    for (int s = 0; s < 8; ++s) {
      kernel_.ChargeCpu(q);
    }
    victim_finished = true;
  });
  kernel_.Run();
  EXPECT_GE(machine_.counters().Get("xok.pressure_revokes"), 1u);
  EXPECT_EQ(machine_.counters().Get("xok.pressure_aborts"), 1u);
  ASSERT_TRUE(kernel_.EnvExists(hog));
  EXPECT_STREQ(kernel_.env(hog).abort_reason, "revocation deadline passed (memory pressure)");
  EXPECT_TRUE(victim_finished);
  // The abort returned the hoard: the free list recovered past the high mark.
  EXPECT_GE(kernel_.FreeFrameCount(), policy.high_frames);
  EXPECT_EQ(kernel_.CheckInvariants(), "");
}

}  // namespace
}  // namespace exo::xok
