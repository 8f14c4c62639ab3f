// Unit tests for the hardware substrate: physical memory, disk model, NIC/link model.
#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <cstring>
#include <fstream>
#include <numeric>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "hw/disk.h"
#include "hw/machine.h"
#include "hw/nic.h"
#include "hw/phys_mem.h"

namespace exo::hw {
namespace {

TEST(PhysMemTest, AllocatesDistinctFrames) {
  PhysMem mem(8);
  auto a = mem.Alloc();
  auto b = mem.Alloc();
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_NE(*a, *b);
  EXPECT_EQ(mem.free_frames(), 6u);
}

TEST(PhysMemTest, ExhaustionReturnsOutOfResources) {
  PhysMem mem(2);
  EXPECT_TRUE(mem.Alloc().ok());
  EXPECT_TRUE(mem.Alloc().ok());
  EXPECT_EQ(mem.Alloc().status(), Status::kOutOfResources);
}

TEST(PhysMemTest, RefcountKeepsFrameAlive) {
  PhysMem mem(4);
  FrameId f = *mem.Alloc();
  mem.Ref(f);
  mem.Unref(f);
  EXPECT_TRUE(mem.allocated(f));
  mem.Unref(f);
  EXPECT_FALSE(mem.allocated(f));
  EXPECT_EQ(mem.free_frames(), 4u);
}

TEST(PhysMemTest, DataPersistsAndCopies) {
  PhysMem mem(4);
  FrameId a = *mem.Alloc();
  FrameId b = *mem.Alloc();
  std::memset(mem.Data(a).data(), 0xab, kPageSize);
  mem.CopyFrame(b, a);
  EXPECT_EQ(mem.Data(b)[0], 0xab);
  EXPECT_EQ(mem.Data(b)[kPageSize - 1], 0xab);
  mem.ZeroFrame(b);
  EXPECT_EQ(mem.Data(b)[0], 0);
}

class DiskTest : public ::testing::Test {
 protected:
  DiskTest() : mem_(64), disk_(&engine_, &mem_, DiskGeometry{}, 200) {}

  sim::Engine engine_;
  PhysMem mem_;
  Disk disk_;
};

TEST_F(DiskTest, WriteThenReadRoundTrips) {
  FrameId src = *mem_.Alloc();
  FrameId dst = *mem_.Alloc();
  std::memset(mem_.Data(src).data(), 0x5a, kPageSize);

  bool wrote = false;
  disk_.Submit({.write = true, .start = 100, .nblocks = 1, .frames = {src},
                .done = [&](Status s) { wrote = s == Status::kOk; }});
  engine_.RunUntilIdle();
  ASSERT_TRUE(wrote);

  bool read = false;
  disk_.Submit({.write = false, .start = 100, .nblocks = 1, .frames = {dst},
                .done = [&](Status s) { read = s == Status::kOk; }});
  engine_.RunUntilIdle();
  ASSERT_TRUE(read);
  EXPECT_EQ(mem_.Data(dst)[123], 0x5a);
}

TEST_F(DiskTest, SequentialIsFasterThanScattered) {
  // Charge time for 64 sequential blocks vs 64 blocks scattered across the disk.
  auto run = [&](bool sequential) {
    sim::Engine engine;
    PhysMem mem(64);
    Disk disk(&engine, &mem, DiskGeometry{}, 200);
    FrameId f = *mem.Alloc();
    int done = 0;
    for (uint32_t i = 0; i < 64; ++i) {
      BlockId b = sequential ? 1000 + i : (i * 251) % disk.geometry().num_blocks;
      disk.Submit({.write = false, .start = b, .nblocks = 1, .frames = {f},
                   .done = [&](Status) { ++done; }});
    }
    engine.RunUntilIdle();
    EXPECT_EQ(done, 64);
    return engine.now();
  };
  EXPECT_LT(run(true) * 4, run(false));
}

TEST_F(DiskTest, ContiguousRequestsMerge) {
  FrameId f1 = *mem_.Alloc();
  FrameId f2 = *mem_.Alloc();
  int completions = 0;
  disk_.Submit({.write = true, .start = 10, .nblocks = 1, .frames = {f1},
                .done = [&](Status) { ++completions; }});
  // Queue a second contiguous write while the first may still be pending.
  disk_.Submit({.write = true, .start = 500, .nblocks = 1, .frames = {f2},
                .done = [&](Status) { ++completions; }});
  disk_.Submit({.write = true, .start = 501, .nblocks = 1, .frames = {f1},
                .done = [&](Status) { ++completions; }});
  engine_.RunUntilIdle();
  EXPECT_EQ(completions, 3);
  EXPECT_GE(disk_.stats().merged_requests, 1u);
}

TEST_F(DiskTest, ScatterGatherFramesLandOnTheRightBlocks) {
  // One request, discontiguous frame list: block i DMAs from frames[i], and a
  // kInvalidFrame hole skips the transfer for that block only.
  std::vector<FrameId> frames;
  for (int i = 0; i < 3; ++i) {
    FrameId f = *mem_.Alloc();
    std::memset(mem_.Data(f).data(), 0x40 + i, kPageSize);
    frames.push_back(f);
  }
  // Reverse the frame order and punch a hole in the middle.
  std::vector<FrameId> gather = {frames[2], kInvalidFrame, frames[0]};
  disk_.Submit({.write = true, .start = 30, .nblocks = 3, .frames = gather, .done = {}});
  engine_.RunUntilIdle();
  EXPECT_EQ(disk_.RawBlock(30)[0], 0x42);
  EXPECT_EQ(disk_.RawBlock(31)[0], 0x00);  // hole: block untouched
  EXPECT_EQ(disk_.RawBlock(32)[0], 0x40);
}

TEST_F(DiskTest, MergePrefersEarliestQueuedCandidate) {
  // Two queued writes end at the same block (overlapping tails); a contiguous
  // follow-on must merge into the earliest-submitted one, matching the old
  // FIFO-scan semantics. Observable through completion grouping: the merged
  // pair completes atomically at one time.
  FrameId f = *mem_.Alloc();
  sim::Cycles done_at[4] = {0, 0, 0, 0};
  auto mark = [&](int i) { return [&done_at, &e = engine_, i](Status) { done_at[i] = e.now(); }; };
  // Occupy the disk so the rest queue up.
  disk_.Submit({.write = true, .start = 0, .nblocks = 1, .frames = {f}, .done = mark(0)});
  // A and B both end at block 101; A is queued first.
  disk_.Submit({.write = true, .start = 100, .nblocks = 1, .frames = {f}, .done = mark(1)});
  disk_.Submit({.write = true, .start = 99, .nblocks = 2, .frames = {f, f}, .done = mark(2)});
  // C starts where both end: must merge into A (earliest queued).
  disk_.Submit({.write = true, .start = 101, .nblocks = 1, .frames = {f}, .done = mark(3)});
  engine_.RunUntilIdle();
  EXPECT_GE(disk_.stats().merged_requests, 1u);
  EXPECT_EQ(done_at[1], done_at[3]);  // C rode along with A
  EXPECT_NE(done_at[2], done_at[3]);  // and not with B
}

TEST_F(DiskTest, DispatchFollowsCLookOrder) {
  // Queued requests dispatch in ascending-start order from the head position,
  // wrapping once past the end (C-LOOK), regardless of submission order.
  FrameId f = *mem_.Alloc();
  std::vector<BlockId> completion_order;
  auto mark = [&](BlockId b) { return [&completion_order, b](Status) { completion_order.push_back(b); }; };
  disk_.Submit({.write = false, .start = 500, .nblocks = 1, .frames = {f}, .done = mark(500)});
  // Queued while the disk is busy, in deliberately shuffled order.
  for (BlockId b : {900u, 100u, 700u, 300u}) {
    disk_.Submit({.write = false, .start = b, .nblocks = 1, .frames = {f}, .done = mark(b)});
  }
  engine_.RunUntilIdle();
  // After 500 the head sits on cylinder 1 (blocks 256..511), so the ascending
  // sweep picks 300, 700, 900; 100 is behind the head and waits for the wrap.
  EXPECT_EQ(completion_order, (std::vector<BlockId>{500, 300, 700, 900, 100}));
}

TEST_F(DiskTest, MultiBlockTransfer) {
  std::vector<FrameId> frames;
  for (int i = 0; i < 4; ++i) {
    FrameId f = *mem_.Alloc();
    std::memset(mem_.Data(f).data(), 0x10 + i, kPageSize);
    frames.push_back(f);
  }
  disk_.Submit({.write = true, .start = 20, .nblocks = 4, .frames = frames, .done = {}});
  engine_.RunUntilIdle();
  EXPECT_EQ(disk_.RawBlock(20)[0], 0x10);
  EXPECT_EQ(disk_.RawBlock(23)[0], 0x13);
  EXPECT_EQ(disk_.stats().blocks_written, 4u);
}

TEST_F(DiskTest, StatsCountSeeks) {
  FrameId f = *mem_.Alloc();
  disk_.Submit({.write = false, .start = 0, .nblocks = 1, .frames = {f}, .done = {}});
  engine_.RunUntilIdle();
  disk_.Submit({.write = false, .start = 15000, .nblocks = 1, .frames = {f}, .done = {}});
  engine_.RunUntilIdle();
  EXPECT_GE(disk_.stats().seeks, 1u);
  EXPECT_EQ(disk_.stats().requests, 2u);
}

TEST_F(DiskTest, OutOfRangeSubmitCompletesWithInvalidArgument) {
  FrameId f = *mem_.Alloc();
  Status got = Status::kOk;
  // One block past the end of the disk.
  disk_.Submit({.write = false,
                .start = disk_.geometry().num_blocks,
                .nblocks = 1,
                .frames = {f},
                .done = [&](Status s) { got = s; }});
  EXPECT_EQ(got, Status::kOk);  // completion is asynchronous
  engine_.RunUntilIdle();
  EXPECT_EQ(got, Status::kInvalidArgument);

  // A run that starts in range but extends past the end, a zero-length request, and
  // a frame-count mismatch are all rejected the same way.
  got = Status::kOk;
  disk_.Submit({.write = true,
                .start = disk_.geometry().num_blocks - 1,
                .nblocks = 2,
                .frames = {f, f},
                .done = [&](Status s) { got = s; }});
  engine_.RunUntilIdle();
  EXPECT_EQ(got, Status::kInvalidArgument);

  got = Status::kOk;
  disk_.Submit({.write = true, .start = 5, .nblocks = 0, .frames = {},
                .done = [&](Status s) { got = s; }});
  engine_.RunUntilIdle();
  EXPECT_EQ(got, Status::kInvalidArgument);

  got = Status::kOk;
  disk_.Submit({.write = true, .start = 5, .nblocks = 2, .frames = {f},
                .done = [&](Status s) { got = s; }});
  engine_.RunUntilIdle();
  EXPECT_EQ(got, Status::kInvalidArgument);

  EXPECT_EQ(disk_.stats().rejected_requests, 4u);
  EXPECT_EQ(disk_.stats().requests, 0u);  // none reached the media
}

TEST_F(DiskTest, InjectedErrorSurfacesAndRetrySucceeds) {
  sim::FaultInjector faults({.seed = 7, .disk_error_rate = 1.0});
  disk_.SetFaultInjector(&faults);
  FrameId f = *mem_.Alloc();
  std::memset(mem_.Data(f).data(), 0x77, kPageSize);

  Status got = Status::kOk;
  disk_.Submit({.write = true, .start = 40, .nblocks = 1, .frames = {f},
                .done = [&](Status s) { got = s; }});
  engine_.RunUntilIdle();
  EXPECT_EQ(got, Status::kIoError);
  EXPECT_EQ(disk_.stats().io_errors, 1u);
  EXPECT_NE(disk_.RawBlock(40)[0], 0x77);  // the media was never touched

  // Disarm (a 0-rate plan would redraw forever at rate 1.0) and retry.
  disk_.SetFaultInjector(nullptr);
  disk_.Submit({.write = true, .start = 40, .nblocks = 1, .frames = {f},
                .done = [&](Status s) { got = s; }});
  engine_.RunUntilIdle();
  EXPECT_EQ(got, Status::kOk);
  EXPECT_EQ(disk_.RawBlock(40)[0], 0x77);
}

TEST_F(DiskTest, PowerCutTearsMultiBlockWrite) {
  // Cut power after the 6th durable block write: a 4-block request completes, then
  // a second 4-block request is torn after its 2nd block.
  sim::FaultInjector faults({.seed = 1, .power_cut_after_blocks = 6});
  disk_.SetFaultInjector(&faults);

  std::vector<FrameId> frames;
  for (int i = 0; i < 4; ++i) {
    FrameId f = *mem_.Alloc();
    std::memset(mem_.Data(f).data(), 0xa0 + i, kPageSize);
    frames.push_back(f);
  }
  int completions = 0;
  disk_.Submit({.write = true, .start = 100, .nblocks = 4, .frames = frames,
                .done = [&](Status) { ++completions; }});
  engine_.RunUntilIdle();
  EXPECT_EQ(completions, 1);

  disk_.Submit({.write = true, .start = 200, .nblocks = 4, .frames = frames,
                .done = [&](Status) { ++completions; }});
  engine_.RunUntilIdle();

  // The torn request never completed; power is off; exactly 2 of its blocks landed.
  EXPECT_EQ(completions, 1);
  EXPECT_TRUE(disk_.powered_off());
  EXPECT_EQ(disk_.stats().blocks_written, 6u);
  EXPECT_EQ(disk_.stats().torn_blocks, 2u);
  EXPECT_EQ(disk_.RawBlock(200)[0], 0xa0);
  EXPECT_EQ(disk_.RawBlock(201)[0], 0xa1);
  EXPECT_EQ(disk_.RawBlock(202)[0], 0x00);  // never written
  EXPECT_EQ(disk_.RawBlock(203)[0], 0x00);

  // While dead, submissions vanish without completions.
  disk_.Submit({.write = true, .start = 300, .nblocks = 1, .frames = {frames[0]},
                .done = [&](Status) { ++completions; }});
  engine_.RunUntilIdle();
  EXPECT_EQ(completions, 1);

  // After restore the store contents survive and the disk works again.
  disk_.PowerRestore();
  disk_.SetFaultInjector(nullptr);
  EXPECT_EQ(disk_.RawBlock(201)[0], 0xa1);
  bool ok = false;
  disk_.Submit({.write = false, .start = 201, .nblocks = 1, .frames = {frames[0]},
                .done = [&](Status s) { ok = s == Status::kOk; }});
  engine_.RunUntilIdle();
  EXPECT_TRUE(ok);
}

// ---- Integrity sidecar and silent media faults ----

TEST(Crc32Test, StableAndSensitive) {
  std::vector<uint8_t> bytes(4096, 0x5a);
  const uint32_t a = Crc32(bytes);
  EXPECT_EQ(Crc32(bytes), a);  // deterministic
  bytes[100] ^= 0x01;
  EXPECT_NE(Crc32(bytes), a);  // one-bit sensitivity
  EXPECT_NE(Crc32({}), a);
}

TEST_F(DiskTest, IntegrityTagCatchesScribbleAndRestampClears) {
  FrameId f = *mem_.Alloc();
  std::memset(mem_.Data(f).data(), 0x33, kPageSize);
  disk_.Submit({.write = true, .start = 40, .nblocks = 1, .frames = {f}, .done = {}});
  engine_.RunUntilIdle();

  disk_.EnableIntegrity();  // stamps the current media as the trusted baseline
  EXPECT_TRUE(disk_.integrity_enabled());
  EXPECT_EQ(disk_.CheckBlock(40), BlockIntegrity::kOk);

  // Out-of-band scribble (modeling corruption): the tag disagrees.
  disk_.MutableBlock(40)[17] ^= 0xff;
  EXPECT_EQ(disk_.CheckBlock(40), BlockIntegrity::kBadChecksum);

  // A kernel-internal MutableBlock writer re-stamps; a DMA write stamps implicitly.
  disk_.Restamp(40);
  EXPECT_EQ(disk_.CheckBlock(40), BlockIntegrity::kOk);
  disk_.MutableBlock(41)[0] = 1;
  EXPECT_EQ(disk_.CheckBlock(41), BlockIntegrity::kBadChecksum);
  disk_.Submit({.write = true, .start = 41, .nblocks = 1, .frames = {f}, .done = {}});
  engine_.RunUntilIdle();
  EXPECT_EQ(disk_.CheckBlock(41), BlockIntegrity::kOk);
}

TEST_F(DiskTest, ScriptedLostWriteAcksButNeverLands) {
  disk_.EnableIntegrity();
  sim::FaultPlan plan;
  plan.script = {{'w', 1, 0}};
  sim::FaultInjector faults(plan);
  disk_.SetFaultInjector(&faults);

  FrameId f = *mem_.Alloc();
  std::memset(mem_.Data(f).data(), 0x5a, kPageSize);
  Status got = Status::kIoError;
  disk_.Submit({.write = true, .start = 50, .nblocks = 1, .frames = {f},
                .done = [&](Status s) { got = s; }});
  engine_.RunUntilIdle();

  EXPECT_EQ(got, Status::kOk);            // the ack is the lie
  EXPECT_EQ(disk_.RawBlock(50)[0], 0x00); // the media never changed
  EXPECT_EQ(disk_.stats().lost_blocks, 1u);
  EXPECT_EQ(disk_.stats().blocks_written, 0u);  // not a durable write
  EXPECT_EQ(faults.stats().disk_lost_writes, 1u);
  // The residual window, stated precisely: old content + old tag is
  // self-consistent, so the block-local check CANNOT catch a lost overwrite.
  EXPECT_EQ(disk_.CheckBlock(50), BlockIntegrity::kOk);
  disk_.SetFaultInjector(nullptr);
}

TEST_F(DiskTest, ScriptedMisdirectLandsAtVictimWithWrongIntendedTag) {
  disk_.EnableIntegrity();
  sim::FaultPlan plan;
  plan.script = {{'m', 1, 777}};
  sim::FaultInjector faults(plan);
  disk_.SetFaultInjector(&faults);
  sim::Counters counters;
  disk_.AttachCounters(&counters);  // also wires fault.* through the injector

  FrameId f = *mem_.Alloc();
  std::memset(mem_.Data(f).data(), 0x5a, kPageSize);
  disk_.Submit({.write = true, .start = 60, .nblocks = 1, .frames = {f}, .done = {}});
  engine_.RunUntilIdle();

  EXPECT_EQ(disk_.RawBlock(60)[0], 0x00);   // intended block kept its old bytes
  EXPECT_EQ(disk_.RawBlock(777)[0], 0x5a);  // the victim was overwritten
  EXPECT_EQ(disk_.CheckBlock(60), BlockIntegrity::kOk);  // stale-but-consistent
  // The victim's tag says "these bytes were meant for LBA 60": detectable.
  EXPECT_EQ(disk_.CheckBlock(777), BlockIntegrity::kMisdirected);
  EXPECT_EQ(disk_.stats().misdirected_blocks, 1u);
  EXPECT_EQ(counters.Get("fault.disk_misdirects"), 1u);
  disk_.SetFaultInjector(nullptr);
}

TEST_F(DiskTest, ScriptedRotFlipsMediaPersistently) {
  FrameId f = *mem_.Alloc();
  std::memset(mem_.Data(f).data(), 0x11, kPageSize);
  disk_.Submit({.write = true, .start = 70, .nblocks = 1, .frames = {f}, .done = {}});
  engine_.RunUntilIdle();
  disk_.EnableIntegrity();

  sim::FaultPlan plan;
  plan.script = {{'r', 1, 9}};
  sim::FaultInjector faults(plan);
  disk_.SetFaultInjector(&faults);

  FrameId dst = *mem_.Alloc();
  Status got = Status::kIoError;
  disk_.Submit({.write = false, .start = 70, .nblocks = 1, .frames = {dst},
                .done = [&](Status s) { got = s; }});
  engine_.RunUntilIdle();

  EXPECT_EQ(got, Status::kOk);  // rot reads "succeed" — that is what makes it silent
  EXPECT_EQ(mem_.Data(dst)[9], 0x11 ^ 0x20);  // the flip reached the caller
  EXPECT_EQ(disk_.RawBlock(70)[9], 0x11 ^ 0x20);  // and it is persistent media damage
  EXPECT_EQ(disk_.CheckBlock(70), BlockIntegrity::kBadChecksum);  // but the tag knows
  EXPECT_EQ(disk_.stats().rotted_blocks, 1u);

  // Later reads (no more scripted events) serve the rotted bytes verbatim.
  disk_.SetFaultInjector(nullptr);
  disk_.Submit({.write = false, .start = 70, .nblocks = 1, .frames = {dst},
                .done = [&](Status s) { got = s; }});
  engine_.RunUntilIdle();
  EXPECT_EQ(got, Status::kOk);
  EXPECT_EQ(mem_.Data(dst)[9], 0x11 ^ 0x20);
}

// Resident set size of this process in bytes (second field of /proc/self/statm).
size_t ResidentBytes() {
  std::ifstream statm("/proc/self/statm");
  size_t total_pages = 0;
  size_t resident_pages = 0;
  statm >> total_pages >> resident_pages;
  return resident_pages * static_cast<size_t>(sysconf(_SC_PAGESIZE));
}

bool AllZero(std::span<const uint8_t> bytes) {
  return std::all_of(bytes.begin(), bytes.end(), [](uint8_t v) { return v == 0; });
}

// The host backs only what the simulation touches: a 1-GB disk and 1 GB of
// frames cost a few MB of index and refcounts, and reading never-written
// blocks allocates nothing.
TEST(HwTest, UntouchedDiskAndMemoryCostNoHostMemory) {
  const size_t before = ResidentBytes();
  sim::Engine engine;
  PhysMem mem(262144);
  DiskGeometry geometry;
  geometry.num_blocks = 262144;
  Disk disk(&engine, &mem, geometry, 200);

  FrameId f = *mem.Alloc();
  for (BlockId b : {3u, 70001u, 150000u, 262143u}) {
    std::memset(mem.Data(f).data(), 0xee, kPageSize);
    Status got = Status::kIoError;
    disk.Submit({.write = false, .start = b, .nblocks = 1, .frames = {f},
                 .done = [&](Status s) { got = s; }});
    engine.RunUntilIdle();
    ASSERT_EQ(got, Status::kOk);
    EXPECT_TRUE(AllZero(mem.Data(f))) << "block " << b;
  }
  EXPECT_LT(ResidentBytes(), before + (16u << 20));
}

// Rot on a hole gives that block its own storage: the flip persists across
// reads, and every other hole still reads the shared zero block untouched.
TEST(HwTest, RotOnNeverWrittenBlockIsPersistentAndLocal) {
  sim::Engine engine;
  PhysMem mem(4);
  Disk disk(&engine, &mem, DiskGeometry{}, 200);
  sim::FaultPlan plan;
  plan.script = {{'r', 1, 9}};
  sim::FaultInjector faults(plan);
  disk.SetFaultInjector(&faults);

  FrameId dst = *mem.Alloc();
  auto read = [&](BlockId b) {
    Status got = Status::kIoError;
    disk.Submit({.write = false, .start = b, .nblocks = 1, .frames = {dst},
                 .done = [&](Status s) { got = s; }});
    engine.RunUntilIdle();
    return got;
  };
  ASSERT_EQ(read(90), Status::kOk);
  EXPECT_EQ(mem.Data(dst)[9], 0x20);  // the flipped zero byte reached the caller
  EXPECT_EQ(disk.stats().rotted_blocks, 1u);
  ASSERT_EQ(read(90), Status::kOk);
  EXPECT_EQ(mem.Data(dst)[9], 0x20);  // persistent media damage
  EXPECT_EQ(disk.RawBlock(90)[9], 0x20);

  ASSERT_EQ(read(91), Status::kOk);
  EXPECT_TRUE(AllZero(mem.Data(dst)));
  EXPECT_TRUE(AllZero(disk.RawBlock(91)));
  disk.SetFaultInjector(nullptr);
}

TEST_F(DiskTest, LatentSectorPersistsAcrossPowerCycleAndDetachUntilRewritten) {
  disk_.EnableIntegrity();
  sim::FaultPlan plan;
  plan.script = {{'l', 1, 0}};
  sim::FaultInjector faults(plan);
  disk_.SetFaultInjector(&faults);

  FrameId f = *mem_.Alloc();
  Status got = Status::kOk;
  disk_.Submit({.write = false, .start = 80, .nblocks = 1, .frames = {f},
                .done = [&](Status s) { got = s; }});
  engine_.RunUntilIdle();
  EXPECT_EQ(got, Status::kIoError);
  EXPECT_EQ(disk_.stats().latent_errors, 1u);
  EXPECT_EQ(disk_.CheckBlock(80), BlockIntegrity::kUnreadable);

  // The bad sector is media state: it survives a power cycle AND injector
  // detach — it belongs to the platter, not to the injector's bookkeeping.
  disk_.PowerCut();
  disk_.PowerRestore();
  disk_.SetFaultInjector(nullptr);
  disk_.Submit({.write = false, .start = 80, .nblocks = 1, .frames = {f},
                .done = [&](Status s) { got = s; }});
  engine_.RunUntilIdle();
  EXPECT_EQ(got, Status::kIoError);
  EXPECT_EQ(disk_.stats().latent_errors, 2u);

  // Rewriting the sector remaps it: reads work again.
  std::memset(mem_.Data(f).data(), 0x22, kPageSize);
  disk_.Submit({.write = true, .start = 80, .nblocks = 1, .frames = {f}, .done = {}});
  engine_.RunUntilIdle();
  EXPECT_EQ(disk_.CheckBlock(80), BlockIntegrity::kOk);
  disk_.Submit({.write = false, .start = 80, .nblocks = 1, .frames = {f},
                .done = [&](Status s) { got = s; }});
  engine_.RunUntilIdle();
  EXPECT_EQ(got, Status::kOk);
  EXPECT_EQ(mem_.Data(f)[0], 0x22);
}

TEST_F(DiskTest, RateModeMediaFaultScheduleIsSeedDeterministic) {
  auto run = [](uint64_t seed) {
    sim::Engine engine;
    PhysMem mem(64);
    Disk disk(&engine, &mem, DiskGeometry{}, 200);
    disk.EnableIntegrity();
    sim::FaultPlan plan;
    plan.seed = seed;
    plan.disk_lost_rate = 0.2;
    plan.disk_misdirect_rate = 0.1;
    plan.disk_rot_rate = 0.2;
    plan.disk_latent_rate = 0.1;
    sim::FaultInjector faults(plan);
    disk.SetFaultInjector(&faults);
    FrameId f = *mem.Alloc();
    for (uint32_t i = 0; i < 32; ++i) {
      disk.Submit({.write = true, .start = 100 + i, .nblocks = 1, .frames = {f},
                   .done = {}});
      engine.RunUntilIdle();
      disk.Submit({.write = false, .start = 100 + i, .nblocks = 1, .frames = {f},
                   .done = [](Status) {}});
      engine.RunUntilIdle();
    }
    disk.SetFaultInjector(nullptr);
    return faults.log();
  };
  auto a = run(11);
  auto b = run(11);
  auto c = run(12);
  EXPECT_FALSE(a.empty());
  EXPECT_EQ(a, b);
  EXPECT_NE(a, c);
}

// One rate-mode injector shared by a disk and a link records the faults of
// both layers in one list, and that list, fed back as the plan's script,
// replays both layers exactly: the same events and the same log.
TEST(HwTest, SharedInjectorReplaysWireAndDiskFromOneScript) {
  auto run = [](const sim::FaultPlan& plan) {
    sim::Engine engine;
    PhysMem mem(64);
    Disk disk(&engine, &mem, DiskGeometry{}, 200);
    Nic a(0);
    Nic b(1);
    Link link(&engine, 100.0, 0.0, 200);
    link.Connect(&a, &b);
    b.SetReceiveHandler([](Packet) {});
    sim::FaultInjector faults(plan);
    disk.SetFaultInjector(&faults);
    link.SetFaultInjector(&faults);
    FrameId f = *mem.Alloc();
    for (uint32_t i = 0; i < 32; ++i) {
      disk.Submit({.write = true, .start = 100 + i, .nblocks = 1, .frames = {f},
                   .done = {}});
      a.Transmit({.bytes = std::vector<uint8_t>(100, 0x42)});
      engine.RunUntilIdle();
      disk.Submit({.write = false, .start = 100 + i, .nblocks = 1, .frames = {f},
                   .done = [](Status) {}});
      a.Transmit({.bytes = std::vector<uint8_t>(100, 0x42)});
      engine.RunUntilIdle();
    }
    disk.SetFaultInjector(nullptr);
    link.SetFaultInjector(nullptr);
    return std::make_pair(faults.events(), faults.log());
  };
  sim::FaultPlan plan;
  plan.seed = 5;
  plan.disk_lost_rate = 0.1;
  plan.disk_misdirect_rate = 0.1;
  plan.disk_rot_rate = 0.1;
  plan.disk_latent_rate = 0.1;
  plan.net_drop_rate = 0.1;
  plan.net_corrupt_rate = 0.1;
  plan.net_duplicate_rate = 0.1;
  plan.net_corrupt_min_offset = 8;
  const auto [events, log] = run(plan);
  std::string kinds;
  for (const sim::FaultEvent& e : events) {
    if (kinds.find(e.kind) == std::string::npos) {
      kinds += e.kind;
    }
  }
  std::sort(kinds.begin(), kinds.end());
  EXPECT_EQ(kinds, "cdlmruw") << sim::FormatFaultSchedule(events);

  sim::FaultPlan replay = plan;  // rates ignored: both layers are scripted
  replay.script = events;
  const auto [replayed, replay_log] = run(replay);
  EXPECT_EQ(replayed, events);
  EXPECT_EQ(replay_log, log);
}

TEST(NicTest, PacketDeliveredWithWireDelay) {
  sim::Engine engine;
  Nic a(0);
  Nic b(1);
  Link link(&engine, 100.0, 50.0, 200);  // 100 Mbit/s, 50 us latency
  link.Connect(&a, &b);

  std::vector<uint8_t> got;
  b.SetReceiveHandler([&](Packet p) { got = std::move(p.bytes); });

  a.Transmit({.bytes = {1, 2, 3, 4}});
  EXPECT_TRUE(got.empty());  // not delivered synchronously
  engine.RunUntilIdle();
  EXPECT_EQ(got, (std::vector<uint8_t>{1, 2, 3, 4}));
  // 64B min frame + 24B overhead at 100 Mbit/s = 7.04 us + 50 us latency.
  EXPECT_NEAR(static_cast<double>(engine.now()) / 200.0, 57.0, 1.0);
}

TEST(NicTest, LinkSerializesBackToBackFrames) {
  sim::Engine engine;
  Nic a(0);
  Nic b(1);
  Link link(&engine, 100.0, 0.0, 200);
  link.Connect(&a, &b);

  int received = 0;
  b.SetReceiveHandler([&](Packet) { ++received; });
  for (int i = 0; i < 10; ++i) {
    a.Transmit({.bytes = std::vector<uint8_t>(1000, 0)});
  }
  engine.RunUntilIdle();
  EXPECT_EQ(received, 10);
  // 10 frames of (1000+24)B at 100 Mbit/s: 10 * 81.92 us serialized end to end.
  EXPECT_NEAR(static_cast<double>(engine.now()) / 200.0, 819.2, 1.0);
}

TEST(NicTest, FullDuplexDirectionsIndependent) {
  sim::Engine engine;
  Nic a(0);
  Nic b(1);
  Link link(&engine, 100.0, 0.0, 200);
  link.Connect(&a, &b);
  sim::Cycles a_arrival = 0;
  sim::Cycles b_arrival = 0;
  a.SetReceiveHandler([&](Packet) { a_arrival = engine.now(); });
  b.SetReceiveHandler([&](Packet) { b_arrival = engine.now(); });
  a.Transmit({.bytes = std::vector<uint8_t>(1400, 0)});
  b.Transmit({.bytes = std::vector<uint8_t>(1400, 0)});
  engine.RunUntilIdle();
  EXPECT_EQ(a_arrival, b_arrival);  // no shared-medium contention on full duplex
}

TEST(NicTest, NoHandlerCountsDrop) {
  sim::Engine engine;
  Nic a(0);
  Nic b(1);
  Link link(&engine, 100.0, 0.0, 200);
  link.Connect(&a, &b);
  a.Transmit({.bytes = {9}});
  engine.RunUntilIdle();
  EXPECT_EQ(b.stats().dropped, 1u);
}

TEST(NicTest, LinkFaultsDropCorruptAndDuplicate) {
  auto run = [](uint64_t seed) {
    sim::Engine engine;
    Nic a(0);
    Nic b(1);
    Link link(&engine, 100.0, 0.0, 200);
    link.Connect(&a, &b);
    sim::FaultInjector faults({.seed = seed,
                               .net_drop_rate = 0.2,
                               .net_corrupt_rate = 0.2,
                               .net_duplicate_rate = 0.2,
                               .net_corrupt_min_offset = 8});
    link.SetFaultInjector(&faults);

    uint64_t received = 0;
    uint64_t corrupted = 0;
    b.SetReceiveHandler([&](Packet p) {
      ++received;
      for (uint8_t byte : p.bytes) {
        if (byte != 0x42) {
          ++corrupted;
          break;
        }
      }
    });
    for (int i = 0; i < 200; ++i) {
      a.Transmit({.bytes = std::vector<uint8_t>(100, 0x42)});
    }
    engine.RunUntilIdle();
    const auto& st = faults.stats();
    EXPECT_EQ(st.frames_seen, 200u);
    EXPECT_GT(st.net_drops, 0u);
    EXPECT_GT(st.net_corruptions, 0u);
    EXPECT_GT(st.net_duplicates, 0u);
    EXPECT_EQ(received, 200u - st.net_drops + st.net_duplicates);
    EXPECT_EQ(corrupted, st.net_corruptions);
    return faults.log();
  };
  // Same seed => byte-for-byte the same fault schedule; different seed => not.
  EXPECT_EQ(run(99), run(99));
  EXPECT_NE(run(99), run(100));
}

TEST(NicTest, CorruptionSparesBytesBelowMinOffset) {
  sim::Engine engine;
  Nic a(0);
  Nic b(1);
  Link link(&engine, 100.0, 0.0, 200);
  link.Connect(&a, &b);
  sim::FaultInjector faults({.seed = 3, .net_corrupt_rate = 1.0,
                             .net_corrupt_min_offset = 32});
  link.SetFaultInjector(&faults);

  uint64_t delivered = 0;
  b.SetReceiveHandler([&](Packet p) {
    ++delivered;
    for (size_t i = 0; i < 32; ++i) {
      EXPECT_EQ(p.bytes[i], 0x11) << "header byte " << i << " corrupted";
    }
  });
  for (int i = 0; i < 50; ++i) {
    a.Transmit({.bytes = std::vector<uint8_t>(200, 0x11)});
  }
  // Frames shorter than the protected prefix are dropped rather than corrupted.
  a.Transmit({.bytes = std::vector<uint8_t>(16, 0x11)});
  engine.RunUntilIdle();
  EXPECT_EQ(delivered, 50u);
  EXPECT_EQ(faults.stats().net_corruptions, 50u);
  EXPECT_EQ(faults.stats().net_drops, 1u);
}

// A downed NIC is silent hardware: transmits refuse, arrivals vanish, the DMA
// rings are cleared; bringing it back up restores normal service.
TEST(NicTest, DownNicRefusesTransmitAndDropsArrivals) {
  sim::Engine engine;
  Nic a(0);
  Nic b(1);
  Link link(&engine, 100.0, 0.0, 200);
  link.Connect(&a, &b);
  int received = 0;
  b.SetReceiveHandler([&](Packet) { ++received; });

  b.SetUp(false);
  EXPECT_FALSE(b.up());
  a.Transmit({.bytes = std::vector<uint8_t>(64, 1)});
  engine.RunUntilIdle();
  EXPECT_EQ(received, 0);
  EXPECT_EQ(b.stats().dropped, 1u);
  EXPECT_FALSE(b.Transmit({.bytes = std::vector<uint8_t>(64, 2)}));
  EXPECT_EQ(b.stats().tx_rejected, 1u);

  b.SetUp(true);
  a.Transmit({.bytes = std::vector<uint8_t>(64, 3)});
  engine.RunUntilIdle();
  EXPECT_EQ(received, 1);
}

// The firmware probe responder echoes kProbeProto frames (addresses swapped)
// without involving the rx handler; a downed NIC stays silent.
TEST(NicTest, ProbeResponderEchoesBelowTheStack) {
  sim::Engine engine;
  Nic prober(0);
  Nic target(1);
  Link link(&engine, 100.0, 10.0, 200);
  link.Connect(&prober, &target);
  target.EnableProbeResponder();
  int handler_saw = 0;
  target.SetReceiveHandler([&](Packet) { ++handler_saw; });
  std::vector<uint8_t> reply;
  prober.SetReceiveHandler([&](Packet p) { reply = std::move(p.bytes); });

  Packet probe;
  probe.bytes.assign(kProbeFrameBytes, 0);
  probe.bytes[0] = kProbeProto;
  probe.bytes[1] = 7;   // prober address
  probe.bytes[5] = 42;  // target address
  probe.bytes[9] = 0xab;  // seq
  prober.Transmit(std::move(probe));
  engine.RunUntilIdle();

  ASSERT_EQ(reply.size(), static_cast<size_t>(kProbeFrameBytes));
  EXPECT_EQ(handler_saw, 0);  // firmware answered; the stack never saw it
  EXPECT_EQ(reply[0], kProbeProto);
  EXPECT_EQ(reply[1], 42);  // addresses swapped
  EXPECT_EQ(reply[5], 7);
  EXPECT_EQ(reply[9], 0xab);  // seq untouched

  // Dead hardware is silent: no echo while the NIC is down.
  reply.clear();
  target.SetUp(false);
  Packet probe2;
  probe2.bytes.assign(kProbeFrameBytes, 0);
  probe2.bytes[0] = kProbeProto;
  prober.Transmit(std::move(probe2));
  engine.RunUntilIdle();
  EXPECT_TRUE(reply.empty());
}

// Kill/reboot lifecycle: kill downs every NIC and power-cuts every disk, then
// runs the kill listeners; reboot restores power and runs the reboot
// listeners. Both are idempotent so ddmin-orphaned reboots replay cleanly.
TEST(MachineTest, KillAndRebootLifecycle) {
  sim::Engine engine;
  MachineConfig mc;
  mc.mem_frames = 64;
  Machine m(&engine, mc);
  std::vector<std::string> log;
  m.AddKillListener([&] { log.push_back("kill"); });
  m.AddRebootListener([&] { log.push_back("reboot"); });

  EXPECT_TRUE(m.alive());
  m.Reboot();  // reboot while alive: no-op
  EXPECT_TRUE(log.empty());

  m.Kill();
  EXPECT_FALSE(m.alive());
  EXPECT_FALSE(m.nic(0).up());
  EXPECT_TRUE(m.disk(0).powered_off());
  m.Kill();  // idempotent: listeners fire once
  ASSERT_EQ(log.size(), 1u);
  EXPECT_EQ(log[0], "kill");

  m.Reboot();
  EXPECT_TRUE(m.alive());
  EXPECT_TRUE(m.nic(0).up());
  EXPECT_FALSE(m.disk(0).powered_off());
  ASSERT_EQ(log.size(), 2u);
  EXPECT_EQ(log[1], "reboot");
}

TEST(MachineTest, ChargeAdvancesSharedClock) {
  sim::Engine engine;
  Machine m(&engine, MachineConfig{.mem_frames = 32});
  m.Charge(1000);
  EXPECT_EQ(engine.now(), 1000u);
}

TEST(MachineTest, ConfigShapesHardware) {
  sim::Engine engine;
  MachineConfig cfg;
  cfg.mem_frames = 100;
  cfg.disks = {DiskGeometry{}, DiskGeometry{}};
  cfg.num_nics = 3;
  Machine m(&engine, cfg);
  EXPECT_EQ(m.mem().num_frames(), 100u);
  EXPECT_EQ(m.num_disks(), 2u);
  EXPECT_EQ(m.num_nics(), 3u);
}

}  // namespace
}  // namespace exo::hw
