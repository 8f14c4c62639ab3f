// Additional coverage: CpuMeter occupancy, kernel-backend cache eviction (the
// OpenBSD small-cache behaviour), disk scheduling properties, FFS specifics,
// and the bench report and its baseline gate.
#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <vector>

#include "bench/common.h"
#include "fs/ffs.h"
#include "fs/kernel_backend.h"
#include "hw/machine.h"
#include "sim/cpu_meter.h"

namespace exo {
namespace {

TEST(CpuMeterTest, SerializesWork) {
  sim::Engine e;
  sim::CpuMeter cpu(&e);
  EXPECT_EQ(cpu.Occupy(100), 100u);
  EXPECT_EQ(cpu.Occupy(50), 150u);  // queued behind the first
  e.Advance(1000);
  EXPECT_EQ(cpu.Occupy(10), 1010u);  // idle gap: starts at now
  EXPECT_EQ(cpu.total_busy(), 160u);
}

TEST(CpuMeterTest, UtilizationTracksBusyFraction) {
  sim::Engine e;
  sim::CpuMeter cpu(&e);
  cpu.Occupy(500);
  e.Advance(1000);
  EXPECT_NEAR(cpu.Utilization(0), 0.5, 0.01);
}

TEST(DiskTest, CLookServicesAscendingBeforeWrapping) {
  sim::Engine e;
  hw::PhysMem mem(16);
  hw::Disk disk(&e, &mem, hw::DiskGeometry{}, 200);
  hw::FrameId f = *mem.Alloc();
  std::vector<hw::BlockId> order;
  auto submit = [&](hw::BlockId b) {
    disk.Submit({.write = false, .start = b, .nblocks = 1, .frames = {f},
                 .done = [&order, b](Status) { order.push_back(b); }});
  };
  // Park the head mid-disk first.
  submit(8000);
  e.RunUntilIdle();
  order.clear();
  // Queue around the head: C-LOOK should sweep up, then wrap to the lowest.
  submit(9000);
  submit(2000);
  submit(12000);
  submit(500);
  e.RunUntilIdle();
  EXPECT_EQ(order, (std::vector<hw::BlockId>{9000, 12000, 500, 2000}));
}

TEST(KernelBackendTest, SmallCacheEvictsLru) {
  sim::Engine engine;
  hw::Machine machine(&engine,
                      hw::MachineConfig{.mem_frames = 2048,
                                        .disks = {hw::DiskGeometry{.num_blocks = 4096}}});
  fs::KernelBackendOptions opts;
  opts.max_cache_blocks = 8;  // a tiny OpenBSD-style cache
  fs::KernelBackend kb(&machine, &machine.disk(), fs::SpinEngine(engine), opts);

  // Touch 20 distinct blocks; the cache must stay bounded.
  for (hw::BlockId b = 100; b < 120; ++b) {
    ASSERT_TRUE(kb.GetBlock(b, 0).ok());
  }
  EXPECT_LE(kb.cached_blocks(), 8u);
  // The least recently used block went first, and reading it again is a disk read.
  EXPECT_FALSE(kb.IsCached(100));
  EXPECT_TRUE(kb.IsCached(119));
  const uint64_t reads_before = machine.disk().stats().blocks_read;
  ASSERT_TRUE(kb.GetBlock(100, 0).ok());
  EXPECT_GT(machine.disk().stats().blocks_read, reads_before);
}

TEST(KernelBackendTest, DirtyEvictionWritesBack) {
  sim::Engine engine;
  hw::Machine machine(&engine,
                      hw::MachineConfig{.mem_frames = 2048,
                                        .disks = {hw::DiskGeometry{.num_blocks = 4096}}});
  fs::KernelBackendOptions opts;
  opts.max_cache_blocks = 4;
  fs::KernelBackend kb(&machine, &machine.disk(), fs::SpinEngine(engine), opts);

  ASSERT_EQ(kb.InstallFresh(200, 0), Status::kOk);
  auto w = kb.GetDataWritable(200, 0);
  ASSERT_TRUE(w.ok());
  (*w)[0] = 0xcd;
  // Fill the cache to force eviction of block 200.
  for (hw::BlockId b = 300; b < 310; ++b) {
    ASSERT_TRUE(kb.GetBlock(b, 0).ok());
  }
  // Its content must have reached the platter.
  EXPECT_EQ(machine.disk().RawBlock(200)[0], 0xcd);
}

class FfsTest : public ::testing::Test {
 protected:
  FfsTest()
      : machine_(&engine_,
                 hw::MachineConfig{.mem_frames = 4096,
                                   .disks = {hw::DiskGeometry{.num_blocks = 8192}}}) {
    backend_ = std::make_unique<fs::KernelBackend>(&machine_, &machine_.disk(),
                                                   fs::SpinEngine(engine_));
    ffs_ = std::make_unique<fs::Ffs>(backend_.get());
    EXO_CHECK_EQ(ffs_->Mkfs(), Status::kOk);
  }

  sim::Engine engine_;
  hw::Machine machine_;
  std::unique_ptr<fs::KernelBackend> backend_;
  std::unique_ptr<fs::Ffs> ffs_;
};

TEST_F(FfsTest, SyncMetadataCostsDiskWrites) {
  uint64_t writes_before = machine_.disk().stats().blocks_written;
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(ffs_->Open("/f" + std::to_string(i), true, 7).ok());
  }
  // Classic FFS: every create synchronously writes inode + directory blocks.
  EXPECT_GE(machine_.disk().stats().blocks_written - writes_before, 10u);
}

TEST_F(FfsTest, CrossDirectoryRenameMovesEntries) {
  ASSERT_EQ(ffs_->Mkdir("/a", 7), Status::kOk);
  ASSERT_EQ(ffs_->Mkdir("/b", 7), Status::kOk);
  auto h = ffs_->Open("/a/x", true, 7);
  ASSERT_TRUE(h.ok());
  std::vector<uint8_t> data = {1, 2, 3};
  ASSERT_TRUE(ffs_->Write(*h, 0, data, 7).ok());
  ASSERT_EQ(ffs_->Rename("/a/x", "/b/y", 7), Status::kOk);
  EXPECT_FALSE(ffs_->StatPath("/a/x").ok());
  auto st = ffs_->StatPath("/b/y");
  ASSERT_TRUE(st.ok());
  EXPECT_EQ(st->size, 3u);
}

TEST_F(FfsTest, InodeNumbersAreReusedAfterUnlink) {
  auto h1 = ffs_->Open("/one", true, 7);
  ASSERT_TRUE(h1.ok());
  ASSERT_EQ(ffs_->Unlink("/one", 7), Status::kOk);
  auto h2 = ffs_->Open("/two", true, 7);
  ASSERT_TRUE(h2.ok());
  // Free inode count is bounded: the freed slot is available again eventually.
  EXPECT_TRUE(ffs_->StatPath("/two").ok());
}

TEST_F(FfsTest, DataSeparatedFromInodeZone) {
  auto h = ffs_->Open("/big", true, 7);
  ASSERT_TRUE(h.ok());
  std::vector<uint8_t> data(5 * 4096, 0x42);
  ASSERT_TRUE(ffs_->Write(*h, 0, data, 7).ok());
  auto st = ffs_->StatHandle(*h);
  ASSERT_TRUE(st.ok());
  EXPECT_EQ(st->nblocks, 5u);
  // FFS places data far from the inode zone (no co-location) — the mechanism
  // behind its long seeks on small-file workloads.
}

// A scratch file path unique to the running test, so ctest -j cannot collide.
std::string TempPath(const char* name) {
  return ::testing::TempDir() + "bench_report_" +
         ::testing::UnitTest::GetInstance()->current_test_info()->name() + "_" + name;
}

std::string ReadFile(const std::string& path) {
  std::string text;
  FILE* f = std::fopen(path.c_str(), "r");
  EXPECT_NE(f, nullptr) << path;
  if (f != nullptr) {
    for (int c; (c = std::fgetc(f)) != EOF;) {
      text.push_back(static_cast<char>(c));
    }
    std::fclose(f);
  }
  return text;
}

// Finish()'s exit code for a report holding x = 6 and a skipped metric s,
// run with `flags` after the program name.
int FinishReport(std::vector<std::string> flags) {
  flags.insert(flags.begin(), "bench");
  std::vector<char*> argv;
  for (std::string& f : flags) {
    argv.push_back(f.data());
  }
  bench::Report report("t", static_cast<int>(argv.size()), argv.data());
  report.Add("x", 6);
  report.Skip("s", "no such hardware");
  return report.Finish();
}

// The same, gated against a baseline holding `baseline_text`.
int Gate(const std::string& baseline_text) {
  const std::string baseline = TempPath("baseline.json");
  FILE* f = std::fopen(baseline.c_str(), "w");
  EXPECT_NE(f, nullptr) << baseline;
  if (f == nullptr) {
    return -1;
  }
  std::fputs(baseline_text.c_str(), f);
  std::fclose(f);
  const std::string out = TempPath("report.json");
  const int code = FinishReport({"--out", out, "--check", baseline});
  std::remove(baseline.c_str());
  std::remove(out.c_str());
  return code;
}

TEST(BenchReportTest, FloorMetAndBroken) {
  EXPECT_EQ(Gate(R"({"min_x": 6})"), 0);
  EXPECT_EQ(Gate(R"({"min_x": 6.5})"), 1);
}

TEST(BenchReportTest, CeilingMetAndBroken) {
  EXPECT_EQ(Gate(R"({"max_x": 6})"), 0);
  EXPECT_EQ(Gate(R"({"max_x": 5.5})"), 1);
}

TEST(BenchReportTest, BoundOnMissingMetricFails) {
  EXPECT_EQ(Gate(R"({"min_x": 1, "max_y": 1})"), 1);
}

TEST(BenchReportTest, BoundOnSkippedMetricPasses) {
  EXPECT_EQ(Gate(R"({"min_x": 1, "min_s": 1e9})"), 0);
}

TEST(BenchReportTest, UnreadableBaselineFails) {
  const std::string out = TempPath("report.json");
  EXPECT_EQ(FinishReport({"--out", out, "--check", TempPath("missing.json")}), 1);
  std::remove(out.c_str());
  EXPECT_EQ(Gate(R"({"x": {"min_x": 1}})"), 1);  // not flat
  EXPECT_EQ(Gate(R"({"min_x": 1)"), 1);          // truncated
  EXPECT_EQ(Gate(R"({"max_x": nan})"), 1);       // not a JSON number
}

TEST(BenchReportTest, BaselineWithoutBoundFails) {
  EXPECT_EQ(Gate(R"({"comment": "no bounds here"})"), 1);
  EXPECT_EQ(Gate(R"({"min_x": 1, "x": 6})"), 1);  // a number that bounds nothing
}

TEST(BenchReportTest, CommentIsIgnored) {
  EXPECT_EQ(Gate(R"({
    "bench": "t",
    "comment": "strings are not bounds: \"min_x\": 100, {}",
    "min_x": 1
  })"),
            0);
}

TEST(BenchReportTest, OutGetsOneFlatObject) {
  const std::string out = TempPath("report.json");
  EXPECT_EQ(FinishReport({"--out", out}), 0);
  EXPECT_EQ(ReadFile(out), "{\n  \"bench\": \"t\",\n  \"x\": 6,\n  \"s\": null\n}\n");
  std::remove(out.c_str());
}

}  // namespace
}  // namespace exo
