// Tests for the FileSys interface on the three configurations Figure 2 mounts: C-FFS
// as a libFS over XN (full UDF-verified metadata operations), the same C-FFS on the
// kernel backend (the "C-FFS ported into the monolithic kernel" configuration), and
// FFS on the kernel backend. The same behaviour must hold on all three. The cases
// that are C-FFS's by design (exclusive create, the layout calls, co-location, the
// dirty count) run on the two C-FFS configurations only.
#include <gtest/gtest.h>

#include <cstring>
#include <memory>
#include <set>

#include "fs/cffs.h"
#include "fs/ffs.h"
#include "fs/kernel_backend.h"
#include "fs/xn_backend.h"
#include "hw/machine.h"
#include "xn/xn.h"

namespace exo::fs {
namespace {

enum class Regime { kXn, kKernel, kFfs };

std::string RegimeName(const ::testing::TestParamInfo<Regime>& info) {
  switch (info.param) {
    case Regime::kXn:
      return "XnLibFs";
    case Regime::kKernel:
      return "InKernel";
    case Regime::kFfs:
      return "FfsInKernel";
  }
  return "?";
}

class FsTest : public ::testing::TestWithParam<Regime> {
 protected:
  // `cache_blocks` bounds the cache (0: unbounded). The kernel backend evicts past
  // it; on XN the fixture hands out that many frames, after which the backend
  // recycles the registry's least recently used clean buffer.
  explicit FsTest(uint32_t cache_blocks = 0)
      : machine_(&engine_, hw::MachineConfig{
                               .mem_frames = 4096,
                               .disks = {hw::DiskGeometry{.num_blocks = 8192}}}),
        frames_left_(cache_blocks == 0 ? UINT32_MAX : cache_blocks) {
    if (GetParam() == Regime::kXn) {
      xn_ = std::make_unique<xn::Xn>(&machine_, &machine_.disk());
      xn_->Format();
      EXO_CHECK_EQ(xn_->Attach(), Status::kOk);
      backend_ = std::make_unique<XnBackend>(
          xn_.get(), xn::Caps{xok::Capability::For({xok::kCapFs, 1})}, SpinEngine(engine_),
          [this] {
            if (frames_left_ == 0) {
              return hw::kInvalidFrame;
            }
            --frames_left_;
            auto f = machine_.mem().Alloc();
            return f.ok() ? *f : hw::kInvalidFrame;
          });
    } else {
      backend_ = std::make_unique<KernelBackend>(
          &machine_, &machine_.disk(), SpinEngine(engine_),
          KernelBackendOptions{.max_cache_blocks = cache_blocks});
    }
    if (GetParam() == Regime::kFfs) {
      auto ffs = std::make_unique<Ffs>(backend_.get());
      EXO_CHECK_EQ(ffs->Mkfs(), Status::kOk);
      fs_ = std::move(ffs);
    } else {
      auto cffs = std::make_unique<Cffs>(backend_.get(), CffsOptions{.fsid = 1});
      EXO_CHECK_EQ(cffs->Mkfs(), Status::kOk);
      cffs_ = cffs.get();
      fs_ = std::move(cffs);
    }
  }

  std::vector<uint8_t> Pattern(size_t n, uint8_t seed = 1) {
    std::vector<uint8_t> v(n);
    for (size_t i = 0; i < n; ++i) {
      v[i] = static_cast<uint8_t>(seed + i * 7);
    }
    return v;
  }

  void WriteFile(const std::string& path, std::span<const uint8_t> data, uint16_t uid = 7) {
    auto h = fs_->Open(path, /*create=*/true, uid);
    ASSERT_TRUE(h.ok()) << StatusName(h.status()) << " " << path;
    auto n = fs_->Write(*h, 0, data, uid);
    ASSERT_TRUE(n.ok()) << StatusName(n.status());
    ASSERT_EQ(*n, data.size());
  }

  Result<uint64_t> Lookup(const std::string& path) { return fs_->Open(path, false, 0); }

  std::vector<uint8_t> ReadFile(const std::string& path) {
    auto h = Lookup(path);
    EXO_CHECK(h.ok());
    auto st = fs_->StatHandle(*h);
    EXO_CHECK(st.ok());
    std::vector<uint8_t> out(st->size);
    auto n = fs_->Read(*h, 0, out);
    EXO_CHECK(n.ok());
    out.resize(*n);
    return out;
  }

  sim::Engine engine_;
  hw::Machine machine_;
  uint32_t frames_left_;  // XN cache frames the fixture may still hand out
  std::unique_ptr<xn::Xn> xn_;
  std::unique_ptr<FsBackend> backend_;
  std::unique_ptr<FileSys> fs_;
  Cffs* cffs_ = nullptr;  // fs_ on the two C-FFS regimes
};

TEST_P(FsTest, SmallFileRoundTrip) {
  auto data = Pattern(100);
  WriteFile("/hello.txt", data);
  EXPECT_EQ(ReadFile("/hello.txt"), data);
}

TEST_P(FsTest, MultiBlockFileRoundTrip) {
  auto data = Pattern(3 * 4096 + 777);
  WriteFile("/big", data);
  EXPECT_EQ(ReadFile("/big"), data);
}

TEST_P(FsTest, IndirectFileRoundTrip) {
  // 50 blocks: 8 direct + 42 in the first indirect block.
  auto data = Pattern(50 * 4096, 9);
  WriteFile("/huge", data);
  auto got = ReadFile("/huge");
  ASSERT_EQ(got.size(), data.size());
  EXPECT_EQ(got, data);
  auto h = Lookup("/huge");
  auto st = fs_->StatHandle(*h);
  EXPECT_EQ(st->nblocks, 50u);
}

TEST_P(FsTest, OffsetReadsAndOverwrites) {
  auto data = Pattern(2 * 4096);
  WriteFile("/f", data);
  auto h = Lookup("/f");
  ASSERT_TRUE(h.ok());

  std::vector<uint8_t> mid(100);
  auto n = fs_->Read(*h, 4000, mid);
  ASSERT_TRUE(n.ok());
  ASSERT_EQ(*n, 100u);
  EXPECT_EQ(0, std::memcmp(mid.data(), data.data() + 4000, 100));

  // Overwrite across a block boundary.
  std::vector<uint8_t> patch(200, 0xee);
  ASSERT_TRUE(fs_->Write(*h, 4000, patch, 7).ok());
  std::vector<uint8_t> back(200);
  ASSERT_TRUE(fs_->Read(*h, 4000, back).ok());
  EXPECT_EQ(back, patch);
  // Size unchanged by an interior overwrite.
  EXPECT_EQ(fs_->StatHandle(*h)->size, data.size());
}

TEST_P(FsTest, AppendExtendsSize) {
  WriteFile("/log", Pattern(10));
  auto h = Lookup("/log");
  auto tail = Pattern(20, 5);
  ASSERT_TRUE(fs_->Write(*h, 10, tail, 7).ok());
  EXPECT_EQ(fs_->StatHandle(*h)->size, 30u);
  auto all = ReadFile("/log");
  EXPECT_EQ(std::vector<uint8_t>(all.begin() + 10, all.end()), tail);
}

TEST_P(FsTest, DirectoriesNestAndList) {
  ASSERT_EQ(fs_->Mkdir("/src", 7), Status::kOk);
  ASSERT_EQ(fs_->Mkdir("/src/lib", 7), Status::kOk);
  WriteFile("/src/main.c", Pattern(64));
  WriteFile("/src/lib/util.c", Pattern(64));

  auto root = fs_->ReadDir("/");
  ASSERT_TRUE(root.ok());
  ASSERT_EQ(root->size(), 1u);
  EXPECT_EQ((*root)[0].name, "src");
  EXPECT_TRUE((*root)[0].is_dir);

  auto src = fs_->ReadDir("/src");
  ASSERT_TRUE(src.ok());
  std::set<std::string> names;
  for (const auto& de : *src) {
    names.insert(de.name);
  }
  EXPECT_EQ(names, (std::set<std::string>{"lib", "main.c"}));
}

TEST_P(FsTest, NameUniquenessEnforced) {
  WriteFile("/dup", Pattern(8));
  EXPECT_EQ(fs_->Mkdir("/dup", 7), Status::kAlreadyExists);
  ASSERT_EQ(fs_->Mkdir("/d", 7), Status::kOk);
  EXPECT_EQ(fs_->Mkdir("/d", 7), Status::kAlreadyExists);
  // Opening an existing name with create returns the file, not a second entry.
  auto again = fs_->Open("/dup", true, 7);
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(*again, *Lookup("/dup"));
  auto root = fs_->ReadDir("/");
  ASSERT_TRUE(root.ok());
  EXPECT_EQ(root->size(), 2u);
  if (cffs_ != nullptr) {
    EXPECT_EQ(cffs_->Create("/dup", 7).status(), Status::kAlreadyExists);
  }
}

TEST_P(FsTest, LookupErrors) {
  EXPECT_EQ(Lookup("/missing").status(), Status::kNotFound);
  EXPECT_EQ(Lookup("relative/path").status(), Status::kInvalidArgument);
  WriteFile("/file", Pattern(4));
  // A file used as a directory component fails.
  EXPECT_EQ(Lookup("/file/sub").status(), Status::kNotFound);
  EXPECT_EQ(fs_->StatPath("/file/sub").status(), Status::kNotFound);
  // Nor can anything be created or renamed under it.
  EXPECT_EQ(fs_->Open("/file/sub", /*create=*/true, 7).status(), Status::kNotFound);
  EXPECT_EQ(fs_->Mkdir("/file/sub", 7), Status::kNotFound);
  EXPECT_EQ(fs_->Rename("/file", "/file/sub", 7), Status::kNotFound);
  if (cffs_ != nullptr) {
    EXPECT_EQ(cffs_->Create("/file/sub", 7).status(), Status::kNotFound);
  }
  EXPECT_EQ(ReadFile("/file"), Pattern(4));
}

TEST_P(FsTest, DirectoryHandleRefusesData) {
  ASSERT_EQ(fs_->Mkdir("/d", 7), Status::kOk);
  auto h = Lookup("/d");
  ASSERT_TRUE(h.ok());
  std::vector<uint8_t> buf(16);
  EXPECT_EQ(fs_->Read(*h, 0, buf).status(), Status::kInvalidArgument);
  EXPECT_EQ(fs_->Write(*h, 0, buf, 7).status(), Status::kInvalidArgument);
}

TEST_P(FsTest, UnlinkFreesBlocks) {
  WriteFile("/keep", Pattern(8));  // the root directory holds its first block now
  const uint32_t before = backend_->free_map().free_count();
  WriteFile("/victim", Pattern(20 * 4096));
  EXPECT_LT(backend_->free_map().free_count(), before);
  ASSERT_EQ(fs_->Unlink("/victim", 7), Status::kOk);
  ASSERT_EQ(fs_->Sync(), Status::kOk);  // releases will-free deferrals on XN
  EXPECT_EQ(backend_->free_map().free_count(), before);
  EXPECT_EQ(Lookup("/victim").status(), Status::kNotFound);
}

TEST_P(FsTest, UnlinkDirectoryRequiresEmpty) {
  ASSERT_EQ(fs_->Mkdir("/d", 7), Status::kOk);
  WriteFile("/d/x", Pattern(4));
  EXPECT_EQ(fs_->Unlink("/d", 7), Status::kBusy);
  ASSERT_EQ(fs_->Unlink("/d/x", 7), Status::kOk);
  EXPECT_EQ(fs_->Unlink("/d", 7), Status::kOk);
  EXPECT_EQ(fs_->StatPath("/d").status(), Status::kNotFound);
}

TEST_P(FsTest, PermissionChecksInLibFs) {
  WriteFile("/mine", Pattern(8), /*uid=*/7);
  auto h = Lookup("/mine");
  std::vector<uint8_t> d = {1};
  EXPECT_EQ(fs_->Write(*h, 0, d, /*uid=*/9).status(), Status::kPermissionDenied);
  EXPECT_EQ(fs_->Unlink("/mine", 9), Status::kPermissionDenied);
  EXPECT_TRUE(fs_->Write(*h, 0, d, /*uid=*/0).ok());  // root
  EXPECT_EQ(fs_->Unlink("/mine", 0), Status::kOk);
}

TEST_P(FsTest, StatReportsFields) {
  WriteFile("/s", Pattern(5000), 42);
  auto st = fs_->StatPath("/s");
  ASSERT_TRUE(st.ok());
  EXPECT_EQ(st->size, 5000u);
  EXPECT_FALSE(st->is_dir);
  EXPECT_EQ(st->uid, 42u);
  EXPECT_EQ(st->nblocks, 2u);
  auto root = fs_->StatPath("/");
  ASSERT_TRUE(root.ok());
  EXPECT_TRUE(root->is_dir);
}

// 80 entries fill three C-FFS directory blocks (31 entries each) and two FFS ones
// (64 each).
TEST_P(FsTest, DirectoryExtendsPast31Entries) {
  ASSERT_EQ(fs_->Mkdir("/many", 7), Status::kOk);
  for (int i = 0; i < 80; ++i) {
    WriteFile("/many/f" + std::to_string(i), Pattern(10, static_cast<uint8_t>(i)));
  }
  auto list = fs_->ReadDir("/many");
  ASSERT_TRUE(list.ok());
  EXPECT_EQ(list->size(), 80u);
  // All files still readable by name.
  EXPECT_EQ(ReadFile("/many/f42"), Pattern(10, 42));
  EXPECT_EQ(ReadFile("/many/f79"), Pattern(10, 79));
}

TEST_P(FsTest, RenameWithinDirectory) {
  WriteFile("/old", Pattern(33));
  ASSERT_EQ(fs_->Rename("/old", "/new", 7), Status::kOk);
  EXPECT_EQ(Lookup("/old").status(), Status::kNotFound);
  EXPECT_EQ(ReadFile("/new"), Pattern(33));
}

TEST_P(FsTest, FileBlocksAndCreateSized) {
  if (cffs_ == nullptr) {
    GTEST_SKIP() << "FFS hides its layout";
  }
  auto h = cffs_->CreateSized("/pre", 7, 6 * 4096, hw::kInvalidBlock);
  ASSERT_TRUE(h.ok());
  auto blocks = cffs_->FileBlocks(*h);
  ASSERT_TRUE(blocks.ok());
  EXPECT_EQ(blocks->size(), 6u);
  EXPECT_EQ(fs_->StatHandle(*h)->size, 6u * 4096);
}

TEST_P(FsTest, CoLocationKeepsFileDataNearDirectory) {
  if (cffs_ == nullptr) {
    GTEST_SKIP() << "FFS does not co-locate";
  }
  ASSERT_EQ(fs_->Mkdir("/proj", 7), Status::kOk);
  for (int i = 0; i < 10; ++i) {
    WriteFile("/proj/f" + std::to_string(i), Pattern(2 * 4096, static_cast<uint8_t>(i)));
  }
  // All file blocks land within a small window after the block holding the
  // file's entry, which owns its direct blocks.
  for (int i = 0; i < 10; ++i) {
    auto fh = Lookup("/proj/f" + std::to_string(i));
    ASSERT_TRUE(fh.ok());
    auto first = cffs_->BlockAt(*fh, 0);
    ASSERT_TRUE(first.ok());
    const hw::BlockId dir_block = first->second;
    auto blocks = cffs_->FileBlocks(*fh);
    ASSERT_TRUE(blocks.ok());
    for (hw::BlockId b : *blocks) {
      int64_t dist = static_cast<int64_t>(b) - static_cast<int64_t>(dir_block);
      EXPECT_LT(std::abs(dist), 256) << "block far from directory";
    }
  }
}

TEST_P(FsTest, SyncMakesEverythingClean) {
  for (int i = 0; i < 5; ++i) {
    WriteFile("/s" + std::to_string(i), Pattern(4096 * 3, static_cast<uint8_t>(i)));
  }
  if (cffs_ != nullptr) {
    EXPECT_GT(cffs_->dirty_count(), 0u);
  }
  ASSERT_EQ(fs_->Sync(), Status::kOk);
  for (hw::BlockId b = 0; b < backend_->free_map().num_blocks(); ++b) {
    EXPECT_TRUE(backend_->IsClean(b)) << "block " << b;
  }
  if (cffs_ != nullptr) {
    EXPECT_EQ(cffs_->dirty_count(), 0u);
  }
}

INSTANTIATE_TEST_SUITE_P(Regimes, FsTest,
                         ::testing::Values(Regime::kXn, Regime::kKernel, Regime::kFfs),
                         RegimeName);

// A cache of 16 blocks, so the blocks a test wrote earlier get evicted.
class FsSmallCacheTest : public FsTest {
 protected:
  FsSmallCacheTest() : FsTest(/*cache_blocks=*/16) {}
};

// An append that starts inside a block evicted since it was written reads the
// block back instead of installing a zeroed page over the bytes before the EOF.
TEST_P(FsSmallCacheTest, AppendAfterEvictionKeepsOldBytes) {
  const auto head = Pattern(10);
  WriteFile("/log", head);
  ASSERT_EQ(fs_->Sync(), Status::kOk);
  for (int i = 0; i < 40; ++i) {
    WriteFile("/pad" + std::to_string(i), Pattern(4096, static_cast<uint8_t>(i)));
    ASSERT_EQ(fs_->Sync(), Status::kOk);  // XN recycles only clean buffers
  }
  auto h = Lookup("/log");
  ASSERT_TRUE(h.ok());
  if (cffs_ != nullptr) {
    auto block = cffs_->BlockAt(*h, 0);
    ASSERT_TRUE(block.ok());
    ASSERT_FALSE(backend_->IsCached(block->first));
  }
  const auto tail = Pattern(10, 99);
  ASSERT_TRUE(fs_->Write(*h, 10, tail, 7).ok());
  std::vector<uint8_t> back(20);
  auto n = fs_->Read(*h, 0, back);
  ASSERT_TRUE(n.ok());
  ASSERT_EQ(*n, 20u);
  EXPECT_EQ(std::vector<uint8_t>(back.begin(), back.begin() + 10), head);
  EXPECT_EQ(std::vector<uint8_t>(back.begin() + 10, back.end()), tail);
}

INSTANTIATE_TEST_SUITE_P(Regimes, FsSmallCacheTest,
                         ::testing::Values(Regime::kXn, Regime::kKernel, Regime::kFfs),
                         RegimeName);

// XN-only integration: durability and crash recovery of a real C-FFS tree.
class CffsCrashTest : public ::testing::Test {
 protected:
  CffsCrashTest()
      : machine_(&engine_, hw::MachineConfig{
                               .mem_frames = 4096,
                               .disks = {hw::DiskGeometry{.num_blocks = 8192}}}) {}

  std::unique_ptr<XnBackend> MakeBackend(xn::Xn* xn, uint16_t fsid = 1) {
    return std::make_unique<XnBackend>(
        xn, xn::Caps{xok::Capability::For({xok::kCapFs, fsid})}, SpinEngine(engine_), [this] {
          auto f = machine_.mem().Alloc();
          return f.ok() ? *f : hw::kInvalidFrame;
        });
  }

  sim::Engine engine_;
  hw::Machine machine_;
};

TEST_F(CffsCrashTest, SyncedDataSurvivesCrash) {
  auto xn = std::make_unique<xn::Xn>(&machine_, &machine_.disk());
  xn->Format();
  ASSERT_EQ(xn->Attach(), Status::kOk);
  auto backend = MakeBackend(xn.get());
  Cffs fs(backend.get(), CffsOptions{.fsid = 1});
  ASSERT_EQ(fs.Mkfs(), Status::kOk);

  std::vector<uint8_t> data(10000);
  for (size_t i = 0; i < data.size(); ++i) {
    data[i] = static_cast<uint8_t>(i * 3);
  }
  ASSERT_EQ(fs.Mkdir("/dir", 7), Status::kOk);
  auto h = fs.Create("/dir/file", 7);
  ASSERT_TRUE(h.ok());
  ASSERT_TRUE(fs.Write(*h, 0, data, 7).ok());
  ASSERT_EQ(fs.Sync(), Status::kOk);

  // Write more but crash before syncing: the new file must be garbage-collected.
  auto h2 = fs.Create("/dir/lost", 7);
  ASSERT_TRUE(h2.ok());
  ASSERT_TRUE(fs.Write(*h2, 0, data, 7).ok());

  xn->Crash();
  auto xn2 = std::make_unique<xn::Xn>(&machine_, &machine_.disk());
  ASSERT_EQ(xn2->Attach(), Status::kOk);
  EXPECT_TRUE(xn2->recovered_after_crash());

  auto backend2 = MakeBackend(xn2.get());
  Cffs fs2(backend2.get(), CffsOptions{.fsid = 1});
  ASSERT_EQ(fs2.Mount(), Status::kOk);

  auto hh = fs2.Open("/dir/file", false, 7);
  ASSERT_TRUE(hh.ok());
  std::vector<uint8_t> back(data.size());
  auto n = fs2.Read(*hh, 0, back);
  ASSERT_TRUE(n.ok());
  EXPECT_EQ(back, data);
}

TEST_F(CffsCrashTest, TwoLibFsesShareOneDisk) {
  // Two different file systems (different fsids and roots) multiplex one XN disk —
  // the core claim of Sec. 4. A third "foreign" FS cannot touch their blocks.
  auto xn = std::make_unique<xn::Xn>(&machine_, &machine_.disk());
  xn->Format();
  ASSERT_EQ(xn->Attach(), Status::kOk);

  auto b1 = MakeBackend(xn.get(), 1);
  Cffs fs1(b1.get(), CffsOptions{.fsid = 1, .root_name = "alpha"});
  ASSERT_EQ(fs1.Mkfs(), Status::kOk);

  auto b2 = MakeBackend(xn.get(), 2);
  Cffs fs2(b2.get(), CffsOptions{.fsid = 2, .root_name = "beta"});
  ASSERT_EQ(fs2.Mkfs(), Status::kOk);

  std::vector<uint8_t> d1(5000, 0x11);
  std::vector<uint8_t> d2(5000, 0x22);
  auto h1 = fs1.Create("/a", 7);
  auto h2 = fs2.Create("/b", 7);
  ASSERT_TRUE(h1.ok());
  ASSERT_TRUE(h2.ok());
  ASSERT_TRUE(fs1.Write(*h1, 0, d1, 7).ok());
  ASSERT_TRUE(fs2.Write(*h2, 0, d2, 7).ok());
  ASSERT_EQ(fs1.Sync(), Status::kOk);
  ASSERT_EQ(fs2.Sync(), Status::kOk);

  // Disjoint blocks.
  auto blocks1 = fs1.FileBlocks(*h1);
  auto blocks2 = fs2.FileBlocks(*h2);
  ASSERT_TRUE(blocks1.ok());
  ASSERT_TRUE(blocks2.ok());
  for (hw::BlockId x : *blocks1) {
    for (hw::BlockId y : *blocks2) {
      EXPECT_NE(x, y);
    }
  }

  // A principal holding only fsid-2 credentials cannot modify fs1's metadata: the
  // acl-uf rejects it at the XN boundary, not in library code.
  xn::Mods evil = {{0, {9, 9, 9, 9}}};
  EXPECT_EQ(xn->Modify(fs1.root_block(), evil,
                       xn::Caps{xok::Capability::For({xok::kCapFs, 2})}),
            Status::kPermissionDenied);
}

}  // namespace
}  // namespace exo::fs
