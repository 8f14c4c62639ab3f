// Integration tests: booted systems (all four flavors), processes, pipes, and the
// real applications running end-to-end over the full stack.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <functional>
#include <map>
#include <memory>
#include <span>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "apps/lz.h"
#include "apps/unix_apps.h"
#include "apps/workload.h"
#include "apps/xcp.h"
#include "exos/system.h"
#include "sim/rng.h"

namespace exo::os {
namespace {

hw::MachineConfig TestMachine() {
  hw::MachineConfig cfg;
  cfg.mem_frames = 8192;
  cfg.disks = {hw::DiskGeometry{.num_blocks = 16384}};  // 64 MB disk
  return cfg;
}

class OsFlavorTest : public ::testing::TestWithParam<Flavor> {
 protected:
  OsFlavorTest() : machine_(&engine_, TestMachine()) {}

  std::unique_ptr<System> BootSystem(SystemOptions opts = {}) {
    auto sys = std::make_unique<System>(&machine_, GetParam(), opts);
    EXO_CHECK_EQ(sys->Boot(), Status::kOk);
    return sys;
  }

  sim::Engine engine_;
  hw::Machine machine_;
};

TEST_P(OsFlavorTest, FileRoundTripThroughProcess) {
  auto sys = BootSystem();
  std::vector<uint8_t> got;
  sys->SpawnInit("sh", [&](UnixEnv& env) {
    std::vector<uint8_t> data(10000);
    for (size_t i = 0; i < data.size(); ++i) {
      data[i] = static_cast<uint8_t>(i * 7);
    }
    auto fd = env.Open("/data.bin", true);
    ASSERT_TRUE(fd.ok());
    ASSERT_TRUE(env.Write(*fd, data).ok());
    ASSERT_EQ(env.Close(*fd), Status::kOk);

    auto fd2 = env.Open("/data.bin", false);
    ASSERT_TRUE(fd2.ok());
    got.resize(data.size());
    auto n = env.Read(*fd2, got);
    ASSERT_TRUE(n.ok());
    got.resize(*n);
    EXPECT_EQ(got, data);
  });
  sys->Run();
  EXPECT_EQ(got.size(), 10000u);
}

TEST_P(OsFlavorTest, SpawnAndWaitChildren) {
  auto sys = BootSystem();
  std::vector<int> order;
  sys->SpawnInit("sh", [&](UnixEnv& env) {
    auto pid = env.Spawn("wc", [&](UnixEnv& child) {
      order.push_back(1);
      child.Compute(10'000);
    });
    ASSERT_TRUE(pid.ok());
    auto code = env.Wait(*pid);
    ASSERT_TRUE(code.ok());
    order.push_back(2);
  });
  sys->Run();
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
  EXPECT_EQ(sys->proc_records().size(), 2u);
}

TEST_P(OsFlavorTest, PipePingPong) {
  auto sys = BootSystem();
  int rounds_done = 0;
  sys->SpawnInit("sh", [&](UnixEnv& env) {
    auto ab = env.Pipe();
    auto ba = env.Pipe();
    ASSERT_TRUE(ab.ok());
    ASSERT_TRUE(ba.ok());
    auto child = env.Spawn("wc", [&, ab = *ab, ba = *ba](UnixEnv& c) {
      std::vector<uint8_t> buf(1);
      for (int i = 0; i < 10; ++i) {
        auto n = c.Read(ab.first, buf);
        ASSERT_TRUE(n.ok());
        ASSERT_EQ(*n, 1u);
        buf[0] += 1;
        ASSERT_TRUE(c.Write(ba.second, buf).ok());
      }
    });
    ASSERT_TRUE(child.ok());
    std::vector<uint8_t> buf = {0};
    for (int i = 0; i < 10; ++i) {
      ASSERT_TRUE(env.Write(ab->second, buf).ok());
      auto n = env.Read(ba->first, buf);
      ASSERT_TRUE(n.ok());
      ++rounds_done;
    }
    EXPECT_EQ(buf[0], 10);
    EXPECT_TRUE(env.Wait(*child).ok());
  });
  sys->Run();
  EXPECT_EQ(rounds_done, 10);
}

TEST_P(OsFlavorTest, PipeEofAfterWriterCloses) {
  auto sys = BootSystem();
  uint32_t eof_read = 99;
  sys->SpawnInit("sh", [&](UnixEnv& env) {
    auto p = env.Pipe();
    ASSERT_TRUE(p.ok());
    std::vector<uint8_t> data = {1, 2, 3};
    ASSERT_TRUE(env.Write(p->second, data).ok());
    ASSERT_EQ(env.Close(p->second), Status::kOk);
    std::vector<uint8_t> buf(8);
    auto n = env.Read(p->first, buf);
    ASSERT_TRUE(n.ok());
    EXPECT_EQ(*n, 3u);
    auto n2 = env.Read(p->first, buf);
    ASSERT_TRUE(n2.ok());
    eof_read = *n2;
  });
  sys->Run();
  EXPECT_EQ(eof_read, 0u);
}

TEST_P(OsFlavorTest, GzipGunzipRoundTripOnRealFs) {
  auto sys = BootSystem();
  int diffs = -1;
  sys->SpawnInit("sh", [&](UnixEnv& env) {
    apps::FileSpec spec{.path = "x.c", .size = 60'000, .seed = 5};
    auto content = apps::FileContent(spec);
    auto fd = env.Open("/x.c", true);
    ASSERT_TRUE(fd.ok());
    ASSERT_TRUE(env.Write(*fd, content).ok());
    ASSERT_EQ(env.Close(*fd), Status::kOk);
    ASSERT_EQ(apps::Gzip(env, "/x.c", "/x.c.gz"), Status::kOk);
    // Real compression on C-like text should shrink meaningfully.
    auto st = env.Stat("/x.c.gz");
    ASSERT_TRUE(st.ok());
    EXPECT_LT(st->size * 2, content.size());
    ASSERT_EQ(apps::Gunzip(env, "/x.c.gz", "/x2.c"), Status::kOk);
    auto d = apps::DiffFile(env, "/x.c", "/x2.c");
    ASSERT_TRUE(d.ok());
    diffs = *d;
  });
  sys->Run();
  EXPECT_EQ(diffs, 0);
}

TEST_P(OsFlavorTest, PaxArchiveRoundTripsTree) {
  auto sys = BootSystem();
  int diffs = -1;
  sys->SpawnInit("sh", [&](UnixEnv& env) {
    apps::TreeSpec tree;
    tree.dirs = {"a", "a/b"};
    for (int i = 0; i < 6; ++i) {
      tree.files.push_back({"a/f" + std::to_string(i) + ".c",
                            static_cast<uint32_t>(3000 + i * 1700),
                            static_cast<uint64_t>(i + 1)});
      tree.files.push_back({"a/b/g" + std::to_string(i) + ".h",
                            static_cast<uint32_t>(900 + i * 211),
                            static_cast<uint64_t>(i + 100)});
    }
    ASSERT_EQ(apps::WriteTree(env, tree, "/t1"), Status::kOk);
    ASSERT_EQ(apps::PaxWrite(env, "/t1", "/t.pax"), Status::kOk);
    ASSERT_EQ(apps::PaxRead(env, "/t.pax", "/t2"), Status::kOk);
    auto d = apps::DiffTree(env, "/t1", "/t2");
    ASSERT_TRUE(d.ok());
    diffs = *d;
    // And rm -r works.
    ASSERT_EQ(apps::RmTree(env, "/t2"), Status::kOk);
    EXPECT_EQ(env.Stat("/t2").status(), Status::kNotFound);
  });
  sys->Run();
  EXPECT_EQ(diffs, 0);
}

TEST_P(OsFlavorTest, WcGrepCksum) {
  auto sys = BootSystem();
  sys->SpawnInit("sh", [&](UnixEnv& env) {
    std::string text = "alpha\nbeta symbol\ngamma symbol\n";
    auto fd = env.Open("/w.txt", true);
    ASSERT_TRUE(fd.ok());
    ASSERT_TRUE(env.Write(*fd, std::span<const uint8_t>(
                                    reinterpret_cast<const uint8_t*>(text.data()),
                                    text.size())).ok());
    env.Close(*fd);
    auto lines = apps::Wc(env, "/w.txt");
    ASSERT_TRUE(lines.ok());
    EXPECT_EQ(*lines, 3u);
    auto hits = apps::Grep(env, "symbol", "/w.txt");
    ASSERT_TRUE(hits.ok());
    EXPECT_EQ(*hits, 2u);
  });
  sys->Run();
}

TEST_P(OsFlavorTest, CpOntoAFullDiskFailsCleanly) {
  // An 8 MB disk holding a 4 MB file has no room for its copy, so the copy runs
  // out of blocks part way through a batch of block allocations: every flavor
  // must report kOutOfResources, close Cp's descriptors and stay usable.
  hw::MachineConfig cfg = TestMachine();
  cfg.disks = {hw::DiskGeometry{.num_blocks = 2048}};
  sim::Engine engine;
  hw::Machine machine(&engine, cfg);
  System sys(&machine, GetParam());
  ASSERT_EQ(sys.Boot(), Status::kOk);
  sys.SpawnInit("sh", [&](UnixEnv& env) {
    ASSERT_EQ(apps::WriteFile(env, "/big", apps::FileContent({"big", 4 << 20, 1})), Status::kOk);
    ASSERT_EQ(apps::WriteFile(env, "/small", apps::FileContent({"small", 9'000, 2})),
              Status::kOk);
    // Descriptors are numbered in order and never reused, so Cp's two are the
    // probe's successors.
    auto probe = env.Open("/small", false);
    ASSERT_TRUE(probe.ok());
    ASSERT_EQ(env.Close(*probe), Status::kOk);
    EXPECT_EQ(apps::Cp(env, "/big", "/big.copy"), Status::kOutOfResources);
    EXPECT_EQ(env.FStat(*probe + 1).status(), Status::kNotFound);  // Cp's input
    EXPECT_EQ(env.FStat(*probe + 2).status(), Status::kNotFound);  // Cp's output

    ASSERT_EQ(env.Unlink("/big.copy"), Status::kOk);
    ASSERT_EQ(apps::Cp(env, "/small", "/small.copy"), Status::kOk);
    auto d = apps::DiffFile(env, "/small", "/small.copy");
    ASSERT_TRUE(d.ok());
    EXPECT_EQ(*d, 0);
  });
  sys.Run();
}

INSTANTIATE_TEST_SUITE_P(Flavors, OsFlavorTest,
                         ::testing::Values(Flavor::kXokExos, Flavor::kOpenBsdCffs,
                                           Flavor::kOpenBsd, Flavor::kFreeBsd),
                         [](const ::testing::TestParamInfo<Flavor>& info) {
                           switch (info.param) {
                             case Flavor::kXokExos:
                               return "XokExos";
                             case Flavor::kOpenBsdCffs:
                               return "OpenBsdCffs";
                             case Flavor::kOpenBsd:
                               return "OpenBsd";
                             case Flavor::kFreeBsd:
                               return "FreeBsd";
                           }
                           return "unknown";
                         });

TEST(OsCostTest, GetPidMatchesPaperCalibration) {
  // Sec. 7.1: 270 cycles on OpenBSD, 100 as a procedure call into ExOS.
  auto measure = [](Flavor f) {
    sim::Engine engine;
    hw::Machine machine(&engine, TestMachine());
    System sys(&machine, f);
    EXO_CHECK_EQ(sys.Boot(), Status::kOk);
    sim::Cycles per_call = 0;
    sys.SpawnInit("sh", [&](UnixEnv& env) {
      sim::Cycles t0 = env.Now();
      for (int i = 0; i < 1000; ++i) {
        env.GetPid();
      }
      per_call = (env.Now() - t0) / 1000;
    });
    sys.Run();
    return per_call;
  };
  EXPECT_EQ(measure(Flavor::kXokExos), 100u);
  EXPECT_EQ(measure(Flavor::kOpenBsd), 270u);
}

TEST(OsCostTest, ExosForkSlowerThanBsdFork) {
  // Sec. 6.2: ExOS fork ~6 ms; OpenBSD < 1 ms.
  auto measure = [](Flavor f) {
    sim::Engine engine;
    hw::Machine machine(&engine, TestMachine());
    System sys(&machine, f);
    EXO_CHECK_EQ(sys.Boot(), Status::kOk);
    sim::Cycles total = 0;
    sys.SpawnInit("gcc", [&](UnixEnv& env) {
      sim::Cycles t0 = env.Now();
      auto pid = env.Fork([](UnixEnv&) {});
      total = env.Now() - t0;  // the fork path itself, before the child runs
      env.Wait(*pid);
    });
    sys.Run();
    return total;
  };
  sim::Cycles exos = measure(Flavor::kXokExos);
  sim::Cycles bsd = measure(Flavor::kOpenBsd);
  EXPECT_GT(exos, bsd * 2);  // ExOS fork is substantially more expensive
  EXPECT_GT(exos, 800'000u);  // ~>4 ms at 200 MHz for a large program
}

TEST(OsCostTest, ProtectionModeAddsSyscalls) {
  // Sec. 6.3: shared-state protection inserts syscalls before shared writes.
  auto syscalls = [](bool prot) {
    sim::Engine engine;
    hw::Machine machine(&engine, TestMachine());
    SystemOptions opts;
    opts.protected_shared_state = prot;
    System sys(&machine, Flavor::kXokExos, opts);
    EXO_CHECK_EQ(sys.Boot(), Status::kOk);
    sys.SpawnInit("sh", [&](UnixEnv& env) {
      auto fd = env.Open("/f", true);
      std::vector<uint8_t> chunk(4096, 1);
      for (int i = 0; i < 50; ++i) {
        env.Write(*fd, chunk);
      }
      env.Close(*fd);
    });
    sys.Run();
    return sys.syscall_count();
  };
  uint64_t with = syscalls(true);
  uint64_t without = syscalls(false);
  EXPECT_GT(with, without + 3 * 50);  // >=3 per fd-table write
}

TEST(OsCostTest, TspAndSorChargeTheirModeledCycles) {
  // The figure 4/5 CPU-bound jobs, with the benches' arguments: each tsp pass
  // charges ncities^2 * 18 cycles and each sor sweep n^2 * 14. Run alone in a
  // spawned ExOS process, the job's clock advances by at least that much.
  struct Job {
    const char* program;
    Result<sim::Cycles> (*run)(UnixEnv&);
    sim::Cycles want;
  };
  const Job jobs[] = {
      {"tsp", [](UnixEnv& e) { return apps::Tsp(e, 500, 30, 7); }, 30ull * 500 * 500 * 18},
      {"sor", [](UnixEnv& e) { return apps::Sor(e, 300, 60); }, 60ull * 300 * 300 * 14},
  };
  for (const Job& job : jobs) {
    sim::Engine engine;
    hw::Machine machine(&engine, TestMachine());
    System sys(&machine, Flavor::kXokExos);
    EXO_CHECK_EQ(sys.Boot(), Status::kOk);
    Result<sim::Cycles> charged = Status::kNotFound;
    sim::Cycles elapsed = 0;
    sys.SpawnInit("sh", [&](UnixEnv& env) {
      auto pid = env.Spawn(job.program, [&](UnixEnv& child) {
        const sim::Cycles t0 = child.Now();
        charged = job.run(child);
        elapsed = child.Now() - t0;
      });
      ASSERT_TRUE(pid.ok());
      ASSERT_TRUE(env.Wait(*pid).ok());
    });
    sys.Run();
    ASSERT_TRUE(charged.ok()) << job.program;
    EXPECT_EQ(*charged, job.want) << job.program;
    EXPECT_GE(elapsed, job.want) << job.program;
  }
}

// XN replays an owns-udf run when one of its recent runs saw the same template
// and image bytes. A replay still counts as a run, so udf_runs is the 347 it
// was before the memo existed, and both counts are exact: the memo changes
// only host time. Growing a file by a batch of blocks runs the owning
// metadata block's owns-udf before and after the batch's Alloc and once per
// block mapped: most of those runs see an image that an earlier run saw.
TEST(XnMemoTest, WritingAFileCountsRunsAndReplaysExactly) {
  sim::Engine engine;
  hw::Machine machine(&engine, TestMachine());
  System sys(&machine, Flavor::kXokExos);
  ASSERT_EQ(sys.Boot(), Status::kOk);
  const std::vector<uint8_t> content =
      apps::FileContent({.path = "memo", .size = 512 * 1024, .seed = 3});
  xn::XnStats before;
  xn::XnStats after;
  sys.SpawnInit("sh", [&](UnixEnv& env) {
    before = sys.xn()->stats();
    auto fd = env.Open("/f.txt", /*create=*/true);
    ASSERT_TRUE(fd.ok());
    const std::span<const uint8_t> data(content);
    for (size_t off = 0; off < data.size(); off += apps::kIoChunk) {
      ASSERT_TRUE(env.Write(*fd, data.subspan(off, apps::kIoChunk)).ok());
    }
    ASSERT_EQ(env.Close(*fd), Status::kOk);
    ASSERT_EQ(env.Sync(), Status::kOk);
    after = sys.xn()->stats();
  });
  sys.Run();
  EXPECT_EQ(after.udf_runs - before.udf_runs, 347u);
  EXPECT_EQ(after.owns_memo_hits - before.owns_memo_hits, 161u);
}

// ---- The Figure 4 and 5 pools check what their jobs read ----

const apps::Job& JobLabeled(const std::vector<apps::Job>& pool, const std::string& label) {
  auto it = std::find_if(pool.begin(), pool.end(),
                         [&](const apps::Job& j) { return j.label == label; });
  EXO_CHECK(it != pool.end());
  return *it;
}

// Rewrites `path` in place with as many bytes of 'x'.
void Scribble(UnixEnv& env, const std::string& path) {
  auto st = env.Stat(path);
  ASSERT_TRUE(st.ok());
  ASSERT_EQ(apps::WriteFile(env, path, std::vector<uint8_t>(st->size, 'x')), Status::kOk);
}

TEST(PoolAnswerTest, Fig4JobsRejectOtherInputs) {
  sim::Engine engine;
  hw::Machine machine(&engine, TestMachine());
  System sys(&machine, Flavor::kXokExos);
  ASSERT_EQ(sys.Boot(), Status::kOk);
  const apps::SharedInputSpecs inputs = apps::Fig4Inputs();
  const std::vector<apps::Job> pool = apps::Fig4Pool(inputs);
  sys.SpawnInit("sh", [&](UnixEnv& env) {
    ASSERT_EQ(apps::MakeSharedInputs(env, inputs), Status::kOk);
    for (const char* label : {"grep", "wc", "cksum"}) {
      EXPECT_EQ(JobLabeled(pool, label).body(env, 0), Status::kOk) << label;
    }
    Scribble(env, "/shared/big.txt");
    Scribble(env, "/shared/t/s0.c");
    for (const char* label : {"grep", "wc", "cksum"}) {
      EXPECT_EQ(JobLabeled(pool, label).body(env, 0), Status::kCorrupted) << label;
    }
  });
  sys.Run();
}

TEST(PoolAnswerTest, Fig5DiffRejectsUnequalPair) {
  sim::Engine engine;
  hw::Machine machine(&engine, TestMachine());
  System sys(&machine, Flavor::kXokExos);
  ASSERT_EQ(sys.Boot(), Status::kOk);
  const std::vector<apps::Job> pool = apps::Fig5Pool();
  sys.SpawnInit("sh", [&](UnixEnv& env) {
    ASSERT_EQ(apps::MakeSharedInputs(env, apps::Fig5Inputs()), Status::kOk);
    EXPECT_EQ(JobLabeled(pool, "diff").body(env, 0), Status::kOk);
    Scribble(env, "/shared/five.b");
    EXPECT_EQ(JobLabeled(pool, "diff").body(env, 0), Status::kCorrupted);
  });
  sys.Run();
}

// ---- wc, grep and cksum scan each read in place ----

// The answers of plain per-byte loops.
uint64_t HostLines(std::span<const uint8_t> bytes) {
  uint64_t lines = 0;
  for (uint8_t c : bytes) {
    lines += c == '\n' ? 1 : 0;
  }
  return lines;
}

uint64_t HostHits(std::span<const uint8_t> bytes, const std::string& pattern) {
  uint64_t hits = 0;
  for (size_t i = 0; !pattern.empty() && i + pattern.size() <= bytes.size(); ++i) {
    hits += std::equal(pattern.begin(), pattern.end(), bytes.begin() + static_cast<long>(i))
                ? 1
                : 0;
  }
  return hits;
}

uint64_t HostSum(uint64_t sum, std::span<const uint8_t> bytes) {
  for (uint8_t c : bytes) {
    sum = sum * 131 + c;
  }
  return sum;
}

// `n` seeded bytes: newlines, "symbol" about once in 13 bytes, and bytes whose
// xor with '\n' sets only a lane's top bit (0x8a) or is all ones (0xf5), which a
// word-at-a-time newline count must not take for newlines.
std::vector<uint8_t> ScanBytes(size_t n, uint64_t seed) {
  static constexpr uint8_t kAlphabet[] = {'\n', 's', 'y', 'a', 0x8a, 0xf5, 0x00, 0xff};
  sim::Rng rng(seed);
  std::vector<uint8_t> out;
  while (out.size() < n) {
    if (rng.Below(8) == 0) {
      const std::string word = "symbol";
      out.insert(out.end(), word.begin(), word.end());
    } else {
      out.push_back(kAlphabet[rng.Below(sizeof(kAlphabet))]);
    }
  }
  out.resize(n);
  return out;
}

// Boots Xok/ExOS and runs `body` as its init process.
void OnXokExos(const std::function<void(UnixEnv&)>& body) {
  sim::Engine engine;
  hw::Machine machine(&engine, TestMachine());
  System sys(&machine, Flavor::kXokExos);
  ASSERT_EQ(sys.Boot(), Status::kOk);
  sys.SpawnInit("sh", body);
  sys.Run();
}

TEST(ScanTest, WcGrepCksumMatchPerByteLoops) {
  OnXokExos([](UnixEnv& env) {
    // Sizes around a word, one read and two reads.
    for (size_t n : {0, 1, 7, 8, 9, 65'535, 65'536, 65'537, 131'077}) {
      SCOPED_TRACE(n);
      const std::vector<uint8_t> bytes = ScanBytes(n, n + 1);
      const std::string dir = "/n" + std::to_string(n);
      ASSERT_EQ(env.Mkdir(dir), Status::kOk);
      ASSERT_EQ(apps::WriteFile(env, dir + "/f", bytes), Status::kOk);
      auto lines = apps::Wc(env, dir + "/f");
      ASSERT_TRUE(lines.ok());
      EXPECT_EQ(*lines, HostLines(bytes));
      for (const std::string pattern : {"symbol", "s", "\n\n"}) {
        auto hits = apps::Grep(env, pattern, dir + "/f");
        ASSERT_TRUE(hits.ok());
        EXPECT_EQ(*hits, HostHits(bytes, pattern)) << pattern;
      }
      auto sum = apps::Cksum(env, dir, 1);
      ASSERT_TRUE(sum.ok());
      EXPECT_EQ(*sum, HostSum(0, bytes));
    }
    // Newlines only: every byte lane of the word-at-a-time count fills up.
    const std::vector<uint8_t> newlines(apps::kIoChunk + 1, '\n');
    ASSERT_EQ(apps::WriteFile(env, "/newlines", newlines), Status::kOk);
    auto lines = apps::Wc(env, "/newlines");
    ASSERT_TRUE(lines.ok());
    EXPECT_EQ(*lines, newlines.size());
  });
}

TEST(ScanTest, GrepCountsAMatchAcrossTwoReadsOnce) {
  OnXokExos([](UnixEnv& env) {
    for (size_t split = 1; split <= 5; ++split) {
      SCOPED_TRACE(split);  // bytes of the match in the first read
      std::vector<uint8_t> bytes(apps::kIoChunk + 64, 'x');
      const std::string word = "symbol";
      std::copy(word.begin(), word.end(),
                bytes.begin() + static_cast<long>(apps::kIoChunk - split));
      ASSERT_EQ(apps::WriteFile(env, "/straddle", bytes), Status::kOk);
      auto hits = apps::Grep(env, "symbol", "/straddle");
      ASSERT_TRUE(hits.ok());
      EXPECT_EQ(*hits, 1u);
    }
    // Overlapping matches count at every start, on both sides of each read edge.
    ASSERT_EQ(apps::WriteFile(env, "/aaaa", std::vector<uint8_t>(4, 'a')), Status::kOk);
    auto four = apps::Grep(env, "aa", "/aaaa");
    ASSERT_TRUE(four.ok());
    EXPECT_EQ(*four, 3u);
    const std::vector<uint8_t> many(2 * apps::kIoChunk + 3, 'a');
    ASSERT_EQ(apps::WriteFile(env, "/many", many), Status::kOk);
    auto across = apps::Grep(env, "aaaa", "/many");
    ASSERT_TRUE(across.ok());
    EXPECT_EQ(*across, many.size() - 3);
    // A pattern longer than the file and an empty pattern match nowhere.
    auto longer = apps::Grep(env, "aaaaa", "/aaaa");
    ASSERT_TRUE(longer.ok());
    EXPECT_EQ(*longer, 0u);
    auto empty = apps::Grep(env, "", "/aaaa");
    ASSERT_TRUE(empty.ok());
    EXPECT_EQ(*empty, 0u);
  });
}

TEST(ScanTest, CksumChainsFilesAndRoundsInDirectoryOrder) {
  OnXokExos([](UnixEnv& env) {
    const std::map<std::string, std::vector<uint8_t>> files = {{"a", ScanBytes(65'541, 3)},
                                                               {"b", ScanBytes(13, 4)}};
    ASSERT_EQ(env.Mkdir("/two"), Status::kOk);
    for (const auto& [name, bytes] : files) {
      ASSERT_EQ(apps::WriteFile(env, "/two/" + name, bytes), Status::kOk);
    }
    auto entries = env.ReadDir("/two");
    ASSERT_TRUE(entries.ok());
    ASSERT_EQ(entries->size(), 2u);
    uint64_t want = 0;
    for (int r = 0; r < 3; ++r) {
      for (const auto& de : *entries) {
        want = HostSum(want, files.at(de.name));
      }
    }
    auto sum = apps::Cksum(env, "/two", 3);
    ASSERT_TRUE(sum.ok());
    EXPECT_EQ(*sum, want);
  });
}

TEST(ScanTest, SimulatedTimeOfEachScanIsPinned) {
  // How the host scans a read must move no simulated cycle, so each program's
  // time over one 200-KB file is pinned: Open, ceil(n/64 KB)+1 Reads, Close and
  // one TouchData.
  OnXokExos([](UnixEnv& env) {
    ASSERT_EQ(env.Mkdir("/pin"), Status::kOk);
    const apps::FileSpec spec{.path = "pin/f", .size = 200 * 1024, .seed = 5};
    ASSERT_EQ(apps::WriteFile(env, "/pin/f", apps::FileContent(spec)), Status::kOk);
    sim::Cycles t = env.Now();
    const auto elapsed = [&] {
      const sim::Cycles from = t;
      t = env.Now();
      return t - from;
    };
    ASSERT_TRUE(apps::Wc(env, "/pin/f").ok());
    EXPECT_EQ(elapsed(), 475388u) << "wc";
    ASSERT_TRUE(apps::Grep(env, "symbol", "/pin/f").ok());
    EXPECT_EQ(elapsed(), 618748u) << "grep";
    ASSERT_TRUE(apps::Cksum(env, "/pin", 1).ok());
    EXPECT_EQ(elapsed(), 475604u) << "cksum";
  });
}

TEST(ExosRevocationTest, LibOsShedsFramesOnKernelRequest) {
  // ExOS installs a default revocation handler on every process env (Sec. 3.4):
  // cached frames are a performance hint, so a kernel request is met by shedding
  // directly-held references synchronously in the upcall — never by abort.
  sim::Engine engine;
  hw::Machine machine(&engine, TestMachine());
  System sys(&machine, Flavor::kXokExos);
  ASSERT_EQ(sys.Boot(), Status::kOk);
  auto& kernel = sys.kernel();
  uint32_t usage_after = 999;
  bool done = false;
  xok::EnvId hog_env = xok::kInvalidEnv;
  sys.SpawnInit("hog", [&](UnixEnv&) {
    hog_env = kernel.current_id();
    for (uint16_t i = 0; i < 8; ++i) {
      ASSERT_TRUE(kernel.SysFrameAlloc(0, xok::CapName{xok::kCapUsers, 7, i}).ok());
    }
    xok::WakeupPredicate p;
    p.host = [&] { return done; };
    kernel.SysSleep(std::move(p));
  });
  sys.SpawnInit("revoker", [&](UnixEnv&) {
    ASSERT_EQ(kernel.SysRevoke(hog_env, xok::RevokeResource::kFrames, 3, 1'000'000,
                               xok::kCredAny),
              Status::kOk);
    usage_after = kernel.env(hog_env).usage.frames;  // shed during the upcall
    done = true;
  });
  sys.Run();
  EXPECT_LE(usage_after, 3u);
  EXPECT_GE(machine.counters().Get("xok.revocations_complied"), 1u);
  EXPECT_EQ(machine.counters().Get("xok.env_aborts"), 0u);
  EXPECT_EQ(kernel.CheckInvariants(), "");
}

TEST(XcpTest, ZeroTouchCopyIsCorrectAndFaster) {
  sim::Engine engine;
  hw::Machine machine(&engine, TestMachine());
  System sys(&machine, Flavor::kXokExos);
  ASSERT_EQ(sys.Boot(), Status::kOk);

  std::vector<std::string> srcs;
  int diffs = -1;
  sim::Cycles cp_time = 0;
  sim::Cycles xcp_time = 0;
  sys.SpawnInit("sh", [&](UnixEnv& env) {
    ASSERT_EQ(env.Mkdir("/src"), Status::kOk);
    for (int i = 0; i < 8; ++i) {
      apps::FileSpec spec{.path = "f", .size = 40'000,
                          .seed = static_cast<uint64_t>(i + 1)};
      auto content = apps::FileContent(spec);
      std::string p = "/src/f" + std::to_string(i);
      auto fd = env.Open(p, true);
      ASSERT_TRUE(fd.ok());
      ASSERT_TRUE(env.Write(*fd, content).ok());
      env.Close(*fd);
      srcs.push_back(p);
    }
    ASSERT_EQ(env.Sync(), Status::kOk);

    sim::Cycles t0 = env.Now();
    ASSERT_EQ(env.Mkdir("/cpd"), Status::kOk);
    for (const auto& s : srcs) {
      ASSERT_EQ(apps::Cp(env, s, "/cpd/" + s.substr(5)), Status::kOk);
    }
    cp_time = env.Now() - t0;

    t0 = env.Now();
    auto st = apps::Xcp(sys, env, srcs, "/xcpd");
    ASSERT_TRUE(st.ok()) << StatusName(st.status());
    EXPECT_EQ(st->blocks_copied, 8u * 10u);
    xcp_time = env.Now() - t0;

    auto d = apps::DiffTree(env, "/cpd", "/xcpd");
    ASSERT_TRUE(d.ok());
    diffs = *d;
  });
  sys.Run();
  EXPECT_EQ(diffs, 0);
  EXPECT_LT(xcp_time, cp_time);  // zero-touch beats read/write copy (in-core case)
}

// Up to 100 KB mixing compressible runs and random bytes.
std::vector<uint8_t> LzMix(uint64_t seed) {
  sim::Rng rng(seed);
  std::vector<uint8_t> data(rng.Below(100'000));
  for (size_t i = 0; i < data.size(); ++i) {
    data[i] = (i / 64) % 3 == 0 ? static_cast<uint8_t>(rng.Next())
                                : static_cast<uint8_t>(i % 17);
  }
  return data;
}

// LZ codec properties on randomized inputs.
class LzProperty : public ::testing::TestWithParam<int> {};

TEST_P(LzProperty, RoundTripsArbitraryData) {
  const std::vector<uint8_t> data = LzMix(static_cast<uint64_t>(GetParam()));
  auto packed = apps::LzCompress(data);
  bool ok = true;
  auto back = apps::LzDecompress(packed, &ok);
  ASSERT_TRUE(ok);
  EXPECT_EQ(back, data);
}

INSTANTIATE_TEST_SUITE_P(Seeds, LzProperty, ::testing::Range(1, 12));

TEST(LzTest, CompressesSourceText) {
  apps::FileSpec spec{.path = "a.c", .size = 100'000, .seed = 3};
  auto content = apps::FileContent(spec);
  auto packed = apps::LzCompress(content);
  EXPECT_LT(packed.size() * 2, content.size());  // at least 2:1 on C text
}

uint64_t Fnv1a(std::span<const uint8_t> bytes) {
  uint64_t h = 14695981039346656037ull;
  for (uint8_t c : bytes) {
    h = (h ^ c) * 1099511628211ull;
  }
  return h;
}

// gzip's output is part of every fig2/fig4 number (its size is written, read
// back and charged), so the encoder's bytes are pinned, not just its round
// trip. The digests were recorded from the hash-map match table that the flat
// table replaced.
TEST(LzTest, CompressedBytesMatchRecordedDigests) {
  struct Case {
    const char* name;
    std::vector<uint8_t> input;
    uint64_t digest;
  };
  std::vector<Case> cases;
  cases.push_back({"fig4 2 MB text",
                   apps::FileContent({.path = "big", .size = 2'000'000, .seed = 99}),
                   0x9f26f74314cfce29});
  cases.push_back({"mix 1", LzMix(1), 0xc0027fa7ef85a9ee});
  cases.push_back({"mix 2", LzMix(2), 0x9f607a4835021a8b});
  cases.push_back({"mix 3", LzMix(3), 0xb8b06cbadbd668c3});
  cases.push_back({"200 KB of one byte", std::vector<uint8_t>(200'000, 'e'), 0xb21b5b4fe8cad911});
  // Noise does not compress: each block takes the stored-block rule.
  std::vector<uint8_t> noise(300'000);
  sim::Rng rng(5);
  for (uint8_t& b : noise) {
    b = static_cast<uint8_t>(rng.Next());
  }
  cases.push_back({"300 KB of Rng bytes", noise, 0x233132abfd303b40});
  // Random a/c/g/t text compresses, so these blocks keep their token stream,
  // and it holds none of the upper-case phrases planted in it. One phrase recurs 39,000 bytes after its first copy (past
  // the 32-KB window), 20,000 after that (a match), then straddling the first
  // 64-KB block boundary and just past it (each block's table starts empty).
  std::vector<uint8_t> acgt(140'000);
  for (uint8_t& b : acgt) {
    b = static_cast<uint8_t>("acgt"[rng.Below(4)]);
  }
  std::vector<uint8_t> far = acgt;
  const std::string phrase = "EXOKERNEL-LZ-FAR";
  for (size_t at : {1'000, 40'000, 60'000, 65'530, 66'000, 100'000}) {
    std::copy(phrase.begin(), phrase.end(), far.begin() + static_cast<long>(at));
  }
  cases.push_back({"phrase repeated past the window", far, 0x47a3b5fe5af37bb3});
  // One phrase repeated exactly 32,768 bytes later (the farthest match the
  // window allows), another 32,769 bytes later (just past it).
  std::vector<uint8_t> edge(acgt.begin(), acgt.begin() + 50'000);
  const std::string near = "NEAR-WINDOW-EDGE";
  const std::string past = "PAST-WINDOW-EDGE";
  std::copy(near.begin(), near.end(), edge.begin() + 1'000);
  std::copy(near.begin(), near.end(), edge.begin() + 1'000 + 32'768);
  std::copy(past.begin(), past.end(), edge.begin() + 2'000);
  std::copy(past.begin(), past.end(), edge.begin() + 2'000 + 32'769);
  cases.push_back({"phrases at the window's edge", edge, 0x83485007982f3878});

  for (const Case& c : cases) {
    const uint64_t got = Fnv1a(apps::LzCompress(c.input));
    EXPECT_EQ(got, c.digest) << c.name << ": 0x" << std::hex << got;
  }
}

TEST(LzTest, RejectsCorruptStream) {
  std::vector<uint8_t> data(5000, 42);
  auto packed = apps::LzCompress(data);
  packed[10] ^= 0xff;
  bool ok = true;
  auto out = apps::LzDecompress(packed, &ok);
  // Either detected as malformed or (rarely) decodes to different bytes.
  EXPECT_TRUE(!ok || out != data);
}

// The per-byte codec that src/apps/lz.cc replaced, kept as the reference for
// the differential tests below: its encoder fixes the bytes gzip must emit,
// and its decoder fixes which streams are accepted and what they decode to.
// One change: the decoder's `reserve` is capped at what the stream could
// make, so a corrupted size header cannot make a test allocate 4 GiB. A
// reserve never changes what it returns.
namespace ref_lz {

constexpr uint32_t kWindow = 32768;
constexpr uint32_t kMinMatch = 4;
constexpr uint32_t kMaxMatch = 255;
constexpr uint8_t kBlockCompressed = 1;
constexpr uint8_t kBlockStored = 0;
constexpr uint32_t kBlockSize = 65536;
constexpr uint32_t kTableSlots = 2 * kBlockSize;
constexpr uint16_t kEmptySlot = 0xFFFF;

void PutU32(std::vector<uint8_t>& out, uint32_t v) {
  for (int i = 0; i < 4; ++i) {
    out.push_back(static_cast<uint8_t>(v >> (8 * i)));
  }
}

uint32_t GetU32(std::span<const uint8_t> in, size_t off) {
  return static_cast<uint32_t>(in[off]) | (static_cast<uint32_t>(in[off + 1]) << 8) |
         (static_cast<uint32_t>(in[off + 2]) << 16) |
         (static_cast<uint32_t>(in[off + 3]) << 24);
}

uint32_t Load4(std::span<const uint8_t> in, size_t i) {
  uint32_t v = 0;
  std::memcpy(&v, in.data() + i, 4);
  return v;
}

std::vector<uint8_t> CompressBlock(std::span<const uint8_t> in, std::span<uint16_t> table) {
  std::vector<uint8_t> out;
  std::fill(table.begin(), table.end(), kEmptySlot);
  auto slot_of = [&](uint32_t v) -> uint16_t& {
    uint32_t s = (v * 2654435761u) >> 15;
    while (table[s] != kEmptySlot && Load4(in, table[s]) != v) {
      s = (s + 1) & (kTableSlots - 1);
    }
    return table[s];
  };
  size_t i = 0;
  std::vector<uint8_t> literals;
  auto flush_literals = [&] {
    size_t off = 0;
    while (off < literals.size()) {
      size_t n = std::min<size_t>(literals.size() - off, 127);
      out.push_back(static_cast<uint8_t>(n));
      out.insert(out.end(), literals.begin() + static_cast<long>(off),
                 literals.begin() + static_cast<long>(off + n));
      off += n;
    }
    literals.clear();
  };
  while (i < in.size()) {
    uint32_t best_len = 0;
    uint32_t best_dist = 0;
    if (i + kMinMatch <= in.size()) {
      uint16_t& slot = slot_of(Load4(in, i));
      if (slot != kEmptySlot) {
        uint32_t cand = slot;
        if (cand < i && i - cand <= kWindow) {
          uint32_t len = 0;
          uint32_t max = static_cast<uint32_t>(std::min<size_t>(in.size() - i, kMaxMatch));
          while (len < max && in[cand + len] == in[i + len]) {
            ++len;
          }
          if (len >= kMinMatch) {
            best_len = len;
            best_dist = static_cast<uint32_t>(i - cand);
          }
        }
      }
      slot = static_cast<uint16_t>(i);
    }
    if (best_len >= kMinMatch) {
      flush_literals();
      out.push_back(0x80);
      out.push_back(static_cast<uint8_t>(best_len));
      out.push_back(static_cast<uint8_t>(best_dist));
      out.push_back(static_cast<uint8_t>(best_dist >> 8));
      for (uint32_t k = 1; k < best_len && i + k + kMinMatch <= in.size(); k += 3) {
        slot_of(Load4(in, i + k)) = static_cast<uint16_t>(i + k);
      }
      i += best_len;
    } else {
      literals.push_back(in[i]);
      ++i;
    }
  }
  flush_literals();
  return out;
}

std::vector<uint8_t> Compress(std::span<const uint8_t> input) {
  std::vector<uint8_t> out;
  PutU32(out, static_cast<uint32_t>(input.size()));
  std::vector<uint16_t> table(kTableSlots);
  for (size_t off = 0; off < input.size(); off += kBlockSize) {
    size_t n = std::min<size_t>(kBlockSize, input.size() - off);
    auto block = input.subspan(off, n);
    auto packed = CompressBlock(block, table);
    if (packed.size() < n) {
      out.push_back(kBlockCompressed);
      PutU32(out, static_cast<uint32_t>(packed.size()));
      PutU32(out, static_cast<uint32_t>(n));
      out.insert(out.end(), packed.begin(), packed.end());
    } else {
      out.push_back(kBlockStored);
      PutU32(out, static_cast<uint32_t>(n));
      PutU32(out, static_cast<uint32_t>(n));
      out.insert(out.end(), block.begin(), block.end());
    }
  }
  return out;
}

std::vector<uint8_t> Decompress(std::span<const uint8_t> input, bool* ok) {
  auto fail = [&] {
    *ok = false;
    return std::vector<uint8_t>{};
  };
  *ok = true;
  if (input.size() < 4) {
    return fail();
  }
  uint32_t total = GetU32(input, 0);
  std::vector<uint8_t> out;
  out.reserve(std::min<size_t>(total, 64 * input.size()));
  size_t pos = 4;
  while (out.size() < total) {
    if (pos + 9 > input.size()) {
      return fail();
    }
    uint8_t kind = input[pos];
    uint32_t packed_len = GetU32(input, pos + 1);
    uint32_t raw_len = GetU32(input, pos + 5);
    pos += 9;
    if (pos + packed_len > input.size() || kind > 1 || raw_len > total - out.size() ||
        (kind == kBlockStored && raw_len != packed_len)) {
      return fail();
    }
    if (kind == kBlockStored) {
      out.insert(out.end(), input.begin() + static_cast<long>(pos),
                 input.begin() + static_cast<long>(pos + packed_len));
      pos += packed_len;
      continue;
    }
    size_t end = pos + packed_len;
    size_t produced0 = out.size();
    while (pos < end) {
      uint8_t tok = input[pos];
      if (tok == 0x80) {
        if (pos + 4 > end) {
          return fail();
        }
        uint32_t len = input[pos + 1];
        uint32_t dist = input[pos + 2] | (input[pos + 3] << 8);
        pos += 4;
        if (dist == 0 || dist > out.size()) {
          return fail();
        }
        size_t start = out.size() - dist;
        for (uint32_t k = 0; k < len; ++k) {
          out.push_back(out[start + k]);
        }
      } else if (tok >= 1 && tok <= 127) {
        if (pos + 1 + tok > end) {
          return fail();
        }
        out.insert(out.end(), input.begin() + static_cast<long>(pos + 1),
                   input.begin() + static_cast<long>(pos + 1 + tok));
        pos += 1 + tok;
      } else {
        return fail();
      }
    }
    if (out.size() - produced0 != raw_len) {
      return fail();
    }
  }
  if (pos != input.size()) {
    return fail();
  }
  return out;
}

}  // namespace ref_lz

// Seeded inputs that take each branch of the encoder: matches of every
// length and distance, literal runs longer than a token holds, block and
// window edges, the stored-block rule on both sides of its threshold, and
// inputs too short to probe the table.
std::vector<std::pair<std::string, std::vector<uint8_t>>> LzDifferentialInputs() {
  std::vector<std::pair<std::string, std::vector<uint8_t>>> cases;
  sim::Rng rng(26);
  auto noise = [&](size_t n) {
    std::vector<uint8_t> v(n);
    for (uint8_t& b : v) {
      b = static_cast<uint8_t>(rng.Next());
    }
    return v;
  };
  // Alphabets of 2 to 256 symbols, with copies of earlier spans spliced in
  // near and far, so every match length and distance occurs.
  for (uint32_t alphabet : {2u, 4u, 16u, 64u, 256u}) {
    std::vector<uint8_t> v(30'000 + rng.Below(110'000));
    for (uint8_t& b : v) {
      b = static_cast<uint8_t>('!' + rng.Below(alphabet));
    }
    for (size_t k = 0; k < v.size() / 300; ++k) {
      const size_t len = 1 + rng.Below(300);
      const size_t from = rng.Below(v.size() - len);
      const size_t to = from + 1 + rng.Below(std::min<size_t>(v.size() - len - from, 40'000));
      std::memmove(v.data() + to, v.data() + from, len);
    }
    cases.push_back({"alphabet " + std::to_string(alphabet), v});
  }
  for (size_t n : {0, 1, 3, 4, 5}) {
    cases.push_back({std::to_string(n) + " bytes of one byte", std::vector<uint8_t>(n, 'x')});
    cases.push_back({std::to_string(n) + " bytes of noise", noise(n)});
  }
  // A byte short of one block, one block, and a block and a byte, whose
  // one-byte second block is stored.
  for (size_t n : {65'535, 65'536, 65'537}) {
    cases.push_back({std::to_string(n) + " bytes of text",
                     apps::FileContent({.path = "t", .size = static_cast<uint32_t>(n), .seed = 7})});
  }
  // A phrase repeated exactly 32,768 bytes later (the farthest match the
  // window allows) and one 32,769 bytes later (just past it), in low-entropy
  // filler that compresses.
  std::vector<uint8_t> edge(60'000);
  for (uint8_t& b : edge) {
    b = static_cast<uint8_t>("acgt"[rng.Below(4)]);
  }
  const std::string near = "NEAR-WINDOW-EDGE";
  const std::string past = "PAST-WINDOW-EDGE";
  std::copy(near.begin(), near.end(), edge.begin() + 1'000);
  std::copy(near.begin(), near.end(), edge.begin() + 1'000 + 32'768);
  std::copy(past.begin(), past.end(), edge.begin() + 2'000);
  std::copy(past.begin(), past.end(), edge.begin() + 2'000 + 32'769);
  cases.push_back({"phrases at the window's edge", edge});
  // Text, then a noise block that is stored, then text again.
  std::vector<uint8_t> mixed = apps::FileContent({.path = "m", .size = 70'000, .seed = 8});
  const std::vector<uint8_t> junk = noise(65'536);
  mixed.insert(mixed.begin() + 65'536, junk.begin(), junk.end());
  cases.push_back({"text, noise, text", mixed});
  // A 64-KiB noise block with 9-byte repeats. Each saves 5 bytes against
  // literal runs' 1 byte in 127, so these blocks straddle the stored-block
  // rule: 124 repeats make a token stream of exactly the block's size, which
  // is stored, and 125 one 5 bytes shorter, which is kept. The encoder must
  // store exactly the blocks the reference stores.
  for (int repeats : {0, 100, 123, 124, 125, 140}) {
    sim::Rng block_rng(26);  // the same noise in each, so the counts above hold
    std::vector<uint8_t> v(65'536);
    for (uint8_t& b : v) {
      b = static_cast<uint8_t>(block_rng.Next());
    }
    for (int k = 0; k < repeats; ++k) {
      const size_t at = 200 + static_cast<size_t>(k) * 400;
      std::memcpy(v.data() + at, v.data() + at - 100, 9);
    }
    cases.push_back({"noise with " + std::to_string(repeats) + " repeats", v});
  }
  // Units of one literal and a 4-byte word, the word fresh in every other
  // unit and repeated in the next: each repeat is a 4-byte match after a run
  // of 6 literals, so a block's stream runs about a tenth past the block,
  // where noise runs 1/127 past it, and the block is stored.
  std::vector<uint8_t> units(70'000);
  uint8_t word[4] = {};
  for (size_t k = 0; k < units.size(); ++k) {
    if (k % 10 == 1) {
      for (uint8_t& b : word) {
        b = static_cast<uint8_t>(rng.Next());
      }
    }
    units[k] = k % 5 == 0 ? static_cast<uint8_t>(rng.Next()) : word[k % 5 - 1];
  }
  cases.push_back({"literal and word units", units});
  for (size_t n : {127, 128, 254, 255, 200'000}) {
    cases.push_back({std::to_string(n) + " bytes of one byte", std::vector<uint8_t>(n, 'e')});
  }
  return cases;
}

// Offsets of each block header in a well-formed stream.
std::vector<size_t> LzBlockHeaders(std::span<const uint8_t> stream) {
  std::vector<size_t> heads;
  for (size_t pos = 4; pos + 9 <= stream.size();) {
    heads.push_back(pos);
    pos += 9 + ref_lz::GetU32(stream, pos + 1);
  }
  return heads;
}

TEST(LzTest, EncoderEmitsThePerByteReferenceBytes) {
  int streams_at_size = 0;
  int streams_below_size = 0;
  for (const auto& [name, input] : LzDifferentialInputs()) {
    const std::vector<uint8_t> want = ref_lz::Compress(input);
    const std::vector<uint8_t> got = apps::LzCompress(input);
    EXPECT_TRUE(got == want) << name << ": " << got.size() << " bytes, reference "
                             << want.size();
    if (name.starts_with("noise with")) {
      std::vector<uint16_t> table(ref_lz::kTableSlots);
      const size_t stream = ref_lz::CompressBlock(input, table).size();
      streams_at_size += stream == input.size() ? 1 : 0;
      streams_below_size += stream < input.size() ? 1 : 0;
    }
    if (name == "literal and word units") {
      std::vector<uint16_t> table(ref_lz::kTableSlots);
      const size_t stream = ref_lz::CompressBlock(std::span(input).first(65'536), table).size();
      EXPECT_GT(stream, 65'536 + 65'536 / 16) << name;
    }
    bool ok = false;
    EXPECT_TRUE(apps::LzDecompress(got, &ok) == input && ok) << name;
  }
  // The noise blocks reach both sides of the stored-block rule's edge.
  EXPECT_GT(streams_at_size, 0);
  EXPECT_GT(streams_below_size, 0);
}

// Corrupt each reference stream by one byte: flipped (in the size header,
// every block header and across the tokens), cut off or appended. Both
// decoders must accept the same streams and decode them to the same bytes.
TEST(LzTest, DecoderMatchesThePerByteReferenceOnCorruptStreams) {
  sim::Rng rng(126);
  int rejected = 0;
  int variants = 0;
  auto check = [&](const std::string& what, const std::vector<uint8_t>& stream) {
    bool want_ok = false;
    bool got_ok = false;
    const std::vector<uint8_t> want = ref_lz::Decompress(stream, &want_ok);
    const std::vector<uint8_t> got = apps::LzDecompress(stream, &got_ok);
    EXPECT_EQ(got_ok, want_ok) << what;
    EXPECT_TRUE(got == want) << what << ": " << got.size() << " bytes, reference "
                             << want.size();
    rejected += want_ok ? 0 : 1;
    ++variants;
  };
  for (const auto& [name, input] : LzDifferentialInputs()) {
    const std::vector<uint8_t> stream = ref_lz::Compress(input);
    std::vector<size_t> flips;
    for (size_t head : LzBlockHeaders(stream)) {
      for (size_t k = 0; k < 9 + 8 && head + k < stream.size(); ++k) {
        flips.push_back(head + k);
      }
    }
    for (size_t k = 0; k < 4; ++k) {
      flips.push_back(k);
    }
    for (int k = 0; k < 12 && stream.size() > 4; ++k) {
      flips.push_back(4 + rng.Below(stream.size() - 4));
    }
    for (size_t at : flips) {
      std::vector<uint8_t> bad = stream;
      bad[at] ^= static_cast<uint8_t>(1 + rng.Below(255));
      check(name + ", byte " + std::to_string(at) + " flipped", bad);
    }
    check(name + ", last byte cut", {stream.begin(), stream.end() - 1});
    for (uint8_t extra : {0x00, 0x80, 0x7f}) {
      std::vector<uint8_t> longer = stream;
      longer.push_back(extra);
      check(name + ", byte appended", longer);
    }
  }
  // Both outcomes are common: about half the corruptions are caught, and the
  // rest decode to other bytes or land where no decoder looks.
  EXPECT_GT(rejected, variants / 4);
  EXPECT_GT(variants - rejected, variants / 4);
}

// Hand-built streams: a u32 size header, then blocks of {u8 kind (0 stored,
// 1 compressed), u32 packed_len, u32 raw_len, payload}. A
// compressed payload is tokens: 1..127 is a run of that many literals, 0x80 a
// match {len, dist lo, dist hi}.
struct LzStream {
  std::vector<uint8_t> bytes;
  explicit LzStream(uint32_t total) { PutU32(total); }
  void PutU32(uint32_t v) { ref_lz::PutU32(bytes, v); }
  LzStream& Block(uint8_t kind, const std::vector<uint8_t>& payload, uint32_t raw_len) {
    bytes.push_back(kind);
    PutU32(static_cast<uint32_t>(payload.size()));
    PutU32(raw_len);
    bytes.insert(bytes.end(), payload.begin(), payload.end());
    return *this;
  }
};

std::vector<uint8_t> Lit(const std::string& s) {
  std::vector<uint8_t> t(1 + s.size(), static_cast<uint8_t>(s.size()));
  std::copy(s.begin(), s.end(), t.begin() + 1);
  return t;
}

std::vector<uint8_t> Match(uint8_t len, uint16_t dist) {
  return {0x80, len, static_cast<uint8_t>(dist), static_cast<uint8_t>(dist >> 8)};
}

std::vector<uint8_t> Cat(std::initializer_list<std::vector<uint8_t>> parts) {
  std::vector<uint8_t> all;
  for (const auto& p : parts) {
    all.insert(all.end(), p.begin(), p.end());
  }
  return all;
}

std::vector<uint8_t> Bytes(const std::string& s) { return {s.begin(), s.end()}; }

TEST(LzTest, RejectsEachMalformedStream) {
  std::vector<std::pair<std::string, std::vector<uint8_t>>> cases;
  cases.push_back({"empty", {}});
  cases.push_back({"3-byte size header", {4, 0, 0}});
  std::vector<uint8_t> cut = LzStream(4).Block(1, Lit("abcd"), 4).bytes;
  cut.resize(4 + 8);
  cases.push_back({"block header cut after 8 bytes", cut});
  // 4 GiB claimed, then a cut block header: the decoder must fail, not try
  // to allocate what the size header says.
  cases.push_back({"ff ff ff ff 01 00 00", {0xff, 0xff, 0xff, 0xff, 0x01, 0x00, 0x00}});
  std::vector<uint8_t> short_payload = LzStream(4).Block(1, Lit("abcd"), 4).bytes;
  short_payload.pop_back();
  cases.push_back({"compressed packed_len past the input", short_payload});
  std::vector<uint8_t> short_stored = LzStream(4).Block(0, Bytes("abcd"), 4).bytes;
  short_stored.pop_back();
  cases.push_back({"stored packed_len past the input", short_stored});
  // Each token stream is well formed but for its one bad token: token 0
  // before a literal run, or a token 0x81-0xff followed by as many bytes as
  // a literal run of that length would take.
  cases.push_back({"token 0", LzStream(4).Block(1, Cat({{0}, Lit("abcd")}), 4).bytes});
  for (int tok = 0x81; tok <= 0xff; ++tok) {
    std::vector<uint8_t> payload(1 + tok, 'x');
    payload[0] = static_cast<uint8_t>(tok);
    cases.push_back({"token " + std::to_string(tok),
                     LzStream(tok).Block(1, payload, tok).bytes});
  }
  cases.push_back({"match cut short", LzStream(8).Block(1, Cat({Lit("abcd"), {0x80, 4, 1}}), 8).bytes});
  cases.push_back({"literal run cut short", LzStream(5).Block(1, {5, 'a', 'b'}, 5).bytes});
  cases.push_back({"match dist 0", LzStream(8).Block(1, Cat({Lit("abcd"), Match(4, 0)}), 8).bytes});
  cases.push_back({"match dist past the output",
                   LzStream(8).Block(1, Cat({Lit("abcd"), Match(4, 5)}), 8).bytes});
  cases.push_back({"match dist past the previous block",
                   LzStream(8).Block(0, Bytes("abcd"), 4).Block(1, Match(4, 5), 4).bytes});
  cases.push_back({"match first in the stream", LzStream(4).Block(1, Match(4, 1), 4).bytes});
  cases.push_back({"block makes more than raw_len", LzStream(3).Block(1, Lit("abcd"), 3).bytes});
  cases.push_back({"match makes more than raw_len",
                   LzStream(5).Block(1, Cat({Lit("ab"), Match(10, 1)}), 5).bytes});
  cases.push_back({"block makes fewer than raw_len", LzStream(5).Block(1, Lit("abcd"), 5).bytes});
  cases.push_back({"second block makes fewer than raw_len",
                   LzStream(9).Block(1, Lit("abcd"), 4).Block(1, Match(4, 4), 5).bytes});
  // A 4-byte match token makes at most 255 bytes, so raw_len may be at most
  // 64 bytes per packed byte.
  cases.push_back({"raw_len 257 from 4 packed bytes",
                   LzStream(257).Block(0, Bytes("a"), 1).Block(1, Match(255, 1), 256).bytes});
  cases.push_back({"raw_len 4 GiB from 5 packed bytes",
                   LzStream(0xffffffff).Block(1, Lit("abcd"), 0xffffffff).bytes});
  cases.push_back({"raw_len 65 x packed_len",
                   LzStream(65 * 5).Block(1, Lit("abcd"), 65 * 5).bytes});
  // The headers must describe what gzip writes: the blocks make exactly the
  // size header's total and nothing follows them, a stored block's lengths
  // agree, and each kind is 0 or 1.
  cases.push_back({"last block overshoots the size header",
                   LzStream(1).Block(1, Lit("abcde"), 5).bytes});
  cases.push_back({"bytes after the last block",
                   Cat({LzStream(3).Block(0, Bytes("abc"), 3).bytes, {0xde, 0xad}})});
  cases.push_back({"size header 0, then bytes", Cat({LzStream(0).bytes, {0xff, 0xff}})});
  cases.push_back({"stored block's raw_len differs",
                   LzStream(3).Block(0, Bytes("abc"), 99).bytes});
  cases.push_back({"kind 7", LzStream(3).Block(7, Lit("abc"), 3).bytes});
  for (const auto& [name, stream] : cases) {
    bool ok = true;
    EXPECT_TRUE(apps::LzDecompress(stream, &ok).empty()) << name;
    EXPECT_FALSE(ok) << name;
    bool ref_ok = true;
    EXPECT_TRUE(ref_lz::Decompress(stream, &ref_ok).empty()) << name;
    EXPECT_FALSE(ref_ok) << name;
  }
}

// Streams the decoder must keep accepting, each checked against the bytes its
// tokens spell out and against the reference.
TEST(LzTest, DecodesOverlappingAndCrossBlockMatches) {
  std::vector<std::tuple<std::string, std::vector<uint8_t>, std::vector<uint8_t>>> cases;
  // Matches whose source overlaps their output: dist below, at and just
  // past the decoder's 16-byte chunk, at every length class.
  const std::string head = "0123456789ABCDEFG";  // 17 bytes
  for (uint16_t dist : {1, 3, 15, 16, 17}) {
    for (uint8_t len : {0, 1, 4, 15, 16, 17, 31, 32, 33, 100, 255}) {
      std::vector<uint8_t> want = Bytes(head);
      for (int k = 0; k < len; ++k) {
        want.push_back(want[want.size() - dist]);
      }
      const uint32_t n = static_cast<uint32_t>(want.size());
      cases.push_back({"dist " + std::to_string(dist) + " len " + std::to_string(len),
                       LzStream(n).Block(1, Cat({Lit(head), Match(len, dist)}), n).bytes,
                       want});
    }
  }
  // Chained long matches, each reading what the one before it wrote.
  std::vector<uint8_t> chain = Bytes("abcdefghijklmnop");  // 16 bytes
  for (uint16_t dist : {16, 17, 300}) {
    for (int k = 0; k < 255; ++k) {
      chain.push_back(chain[chain.size() - dist]);
    }
  }
  const auto chain_n = static_cast<uint32_t>(chain.size());
  cases.push_back(
      {"chained matches",
       LzStream(chain_n)
           .Block(1, Cat({Lit("abcdefghijklmnop"), Match(255, 16), Match(255, 17), Match(255, 300)}),
                  chain_n)
           .bytes,
       chain});
  // A match reaches back into the block before, stored or compressed.
  cases.push_back({"match into a stored block",
                   LzStream(30).Block(0, Bytes("hello, world"), 12)
                       .Block(1, Cat({Match(12, 12), Lit("!!"), Match(4, 7)}), 18).bytes,
                   Bytes("hello, worldhello, world!!worl")});
  cases.push_back({"match into a compressed block",
                   LzStream(10).Block(1, Lit("abcde"), 5).Block(1, Match(5, 5), 5).bytes,
                   Bytes("abcdeabcde")});
  // An empty stream and empty blocks are well formed, and a zero-length match
  // makes nothing.
  cases.push_back({"size header 0", LzStream(0).bytes, {}});
  cases.push_back({"empty blocks before the data",
                   LzStream(3).Block(1, {}, 0).Block(0, {}, 0).Block(1, Lit("abc"), 3).bytes,
                   Bytes("abc")});
  for (const auto& [name, stream, want] : cases) {
    bool ok = false;
    EXPECT_TRUE(apps::LzDecompress(stream, &ok) == want) << name;
    EXPECT_TRUE(ok) << name;
    bool ref_ok = false;
    EXPECT_TRUE(ref_lz::Decompress(stream, &ref_ok) == want) << name;
    EXPECT_TRUE(ref_ok) << name;
  }
}

}  // namespace
}  // namespace exo::os
