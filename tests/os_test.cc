// Integration tests: booted systems (all four flavors), processes, pipes, and the
// real applications running end-to-end over the full stack.
#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <map>
#include <memory>
#include <span>
#include <string>
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

}  // namespace
}  // namespace exo::os
