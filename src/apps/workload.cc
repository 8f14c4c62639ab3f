#include "apps/workload.h"

#include <algorithm>
#include <cstdio>
#include <initializer_list>
#include <string_view>

#include "apps/unix_apps.h"
#include "sim/rng.h"

namespace exo::apps {

namespace {

const char* kIdentifiers[] = {"node",   "symbol", "type",   "emit",  "tree",
                              "block",  "stmt",   "expr",   "token", "label",
                              "offset", "align",  "field",  "proto", "value"};

// kCorrupted when a program read something other than `want`.
template <typename T>
Status Expect(const Result<T>& got, T want) {
  if (!got.ok()) {
    return got.status();
  }
  return *got == want ? Status::kOk : Status::kCorrupted;
}

// Runs the steps in order up to the first failure, which it returns.
Status InOrder(std::initializer_list<std::function<Status()>> steps) {
  for (const auto& step : steps) {
    if (Status s = step(); s != Status::kOk) {
      return s;
    }
  }
  return Status::kOk;
}

}  // namespace

std::vector<uint8_t> FileContent(const FileSpec& spec) {
  sim::Rng rng(spec.seed);
  std::string s;
  s.reserve(spec.size + 128);
  s += "/* " + spec.path + " — generated source */\n";
  s += "#include \"c.h\"\n\n";
  while (s.size() < spec.size) {
    const char* fn = kIdentifiers[rng.Below(15)];
    const char* arg = kIdentifiers[rng.Below(15)];
    char buf[256];
    std::snprintf(buf, sizeof(buf),
                  "static int %s_%llu(struct %s *%s) {\n"
                  "  if (%s->count > %llu) {\n"
                  "    return %s_emit(%s, %llu);\n"
                  "  }\n"
                  "  %s->next = %s->prev;\n"
                  "  return 0;\n"
                  "}\n\n",
                  fn, static_cast<unsigned long long>(rng.Below(1000)), arg, arg, arg,
                  static_cast<unsigned long long>(rng.Below(64)), fn, arg,
                  static_cast<unsigned long long>(rng.Below(16)), arg, arg);
    s += buf;
  }
  s.resize(spec.size);
  return std::vector<uint8_t>(s.begin(), s.end());
}

TreeSpec LccTree(uint64_t seed) {
  sim::Rng rng(seed);
  TreeSpec t;
  t.dirs = {"src", "src/cpp", "include", "etc", "lib", "doc"};
  struct DirPlan {
    const char* dir;
    int files;
    uint32_t min_size;
    uint32_t max_size;
    const char* ext;
  };
  const DirPlan plans[] = {
      {"src", 45, 8000, 90000, ".c"},      // the compiler proper: bigger files
      {"src/cpp", 18, 4000, 30000, ".c"},  // preprocessor
      {"include", 22, 1000, 12000, ".h"},
      {"etc", 10, 2000, 20000, ".c"},
      {"lib", 10, 3000, 25000, ".c"},
      {"doc", 6, 4000, 40000, ".1"},
  };
  for (const auto& p : plans) {
    for (int i = 0; i < p.files; ++i) {
      FileSpec f;
      f.path = std::string(p.dir) + "/f" + std::to_string(i) + p.ext;
      f.size = static_cast<uint32_t>(rng.Range(p.min_size, p.max_size));
      f.seed = rng.Next();
      t.total_bytes += f.size;
      t.files.push_back(std::move(f));
    }
  }
  return t;
}

Status WriteTree(os::UnixEnv& env, const TreeSpec& tree, const std::string& prefix) {
  Status s = env.Mkdir(prefix);
  if (s != Status::kOk && s != Status::kAlreadyExists) {
    return s;
  }
  for (const auto& d : tree.dirs) {
    s = env.Mkdir(prefix + "/" + d);
    if (s != Status::kOk && s != Status::kAlreadyExists) {
      return s;
    }
  }
  for (const auto& f : tree.files) {
    s = WriteFile(env, prefix + "/" + f.path, FileContent(f));
    if (s != Status::kOk) {
      return s;
    }
  }
  return Status::kOk;
}

Status WriteFile(os::UnixEnv& env, const std::string& path, std::span<const uint8_t> bytes) {
  auto fd = env.Open(path, /*create=*/true);
  if (!fd.ok()) {
    return fd.status();
  }
  auto n = env.Write(*fd, bytes);
  Status closed = env.Close(*fd);
  return n.ok() ? closed : n.status();
}

Status StageLccArchive(os::UnixEnv& env, const TreeSpec& tree) {
  return InOrder({[&] { return WriteTree(env, tree, "/stage"); },
                  [&] { return PaxWrite(env, "/stage", "/lcc.pax"); },
                  [&] { return Gzip(env, "/lcc.pax", "/lcc.pax.gz"); },
                  [&] { return RmTree(env, "/stage"); },
                  [&] { return env.Unlink("/lcc.pax"); },
                  [&] { return env.Sync(); }});
}

std::vector<Job> LccInstallSteps() {
  using E = os::UnixEnv;
  return {
      {"cp (small)", "cp", [](E& e, int) { return Cp(e, "/lcc.pax.gz", "/lcc2.pax.gz"); }},
      {"gunzip", "gunzip", [](E& e, int) { return Gunzip(e, "/lcc2.pax.gz", "/lcc.pax"); }},
      {"cp (large)", "cp", [](E& e, int) { return Cp(e, "/lcc.pax", "/lcc-copy.pax"); }},
      {"pax -r", "pax", [](E& e, int) { return PaxRead(e, "/lcc.pax", "/lcc"); }},
      {"cp -r", "cp", [](E& e, int) { return CpR(e, "/lcc", "/lcc-copy"); }},
      {"diff", "diff", [](E& e, int) { return Expect(DiffTree(e, "/lcc", "/lcc-copy"), 0); }},
      {"gcc", "gcc", [](E& e, int) { return GccBuild(e, "/lcc"); }},
      {"rm (.o)", "rm", [](E& e, int) { return RmByExt(e, "/lcc", ".o"); }},
      {"pax -w", "pax", [](E& e, int) { return PaxWrite(e, "/lcc", "/lcc-new.pax"); }},
      {"gzip", "gzip", [](E& e, int) { return Gzip(e, "/lcc-new.pax", "/lcc-new.pax.gz"); }},
      {"rm -r", "rm", [](E& e, int) { return RmTree(e, "/lcc"); }},
  };
}

SharedInputSpecs Fig4Inputs() {
  SharedInputSpecs specs;
  specs.tree.dirs = {"t"};
  for (int i = 0; i < 10; ++i) {
    specs.tree.files.push_back({"t/s" + std::to_string(i) + ".c",
                                static_cast<uint32_t>(15'000 + i * 2'000),
                                static_cast<uint64_t>(i + 7)});
  }
  specs.big = {.path = "big", .size = 2'000'000, .seed = 99};
  return specs;
}

SharedInputSpecs Fig5Inputs() {
  SharedInputSpecs specs = Fig4Inputs();
  specs.five = FileSpec{.path = "five", .size = 5'000'000, .seed = 123};
  return specs;
}

Status MakeSharedInputs(os::UnixEnv& env, const SharedInputSpecs& specs) {
  const Status s =
      InOrder({[&] { return env.Mkdir("/shared"); },
               [&] { return WriteTree(env, specs.tree, "/shared"); },
               [&] { return PaxWrite(env, "/shared/t", "/shared/t.pax"); },
               [&] { return WriteFile(env, "/shared/big.txt", FileContent(specs.big)); }});
  if (s != Status::kOk || !specs.five) {
    return s;
  }
  const std::vector<uint8_t> five = FileContent(*specs.five);
  return InOrder({[&] { return WriteFile(env, "/shared/five.a", five); },
                  [&] { return WriteFile(env, "/shared/five.b", five); }});
}

std::vector<Job> Fig4Pool(const SharedInputSpecs& specs) {
  // The answers, from the specs. cksum chains sum = sum * 131 + byte across the
  // tree's files in directory order, which is creation order on C-FFS and FFS,
  // and across rounds.
  constexpr int kCksumRounds = 40;
  const std::vector<uint8_t> big = FileContent(specs.big);
  const std::string_view text(reinterpret_cast<const char*>(big.data()), big.size());
  uint64_t grep_symbol = 0;
  for (size_t at = 0; (at = text.find("symbol", at)) != std::string_view::npos; ++at) {
    ++grep_symbol;
  }
  const auto wc_lines = static_cast<uint64_t>(std::count(big.begin(), big.end(), '\n'));
  std::vector<uint8_t> tree;
  for (const FileSpec& f : specs.tree.files) {
    const std::vector<uint8_t> bytes = FileContent(f);
    tree.insert(tree.end(), bytes.begin(), bytes.end());
  }
  uint64_t cksum = 0;
  for (int r = 0; r < kCksumRounds; ++r) {
    for (uint8_t c : tree) {
      cksum = cksum * 131 + c;
    }
  }

  using E = os::UnixEnv;
  return {
      {"pax -w", "pax",
       [](E& e, int i) { return PaxWrite(e, "/shared/t", JobDir(i) + "/t.pax"); }, true},
      {"grep", "grep",
       [grep_symbol](E& e, int) {
         Status s = Status::kOk;
         for (int r = 0; r < 6 && s == Status::kOk; ++r) {
           s = Expect(Grep(e, "symbol", "/shared/big.txt"), grep_symbol);
         }
         return s;
       },
       true},
      {"cksum", "cksum",
       [cksum](E& e, int) { return Expect(Cksum(e, "/shared/t", kCksumRounds), cksum); }, true},
      {"tsp", "tsp", [](E& e, int) { return Tsp(e, 500, 30, 7).status(); }},
      {"sor", "sor", [](E& e, int) { return Sor(e, 300, 60).status(); }},
      {"wc", "wc",
       [wc_lines](E& e, int) {
         Status s = Status::kOk;
         for (int r = 0; r < 8 && s == Status::kOk; ++r) {
           s = Expect(Wc(e, "/shared/big.txt"), wc_lines);
         }
         return s;
       },
       true},
      {"gcc", "gcc",
       [](E& e, int i) {
         const std::string dir = JobDir(i) + "/t";
         return InOrder({[&] { return CpR(e, "/shared/t", dir); },
                         [&] { return GccBuild(e, dir); }});
       },
       true},
      {"gzip", "gzip",
       [](E& e, int i) { return Gzip(e, "/shared/big.txt", JobDir(i) + "/big.gz"); }, true},
      {"gunzip", "gunzip",
       [](E& e, int i) {
         const std::string gz = JobDir(i) + "/in.gz";
         return InOrder({[&] { return Gzip(e, "/shared/big.txt", gz); },
                         [&] { return Gunzip(e, gz, JobDir(i) + "/out.txt"); }});
       },
       true},
  };
}

std::vector<Job> Fig5Pool() {
  using E = os::UnixEnv;
  return {
      {"tsp", "tsp", [](E& e, int) { return Tsp(e, 500, 30, 7).status(); }},
      {"sor", "sor", [](E& e, int) { return Sor(e, 300, 60).status(); }},
      // Unpack an archive and copy a tree (Sec. 6): many small file creates.
      {"pax -r", "pax",
       [](E& e, int i) { return PaxRead(e, "/shared/t.pax", JobDir(i) + "/u"); }, true},
      {"cp -r", "cp", [](E& e, int i) { return CpR(e, "/shared/t", JobDir(i) + "/c"); },
       true},
      {"diff", "diff",
       [](E& e, int) { return Expect(DiffFile(e, "/shared/five.a", "/shared/five.b"), 0); },
       true},
  };
}

std::string JobDir(int job_index) { return "/job" + std::to_string(job_index); }

std::vector<Status> RunJobs(os::UnixEnv& env, std::span<const Job> pool,
                            std::span<const size_t> schedule, int max_concurrent) {
  EXO_CHECK_GT(max_concurrent, 0);
  std::vector<Status> status(schedule.size(), Status::kCrashed);
  size_t launched = 0;
  int running = 0;
  while (launched < schedule.size() || running > 0) {
    while (launched < schedule.size() && running < max_concurrent) {
      EXO_CHECK_LT(schedule[launched], pool.size());
      const Job& job = pool[schedule[launched]];
      const int idx = static_cast<int>(launched);
      Status* out = &status[launched];
      auto pid = env.Spawn(job.program,
                           [&job, idx, out](os::UnixEnv& child) { *out = job.body(child, idx); });
      if (pid.ok()) {
        ++running;
      } else {
        *out = pid.status();
      }
      ++launched;
    }
    // WaitAny fails only when no child is left alive.
    if (running == 0 || !env.WaitAny().ok()) {
      break;
    }
    --running;
  }
  return status;
}

}  // namespace exo::apps
