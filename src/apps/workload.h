// The paper's workloads, defined once for the paper benches, simperf and the
// repository benchmark. Their input is a synthetic source tree shaped like the lcc
// compiler distribution the paper installs (Table 1: the compressed archive is
// 1.1 MB): a few directories, many small-to-medium C files with repetitive,
// compressible text, so the file-size distribution, directory operations, and
// compressibility driving Figure 2 match the paper's workload. Figure 2 installs
// it in eleven steps; Figures 4 and 5 run pools of jobs over inputs they share
// under /shared. A job body returns its program's Status (kCorrupted for a wrong
// answer) and never aborts: the paper benches check for kOk, and the repository
// benchmark counts failures.
#ifndef EXO_APPS_WORKLOAD_H_
#define EXO_APPS_WORKLOAD_H_

#include <cstddef>
#include <functional>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "exos/unix_env.h"
#include "sim/status.h"

namespace exo::apps {

struct FileSpec {
  std::string path;   // relative, e.g. "src/alloc.c"
  uint32_t size = 0;  // bytes
  uint64_t seed = 0;  // content seed
};

struct TreeSpec {
  std::vector<std::string> dirs;   // relative directory paths, parents first
  std::vector<FileSpec> files;
  uint64_t total_bytes = 0;
};

// The lcc-like tree: ~110 C files across 6 directories, ~3.4 MB of source.
TreeSpec LccTree(uint64_t seed = 42);

// Deterministic C-like file content for a spec.
std::vector<uint8_t> FileContent(const FileSpec& spec);

// Materializes a tree under `prefix` (creating directories), writing real content.
Status WriteTree(os::UnixEnv& env, const TreeSpec& tree, const std::string& prefix);

// Writes `bytes` to `path`, created if absent, with one Write.
Status WriteFile(os::UnixEnv& env, const std::string& path, std::span<const uint8_t> bytes);

// One program run through fork/exec, as a shell would run it. `label` is the
// program's row in its figure ("cp (small)"); `job_index` numbers the job
// within its run, and a pool job writes its outputs under JobDir(job_index).
struct Job {
  std::string label;
  std::string program;  // the /bin image (drives fork/exec cost)
  std::function<Status(os::UnixEnv&, int job_index)> body;
  bool reads_shared = false;  // needs MakeSharedInputs to have run
};

// Stages /lcc.pax.gz: writes `tree` under /stage, archives and compresses it,
// deletes the staging copy and the uncompressed archive, and syncs.
Status StageLccArchive(os::UnixEnv& env, const TreeSpec& tree);

// The eleven install steps, in order, over the staged archive: cp (small),
// gunzip, cp (large), pax -r, cp -r, diff, gcc, rm (.o), pax -w, gzip, rm -r.
// Their bodies ignore the job index.
std::vector<Job> LccInstallSteps();

// What the pools read, read-only, under /shared: the tree (its files under t/)
// and its archive t.pax, the text big.txt, and (Figure 5) the identical pair
// five.a and five.b, both written from `five`.
struct SharedInputSpecs {
  TreeSpec tree;
  FileSpec big;
  std::optional<FileSpec> five;
};

// Figure 4's inputs: t/s0.c .. s9.c of 15-33 KB with seeds 7..16, and a 2 MB
// big.txt with seed 99. Figure 5's add the 5 MB pair.
SharedInputSpecs Fig4Inputs();
SharedInputSpecs Fig5Inputs();

// Creates /shared and writes `specs` into it, each file with one Write.
Status MakeSharedInputs(os::UnixEnv& env, const SharedInputSpecs& specs);

// Figure 4's pool: pax -w, grep, cksum, tsp, sor, wc, gcc, gzip, gunzip. The
// answers grep "symbol", wc and cksum must read are computed once, on the
// host, from `specs`.
std::vector<Job> Fig4Pool(const SharedInputSpecs& specs);

// Figure 5's pool: tsp, sor, pax -r, cp -r, and a diff of five.a and five.b,
// which must be equal.
std::vector<Job> Fig5Pool();

// The directory pool job `job_index` writes under; its caller creates it.
std::string JobDir(int job_index);

// Runs job i as pool[schedule[i]], at most `max_concurrent` at once, and waits
// for all. Returns each job's status: its Spawn error, or kCrashed if it never ended.
std::vector<Status> RunJobs(os::UnixEnv& env, std::span<const Job> pool,
                            std::span<const size_t> schedule, int max_concurrent);

}  // namespace exo::apps

#endif  // EXO_APPS_WORKLOAD_H_
