// Crash-consistency harness (Sec. 4.4): XN claims on-disk metadata is recoverable
// after a crash at ANY instant, without synchronous metadata writes. This test makes
// that claim checkable: run a C-FFS workload once fault-free to count its K durable
// block writes, then for every k in [1, K] replay it with power cut after the k-th
// write, recover, and assert the invariants:
//
//   - no acknowledged-durable data is lost: every file present at the last
//     successful Sync() reads back intact (an in-place overwrite torn mid-sync may
//     leave old-or-new content at block granularity — never anything else);
//   - the rebuilt free map is consistent with reachability: filling every free
//     block with new data never corrupts a durable file (a reachable block marked
//     free would be reallocated and scribbled);
//   - no reachable block is tainted, and the whole tree walks and reads cleanly —
//     free blocks are pre-filled with garbage after Format, so recovery reaching a
//     never-written block would surface as unparseable metadata or garbage reads.
//
// Fault schedules are seed-deterministic: the same FaultPlan seed yields the same
// injector log byte-for-byte, so any failing k reproduces exactly.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "fs/cffs.h"
#include "fs/xn_backend.h"
#include "hw/machine.h"
#include "sim/fault.h"
#include "sim/shrink.h"
#include "sim/sweep.h"
#include "xn/xn.h"

namespace exo::fs {
namespace {

// Thrown by the blocker when the simulated power cut freezes the disk: the workload
// is abandoned mid-operation, exactly as a real crash abandons a syscall.
struct PowerLoss {};

// What the application may rely on after a crash. `files` maps path -> contents as
// of the last acknowledged Sync(); `gone` lists paths whose unlink was acknowledged.
struct DurableState {
  std::map<std::string, std::vector<uint8_t>> files;
  std::vector<std::string> gone;
};

std::vector<uint8_t> Pattern(size_t n, uint8_t seed) {
  std::vector<uint8_t> v(n);
  for (size_t i = 0; i < n; ++i) {
    v[i] = static_cast<uint8_t>(seed + i * 7);
  }
  return v;
}

// One self-contained machine + XN + C-FFS stack whose media survives Recover().
class Rig {
 public:
  Rig()
      : machine_(&engine_, hw::MachineConfig{
                               .mem_frames = 4096,
                               .disks = {hw::DiskGeometry{.num_blocks = 2048}}}) {
    xn_ = std::make_unique<xn::Xn>(&machine_, &machine_.disk());
    xn_->Format();
    EXO_CHECK_EQ(xn_->Attach(), Status::kOk);
  }

  // Fills every free data block with deterministic garbage so a recovery traversal
  // that reaches a never-written block cannot silently read zeros.
  void ScribbleFreeBlocks() {
    const xn::FreeMap& free_map = xn_->free_map();
    for (hw::BlockId b = free_map.first_data_block(); b < free_map.num_blocks(); ++b) {
      if (free_map.IsAllocated(b)) {
        continue;
      }
      auto img = machine_.disk().MutableBlock(b);
      for (size_t i = 0; i < img.size(); ++i) {
        img[i] = static_cast<uint8_t>(b * 37 + i * 11 + 0x5a);
      }
    }
  }

  // Arms the per-block integrity sidecar, stamping the current media (including
  // the free-block scribble) as the trusted baseline — what mkfs-time enablement
  // sees on a real install.
  void ArmIntegrity() { machine_.disk().EnableIntegrity(); }

  void MakeFs() {
    backend_ = MakeBackend();
    fs_ = std::make_unique<Cffs>(backend_.get(), CffsOptions{.fsid = 1});
    EXO_CHECK_EQ(fs_->Mkfs(), Status::kOk);
    // Mkfs leaves the root dirty; sync it so the empty file system is the durable
    // baseline (as a real mkfs tool does before exiting).
    EXO_CHECK_EQ(fs_->Sync(), Status::kOk);
  }

  // Simulated reboot: abandon volatile state, restore power, re-attach (running
  // XN's recovery GC), and remount. Returns "" or a description of what failed.
  // `keep_injector` leaves the fault injector armed across the reboot, so
  // scripted read faults (latent sectors, rot) keep firing against recovery and
  // post-recovery reads — media faults do not reboot away.
  std::string Recover(bool keep_injector = false) {
    engine_.RunUntilIdle();  // drain stale events (power-cut-epoch guarded)
    xn_->Crash();
    machine_.disk().PowerRestore();
    if (!keep_injector) {
      machine_.disk().SetFaultInjector(nullptr);
    }
    fs_.reset();
    backend_.reset();
    xn_.reset();
    xn_ = std::make_unique<xn::Xn>(&machine_, &machine_.disk());
    if (Status s = xn_->Attach(); s != Status::kOk) {
      return std::string("recovery: Attach: ") + StatusName(s);
    }
    if (!xn_->recovered_after_crash()) {
      return "recovery: free-map rebuild did not run";
    }
    backend_ = MakeBackend();
    fs_ = std::make_unique<Cffs>(backend_.get(), CffsOptions{.fsid = 1});
    if (Status s = fs_->Mount(); s != Status::kOk) {
      return std::string("recovery: Mount failed: ") + StatusName(s);
    }
    return "";
  }

  sim::Engine& engine() { return engine_; }
  hw::Disk& disk() { return machine_.disk(); }
  xn::Xn* xn() { return xn_.get(); }
  XnBackend* backend() { return backend_.get(); }
  Cffs* fs() { return fs_.get(); }

 private:
  // The blocker drains every pending event before conceding power loss: completion
  // callbacks scheduled pre-cut may reference stack frames that the PowerLoss
  // unwind is about to destroy, so they must fire (or be epoch-cancelled) first.
  Blocker MakeBlocker() {
    return [this](const std::function<bool()>& ready) {
      int spins = 0;
      while (!ready()) {
        if (engine_.HasPendingEvents()) {
          engine_.RunNextEvent();
        } else if (machine_.disk().powered_off()) {
          throw PowerLoss{};
        } else {
          engine_.Advance(20'000);
        }
        EXO_CHECK_LT(++spins, 1'000'000);
      }
    };
  }

  std::unique_ptr<XnBackend> MakeBackend() {
    return std::make_unique<XnBackend>(
        xn_.get(), xn::Caps{xok::Capability::For({xok::kCapFs, 1})}, MakeBlocker(),
        [this] {
          auto f = machine_.mem().Alloc();
          return f.ok() ? *f : hw::kInvalidFrame;
        });
  }

  sim::Engine engine_;
  hw::Machine machine_;
  std::unique_ptr<xn::Xn> xn_;
  std::unique_ptr<XnBackend> backend_;
  std::unique_ptr<Cffs> fs_;
};

// The scripted workload: new files, nested directories, a multi-block in-place
// overwrite, an unlink, and reallocation into freed space — each phase ending in a
// Sync that, once acknowledged, promotes the running state into *acked. *pending
// always tracks the latest issued (possibly unacknowledged) state. Throws PowerLoss
// from inside the blocker when the cut hits. Returns "" or an error description.
std::string RunWorkload(Cffs* fs, DurableState* acked, DurableState* pending,
                        int sync_attempts = 1,
                        std::vector<DurableState>* history = nullptr) {
  if (history != nullptr) {
    history->push_back(DurableState{});  // the empty post-mkfs baseline
  }
  auto write_file = [&](const std::string& path, uint64_t off,
                        const std::vector<uint8_t>& data) -> std::string {
    auto h = fs->Open(path, /*create=*/true, 7);
    if (!h.ok()) {
      return path + ": open: " + StatusName(h.status());
    }
    auto n = fs->Write(*h, off, data, 7);
    if (!n.ok() || *n != data.size()) {
      return path + ": write: " + StatusName(n.status());
    }
    auto& v = pending->files[path];
    if (v.size() < off + data.size()) {
      v.resize(off + data.size(), 0);
    }
    std::copy(data.begin(), data.end(), v.begin() + off);
    return "";
  };
  auto mkdir = [&](const std::string& path) -> std::string {
    Status s = fs->Mkdir(path, 7);
    return s == Status::kOk ? "" : path + ": mkdir: " + StatusName(s);
  };
  auto unlink = [&](const std::string& path) -> std::string {
    if (Status s = fs->Unlink(path, 7); s != Status::kOk) {
      return path + ": unlink: " + StatusName(s);
    }
    pending->files.erase(path);
    pending->gone.push_back(path);
    return "";
  };
  auto sync = [&]() -> std::string {
    Status s = Status::kIoError;
    for (int i = 0; i < sync_attempts; ++i) {
      s = fs->Sync();
      if (s == Status::kOk) {
        break;
      }
    }
    if (s != Status::kOk) {
      return std::string("sync: ") + StatusName(s);
    }
    *acked = *pending;
    if (history != nullptr) {
      history->push_back(*acked);  // one durable generation per acknowledged sync
    }
    return "";
  };

  std::string e;
  // Phase 1: a directory and a small file.
  if (!(e = mkdir("/docs")).empty()) return e;
  if (!(e = write_file("/docs/a", 0, Pattern(6000, 1))).empty()) return e;
  if (!(e = sync()).empty()) return e;
  // Phase 2: a multi-block file and a nested directory.
  if (!(e = write_file("/docs/b", 0, Pattern(3 * 4096 + 500, 2))).empty()) return e;
  if (!(e = mkdir("/docs/sub")).empty()) return e;
  if (!(e = write_file("/docs/sub/c", 0, Pattern(3000, 3))).empty()) return e;
  if (!(e = sync()).empty()) return e;
  // Phase 3: same-size in-place overwrite of already-durable data (the torn case:
  // after a cut mid-sync each block holds old or new content, nothing else).
  if (!(e = write_file("/docs/a", 0, Pattern(6000, 4))).empty()) return e;
  if (!(e = sync()).empty()) return e;
  // Phase 4: acknowledged unlink.
  if (!(e = unlink("/docs/b")).empty()) return e;
  if (!(e = sync()).empty()) return e;
  // Phase 5: new file, reallocating into the freed space.
  if (!(e = write_file("/docs/d", 0, Pattern(2 * 4096, 6))).empty()) return e;
  if (!(e = sync()).empty()) return e;
  return "";
}

// Reads every file under `dir` in full. Garbage-reachable metadata (wild sizes,
// pointers into scribbled blocks) surfaces here as a failed stat/read.
std::string WalkTree(Cffs* fs, const std::string& dir) {
  auto list = fs->ReadDir(dir);
  if (!list.ok()) {
    return dir + ": readdir: " + StatusName(list.status());
  }
  for (const auto& de : *list) {
    std::string path = dir == "/" ? "/" + de.name : dir + "/" + de.name;
    if (de.is_dir) {
      if (auto e = WalkTree(fs, path); !e.empty()) {
        return e;
      }
    } else {
      auto h = fs->Open(path, /*create=*/false, 7);
      if (!h.ok()) {
        return path + ": listed but unlookupable: " + StatusName(h.status());
      }
      auto st = fs->StatHandle(*h);
      if (!st.ok()) {
        return path + ": stat: " + StatusName(st.status());
      }
      std::vector<uint8_t> buf(st->size);
      auto n = fs->Read(*h, 0, buf);
      if (!n.ok() || *n != buf.size()) {
        return path + ": read: " + StatusName(n.status());
      }
    }
  }
  return "";
}

// Post-recovery invariant checks against the last acknowledged durable state.
std::string Verify(Rig& rig, const DurableState& acked, const DurableState& pending) {
  Cffs* fs = rig.fs();
  std::set<std::string> maybe_gone(pending.gone.begin(), pending.gone.end());

  // A durable file must read back block-for-block as its acknowledged image, except
  // where an unacknowledged in-place overwrite was mid-flight: those blocks may
  // hold the new image instead (old-or-new, never a mix within a block).
  auto check_file = [&](const std::string& path,
                        const std::vector<uint8_t>& want) -> std::string {
    auto it = pending.files.find(path);
    const std::vector<uint8_t>& newer = it != pending.files.end() ? it->second : want;
    auto h = fs->Open(path, /*create=*/false, 7);
    if (!h.ok()) {
      return path + ": durable file lost (" + StatusName(h.status()) + ")";
    }
    auto st = fs->StatHandle(*h);
    if (!st.ok()) {
      return path + ": stat failed";
    }
    if (st->size != want.size() && st->size != newer.size()) {
      return path + ": size " + std::to_string(st->size);
    }
    std::vector<uint8_t> got(st->size);
    auto n = fs->Read(*h, 0, got);
    if (!n.ok() || *n != got.size()) {
      return path + ": read failed";
    }
    for (size_t i = 0; i < got.size(); i += hw::kBlockSize) {
      size_t end = std::min(got.size(), i + static_cast<size_t>(hw::kBlockSize));
      auto eq = [&](const std::vector<uint8_t>& ref) {
        return end <= ref.size() &&
               std::equal(got.begin() + i, got.begin() + end, ref.begin() + i);
      };
      if (!eq(want) && !eq(newer)) {
        return path + ": torn beyond old-or-new at offset " + std::to_string(i);
      }
    }
    auto blocks = fs->FileBlocks(*h);
    if (!blocks.ok()) {
      return path + ": FileBlocks failed";
    }
    for (hw::BlockId b : *blocks) {
      if (!rig.xn()->free_map().IsAllocated(b)) {
        return path + ": reachable block " + std::to_string(b) + " marked free";
      }
      if (rig.xn()->IsTaintedBlock(b)) {
        return path + ": reachable block " + std::to_string(b) + " tainted";
      }
    }
    return "";
  };

  for (const auto& [path, data] : acked.files) {
    if (maybe_gone.count(path)) {
      // Unlink issued but not acknowledged: the file is either fully intact or
      // fully gone, never half-present.
      auto h = fs->Open(path, /*create=*/false, 7);
      if (h.ok()) {
        if (auto e = check_file(path, data); !e.empty()) {
          return e;
        }
      } else if (h.status() != Status::kNotFound) {
        return path + ": odd lookup status " + StatusName(h.status());
      }
      continue;
    }
    if (auto e = check_file(path, data); !e.empty()) {
      return e;
    }
  }
  for (const auto& path : acked.gone) {
    if (fs->Open(path, /*create=*/false, 7).status() != Status::kNotFound) {
      return path + ": acknowledged unlink resurrected";
    }
  }
  if (auto e = WalkTree(fs, "/"); !e.empty()) {
    return e;
  }

  // Free map vs. reachability: claim (nearly) every free block for a new file. If
  // recovery left any reachable block marked free, the fill overwrites it and the
  // re-verification below catches the corruption.
  auto hfill = fs->Create("/fill", 7);
  if (!hfill.ok()) {
    return std::string("/fill: create: ") + StatusName(hfill.status());
  }
  std::vector<uint8_t> chunk(8 * hw::kBlockSize);
  uint64_t off = 0;
  for (int iter = 0; rig.backend()->free_map().free_count() > 128 && iter < 4096; ++iter) {
    for (size_t i = 0; i < chunk.size(); ++i) {
      chunk[i] = static_cast<uint8_t>(off + i * 13 + 7);
    }
    auto n = fs->Write(*hfill, off, chunk, 7);
    if (!n.ok()) {
      break;  // disk full — expected termination
    }
    off += *n;
    if (*n < chunk.size()) {
      break;
    }
  }
  if (off == 0) {
    return "/fill: wrote nothing";
  }
  if (Status s = fs->Sync(); s != Status::kOk) {
    return std::string("/fill: sync: ") + StatusName(s);
  }
  for (const auto& [path, data] : acked.files) {
    if (maybe_gone.count(path)) {
      continue;
    }
    if (auto e = check_file(path, data); !e.empty()) {
      return "after fill: " + e;
    }
  }
  return "";
}

// One sweep trial: replay the workload with power cut after the k-th durable block
// write, recover, verify. Returns "" on success.
std::string Trial(uint64_t k) {
  sim::FaultPlan plan;
  plan.seed = 1;
  plan.power_cut_after_blocks = k;
  sim::FaultInjector faults(plan);

  Rig rig;
  rig.ScribbleFreeBlocks();
  rig.MakeFs();
  rig.disk().SetFaultInjector(&faults);  // armed only for the workload replay

  DurableState acked;
  DurableState pending;
  bool cut = false;
  std::string err;
  try {
    err = RunWorkload(rig.fs(), &acked, &pending);
  } catch (const PowerLoss&) {
    cut = true;
  }
  if (!err.empty()) {
    return "workload: " + err;
  }
  if (!cut || faults.stats().power_cuts != 1) {
    return "power cut never fired";
  }
  if (auto e = rig.Recover(); !e.empty()) {
    return e;
  }
  return Verify(rig, acked, pending);
}

TEST(CrashSweep, EveryCutPointRecoversConsistently) {
  // Fault-free run: establish K, the number of durable block writes the workload
  // performs after mkfs, and sanity-check the workload itself.
  uint64_t num_writes = 0;
  {
    Rig rig;
    rig.ScribbleFreeBlocks();
    rig.MakeFs();
    const uint64_t before = rig.disk().stats().blocks_written;
    DurableState acked;
    DurableState pending;
    ASSERT_EQ(RunWorkload(rig.fs(), &acked, &pending), "");
    num_writes = rig.disk().stats().blocks_written - before;
    EXPECT_EQ(acked.files.size(), 3u);  // a, sub/c, d — b was unlinked
    EXPECT_EQ(acked.gone.size(), 1u);
  }
  ASSERT_GT(num_writes, 10u);

  auto outcome = sim::SweepCutPoints(num_writes, Trial);
  EXPECT_EQ(outcome.trials, num_writes);
  EXPECT_TRUE(outcome.ok()) << outcome.Summary();
}

// The reproducibility contract: the same seed and workload yield the same injector
// schedule byte-for-byte; a different seed yields a different one. (The workload
// here runs under transient disk errors, exercising backend retry paths end to end.)
TEST(CrashSweep, SameSeedYieldsIdenticalFaultSchedule) {
  auto run = [](uint64_t seed) {
    sim::FaultPlan plan;
    plan.seed = seed;
    plan.disk_error_rate = 0.1;
    sim::FaultInjector faults(plan);
    Rig rig;
    rig.MakeFs();
    rig.disk().SetFaultInjector(&faults);
    DurableState acked;
    DurableState pending;
    // Syncs may fail wholesale when the batch write draws an error: retry, as a
    // sync daemon would.
    EXPECT_EQ(RunWorkload(rig.fs(), &acked, &pending, /*sync_attempts=*/20), "");
    rig.disk().SetFaultInjector(nullptr);
    return faults.log();
  };
  auto a = run(77);
  auto b = run(77);
  auto c = run(78);
  EXPECT_FALSE(a.empty());
  EXPECT_EQ(a, b);
  EXPECT_NE(a, c);
}

// ---- Crash × corruption matrix ----
//
// Each trial runs the workload under a power cut combined with a media-fault
// schedule (scripted or rate-drawn), with the integrity sidecar armed, reboots
// with the injector still attached (media faults do not reboot away), and then
// demands one of exactly two outcomes per datum:
//
//   - correct:  the bytes read back match SOME acknowledged durable generation
//     of the file — or, under lost/misdirected writes only, bytes that are
//     *tag-consistent*: a lost write rolls the block back to whatever
//     legitimately lived there before (an older generation, or the
//     never-written baseline), and block-local tags cannot distinguish that
//     from a write that never happened. That is the residual window
//     parent-checksum schemes (ZFS) close and per-block schemes document
//     (see docs/ROBUSTNESS.md);
//   - reported: the operation fails with kCorrupted (checksum or misdirect
//     caught, block quarantined) or kIoError (latent sector) — loud failure.
//
// Never acceptable: kOk with tag-inconsistent bytes, or (absent lossy writes)
// kOk with bytes matching no acknowledged generation. That would be silent
// corruption served as truth — the thing the tags exist to make impossible.

struct TrialOutcome {
  bool detected = false;                 // a fault was caught and reported
  std::string err;                       // non-empty: an invariant was violated
  std::vector<sim::FaultEvent> executed;  // the media schedule actually run
  std::vector<std::string> log;          // injector log, for replay comparison
};

// Verifies the recovered tree against the full durable-generation history.
// `lossy_writes` is true when the schedule could lose or misdirect writes:
// only then is tag-consistent rollback content acceptable.
std::string MatrixVerify(Rig& rig, const std::vector<DurableState>& history,
                         const DurableState& pending, bool lossy_writes,
                         bool* detected) {
  Cffs* fs = rig.fs();
  const DurableState& acked = history.back();
  std::set<std::string> maybe_gone(pending.gone.begin(), pending.gone.end());

  for (const auto& [path, want] : acked.files) {
    (void)want;
    auto h = fs->Open(path, /*create=*/false, 7);
    if (!h.ok()) {
      if (h.status() == Status::kCorrupted || h.status() == Status::kIoError) {
        *detected = true;  // reported, not silent
        continue;
      }
      if (h.status() == Status::kNotFound) {
        if (maybe_gone.count(path) != 0) {
          continue;  // unlink was in flight: fully gone is legal
        }
        // A lost metadata write can erase the file's creation entirely — legal
        // only if some durable generation predates the file.
        bool ever_absent = false;
        for (const auto& gen : history) {
          if (gen.files.find(path) == gen.files.end()) {
            ever_absent = true;
            break;
          }
        }
        if (ever_absent) {
          continue;
        }
      }
      return path + ": lookup: " + StatusName(h.status());
    }
    auto st = fs->StatHandle(*h);
    if (!st.ok()) {
      if (st.status() == Status::kCorrupted || st.status() == Status::kIoError) {
        *detected = true;
        continue;
      }
      return path + ": stat: " + StatusName(st.status());
    }
    auto size_matches = [&](const DurableState& gen) {
      auto it = gen.files.find(path);
      return it != gen.files.end() && it->second.size() == st->size;
    };
    bool size_ok = size_matches(pending);
    for (auto it = history.begin(); !size_ok && it != history.end(); ++it) {
      size_ok = size_matches(*it);
    }
    if (!size_ok) {
      return path + ": size " + std::to_string(st->size) +
             " matches no durable generation";
    }
    std::vector<uint8_t> got(st->size);
    auto n = fs->Read(*h, 0, got);
    if (!n.ok() || *n != got.size()) {
      if (n.status() == Status::kCorrupted || n.status() == Status::kIoError) {
        *detected = true;
        continue;
      }
      return path + ": read: " + StatusName(n.status());
    }
    auto blocks = fs->FileBlocks(*h);
    for (size_t i = 0; i < got.size(); i += hw::kBlockSize) {
      size_t end = std::min(got.size(), i + static_cast<size_t>(hw::kBlockSize));
      auto block_matches = [&](const DurableState& gen) {
        auto it = gen.files.find(path);
        if (it == gen.files.end()) {
          return false;
        }
        const auto& ref = it->second;
        return end <= ref.size() &&
               std::equal(got.begin() + i, got.begin() + end, ref.begin() + i);
      };
      bool ok = block_matches(pending);
      for (auto it = history.begin(); !ok && it != history.end(); ++it) {
        ok = block_matches(*it);
      }
      if (!ok && lossy_writes && blocks.ok() && i / hw::kBlockSize < blocks->size()) {
        // Lost/misdirect-source window: the block rolled back to bytes that
        // legitimately lived there before the lost write. Such bytes pass the
        // block self-check; what must NEVER be served as kOk is
        // tag-inconsistent content.
        ok = rig.disk().CheckBlock((*blocks)[i / hw::kBlockSize]) ==
             hw::BlockIntegrity::kOk;
      }
      if (!ok) {
        return path + ": offset " + std::to_string(i) +
               ": bytes match no acknowledged generation (silent corruption)";
      }
    }
  }
  // The whole tree must walk cleanly or fail loudly.
  if (auto e = WalkTree(fs, "/"); !e.empty()) {
    if (e.find("CORRUPTED") != std::string::npos ||
        e.find("IO_ERROR") != std::string::npos) {
      *detected = true;
    } else {
      return e;
    }
  }
  return "";
}

// One matrix trial. `detach_before_verify` unarms the injector after recovery,
// bounding rate-mode schedules to the workload+recovery window (used by the
// shrink test so the recorded schedule stays small).
TrialOutcome MediaTrial(const sim::FaultPlan& plan, bool detach_before_verify) {
  TrialOutcome out;
  sim::FaultInjector faults(plan);
  Rig rig;
  rig.ScribbleFreeBlocks();
  rig.ArmIntegrity();
  rig.MakeFs();
  rig.disk().SetFaultInjector(&faults);

  DurableState acked;
  DurableState pending;
  std::vector<DurableState> history;
  bool cut = false;
  std::string werr;
  try {
    werr = RunWorkload(rig.fs(), &acked, &pending, 1, &history);
  } catch (const PowerLoss&) {
    cut = true;
  }
  if (!werr.empty()) {
    // A fault surfacing as a failed operation mid-workload is a *reported*
    // failure (e.g. a latent sector under a metadata read): acceptable, and
    // the crash still happens — at the moment the workload gave up.
    out.detected = true;
  }
  if (!cut) {
    rig.disk().PowerCut();  // fewer durable writes than the cut point: cut now
  }
  auto finish = [&]() {
    rig.disk().SetFaultInjector(nullptr);
    out.executed = faults.events();
    out.log = faults.log();
  };
  if (auto e = rig.Recover(/*keep_injector=*/true); !e.empty()) {
    // Recovery refusing to come up because it *detected* corruption is the
    // contract working; anything else is a genuine failure.
    if (e.find("CORRUPTED") != std::string::npos ||
        e.find("IO_ERROR") != std::string::npos) {
      out.detected = true;
    } else {
      out.err = e;
    }
    finish();
    return out;
  }
  if (detach_before_verify) {
    rig.disk().SetFaultInjector(nullptr);
  }
  bool lossy = plan.disk_lost_rate > 0 || plan.disk_misdirect_rate > 0;
  for (const auto& e : plan.script) {
    lossy = lossy || e.kind == 'w' || e.kind == 'm';
  }
  bool detected = false;
  try {
    out.err = MatrixVerify(rig, history, pending, lossy, &detected);
  } catch (const PowerLoss&) {
    out.err = "power cut re-fired during verification";
  }
  if (rig.xn()->stats().corrupt_detections > 0) {
    detected = true;  // something was quarantined (recovery fsck or a read)
  }
  out.detected = out.detected || detected;
  finish();
  return out;
}

TEST(CrashCorruptionMatrix, RecoversOrReportsNeverLies) {
  // Fault-free run: establish the durable-write count so cut points land inside
  // the workload even when lost writes shrink the durable tally.
  uint64_t num_writes = 0;
  {
    Rig rig;
    rig.ScribbleFreeBlocks();
    rig.MakeFs();
    const uint64_t before = rig.disk().stats().blocks_written;
    DurableState acked;
    DurableState pending;
    ASSERT_EQ(RunWorkload(rig.fs(), &acked, &pending), "");
    num_writes = rig.disk().stats().blocks_written - before;
  }
  ASSERT_GT(num_writes, 12u);
  const uint64_t kMax = num_writes - 6;
  const uint64_t cuts[] = {1, kMax / 4, kMax / 2, 3 * kMax / 4, kMax};
  const char* schedules[] = {
      "",                       // control: power cut only
      "w@2",                    // early lost write (metadata-heavy region)
      "w@12",                   // later lost write
      "m@6:200",                // misdirected write clobbering block 200
      "r@3:100",                // bit rot on the 3rd block read (post-recovery)
      "l@4",                    // latent sector on the 4th block read
      "w@5 m@9:40 r@2:9 l@7",   // compound schedule
  };
  for (uint64_t k : cuts) {
    for (const char* sched : schedules) {
      sim::FaultPlan plan;
      plan.seed = 1;
      plan.power_cut_after_blocks = k;
      std::string perr;
      plan.script = sim::ParseFaultSchedule(sched, &perr);
      ASSERT_TRUE(std::string(sched).empty() || !plan.script.empty()) << perr;
      TrialOutcome out = MediaTrial(plan, /*detach_before_verify=*/false);
      EXPECT_EQ(out.err, "") << "cut=" << k << " schedule=\"" << sched << "\"";
    }
  }
}

// The debugging contract for media faults, end to end: a rate-drawn schedule
// that provokes a detection is recorded, ddmin-minimized as a scripted
// FaultEvent sequence, round-tripped through the one-line codec, and replayed
// byte-for-byte — the printed DISK-REPRO line alone reproduces the failure.
TEST(CrashCorruptionMatrix, FailingScheduleShrinksToReplayableRepro) {
  sim::FaultPlan base;
  base.power_cut_after_blocks = 25;
  base.disk_misdirect_rate = 0.08;
  base.disk_lost_rate = 0.05;
  base.disk_rot_rate = 0.05;

  std::vector<sim::FaultEvent> recorded;
  uint64_t seed = 0;
  for (uint64_t s = 1; s <= 40 && recorded.empty(); ++s) {
    sim::FaultPlan plan = base;
    plan.seed = s;
    TrialOutcome out = MediaTrial(plan, /*detach_before_verify=*/true);
    ASSERT_EQ(out.err, "") << "seed " << s;
    if (out.detected && !out.executed.empty()) {
      recorded = out.executed;
      seed = s;
    }
  }
  ASSERT_FALSE(recorded.empty()) << "no seed in 1..40 provoked a detection";

  // The predicate replays a *scripted* candidate — no RNG — and asks whether
  // corruption is still detected. Scripted mode makes every probe exact.
  auto still_fails = [&](const std::vector<sim::FaultEvent>& subset) {
    sim::FaultPlan plan = base;  // same cut point; rates ignored once scripted
    plan.script = subset;
    TrialOutcome out = MediaTrial(plan, /*detach_before_verify=*/true);
    return out.err.empty() && out.detected;
  };
  ASSERT_TRUE(still_fails(recorded)) << "recorded schedule does not replay";

  sim::Shrinker shrinker(still_fails);
  auto minimal = shrinker.Minimize(recorded);
  ASSERT_FALSE(minimal.empty());
  EXPECT_LE(minimal.size(), 10u);

  // Round-trip through the codec, then replay twice: identical injector logs,
  // and the executed schedule is exactly the script (1-minimality means every
  // surviving event fires).
  const std::string line = sim::FormatFaultSchedule(minimal);
  std::string perr;
  EXPECT_EQ(sim::ParseFaultSchedule(line, &perr), minimal) << perr;
  sim::FaultPlan replay = base;
  replay.script = minimal;
  TrialOutcome a = MediaTrial(replay, /*detach_before_verify=*/true);
  TrialOutcome b = MediaTrial(replay, /*detach_before_verify=*/true);
  EXPECT_TRUE(a.detected);
  EXPECT_EQ(a.log, b.log);
  EXPECT_EQ(a.executed, minimal);
  std::printf("DISK-REPRO seed=%llu cut=%llu schedule=\"%s\" (%zu events, %llu probes)\n",
              static_cast<unsigned long long>(seed),
              static_cast<unsigned long long>(base.power_cut_after_blocks),
              line.c_str(), minimal.size(),
              static_cast<unsigned long long>(shrinker.probes()));
}

}  // namespace
}  // namespace exo::fs
