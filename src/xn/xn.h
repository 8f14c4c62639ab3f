// XN: the in-kernel stable-storage protection system (Sec. 4).
//
// XN determines, as efficiently as possible, the access rights of a principal to a
// disk block — without understanding any file system's metadata layout. LibFSes
// install *templates* (one per on-disk structure type) whose UDFs translate metadata
// into a form the kernel can check:
//
//   Alloc:  XN runs owns-udf on the metadata before and after the proposed byte-level
//           modification and requires the ownership delta to equal exactly the
//           requested blocks, which must be free (Sec. 4.1). acl-uf must approve.
//   Dealloc: symmetric; blocks whose pointers are still on disk go to a will-free
//           list until the parent's disk image drops them (Sec. 4.4).
//   Write:  refused for tainted blocks reachable from a persistent root — a block is
//           tainted while it points (directly or transitively) to uninitialized
//           metadata (rule 2 of Ganger & Patt, Sec. 4.3.2). Temporary file systems
//           and unattached subtrees are exempt. Any process may flush dirty blocks
//           (daemon support, Sec. 4.3.3) — flushing needs no write permission.
//   Read:   two-stage "read and insert": the parent's owns-udf proves ownership, the
//           acl-uf authorizes, entries enter the buffer-cache registry, the disk
//           request is issued (Sec. 4.4).
//
// Crash recovery rebuilds the free map by logically traversing all persistent roots
// with owns-udfs; unreachable blocks become free (Sec. 4.4).
//
// Metadata blocks can never be mapped read/write by applications; every metadata
// mutation flows through Alloc/Dealloc/Modify so XN's checks cannot be bypassed.
#ifndef EXO_XN_XN_H_
#define EXO_XN_XN_H_

#include <functional>
#include <map>
#include <memory>
#include <set>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "hw/machine.h"
#include "sim/status.h"
#include "xn/free_map.h"
#include "xn/registry.h"
#include "xn/types.h"

namespace exo::xn {

struct RootInfo {
  std::string name;
  hw::BlockId block = hw::kInvalidBlock;
  TemplateId tmpl = kInvalidTemplate;
  bool temporary = false;  // temporary file systems skip all ordering rules
};

struct XnStats {
  uint64_t udf_runs = 0;        // owns-udf and acl-uf runs, memo hits included
  uint64_t owns_memo_hits = 0;  // owns-udf runs answered from the memo
  uint64_t ops = 0;
  uint64_t taint_rejections = 0;
  uint64_t will_free_deferrals = 0;
  uint64_t corrupt_detections = 0;  // reads/scans that caught bad media
  uint64_t repairs = 0;             // quarantined blocks rewritten from a clean copy
};

class Xn {
 public:
  Xn(hw::Machine* machine, hw::Disk* disk);

  Xn(const Xn&) = delete;
  Xn& operator=(const Xn&) = delete;

  // ---- Lifecycle ----

  // Initializes an empty XN disk: superblock, empty catalogues, free map. The
  // registry empties, each entry's frame returned through ReleaseFrame.
  void Format();
  // Starts from an empty registry, as Format does, and loads the catalogues:
  // kBadMetadata, with nothing loaded, if an entry does not parse or a program
  // fails the verifier. If the disk was not cleanly detached, reconstructs the
  // free map by traversing all persistent roots (recovery GC, Sec. 4.4).
  [[nodiscard]] Status Attach();
  // Flushes the free map and catalogues; marks the disk clean.
  void Detach();
  // Simulated power loss: outstanding disk I/O is abandoned, all volatile state
  // (registry, catalogues, taint tracking, will-free list, free map) is
  // dropped, and no registry frame is released.
  void Crash();

  bool attached() const { return attached_; }
  bool recovered_after_crash() const { return recovered_; }

  // ---- Templates (type catalogue) ----

  // Verifies the UDFs (owns-udf must pass the deterministic policy) and persists the
  // template. Once installed a template is immutable (Sec. 4.1).
  [[nodiscard]] Result<TemplateId> InstallTemplate(const Template& t);
  const Template* FindTemplate(TemplateId id) const;
  [[nodiscard]] Result<TemplateId> LookupTemplate(const std::string& name) const;

  // ---- Roots (root catalogue) ----

  // Allocates a free block as the root of a new tree and persists the entry.
  [[nodiscard]] Result<RootInfo> RegisterRoot(const std::string& name, TemplateId tmpl, bool temporary);
  [[nodiscard]] Result<RootInfo> LookupRoot(const std::string& name) const;

  // ---- Buffer cache registry ----

  const Registry& registry() const { return registry_; }

  // Loads a root block into the registry (reads from disk unless newly created).
  [[nodiscard]] Status LoadRoot(const std::string& name, hw::FrameId frame, const Caps& creds,
                  std::function<void(Status)> done);

  // Stage 1+2 combined read: prove ownership via the parent's owns-udf, authorize via
  // acl-uf, install registry entries, and issue the disk read into `frames`.
  // Blocks already resident complete immediately (no disk traffic).
  [[nodiscard]] Status ReadAndInsert(hw::BlockId parent, std::span<const hw::BlockId> blocks,
                       std::span<const hw::FrameId> frames, const Caps& creds,
                       std::function<void(Status)> done);

  // Direct install of an in-core copy; requires write access via the parent's acl-uf
  // (prevents installing bogus copies of blocks one cannot write, Sec. 4.3.3).
  [[nodiscard]] Status InsertMapping(hw::BlockId block, hw::BlockId parent, hw::FrameId frame,
                       bool dirty, const Caps& creds);

  // Speculative read before the parent is known; the entry is typed "unknown" and
  // unusable until BindToParent succeeds (Sec. 4.4, raw read).
  [[nodiscard]] Status RawRead(hw::BlockId block, hw::FrameId frame, std::function<void(Status)> done);
  [[nodiscard]] Status BindToParent(hw::BlockId parent, hw::BlockId block, const Caps& creds);

  // Registry-entry locking for atomic multi-step metadata updates (Sec. 4.3.1).
  [[nodiscard]] Status Lock(hw::BlockId block, xok::EnvId owner);
  [[nodiscard]] Status Unlock(hw::BlockId block, xok::EnvId owner);

  // Drops a clean mapping (the application reclaims its frame).
  [[nodiscard]] Status RemoveMapping(hw::BlockId block);
  // Default recycling policy: drop the LRU unused buffer and return its frame.
  [[nodiscard]] Result<hw::FrameId> RecycleOldest();

  // ---- Guarded metadata operations ----

  [[nodiscard]] Status Alloc(hw::BlockId meta, const Mods& mods, std::span<const udf::Extent> to_alloc,
               const Caps& creds);
  [[nodiscard]] Status Dealloc(hw::BlockId meta, const Mods& mods, std::span<const udf::Extent> to_free,
                 const Caps& creds);
  // Ownership-preserving metadata update (mtimes, sizes, names, ...).
  [[nodiscard]] Status Modify(hw::BlockId meta, const Mods& mods, const Caps& creds);

  // Flushes dirty blocks. Validates every block first (tainted-and-reachable fails
  // the whole call with kTainted); then submits one merged-friendly request batch.
  // Needs no write permission: daemons may flush anything (Sec. 4.3.3).
  [[nodiscard]] Status Write(std::span<const hw::BlockId> blocks, std::function<void(Status)> done);

  // Reads the current bytes of a cached block (metadata inspection path for libFSes;
  // metadata frames must not be written directly, but reading is harmless).
  [[nodiscard]] Result<std::vector<uint8_t>> ReadCached(hw::BlockId block, const Caps& creds);

  // ---- Exposed state (no syscall cost to read) ----

  // The free map: libFSes control layout by choosing where to look for free
  // runs (Sec. 4.4 "Allocate"). Empty until Format or Attach.
  const FreeMap& free_map() const { return free_map_; }
  bool IsTaintedBlock(hw::BlockId b) const { return uninit_.count(b) != 0; }

  const XnStats& stats() const { return stats_; }
  hw::Machine& machine() { return *machine_; }

  // ---- End-to-end integrity (armed iff the disk's sidecar is enabled) ----
  //
  // Detection happens on the read path and in scans — never write-verify, so
  // injected faults stay live until something *looks*. A block that fails its
  // check is quarantined: reads of it return kCorrupted until it is repaired
  // from a clean in-core copy or rewritten. See docs/ROBUSTNESS.md.

  // Bounded fsck-style scan of the first `max_blocks` blocks against the
  // integrity sidecar; quarantines every failure. Recovery runs this over the
  // whole disk before trusting traversal, so TraverseForRecovery never parses
  // (follows pointers out of) a detectably corrupt block.
  struct IntegrityReport {
    uint64_t scanned = 0;
    uint64_t quarantined = 0;
    uint64_t unreadable = 0;  // subset of quarantined: latent sector errors
  };
  IntegrityReport VerifyDiskIntegrity(uint64_t max_blocks = UINT64_MAX);

  bool IsQuarantined(hw::BlockId b) const { return quarantined_.count(b) != 0; }

  // Read-repair: if a clean (non-dirty) resident registry copy of `b` exists,
  // rewrites the media from it, restamps, and lifts the quarantine. Returns
  // kCorrupted when no trustworthy copy is available (the block stays
  // quarantined; the owning libFS must rewrite or discard it).
  Status TryRepair(hw::BlockId b);

  // Background scrubber: checks up to `budget` allocated blocks per step
  // (cursor walk, wraps around), repairing or quarantining what it finds.
  // Returns blocks scanned. Host-side oracle: charges no simulated time.
  uint32_t ScrubStep(uint32_t budget);
  // Schedules `steps` scrub steps, one every `interval` cycles, each skipped
  // while the disk is busy (idle priority). Bounded so RunUntilIdle terminates.
  void StartScrubber(sim::Cycles interval, uint32_t budget, uint32_t steps);

  // Frame-release hook. XN holds its registry frames by raw refcount; when the
  // exokernel proper is present, it wires this to XokKernel::FrameUnref so guard
  // and ledger bookkeeping retire with the last reference. Unwired (standalone
  // XN tests), releases fall back to the raw PhysMem refcount.
  void SetFrameRelease(std::function<void(hw::FrameId)> release) {
    frame_release_ = std::move(release);
  }
  void ReleaseFrame(hw::FrameId f) {
    if (frame_release_) {
      frame_release_(f);
    } else {
      machine_->mem().Unref(f);
    }
  }

 private:
  // The blocks a metadata image owns and the template of each, sorted by block,
  // each block at most once.
  using OwnsSet = std::vector<std::pair<hw::BlockId, TemplateId>>;

  // One owns-udf run's outcome: what RunOwns charged for and returned.
  struct OwnsMemoEntry {
    TemplateId tmpl = kInvalidTemplate;
    std::vector<uint8_t> image;
    uint64_t insns = 0;
    Status status = Status::kOk;  // kBadMetadata when the run was refused
    OwnsSet owned;                // the result when status is kOk
  };
  static constexpr size_t kOwnsMemoEntries = 8;

  void ChargeOp(const char* name);
  // Runs `t`'s owns-udf on `image`. The verifier makes owns-udfs deterministic,
  // so a run whose (template, image bytes) one of the last kOwnsMemoEntries runs
  // saw replays that run's result and instruction count instead of
  // interpreting. Either way it charges and counts as one run.
  [[nodiscard]] Result<OwnsSet> RunOwns(const Template& t, std::span<const uint8_t> image);
  bool RunAcl(const Template& t, std::span<const uint8_t> image,
              const std::vector<uint8_t>& aux, const Caps& creds);
  std::span<const uint8_t> FrameBytes(hw::FrameId f) const;
  std::span<uint8_t> FrameBytesMutable(hw::FrameId f);

  // Shared validation for Alloc/Dealloc/Modify: runs owns-udf before and after the
  // proposed modification on a scratch copy, requires the ownership delta to equal
  // exactly (require_added, require_removed), runs acl-uf, and only then applies the
  // mods to the cached frame and marks it dirty. Nothing is mutated on failure.
  [[nodiscard]] Status GuardedModify(hw::BlockId meta, const Mods& mods, const Caps& creds,
                       const OwnsSet& require_added, const OwnsSet& require_removed);

  bool ReachesPersistentRoot(hw::BlockId b) const;
  bool IsTaintedForWrite(hw::BlockId b, std::set<hw::BlockId>* visiting);
  void OnWriteComplete(hw::BlockId b, Status s);
  // Returns `b` to the free map; its integrity expectations die with its contents.
  void ReleaseBlock(hw::BlockId b);

  bool integrity_armed() const { return disk_->integrity_enabled(); }
  // Media-tag verdict for a freshly read (or scanned) block, folding in the
  // volatile write expectation that catches in-session lost writes the
  // self-consistent tag cannot. Quarantines and returns kCorrupted on failure.
  Status CheckReadIntegrity(hw::BlockId b);
  void Quarantine(hw::BlockId b, const char* why);
  // Restamps a system block the kernel just rewrote via MutableBlock (superblock,
  // free map, catalogues) and clears any stale integrity verdict on it.
  void RestampSystemBlock(hw::BlockId b);

  // Forgets everything XN knows beyond what the disk says: the registry, the
  // loaded catalogues, the free map, and the ordering and integrity state.
  // `release_frames` returns each registry entry's frame through ReleaseFrame.
  void ResetVolatileState(bool release_frames);
  void WriteSuperblock(bool clean);
  void PersistCatalogues();
  // Loads both catalogues, or nothing: kBadMetadata when fewer entries parse
  // than a catalogue's count says, or when a program fails the verifier.
  [[nodiscard]] Status LoadCatalogues();
  // Marks every block the persistent roots reach allocated in a free map whose
  // data blocks start free.
  void RecoverFreeMap();
  void TraverseForRecovery(hw::BlockId block, TemplateId tmpl, std::set<hw::BlockId>* seen);

  hw::Machine* machine_;
  hw::Disk* disk_;
  Registry registry_;
  std::function<void(hw::FrameId)> frame_release_;

  std::map<TemplateId, Template> templates_;
  TemplateId next_template_ = 1;  // 0 is the raw-data pseudo template
  // Recent owns-udf runs, most recent first. Host-only: simulated time and
  // every counter but stats_.owns_memo_hits read as if each run interpreted.
  // Keyed on content, so no write, DMA or recovery path invalidates it; it is
  // cleared where a template id may come to name another program.
  std::vector<OwnsMemoEntry> owns_memo_;
  std::map<std::string, RootInfo> roots_;

  FreeMap free_map_;

  // Ordering state (volatile; rebuilt on recovery).
  std::set<hw::BlockId> uninit_;                       // allocated metadata, never written
  std::map<hw::BlockId, hw::BlockId> parent_of_;       // child -> allocating metadata
  std::map<hw::BlockId, OwnsSet> on_disk_owns_;        // metadata -> owns set on disk
  std::map<hw::BlockId, uint32_t> will_free_;          // block -> on-disk pointer count

  // Integrity state. quarantined_ and expected_crc_ are volatile (a crash
  // forgets them; recovery re-derives quarantine from the persistent sidecar).
  // expected_crc_ records the CRC of the last *acked* write per block, which is
  // the only way to catch an in-session lost write whose stale tag is
  // self-consistent.
  std::set<hw::BlockId> quarantined_;
  std::map<hw::BlockId, uint32_t> expected_crc_;
  hw::BlockId scrub_cursor_ = 0;
  std::shared_ptr<int> scrub_token_;  // liveness guard for scheduled scrub steps

  bool attached_ = false;
  bool recovered_ = false;
  uint64_t lru_clock_ = 0;
  XnStats stats_;
  uint64_t* syscall_counter_ = nullptr;
  trace::Tracer* tracer_ = nullptr;  // the machine's tracer (never null)
  uint32_t trace_track_ = 0;
  sim::Counters::Slot* corrupted_counter_ = nullptr;
  sim::Counters::Slot* repaired_counter_ = nullptr;
  sim::Counters::Slot* scrub_scanned_counter_ = nullptr;
  sim::Counters::Slot* scrub_repaired_counter_ = nullptr;
  sim::Counters::Slot* scrub_quarantined_counter_ = nullptr;
};

}  // namespace exo::xn

#endif  // EXO_XN_XN_H_
