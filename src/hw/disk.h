// Positional disk model with request queuing, merging, and C-LOOK scheduling.
//
// Modeled after the paper's Quantum Atlas XP32150 SCSI drive: a seek curve, true
// rotational position (the platter keeps spinning in simulated time, so sequential
// layout genuinely avoids rotational delay), and a fixed media transfer rate. This is
// the mechanism behind the C-FFS and XCP results: fewer, larger, better-ordered
// requests take less time, and the model rewards exactly that.
//
// The disk stores real bytes. DMA moves data directly between the block store and
// physical-memory frames without charging CPU copy cost (the paper's "zero-touch"
// property, Sec. 7.2). The host holds only blocks that were ever written; a hole
// reads from one shared all-zero block. A simulated disk is hundreds of MB that
// the workloads barely touch, so host memory and setup time follow the blocks
// used, not the geometry.
#ifndef EXO_HW_DISK_H_
#define EXO_HW_DISK_H_

#include <array>
#include <cstdint>
#include <functional>
#include <list>
#include <map>
#include <memory>
#include <set>
#include <span>
#include <utility>
#include <vector>

#include "hw/phys_mem.h"
#include "sim/counters.h"
#include "sim/engine.h"
#include "sim/fault.h"
#include "sim/status.h"
#include "trace/trace.h"

namespace exo::hw {

using BlockId = uint32_t;
constexpr uint32_t kBlockSize = kPageSize;  // one disk block caches in one page (Fig. 1)
constexpr BlockId kInvalidBlock = 0xffffffff;

// CRC-32 (reflected, poly 0xEDB88320) over a byte span — the checksum the
// integrity sidecar stamps per block and XN re-verifies on read.
uint32_t Crc32(std::span<const uint8_t> bytes);

// Verdict of CheckBlock against the integrity sidecar (see EnableIntegrity).
enum class BlockIntegrity {
  kOk,
  kUnreadable,   // latent sector error: reads fail until the block is rewritten
  kBadChecksum,  // media bytes no longer match the stamped CRC (rot / lost write)
  kMisdirected,  // tag says these bytes were destined for a different LBA
};

struct DiskGeometry {
  uint32_t num_blocks = 16384;       // 64 MB default; benches size this up
  uint32_t blocks_per_track = 32;    // 128 KB per track
  uint32_t tracks_per_cylinder = 8;  // 1 MB per cylinder
  double rpm = 7200.0;
  double min_seek_ms = 1.2;          // adjacent-cylinder seek
  double max_seek_ms = 16.0;         // full-stroke seek
  double transfer_mb_per_s = 8.0;    // media rate
  double controller_overhead_us = 300.0;  // per-request command processing

  uint32_t blocks_per_cylinder() const { return blocks_per_track * tracks_per_cylinder; }
  uint32_t num_cylinders() const {
    return (num_blocks + blocks_per_cylinder() - 1) / blocks_per_cylinder();
  }
};

struct DiskRequest {
  bool write = false;
  BlockId start = 0;
  uint32_t nblocks = 0;
  // One frame per block; DMA target (read) or source (write). May be empty for
  // model-only transfers (not used by the OS layers, but handy in tests).
  std::vector<FrameId> frames;
  std::function<void(Status)> done;
};

struct DiskStats {
  uint64_t requests = 0;
  uint64_t merged_requests = 0;
  uint64_t seeks = 0;              // requests that required head movement
  uint64_t blocks_read = 0;
  uint64_t blocks_written = 0;
  uint64_t io_errors = 0;          // injected request failures surfaced to callers
  uint64_t rejected_requests = 0;  // malformed submissions completed with an error
  uint64_t torn_blocks = 0;        // blocks of the in-flight write lost to power cuts
  uint64_t lost_blocks = 0;        // acked writes that never reached the media
  uint64_t misdirected_blocks = 0; // writes that landed at the wrong LBA
  uint64_t rotted_blocks = 0;      // persistent bit flips surfaced by reads
  uint64_t latent_errors = 0;      // reads failed by latent sector errors
  sim::Cycles busy_cycles = 0;
};

class Disk {
 public:
  Disk(sim::Engine* engine, PhysMem* mem, const DiskGeometry& geometry, uint32_t cpu_mhz);

  // Queues a request. Contiguous same-direction requests already in the queue are
  // merged (the paper notes the driver merges concurrent XCP schedules, Sec. 7.2).
  // Malformed requests (zero length, out of range, frame-count mismatch) complete
  // asynchronously with kInvalidArgument instead of aborting the simulation. While
  // power is off, requests are silently swallowed: a dead controller raises no
  // completion interrupts.
  //
  // The frame list is a true scatter-gather descriptor: one request DMAs a
  // contiguous block range to/from an arbitrary (discontiguous) set of frames,
  // with kInvalidFrame entries skipping the transfer for that block. Merge lookup
  // and C-LOOK dispatch both run against ordered indexes, so deep queues cost
  // O(log n) per decision instead of a full scan.
  void Submit(DiskRequest req);

  // Attaches (or detaches, with nullptr) a fault injector. The injector is consulted
  // once per request for I/O errors and once per durable block write for power-cut
  // scheduling; unarmed disks skip all of it behind one pointer test.
  void SetFaultInjector(sim::FaultInjector* faults) {
    faults_ = faults;
    if (faults_ != nullptr && tracer_ != nullptr) {
      faults_->AttachTracer(tracer_, engine_);  // injected faults share our timeline
    }
    if (faults_ != nullptr && counters_ != nullptr) {
      faults_->AttachCounters(counters_);  // fault.* counters on the standard surface
    }
  }
  sim::FaultInjector* fault_injector() const { return faults_; }

  // Caches `disk.rejected` (malformed submissions refused at the controller)
  // and `disk.dropped` (torn blocks: accepted writes lost to a power cut)
  // slots, per the counter convention in docs/OBSERVABILITY.md.
  void AttachCounters(sim::Counters* counters) {
    counters_ = counters;
    rejected_counter_ = counters != nullptr ? counters->Handle("disk.rejected") : nullptr;
    dropped_counter_ = counters != nullptr ? counters->Handle("disk.dropped") : nullptr;
    if (faults_ != nullptr && counters_ != nullptr) {
      faults_->AttachCounters(counters_);  // wiring is order-independent
    }
  }

  // ---- Integrity sidecar ----
  //
  // A DIF-style per-block tag {CRC-32, intended LBA} maintained out of band:
  // stamped atomically with every durable block write, never charged simulated
  // time, and invisible unless armed — so the armed-but-quiet figure runs stay
  // bit-identical. The tag is what silent media faults cannot forge: a rotted
  // block mismatches its CRC, a misdirected landing carries the wrong intended
  // LBA, and a lost write onto a never-stamped block leaves a stale tag.
  // EnableIntegrity stamps the *current* media as the trusted baseline.
  void EnableIntegrity();
  bool integrity_enabled() const { return integrity_; }

  // Verdict for one block against its tag and the latent-sector set. Host-side
  // only: charges nothing, draws nothing.
  BlockIntegrity CheckBlock(BlockId b) const;

  // Re-stamps the tag from the block's current media bytes and clears any
  // latent-sector mark: the kernel-internal MutableBlock write path (superblock,
  // catalogues, repair) calls this where DMA writes stamp implicitly.
  void Restamp(BlockId b);

  // Attaches a tracer; the request lifecycle (submit, merge, dispatch,
  // seek/rotate/transfer, complete) lands in the `disk` category on `track`, and
  // per-request service time feeds the "disk.service_cycles" histogram.
  void SetTracer(trace::Tracer* tracer, uint32_t track) {
    tracer_ = tracer;
    trace_track_ = track;
    service_hist_ = tracer != nullptr ? tracer->Histogram("disk.service_cycles") : nullptr;
  }

  // Simulated power loss: the block store freezes exactly as the in-flight request
  // left it. Queued requests are lost, the active request never completes (its DMA
  // happens at completion time, so nothing of it landed), and no callbacks run.
  void PowerCut();
  // Restores power after a crash: the store contents survive, queue and head state
  // reset. Models the machine rebooting against the same platters.
  void PowerRestore();
  bool powered_off() const { return powered_off_; }

  // Synchronous media access for tests and kernel-internal metadata I/O.
  // RawBlock never allocates: a never-written block reads as one shared zero
  // block, so a span taken of a hole does not see later writes to it.
  // MutableBlock gives a block its own zeroed storage on first use.
  std::span<const uint8_t> RawBlock(BlockId b) const;
  std::span<uint8_t> MutableBlock(BlockId b);

  const DiskGeometry& geometry() const { return geometry_; }
  const DiskStats& stats() const { return stats_; }
  bool idle() const { return !active_ && queue_.empty(); }
  bool active() const { return active_; }

 private:
  // One integrity-sidecar entry; `intended` is the LBA the stamped write was
  // addressed to, so misdirected landings are distinguishable from rot.
  struct BlockTag {
    uint32_t crc = 0;
    BlockId intended = kInvalidBlock;
  };

  // A queued request plus its admission order; seq breaks ties exactly the way
  // queue position did when the queue was a scanned deque (merges only ever grow
  // a request at its tail, so both start and seq are stable once queued).
  struct QueuedRequest : DiskRequest {
    uint64_t seq = 0;
  };
  using QueueIter = std::list<QueuedRequest>::iterator;
  // (block, seq) -> queued request. The dispatch index keys on start block; the
  // per-direction merge indexes key on end block (one past the last block).
  using BlockIndex = std::map<std::pair<BlockId, uint64_t>, QueueIter>;

  void StartNext();
  // Makes `req` the active request and schedules its completion.
  void Dispatch(DiskRequest req);
  void Complete(DiskRequest req);
  // Index insert/erase through a node pool, so steady-state queue churn performs
  // no heap allocation (shallow queues dominate the global benches).
  void IndexInsert(BlockIndex& idx, BlockId block, uint64_t seq, QueueIter it);
  void IndexErase(BlockIndex& idx, BlockIndex::iterator it);
  // Mechanical breakdown of one service, for tracing only. The authoritative
  // completion time is ServiceTime's return value; these are cast per-phase and
  // may disagree with the total by a cycle of rounding.
  struct ServicePhases {
    sim::Cycles overhead = 0;
    sim::Cycles seek = 0;
    sim::Cycles rotate = 0;
  };
  // Cycle cost for servicing a request whose first block is `start`, given current
  // head position and rotational phase. `phases` (optional) receives the breakdown.
  sim::Cycles ServiceTime(BlockId start, uint32_t nblocks, ServicePhases* phases = nullptr);
  uint32_t CylinderOf(BlockId b) const { return b / geometry_.blocks_per_cylinder(); }
  void ClearQueue();

  sim::Engine* engine_;
  PhysMem* mem_;
  DiskGeometry geometry_;
  uint32_t cpu_mhz_;
  // One owning pointer per block; null means never written.
  using Block = std::array<uint8_t, kBlockSize>;
  std::vector<std::unique_ptr<Block>> blocks_;

  std::list<QueuedRequest> queue_;
  BlockIndex by_start_;       // C-LOOK dispatch: all queued requests
  BlockIndex merge_tail_[2];  // merge candidates with frames, by direction [write]
  uint64_t next_submit_seq_ = 0;
  std::list<QueuedRequest> free_queue_nodes_;          // recycled list nodes
  std::vector<BlockIndex::node_type> free_index_nodes_;  // recycled map nodes
  sim::FaultInjector* faults_ = nullptr;
  trace::Tracer* tracer_ = nullptr;
  uint32_t trace_track_ = 0;
  trace::LatencyHistogram* service_hist_ = nullptr;
  sim::Counters* counters_ = nullptr;
  sim::Counters::Slot* rejected_counter_ = nullptr;
  sim::Counters::Slot* dropped_counter_ = nullptr;
  // Media state that survives power cycles and injector detach: latent-bad
  // sectors stay unreadable, tags stay stamped — they model the platter, not
  // the injector's bookkeeping.
  bool integrity_ = false;
  std::vector<BlockTag> tags_;
  std::set<BlockId> latent_bad_;
  bool powered_off_ = false;
  uint64_t power_epoch_ = 0;  // completions scheduled before a cut are invalidated
  bool active_ = false;
  uint32_t head_cylinder_ = 0;
  BlockId last_block_end_ = 0;  // block just past the previous transfer (detect sequential)
  DiskStats stats_;
};

}  // namespace exo::hw

#endif  // EXO_HW_DISK_H_
