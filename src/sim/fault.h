// FaultInjector: a seed-deterministic fault plan consulted by every hardware model.
//
// The paper's central storage claim is that XN keeps on-disk metadata recoverable
// after a crash at any instant without synchronous writes (Sec. 4.4), and its TCP
// carries retransmission machinery (Sec. 7.3). Neither path is trustworthy unless it
// can be *driven*: this module injects disk I/O errors, power cuts that tear
// multi-block writes, silent media faults (latent sectors, bit rot, misdirected and
// lost writes), and packet drop/corruption/duplication — all drawn from one
// explicitly seeded Rng so a failing schedule is reproducible from its seed alone.
//
// Determinism contract:
//   - All decisions are drawn from a private Rng in consultation order. The
//     simulation is single-threaded and event-ordering is deterministic, so the same
//     seed plus the same workload yields byte-for-byte the same fault schedule.
//   - Every decision that injects a fault is appended to an event log; two runs may
//     be compared with FaultInjector::log() to prove schedule equality.
//   - An unarmed device (no injector attached) draws nothing and charges nothing:
//     fault support is a single null-pointer test on the hot path, so benchmark
//     outputs are bit-identical with and without the subsystem compiled in.
#ifndef EXO_SIM_FAULT_H_
#define EXO_SIM_FAULT_H_

#include <array>
#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "sim/counters.h"
#include "sim/engine.h"
#include "sim/rng.h"
#include "trace/trace.h"

namespace exo::sim {

// One fault in a schedule: the replayable unit for wire, disk and machine
// faults alike. `kind` names the stream `index` counts in (1-based):
//
//   d c u  frames entering the links that share the injector (the count
//          rate-mode log lines print as `seq=`): drop, corrupt, duplicate
//   w m    block-write consultations: lost write, misdirected write
//   l r    block-read consultations: latent sector, bit rot
//   k b    the engine cycle on the victim's shard clock: machine kill, reboot
//
// `arg` is the byte to flip for c and r, the target LBA for m, the machine id
// for k and b, and 0 for d u w l. The schedule a run executed
// (FaultInjector::events()) feeds back through FaultPlan::script and hits the
// same consultations, because consultation order is deterministic.
struct FaultEvent {
  char kind = 'd';
  uint64_t index = 0;
  uint64_t arg = 0;

  bool operator==(const FaultEvent&) const = default;
};

// "" when `events` is a well-formed schedule, else "event N: <why>" for the
// first bad event (N is 1-based). Rejects an unknown kind, index 0, a nonzero
// arg on a kind that takes none, and two events on one index of one stream —
// for k and b, one machine on one cycle, whose order would be ambiguous.
std::string CheckFaultSchedule(const std::vector<FaultEvent>& events);

// Aborts, naming `who` and the reason, unless CheckFaultSchedule(events)
// passes and every kind is one of `kinds`. Every consumer of a schedule
// calls it first, so a schedule it would misread never runs.
void RequireFaultSchedule(const std::vector<FaultEvent>& events, const char* kinds,
                          const char* who);

// The one-line codec: "d@3 c@15:58 w@9 m@5:917 r@7:128 k@5000:1", tokens
// separated by spaces, each `kind@index` or `kind@index:arg`. c, m, r, k and
// b carry a mandatory :arg; the others forbid one. The parser is strict: a
// malformed token, or a schedule CheckFaultSchedule rejects, yields an empty
// schedule with a "token N: <why>" diagnostic in *error when supplied — never
// a silent misparse.
std::string FormatFaultSchedule(const std::vector<FaultEvent>& events);
std::vector<FaultEvent> ParseFaultSchedule(const std::string& text,
                                           std::string* error = nullptr);

// Declarative description of the faults to inject. Rates are per-consultation
// probabilities in [0, 1]; 0 disables the corresponding fault class. The
// script carries an explicit `{}` initializer so a designated initializer
// that omits it (FaultPlan{.seed = 3}) stays clean under GCC 12's
// -Wmissing-field-initializers.
struct FaultPlan {
  uint64_t seed = 1;

  // ---- Disk: fail-stop ----
  // Probability that a disk request fails wholesale with Status::kIoError (no DMA
  // is performed; the media is untouched). Transient: a retry redraws.
  double disk_error_rate = 0.0;
  // Power-cut point: after the k-th *block* write lands on the platter, power is
  // lost. A multi-block request in flight is torn: blocks before the cut are
  // durable, the rest never happen. 0 disables.
  uint64_t power_cut_after_blocks = 0;

  // ---- Disk: silent media faults ----
  // Per-block-write probability that the write is acked but never durable (media
  // and checksum tag untouched — the classic lost write).
  double disk_lost_rate = 0.0;
  // Per-block-write probability that the block lands at a wrong LBA: the
  // intended block keeps its old contents, the victim is overwritten.
  double disk_misdirect_rate = 0.0;
  // Per-block-read probability that one media byte flips *persistently* before
  // the DMA (silent bit rot surfacing at read time).
  double disk_rot_rate = 0.0;
  // Per-block-read probability that the sector goes latent-bad: this and every
  // later read of it fails with kIoError until the block is rewritten.
  double disk_latent_rate = 0.0;

  // ---- Wire ----
  double net_drop_rate = 0.0;       // frame vanishes
  double net_corrupt_rate = 0.0;    // one byte of the frame is flipped
  double net_duplicate_rate = 0.0;  // frame is delivered twice
  // Corruption is confined to bytes at or beyond this offset (protocol payload;
  // headers in this simulation carry no checksum, so flipping them would model a
  // fault the receiver cannot detect). Frames too short to corrupt are dropped
  // instead, which the receiver treats identically (a timeout).
  uint32_t net_corrupt_min_offset = 0;

  // ---- Scripted mode ----
  // A layer is scripted when this schedule holds one of its kinds (d c u for
  // the wire, w m l r for the media): its fates then come from the schedule
  // instead of its rates, and no RNG is consulted for it at all. Used to replay
  // (and delta-minimize) the schedule a previous run recorded in events().
  // Machine kinds (k, b) belong to cluster::Topology::ApplyMachineSchedule: the
  // injector aborts on them, and on any schedule CheckFaultSchedule rejects.
  std::vector<FaultEvent> script{};
};

struct FaultStats {
  uint64_t disk_requests_seen = 0;
  uint64_t disk_io_errors = 0;
  uint64_t disk_blocks_written = 0;  // durable block writes counted toward the cut
  uint64_t power_cuts = 0;
  uint64_t media_writes_seen = 0;    // block-write fate consultations
  uint64_t disk_blocks_read = 0;     // block-read fate consultations
  uint64_t disk_lost_writes = 0;
  uint64_t disk_misdirects = 0;
  uint64_t disk_rot = 0;
  uint64_t disk_latent = 0;
  uint64_t frames_seen = 0;
  uint64_t net_drops = 0;
  uint64_t net_corruptions = 0;
  uint64_t net_duplicates = 0;
};

class FaultInjector {
 public:
  explicit FaultInjector(const FaultPlan& plan);

  FaultInjector(const FaultInjector&) = delete;
  FaultInjector& operator=(const FaultInjector&) = delete;

  const FaultPlan& plan() const { return plan_; }
  const FaultStats& stats() const { return stats_; }

  // The schedule actually executed, one line per injected fault, in order. Two runs
  // with the same seed and workload must produce identical logs.
  const std::vector<std::string>& log() const { return log_; }

  // The wire and media faults actually executed, in consultation order, with
  // their effective values (a clamped rot offset, a corrupt demoted to a drop).
  // Fed back through FaultPlan::script, whole or ddmin-pruned (sim::Shrinker),
  // it re-runs or minimizes the schedule of both layers.
  const std::vector<FaultEvent>& events() const { return events_; }

  // Mirrors every injected fault into the tracer's `fault` category as an
  // instant event, stamped with the engine clock, so a failing crash-test
  // schedule replays with a visible timeline. First attachment wins (a Disk and
  // a Link sharing one injector both try to wire it); detach with nullptr.
  void AttachTracer(trace::Tracer* tracer, const Engine* engine) {
    if (tracer == nullptr) {
      tracer_ = nullptr;
      engine_ = nullptr;
      return;
    }
    if (tracer_ != nullptr) {
      return;
    }
    tracer_ = tracer;
    engine_ = engine;
    trace_track_ = tracer->NewTrack("faults");
  }
  trace::Tracer* tracer() const { return tracer_; }

  // Mirrors fault counts into the standard counter surface as `fault.*` so
  // activity is observable without reading the injector log (see
  // docs/OBSERVABILITY.md). Same contract as AttachTracer: first attachment
  // wins, nullptr detaches.
  void AttachCounters(Counters* counters);

  // ---- Disk consultation ----

  // Drawn once per disk request as it begins service. True => the request fails
  // with kIoError and performs no transfer.
  bool NextDiskRequestFails(uint64_t start_block, uint32_t nblocks);

  // Called for each block write the instant it becomes durable. Returns true when
  // this write is the k-th and power is lost *after* it (the caller must freeze:
  // later blocks of the same request are torn away).
  bool OnBlockWritten(uint64_t block);

  bool power_cut_pending() const {
    return plan_.power_cut_after_blocks != 0 &&
           stats_.disk_blocks_written < plan_.power_cut_after_blocks;
  }

  // ---- Media consultation ----

  enum class WriteFate { kDurable, kLost, kMisdirect };
  enum class ReadFate { kClean, kRot, kLatent };

  // Drawn once per DMA'd block write, before the transfer. kLost => the caller
  // acks without touching the media; kMisdirect => the data lands at
  // MisdirectTarget() instead of `block`. `num_blocks` bounds the target.
  WriteFate NextWriteFate(uint64_t block, uint64_t num_blocks);
  uint64_t MisdirectTarget() const { return misdirect_target_; }

  // Drawn once per DMA'd block read, before the transfer. kRot => the caller
  // flips the media byte at RotOffset() (persistently) and completes the read;
  // kLatent => the sector is now unreadable until rewritten and the request
  // fails. `block_bytes` bounds the rot offset.
  ReadFate NextReadFate(uint64_t block, uint64_t block_bytes);
  uint64_t RotOffset() const { return rot_offset_; }

  // ---- Wire consultation ----

  enum class WireFate { kDeliver, kDrop, kCorrupt, kDuplicate };

  // Drawn once per frame entering a link. For kCorrupt the caller flips the byte at
  // CorruptionOffset(); for kDuplicate it delivers the frame twice.
  WireFate NextWireFate(uint64_t frame_bytes);

  // Byte index to flip in a frame of `frame_bytes` bytes; only valid immediately
  // after NextWireFate returned kCorrupt for that frame.
  uint64_t CorruptionOffset() const { return corrupt_offset_; }

 private:
  // The faults the injector draws, in the order of fault.cc's table of their
  // FaultStats fields, fault.* counters and trace instant names.
  enum Fault : uint8_t {
    kDiskError,
    kPowerCut,
    kLostWrite,
    kMisdirect,
    kRot,
    kLatent,
    kNetDrop,
    kNetCorrupt,
    kNetDuplicate,
    kNumFaults
  };

  // Records one injected fault on all five surfaces: its FaultStats field, its
  // fault.* counter, events() (when it is replayable), log() and the `fault`
  // trace instant, whose arg is `trace_arg`.
  void Record(Fault fault, const std::optional<FaultEvent>& event, std::string line,
              uint64_t trace_arg);

  FaultPlan plan_;
  Rng rng_;
  FaultStats stats_;
  uint64_t corrupt_offset_ = 0;
  uint64_t misdirect_target_ = 0;
  uint64_t rot_offset_ = 0;
  std::vector<std::string> log_;
  std::vector<FaultEvent> events_;
  // FaultPlan::script split by stream, each keyed by consultation index.
  std::map<uint64_t, FaultEvent> wire_script_;
  std::map<uint64_t, FaultEvent> write_script_;
  std::map<uint64_t, FaultEvent> read_script_;
  bool disk_scripted_ = false;
  trace::Tracer* tracer_ = nullptr;
  const Engine* engine_ = nullptr;
  uint32_t trace_track_ = 0;
  std::array<Counters::Slot*, kNumFaults> counters_{};  // by Fault; null: detached
  bool counters_attached_ = false;
};

}  // namespace exo::sim

#endif  // EXO_SIM_FAULT_H_
