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

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "sim/counters.h"
#include "sim/engine.h"
#include "sim/rng.h"
#include "trace/trace.h"

namespace exo::sim {

// One wire fault, keyed by consultation index: the `frame_index`-th frame to
// enter any link sharing the injector (1-based — the same count rate-mode log
// lines print as `seq=`). This is the replayable unit: the schedule a run
// *executed* (wire_events()) can be fed back verbatim via FaultPlan::wire_script
// and hits the identical frames, because consultation order is deterministic.
struct WireEvent {
  uint64_t frame_index = 0;
  char kind = 'd';              // 'd' drop, 'c' corrupt, 'u' duplicate
  uint64_t corrupt_offset = 0;  // byte to flip, kind == 'c' only

  bool operator==(const WireEvent&) const = default;
};

// One media fault, keyed by consultation index within its *direction* stream.
// Write kinds index the Nth block-write consultation; read kinds index the Nth
// block-read consultation (both 1-based, counted across every request the
// injector sees). Like WireEvent, the schedule a run executed (disk_events())
// replays verbatim through FaultPlan::disk_script.
struct DiskEvent {
  uint64_t index = 0;
  char kind = 'w';   // 'w' lost write, 'm' misdirected write, 'l' latent sector, 'r' bit rot
  uint64_t arg = 0;  // 'm': absolute target LBA; 'r': byte offset to flip; else unused

  bool operator==(const DiskEvent&) const = default;
};

// One whole-machine fault, keyed by *absolute simulated time* (cycles) rather
// than a consultation index: machine death is an external event, not a fate
// drawn on a device's consultation stream. The schedule is applied up front
// (cluster::Topology::ApplyMachineSchedule), so it is ddmin-shrinkable exactly
// like the wire/disk scripts — every subset replays deterministically.
struct MachineEvent {
  uint64_t time = 0;     // engine cycles on the victim machine's shard clock
  char kind = 'k';       // 'k' kill, 'b' reboot
  uint64_t machine = 0;  // cluster-wide machine id

  bool operator==(const MachineEvent&) const = default;
};

// A wire, disk, or machine fault in one combined stream. The kind letters of
// the layers are disjoint (d/c/u vs w/m/l/r vs k/b), so a single token
// grammar — and a single ddmin pass — covers all of them.
struct FaultEvent {
  char kind = 'd';
  uint64_t index = 0;  // per-layer, per-direction consultation index (or time)
  uint64_t arg = 0;

  bool operator==(const FaultEvent&) const = default;
};

inline bool IsWireFaultKind(char k) { return k == 'd' || k == 'c' || k == 'u'; }
inline bool IsMachineFaultKind(char k) { return k == 'k' || k == 'b'; }

// Compact one-line codecs: "d@3 c@15:7 u@20" (wire), "w@9 m@5:917 l@2 r@7:128"
// (disk), and the union grammar for combined schedules. kinds 'c'/'r'/'m' carry
// a mandatory :arg; the others forbid one. Parsers are strict: any garbage
// token, overflow, zero index, or duplicate index within a stream yields an
// empty schedule, with a diagnostic in *error when supplied — never a silent
// misparse.
std::string FormatWireSchedule(const std::vector<WireEvent>& events);
std::vector<WireEvent> ParseWireSchedule(const std::string& text,
                                         std::string* error = nullptr);
std::string FormatDiskSchedule(const std::vector<DiskEvent>& events);
std::vector<DiskEvent> ParseDiskSchedule(const std::string& text,
                                         std::string* error = nullptr);
std::string FormatFaultSchedule(const std::vector<FaultEvent>& events);
std::vector<FaultEvent> ParseFaultSchedule(const std::string& text,
                                           std::string* error = nullptr);

// Machine schedule codec: "k@5000:1 b@90000:1" kills machine 1 at cycle 5000
// and reboots it at cycle 90000. Both kinds carry a mandatory :machine arg.
// Two events for the *same machine* at the same cycle are rejected (ambiguous
// order); events for different machines may share a cycle.
std::string FormatMachineSchedule(const std::vector<MachineEvent>& events);
std::vector<MachineEvent> ParseMachineSchedule(const std::string& text,
                                               std::string* error = nullptr);

// Splits a combined schedule into its per-layer scripts. Sound because indices
// are per-stream. The two-argument form ignores machine events; pass `machine`
// to collect them.
void SplitFaultSchedule(const std::vector<FaultEvent>& events,
                        std::vector<WireEvent>* wire, std::vector<DiskEvent>* disk);
void SplitFaultSchedule(const std::vector<FaultEvent>& events,
                        std::vector<WireEvent>* wire, std::vector<DiskEvent>* disk,
                        std::vector<MachineEvent>* machine);

// Declarative description of the faults to inject. Rates are per-consultation
// probabilities in [0, 1]; 0 disables the corresponding fault class. The
// script vectors carry explicit `{}` initializers so a designated initializer
// that omits them (FaultPlan{.seed = 3}) stays clean under GCC 12's
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
  // Scripted media mode: when non-empty, media-fault fates come from this
  // explicit schedule instead of the four rates above — no RNG is consulted for
  // the media at all.
  std::vector<DiskEvent> disk_script{};

  // ---- Wire ----
  double net_drop_rate = 0.0;       // frame vanishes
  double net_corrupt_rate = 0.0;    // one byte of the frame is flipped
  double net_duplicate_rate = 0.0;  // frame is delivered twice
  // Corruption is confined to bytes at or beyond this offset (protocol payload;
  // headers in this simulation carry no checksum, so flipping them would model a
  // fault the receiver cannot detect). Frames too short to corrupt are dropped
  // instead, which the receiver treats identically (a timeout).
  uint32_t net_corrupt_min_offset = 0;
  // Scripted wire mode: when non-empty, wire fates come from this explicit
  // schedule instead of the rates above — no RNG is consulted for the wire at
  // all. Used to replay (and delta-minimize) a schedule recorded by a previous
  // rate-mode run.
  std::vector<WireEvent> wire_script{};
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
  uint64_t machine_kills = 0;
  uint64_t machine_reboots = 0;
};

class FaultInjector {
 public:
  explicit FaultInjector(const FaultPlan& plan) : plan_(plan), rng_(plan.seed) {
    for (const WireEvent& e : plan_.wire_script) {
      script_[e.frame_index] = e;
    }
    disk_scripted_ = !plan_.disk_script.empty();
    for (const DiskEvent& e : plan_.disk_script) {
      if (e.kind == 'w' || e.kind == 'm') {
        write_script_[e.index] = e;
      } else {
        read_script_[e.index] = e;
      }
    }
  }

  FaultInjector(const FaultInjector&) = delete;
  FaultInjector& operator=(const FaultInjector&) = delete;

  const FaultPlan& plan() const { return plan_; }
  const FaultStats& stats() const { return stats_; }

  // The schedule actually executed, one line per injected fault, in order. Two runs
  // with the same seed and workload must produce identical logs.
  const std::vector<std::string>& log() const { return log_; }

  // The wire faults actually executed, in consultation order, in the replayable
  // form: feed them back through FaultPlan::wire_script (whole or ddmin-pruned —
  // sim::Shrinker) to re-run or minimize the schedule.
  const std::vector<WireEvent>& wire_events() const { return wire_events_; }

  // Same for media faults: replay through FaultPlan::disk_script.
  const std::vector<DiskEvent>& disk_events() const { return disk_events_; }

  // Machine kill/reboot events actually executed, in firing order: replay
  // through cluster::Topology::ApplyMachineSchedule.
  const std::vector<MachineEvent>& machine_events() const { return machine_events_; }

  // Called by the cluster layer when a scheduled machine event fires (machine
  // death is not a per-device fate, so the injector never schedules one), so
  // whole-machine faults join the injector's log / trace / counter surface.
  void RecordMachine(const MachineEvent& e);

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
  void Log(std::string line) { log_.push_back(std::move(line)); }
  // Emits a `fault` instant if a tracer is attached and the category armed.
  void TraceFault(const char* name, uint64_t arg) {
    if (tracer_ != nullptr && tracer_->enabled(trace::Category::kFault)) {
      tracer_->Instant(trace::Category::kFault, trace_track_, name,
                       engine_ != nullptr ? engine_->now() : 0, arg);
    }
  }
  void Count(Counters::Slot* slot) {
    if (slot != nullptr) {
      ++*slot;
    }
  }
  void RecordWire(const WireEvent& e) { wire_events_.push_back(e); }
  void RecordDisk(const DiskEvent& e) { disk_events_.push_back(e); }

  FaultPlan plan_;
  Rng rng_;
  FaultStats stats_;
  uint64_t corrupt_offset_ = 0;
  uint64_t misdirect_target_ = 0;
  uint64_t rot_offset_ = 0;
  bool disk_scripted_ = false;
  std::vector<std::string> log_;
  std::vector<WireEvent> wire_events_;
  std::vector<DiskEvent> disk_events_;
  std::vector<MachineEvent> machine_events_;
  std::map<uint64_t, WireEvent> script_;        // wire_script indexed by frame_index
  std::map<uint64_t, DiskEvent> write_script_;  // disk_script, write-stream kinds
  std::map<uint64_t, DiskEvent> read_script_;   // disk_script, read-stream kinds
  trace::Tracer* tracer_ = nullptr;
  const Engine* engine_ = nullptr;
  uint32_t trace_track_ = 0;
  Counters::Slot* c_disk_io_errors_ = nullptr;
  Counters::Slot* c_power_cuts_ = nullptr;
  Counters::Slot* c_lost_writes_ = nullptr;
  Counters::Slot* c_misdirects_ = nullptr;
  Counters::Slot* c_rot_ = nullptr;
  Counters::Slot* c_latent_ = nullptr;
  Counters::Slot* c_net_drops_ = nullptr;
  Counters::Slot* c_net_corruptions_ = nullptr;
  Counters::Slot* c_net_duplicates_ = nullptr;
  Counters::Slot* c_machine_kills_ = nullptr;
  Counters::Slot* c_machine_reboots_ = nullptr;
  bool counters_attached_ = false;
};

}  // namespace exo::sim

#endif  // EXO_SIM_FAULT_H_
