// exo::trace — deterministic, allocation-light tracing and metrics.
//
// Every layer of the simulator (engine, scheduler, syscall surface, disk, wire,
// TCP, XN, C-FFS, HTTP) owns instrumentation points that emit fixed-size records
// into one shared ring. Records are stamped with the *simulated* clock: tracing
// reads time, it never advances it, so simulated behavior is bit-identical with
// tracing on or off. The gem5 probe/stats split is the template — layers own the
// points, the run chooses the consumers.
//
// Hot-path contract:
//   - Disabled: the whole subsystem is one predicted branch per site
//     (`tracer->enabled(cat)` tests a bit in a cached mask; unattached components
//     test a null pointer first). Nothing is stored, nothing allocates.
//   - Enabled: emission writes one 40-byte POD record into a preallocated ring
//     (the oldest records are overwritten once full) — still no allocation.
//
// Attribution: every record carries a track id. Track 0 exists from birth
// ("main"); components register their own tracks (one per env, machine, device)
// with NewTrack() at construction/boot, which is off the hot path. Exporters
// render one Perfetto thread per track.
//
// This header is dependency-free on purpose: sim/ components (Engine,
// FaultInjector) hold Tracer pointers, so trace/ cannot link against sim/.
// Callers pass the current cycle count explicitly.
#ifndef EXO_TRACE_TRACE_H_
#define EXO_TRACE_TRACE_H_

#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "trace/histogram.h"

namespace exo::trace {

using Cycles = uint64_t;

// Per-category enables; a record belongs to exactly one category.
enum class Category : uint8_t {
  kSched = 0,  // engine event dispatch, scheduler decisions, CPU occupancy
  kSyscall,    // XokKernel syscall spans (env + Status), libOS call counts
  kDisk,       // request lifecycle: submit, merge, dispatch, seek/rotate/transfer
  kNet,        // NIC/link wire occupancy, TCP segment tx/rx/retransmit
  kXn,         // XN ops, stable-storage writes, recovery
  kFs,         // C-FFS block lookups and metadata reads
  kApp,        // application-level work (HTTP requests, workload steps)
  kFault,      // injected faults (disk errors, power cuts, wire damage)
};

inline constexpr int kNumCategories = 8;
inline constexpr uint32_t Bit(Category c) { return 1u << static_cast<unsigned>(c); }
inline constexpr uint32_t kAllCategories = (1u << kNumCategories) - 1;

const char* CategoryName(Category c);
// Parses a comma-separated category list ("disk,net,fault"; "all" for every
// category) into a mask. Returns false on an unknown name, leaving *mask alone.
bool ParseCategoryMask(const std::string& list, uint32_t* mask);

enum class Kind : uint8_t {
  kBegin,    // span open on the record's track
  kEnd,      // span close (most recent open span on the track)
  kInstant,  // point event
  kCounter,  // sampled counter value in `arg`
};

struct Record {
  Cycles time = 0;    // simulated cycles
  uint64_t seq = 0;   // global emission order
  const char* name = nullptr;  // static string literal owned by the caller
  uint64_t arg = 0;   // numeric payload (Status, bytes, block, env id, ...)
  uint32_t track = 0;
  Category category = Category::kSched;
  Kind kind = Kind::kInstant;
};

class Tracer {
 public:
  static constexpr size_t kDefaultCapacity = size_t{1} << 18;  // ~10 MB of records

  Tracer() { track_names_.push_back("main"); }
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  // Arms the given categories and (re)sizes the ring. Existing records survive a
  // same-capacity re-enable; changing capacity restarts the ring.
  void Enable(uint32_t mask = kAllCategories, size_t capacity = kDefaultCapacity) {
    mask_ = mask & kAllCategories;
    if (ring_.size() != capacity) {
      ring_.assign(capacity, Record{});
      seq_ = 0;
    }
  }
  bool active() const { return mask_ != 0; }
  bool enabled(Category c) const { return (mask_ & Bit(c)) != 0; }
  uint32_t mask() const { return mask_; }

  // Registers an attribution track (cold path: construction/boot only).
  uint32_t NewTrack(std::string name) {
    track_names_.push_back(name_prefix_.empty() ? std::move(name)
                                                : name_prefix_ + name);
    return static_cast<uint32_t>(track_names_.size() - 1);
  }
  const std::vector<std::string>& track_names() const { return track_names_; }

  // Prefixes every track and histogram name with `prefix` ("m3." in a
  // cluster), so merged multi-machine exports attribute unambiguously.
  // Existing tracks and histograms are renamed in place (record track ids and
  // cached histogram pointers stay valid); future NewTrack()/Histogram() names
  // gain the prefix automatically. Apply at most once, before merging; the
  // default (empty) leaves single-machine names byte-identical.
  void SetNamePrefix(const std::string& prefix) {
    if (prefix == name_prefix_) {
      return;
    }
    for (std::string& name : track_names_) {
      name = prefix + name.substr(name_prefix_.size());
    }
    std::map<std::string, std::unique_ptr<LatencyHistogram>> renamed;
    for (auto& [name, h] : histograms_) {
      renamed.emplace(prefix + name.substr(name_prefix_.size()), std::move(h));
    }
    histograms_ = std::move(renamed);
    name_prefix_ = prefix;
  }

  // Emission. Callers must check enabled(category) first — these write
  // unconditionally (apart from an empty-ring guard).
  void Begin(Category c, uint32_t track, const char* name, Cycles now, uint64_t arg = 0) {
    Push(c, Kind::kBegin, track, name, now, arg);
  }
  void End(Category c, uint32_t track, const char* name, Cycles now, uint64_t arg = 0) {
    Push(c, Kind::kEnd, track, name, now, arg);
  }
  void Instant(Category c, uint32_t track, const char* name, Cycles now, uint64_t arg = 0) {
    Push(c, Kind::kInstant, track, name, now, arg);
  }
  void Counter(Category c, uint32_t track, const char* name, Cycles now, uint64_t value) {
    Push(c, Kind::kCounter, track, name, now, value);
  }

  // Named latency histogram, created at zero on first use. The pointer is
  // stable: hot paths cache it exactly like a Counters slot handle.
  LatencyHistogram* Histogram(const std::string& name) {
    const std::string key = name_prefix_.empty() ? name : name_prefix_ + name;
    auto it = histograms_.find(key);
    if (it == histograms_.end()) {
      it = histograms_.emplace(key, std::make_unique<LatencyHistogram>()).first;
    }
    return it->second.get();
  }
  const std::map<std::string, std::unique_ptr<LatencyHistogram>>& histograms() const {
    return histograms_;
  }

  // ---- Export access ----

  uint64_t emitted() const { return seq_; }
  size_t capacity() const { return ring_.size(); }
  // Records lost to ring wraparound (always the oldest ones).
  uint64_t dropped() const {
    if (ring_.empty()) {
      return seq_;
    }
    return seq_ > ring_.size() ? seq_ - ring_.size() : 0;
  }
  // Surviving records in emission (seq) order.
  std::vector<Record> Records() const;

 private:
  void Push(Category c, Kind k, uint32_t track, const char* name, Cycles now,
            uint64_t arg) {
    if (ring_.empty()) {
      return;  // armed with zero capacity: count nothing, store nothing
    }
    Record& r = ring_[static_cast<size_t>(seq_ % ring_.size())];
    r.time = now;
    r.seq = seq_++;
    r.name = name;
    r.arg = arg;
    r.track = track;
    r.category = c;
    r.kind = k;
  }

  uint32_t mask_ = 0;
  uint64_t seq_ = 0;
  std::vector<Record> ring_;
  std::vector<std::string> track_names_;
  std::map<std::string, std::unique_ptr<LatencyHistogram>> histograms_;
  std::string name_prefix_;
};

// ---- Exporters ----

// Compact deterministic text dump of several machines' tracers (tests diff
// this byte-for-byte): a header line, one line per record in (time, tracer
// index, seq) order, then the histogram blocks in tracer order. Give each
// tracer a distinct SetNamePrefix ("m0.", "m1.", ...) so merged track and
// histogram names stay unambiguous. The cluster determinism tests diff this
// across thread counts.
std::string MergedTextDump(const std::vector<const Tracer*>& tracers,
                           uint32_t cpu_mhz = 200);

// The merged dump of one tracer: its records in (time, seq) order.
std::string TextDump(const Tracer& tracer, uint32_t cpu_mhz = 200);

// Chrome trace_event JSON loadable by ui.perfetto.dev / chrome://tracing.
// One thread per track; span begins/ends are rebalanced per track (orphan ends
// from ring wraparound are dropped, spans still open at the end are closed) so
// the output always nests correctly. Timestamps are microseconds.
std::string PerfettoJson(const Tracer& tracer, uint32_t cpu_mhz = 200);

// Formats the histogram registry ("name: count min mean p50 p90 p99 max"), one
// per line — benches print this to stderr so stdout stays bit-identical.
std::string HistogramSummary(const Tracer& tracer);

}  // namespace exo::trace

#endif  // EXO_TRACE_TRACE_H_
