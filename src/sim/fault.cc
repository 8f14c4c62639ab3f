#include "sim/fault.h"

#include <cctype>
#include <cstdio>
#include <cstdlib>
#include <iterator>
#include <string_view>
#include <tuple>

namespace exo::sim {

namespace {
std::string Format(const char* fmt, uint64_t a, uint64_t b) {
  char buf[96];
  std::snprintf(buf, sizeof(buf), fmt, static_cast<unsigned long long>(a),
                static_cast<unsigned long long>(b));
  return buf;
}

// ---- The schedule grammar ----
//
// The one table of kinds: the stream each kind's index counts in, and whether
// it carries an arg.
enum Stream { kWireFrames, kBlockWrites, kBlockReads, kMachineCycles };
struct KindRule {
  char kind;
  Stream stream;
  bool has_arg;
};
constexpr KindRule kKindRules[] = {
    {'d', kWireFrames, false},  {'c', kWireFrames, true},     {'u', kWireFrames, false},
    {'w', kBlockWrites, false}, {'m', kBlockWrites, true},    {'l', kBlockReads, false},
    {'r', kBlockReads, true},   {'k', kMachineCycles, true},  {'b', kMachineCycles, true},
};

const KindRule* FindKind(char kind) {
  for (const KindRule& rule : kKindRules) {
    if (rule.kind == kind) {
      return &rule;
    }
  }
  return nullptr;
}

std::string KindName(char kind) {
  if (std::isprint(static_cast<unsigned char>(kind))) {
    return std::string("'") + kind + "'";
  }
  char buf[8];
  std::snprintf(buf, sizeof(buf), "\\x%02x", static_cast<unsigned char>(kind));
  return buf;
}

// CheckFaultSchedule's rules, with diagnostics prefixed `<unit> N:` — the
// parser reports in tokens, every other caller in events.
std::string CheckEvents(const std::vector<FaultEvent>& events, const char* unit) {
  auto fail = [unit](size_t i, const std::string& why) {
    return std::string(unit) + " " + std::to_string(i + 1) + ": " + why;
  };
  // Two events on one consultation index of one stream are ambiguous (the
  // script would silently keep one). Machine kinds key on (cycle, machine):
  // two machines may die on one cycle; one machine killed and rebooted on one
  // cycle has no defined order.
  std::map<std::tuple<Stream, uint64_t, uint64_t>, size_t> seen;
  for (size_t i = 0; i < events.size(); ++i) {
    const FaultEvent& e = events[i];
    const KindRule* rule = FindKind(e.kind);
    if (rule == nullptr) {
      return fail(i, "unknown kind " + KindName(e.kind));
    }
    if (e.index == 0) {
      return fail(i, "index must be >= 1 (indices are 1-based)");
    }
    if (!rule->has_arg && e.arg != 0) {
      return fail(i, "kind " + KindName(e.kind) + " takes no arg");
    }
    const uint64_t machine = rule->stream == kMachineCycles ? e.arg : 0;
    auto [it, inserted] = seen.emplace(std::make_tuple(rule->stream, e.index, machine), i);
    if (!inserted) {
      return fail(i, "duplicate index " + std::to_string(e.index) + " (clashes with " +
                         unit + " " + std::to_string(it->second + 1) + ")");
    }
  }
  return "";
}

// ---- Strict tokenizer ----
//
// Tokens separated by one or more spaces, each `kind@index` or
// `kind@index:arg`. Hand-parsed so overflow is an error, not a wrap; any
// malformed byte rejects the whole schedule. Kinds and indices are left to
// CheckEvents; the tokenizer enforces only what the text alone can show.

bool ParseU64(const std::string& text, size_t* pos, uint64_t* out) {
  if (*pos >= text.size() || !std::isdigit(static_cast<unsigned char>(text[*pos]))) {
    return false;
  }
  uint64_t v = 0;
  while (*pos < text.size() && std::isdigit(static_cast<unsigned char>(text[*pos]))) {
    const uint64_t d = static_cast<uint64_t>(text[*pos] - '0');
    if (v > (UINT64_MAX - d) / 10) {
      return false;  // overflow
    }
    v = v * 10 + d;
    ++*pos;
  }
  *out = v;
  return true;
}

// Returns "" and fills `out`, or "token N: <why>".
std::string Tokenize(const std::string& text, std::vector<FaultEvent>* out) {
  size_t pos = 0;
  size_t token = 0;
  auto fail = [&token](const std::string& why) {
    return "token " + std::to_string(token) + ": " + why;
  };
  while (pos < text.size()) {
    while (pos < text.size() && text[pos] == ' ') {
      ++pos;
    }
    if (pos >= text.size()) {
      break;
    }
    ++token;
    FaultEvent e;
    e.kind = text[pos];
    ++pos;
    if (pos >= text.size() || text[pos] != '@') {
      return fail("expected '@' after kind");
    }
    ++pos;
    if (!ParseU64(text, &pos, &e.index)) {
      return fail("bad or overflowing index");
    }
    bool has_arg = false;
    if (pos < text.size() && text[pos] == ':') {
      ++pos;
      if (!ParseU64(text, &pos, &e.arg)) {
        return fail("bad or overflowing arg");
      }
      has_arg = true;
    }
    if (pos < text.size() && text[pos] != ' ') {
      return fail("trailing garbage in token");
    }
    // A kind that takes an arg must spell it, even as :0; one that takes
    // none must not spell one.
    const KindRule* rule = FindKind(e.kind);
    if (rule != nullptr && rule->has_arg && !has_arg) {
      return fail("kind " + KindName(e.kind) + " requires :arg");
    }
    if (rule != nullptr && !rule->has_arg && has_arg) {
      return fail("kind " + KindName(e.kind) + " forbids :arg");
    }
    out->push_back(e);
  }
  return "";
}

// What each FaultInjector::Fault updates, indexed by Fault.
struct FaultSurface {
  uint64_t FaultStats::*stat;
  const char* counter;
  const char* trace_name;
};
constexpr FaultSurface kFaultSurfaces[] = {
    {&FaultStats::disk_io_errors, "fault.disk_io_errors", "disk_error"},
    {&FaultStats::power_cuts, "fault.power_cuts", "power_cut"},
    {&FaultStats::disk_lost_writes, "fault.disk_lost_writes", "disk_lost_write"},
    {&FaultStats::disk_misdirects, "fault.disk_misdirects", "disk_misdirect"},
    {&FaultStats::disk_rot, "fault.disk_rot", "disk_rot"},
    {&FaultStats::disk_latent, "fault.disk_latent", "disk_latent"},
    {&FaultStats::net_drops, "fault.net_drops", "net_drop"},
    {&FaultStats::net_corruptions, "fault.net_corruptions", "net_corrupt"},
    {&FaultStats::net_duplicates, "fault.net_duplicates", "net_duplicate"},
};
}  // namespace

std::string CheckFaultSchedule(const std::vector<FaultEvent>& events) {
  return CheckEvents(events, "event");
}

void RequireFaultSchedule(const std::vector<FaultEvent>& events, const char* kinds,
                          const char* who) {
  std::string why = CheckFaultSchedule(events);
  for (size_t i = 0; why.empty() && i < events.size(); ++i) {
    if (std::string_view(kinds).find(events[i].kind) == std::string_view::npos) {
      why = "event " + std::to_string(i + 1) + ": kind " + KindName(events[i].kind) +
            " is not one of " + kinds;
    }
  }
  if (!why.empty()) {
    std::fprintf(stderr, "%s: bad fault schedule: %s\n", who, why.c_str());
    std::abort();
  }
}

std::string FormatFaultSchedule(const std::vector<FaultEvent>& events) {
  std::string out;
  for (const FaultEvent& e : events) {
    const KindRule* rule = FindKind(e.kind);
    char buf[64];
    if (rule != nullptr && rule->has_arg) {
      std::snprintf(buf, sizeof(buf), "%c@%llu:%llu", e.kind,
                    static_cast<unsigned long long>(e.index),
                    static_cast<unsigned long long>(e.arg));
    } else {
      std::snprintf(buf, sizeof(buf), "%c@%llu", e.kind,
                    static_cast<unsigned long long>(e.index));
    }
    if (!out.empty()) {
      out += ' ';
    }
    out += buf;
  }
  return out;
}

std::vector<FaultEvent> ParseFaultSchedule(const std::string& text, std::string* error) {
  std::vector<FaultEvent> events;
  std::string why = Tokenize(text, &events);
  if (why.empty()) {
    why = CheckEvents(events, "token");
  }
  if (error != nullptr) {
    *error = why;
  }
  if (!why.empty()) {
    return {};
  }
  return events;
}

FaultInjector::FaultInjector(const FaultPlan& plan) : plan_(plan), rng_(plan.seed) {
  RequireFaultSchedule(plan_.script, "dcuwmlr", "FaultPlan::script");
  for (const FaultEvent& e : plan_.script) {
    const Stream stream = FindKind(e.kind)->stream;
    if (stream == kWireFrames) {
      wire_script_[e.index] = e;
    } else if (stream == kBlockWrites) {
      write_script_[e.index] = e;
    } else {
      read_script_[e.index] = e;
    }
  }
  disk_scripted_ = !write_script_.empty() || !read_script_.empty();
}

void FaultInjector::Record(Fault fault, const std::optional<FaultEvent>& event,
                           std::string line, uint64_t trace_arg) {
  const FaultSurface& surface = kFaultSurfaces[fault];
  ++(stats_.*surface.stat);
  if (counters_[fault] != nullptr) {
    ++*counters_[fault];
  }
  if (event.has_value()) {
    events_.push_back(*event);
  }
  log_.push_back(std::move(line));
  if (tracer_ != nullptr && tracer_->enabled(trace::Category::kFault)) {
    tracer_->Instant(trace::Category::kFault, trace_track_, surface.trace_name,
                     engine_ != nullptr ? engine_->now() : 0, trace_arg);
  }
}

void FaultInjector::AttachCounters(Counters* counters) {
  if (counters == nullptr) {
    counters_attached_ = false;
    counters_.fill(nullptr);
    return;
  }
  if (counters_attached_) {
    return;
  }
  counters_attached_ = true;
  static_assert(std::size(kFaultSurfaces) == kNumFaults);
  for (size_t f = 0; f < kNumFaults; ++f) {
    counters_[f] = counters->Handle(kFaultSurfaces[f].counter);
  }
}

bool FaultInjector::NextDiskRequestFails(uint64_t start_block, uint32_t nblocks) {
  ++stats_.disk_requests_seen;
  if (plan_.disk_error_rate <= 0.0) {
    return false;
  }
  if (rng_.NextDouble() >= plan_.disk_error_rate) {
    return false;
  }
  Record(kDiskError, std::nullopt,
         Format("disk-error block=%llu n=%llu", start_block, nblocks), start_block);
  return true;
}

bool FaultInjector::OnBlockWritten(uint64_t block) {
  ++stats_.disk_blocks_written;
  if (plan_.power_cut_after_blocks == 0 ||
      stats_.disk_blocks_written != plan_.power_cut_after_blocks) {
    return false;
  }
  Record(kPowerCut, std::nullopt,
         Format("power-cut after-block=%llu writes=%llu", block, stats_.disk_blocks_written),
         block);
  return true;
}

FaultInjector::WriteFate FaultInjector::NextWriteFate(uint64_t block,
                                                      uint64_t num_blocks) {
  const uint64_t seq = ++stats_.media_writes_seen;

  auto lost = [&]() {
    Record(kLostWrite, FaultEvent{'w', seq, 0},
           Format("disk-lost-write block=%llu seq=%llu", block, seq), block);
    return WriteFate::kLost;
  };
  auto misdirect = [&](uint64_t target) {
    misdirect_target_ = target;
    Record(kMisdirect, FaultEvent{'m', seq, target},
           Format("disk-misdirect block=%llu to=%llu", block, target), block);
    return WriteFate::kMisdirect;
  };

  if (disk_scripted_) {
    auto it = write_script_.find(seq);
    if (it == write_script_.end()) {
      return WriteFate::kDurable;
    }
    const FaultEvent ev = it->second;
    if (ev.kind == 'm' && num_blocks != 0 && ev.arg < num_blocks) {
      return misdirect(ev.arg);
    }
    // 'w', or a misdirect whose target falls off the media: the write is lost.
    return lost();
  }

  const bool any = plan_.disk_lost_rate > 0.0 || plan_.disk_misdirect_rate > 0.0;
  if (!any) {
    return WriteFate::kDurable;
  }
  const double roll = rng_.NextDouble();
  if (roll < plan_.disk_lost_rate) {
    return lost();
  }
  if (roll < plan_.disk_lost_rate + plan_.disk_misdirect_rate && num_blocks != 0) {
    return misdirect(rng_.Below(num_blocks));
  }
  return WriteFate::kDurable;
}

FaultInjector::ReadFate FaultInjector::NextReadFate(uint64_t block,
                                                    uint64_t block_bytes) {
  const uint64_t seq = ++stats_.disk_blocks_read;

  auto latent = [&]() {
    Record(kLatent, FaultEvent{'l', seq, 0},
           Format("disk-latent block=%llu seq=%llu", block, seq), block);
    return ReadFate::kLatent;
  };
  auto rot = [&](uint64_t offset) {
    rot_offset_ = offset;
    Record(kRot, FaultEvent{'r', seq, offset},
           Format("disk-rot block=%llu off=%llu", block, offset), block);
    return ReadFate::kRot;
  };

  if (disk_scripted_) {
    auto it = read_script_.find(seq);
    if (it == read_script_.end()) {
      return ReadFate::kClean;
    }
    const FaultEvent ev = it->second;
    if (ev.kind == 'r') {
      // Clamp the offset into the block so the recorded (effective) event
      // replays identically.
      return rot(block_bytes != 0 ? ev.arg % block_bytes : 0);
    }
    return latent();
  }

  const bool any = plan_.disk_latent_rate > 0.0 || plan_.disk_rot_rate > 0.0;
  if (!any) {
    return ReadFate::kClean;
  }
  const double roll = rng_.NextDouble();
  if (roll < plan_.disk_latent_rate) {
    return latent();
  }
  if (roll < plan_.disk_latent_rate + plan_.disk_rot_rate && block_bytes != 0) {
    return rot(rng_.Below(block_bytes));
  }
  return ReadFate::kClean;
}

FaultInjector::WireFate FaultInjector::NextWireFate(uint64_t frame_bytes) {
  const uint64_t seq = ++stats_.frames_seen;

  auto drop = [&](const char* fmt) {
    Record(kNetDrop, FaultEvent{'d', seq, 0}, Format(fmt, frame_bytes, seq), frame_bytes);
    return WireFate::kDrop;
  };
  auto corrupt = [&](uint64_t offset) {
    corrupt_offset_ = offset;
    Record(kNetCorrupt, FaultEvent{'c', seq, offset},
           Format("net-corrupt bytes=%llu off=%llu", frame_bytes, offset), offset);
    return WireFate::kCorrupt;
  };
  auto duplicate = [&]() {
    Record(kNetDuplicate, FaultEvent{'u', seq, 0},
           Format("net-dup bytes=%llu seq=%llu", frame_bytes, seq), frame_bytes);
    return WireFate::kDuplicate;
  };

  // Scripted mode: explicit fates by consultation index, zero RNG draws. The
  // short-corrupt → drop demotion matches rate mode so a recorded schedule
  // replays to the identical outcome.
  if (!wire_script_.empty()) {
    auto it = wire_script_.find(seq);
    if (it == wire_script_.end()) {
      return WireFate::kDeliver;
    }
    const FaultEvent ev = it->second;
    if (ev.kind == 'c' && frame_bytes > plan_.net_corrupt_min_offset &&
        ev.arg >= plan_.net_corrupt_min_offset && ev.arg < frame_bytes) {
      return corrupt(ev.arg);
    }
    if (ev.kind == 'u') {
      return duplicate();
    }
    return drop("net-drop bytes=%llu seq=%llu");
  }

  const bool any = plan_.net_drop_rate > 0.0 || plan_.net_corrupt_rate > 0.0 ||
                   plan_.net_duplicate_rate > 0.0;
  if (!any) {
    return WireFate::kDeliver;
  }
  // One draw decides the fate; the rates partition [0, 1).
  const double roll = rng_.NextDouble();
  if (roll < plan_.net_drop_rate) {
    return drop("net-drop bytes=%llu seq=%llu");
  }
  if (roll < plan_.net_drop_rate + plan_.net_corrupt_rate) {
    if (frame_bytes <= plan_.net_corrupt_min_offset) {
      // Nothing detectably corruptible: model the damaged frame as lost instead.
      return drop("net-drop(short-corrupt) bytes=%llu seq=%llu");
    }
    return corrupt(plan_.net_corrupt_min_offset +
                   rng_.Below(frame_bytes - plan_.net_corrupt_min_offset));
  }
  if (roll < plan_.net_drop_rate + plan_.net_corrupt_rate + plan_.net_duplicate_rate) {
    return duplicate();
  }
  return WireFate::kDeliver;
}

}  // namespace exo::sim
