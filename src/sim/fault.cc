#include "sim/fault.h"

#include <cctype>
#include <cstdio>

namespace exo::sim {

namespace {
std::string Format(const char* fmt, uint64_t a, uint64_t b) {
  char buf[96];
  std::snprintf(buf, sizeof(buf), fmt, static_cast<unsigned long long>(a),
                static_cast<unsigned long long>(b));
  return buf;
}

// ---- Strict schedule tokenizer ----
//
// Grammar (shared by all three codecs): tokens separated by one or more spaces,
// each `kind@index` or `kind@index:arg`. Hand-parsed so overflow is an error,
// not a wrap; any malformed byte rejects the whole schedule.

struct SchedToken {
  char kind = 0;
  uint64_t index = 0;
  bool has_arg = false;
  uint64_t arg = 0;
};

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

void SetError(std::string* error, size_t token, const std::string& why) {
  if (error != nullptr) {
    *error = "token " + std::to_string(token) + ": " + why;
  }
}

// `needs_arg` maps each allowed kind letter to whether :arg is mandatory
// (it is always forbidden otherwise).
bool TokenizeSchedule(const std::string& text, const std::string& allowed,
                      const std::string& needs_arg, std::vector<SchedToken>* out,
                      std::string* error) {
  size_t pos = 0;
  size_t token = 0;
  while (pos < text.size()) {
    while (pos < text.size() && text[pos] == ' ') {
      ++pos;
    }
    if (pos >= text.size()) {
      break;
    }
    ++token;
    SchedToken t;
    t.kind = text[pos];
    const size_t ki = allowed.find(t.kind);
    if (ki == std::string::npos) {
      SetError(error, token, std::string("unknown kind '") + t.kind + "'");
      return false;
    }
    ++pos;
    if (pos >= text.size() || text[pos] != '@') {
      SetError(error, token, "expected '@' after kind");
      return false;
    }
    ++pos;
    if (!ParseU64(text, &pos, &t.index)) {
      SetError(error, token, "bad or overflowing index");
      return false;
    }
    if (t.index == 0) {
      SetError(error, token, "index must be >= 1 (consultation indices are 1-based)");
      return false;
    }
    if (pos < text.size() && text[pos] == ':') {
      ++pos;
      if (!ParseU64(text, &pos, &t.arg)) {
        SetError(error, token, "bad or overflowing arg");
        return false;
      }
      t.has_arg = true;
    }
    if (pos < text.size() && text[pos] != ' ') {
      SetError(error, token, "trailing garbage in token");
      return false;
    }
    const bool want_arg = needs_arg[ki] == '1';
    if (want_arg && !t.has_arg) {
      SetError(error, token, std::string("kind '") + t.kind + "' requires :arg");
      return false;
    }
    if (!want_arg && t.has_arg) {
      SetError(error, token, std::string("kind '") + t.kind + "' forbids :arg");
      return false;
    }
    out->push_back(t);
  }
  return true;
}

// Rejects two events aimed at the same consultation index of the same stream:
// `stream_of` maps a kind letter to an arbitrary stream id; duplicates within
// one stream are ambiguous (the script map would silently last-win). Machine
// kinds key on (index, arg) instead of index alone: their index is a *time*,
// and two machines may legitimately die on the same cycle — only two events
// for the same machine at the same cycle are ambiguous.
bool CheckDuplicates(const std::vector<SchedToken>& tokens, int (*stream_of)(char),
                     std::string* error) {
  std::map<std::tuple<int, uint64_t, uint64_t>, size_t> seen;
  for (size_t i = 0; i < tokens.size(); ++i) {
    const uint64_t sub = IsMachineFaultKind(tokens[i].kind) ? tokens[i].arg : 0;
    const auto key = std::make_tuple(stream_of(tokens[i].kind), tokens[i].index, sub);
    auto [it, inserted] = seen.emplace(key, i);
    if (!inserted) {
      SetError(error, i + 1,
               "duplicate index " + std::to_string(tokens[i].index) +
                   " (clashes with token " + std::to_string(it->second + 1) + ")");
      return false;
    }
  }
  return true;
}

int WireStream(char) { return 0; }
int DiskStream(char k) { return (k == 'w' || k == 'm') ? 1 : 2; }
// 'k' and 'b' share one stream so kill+reboot of one machine on one cycle —
// whose order would be ambiguous — is rejected as a duplicate.
int MachineStream(char) { return 3; }
int CombinedStream(char k) {
  if (IsWireFaultKind(k)) {
    return 0;
  }
  return IsMachineFaultKind(k) ? MachineStream(k) : DiskStream(k);
}

void AppendToken(std::string* out, char kind, uint64_t index, bool has_arg,
                 uint64_t arg) {
  if (!out->empty()) {
    *out += ' ';
  }
  char buf[64];
  if (has_arg) {
    std::snprintf(buf, sizeof(buf), "%c@%llu:%llu", kind,
                  static_cast<unsigned long long>(index),
                  static_cast<unsigned long long>(arg));
  } else {
    std::snprintf(buf, sizeof(buf), "%c@%llu", kind,
                  static_cast<unsigned long long>(index));
  }
  *out += buf;
}

bool KindCarriesArg(char k) {
  return k == 'c' || k == 'r' || k == 'm' || IsMachineFaultKind(k);
}
}  // namespace

void FaultInjector::AttachCounters(Counters* counters) {
  if (counters == nullptr) {
    counters_attached_ = false;
    c_disk_io_errors_ = c_power_cuts_ = c_lost_writes_ = c_misdirects_ = c_rot_ =
        c_latent_ = c_net_drops_ = c_net_corruptions_ = c_net_duplicates_ =
            c_machine_kills_ = c_machine_reboots_ = nullptr;
    return;
  }
  if (counters_attached_) {
    return;
  }
  counters_attached_ = true;
  c_disk_io_errors_ = counters->Handle("fault.disk_io_errors");
  c_power_cuts_ = counters->Handle("fault.power_cuts");
  c_lost_writes_ = counters->Handle("fault.disk_lost_writes");
  c_misdirects_ = counters->Handle("fault.disk_misdirects");
  c_rot_ = counters->Handle("fault.disk_rot");
  c_latent_ = counters->Handle("fault.disk_latent");
  c_net_drops_ = counters->Handle("fault.net_drops");
  c_net_corruptions_ = counters->Handle("fault.net_corruptions");
  c_net_duplicates_ = counters->Handle("fault.net_duplicates");
  c_machine_kills_ = counters->Handle("fault.machine_kills");
  c_machine_reboots_ = counters->Handle("fault.machine_reboots");
}

void FaultInjector::RecordMachine(const MachineEvent& e) {
  machine_events_.push_back(e);
  if (e.kind == 'k') {
    ++stats_.machine_kills;
    Count(c_machine_kills_);
    Log(Format("machine-kill t=%llu m=%llu", e.time, e.machine));
    TraceFault("machine_kill", e.machine);
  } else {
    ++stats_.machine_reboots;
    Count(c_machine_reboots_);
    Log(Format("machine-reboot t=%llu m=%llu", e.time, e.machine));
    TraceFault("machine_reboot", e.machine);
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
  ++stats_.disk_io_errors;
  Count(c_disk_io_errors_);
  Log(Format("disk-error block=%llu n=%llu", start_block, nblocks));
  TraceFault("disk_error", start_block);
  return true;
}

bool FaultInjector::OnBlockWritten(uint64_t block) {
  ++stats_.disk_blocks_written;
  if (plan_.power_cut_after_blocks == 0 ||
      stats_.disk_blocks_written != plan_.power_cut_after_blocks) {
    return false;
  }
  ++stats_.power_cuts;
  Count(c_power_cuts_);
  Log(Format("power-cut after-block=%llu writes=%llu", block, stats_.disk_blocks_written));
  TraceFault("power_cut", block);
  return true;
}

FaultInjector::WriteFate FaultInjector::NextWriteFate(uint64_t block,
                                                      uint64_t num_blocks) {
  const uint64_t seq = ++stats_.media_writes_seen;

  auto lost = [&]() {
    ++stats_.disk_lost_writes;
    Count(c_lost_writes_);
    RecordDisk(DiskEvent{seq, 'w', 0});
    Log(Format("disk-lost-write block=%llu seq=%llu", block, seq));
    TraceFault("disk_lost_write", block);
    return WriteFate::kLost;
  };
  auto misdirect = [&](uint64_t target) {
    misdirect_target_ = target;
    ++stats_.disk_misdirects;
    Count(c_misdirects_);
    RecordDisk(DiskEvent{seq, 'm', target});
    Log(Format("disk-misdirect block=%llu to=%llu", block, target));
    TraceFault("disk_misdirect", block);
    return WriteFate::kMisdirect;
  };

  if (disk_scripted_) {
    auto it = write_script_.find(seq);
    if (it == write_script_.end()) {
      return WriteFate::kDurable;
    }
    const DiskEvent ev = it->second;
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
    ++stats_.disk_latent;
    Count(c_latent_);
    RecordDisk(DiskEvent{seq, 'l', 0});
    Log(Format("disk-latent block=%llu seq=%llu", block, seq));
    TraceFault("disk_latent", block);
    return ReadFate::kLatent;
  };
  auto rot = [&](uint64_t offset) {
    rot_offset_ = offset;
    ++stats_.disk_rot;
    Count(c_rot_);
    RecordDisk(DiskEvent{seq, 'r', offset});
    Log(Format("disk-rot block=%llu off=%llu", block, offset));
    TraceFault("disk_rot", block);
    return ReadFate::kRot;
  };

  if (disk_scripted_) {
    auto it = read_script_.find(seq);
    if (it == read_script_.end()) {
      return ReadFate::kClean;
    }
    const DiskEvent ev = it->second;
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
  ++stats_.frames_seen;

  // Scripted mode: explicit fates by consultation index, zero RNG draws. The
  // short-corrupt → drop demotion matches rate mode so a recorded schedule
  // replays to the identical outcome.
  if (!script_.empty()) {
    auto it = script_.find(stats_.frames_seen);
    if (it == script_.end()) {
      return WireFate::kDeliver;
    }
    WireEvent ev = it->second;
    if (ev.kind == 'c' && frame_bytes > plan_.net_corrupt_min_offset &&
        ev.corrupt_offset >= plan_.net_corrupt_min_offset &&
        ev.corrupt_offset < frame_bytes) {
      corrupt_offset_ = ev.corrupt_offset;
      ++stats_.net_corruptions;
      Count(c_net_corruptions_);
      RecordWire(ev);
      Log(Format("net-corrupt bytes=%llu off=%llu", frame_bytes, corrupt_offset_));
      TraceFault("net_corrupt", corrupt_offset_);
      return WireFate::kCorrupt;
    }
    if (ev.kind == 'u') {
      ++stats_.net_duplicates;
      Count(c_net_duplicates_);
      RecordWire(ev);
      Log(Format("net-dup bytes=%llu seq=%llu", frame_bytes, stats_.frames_seen));
      TraceFault("net_duplicate", frame_bytes);
      return WireFate::kDuplicate;
    }
    ++stats_.net_drops;
    Count(c_net_drops_);
    RecordWire(WireEvent{stats_.frames_seen, 'd', 0});
    Log(Format("net-drop bytes=%llu seq=%llu", frame_bytes, stats_.frames_seen));
    TraceFault("net_drop", frame_bytes);
    return WireFate::kDrop;
  }

  const bool any = plan_.net_drop_rate > 0.0 || plan_.net_corrupt_rate > 0.0 ||
                   plan_.net_duplicate_rate > 0.0;
  if (!any) {
    return WireFate::kDeliver;
  }
  // One draw decides the fate; the rates partition [0, 1).
  const double roll = rng_.NextDouble();
  if (roll < plan_.net_drop_rate) {
    ++stats_.net_drops;
    Count(c_net_drops_);
    RecordWire(WireEvent{stats_.frames_seen, 'd', 0});
    Log(Format("net-drop bytes=%llu seq=%llu", frame_bytes, stats_.frames_seen));
    TraceFault("net_drop", frame_bytes);
    return WireFate::kDrop;
  }
  if (roll < plan_.net_drop_rate + plan_.net_corrupt_rate) {
    if (frame_bytes <= plan_.net_corrupt_min_offset) {
      // Nothing detectably corruptible: model the damaged frame as lost instead.
      ++stats_.net_drops;
      Count(c_net_drops_);
      RecordWire(WireEvent{stats_.frames_seen, 'd', 0});
      Log(Format("net-drop(short-corrupt) bytes=%llu seq=%llu", frame_bytes,
                 stats_.frames_seen));
      TraceFault("net_drop", frame_bytes);
      return WireFate::kDrop;
    }
    corrupt_offset_ =
        plan_.net_corrupt_min_offset +
        rng_.Below(frame_bytes - plan_.net_corrupt_min_offset);
    ++stats_.net_corruptions;
    Count(c_net_corruptions_);
    RecordWire(WireEvent{stats_.frames_seen, 'c', corrupt_offset_});
    Log(Format("net-corrupt bytes=%llu off=%llu", frame_bytes, corrupt_offset_));
    TraceFault("net_corrupt", corrupt_offset_);
    return WireFate::kCorrupt;
  }
  if (roll < plan_.net_drop_rate + plan_.net_corrupt_rate + plan_.net_duplicate_rate) {
    ++stats_.net_duplicates;
    Count(c_net_duplicates_);
    RecordWire(WireEvent{stats_.frames_seen, 'u', 0});
    Log(Format("net-dup bytes=%llu seq=%llu", frame_bytes, stats_.frames_seen));
    TraceFault("net_duplicate", frame_bytes);
    return WireFate::kDuplicate;
  }
  return WireFate::kDeliver;
}

std::string FormatWireSchedule(const std::vector<WireEvent>& events) {
  std::string out;
  for (const WireEvent& e : events) {
    AppendToken(&out, e.kind, e.frame_index, e.kind == 'c', e.corrupt_offset);
  }
  return out;
}

std::vector<WireEvent> ParseWireSchedule(const std::string& text, std::string* error) {
  if (error != nullptr) {
    error->clear();
  }
  std::vector<SchedToken> tokens;
  if (!TokenizeSchedule(text, "dcu", "010", &tokens, error) ||
      !CheckDuplicates(tokens, WireStream, error)) {
    return {};
  }
  std::vector<WireEvent> out;
  out.reserve(tokens.size());
  for (const SchedToken& t : tokens) {
    out.push_back(WireEvent{t.index, t.kind, t.arg});
  }
  return out;
}

std::string FormatDiskSchedule(const std::vector<DiskEvent>& events) {
  std::string out;
  for (const DiskEvent& e : events) {
    AppendToken(&out, e.kind, e.index, KindCarriesArg(e.kind), e.arg);
  }
  return out;
}

std::vector<DiskEvent> ParseDiskSchedule(const std::string& text, std::string* error) {
  if (error != nullptr) {
    error->clear();
  }
  std::vector<SchedToken> tokens;
  if (!TokenizeSchedule(text, "wmlr", "0101", &tokens, error) ||
      !CheckDuplicates(tokens, DiskStream, error)) {
    return {};
  }
  std::vector<DiskEvent> out;
  out.reserve(tokens.size());
  for (const SchedToken& t : tokens) {
    out.push_back(DiskEvent{t.index, t.kind, t.arg});
  }
  return out;
}

std::string FormatMachineSchedule(const std::vector<MachineEvent>& events) {
  std::string out;
  for (const MachineEvent& e : events) {
    AppendToken(&out, e.kind, e.time, true, e.machine);
  }
  return out;
}

std::vector<MachineEvent> ParseMachineSchedule(const std::string& text,
                                               std::string* error) {
  if (error != nullptr) {
    error->clear();
  }
  std::vector<SchedToken> tokens;
  if (!TokenizeSchedule(text, "kb", "11", &tokens, error) ||
      !CheckDuplicates(tokens, MachineStream, error)) {
    return {};
  }
  std::vector<MachineEvent> out;
  out.reserve(tokens.size());
  for (const SchedToken& t : tokens) {
    out.push_back(MachineEvent{t.index, t.kind, t.arg});
  }
  return out;
}

std::string FormatFaultSchedule(const std::vector<FaultEvent>& events) {
  std::string out;
  for (const FaultEvent& e : events) {
    AppendToken(&out, e.kind, e.index, KindCarriesArg(e.kind), e.arg);
  }
  return out;
}

std::vector<FaultEvent> ParseFaultSchedule(const std::string& text, std::string* error) {
  if (error != nullptr) {
    error->clear();
  }
  std::vector<SchedToken> tokens;
  if (!TokenizeSchedule(text, "dcuwmlrkb", "010010111", &tokens, error) ||
      !CheckDuplicates(tokens, CombinedStream, error)) {
    return {};
  }
  std::vector<FaultEvent> out;
  out.reserve(tokens.size());
  for (const SchedToken& t : tokens) {
    out.push_back(FaultEvent{t.kind, t.index, t.arg});
  }
  return out;
}

void SplitFaultSchedule(const std::vector<FaultEvent>& events,
                        std::vector<WireEvent>* wire, std::vector<DiskEvent>* disk) {
  SplitFaultSchedule(events, wire, disk, nullptr);
}

void SplitFaultSchedule(const std::vector<FaultEvent>& events,
                        std::vector<WireEvent>* wire, std::vector<DiskEvent>* disk,
                        std::vector<MachineEvent>* machine) {
  for (const FaultEvent& e : events) {
    if (IsWireFaultKind(e.kind)) {
      if (wire != nullptr) {
        wire->push_back(WireEvent{e.index, e.kind, e.arg});
      }
    } else if (IsMachineFaultKind(e.kind)) {
      if (machine != nullptr) {
        machine->push_back(MachineEvent{e.index, e.kind, e.arg});
      }
    } else if (disk != nullptr) {
      disk->push_back(DiskEvent{e.index, e.kind, e.arg});
    }
  }
}

}  // namespace exo::sim
