#include "xn/xn.h"

#include <algorithm>
#include <cstring>

#include "udf/verifier.h"
#include "udf/vm.h"

namespace exo::xn {

namespace {

constexpr uint32_t kMagic = 0x584e2197;  // "XN"
constexpr uint32_t kTemplBlocks = 8;
constexpr uint32_t kRootBlocks = 2;

// Simple append/read cursor over a byte buffer for catalogue serialization.
class Cursor {
 public:
  explicit Cursor(std::vector<uint8_t>* out) : out_(out) {}
  explicit Cursor(std::span<const uint8_t> in) : in_(in) {}

  void PutU8(uint8_t v) { out_->push_back(v); }
  void PutU32(uint32_t v) {
    for (int i = 0; i < 4; ++i) {
      out_->push_back(static_cast<uint8_t>((v >> (8 * i)) & 0xff));
    }
  }
  void PutI32(int32_t v) { PutU32(static_cast<uint32_t>(v)); }
  void PutString(const std::string& s) {
    PutU32(static_cast<uint32_t>(s.size()));
    out_->insert(out_->end(), s.begin(), s.end());
  }
  void PutProgram(const udf::Program& p) {
    PutU32(static_cast<uint32_t>(p.size()));
    for (const udf::Insn& in : p) {
      PutU8(static_cast<uint8_t>(in.op));
      PutU8(in.rd);
      PutU8(in.rs);
      PutU8(in.rt);
      PutI32(in.imm);
    }
  }

  bool ok() const { return ok_; }
  uint8_t GetU8() { return ok_ && pos_ < in_.size() ? in_[pos_++] : (ok_ = false, 0); }
  uint32_t GetU32() {
    uint32_t v = 0;
    for (int i = 0; i < 4; ++i) {
      v |= static_cast<uint32_t>(GetU8()) << (8 * i);
    }
    return v;
  }
  int32_t GetI32() { return static_cast<int32_t>(GetU32()); }
  std::string GetString() {
    uint32_t n = GetU32();
    if (!ok_ || pos_ + n > in_.size()) {
      ok_ = false;
      return {};
    }
    std::string s(in_.begin() + static_cast<long>(pos_), in_.begin() + static_cast<long>(pos_ + n));
    pos_ += n;
    return s;
  }
  udf::Program GetProgram() {
    udf::Program p;
    uint32_t n = GetU32();
    if (n > udf::kMaxProgramLength) {
      ok_ = false;
      return p;
    }
    for (uint32_t i = 0; i < n && ok_; ++i) {
      udf::Insn in;
      in.op = static_cast<udf::Op>(GetU8());
      in.rd = GetU8();
      in.rs = GetU8();
      in.rt = GetU8();
      in.imm = GetI32();
      p.push_back(in);
    }
    return p;
  }

 private:
  std::vector<uint8_t>* out_ = nullptr;
  std::span<const uint8_t> in_;
  size_t pos_ = 0;
  bool ok_ = true;
};

// An ownership set entry: a block and its template. Sets are sorted by block.
using OwnedBlock = std::pair<hw::BlockId, TemplateId>;

bool BlockLess(const OwnedBlock& o, hw::BlockId b) { return o.first < b; }

// The template `set` gives block `b`, or nullptr when `set` does not own `b`.
const TemplateId* FindOwned(std::span<const OwnedBlock> set, hw::BlockId b) {
  auto it = std::lower_bound(set.begin(), set.end(), b, BlockLess);
  return it != set.end() && it->first == b ? &it->second : nullptr;
}

// Adds (b, tmpl) to the sorted `set`; false when `set` already holds `b`.
bool InsertOwned(std::vector<OwnedBlock>* set, hw::BlockId b, TemplateId tmpl) {
  auto it = std::lower_bound(set->begin(), set->end(), b, BlockLess);
  if (it != set->end() && it->first == b) {
    return false;
  }
  set->emplace(it, b, tmpl);
  return true;
}

// How many blocks `extents` claim, summed without overflow. Each in-range block
// can be claimed once, so a set claiming more than the disk holds repeats a
// block or names one past the end: callers refuse it before expanding it.
uint64_t ClaimedBlocks(std::span<const udf::Extent> extents) {
  uint64_t n = 0;
  for (const udf::Extent& e : extents) {
    n += e.count;
  }
  return n;
}

// Whether `t`'s UDFs pass the verifier: the owns-udf must be deterministic,
// while the acl-uf and size-uf may read the clock (Sec. 4.1).
bool PassesVerifier(const Template& t) {
  return udf::Verify(t.owns_udf, udf::Policy::kDeterministic).ok &&
         (t.acl_uf.empty() || udf::Verify(t.acl_uf, udf::Policy::kAny).ok) &&
         (t.size_uf.empty() || udf::Verify(t.size_uf, udf::Policy::kAny).ok);
}

// Fills `set` with the ownership set an owns-udf run emitted, sorted by block.
// kBadMetadata when the run faulted, claimed more blocks than a disk of
// `num_blocks` holds, or named a block twice.
Status OwnsSetOf(const udf::RunOutput& out, uint32_t num_blocks, std::vector<OwnedBlock>* set) {
  set->clear();
  const uint64_t claimed = ClaimedBlocks(out.emitted);
  if (!out.ok || claimed > num_blocks) {
    return Status::kBadMetadata;
  }
  set->reserve(claimed);
  bool sorted = true;
  for (const udf::Extent& e : out.emitted) {
    for (uint32_t i = 0; i < e.count; ++i) {
      const hw::BlockId b = e.start + i;
      sorted = sorted && (set->empty() || set->back().first < b);
      set->emplace_back(b, e.type);
    }
  }
  // C-FFS's directory owns-udf emits slot by slot, out of block order.
  if (!sorted) {
    std::sort(set->begin(), set->end());
    auto same_block = [](const OwnedBlock& x, const OwnedBlock& y) { return x.first == y.first; };
    if (std::adjacent_find(set->begin(), set->end(), same_block) != set->end()) {
      return Status::kBadMetadata;  // a block claimed twice is malformed metadata
    }
  }
  return Status::kOk;
}

}  // namespace

Xn::Xn(hw::Machine* machine, hw::Disk* disk) : machine_(machine), disk_(disk) {
  syscall_counter_ = machine_->counters().Handle("xok.syscalls");
  tracer_ = &machine_->tracer();
  trace_track_ = tracer_->NewTrack("xn");
  corrupted_counter_ = machine_->counters().Handle("disk.corrupted");
  repaired_counter_ = machine_->counters().Handle("disk.repaired");
  scrub_scanned_counter_ = machine_->counters().Handle("scrub.blocks_scanned");
  scrub_repaired_counter_ = machine_->counters().Handle("scrub.repaired");
  scrub_quarantined_counter_ = machine_->counters().Handle("scrub.quarantined");
}

void Xn::ChargeOp(const char* name) {
  const auto& c = machine_->cost();
  machine_->Charge(c.trap_round_trip + c.xok_syscall_check);
  ++*syscall_counter_;
  ++stats_.ops;
  if (tracer_->enabled(trace::Category::kXn)) {
    tracer_->Instant(trace::Category::kXn, trace_track_, name, machine_->engine().now());
  }
}

std::span<const uint8_t> Xn::FrameBytes(hw::FrameId f) const {
  return machine_->mem().Data(f);
}
std::span<uint8_t> Xn::FrameBytesMutable(hw::FrameId f) { return machine_->mem().Data(f); }

// ---- UDF invocation ----

Result<Xn::OwnsSet> Xn::RunOwns(const Template& t, std::span<const uint8_t> image) {
  auto it = std::find_if(owns_memo_.begin(), owns_memo_.end(), [&](const OwnsMemoEntry& m) {
    return m.tmpl == t.id && m.image.size() == image.size() &&
           std::memcmp(m.image.data(), image.data(), image.size()) == 0;
  });
  if (it != owns_memo_.end()) {
    ++stats_.owns_memo_hits;
  } else {
    if (owns_memo_.size() < kOwnsMemoEntries) {
      owns_memo_.emplace_back();
    }
    it = owns_memo_.end() - 1;  // the least recent entry makes room
    udf::RunInput in;
    in.buffers[udf::kBufMeta] = image;
    const udf::RunOutput out = udf::Run(t.owns_udf, in);
    it->tmpl = t.id;
    it->image.assign(image.begin(), image.end());
    it->insns = out.insns;
    it->status = OwnsSetOf(out, disk_->geometry().num_blocks, &it->owned);
  }
  std::rotate(owns_memo_.begin(), it, it + 1);  // most recent first
  // Copy the run out before charging: the charge fires disk completions that
  // run owns-udfs too, which reorder the memo under any reference into it.
  const OwnsMemoEntry& run = owns_memo_.front();
  const uint64_t insns = run.insns;
  Result<OwnsSet> result = run.status == Status::kOk ? Result<OwnsSet>(run.owned) : run.status;
  machine_->Charge(machine_->cost().udf_setup + insns * machine_->cost().downloaded_insn);
  ++stats_.udf_runs;
  return result;
}

bool Xn::RunAcl(const Template& t, std::span<const uint8_t> image,
                const std::vector<uint8_t>& aux, const Caps& creds) {
  if (t.acl_uf.empty()) {
    return true;  // template imposes no extra access control
  }
  auto cred_bytes = SerializeCaps(creds);
  udf::RunInput in;
  in.buffers[udf::kBufMeta] = image;
  in.buffers[udf::kBufAux] = aux;
  in.buffers[udf::kBufCred] = cred_bytes;
  in.time = [this] { return machine_->engine().now(); };
  udf::RunOutput out = udf::Run(t.acl_uf, in);
  machine_->Charge(machine_->cost().udf_setup +
                   out.insns * machine_->cost().downloaded_insn);
  ++stats_.udf_runs;
  return out.ok && out.ret != 0;
}

// ---- Lifecycle ----

void Xn::Format() {
  const uint32_t nblocks = disk_->geometry().num_blocks;
  const uint32_t fm_blocks = (nblocks / 8 + hw::kBlockSize - 1) / hw::kBlockSize;
  const hw::BlockId first_data = 1 + kTemplBlocks + kRootBlocks + fm_blocks;
  EXO_CHECK_LT(first_data, nblocks);

  ResetVolatileState(/*release_frames=*/true);
  free_map_.Reset(nblocks, first_data);

  PersistCatalogues();
  WriteSuperblock(/*clean=*/true);
}

void Xn::ResetVolatileState(bool release_frames) {
  if (release_frames) {
    for (const auto& [block, e] : registry_.entries()) {
      ReleaseFrame(e.frame);
    }
  }
  registry_ = Registry{};
  templates_.clear();
  next_template_ = 1;
  owns_memo_.clear();  // a reloaded id may name another program
  roots_.clear();
  free_map_.Reset(0, free_map_.first_data_block());  // the superblock still names it
  uninit_.clear();
  parent_of_.clear();
  on_disk_owns_.clear();
  will_free_.clear();
  quarantined_.clear();
  expected_crc_.clear();
  attached_ = false;
  recovered_ = false;
}

void Xn::WriteSuperblock(bool clean) {
  std::vector<uint8_t> sb;
  Cursor c(&sb);
  c.PutU32(kMagic);
  c.PutU32(clean ? 1 : 0);
  c.PutU32(disk_->geometry().num_blocks);
  c.PutU32(free_map_.first_data_block());
  // Persist the free map alongside the clean flag (only trusted on clean detach).
  auto block = disk_->MutableBlock(0);
  std::memset(block.data(), 0, block.size());
  EXO_CHECK_LE(sb.size(), block.size());
  std::memcpy(block.data(), sb.data(), sb.size());
  RestampSystemBlock(0);  // kernel-internal raw write: stamp the sidecar by hand

  const uint32_t fm_start = 1 + kTemplBlocks + kRootBlocks;
  const uint32_t nblocks = disk_->geometry().num_blocks;
  for (uint32_t i = 0; i * hw::kBlockSize * 8 < nblocks; ++i) {
    auto fm = disk_->MutableBlock(fm_start + i);
    std::memset(fm.data(), 0, fm.size());
    for (uint32_t j = 0; j < hw::kBlockSize * 8; ++j) {
      uint32_t b = i * hw::kBlockSize * 8 + j;
      if (b >= nblocks) {
        break;
      }
      if (free_map_.IsFree(b)) {
        fm[j / 8] = static_cast<uint8_t>(fm[j / 8] | (1u << (j % 8)));
      }
    }
    RestampSystemBlock(fm_start + i);
  }
}

void Xn::PersistCatalogues() {
  // Catalogue updates are rare setup operations (template installation, root
  // registration); they are written through synchronously and charged a flat cost.
  machine_->Charge(machine_->cost().FromMicros(500));

  std::vector<uint8_t> tbuf;
  Cursor tc(&tbuf);
  tc.PutU32(static_cast<uint32_t>(templates_.size()));
  for (const auto& [id, t] : templates_) {
    tc.PutU32(id);
    tc.PutString(t.name);
    tc.PutU8(t.is_metadata ? 1 : 0);
    tc.PutProgram(t.owns_udf);
    tc.PutProgram(t.acl_uf);
    tc.PutProgram(t.size_uf);
  }
  EXO_CHECK_LE(tbuf.size(), static_cast<size_t>(kTemplBlocks) * hw::kBlockSize);
  for (uint32_t i = 0; i < kTemplBlocks; ++i) {
    auto block = disk_->MutableBlock(1 + i);
    std::memset(block.data(), 0, block.size());
    size_t off = static_cast<size_t>(i) * hw::kBlockSize;
    if (off < tbuf.size()) {
      std::memcpy(block.data(), tbuf.data() + off, std::min<size_t>(hw::kBlockSize, tbuf.size() - off));
    }
    RestampSystemBlock(1 + i);
  }

  std::vector<uint8_t> rbuf;
  Cursor rc(&rbuf);
  uint32_t persistent = 0;
  for (const auto& [name, r] : roots_) {
    persistent += r.temporary ? 0 : 1;
  }
  rc.PutU32(persistent);
  for (const auto& [name, r] : roots_) {
    if (r.temporary) {
      continue;  // temporary file systems do not survive reboots (Sec. 4.3.2)
    }
    rc.PutString(r.name);
    rc.PutU32(r.block);
    rc.PutU32(r.tmpl);
  }
  EXO_CHECK_LE(rbuf.size(), static_cast<size_t>(kRootBlocks) * hw::kBlockSize);
  for (uint32_t i = 0; i < kRootBlocks; ++i) {
    auto block = disk_->MutableBlock(1 + kTemplBlocks + i);
    std::memset(block.data(), 0, block.size());
    size_t off = static_cast<size_t>(i) * hw::kBlockSize;
    if (off < rbuf.size()) {
      std::memcpy(block.data(), rbuf.data() + off, std::min<size_t>(hw::kBlockSize, rbuf.size() - off));
    }
    RestampSystemBlock(1 + kTemplBlocks + i);
  }
}

Status Xn::LoadCatalogues() {
  std::vector<uint8_t> tbuf(static_cast<size_t>(kTemplBlocks) * hw::kBlockSize);
  for (uint32_t i = 0; i < kTemplBlocks; ++i) {
    auto block = disk_->RawBlock(1 + i);
    std::memcpy(tbuf.data() + static_cast<size_t>(i) * hw::kBlockSize, block.data(),
                hw::kBlockSize);
  }
  Cursor tc{std::span<const uint8_t>(tbuf)};
  std::map<TemplateId, Template> templates;
  TemplateId next_template = 1;
  const uint32_t tn = tc.GetU32();
  for (uint32_t i = 0; i < tn; ++i) {
    Template t;
    t.id = tc.GetU32();
    t.name = tc.GetString();
    t.is_metadata = tc.GetU8() != 0;
    t.owns_udf = tc.GetProgram();
    t.acl_uf = tc.GetProgram();
    t.size_uf = tc.GetProgram();
    // The catalogue is disk bytes: XN runs none of its programs unverified.
    if (!tc.ok() || !PassesVerifier(t)) {
      return Status::kBadMetadata;
    }
    next_template = std::max(next_template, t.id + 1);
    templates[t.id] = std::move(t);
  }

  std::vector<uint8_t> rbuf(static_cast<size_t>(kRootBlocks) * hw::kBlockSize);
  for (uint32_t i = 0; i < kRootBlocks; ++i) {
    auto block = disk_->RawBlock(1 + kTemplBlocks + i);
    std::memcpy(rbuf.data() + static_cast<size_t>(i) * hw::kBlockSize, block.data(),
                hw::kBlockSize);
  }
  Cursor rc{std::span<const uint8_t>(rbuf)};
  std::map<std::string, RootInfo> roots;
  const uint32_t rn = rc.GetU32();
  for (uint32_t i = 0; i < rn; ++i) {
    RootInfo r;
    r.name = rc.GetString();
    r.block = rc.GetU32();
    r.tmpl = rc.GetU32();
    r.temporary = false;
    if (!rc.ok()) {
      return Status::kBadMetadata;
    }
    roots[r.name] = std::move(r);
  }
  templates_ = std::move(templates);
  next_template_ = next_template;
  roots_ = std::move(roots);
  return Status::kOk;
}

Status Xn::Attach() {
  // Nothing from before carries over: since this Xn last saw the disk, another
  // may have reformatted or rewritten it.
  ResetVolatileState(/*release_frames=*/true);
  // Armed: the superblock and catalogues are parsed straight off the media with
  // no registry read path in front of them, so verify their tags by hand before
  // trusting a single field. A corrupt system area is unrecoverable here —
  // surface it rather than parse garbage.
  if (integrity_armed() && disk_->CheckBlock(0) != hw::BlockIntegrity::kOk) {
    Quarantine(0, "superblock");
    return Status::kCorrupted;
  }
  auto sb = disk_->RawBlock(0);
  Cursor c{std::span<const uint8_t>(sb)};
  if (c.GetU32() != kMagic) {
    return Status::kBadMetadata;
  }
  const bool clean = c.GetU32() == 1;
  const uint32_t nblocks = c.GetU32();
  const hw::BlockId first_data = c.GetU32();
  if (nblocks != disk_->geometry().num_blocks) {
    return Status::kBadMetadata;
  }
  if (integrity_armed()) {
    for (uint32_t b = 1; b < 1 + kTemplBlocks + kRootBlocks; ++b) {
      if (disk_->CheckBlock(b) != hw::BlockIntegrity::kOk) {
        Quarantine(b, "catalogue");
        return Status::kCorrupted;
      }
    }
  }

  if (Status s = LoadCatalogues(); s != Status::kOk) {
    return s;
  }

  // The persisted free map is only trusted on a clean detach AND intact media;
  // a corrupt free-map block demotes the attach to a recovery traversal, which
  // rebuilds the map without reading it.
  const uint32_t fm_start = 1 + kTemplBlocks + kRootBlocks;
  bool fm_ok = true;
  if (integrity_armed() && clean) {
    for (uint32_t b = fm_start; b < first_data; ++b) {
      if (disk_->CheckBlock(b) != hw::BlockIntegrity::kOk) {
        fm_ok = false;
        break;
      }
    }
  }

  if (clean && fm_ok) {
    // Trust the persisted free map.
    free_map_.Reset(nblocks, first_data, /*data_free=*/false);
    for (uint32_t b = first_data; b < nblocks; ++b) {
      auto fm = disk_->RawBlock(fm_start + b / (hw::kBlockSize * 8));
      uint32_t j = b % (hw::kBlockSize * 8);
      if ((fm[j / 8] >> (j % 8)) & 1) {
        free_map_.Release(b);
      }
    }
  } else {
    // Bounded fsck pass first: every tag-invalid block lands in quarantine, so
    // the traversal below skips it instead of parsing corrupt pointers.
    if (integrity_armed()) {
      VerifyDiskIntegrity();
    }
    free_map_.Reset(nblocks, first_data);
    RecoverFreeMap();
    recovered_ = true;
  }

  WriteSuperblock(/*clean=*/false);  // mark mounted-dirty until Detach
  attached_ = true;
  return Status::kOk;
}

void Xn::Detach() {
  WriteSuperblock(/*clean=*/true);
  attached_ = false;
}

void Xn::Crash() {
  // Outstanding queued disk requests are lost with power; requests already "in the
  // platters" (submitted DMA) are modeled as lost too — the registry that would
  // receive the completions is gone, and with it the kernel that held its frame
  // references. Volatile integrity state dies too; recovery re-derives
  // quarantine from the persistent sidecar (VerifyDiskIntegrity in Attach).
  ResetVolatileState(/*release_frames=*/false);
}

void Xn::RecoverFreeMap() {
  const bool tracing = tracer_->enabled(trace::Category::kXn);
  if (tracing) {
    tracer_->Begin(trace::Category::kXn, trace_track_, "recovery",
                   machine_->engine().now());
  }
  std::set<hw::BlockId> seen;
  for (const auto& [name, r] : roots_) {
    TraverseForRecovery(r.block, r.tmpl, &seen);
  }
  machine_->counters().Add("xn.recovery_blocks_scanned", seen.size());
  if (tracing) {
    tracer_->End(trace::Category::kXn, trace_track_, "recovery",
                 machine_->engine().now(), seen.size());
  }
}

void Xn::TraverseForRecovery(hw::BlockId block, TemplateId tmpl,
                             std::set<hw::BlockId>* seen) {
  if (block >= disk_->geometry().num_blocks || !seen->insert(block).second) {
    return;
  }
  free_map_.MarkReachable(block);
  const Template* t = FindTemplate(tmpl);
  if (t == nullptr || !t->is_metadata) {
    return;
  }
  // Never parse a detectably corrupt block: its pointers are garbage. The block
  // itself stays allocated (it is referenced) and quarantined; its unreached
  // children simply stay free. VerifyDiskIntegrity pre-populated quarantine,
  // but re-check the tag in case this path runs without the full scan.
  if (integrity_armed() &&
      (quarantined_.count(block) != 0 ||
       disk_->CheckBlock(block) != hw::BlockIntegrity::kOk)) {
    Quarantine(block, "recovery");
    return;
  }
  // Recovery reads disk images directly; charge a media read per metadata block.
  machine_->Charge(machine_->cost().FromMicros(512));
  auto owns = RunOwns(*t, disk_->RawBlock(block));
  if (!owns.ok()) {
    return;  // malformed on-disk metadata: its subtree stays unreferenced (freed)
  }
  // The recursion never revisits `block`, and std::map keeps the reference valid.
  const OwnsSet& children = on_disk_owns_[block] = std::move(*owns);
  for (const auto& [child, child_tmpl] : children) {
    parent_of_[child] = block;
    TraverseForRecovery(child, child_tmpl, seen);
  }
}

// ---- Templates ----

Result<TemplateId> Xn::InstallTemplate(const Template& t) {
  ChargeOp("xn_install_template");
  if (t.name.empty()) {
    return Status::kInvalidArgument;
  }
  for (const auto& [id, existing] : templates_) {
    if (existing.name == t.name) {
      return Status::kAlreadyExists;  // templates are immutable once specified
    }
  }
  if (!PassesVerifier(t)) {
    return Status::kVerifierReject;
  }
  Template stored = t;
  stored.id = next_template_++;
  templates_[stored.id] = std::move(stored);
  PersistCatalogues();
  return next_template_ - 1;
}

const Template* Xn::FindTemplate(TemplateId id) const {
  auto it = templates_.find(id);
  return it == templates_.end() ? nullptr : &it->second;
}

Result<TemplateId> Xn::LookupTemplate(const std::string& name) const {
  for (const auto& [id, t] : templates_) {
    if (t.name == name) {
      return id;
    }
  }
  return Status::kNotFound;
}

// ---- Roots ----

Result<RootInfo> Xn::RegisterRoot(const std::string& name, TemplateId tmpl, bool temporary) {
  ChargeOp("xn_register_root");
  if (roots_.count(name) != 0) {
    return Status::kAlreadyExists;
  }
  const Template* t = FindTemplate(tmpl);
  if (t == nullptr) {
    return Status::kNotFound;
  }
  auto block = free_map_.FindFreeRun(free_map_.first_data_block(), 1);
  if (!block.ok()) {
    return Status::kOutOfResources;
  }
  free_map_.Allocate(*block);
  RootInfo r{name, *block, tmpl, temporary};
  roots_[name] = r;
  if (t->is_metadata && !temporary) {
    uninit_.insert(*block);
  }
  PersistCatalogues();
  return r;
}

Result<RootInfo> Xn::LookupRoot(const std::string& name) const {
  auto it = roots_.find(name);
  if (it == roots_.end()) {
    return Status::kNotFound;
  }
  return it->second;
}

// ---- Registry operations ----

Status Xn::LoadRoot(const std::string& name, hw::FrameId frame, const Caps& creds,
                    std::function<void(Status)> done) {
  ChargeOp("xn_load_root");
  auto it = roots_.find(name);
  if (it == roots_.end()) {
    return Status::kNotFound;
  }
  const RootInfo& r = it->second;
  if (const RegistryEntry* e = registry_.Lookup(r.block)) {
    if (e->state == BufState::kInTransit) {
      return Status::kBusy;
    }
    if (done) {
      done(Status::kOk);
    }
    return Status::kOk;
  }

  RegistryEntry e;
  e.block = r.block;
  e.parent = hw::kInvalidBlock;
  e.tmpl = r.tmpl;
  e.frame = frame;
  e.lru_stamp = ++lru_clock_;

  if (uninit_.count(r.block) != 0) {
    // Freshly created root: nothing on disk yet; hand the libFS a zeroed buffer.
    machine_->mem().Ref(frame);
    e.state = BufState::kResident;
    e.dirty = true;
    std::memset(FrameBytesMutable(frame).data(), 0, hw::kBlockSize);
    machine_->Charge(machine_->cost().ZeroCost(hw::kBlockSize));
    registry_.Install(e);
    if (done) {
      done(Status::kOk);
    }
    return Status::kOk;
  }

  if (quarantined_.count(r.block) != 0) {
    return Status::kCorrupted;  // known-bad media: repair or rewrite it first
  }

  machine_->mem().Ref(frame);
  e.state = BufState::kInTransit;
  registry_.Install(e);
  hw::BlockId block = r.block;
  TemplateId tmpl = r.tmpl;
  disk_->Submit({.write = false,
                 .start = block,
                 .nblocks = 1,
                 .frames = {frame},
                 .done = [this, block, tmpl, done = std::move(done)](Status s) {
                   if (RegistryEntry* e = registry_.LookupMutable(block)) {
                     if (s == Status::kOk) {
                       s = CheckReadIntegrity(block);  // corrupt media reads like a failed read
                     }
                     if (s != Status::kOk) {
                       // The frame holds garbage, not the root: drop the mapping so a
                       // retry re-issues the read instead of trusting it.
                       ReleaseFrame(e->frame);
                       registry_.Remove(block);
                       if (done) {
                         done(s);
                       }
                       return;
                     }
                     e->state = BufState::kResident;
                     if (const Template* t = FindTemplate(tmpl); t != nullptr && t->is_metadata) {
                       auto owns = RunOwns(*t, FrameBytes(e->frame));
                       if (owns.ok()) {
                         for (const auto& [child, ct] : *owns) {
                           parent_of_[child] = block;
                         }
                         on_disk_owns_[block] = std::move(*owns);
                       }
                     }
                   }
                   if (done) {
                     done(s);
                   }
                 }});
  return Status::kOk;
}

Status Xn::ReadAndInsert(hw::BlockId parent, std::span<const hw::BlockId> blocks,
                         std::span<const hw::FrameId> frames, const Caps& creds,
                         std::function<void(Status)> done) {
  ChargeOp("xn_read_insert");
  if (blocks.size() != frames.size() || blocks.empty()) {
    return Status::kInvalidArgument;
  }
  const RegistryEntry* pe = registry_.Lookup(parent);
  if (pe == nullptr) {
    return Status::kNotFound;  // libFSes are responsible for loading parents first
  }
  if (pe->state != BufState::kResident) {
    return Status::kBusy;
  }
  const Template* pt = FindTemplate(pe->tmpl);
  if (pt == nullptr || !pt->is_metadata) {
    return Status::kBadMetadata;
  }
  auto owns = RunOwns(*pt, FrameBytes(pe->frame));
  if (!owns.ok()) {
    return owns.status();
  }

  // Validate every block before touching the registry.
  for (hw::BlockId b : blocks) {
    if (FindOwned(*owns, b) == nullptr) {
      return Status::kPermissionDenied;  // parent does not own the block
    }
    if (!RunAcl(*pt, FrameBytes(pe->frame), SerializeAccess(AccessIntent::kReadChild, b),
                creds)) {
      return Status::kPermissionDenied;
    }
    const RegistryEntry* e = registry_.Lookup(b);
    if (e != nullptr && e->state == BufState::kInTransit) {
      return Status::kBusy;
    }
    // A quarantined block with no cached copy cannot be read — the media is
    // known bad. (With a cached copy it is served from cache below.)
    if (e == nullptr && quarantined_.count(b) != 0) {
      return Status::kCorrupted;
    }
  }

  // Install entries and build one read request per contiguous run.
  auto remaining = std::make_shared<int>(0);
  auto first_err = std::make_shared<Status>(Status::kOk);
  std::vector<hw::BlockId> to_read;
  std::vector<hw::FrameId> read_frames;
  for (size_t i = 0; i < blocks.size(); ++i) {
    hw::BlockId b = blocks[i];
    if (const RegistryEntry* e = registry_.Lookup(b); e != nullptr) {
      registry_.TouchLru(b, ++lru_clock_);
      parent_of_[b] = parent;
      continue;  // already cached; no disk traffic
    }
    RegistryEntry e;
    e.block = b;
    e.parent = parent;
    e.tmpl = *FindOwned(*owns, b);  // validated above
    e.frame = frames[i];
    e.state = BufState::kInTransit;
    e.lru_stamp = ++lru_clock_;
    machine_->mem().Ref(frames[i]);
    registry_.Install(e);
    parent_of_[b] = parent;
    to_read.push_back(b);
    read_frames.push_back(frames[i]);
  }

  if (to_read.empty()) {
    if (done) {
      done(Status::kOk);
    }
    return Status::kOk;
  }

  // Issue contiguous runs as single requests; the disk merges further.
  size_t start = 0;
  std::vector<std::pair<size_t, size_t>> runs;
  for (size_t i = 1; i <= to_read.size(); ++i) {
    if (i == to_read.size() || to_read[i] != to_read[i - 1] + 1) {
      runs.emplace_back(start, i);
      start = i;
    }
  }
  *remaining = static_cast<int>(runs.size());
  for (auto [lo, hi] : runs) {
    std::vector<hw::FrameId> run_frames(read_frames.begin() + static_cast<long>(lo),
                                        read_frames.begin() + static_cast<long>(hi));
    std::vector<hw::BlockId> run_blocks(to_read.begin() + static_cast<long>(lo),
                                        to_read.begin() + static_cast<long>(hi));
    disk_->Submit(
        {.write = false,
         .start = to_read[lo],
         .nblocks = static_cast<uint32_t>(hi - lo),
         .frames = run_frames,
         .done = [this, run_blocks, remaining, first_err, done](Status s) {
           for (hw::BlockId b : run_blocks) {
             if (RegistryEntry* e = registry_.LookupMutable(b)) {
               Status bs = s;
               if (bs == Status::kOk) {
                 bs = CheckReadIntegrity(b);  // per-block: one rotted block poisons only itself
               }
               if (bs != Status::kOk) {
                 // Failed read: unwind the in-transit mapping entirely so the libFS
                 // can retry the same blocks.
                 ReleaseFrame(e->frame);
                 registry_.Remove(b);
                 parent_of_.erase(b);
                 if (bs != s) {
                   *first_err = bs;  // corruption verdict outranks the transport status
                 }
                 continue;
               }
               e->state = BufState::kResident;
               const Template* t = FindTemplate(e->tmpl);
               if (t != nullptr && t->is_metadata) {
                 auto owns = RunOwns(*t, FrameBytes(e->frame));
                 if (owns.ok()) {
                   on_disk_owns_[b] = std::move(*owns);
                 }
               }
             }
           }
           if (s != Status::kOk) {
             *first_err = s;
           }
           if (--*remaining == 0 && done) {
             done(*first_err);
           }
         }});
  }
  return Status::kOk;
}

Status Xn::InsertMapping(hw::BlockId block, hw::BlockId parent, hw::FrameId frame,
                         bool dirty, const Caps& creds) {
  ChargeOp("xn_insert_mapping");
  const RegistryEntry* pe = registry_.Lookup(parent);
  if (pe == nullptr) {
    return Status::kNotFound;
  }
  if (pe->state != BufState::kResident) {
    return Status::kBusy;
  }
  const Template* pt = FindTemplate(pe->tmpl);
  if (pt == nullptr || !pt->is_metadata) {
    return Status::kBadMetadata;
  }
  auto owns = RunOwns(*pt, FrameBytes(pe->frame));
  if (!owns.ok()) {
    return owns.status();
  }
  const TemplateId* tmpl = FindOwned(*owns, block);
  if (tmpl == nullptr) {
    return Status::kPermissionDenied;
  }
  // Direct installs require write access: otherwise a reader could install a bogus
  // in-core copy of a block it cannot write (Sec. 4.3.3).
  if (!RunAcl(*pt, FrameBytes(pe->frame), SerializeAccess(AccessIntent::kWriteChild, block),
              creds)) {
    return Status::kPermissionDenied;
  }
  if (registry_.Lookup(block) != nullptr) {
    return Status::kAlreadyExists;
  }
  RegistryEntry e;
  e.block = block;
  e.parent = parent;
  e.tmpl = *tmpl;
  e.frame = frame;
  e.state = BufState::kResident;
  e.dirty = dirty;
  e.lru_stamp = ++lru_clock_;
  machine_->mem().Ref(frame);
  registry_.Install(e);
  parent_of_[block] = parent;
  return Status::kOk;
}

Status Xn::RawRead(hw::BlockId block, hw::FrameId frame, std::function<void(Status)> done) {
  ChargeOp("xn_raw_read");
  if (block >= disk_->geometry().num_blocks) {
    return Status::kInvalidArgument;
  }
  if (registry_.Lookup(block) != nullptr) {
    if (done) {
      done(Status::kOk);
    }
    return Status::kOk;
  }
  if (quarantined_.count(block) != 0) {
    return Status::kCorrupted;  // known-bad media: repair or rewrite it first
  }
  RegistryEntry e;
  e.block = block;
  e.parent = hw::kInvalidBlock;
  e.tmpl = kInvalidTemplate;  // "unknown type": unusable until bound to a parent
  e.frame = frame;
  e.state = BufState::kInTransit;
  e.lru_stamp = ++lru_clock_;
  machine_->mem().Ref(frame);
  registry_.Install(e);
  disk_->Submit({.write = false,
                 .start = block,
                 .nblocks = 1,
                 .frames = {frame},
                 .done = [this, block, done = std::move(done)](Status s) {
                   if (RegistryEntry* e = registry_.LookupMutable(block)) {
                     if (s == Status::kOk) {
                       s = CheckReadIntegrity(block);
                     }
                     if (s != Status::kOk) {
                       ReleaseFrame(e->frame);
                       registry_.Remove(block);
                     } else {
                       e->state = BufState::kResident;
                     }
                   }
                   if (done) {
                     done(s);
                   }
                 }});
  return Status::kOk;
}

Status Xn::BindToParent(hw::BlockId parent, hw::BlockId block, const Caps& creds) {
  ChargeOp("xn_bind");
  RegistryEntry* e = registry_.LookupMutable(block);
  if (e == nullptr || e->state != BufState::kResident) {
    return Status::kNotFound;
  }
  if (e->tmpl != kInvalidTemplate) {
    return Status::kAlreadyExists;
  }
  const RegistryEntry* pe = registry_.Lookup(parent);
  if (pe == nullptr || pe->state != BufState::kResident) {
    return Status::kNotFound;
  }
  const Template* pt = FindTemplate(pe->tmpl);
  if (pt == nullptr || !pt->is_metadata) {
    return Status::kBadMetadata;
  }
  auto owns = RunOwns(*pt, FrameBytes(pe->frame));
  if (!owns.ok()) {
    return owns.status();
  }
  const TemplateId* tmpl = FindOwned(*owns, block);
  if (tmpl == nullptr) {
    return Status::kPermissionDenied;
  }
  if (!RunAcl(*pt, FrameBytes(pe->frame), SerializeAccess(AccessIntent::kReadChild, block),
              creds)) {
    return Status::kPermissionDenied;
  }
  e->tmpl = *tmpl;
  e->parent = parent;
  parent_of_[block] = parent;
  const Template* t = FindTemplate(e->tmpl);
  if (t != nullptr && t->is_metadata) {
    auto child_owns = RunOwns(*t, FrameBytes(e->frame));
    if (child_owns.ok()) {
      on_disk_owns_[block] = std::move(*child_owns);
    }
  }
  return Status::kOk;
}

Status Xn::Lock(hw::BlockId block, xok::EnvId owner) {
  ChargeOp("xn_lock");
  RegistryEntry* e = registry_.LookupMutable(block);
  if (e == nullptr) {
    return Status::kNotFound;
  }
  if (e->locked_by != xok::kInvalidEnv && e->locked_by != owner) {
    return Status::kBusy;
  }
  e->locked_by = owner;
  return Status::kOk;
}

Status Xn::Unlock(hw::BlockId block, xok::EnvId owner) {
  ChargeOp("xn_unlock");
  RegistryEntry* e = registry_.LookupMutable(block);
  if (e == nullptr) {
    return Status::kNotFound;
  }
  if (e->locked_by != owner) {
    return Status::kPermissionDenied;
  }
  e->locked_by = xok::kInvalidEnv;
  return Status::kOk;
}

Status Xn::RemoveMapping(hw::BlockId block) {
  ChargeOp("xn_remove_mapping");
  const RegistryEntry* e = registry_.Lookup(block);
  if (e == nullptr) {
    return Status::kNotFound;
  }
  if (e->dirty || e->state == BufState::kInTransit || e->locked_by != xok::kInvalidEnv) {
    return Status::kBusy;
  }
  ReleaseFrame(e->frame);
  registry_.Remove(block);
  return Status::kOk;
}

Result<hw::FrameId> Xn::RecycleOldest() {
  ChargeOp("xn_recycle");
  hw::BlockId victim = registry_.OldestRecyclable();
  if (victim == hw::kInvalidBlock) {
    return Status::kOutOfResources;
  }
  hw::FrameId f = registry_.Lookup(victim)->frame;
  registry_.Remove(victim);
  // The caller inherits the registry's reference to the frame.
  return f;
}

// ---- Guarded metadata operations ----

Status Xn::GuardedModify(hw::BlockId meta, const Mods& mods, const Caps& creds,
                         const OwnsSet& require_added, const OwnsSet& require_removed) {
  RegistryEntry* e = registry_.LookupMutable(meta);
  if (e == nullptr) {
    return Status::kNotFound;
  }
  if (e->state == BufState::kInTransit || e->state == BufState::kWriteTransit) {
    return Status::kBusy;  // a read or flush is in flight; callers wait and retry
  }
  const Template* t = FindTemplate(e->tmpl);
  if (t == nullptr || !t->is_metadata) {
    return Status::kBadMetadata;
  }
  auto image = FrameBytes(e->frame);
  auto before = RunOwns(*t, image);
  if (!before.ok()) {
    return before.status();
  }
  std::vector<uint8_t> after_image(image.begin(), image.end());
  if (!ApplyMods(after_image, mods)) {
    return Status::kInvalidArgument;
  }
  auto after = RunOwns(*t, after_image);
  if (!after.ok()) {
    return after.status();
  }

  // The ownership delta must be exactly what the caller claimed (Sec. 4.1: "verifies
  // that the new result is equal to the old result plus b"). Both sets are sorted,
  // so one merge walk finds it.
  OwnsSet added;
  OwnsSet removed;
  auto bi = before->begin();
  auto ai = after->begin();
  while (bi != before->end() || ai != after->end()) {
    if (ai == after->end() || (bi != before->end() && bi->first < ai->first)) {
      removed.push_back(*bi++);
    } else if (bi == before->end() || ai->first < bi->first) {
      added.push_back(*ai++);
    } else if (ai->second != bi->second) {
      return Status::kBadMetadata;  // retyping a block in place is not allowed
    } else {
      ++ai;
      ++bi;
    }
  }
  if (added != require_added || removed != require_removed) {
    return Status::kBadMetadata;
  }

  if (!RunAcl(*t, image, SerializeMods(mods), creds)) {
    return Status::kPermissionDenied;
  }

  // All checks passed: XN itself applies the modification to the cached metadata.
  auto frame = FrameBytesMutable(e->frame);
  for (const ByteMod& m : mods) {
    std::memcpy(frame.data() + m.offset, m.bytes.data(), m.bytes.size());
    machine_->Charge(machine_->cost().CopyCost(m.bytes.size()));
  }
  e->dirty = true;
  return Status::kOk;
}

Status Xn::Alloc(hw::BlockId meta, const Mods& mods, std::span<const udf::Extent> to_alloc,
                 const Caps& creds) {
  ChargeOp("xn_alloc");
  // Pre-validate the request against the free map.
  OwnsSet requested;
  for (const udf::Extent& ext : to_alloc) {
    for (uint32_t i = 0; i < ext.count; ++i) {
      hw::BlockId b = ext.start + i;
      if (!free_map_.IsFree(b)) {
        return Status::kOutOfResources;  // not free (possibly on the will-free list)
      }
      if (!InsertOwned(&requested, b, ext.type)) {
        return Status::kInvalidArgument;
      }
    }
  }

  Status s = GuardedModify(meta, mods, creds, requested, /*require_removed=*/{});
  if (s != Status::kOk) {
    return s;
  }

  for (const auto& [b, tmpl] : requested) {
    free_map_.Allocate(b);
    parent_of_[b] = meta;
    const Template* ct = FindTemplate(tmpl);
    if (ct != nullptr && ct->is_metadata) {
      uninit_.insert(b);  // tainted until first written (Sec. 4.3.2)
    }
  }
  return Status::kOk;
}

Status Xn::Dealloc(hw::BlockId meta, const Mods& mods, std::span<const udf::Extent> to_free,
                   const Caps& creds) {
  ChargeOp("xn_dealloc");
  if (ClaimedBlocks(to_free) > disk_->geometry().num_blocks) {
    return Status::kInvalidArgument;
  }
  OwnsSet requested;
  for (const udf::Extent& ext : to_free) {
    for (uint32_t i = 0; i < ext.count; ++i) {
      if (!InsertOwned(&requested, ext.start + i, ext.type)) {
        return Status::kInvalidArgument;
      }
    }
  }
  Status s = GuardedModify(meta, mods, creds, /*require_added=*/{}, requested);
  if (s != Status::kOk) {
    return s;
  }

  const OwnsSet* disk_owns = nullptr;
  if (auto it = on_disk_owns_.find(meta); it != on_disk_owns_.end()) {
    disk_owns = &it->second;
  }
  for (const auto& [b, tmpl] : requested) {
    uninit_.erase(b);
    parent_of_.erase(b);
    if (const RegistryEntry* e = registry_.Lookup(b)) {
      ReleaseFrame(e->frame);
      registry_.Remove(b);
    }
    if (disk_owns != nullptr && FindOwned(*disk_owns, b) != nullptr) {
      // The parent's on-disk image still points at the block: defer reuse until
      // that pointer is overwritten by a write of the parent (Sec. 4.4).
      ++will_free_[b];
      ++stats_.will_free_deferrals;
    } else {
      ReleaseBlock(b);
    }
  }
  return Status::kOk;
}

Status Xn::Modify(hw::BlockId meta, const Mods& mods, const Caps& creds) {
  ChargeOp("xn_modify");
  // Modify must be ownership-preserving: both required deltas are empty.
  return GuardedModify(meta, mods, creds, /*require_added=*/{}, /*require_removed=*/{});
}

bool Xn::ReachesPersistentRoot(hw::BlockId b) const {
  std::set<hw::BlockId> seen;
  hw::BlockId cur = b;
  for (;;) {
    if (!seen.insert(cur).second) {
      return false;  // cycle in parent chain: treat as unattached
    }
    for (const auto& [name, r] : roots_) {
      if (r.block == cur) {
        return !r.temporary;
      }
    }
    auto it = parent_of_.find(cur);
    if (it == parent_of_.end()) {
      return false;  // unattached subtree: exempt from ordering rules (Sec. 4.3.2)
    }
    cur = it->second;
  }
}

bool Xn::IsTaintedForWrite(hw::BlockId b, std::set<hw::BlockId>* visiting) {
  const RegistryEntry* e = registry_.Lookup(b);
  if (e == nullptr) {
    return false;
  }
  const Template* t = FindTemplate(e->tmpl);
  if (t == nullptr || !t->is_metadata) {
    return false;
  }
  if (!visiting->insert(b).second) {
    return false;
  }
  auto owns = RunOwns(*t, FrameBytes(e->frame));
  if (!owns.ok()) {
    return true;  // unparseable metadata must not reach disk
  }
  for (const auto& [child, tmpl] : *owns) {
    const Template* ct = FindTemplate(tmpl);
    if (ct == nullptr || !ct->is_metadata) {
      continue;
    }
    if (uninit_.count(child) != 0) {
      return true;  // points at uninitialized metadata
    }
    const RegistryEntry* ce = registry_.Lookup(child);
    if (ce != nullptr && ce->dirty && IsTaintedForWrite(child, visiting)) {
      return true;  // points at (cached, dirty) tainted metadata
    }
  }
  return false;
}

Status Xn::Write(std::span<const hw::BlockId> blocks, std::function<void(Status)> done) {
  ChargeOp("xn_write");
  if (blocks.empty()) {
    return Status::kInvalidArgument;
  }
  // Validate all blocks before submitting anything.
  for (hw::BlockId b : blocks) {
    const RegistryEntry* e = registry_.Lookup(b);
    if (e == nullptr || e->state == BufState::kInTransit ||
        e->state == BufState::kWriteTransit) {
      return e == nullptr ? Status::kNotFound : Status::kBusy;
    }
    if (e->locked_by != xok::kInvalidEnv) {
      return Status::kBusy;
    }
    std::set<hw::BlockId> visiting;
    if (uninit_.count(b) == 0 && !ReachesPersistentRoot(b)) {
      continue;  // unattached or temporary tree: no ordering constraints
    }
    if (ReachesPersistentRoot(b) && IsTaintedForWrite(b, &visiting)) {
      ++stats_.taint_rejections;
      return Status::kTainted;
    }
  }

  auto remaining = std::make_shared<int>(static_cast<int>(blocks.size()));
  auto first_err = std::make_shared<Status>(Status::kOk);

  // Submit each contiguous run as one scatter-gather request (the frame list may
  // be arbitrarily discontiguous) instead of one request per block. Timing is
  // identical to per-block submission: a busy disk would have merged the
  // per-block stream into exactly this gathered request, and an idle disk still
  // gets the run's first block as its own request, because per-block submission
  // dispatched that block immediately — before the rest could merge behind it.
  auto submit_run = [&](std::span<const hw::BlockId> run) {
    std::vector<hw::FrameId> frames;
    frames.reserve(run.size());
    for (hw::BlockId b : run) {
      RegistryEntry* e = registry_.LookupMutable(b);
      e->state = BufState::kWriteTransit;  // frame stays readable while the DMA runs
      frames.push_back(e->frame);
    }
    const hw::BlockId run_start = run.front();
    const uint32_t n = static_cast<uint32_t>(run.size());
    disk_->Submit({.write = true,
                   .start = run_start,
                   .nblocks = n,
                   .frames = std::move(frames),
                   .done = [this, run_start, n, remaining, first_err, done](Status s) {
                     if (s != Status::kOk) {
                       *first_err = s;
                     }
                     if (tracer_->enabled(trace::Category::kXn)) {
                       tracer_->Instant(trace::Category::kXn, trace_track_,
                                        s == Status::kOk ? "write_done" : "write_err",
                                        machine_->engine().now(), run_start);
                     }
                     for (uint32_t k = 0; k < n; ++k) {
                       OnWriteComplete(run_start + k, s);
                     }
                     *remaining -= static_cast<int>(n);
                     if (*remaining == 0 && done) {
                       done(*first_err);
                     }
                   }});
  };
  size_t i = 0;
  while (i < blocks.size()) {
    size_t j = i + 1;
    while (j < blocks.size() && blocks[j] == blocks[j - 1] + 1) {
      ++j;
    }
    std::span<const hw::BlockId> run = blocks.subspan(i, j - i);
    if (!disk_->active() && run.size() > 1) {
      submit_run(run.first(1));
      submit_run(run.subspan(1));
    } else {
      submit_run(run);
    }
    i = j;
  }
  return Status::kOk;
}

void Xn::OnWriteComplete(hw::BlockId b, Status s) {
  RegistryEntry* e = registry_.LookupMutable(b);
  if (e == nullptr) {
    return;  // crashed between submit and completion
  }
  e->state = BufState::kResident;
  if (s != Status::kOk) {
    // The block never reached the platter: it stays dirty (and, if freshly
    // allocated, uninitialized) so taint tracking keeps treating the on-disk copy
    // as the garbage it still is. The caller sees the error and may retry.
    return;
  }
  e->dirty = false;
  uninit_.erase(b);
  if (integrity_armed()) {
    // Record what the media must now hold: the only handle on a lost write
    // whose stale tag is otherwise self-consistent. An acked rewrite also
    // lifts any standing quarantine.
    expected_crc_[b] = hw::Crc32(FrameBytes(e->frame));
    quarantined_.erase(b);
  }

  const Template* t = FindTemplate(e->tmpl);
  if (t == nullptr || !t->is_metadata) {
    return;
  }
  auto owns = RunOwns(*t, disk_->RawBlock(b));
  if (!owns.ok()) {
    return;
  }
  // Pointers the old disk image held but the new one does not: release will-free
  // references; blocks with no remaining on-disk pointers become reusable.
  if (auto it = on_disk_owns_.find(b); it != on_disk_owns_.end()) {
    for (const auto& [child, tmpl] : it->second) {
      if (FindOwned(*owns, child) != nullptr) {
        continue;
      }
      auto wf = will_free_.find(child);
      if (wf != will_free_.end() && --wf->second == 0) {
        will_free_.erase(wf);
        ReleaseBlock(child);
      }
    }
  }
  on_disk_owns_[b] = std::move(*owns);
}

Result<std::vector<uint8_t>> Xn::ReadCached(hw::BlockId block, const Caps& creds) {
  const RegistryEntry* e = registry_.Lookup(block);
  if (e == nullptr || e->state != BufState::kResident) {
    return Status::kNotFound;
  }
  auto bytes = FrameBytes(e->frame);
  machine_->Charge(machine_->cost().CopyCost(bytes.size()));
  return std::vector<uint8_t>(bytes.begin(), bytes.end());
}

// ---- Free map ----

void Xn::ReleaseBlock(hw::BlockId b) {
  free_map_.Release(b);
  // A freed block's contents are dead: nothing to expect, nothing to protect.
  expected_crc_.erase(b);
  quarantined_.erase(b);
}

// ---- End-to-end integrity ----

void Xn::RestampSystemBlock(hw::BlockId b) {
  disk_->Restamp(b);
  quarantined_.erase(b);
  expected_crc_.erase(b);  // system blocks are verified by tag alone
}

void Xn::Quarantine(hw::BlockId b, const char* why) {
  if (!quarantined_.insert(b).second) {
    return;  // already known bad: count the detection once
  }
  ++stats_.corrupt_detections;
  ++*corrupted_counter_;
  if (tracer_->enabled(trace::Category::kXn)) {
    tracer_->Instant(trace::Category::kXn, trace_track_, why, machine_->engine().now(), b);
  }
}

Status Xn::CheckReadIntegrity(hw::BlockId b) {
  if (!integrity_armed()) {
    return Status::kOk;
  }
  bool bad = disk_->CheckBlock(b) != hw::BlockIntegrity::kOk;
  if (!bad) {
    // The tag is self-consistent; cross-check against the last acked write.
    // This is what catches an in-session lost write: the media still carries
    // an older, correctly-stamped generation.
    auto it = expected_crc_.find(b);
    bad = it != expected_crc_.end() && it->second != hw::Crc32(disk_->RawBlock(b));
  }
  if (!bad) {
    return Status::kOk;
  }
  Quarantine(b, "read_corrupt");
  return Status::kCorrupted;
}

Status Xn::TryRepair(hw::BlockId b) {
  if (!integrity_armed() || b >= disk_->geometry().num_blocks) {
    return Status::kInvalidArgument;
  }
  // Only a clean resident copy is trustworthy: it was itself verified when it
  // was read (or is the image of an acked write), and writing a *dirty* frame
  // through MutableBlock would bypass the taint/ordering rules entirely.
  const RegistryEntry* e = registry_.Lookup(b);
  if (e == nullptr || e->state != BufState::kResident || e->dirty) {
    return Status::kCorrupted;
  }
  auto bytes = FrameBytes(e->frame);
  std::memcpy(disk_->MutableBlock(b).data(), bytes.data(), hw::kBlockSize);
  disk_->Restamp(b);
  expected_crc_[b] = hw::Crc32(bytes);
  quarantined_.erase(b);
  ++stats_.repairs;
  ++*repaired_counter_;
  if (tracer_->enabled(trace::Category::kXn)) {
    tracer_->Instant(trace::Category::kXn, trace_track_, "repair", machine_->engine().now(), b);
  }
  return Status::kOk;
}

uint32_t Xn::ScrubStep(uint32_t budget) {
  const uint32_t n = free_map_.num_blocks();
  if (!integrity_armed() || n == 0) {
    return 0;
  }
  uint32_t scanned = 0;
  for (uint32_t step = 0; step < n && scanned < budget; ++step) {
    const hw::BlockId b = scrub_cursor_;
    scrub_cursor_ = (scrub_cursor_ + 1) % n;
    if (free_map_.IsFree(b)) {
      continue;  // scrub covers allocated blocks only
    }
    // Skip blocks whose media image is legitimately behind the cache: an
    // uninitialized or dirty block has never had (or no longer has) an
    // authoritative on-disk generation, and in-transit blocks are mid-DMA.
    if (uninit_.count(b) != 0 || will_free_.count(b) != 0) {
      continue;
    }
    if (const RegistryEntry* e = registry_.Lookup(b);
        e != nullptr && (e->dirty || e->state != BufState::kResident)) {
      continue;
    }
    ++scanned;
    ++*scrub_scanned_counter_;
    if (quarantined_.count(b) != 0) {
      continue;  // already detected; waiting on repair or rewrite
    }
    bool bad = disk_->CheckBlock(b) != hw::BlockIntegrity::kOk;
    if (!bad) {
      auto it = expected_crc_.find(b);
      bad = it != expected_crc_.end() && it->second != hw::Crc32(disk_->RawBlock(b));
    }
    if (!bad) {
      continue;
    }
    Quarantine(b, "scrub_corrupt");
    if (TryRepair(b) == Status::kOk) {
      ++*scrub_repaired_counter_;
    } else {
      ++*scrub_quarantined_counter_;
    }
  }
  return scanned;
}

void Xn::StartScrubber(sim::Cycles interval, uint32_t budget, uint32_t steps) {
  if (steps == 0) {
    return;
  }
  if (!scrub_token_) {
    scrub_token_ = std::make_shared<int>(0);
  }
  // The token weak_ptr keeps a scheduled step from touching a destroyed Xn.
  std::weak_ptr<int> alive = scrub_token_;
  machine_->engine().ScheduleAfter(interval, [this, alive, interval, budget, steps] {
    if (alive.expired()) {
      return;
    }
    if (disk_->idle()) {
      ScrubStep(budget);  // idle priority: a busy disk defers the whole step
    }
    StartScrubber(interval, budget, steps - 1);
  });
}

Xn::IntegrityReport Xn::VerifyDiskIntegrity(uint64_t max_blocks) {
  IntegrityReport rep;
  if (!integrity_armed()) {
    return rep;
  }
  const bool tracing = tracer_->enabled(trace::Category::kXn);
  if (tracing) {
    tracer_->Begin(trace::Category::kXn, trace_track_, "integrity_scan",
                   machine_->engine().now());
  }
  const uint64_t n =
      std::min<uint64_t>(disk_->geometry().num_blocks, max_blocks);
  for (hw::BlockId b = 0; b < n; ++b) {
    ++rep.scanned;
    const hw::BlockIntegrity v = disk_->CheckBlock(b);
    if (v == hw::BlockIntegrity::kOk) {
      continue;
    }
    if (v == hw::BlockIntegrity::kUnreadable) {
      ++rep.unreadable;
    }
    Quarantine(b, "fsck_corrupt");
    ++rep.quarantined;
  }
  // Bounded time: a tag compare per block, charged like a cheap sequential scan.
  machine_->Charge(machine_->cost().FromMicros(2) * rep.scanned);
  machine_->counters().Add("xn.integrity_blocks_scanned", rep.scanned);
  if (tracing) {
    tracer_->End(trace::Category::kXn, trace_track_, "integrity_scan",
                 machine_->engine().now(), rep.quarantined);
  }
  return rep;
}

}  // namespace exo::xn
