#include "fs/cffs.h"

#include <algorithm>
#include <cstdio>
#include <cstring>

#include "fs/fs_internal.h"
#include "udf/assembler.h"

namespace exo::fs {

namespace {

// Entry field offsets within a 128-byte slot (see cffs.h).
constexpr uint32_t kOffKind = 0;
constexpr uint32_t kOffNameLen = 1;
constexpr uint32_t kOffUid = 2;  // in the header slot this field holds the fsid
constexpr uint32_t kOffSize = 4;
constexpr uint32_t kOffMtime = 8;
constexpr uint32_t kOffNBlocks = 12;
constexpr uint32_t kOffName = 16;
constexpr uint32_t kOffDirect = 80;
constexpr uint32_t kOffIndirect = 112;

constexpr uint8_t kKindFree = 0;
constexpr uint8_t kKindFile = 1;
constexpr uint8_t kKindDir = 2;
constexpr uint8_t kKindHeader = 3;

xn::ByteMod ModU8(uint32_t off, uint8_t v) { return {off, {v}}; }
xn::ByteMod ModU16(uint32_t off, uint16_t v) {
  return {off, {static_cast<uint8_t>(v), static_cast<uint8_t>(v >> 8)}};
}
xn::ByteMod ModU32(uint32_t off, uint32_t v) {
  return {off, {static_cast<uint8_t>(v), static_cast<uint8_t>(v >> 8),
                static_cast<uint8_t>(v >> 16), static_cast<uint8_t>(v >> 24)}};
}
xn::ByteMod ModBytes(uint32_t off, std::span<const uint8_t> bytes) {
  return {off, std::vector<uint8_t>(bytes.begin(), bytes.end())};
}

// The directory-block owns-udf: walks all 32 slots, emitting each live entry's
// direct pointers (typed data for files, directory-block for directories and the
// root header) and indirect-block pointers (typed per entry kind).
udf::Program DirOwnsUdf(uint32_t dir_tmpl, uint32_t ind_file_tmpl, uint32_t ind_dir_tmpl) {
  char src[2048];
  std::snprintf(src, sizeof(src), R"(
      ldi r1, 0            ; slot base
      ldi r2, 32           ; slots remaining
    slot:
      ld1 r3, r1, 0, meta  ; kind
      bz r3, next
      ldi r4, 1
      ceq r5, r3, r4       ; is_file
      ldi r6, 1
      sub r6, r6, r5       ; is_dirish (dir entry or header)
      ldi r7, %u
      mul r7, r7, r6       ; child type: dir-block or data(0)
      ldi r8, %u
      mul r8, r8, r5
      ldi r9, %u
      mul r9, r9, r6
      add r8, r8, r9       ; indirect-block type by kind
      ld4 r9, r1, 12, meta ; nblocks
      ldi r10, 8
      cle r11, r9, r10
      mul r12, r9, r11
      ldi r13, 1
      sub r13, r13, r11
      mul r13, r10, r13
      add r12, r12, r13    ; direct count = min(nblocks, 8)
      addi r13, r1, 80
      ldi r14, 1
    dloop:
      bz r12, dirs
      ld4 r15, r13, 0, meta
      emit r15, r14, r7
      addi r13, r13, 4
      addi r12, r12, -1
      jmp dloop
    dirs:
      ld4 r15, r1, 112, meta
      bz r15, i2
      emit r15, r14, r8
    i2:
      ld4 r15, r1, 116, meta
      bz r15, i3
      emit r15, r14, r8
    i3:
      ld4 r15, r1, 120, meta
      bz r15, next
      emit r15, r14, r8
    next:
      addi r1, r1, 128
      addi r2, r2, -1
      bnz r2, slot
      ldi r1, 0
      ret r1
  )", dir_tmpl, ind_file_tmpl, ind_dir_tmpl);
  auto r = udf::Assemble(src);
  EXO_CHECK(r.ok);
  return r.program;
}

// Indirect-block owns-udf: u16 count at 0, u16 fsid at 2, u32 pointers from 4.
udf::Program IndirectOwnsUdf(uint32_t child_tmpl) {
  char src[512];
  std::snprintf(src, sizeof(src), R"(
      ldi r1, 0
      ld2 r2, r1, 0, meta
      ldi r3, 4
      ldi r4, 1
      ldi r5, %u
      bz r2, done
    loop:
      ld4 r6, r3, 0, meta
      emit r6, r4, r5
      addi r3, r3, 4
      addi r2, r2, -1
      bnz r2, loop
    done:
      ldi r1, 0
      ret r1
  )", child_tmpl);
  auto r = udf::Assemble(src);
  EXO_CHECK(r.ok);
  return r.program;
}

// Shared acl-uf: a credential matches if it dominates {kCapFs, fsid} and is writable
// when the intent requires writing. A zero fsid means the block is still being
// initialized by its creator (bootstrap). The fsid sits at offset 2 in both
// directory blocks (header slot uid field) and indirect blocks.
udf::Program CffsAclUf() {
  auto r = udf::Assemble(R"(
      ldi r15, 0
      ld1 r2, r15, 0, aux
      ldi r3, 0
      clt r14, r3, r2          ; need_write = intent != kReadChild
      ld2 r13, r15, 2, meta    ; fsid
      bnz r13, havefsid
      ldi r1, 1
      ret r1
    havefsid:
      ld2 r6, r15, 0, cred     ; capability count
      ldi r7, 2                ; byte cursor into credentials
    loop:
      bz r6, deny
      ld1 r8, r7, 0, cred      ; write flag
      ld2 r9, r7, 1, cred      ; name part count
      ldi r3, 1
      sub r10, r3, r8
      and r10, r14, r10        ; need write but capability is read-only
      bnz r10, skip
      bz r9, match             ; the root capability dominates everything
      ld2 r10, r7, 3, cred     ; first name part
      ldi r3, 3
      ceq r11, r10, r3         ; must be kCapFs
      bz r11, skip
      ldi r3, 1
      ceq r11, r9, r3
      bnz r11, match           ; {kCapFs} dominates every file system
      ldi r3, 2
      ceq r11, r9, r3
      bz r11, skip             ; longer names cannot dominate {kCapFs, fsid}
      ld2 r10, r7, 5, cred     ; second name part
      ceq r11, r10, r13
      bnz r11, match
    skip:
      addi r7, r7, 3
      add r7, r7, r9
      add r7, r7, r9
      addi r6, r6, -1
      jmp loop
    match:
      ldi r1, 1
      ret r1
    deny:
      ldi r1, 0
      ret r1
  )");
  EXO_CHECK(r.ok);
  return r.program;
}

udf::Program BlockSizeUf() {
  auto r = udf::Assemble("ldi r1, 4096\nret r1\n");
  EXO_CHECK(r.ok);
  return r.program;
}

}  // namespace

Cffs::Cffs(FsBackend* backend, const CffsOptions& options)
    : backend_(backend),
      machine_(backend->machine()),
      options_(options),
      trace_track_(machine_.tracer().NewTrack(options_.root_name)),
      dirty_(backend) {}

uint64_t Cffs::Pack(const Handle& h) {
  return (static_cast<uint64_t>(h.dir_block) << 8) | h.slot;
}

Cffs::Handle Cffs::Unpack(uint64_t h) {
  return Handle{static_cast<hw::BlockId>(h >> 8), static_cast<uint8_t>(h & 0xff)};
}

void Cffs::TraceFs(const char* name, uint64_t arg) {
  trace::Tracer& t = machine_.tracer();
  if (t.enabled(trace::Category::kFs)) {
    t.Instant(trace::Category::kFs, trace_track_, name, machine_.engine().now(), arg);
  }
}

Status Cffs::InstallTemplates() {
  // Template ids are assigned sequentially by the catalogue, so the self- and
  // cross-references below are predictable; the checks catch any drift.
  xn::Template ind_file;
  ind_file.name = "cffs-ind-file";
  ind_file.is_metadata = true;
  ind_file.owns_udf = IndirectOwnsUdf(xn::kDataTemplate);
  ind_file.acl_uf = CffsAclUf();
  ind_file.size_uf = BlockSizeUf();
  auto a = backend_->RegisterTemplate(ind_file);
  if (!a.ok()) {
    return a.status();
  }
  ind_file_tmpl_ = *a;

  const uint32_t predicted_dir = ind_file_tmpl_ + 2;
  xn::Template ind_dir;
  ind_dir.name = "cffs-ind-dir";
  ind_dir.is_metadata = true;
  ind_dir.owns_udf = IndirectOwnsUdf(predicted_dir);
  ind_dir.acl_uf = CffsAclUf();
  ind_dir.size_uf = BlockSizeUf();
  auto b = backend_->RegisterTemplate(ind_dir);
  if (!b.ok()) {
    return b.status();
  }
  ind_dir_tmpl_ = *b;

  xn::Template dir;
  dir.name = "cffs-dir";
  dir.is_metadata = true;
  dir.owns_udf = DirOwnsUdf(predicted_dir, ind_file_tmpl_, ind_dir_tmpl_);
  dir.acl_uf = CffsAclUf();
  dir.size_uf = BlockSizeUf();
  auto c = backend_->RegisterTemplate(dir);
  if (!c.ok()) {
    return c.status();
  }
  dir_tmpl_ = *c;
  EXO_CHECK_EQ(ind_dir_tmpl_, ind_file_tmpl_ + 1);
  EXO_CHECK_EQ(dir_tmpl_, predicted_dir);
  return Status::kOk;
}

Status Cffs::Mkfs() {
  Status s = InstallTemplates();
  if (s != Status::kOk) {
    return s;
  }
  auto root = backend_->CreateRoot(options_.root_name, dir_tmpl_);
  if (!root.ok()) {
    return root.status();
  }
  root_block_ = *root;
  // Initialize the header slot: kind=header, fsid, no continuation blocks.
  xn::Mods mods = {ModU8(kOffKind, kKindHeader), ModU16(kOffUid, options_.fsid),
                   ModU32(kOffNBlocks, 0)};
  s = backend_->Modify(root_block_, mods);
  if (s != Status::kOk) {
    return s;
  }
  dirty_.Hold(root_block_);
  return Status::kOk;
}

Status Cffs::Mount() {
  Status s = InstallTemplates();
  if (s != Status::kOk) {
    return s;
  }
  auto root = backend_->OpenRoot(options_.root_name);
  if (!root.ok()) {
    return root.status();
  }
  root_block_ = *root;
  return Status::kOk;
}

Result<std::span<const uint8_t>> Cffs::GetMeta(hw::BlockId block) {
  if (backend_->IsCached(block)) {
    return backend_->GetBlock(block, block);  // parent irrelevant on a hit
  }
  TraceFs("meta_miss", block);  // only misses: hits are the hot path and say nothing new
  if (block == root_block_) {
    auto r = backend_->OpenRoot(options_.root_name);  // reloads the root mapping
    if (!r.ok()) {
      return r.status();
    }
    return backend_->GetBlock(block, block);
  }
  auto it = parent_hint_.find(block);
  if (it == parent_hint_.end()) {
    return Status::kNotFound;
  }
  auto parent = GetMeta(it->second);  // ensure the parent chain is resident first
  if (!parent.ok()) {
    return parent.status();
  }
  return backend_->GetBlock(block, it->second);
}

Result<Cffs::Entry> Cffs::ReadSlot(hw::BlockId block, uint8_t slot) {
  auto bytes = GetMeta(block);
  if (!bytes.ok()) {
    return bytes.status();
  }
  std::span<const uint8_t> s = bytes->subspan(slot * kSlotSize, kSlotSize);
  Entry e;
  e.kind = s[kOffKind];
  e.uid = GetU16(s, kOffUid);
  e.size = GetU32(s, kOffSize);
  e.mtime = GetU32(s, kOffMtime);
  e.nblocks = GetU32(s, kOffNBlocks);
  uint8_t nl = s[kOffNameLen];
  e.name.assign(reinterpret_cast<const char*>(s.data() + kOffName),
                std::min<size_t>(nl, kNameMax));
  for (uint32_t i = 0; i < kNumDirect; ++i) {
    e.direct[i] = GetU32(s, kOffDirect + i * 4);
  }
  for (uint32_t i = 0; i < kNumIndirect; ++i) {
    e.indirect[i] = GetU32(s, kOffIndirect + i * 4);
  }
  machine_.Charge(30);  // decode cost
  return e;
}

Result<Cffs::Entry> Cffs::ReadEntry(const Handle& h) { return ReadSlot(h.dir_block, h.slot); }

Result<std::vector<hw::BlockId>> Cffs::DirBlocks(const DirRef& d) {
  std::vector<hw::BlockId> out;
  Entry e;
  hw::BlockId holder;
  if (d.is_root) {
    out.push_back(root_block_);
    auto hdr = ReadSlot(root_block_, 0);
    if (!hdr.ok()) {
      return hdr.status();
    }
    e = *hdr;
    holder = root_block_;
  } else {
    auto ent = ReadEntry(d.entry);
    if (!ent.ok()) {
      return ent.status();
    }
    e = *ent;
    holder = d.entry.dir_block;
  }
  const uint32_t ndirect = std::min(e.nblocks, kNumDirect);
  for (uint32_t i = 0; i < ndirect; ++i) {
    out.push_back(e.direct[i]);
    RememberParent(e.direct[i], holder);
  }
  uint32_t remaining = e.nblocks - ndirect;
  for (uint32_t k = 0; k < kNumIndirect && remaining > 0; ++k) {
    if (e.indirect[k] == 0) {
      return Status::kBadMetadata;
    }
    RememberParent(e.indirect[k], holder);
    auto ind = GetMeta(e.indirect[k]);
    if (!ind.ok()) {
      return ind.status();
    }
    uint16_t count = GetU16(*ind, 0);
    for (uint16_t i = 0; i < count && remaining > 0; ++i, --remaining) {
      hw::BlockId db = GetU32(*ind, 4 + i * 4u);
      out.push_back(db);
      RememberParent(db, e.indirect[k]);
    }
  }
  return out;
}

Result<Cffs::Handle> Cffs::FindInDir(const DirRef& d, const std::string& name) {
  auto blocks = DirBlocks(d);
  if (!blocks.ok()) {
    return blocks.status();
  }
  TraceFs("dir_search", blocks->size());
  for (hw::BlockId b : *blocks) {
    auto bytes = GetMeta(b);
    if (!bytes.ok()) {
      return bytes.status();
    }
    for (uint8_t slot = 1; slot < kSlotsPerBlock; ++slot) {
      std::span<const uint8_t> s = bytes->subspan(slot * kSlotSize, kSlotSize);
      if (s[kOffKind] == kKindFree || s[kOffKind] == kKindHeader) {
        continue;
      }
      uint8_t nl = s[kOffNameLen];
      machine_.Charge(machine_.cost().CompareCost(nl + 2));
      if (nl == name.size() &&
          std::memcmp(s.data() + kOffName, name.data(), nl) == 0) {
        return Handle{b, slot};
      }
    }
  }
  return Status::kNotFound;
}

Result<Cffs::DirRef> Cffs::WalkToDir(const std::string& path, std::string* leaf) {
  auto parts = SplitPath(path, kNameMax);
  if (!parts.ok()) {
    return parts.status();
  }
  if (parts->empty()) {
    if (leaf != nullptr) {
      return Status::kInvalidArgument;  // caller needed a leaf name
    }
    return DirRef{.is_root = true, .entry = {}};
  }
  size_t stop = parts->size() - (leaf != nullptr ? 1 : 0);
  DirRef cur{.is_root = true, .entry = {}};
  for (size_t i = 0; i < stop; ++i) {
    auto h = FindInDir(cur, (*parts)[i]);
    if (!h.ok()) {
      return h.status();
    }
    auto e = ReadEntry(*h);
    if (!e.ok()) {
      return e.status();
    }
    if (e->kind != kKindDir) {
      return Status::kNotFound;
    }
    cur = DirRef{.is_root = false, .entry = *h};
  }
  if (leaf != nullptr) {
    *leaf = parts->back();
  }
  return cur;
}

Result<Cffs::Handle> Cffs::Lookup(const std::string& path) {
  TraceFs("lookup", path.size());
  std::string leaf;
  auto dir = WalkToDir(path, &leaf);
  if (!dir.ok()) {
    return dir.status();
  }
  return FindInDir(*dir, leaf);
}

Result<uint64_t> Cffs::Open(const std::string& path, bool create, uint16_t uid) {
  auto h = Lookup(path);
  if (!h.ok() && create) {
    h = CreateEntry(path, uid, /*is_dir=*/false);
  }
  if (!h.ok()) {
    return h.status();
  }
  return Pack(*h);
}

Status Cffs::ExtendDirectory(const DirRef& d, const std::vector<hw::BlockId>& existing) {
  // Allocate one more directory block, co-located with the last existing one.
  hw::BlockId holder = d.is_root ? root_block_ : d.entry.dir_block;
  uint8_t slot = d.is_root ? 0 : d.entry.slot;
  auto e = ReadSlot(holder, slot);
  if (!e.ok()) {
    return e.status();
  }
  auto nb = backend_->free_map().FindFreeRun(existing.back() + 1, 1);
  if (!nb.ok()) {
    return nb.status();
  }

  const uint32_t base = slot * kSlotSize;
  const uint32_t n = e->nblocks;
  xn::Mods mods = {ModU32(base + kOffNBlocks, n + 1)};
  std::vector<udf::Extent> extents;
  if (n < kNumDirect) {
    mods.push_back(ModU32(base + kOffDirect + n * 4, *nb));
    extents.push_back({*nb, 1, dir_tmpl_});
  } else {
    // Into an indirect block (rare for directories; same path as file growth).
    uint32_t k = (n - kNumDirect) / kPtrsPerIndirect;
    uint32_t i = (n - kNumDirect) % kPtrsPerIndirect;
    if (i == 0) {
      // Need a fresh indirect block first.
      auto ib = backend_->free_map().FindFreeRun(existing.back() + 1, 1);
      if (!ib.ok()) {
        return ib.status();
      }
      xn::Mods imods = {ModU32(base + kOffIndirect + k * 4, *ib)};
      std::vector<udf::Extent> iext = {{*ib, 1, ind_dir_tmpl_}};
      Status s = backend_->Alloc(holder, imods, iext);
      if (s != Status::kOk) {
        return s;
      }
      s = backend_->InstallFresh(*ib, holder);
      if (s != Status::kOk) {
        return s;
      }
      s = backend_->Modify(*ib, {ModU16(2, options_.fsid)});
      if (s != Status::kOk) {
        return s;
      }
      dirty_.Hold(*ib);
      dirty_.Hold(holder);
      e = ReadSlot(holder, slot);  // refresh indirect pointer
    }
    hw::BlockId ind = (i == 0) ? 0 : e->indirect[k];
    if (i == 0) {
      auto e2 = ReadSlot(holder, slot);
      ind = e2->indirect[k];
    }
    xn::Mods pmods = {ModU16(0, static_cast<uint16_t>(i + 1)),
                      ModU32(4 + i * 4, *nb)};
    std::vector<udf::Extent> pext = {{*nb, 1, dir_tmpl_}};
    Status s = backend_->Alloc(ind, pmods, pext);
    if (s != Status::kOk) {
      return s;
    }
    dirty_.Hold(ind);
    s = backend_->Modify(holder, mods);  // bump nblocks only
    if (s != Status::kOk) {
      return s;
    }
    dirty_.Hold(holder);
    // Initialize the new directory block's header.
    s = backend_->InstallFresh(*nb, ind);
    if (s != Status::kOk) {
      return s;
    }
    s = backend_->Modify(*nb, {ModU8(kOffKind, kKindHeader), ModU16(kOffUid, options_.fsid)});
    dirty_.Hold(*nb);
    return s;
  }

  Status s = backend_->Alloc(holder, mods, extents);
  if (s != Status::kOk) {
    return s;
  }
  dirty_.Hold(holder);
  s = backend_->InstallFresh(*nb, holder);
  if (s != Status::kOk) {
    return s;
  }
  s = backend_->Modify(*nb, {ModU8(kOffKind, kKindHeader), ModU16(kOffUid, options_.fsid)});
  dirty_.Hold(*nb);
  return s;
}

Result<Cffs::Handle> Cffs::AddEntry(const DirRef& d, const Entry& e) {
  for (int attempt = 0; attempt < 2; ++attempt) {
    auto blocks = DirBlocks(d);
    if (!blocks.ok()) {
      return blocks.status();
    }
    for (hw::BlockId b : *blocks) {
      auto bytes = GetMeta(b);
      if (!bytes.ok()) {
        return bytes.status();
      }
      for (uint8_t slot = 1; slot < kSlotsPerBlock; ++slot) {
        std::span<const uint8_t> s = bytes->subspan(slot * kSlotSize, kSlotSize);
        if (s[kOffKind] != kKindFree) {
          continue;
        }
        // Serialize the entry into mods. The new entry has no pointers yet, so this
        // is ownership-preserving (allocation happens when data is written).
        const uint32_t base = slot * kSlotSize;
        std::vector<uint8_t> name_bytes(kNameMax, 0);
        std::memcpy(name_bytes.data(), e.name.data(), e.name.size());
        xn::Mods mods = {
            ModU8(base + kOffKind, e.kind),
            ModU8(base + kOffNameLen, static_cast<uint8_t>(e.name.size())),
            ModU16(base + kOffUid, e.uid),
            ModU32(base + kOffSize, e.size),
            ModU32(base + kOffMtime, e.mtime),
            ModU32(base + kOffNBlocks, 0),
            ModBytes(base + kOffName, name_bytes),
        };
        // Zero the pointer area defensively (slot may hold stale bytes).
        std::vector<uint8_t> zeros(kSlotSize - kOffDirect, 0);
        mods.push_back(ModBytes(base + kOffDirect, zeros));
        Status st = backend_->Modify(b, mods);
        if (st != Status::kOk) {
          return st;
        }
        dirty_.Hold(b);
        return Handle{b, slot};
      }
    }
    // Directory full: extend it and retry once.
    Status st = ExtendDirectory(d, *blocks);
    if (st != Status::kOk) {
      return st;
    }
  }
  return Status::kOutOfResources;
}

Result<uint64_t> Cffs::Create(const std::string& path, uint16_t uid) {
  auto h = CreateEntry(path, uid, /*is_dir=*/false);
  if (!h.ok()) {
    return h.status();
  }
  return Pack(*h);
}

Status Cffs::Mkdir(const std::string& path, uint16_t uid) {
  auto h = CreateEntry(path, uid, /*is_dir=*/true);
  return h.ok() ? Status::kOk : h.status();
}

Result<Cffs::Handle> Cffs::CreateEntry(const std::string& path, uint16_t uid, bool is_dir) {
  std::string leaf;
  auto dir = WalkToDir(path, &leaf);
  if (!dir.ok()) {
    return dir.status();
  }
  // C-FFS invariant: names within a directory are unique (Sec. 4.5). The check scans
  // the cached directory blocks — "less than 100 lines of code".
  if (FindInDir(*dir, leaf).ok()) {
    return Status::kAlreadyExists;
  }
  Entry e;
  e.kind = is_dir ? kKindDir : kKindFile;
  e.uid = uid;
  e.mtime = Mtime(machine_);
  e.name = leaf;
  auto h = AddEntry(*dir, e);
  if (!h.ok()) {
    return h;
  }
  if (is_dir) {
    // Allocate the directory's first block, co-located with its parent entry.
    auto nb = backend_->free_map().FindFreeRun(h->dir_block + 1, 1);
    if (!nb.ok()) {
      return nb.status();
    }
    const uint32_t base = h->slot * kSlotSize;
    xn::Mods mods = {ModU32(base + kOffNBlocks, 1), ModU32(base + kOffDirect, *nb)};
    std::vector<udf::Extent> extents = {{*nb, 1, dir_tmpl_}};
    Status s = backend_->Alloc(h->dir_block, mods, extents);
    if (s != Status::kOk) {
      return s;
    }
    s = backend_->InstallFresh(*nb, h->dir_block);
    if (s != Status::kOk) {
      return s;
    }
    s = backend_->Modify(*nb, {ModU8(kOffKind, kKindHeader), ModU16(kOffUid, options_.fsid)});
    if (s != Status::kOk) {
      return s;
    }
    dirty_.Hold(*nb);
    dirty_.Hold(h->dir_block);
  }
  return h;
}

Result<std::pair<hw::BlockId, hw::BlockId>> Cffs::DataBlockAt(const Handle& h, const Entry& e,
                                                              uint32_t index) {
  if (index >= e.nblocks) {
    return Status::kInvalidArgument;
  }
  if (index < kNumDirect) {
    RememberParent(e.direct[index], h.dir_block);
    return std::make_pair(e.direct[index], h.dir_block);
  }
  uint32_t k = (index - kNumDirect) / kPtrsPerIndirect;
  uint32_t i = (index - kNumDirect) % kPtrsPerIndirect;
  if (k >= kNumIndirect || e.indirect[k] == 0) {
    return Status::kBadMetadata;
  }
  RememberParent(e.indirect[k], h.dir_block);
  TraceFs("indirect", e.indirect[k]);
  auto ind = GetMeta(e.indirect[k]);
  if (!ind.ok()) {
    return ind.status();
  }
  hw::BlockId db = GetU32(*ind, 4 + i * 4);
  RememberParent(db, e.indirect[k]);
  return std::make_pair(db, e.indirect[k]);
}

Result<std::pair<hw::BlockId, hw::BlockId>> Cffs::BlockAt(uint64_t handle, uint32_t index) {
  const Handle h = Unpack(handle);
  auto e = ReadEntry(h);
  if (!e.ok()) {
    return e.status();
  }
  return DataBlockAt(h, *e, index);
}

Status Cffs::GrowFile(const Handle& h, Entry* e, uint32_t new_nblocks, hw::BlockId hint) {
  EXO_CHECK_GT(new_nblocks, e->nblocks);
  if (new_nblocks > kNumDirect + kNumIndirect * kPtrsPerIndirect) {
    return Status::kOutOfResources;  // beyond maximum file size
  }
  const uint32_t base = h.slot * kSlotSize;
  const xn::FreeMap& free_map = backend_->free_map();
  while (e->nblocks < new_nblocks) {
    const uint32_t idx = e->nblocks;
    if (idx < kNumDirect) {
      // Batch all direct-range allocations into one guarded operation.
      const uint32_t want = std::min(new_nblocks, kNumDirect) - idx;
      // FindFreeRun wraps around, so a batch wanting more blocks than are free
      // would name one block twice.
      if (free_map.free_count() < want) {
        return Status::kOutOfResources;
      }
      xn::Mods mods;
      std::vector<udf::Extent> extents;
      hw::BlockId cursor = hint;
      for (uint32_t j = 0; j < want; ++j) {
        auto b = free_map.FindFreeRun(cursor, 1);
        if (!b.ok()) {
          return b.status();
        }
        cursor = *b + 1;
        mods.push_back(ModU32(base + kOffDirect + (idx + j) * 4, *b));
        extents.push_back({*b, 1, xn::kDataTemplate});
        e->direct[idx + j] = *b;
      }
      mods.push_back(ModU32(base + kOffNBlocks, idx + want));
      Status s = backend_->Alloc(h.dir_block, mods, extents);
      if (s != Status::kOk) {
        return s;
      }
      dirty_.Hold(h.dir_block);
      e->nblocks = idx + want;
      hint = cursor;
      continue;
    }

    const uint32_t k = (idx - kNumDirect) / kPtrsPerIndirect;
    const uint32_t i = (idx - kNumDirect) % kPtrsPerIndirect;
    if (e->indirect[k] == 0) {
      EXO_CHECK_EQ(i, 0u);
      auto ib = free_map.FindFreeRun(hint, 1);
      if (!ib.ok()) {
        return ib.status();
      }
      xn::Mods imods = {ModU32(base + kOffIndirect + k * 4, *ib)};
      std::vector<udf::Extent> iext = {{*ib, 1, ind_file_tmpl_}};
      Status s = backend_->Alloc(h.dir_block, imods, iext);
      if (s != Status::kOk) {
        return s;
      }
      s = backend_->InstallFresh(*ib, h.dir_block);
      if (s != Status::kOk) {
        return s;
      }
      s = backend_->Modify(*ib, {ModU16(2, options_.fsid)});
      if (s != Status::kOk) {
        return s;
      }
      e->indirect[k] = *ib;
      dirty_.Hold(*ib);
      dirty_.Hold(h.dir_block);
      hint = *ib + 1;
    }

    // Batch allocations within this indirect block.
    const uint32_t want =
        std::min(new_nblocks - idx, kPtrsPerIndirect - i);
    if (free_map.free_count() < want) {
      return Status::kOutOfResources;  // as for the direct batch
    }
    xn::Mods pmods;
    std::vector<udf::Extent> pext;
    hw::BlockId cursor = hint;
    for (uint32_t j = 0; j < want; ++j) {
      auto b = free_map.FindFreeRun(cursor, 1);
      if (!b.ok()) {
        return b.status();
      }
      cursor = *b + 1;
      pmods.push_back(ModU32(4 + (i + j) * 4, *b));
      pext.push_back({*b, 1, xn::kDataTemplate});
    }
    pmods.push_back(ModU16(0, static_cast<uint16_t>(i + want)));
    Status s = backend_->Alloc(e->indirect[k], pmods, pext);
    if (s != Status::kOk) {
      return s;
    }
    dirty_.Hold(e->indirect[k]);
    // Bump nblocks in the entry (ownership-preserving there).
    s = backend_->Modify(h.dir_block, {ModU32(base + kOffNBlocks, idx + want)});
    if (s != Status::kOk) {
      return s;
    }
    dirty_.Hold(h.dir_block);
    e->nblocks = idx + want;
    hint = cursor;
  }
  return Status::kOk;
}

Result<uint32_t> Cffs::Write(uint64_t handle, uint64_t off, std::span<const uint8_t> data,
                             uint16_t uid) {
  const Handle h = Unpack(handle);
  auto e = ReadEntry(h);
  if (!e.ok()) {
    return e.status();
  }
  if (e->kind != kKindFile) {
    return Status::kInvalidArgument;
  }
  // UNIX permission semantics live in C-FFS, mapped onto capabilities by the caller
  // (Sec. 4.5): a simple owner check suffices for our workloads (uid 0 is root).
  if (uid != 0 && e->uid != uid) {
    return Status::kPermissionDenied;
  }
  const uint64_t end = off + data.size();
  const uint32_t need = static_cast<uint32_t>((end + hw::kBlockSize - 1) / hw::kBlockSize);
  if (need > e->nblocks) {
    // Co-location: place file data next to its directory block (C-FFS grouping).
    hw::BlockId hint = e->nblocks > 0 ? e->direct[0] + e->nblocks : h.dir_block + 1;
    Status s = GrowFile(h, &*e, need, hint);
    if (s != Status::kOk) {
      return s;
    }
  }
  Status s = WriteFileData(*backend_, dirty_, e->size, off, data,
                           [&](uint32_t idx) { return DataBlockAt(h, *e, idx); });
  if (s != Status::kOk) {
    return s;
  }

  // Implicit updates (Sec. 4.5): size and mtime change with the data.
  const uint32_t base = h.slot * kSlotSize;
  xn::Mods mods = {ModU32(base + kOffMtime, Mtime(machine_))};
  if (end > e->size) {
    mods.push_back(ModU32(base + kOffSize, static_cast<uint32_t>(end)));
  }
  s = backend_->Modify(h.dir_block, mods);
  if (s != Status::kOk) {
    return s;
  }
  dirty_.Hold(h.dir_block);
  return static_cast<uint32_t>(data.size());
}

Result<uint32_t> Cffs::Read(uint64_t handle, uint64_t off, std::span<uint8_t> out) {
  const Handle h = Unpack(handle);
  auto e = ReadEntry(h);
  if (!e.ok()) {
    return e.status();
  }
  if (e->kind != kKindFile) {
    return Status::kInvalidArgument;
  }
  return ReadFileData(*backend_, e->size, off, out,
                      [&](uint32_t idx) { return DataBlockAt(h, *e, idx); });
}

Result<FileStat> Cffs::StatHandle(uint64_t h) {
  auto e = ReadEntry(Unpack(h));
  if (!e.ok()) {
    return e.status();
  }
  FileStat st;
  st.size = e->size;
  st.is_dir = e->kind == kKindDir;
  st.mtime = e->mtime;
  st.uid = e->uid;
  st.nblocks = e->nblocks;
  return st;
}

Result<FileStat> Cffs::StatPath(const std::string& path) {
  if (path == "/") {
    FileStat st;
    st.is_dir = true;
    return st;
  }
  auto h = Lookup(path);
  if (!h.ok()) {
    return h.status();
  }
  return StatHandle(Pack(*h));
}

Result<std::vector<DirEnt>> Cffs::ReadDir(const std::string& path) {
  Result<DirRef> dir = Status::kNotFound;
  if (path == "/") {
    dir = DirRef{.is_root = true, .entry = {}};
  } else {
    auto h = Lookup(path);
    if (!h.ok()) {
      return h.status();
    }
    auto e = ReadEntry(*h);
    if (!e.ok()) {
      return e.status();
    }
    if (e->kind != kKindDir) {
      return Status::kInvalidArgument;
    }
    dir = DirRef{.is_root = false, .entry = *h};
  }
  auto blocks = DirBlocks(*dir);
  if (!blocks.ok()) {
    return blocks.status();
  }
  std::vector<DirEnt> out;
  for (hw::BlockId b : *blocks) {
    auto bytes = GetMeta(b);
    if (!bytes.ok()) {
      return bytes.status();
    }
    for (uint8_t slot = 1; slot < kSlotsPerBlock; ++slot) {
      std::span<const uint8_t> s = bytes->subspan(slot * kSlotSize, kSlotSize);
      if (s[kOffKind] != kKindFile && s[kOffKind] != kKindDir) {
        continue;
      }
      DirEnt de;
      de.name.assign(reinterpret_cast<const char*>(s.data() + kOffName), s[kOffNameLen]);
      de.is_dir = s[kOffKind] == kKindDir;
      de.size = GetU32(s, kOffSize);
      out.push_back(std::move(de));
      machine_.Charge(40);
    }
  }
  return out;
}

Status Cffs::FreeFileBlocks(const Handle& h, const Entry& e) {
  const uint32_t base = h.slot * kSlotSize;
  // Free indirect-held data first (children before parents), then the entry's own
  // pointers in one dealloc.
  uint32_t remaining = e.nblocks > kNumDirect ? e.nblocks - kNumDirect : 0;
  for (uint32_t k = 0; k < kNumIndirect && e.indirect[k] != 0; ++k) {
    auto ind = backend_->GetBlock(e.indirect[k], h.dir_block);
    if (!ind.ok()) {
      return ind.status();
    }
    uint16_t count = GetU16(*ind, 0);
    std::vector<udf::Extent> ext;
    for (uint16_t i = 0; i < count; ++i) {
      ext.push_back({GetU32(*ind, 4 + i * 4u), 1, xn::kDataTemplate});
    }
    if (!ext.empty()) {
      xn::Mods mods = {ModU16(0, 0)};
      Status s = backend_->Dealloc(e.indirect[k], mods, ext);
      if (s != Status::kOk) {
        return s;
      }
    }
    remaining -= std::min<uint32_t>(remaining, count);
  }

  // A directory's blocks are typed cffs-dir, not data.
  const bool dir = e.kind == kKindDir;
  xn::Mods mods = {ModU32(base + kOffNBlocks, 0)};
  std::vector<udf::Extent> ext;
  const uint32_t ndirect = std::min(e.nblocks, kNumDirect);
  for (uint32_t i = 0; i < ndirect; ++i) {
    ext.push_back({e.direct[i], 1, dir ? dir_tmpl_ : xn::kDataTemplate});
    mods.push_back(ModU32(base + kOffDirect + i * 4, 0));
  }
  for (uint32_t k = 0; k < kNumIndirect; ++k) {
    if (e.indirect[k] != 0) {
      ext.push_back({e.indirect[k], 1, dir ? ind_dir_tmpl_ : ind_file_tmpl_});
      mods.push_back(ModU32(base + kOffIndirect + k * 4, 0));
    }
  }
  if (ext.empty()) {
    return backend_->Modify(h.dir_block, mods);
  }
  Status s = backend_->Dealloc(h.dir_block, mods, ext);
  if (s == Status::kOk) {
    dirty_.Hold(h.dir_block);
  }
  return s;
}

Status Cffs::Unlink(const std::string& path, uint16_t uid) {
  auto h = Lookup(path);
  if (!h.ok()) {
    return h.status();
  }
  auto e = ReadEntry(*h);
  if (!e.ok()) {
    return e.status();
  }
  if (uid != 0 && e->uid != uid) {
    return Status::kPermissionDenied;
  }
  if (e->kind == kKindDir) {
    // Only empty directories can be removed.
    auto entries = ReadDir(path);
    if (!entries.ok()) {
      return entries.status();
    }
    if (!entries->empty()) {
      return Status::kBusy;
    }
    // Indirect-held dir blocks: free their pointers first (they are empty).
    for (uint32_t k = 0; k < kNumIndirect && e->indirect[k] != 0; ++k) {
      auto ind = backend_->GetBlock(e->indirect[k], h->dir_block);
      if (!ind.ok()) {
        return ind.status();
      }
      uint16_t count = GetU16(*ind, 0);
      std::vector<udf::Extent> ext;
      for (uint16_t i = 0; i < count; ++i) {
        ext.push_back({GetU32(*ind, 4 + i * 4u), 1, dir_tmpl_});
      }
      if (!ext.empty()) {
        Status s = backend_->Dealloc(e->indirect[k], {ModU16(0, 0)}, ext);
        if (s != Status::kOk) {
          return s;
        }
        dirty_.Hold(e->indirect[k]);
      }
    }
    // Build an entry view with only direct dir blocks + indirect blocks to free.
    Entry dir_e = *e;
    dir_e.nblocks = std::min(dir_e.nblocks, kNumDirect);
    Status s = FreeFileBlocks(*h, dir_e);
    if (s != Status::kOk) {
      return s;
    }
  } else {
    Status s = FreeFileBlocks(*h, *e);
    if (s != Status::kOk) {
      return s;
    }
  }
  // Clear the slot; the name cache (the directory block) updates implicitly.
  const uint32_t base = h->slot * kSlotSize;
  Status s = backend_->Modify(h->dir_block, {ModU8(base + kOffKind, kKindFree)});
  if (s == Status::kOk) {
    dirty_.Hold(h->dir_block);
  }
  return s;
}

Status Cffs::Rename(const std::string& from, const std::string& to, uint16_t uid) {
  auto h = Lookup(from);
  if (!h.ok()) {
    return h.status();
  }
  auto e = ReadEntry(*h);
  if (!e.ok()) {
    return e.status();
  }
  if (uid != 0 && e->uid != uid) {
    return Status::kPermissionDenied;
  }
  std::string to_leaf;
  auto to_dir = WalkToDir(to, &to_leaf);
  if (!to_dir.ok()) {
    return to_dir.status();
  }
  if (FindInDir(*to_dir, to_leaf).ok()) {
    return Status::kAlreadyExists;
  }
  // Same-directory rename: rewrite the name in place (ownership-preserving).
  std::string from_leaf;
  auto from_dir = WalkToDir(from, &from_leaf);
  if (!from_dir.ok()) {
    return from_dir.status();
  }
  bool same_dir =
      (to_dir->is_root && from_dir->is_root) ||
      (!to_dir->is_root && !from_dir->is_root && to_dir->entry == from_dir->entry);
  if (!same_dir) {
    return Status::kNotSupported;  // cross-directory rename would move pointers
  }
  const uint32_t base = h->slot * kSlotSize;
  std::vector<uint8_t> name_bytes(kNameMax, 0);
  std::memcpy(name_bytes.data(), to_leaf.data(), to_leaf.size());
  xn::Mods mods = {ModU8(base + kOffNameLen, static_cast<uint8_t>(to_leaf.size())),
                   ModBytes(base + kOffName, name_bytes)};
  Status s = backend_->Modify(h->dir_block, mods);
  if (s == Status::kOk) {
    dirty_.Hold(h->dir_block);
  }
  return s;
}

Result<std::vector<hw::BlockId>> Cffs::FileBlocks(uint64_t handle) {
  const Handle h = Unpack(handle);
  auto e = ReadEntry(h);
  if (!e.ok()) {
    return e.status();
  }
  std::vector<hw::BlockId> out;
  for (uint32_t i = 0; i < e->nblocks; ++i) {
    auto loc = DataBlockAt(h, *e, i);
    if (!loc.ok()) {
      return loc.status();
    }
    out.push_back(loc->first);
  }
  return out;
}

Result<uint64_t> Cffs::CreateSized(const std::string& path, uint16_t uid, uint64_t size,
                                   hw::BlockId hint) {
  auto h = CreateEntry(path, uid, /*is_dir=*/false);
  if (!h.ok()) {
    return h.status();
  }
  const uint32_t need = static_cast<uint32_t>((size + hw::kBlockSize - 1) / hw::kBlockSize);
  if (need > 0) {
    auto e = ReadEntry(*h);
    if (!e.ok()) {
      return e.status();
    }
    Status s = GrowFile(*h, &*e, need, hint == hw::kInvalidBlock ? h->dir_block + 1 : hint);
    if (s != Status::kOk) {
      return s;
    }
  }
  const uint32_t base = h->slot * kSlotSize;
  Status s = backend_->Modify(h->dir_block,
                              {ModU32(base + kOffSize, static_cast<uint32_t>(size))});
  if (s != Status::kOk) {
    return s;
  }
  dirty_.Hold(h->dir_block);
  return Pack(*h);
}

Status Cffs::Sync() { return dirty_.Sync(); }

}  // namespace exo::fs
