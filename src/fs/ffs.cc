#include "fs/ffs.h"

#include <algorithm>
#include <cstring>

#include "fs/fs_internal.h"

namespace exo::fs {

namespace {

constexpr uint32_t kOffKind = 0;
constexpr uint32_t kOffUid = 2;
constexpr uint32_t kOffSize = 4;
constexpr uint32_t kOffMtime = 8;
constexpr uint32_t kOffNBlocks = 12;
constexpr uint32_t kOffDirect = 16;
constexpr uint32_t kOffIndirect = 48;
constexpr uint32_t kInodeSize = 128;

}  // namespace

Ffs::Ffs(FsBackend* backend)
    : backend_(backend), machine_(backend->machine()), dirty_(backend) {}

Status Ffs::Mkfs() {
  auto root = backend_->CreateRoot("ffs", 1);
  if (!root.ok()) {
    return root.status();
  }
  super_ = *root;
  dirty_.Mark(super_);
  // Claim the inode zone right after the superblock area.
  auto zone = backend_->free_map().FindFreeRun(super_ + 1, kInodeBlocks);
  if (!zone.ok()) {
    return zone.status();
  }
  inode_zone_ = *zone;
  std::vector<udf::Extent> ext = {{inode_zone_, kInodeBlocks, 1}};
  Status s = backend_->Alloc(super_, {}, ext);
  if (s != Status::kOk) {
    return s;
  }
  for (uint32_t i = 0; i < kInodeBlocks; ++i) {
    s = backend_->InstallFresh(inode_zone_ + i, super_);
    if (s != Status::kOk) {
      return s;
    }
    dirty_.Mark(inode_zone_ + i);
  }
  rotor_ = inode_zone_ + kInodeBlocks;

  // Root directory: inode 1 (inode 0 stays invalid).
  Inode rooti;
  rooti.kind = 2;
  rooti.mtime = Mtime(machine_);
  s = WriteInode(kRootIno, rooti, /*metadata_update=*/true);
  return s;
}

Result<Ffs::Inode> Ffs::ReadInode(uint32_t ino) {
  if (ino == 0 || ino >= kInodeBlocks * kInodesPerBlock) {
    return Status::kInvalidArgument;
  }
  auto bytes = backend_->GetBlock(InodeBlockOf(ino), super_);
  if (!bytes.ok()) {
    return bytes.status();
  }
  std::span<const uint8_t> s =
      bytes->subspan((ino % kInodesPerBlock) * kInodeSize, kInodeSize);
  Inode in;
  in.kind = s[kOffKind];
  in.uid = GetU16(s, kOffUid);
  in.size = GetU32(s, kOffSize);
  in.mtime = GetU32(s, kOffMtime);
  in.nblocks = GetU32(s, kOffNBlocks);
  for (uint32_t i = 0; i < kNumDirect; ++i) {
    in.direct[i] = GetU32(s, kOffDirect + i * 4);
  }
  for (uint32_t i = 0; i < kNumIndirect; ++i) {
    in.indirect[i] = GetU32(s, kOffIndirect + i * 4);
  }
  machine_.Charge(30);
  return in;
}

Status Ffs::WriteInode(uint32_t ino, const Inode& in, bool metadata_update) {
  std::vector<uint8_t> img(kInodeSize, 0);
  img[kOffKind] = in.kind;
  img[kOffUid] = static_cast<uint8_t>(in.uid);
  img[kOffUid + 1] = static_cast<uint8_t>(in.uid >> 8);
  auto put32 = [&](uint32_t off, uint32_t v) {
    for (int i = 0; i < 4; ++i) {
      img[off + i] = static_cast<uint8_t>(v >> (8 * i));
    }
  };
  put32(kOffSize, in.size);
  put32(kOffMtime, in.mtime);
  put32(kOffNBlocks, in.nblocks);
  for (uint32_t i = 0; i < kNumDirect; ++i) {
    put32(kOffDirect + i * 4, in.direct[i]);
  }
  for (uint32_t i = 0; i < kNumIndirect; ++i) {
    put32(kOffIndirect + i * 4, in.indirect[i]);
  }
  xn::Mods mods = {{(ino % kInodesPerBlock) * kInodeSize, std::move(img)}};
  Status s = backend_->Modify(InodeBlockOf(ino), mods);
  if (s != Status::kOk) {
    return s;
  }
  if (metadata_update) {
    // The defining FFS behaviour: metadata hits the platter before the call returns.
    const hw::BlockId block = InodeBlockOf(ino);
    return backend_->FlushSync({&block, 1});
  }
  dirty_.Mark(InodeBlockOf(ino));
  return Status::kOk;
}

Result<uint32_t> Ffs::AllocInode(uint8_t kind, uint16_t uid) {
  const uint32_t max_ino = kInodeBlocks * kInodesPerBlock;
  for (uint32_t n = 0; n < max_ino - 2; ++n) {
    uint32_t ino = 2 + (ino_rotor_ - 2 + n) % (max_ino - 2);
    auto in = ReadInode(ino);
    if (!in.ok()) {
      return in.status();
    }
    if (in->kind == 0) {
      ino_rotor_ = ino + 1;
      Inode fresh;
      fresh.kind = kind;
      fresh.uid = uid;
      fresh.mtime = Mtime(machine_);
      Status s = WriteInode(ino, fresh, /*metadata_update=*/true);
      if (s != Status::kOk) {
        return s;
      }
      return ino;
    }
  }
  return Status::kOutOfResources;
}

Result<hw::BlockId> Ffs::DataBlockAt(const Inode& in, uint32_t index) {
  if (index >= in.nblocks) {
    return Status::kInvalidArgument;
  }
  if (index < kNumDirect) {
    return in.direct[index];
  }
  uint32_t k = (index - kNumDirect) / kPtrsPerIndirect;
  uint32_t i = (index - kNumDirect) % kPtrsPerIndirect;
  if (k >= kNumIndirect || in.indirect[k] == 0) {
    return Status::kBadMetadata;
  }
  auto ind = backend_->GetBlock(in.indirect[k], super_);
  if (!ind.ok()) {
    return ind.status();
  }
  return GetU32(*ind, i * 4);
}

Result<BlockLoc> Ffs::BlockAt(const Inode& in, uint32_t index) {
  auto b = DataBlockAt(in, index);
  if (!b.ok()) {
    return b.status();
  }
  return BlockLoc{*b, super_};
}

Status Ffs::GrowFile(uint32_t ino, Inode* in, uint32_t new_nblocks) {
  if (new_nblocks > kNumDirect + kNumIndirect * kPtrsPerIndirect) {
    return Status::kOutOfResources;
  }
  const xn::FreeMap& free_map = backend_->free_map();
  while (in->nblocks < new_nblocks) {
    // Global rotor allocation: no locality with the owning directory. The search
    // wraps, so the rotor may run past the last block.
    auto b = free_map.FindFreeRun(rotor_, 1);
    if (!b.ok()) {
      return b.status();
    }
    rotor_ = *b + 1;
    const uint32_t idx = in->nblocks;
    std::vector<udf::Extent> ext = {{*b, 1, 0}};
    if (idx < kNumDirect) {
      Status s = backend_->Alloc(InodeBlockOf(ino), {}, ext);
      if (s != Status::kOk) {
        return s;
      }
      in->direct[idx] = *b;
    } else {
      uint32_t k = (idx - kNumDirect) / kPtrsPerIndirect;
      uint32_t i = (idx - kNumDirect) % kPtrsPerIndirect;
      if (in->indirect[k] == 0) {
        auto ib = free_map.FindFreeRun(rotor_, 1);
        if (!ib.ok()) {
          return ib.status();
        }
        rotor_ = *ib + 1;
        std::vector<udf::Extent> iext = {{*ib, 1, 1}};
        Status s = backend_->Alloc(InodeBlockOf(ino), {}, iext);
        if (s != Status::kOk) {
          return s;
        }
        s = backend_->InstallFresh(*ib, super_);
        if (s != Status::kOk) {
          return s;
        }
        in->indirect[k] = *ib;
      }
      Status s = backend_->Alloc(in->indirect[k], {}, ext);
      if (s != Status::kOk) {
        return s;
      }
      xn::Mods pm = {{i * 4,
                      {static_cast<uint8_t>(*b), static_cast<uint8_t>(*b >> 8),
                       static_cast<uint8_t>(*b >> 16), static_cast<uint8_t>(*b >> 24)}}};
      s = backend_->Modify(in->indirect[k], pm);
      if (s != Status::kOk) {
        return s;
      }
      dirty_.Mark(in->indirect[k]);
    }
    ++in->nblocks;
  }
  return WriteInode(ino, *in, /*metadata_update=*/false);
}

Status Ffs::FreeBlocks(uint32_t ino, Inode* in) {
  std::vector<udf::Extent> ext;
  for (uint32_t i = 0; i < std::min(in->nblocks, kNumDirect); ++i) {
    ext.push_back({in->direct[i], 1, 0});
  }
  for (uint32_t k = 0; k < kNumIndirect; ++k) {
    if (in->indirect[k] == 0) {
      continue;
    }
    uint32_t held = in->nblocks > kNumDirect + k * kPtrsPerIndirect
                        ? std::min(in->nblocks - kNumDirect - k * kPtrsPerIndirect,
                                   kPtrsPerIndirect)
                        : 0;
    auto ind = backend_->GetBlock(in->indirect[k], super_);
    if (!ind.ok()) {
      return ind.status();
    }
    for (uint32_t i = 0; i < held; ++i) {
      ext.push_back({GetU32(*ind, i * 4), 1, 0});
    }
    ext.push_back({in->indirect[k], 1, 1});
  }
  if (!ext.empty()) {
    Status s = backend_->Dealloc(InodeBlockOf(ino), {}, ext);
    if (s != Status::kOk) {
      return s;
    }
  }
  in->nblocks = 0;
  in->size = 0;
  std::fill(std::begin(in->direct), std::end(in->direct), 0);
  std::fill(std::begin(in->indirect), std::end(in->indirect), 0);
  return Status::kOk;
}

Result<uint32_t> Ffs::LookupIn(uint32_t dir_ino, const std::string& name, bool* is_dir) {
  auto din = ReadInode(dir_ino);
  if (!din.ok()) {
    return din.status();
  }
  if (is_dir != nullptr) {
    *is_dir = din->kind == 2;
  }
  if (din->kind != 2) {
    return Status::kNotFound;
  }
  for (uint32_t bi = 0; bi < din->nblocks; ++bi) {
    auto b = DataBlockAt(*din, bi);
    if (!b.ok()) {
      return b.status();
    }
    auto bytes = backend_->GetBlock(*b, super_);
    if (!bytes.ok()) {
      return bytes.status();
    }
    for (uint32_t e = 0; e < hw::kBlockSize / kDirEntSize; ++e) {
      std::span<const uint8_t> s = bytes->subspan(e * kDirEntSize, kDirEntSize);
      uint32_t ino = GetU32(s, 0);
      if (ino == 0) {
        continue;
      }
      uint8_t nl = s[5];
      machine_.Charge(machine_.cost().CompareCost(nl + 2));
      if (nl == name.size() && std::memcmp(s.data() + 6, name.data(), nl) == 0) {
        return ino;
      }
    }
  }
  return Status::kNotFound;
}

Result<uint32_t> Ffs::WalkToDir(const std::string& path, std::string* leaf) {
  auto parts = SplitPath(path, kNameMax);
  if (!parts.ok()) {
    return parts.status();
  }
  if (parts->empty()) {
    if (leaf != nullptr) {
      return Status::kInvalidArgument;
    }
    return kRootIno;
  }
  size_t stop = parts->size() - (leaf != nullptr ? 1 : 0);
  uint32_t cur = kRootIno;
  for (size_t i = 0; i < stop; ++i) {
    auto next = LookupIn(cur, (*parts)[i]);
    if (!next.ok()) {
      return next.status();
    }
    cur = *next;
  }
  if (leaf != nullptr) {
    *leaf = parts->back();
  }
  return cur;
}

Result<uint32_t> Ffs::ResolvePath(const std::string& path, bool* parent_is_dir) {
  std::string leaf;
  auto dir = WalkToDir(path, &leaf);
  if (!dir.ok()) {
    return dir.status();
  }
  return LookupIn(*dir, leaf, parent_is_dir);
}

Status Ffs::AddDirEnt(uint32_t dir_ino, const std::string& name, uint32_t ino, uint8_t kind) {
  auto din = ReadInode(dir_ino);
  if (!din.ok()) {
    return din.status();
  }
  // Find a free slot in existing blocks.
  for (uint32_t bi = 0; bi < din->nblocks; ++bi) {
    auto b = DataBlockAt(*din, bi);
    if (!b.ok()) {
      return b.status();
    }
    auto bytes = backend_->GetBlock(*b, super_);
    if (!bytes.ok()) {
      return bytes.status();
    }
    for (uint32_t e = 0; e < hw::kBlockSize / kDirEntSize; ++e) {
      if (GetU32(*bytes, e * kDirEntSize) != 0) {
        continue;
      }
      auto wb = backend_->GetDataWritable(*b, super_);
      if (!wb.ok()) {
        return wb.status();
      }
      uint8_t* s = wb->data() + e * kDirEntSize;
      std::memset(s, 0, kDirEntSize);
      for (int i = 0; i < 4; ++i) {
        s[i] = static_cast<uint8_t>(ino >> (8 * i));
      }
      s[4] = kind;
      s[5] = static_cast<uint8_t>(name.size());
      std::memcpy(s + 6, name.data(), name.size());
      machine_.Charge(60);
      return backend_->FlushSync({&*b, 1});  // directory data is metadata for integrity
    }
  }
  // Extend the directory by one data block and retry.
  Status s = GrowFile(dir_ino, &*din, din->nblocks + 1);
  if (s != Status::kOk) {
    return s;
  }
  auto nb = DataBlockAt(*din, din->nblocks - 1);
  if (!nb.ok()) {
    return nb.status();
  }
  Status fresh = backend_->InstallFresh(*nb, super_);
  if (fresh != Status::kOk && fresh != Status::kAlreadyExists) {
    return fresh;
  }
  din->size = din->nblocks * hw::kBlockSize;
  s = WriteInode(dir_ino, *din, /*metadata_update=*/false);
  if (s != Status::kOk) {
    return s;
  }
  return AddDirEnt(dir_ino, name, ino, kind);
}

Status Ffs::RemoveDirEnt(uint32_t dir_ino, const std::string& name) {
  auto din = ReadInode(dir_ino);
  if (!din.ok()) {
    return din.status();
  }
  for (uint32_t bi = 0; bi < din->nblocks; ++bi) {
    auto b = DataBlockAt(*din, bi);
    if (!b.ok()) {
      return b.status();
    }
    auto bytes = backend_->GetBlock(*b, super_);
    if (!bytes.ok()) {
      return bytes.status();
    }
    for (uint32_t e = 0; e < hw::kBlockSize / kDirEntSize; ++e) {
      std::span<const uint8_t> s = bytes->subspan(e * kDirEntSize, kDirEntSize);
      if (GetU32(s, 0) == 0) {
        continue;
      }
      uint8_t nl = s[5];
      if (nl == name.size() && std::memcmp(s.data() + 6, name.data(), nl) == 0) {
        auto wb = backend_->GetDataWritable(*b, super_);
        if (!wb.ok()) {
          return wb.status();
        }
        std::memset(wb->data() + e * kDirEntSize, 0, kDirEntSize);
        return backend_->FlushSync({&*b, 1});
      }
    }
  }
  return Status::kNotFound;
}

Result<uint64_t> Ffs::Open(const std::string& path, bool create, uint16_t uid) {
  bool parent_is_dir = true;
  auto ino = ResolvePath(path, &parent_is_dir);
  if (ino.ok()) {
    return static_cast<uint64_t>(*ino);
  }
  if (!create || ino.status() != Status::kNotFound || !parent_is_dir) {
    return ino.status();
  }
  std::string leaf;
  auto dir = WalkToDir(path, &leaf);
  if (!dir.ok()) {
    return dir.status();
  }
  auto nino = AllocInode(/*kind=*/1, uid);
  if (!nino.ok()) {
    return nino.status();
  }
  Status s = AddDirEnt(*dir, leaf, *nino, 1);
  if (s != Status::kOk) {
    return s;
  }
  return static_cast<uint64_t>(*nino);
}

Result<uint32_t> Ffs::Read(uint64_t h, uint64_t off, std::span<uint8_t> out) {
  auto in = ReadInode(static_cast<uint32_t>(h));
  if (!in.ok()) {
    return in.status();
  }
  if (in->kind != 1) {
    return Status::kInvalidArgument;
  }
  return ReadFileData(*backend_, in->size, off, out,
                      [&](uint32_t idx) { return BlockAt(*in, idx); });
}

Result<uint32_t> Ffs::Write(uint64_t h, uint64_t off, std::span<const uint8_t> data,
                            uint16_t uid) {
  uint32_t ino = static_cast<uint32_t>(h);
  auto in = ReadInode(ino);
  if (!in.ok()) {
    return in.status();
  }
  if (in->kind != 1) {
    return Status::kInvalidArgument;
  }
  if (uid != 0 && in->uid != uid) {
    return Status::kPermissionDenied;
  }
  const uint64_t end = off + data.size();
  const uint32_t need = static_cast<uint32_t>((end + hw::kBlockSize - 1) / hw::kBlockSize);
  if (need > in->nblocks) {
    Status s = GrowFile(ino, &*in, need);
    if (s != Status::kOk) {
      return s;
    }
  }
  Status s = WriteFileData(*backend_, dirty_, in->size, off, data,
                           [&](uint32_t idx) { return BlockAt(*in, idx); });
  if (s != Status::kOk) {
    return s;
  }
  if (end > in->size) {
    in->size = static_cast<uint32_t>(end);
  }
  in->mtime = Mtime(machine_);
  s = WriteInode(ino, *in, /*metadata_update=*/false);
  if (s != Status::kOk) {
    return s;
  }
  return static_cast<uint32_t>(data.size());
}

Result<FileStat> Ffs::StatHandle(uint64_t h) {
  auto in = ReadInode(static_cast<uint32_t>(h));
  if (!in.ok()) {
    return in.status();
  }
  FileStat st;
  st.size = in->size;
  st.is_dir = in->kind == 2;
  st.mtime = in->mtime;
  st.uid = in->uid;
  st.nblocks = in->nblocks;
  return st;
}

Result<FileStat> Ffs::StatPath(const std::string& path) {
  if (path == "/") {
    FileStat st;
    st.is_dir = true;
    return st;
  }
  auto ino = ResolvePath(path);
  if (!ino.ok()) {
    return ino.status();
  }
  return StatHandle(*ino);
}

Status Ffs::Mkdir(const std::string& path, uint16_t uid) {
  std::string leaf;
  auto dir = WalkToDir(path, &leaf);
  if (!dir.ok()) {
    return dir.status();
  }
  bool is_dir = true;
  if (LookupIn(*dir, leaf, &is_dir).ok()) {
    return Status::kAlreadyExists;
  }
  if (!is_dir) {
    return Status::kNotFound;
  }
  auto nino = AllocInode(/*kind=*/2, uid);
  if (!nino.ok()) {
    return nino.status();
  }
  return AddDirEnt(*dir, leaf, *nino, 2);
}

Status Ffs::Unlink(const std::string& path, uint16_t uid) {
  std::string leaf;
  auto dir = WalkToDir(path, &leaf);
  if (!dir.ok()) {
    return dir.status();
  }
  auto ino = LookupIn(*dir, leaf);
  if (!ino.ok()) {
    return ino.status();
  }
  auto in = ReadInode(*ino);
  if (!in.ok()) {
    return in.status();
  }
  if (uid != 0 && in->uid != uid) {
    return Status::kPermissionDenied;
  }
  if (in->kind == 2) {
    auto entries = ReadDir(path);
    if (!entries.ok()) {
      return entries.status();
    }
    if (!entries->empty()) {
      return Status::kBusy;
    }
  }
  Status s = FreeBlocks(*ino, &*in);
  if (s != Status::kOk) {
    return s;
  }
  in->kind = 0;
  s = WriteInode(*ino, *in, /*metadata_update=*/true);
  if (s != Status::kOk) {
    return s;
  }
  return RemoveDirEnt(*dir, leaf);
}

Status Ffs::Rename(const std::string& from, const std::string& to, uint16_t uid) {
  std::string from_leaf;
  auto from_dir = WalkToDir(from, &from_leaf);
  if (!from_dir.ok()) {
    return from_dir.status();
  }
  auto ino = LookupIn(*from_dir, from_leaf);
  if (!ino.ok()) {
    return ino.status();
  }
  auto in = ReadInode(*ino);
  if (!in.ok()) {
    return in.status();
  }
  if (uid != 0 && in->uid != uid) {
    return Status::kPermissionDenied;
  }
  std::string to_leaf;
  auto to_dir = WalkToDir(to, &to_leaf);
  if (!to_dir.ok()) {
    return to_dir.status();
  }
  bool is_dir = true;
  if (LookupIn(*to_dir, to_leaf, &is_dir).ok()) {
    return Status::kAlreadyExists;
  }
  if (!is_dir) {
    return Status::kNotFound;
  }
  // Rule 3 of ordered updates: set the new pointer before clearing the old one.
  Status s = AddDirEnt(*to_dir, to_leaf, *ino, in->kind);
  if (s != Status::kOk) {
    return s;
  }
  return RemoveDirEnt(*from_dir, from_leaf);
}

Result<std::vector<DirEnt>> Ffs::ReadDir(const std::string& path) {
  auto dino = path == "/" ? Result<uint32_t>(kRootIno) : ResolvePath(path);
  if (!dino.ok()) {
    return dino.status();
  }
  auto din = ReadInode(*dino);
  if (!din.ok()) {
    return din.status();
  }
  if (din->kind != 2) {
    return Status::kInvalidArgument;
  }
  std::vector<DirEnt> out;
  for (uint32_t bi = 0; bi < din->nblocks; ++bi) {
    auto b = DataBlockAt(*din, bi);
    if (!b.ok()) {
      return b.status();
    }
    auto bytes = backend_->GetBlock(*b, super_);
    if (!bytes.ok()) {
      return bytes.status();
    }
    for (uint32_t e = 0; e < hw::kBlockSize / kDirEntSize; ++e) {
      std::span<const uint8_t> s = bytes->subspan(e * kDirEntSize, kDirEntSize);
      uint32_t ino = GetU32(s, 0);
      if (ino == 0) {
        continue;
      }
      DirEnt de;
      de.is_dir = s[4] == 2;
      de.name.assign(reinterpret_cast<const char*>(s.data() + 6), s[5]);
      auto fin = ReadInode(ino);
      de.size = fin.ok() ? fin->size : 0;
      out.push_back(std::move(de));
      machine_.Charge(40);
    }
  }
  return out;
}

Status Ffs::Sync() { return dirty_.Sync(); }

}  // namespace exo::fs
