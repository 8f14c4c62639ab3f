// FFS: the classic 4.4BSD fast file system, the baseline C-FFS improves on.
//
// Three properties distinguish it from C-FFS (and drive Figure 2's differences):
//   1. Inodes live in a dedicated inode zone at the front of the disk; opening a
//      file costs a directory-data read *plus* an inode-block read, and they are
//      far apart (long seeks).
//   2. Metadata updates (create, delete) are written SYNCHRONOUSLY to preserve
//      integrity across crashes — the well-known FFS small-file penalty.
//   3. Allocation uses a global rotor with no directory co-location.
//
// On-disk format:
//   Inode zone: kInodeBlocks blocks of 32 inodes x 128 bytes; inode = {u8 kind,
//   u16 uid, u32 size, u32 mtime, u32 nblocks, u32 direct[8], u32 indirect[3]}.
//   Directory content is ordinary file data: 64-byte entries {u32 ino, u8 kind,
//   u8 name_len, char name[58]}.
//
// FFS only ever runs inside the monolithic kernels here (the paper never runs it on
// Xok), so it is written for a KernelBackend: no XN templates are registered.
#ifndef EXO_FS_FFS_H_
#define EXO_FS_FFS_H_

#include <string>
#include <utility>
#include <vector>

#include "fs/dirty_set.h"
#include "fs/fs_api.h"

namespace exo::fs {

class Ffs : public FileSys {
 public:
  explicit Ffs(FsBackend* backend);

  Status Mkfs();

  Result<uint64_t> Open(const std::string& path, bool create, uint16_t uid) override;
  Result<uint32_t> Read(uint64_t ino, uint64_t off, std::span<uint8_t> out) override;
  Result<uint32_t> Write(uint64_t ino, uint64_t off, std::span<const uint8_t> data,
                         uint16_t uid) override;
  Result<FileStat> StatHandle(uint64_t ino) override;
  Result<FileStat> StatPath(const std::string& path) override;
  Status Mkdir(const std::string& path, uint16_t uid) override;
  Status Unlink(const std::string& path, uint16_t uid) override;
  Status Rename(const std::string& from, const std::string& to, uint16_t uid) override;
  Result<std::vector<DirEnt>> ReadDir(const std::string& path) override;
  Status Sync() override;

  FsBackend& backend() override { return *backend_; }

  static constexpr uint32_t kInodeBlocks = 128;  // 4096 inodes
  static constexpr uint32_t kInodesPerBlock = 32;
  static constexpr uint32_t kNumDirect = 8;
  static constexpr uint32_t kNumIndirect = 3;
  static constexpr uint32_t kPtrsPerIndirect = hw::kBlockSize / 4;
  static constexpr uint32_t kDirEntSize = 64;
  static constexpr uint32_t kNameMax = 58;
  static constexpr uint32_t kRootIno = 1;

 private:
  struct Inode {
    uint8_t kind = 0;  // 0 free, 1 file, 2 dir
    uint16_t uid = 0;
    uint32_t size = 0;
    uint32_t mtime = 0;
    uint32_t nblocks = 0;
    uint32_t direct[kNumDirect] = {};
    uint32_t indirect[kNumIndirect] = {};
  };

  hw::BlockId InodeBlockOf(uint32_t ino) const {
    return inode_zone_ + ino / kInodesPerBlock;
  }
  Result<Inode> ReadInode(uint32_t ino);
  Status WriteInode(uint32_t ino, const Inode& in, bool metadata_update);
  Result<uint32_t> AllocInode(uint8_t kind, uint16_t uid);

  Result<hw::BlockId> DataBlockAt(const Inode& in, uint32_t index);
  // The block and its owner, the superblock: the locator of the data loops.
  Result<std::pair<hw::BlockId, hw::BlockId>> BlockAt(const Inode& in, uint32_t index);
  Status GrowFile(uint32_t ino, Inode* in, uint32_t new_nblocks);
  Status FreeBlocks(uint32_t ino, Inode* in);

  // kNotFound when `name` is absent or `dir_ino` is not a directory; `is_dir`,
  // when given, tells the two apart.
  Result<uint32_t> LookupIn(uint32_t dir_ino, const std::string& name,
                            bool* is_dir = nullptr);
  Result<uint32_t> WalkToDir(const std::string& path, std::string* leaf);
  Status AddDirEnt(uint32_t dir_ino, const std::string& name, uint32_t ino, uint8_t kind);
  Status RemoveDirEnt(uint32_t dir_ino, const std::string& name);
  Result<uint32_t> ResolvePath(const std::string& path, bool* parent_is_dir = nullptr);

  FsBackend* backend_;
  hw::Machine& machine_;
  hw::BlockId super_ = hw::kInvalidBlock;
  hw::BlockId inode_zone_ = hw::kInvalidBlock;
  hw::BlockId rotor_ = 0;  // global allocation cursor
  uint32_t ino_rotor_ = 2;  // inode allocation cursor
  DirtySet dirty_;  // every block eligible for write-behind
};

}  // namespace exo::fs

#endif  // EXO_FS_FFS_H_
