// C-FFS: the co-locating fast file system (Sec. 4.5, after Ganger & Kaashoek [15]).
//
// Design points reproduced from the paper:
//   - Embedded inodes: file metadata lives inside directory blocks, so a lookup that
//     has read the directory has already read the inode — no separate inode I/O.
//   - Co-location: a file's data blocks are allocated adjacent to its directory
//     block, and subdirectories near their parents, so tree walks are short seeks.
//   - Asynchronous, ordered metadata updates: creates and deletes dirty metadata in
//     the cache; XN's taint rules (or this module's flush ordering on a kernel
//     backend) keep the on-disk image recoverable. No synchronous metadata writes —
//     the main performance edge over FFS on small-file workloads.
//   - UNIX semantics guaranteed above XN: name uniqueness within a directory, legal
//     aligned names, implicit mtime updates (Sec. 4.5's four additions).
//
// On-disk format (all blocks 4 KB):
//   Directory block = 32 slots of 128 bytes. Slot 0 is a header (kind 3) holding the
//   fsid; in the root block the header also acts as an entry whose pointers are the
//   root directory's continuation blocks. Slots 1..31 are entries:
//     off 0  u8  kind (0 free, 1 file, 2 dir, 3 header)
//     off 1  u8  name_len        off 2  u16 uid
//     off 4  u32 size            off 8  u32 mtime       off 12 u32 nblocks
//     off 16 name[64]
//     off 80 u32 direct[8]       off 112 u32 indirect[3] (0 = none)
//   Indirect block: u16 count, u16 fsid, then u32 pointers (max 1023).
//   Max file size: (8 + 3*1023) blocks = ~12.6 MB.
//
// The format is described to XN by three templates whose owns-udfs are written in
// the UDF assembly language (see cffs.cc); the identical code runs unverified on a
// KernelBackend, which is exactly the "C-FFS ported into OpenBSD" configuration.
#ifndef EXO_FS_CFFS_H_
#define EXO_FS_CFFS_H_

#include <map>
#include <string>
#include <vector>

#include "fs/dirty_set.h"
#include "fs/fs_api.h"

namespace exo::fs {

struct CffsOptions {
  uint16_t fsid = 1;
  std::string root_name = "cffs";
};

// A C-FFS handle names a file's embedded inode: (directory block << 8) | slot.
class Cffs : public FileSys {
 public:
  Cffs(FsBackend* backend, const CffsOptions& options = {});

  // Creates a fresh file system (installs templates, creates the root directory).
  Status Mkfs();
  // Attaches to an existing one.
  Status Mount();

  Result<uint64_t> Open(const std::string& path, bool create, uint16_t uid) override;
  Result<uint32_t> Read(uint64_t h, uint64_t off, std::span<uint8_t> out) override;
  Result<uint32_t> Write(uint64_t h, uint64_t off, std::span<const uint8_t> data,
                         uint16_t uid) override;
  Result<FileStat> StatHandle(uint64_t h) override;
  Result<FileStat> StatPath(const std::string& path) override;
  Status Mkdir(const std::string& path, uint16_t uid) override;
  Status Unlink(const std::string& path, uint16_t uid) override;
  Status Rename(const std::string& from, const std::string& to, uint16_t uid) override;
  Result<std::vector<DirEnt>> ReadDir(const std::string& path) override;
  // Flushes all dirty blocks in dependency order and waits.
  Status Sync() override;

  FsBackend& backend() override { return *backend_; }

  // Exclusive file create: kAlreadyExists if the name is taken (Sec. 4.5's
  // uniqueness).
  Result<uint64_t> Create(const std::string& path, uint16_t uid);

  // ---- Low-level interfaces for specialized applications (XCP, Cheetah) ----

  // The file's data block addresses in order (reads indirect blocks as needed).
  Result<std::vector<hw::BlockId>> FileBlocks(uint64_t h);
  // Creates a file with `size` bytes of preallocated blocks placed at/after `hint`
  // (XCP overlaps allocation with reads, Sec. 7.2).
  Result<uint64_t> CreateSized(const std::string& path, uint16_t uid, uint64_t size,
                               hw::BlockId hint);
  // A file block and the metadata block that owns it (the directory block for the
  // first eight), for zero-copy paths that call the backend directly.
  Result<std::pair<hw::BlockId, hw::BlockId>> BlockAt(uint64_t h, uint32_t index);

  hw::BlockId root_block() const { return root_block_; }
  uint32_t dirty_count() const { return dirty_.size(); }

  static constexpr uint32_t kSlotSize = 128;
  static constexpr uint32_t kSlotsPerBlock = hw::kBlockSize / kSlotSize;
  static constexpr uint32_t kNameMax = 64;
  static constexpr uint32_t kNumDirect = 8;
  static constexpr uint32_t kNumIndirect = 3;
  static constexpr uint32_t kPtrsPerIndirect = (hw::kBlockSize - 4) / 4;  // 1023

 private:
  // Location of a directory entry: the embedded inode.
  struct Handle {
    hw::BlockId dir_block = hw::kInvalidBlock;
    uint8_t slot = 0;
    bool operator==(const Handle&) const = default;
  };

  struct Entry {  // decoded slot
    uint8_t kind = 0;
    uint16_t uid = 0;
    uint32_t size = 0;
    uint32_t mtime = 0;
    uint32_t nblocks = 0;
    std::string name;
    uint32_t direct[kNumDirect] = {};
    uint32_t indirect[kNumIndirect] = {};
  };

  // A directory is either the root (block list from the root header) or an entry.
  struct DirRef {
    bool is_root = false;
    Handle entry;
  };

  static uint64_t Pack(const Handle& h);
  static Handle Unpack(uint64_t h);
  // An `fs` instant on this file system's track, when the tracer records them.
  void TraceFs(const char* name, uint64_t arg);

  Status InstallTemplates();
  Result<Entry> ReadEntry(const Handle& h);
  Result<Entry> ReadSlot(hw::BlockId block, uint8_t slot);

  // Fetches a metadata block, re-reading it through its parent chain if it was
  // recycled from the cache. XN requires parents to be resident before children can
  // be read-and-inserted, so the libFS remembers each block's parent (an in-memory
  // index, as real libFSes keep).
  Result<std::span<const uint8_t>> GetMeta(hw::BlockId block);
  void RememberParent(hw::BlockId block, hw::BlockId parent) {
    parent_hint_[block] = parent;
  }

  Result<Handle> Lookup(const std::string& path);
  Result<Handle> CreateEntry(const std::string& path, uint16_t uid, bool is_dir);
  Result<DirRef> WalkToDir(const std::string& path, std::string* leaf);
  Result<std::vector<hw::BlockId>> DirBlocks(const DirRef& d);
  Result<Handle> FindInDir(const DirRef& d, const std::string& name);
  Result<Handle> AddEntry(const DirRef& d, const Entry& e);
  Status ExtendDirectory(const DirRef& d, const std::vector<hw::BlockId>& existing);

  // Grows the file to cover `new_nblocks` data blocks, allocating near `hint`.
  Status GrowFile(const Handle& h, Entry* e, uint32_t new_nblocks, hw::BlockId hint);
  Status FreeFileBlocks(const Handle& h, const Entry& e);
  Result<std::pair<hw::BlockId, hw::BlockId>> DataBlockAt(const Handle& h, const Entry& e,
                                                          uint32_t index);

  FsBackend* backend_;
  hw::Machine& machine_;
  CffsOptions options_;
  uint32_t trace_track_ = 0;
  hw::BlockId root_block_ = hw::kInvalidBlock;
  uint32_t dir_tmpl_ = 0;
  uint32_t ind_file_tmpl_ = 0;
  uint32_t ind_dir_tmpl_ = 0;
  DirtySet dirty_;  // data marked for write-behind, metadata held for Sync
  std::map<hw::BlockId, hw::BlockId> parent_hint_;
};

}  // namespace exo::fs

#endif  // EXO_FS_CFFS_H_
