// FileSys: the uniform path-based file-system interface the OS layers mount.
//
// Both C-FFS (exokernel-style, embedded inodes, co-locating, async ordered metadata)
// and FFS (classic layout, synchronous metadata) implement this, so the UNIX
// personality (ExOS or the BSD kernel) is file-system-agnostic — exactly the
// configurations Figure 2 compares.
#ifndef EXO_FS_FS_API_H_
#define EXO_FS_FS_API_H_

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "fs/backend.h"

namespace exo::fs {

struct FileStat {
  uint64_t size = 0;
  bool is_dir = false;
  uint32_t mtime = 0;
  uint16_t uid = 0;
  uint32_t nblocks = 0;
};

struct DirEnt {
  std::string name;
  bool is_dir = false;
  uint32_t size = 0;
};

class FileSys {
 public:
  virtual ~FileSys() = default;

  // Opens (optionally creating) a file; returns an opaque handle.
  [[nodiscard]] virtual Result<uint64_t> Open(const std::string& path, bool create, uint16_t uid) = 0;
  [[nodiscard]] virtual Result<uint32_t> Read(uint64_t h, uint64_t off, std::span<uint8_t> out) = 0;
  [[nodiscard]] virtual Result<uint32_t> Write(uint64_t h, uint64_t off, std::span<const uint8_t> data,
                                 uint16_t uid) = 0;
  [[nodiscard]] virtual Result<FileStat> StatHandle(uint64_t h) = 0;
  [[nodiscard]] virtual Result<FileStat> StatPath(const std::string& path) = 0;
  [[nodiscard]] virtual Status Mkdir(const std::string& path, uint16_t uid) = 0;
  [[nodiscard]] virtual Status Unlink(const std::string& path, uint16_t uid) = 0;
  [[nodiscard]] virtual Status Rename(const std::string& from, const std::string& to, uint16_t uid) = 0;
  [[nodiscard]] virtual Result<std::vector<DirEnt>> ReadDir(const std::string& path) = 0;
  [[nodiscard]] virtual Status Sync() = 0;

  virtual FsBackend& backend() = 0;
};

}  // namespace exo::fs

#endif  // EXO_FS_FS_API_H_
