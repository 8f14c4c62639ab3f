// What C-FFS, FFS and their two backends share: private to src/fs, included only
// by its .cc files. The file-data read and write loops live here, once, over each
// file system's block locator.
#ifndef EXO_FS_FS_INTERNAL_H_
#define EXO_FS_FS_INTERNAL_H_

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "fs/backend.h"
#include "fs/dirty_set.h"
#include "hw/machine.h"
#include "sim/status.h"

namespace exo::fs {

// Transient I/O errors (injected or real) are retried kIoRetries times before
// they surface, each retry after a backoff of 100 us << attempt charged as CPU.
constexpr int kIoRetries = 4;
inline void ChargeIoBackoff(hw::Machine& machine, int attempt) {
  machine.Charge(static_cast<sim::Cycles>(100u << attempt) * machine.cost().cpu_mhz);
}

// Little-endian fields of the on-disk formats.
inline uint16_t GetU16(std::span<const uint8_t> b, uint32_t off) {
  return static_cast<uint16_t>(b[off] | (b[off + 1] << 8));
}
inline uint32_t GetU32(std::span<const uint8_t> b, uint32_t off) {
  return static_cast<uint32_t>(b[off]) | (static_cast<uint32_t>(b[off + 1]) << 8) |
         (static_cast<uint32_t>(b[off + 2]) << 16) | (static_cast<uint32_t>(b[off + 3]) << 24);
}

// Splits "/a/b/c" into components; rejects relative paths and components longer
// than `name_max`.
inline Result<std::vector<std::string>> SplitPath(const std::string& path, size_t name_max) {
  if (path.empty() || path[0] != '/') {
    return Status::kInvalidArgument;
  }
  std::vector<std::string> parts;
  std::string cur;
  for (size_t i = 1; i <= path.size(); ++i) {
    if (i == path.size() || path[i] == '/') {
      if (!cur.empty()) {
        if (cur.size() > name_max) {
          return Status::kInvalidArgument;
        }
        parts.push_back(cur);
        cur.clear();
      }
    } else {
      cur.push_back(path[i]);
    }
  }
  return parts;
}

// A file's modification time: whole simulated seconds on the machine's clock.
inline uint32_t Mtime(hw::Machine& machine) {
  return static_cast<uint32_t>(machine.cost().ToSeconds(machine.engine().now()));
}

// A file's data block and the metadata block that owns it, as each file system's
// block locator returns them for the data loops below: `locate(index)` yields a
// Result<BlockLoc> for the file's index-th block.
using BlockLoc = std::pair<hw::BlockId, hw::BlockId>;

// The file-data read loop: copies the file's bytes from `off` into `out`,
// stopping at the file's `size`; returns the bytes copied.
template <typename Locate>
Result<uint32_t> ReadFileData(FsBackend& backend, uint64_t size, uint64_t off,
                              std::span<uint8_t> out, Locate&& locate) {
  if (off >= size) {
    return 0u;
  }
  hw::Machine& machine = backend.machine();
  const size_t want = static_cast<size_t>(std::min<uint64_t>(size - off, out.size()));
  size_t done = 0;
  while (done < want) {
    const uint64_t pos = off + done;
    const uint32_t boff = static_cast<uint32_t>(pos % hw::kBlockSize);
    const uint32_t chunk =
        static_cast<uint32_t>(std::min<uint64_t>(want - done, hw::kBlockSize - boff));
    Result<BlockLoc> loc = locate(static_cast<uint32_t>(pos / hw::kBlockSize));
    if (!loc.ok()) {
      return loc.status();
    }
    auto bytes = backend.GetBlock(loc->first, loc->second);
    if (!bytes.ok()) {
      return bytes.status();
    }
    std::memcpy(out.data() + done, bytes->data() + boff, chunk);
    machine.Charge(machine.cost().CopyCost(chunk));
    done += chunk;
  }
  return static_cast<uint32_t>(done);
}

// The file-data write loop: copies `data` into the file's blocks from `off` and
// marks each block dirty and eligible for write-behind. The blocks are already
// allocated; `old_size` is the file's size before this write.
template <typename Locate>
Status WriteFileData(FsBackend& backend, DirtySet& dirty, uint64_t old_size, uint64_t off,
                     std::span<const uint8_t> data, Locate&& locate) {
  hw::Machine& machine = backend.machine();
  size_t done = 0;
  while (done < data.size()) {
    const uint64_t pos = off + done;
    const uint32_t boff = static_cast<uint32_t>(pos % hw::kBlockSize);
    const uint32_t chunk =
        static_cast<uint32_t>(std::min<uint64_t>(data.size() - done, hw::kBlockSize - boff));
    Result<BlockLoc> loc = locate(static_cast<uint32_t>(pos / hw::kBlockSize));
    if (!loc.ok()) {
      return loc.status();
    }
    // Skip reading the old block when none of its bytes survive: the write covers
    // all of it, or the block starts at or past the old EOF. A cached block is
    // written in place either way.
    const bool whole = chunk == hw::kBlockSize;
    const bool past_eof = pos - boff >= old_size;
    if ((whole || past_eof) && !backend.IsCached(loc->first)) {
      Status s = backend.InstallFresh(loc->first, loc->second);
      if (s != Status::kOk && s != Status::kAlreadyExists) {
        return s;
      }
    }
    auto buf = backend.GetDataWritable(loc->first, loc->second);
    if (!buf.ok()) {
      return buf.status();
    }
    std::memcpy(buf->data() + boff, data.data() + done, chunk);
    machine.Charge(machine.cost().CopyCost(chunk));
    dirty.Mark(loc->first);
    done += chunk;
  }
  return Status::kOk;
}

}  // namespace exo::fs

#endif  // EXO_FS_FS_INTERNAL_H_
