// What C-FFS, FFS and their two backends share: private to src/fs, included only
// by its .cc files.
#ifndef EXO_FS_FS_INTERNAL_H_
#define EXO_FS_FS_INTERNAL_H_

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "hw/machine.h"
#include "sim/status.h"

namespace exo::fs {

// Transient I/O errors (injected or real) are retried kIoRetries times before
// they surface, each retry after a backoff of 100 us << attempt charged as CPU.
constexpr int kIoRetries = 4;
inline void ChargeIoBackoff(hw::Machine& machine, int attempt) {
  machine.Charge(static_cast<sim::Cycles>(100u << attempt) * machine.cost().cpu_mhz);
}

// Dirty blocks a file system holds before it writes behind: C-FFS counts its data
// blocks, FFS every dirty block.
constexpr uint32_t kWritebackThreshold = 1024;

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

}  // namespace exo::fs

#endif  // EXO_FS_FS_INTERNAL_H_
