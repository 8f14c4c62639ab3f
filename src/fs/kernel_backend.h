// KernelBackend: FsBackend inside a monolithic kernel (the FreeBSD/OpenBSD regime).
//
// The kernel trusts its file systems: metadata modifications are applied directly
// with no UDF verification and no taint tracking (integrity comes from the file
// system's own synchronous-write discipline, as in real FFS). The kernel owns the
// buffer cache and its eviction policy; applications have no say. The cache size
// policy selects the baseline flavor:
//   - FreeBSD 2.2.2: unified buffer cache — may grow to most of free memory.
//   - OpenBSD 2.1: small, fixed-size, non-unified buffer cache (the paper calls this
//     out as the reason FreeBSD beats OpenBSD under load, Sec. 8).
#ifndef EXO_FS_KERNEL_BACKEND_H_
#define EXO_FS_KERNEL_BACKEND_H_

#include <map>
#include <string>
#include <vector>

#include "fs/backend.h"
#include "hw/machine.h"

namespace exo::fs {

struct KernelBackendOptions {
  // Maximum cache size in blocks. 0 means unified: bounded only by free frames.
  uint32_t max_cache_blocks = 0;
};

class KernelBackend : public FsBackend {
 public:
  KernelBackend(hw::Machine* machine, hw::Disk* disk, Blocker blocker,
                const KernelBackendOptions& options = {});
  ~KernelBackend() override;

  Status Alloc(hw::BlockId meta, const xn::Mods& mods,
               std::span<const udf::Extent> to_alloc) override;
  Status Dealloc(hw::BlockId meta, const xn::Mods& mods,
                 std::span<const udf::Extent> to_free) override;
  Status Modify(hw::BlockId meta, const xn::Mods& mods) override;

  Result<std::span<const uint8_t>> GetBlock(hw::BlockId block, hw::BlockId parent) override;
  Result<std::span<uint8_t>> GetDataWritable(hw::BlockId block, hw::BlockId parent) override;
  Status InstallFresh(hw::BlockId block, hw::BlockId parent) override;

  Status FlushAsync(std::span<const hw::BlockId> blocks,
                    std::vector<hw::BlockId>* deferred) override;
  Status FlushSync(std::span<const hw::BlockId> blocks) override;
  bool IsClean(hw::BlockId block) const override;

  const xn::FreeMap& free_map() const override { return free_map_; }

  Result<hw::BlockId> CreateRoot(const std::string& name, uint32_t tmpl) override;
  Result<hw::BlockId> OpenRoot(const std::string& name) override;
  Result<uint32_t> RegisterTemplate(const xn::Template& t) override;

  bool IsCached(hw::BlockId block) const override {
    auto it = cache_.find(block);
    return it != cache_.end() && !it->second.in_transit;
  }
  hw::Machine& machine() override { return *machine_; }

  uint32_t cached_blocks() const { return static_cast<uint32_t>(cache_.size()); }

 private:
  struct Entry {
    hw::FrameId frame = hw::kInvalidFrame;
    bool dirty = false;
    bool in_transit = false;     // read outstanding: frame not yet valid
    bool write_transit = false;  // write-back outstanding: frame valid and readable
    uint64_t lru = 0;
  };

  Status EnsureCached(hw::BlockId block, bool read_from_disk);
  // Reads or writes one block through `frame` and waits, retrying transient errors;
  // returns the last attempt's status.
  Status Transfer(bool write, hw::BlockId block, hw::FrameId frame);
  // Evicts entries until there is room for one more block, writing back dirty
  // victims synchronously (the kernel decides; the application just waits).
  Status MakeRoom();

  hw::Machine* machine_;
  hw::Disk* disk_;
  Blocker blocker_;
  KernelBackendOptions options_;

  std::map<hw::BlockId, Entry> cache_;
  uint64_t lru_clock_ = 0;
  xn::FreeMap free_map_;
  std::map<std::string, hw::BlockId> roots_;
  uint32_t next_template_ = 1;
};

}  // namespace exo::fs

#endif  // EXO_FS_KERNEL_BACKEND_H_
