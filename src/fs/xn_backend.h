// XnBackend: FsBackend over XN — the exokernel (libFS) protection regime.
//
// Cache pages are application-owned physical frames registered in the XN buffer-cache
// registry; metadata mutations go through XN's UDF-verified Alloc/Dealloc/Modify;
// write ordering is enforced by XN's taint tracking (FlushSync retries deferred
// parents after their children land, which is the libFS's half of the ordered-writes
// contract described in Sec. 4.3.2).
#ifndef EXO_FS_XN_BACKEND_H_
#define EXO_FS_XN_BACKEND_H_

#include <functional>
#include <vector>

#include "fs/backend.h"
#include "xn/xn.h"

namespace exo::fs {

class XnBackend : public FsBackend {
 public:
  // `frame_alloc` supplies application frames for cache pages (via kernel syscalls in
  // ExOS, straight from PhysMem in tests); returns kInvalidFrame when memory is
  // exhausted, in which case the backend recycles the LRU clean buffer.
  XnBackend(xn::Xn* xn, xn::Caps creds, Blocker blocker,
            std::function<hw::FrameId()> frame_alloc);

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

  const xn::FreeMap& free_map() const override { return xn_->free_map(); }

  Result<hw::BlockId> CreateRoot(const std::string& name, uint32_t tmpl) override;
  Result<hw::BlockId> OpenRoot(const std::string& name) override;
  Result<uint32_t> RegisterTemplate(const xn::Template& t) override;

  bool IsCached(hw::BlockId block) const override {
    const xn::RegistryEntry* e = xn_->registry().Lookup(block);
    return e != nullptr && e->state == xn::BufState::kResident;
  }
  hw::Machine& machine() override { return xn_->machine(); }

 private:
  Result<hw::FrameId> TakeFrame();
  Status EnsureCached(hw::BlockId block, hw::BlockId parent);
  // Blocks until an in-transit registry entry settles (background flush completion).
  void WaitResident(hw::BlockId block);
  // Loads root `name` (at `block`) into the registry: waits out another process's
  // read of it and retries transient I/O errors.
  Status LoadRoot(const std::string& name, hw::BlockId block);

  xn::Xn* xn_;
  xn::Caps creds_;
  Blocker blocker_;
  std::function<hw::FrameId()> frame_alloc_;
};

}  // namespace exo::fs

#endif  // EXO_FS_XN_BACKEND_H_
