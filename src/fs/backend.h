// FsBackend: the storage substrate interface file systems are written against.
//
// The same C-FFS (and FFS) code runs in two protection regimes, exactly as in the
// paper, where C-FFS existed both as a libFS over XN and ported inside OpenBSD
// (Sec. 6):
//   - XnBackend (xn_backend.h): every metadata mutation is a guarded XN operation
//     verified by UDFs; cache pages are application-owned frames in the buffer-cache
//     registry; ordering rules are enforced by XN's taint tracking.
//   - KernelBackend (kernel_backend.h): the monolithic-kernel regime; the kernel
//     trusts the file system, keeps its own buffer cache (unified or fixed-size,
//     selecting the FreeBSD/OpenBSD flavor), and applies modifications directly.
//
// All calls are synchronous from the caller's point of view; backends block the
// calling (simulated) process through a Blocker until device I/O completes.
#ifndef EXO_FS_BACKEND_H_
#define EXO_FS_BACKEND_H_

#include <cstdint>
#include <functional>
#include <span>
#include <string>
#include <vector>

#include "hw/machine.h"
#include "sim/status.h"
#include "udf/insn.h"
#include "xn/free_map.h"
#include "xn/types.h"

namespace exo::fs {

// How a file system waits for a condition (disk completion) while letting the rest
// of the simulated system run. ExOS blocks via kernel wakeup predicates; the BSD
// kernel blocks via its own sleep queue; unit tests spin the event engine.
using Blocker = std::function<void(const std::function<bool()>& ready)>;

// The blocker for code outside any simulated process (boot, tests, examples): runs
// the engine's events, or advances its idle clock, until `ready` holds.
inline Blocker SpinEngine(sim::Engine& engine) {
  return [&engine](const std::function<bool()>& ready) {
    int spins = 0;
    while (!ready()) {
      if (engine.HasPendingEvents()) {
        engine.RunNextEvent();
      } else {
        engine.Advance(20'000);
      }
      EXO_CHECK_LT(++spins, 2'000'000);
    }
  };
}

class FsBackend {
 public:
  virtual ~FsBackend() = default;

  // ---- Guarded metadata operations (mirror the XN protocol) ----

  // Applies `mods` to metadata block `meta`, claiming ownership of `to_alloc`.
  virtual Status Alloc(hw::BlockId meta, const xn::Mods& mods,
                       std::span<const udf::Extent> to_alloc) = 0;
  // Applies `mods`, releasing ownership of `to_free`.
  virtual Status Dealloc(hw::BlockId meta, const xn::Mods& mods,
                         std::span<const udf::Extent> to_free) = 0;
  // Ownership-preserving metadata update.
  virtual Status Modify(hw::BlockId meta, const xn::Mods& mods) = 0;

  // ---- Cache access ----

  // Ensures `block` (owned by metadata block `parent`) is cached; returns a read-only
  // view of its bytes valid until the next backend call. Blocks on disk I/O.
  virtual Result<std::span<const uint8_t>> GetBlock(hw::BlockId block, hw::BlockId parent) = 0;

  // Writable view of a cached DATA block (metadata must go through Alloc/Modify).
  // Marks the block dirty.
  virtual Result<std::span<uint8_t>> GetDataWritable(hw::BlockId block, hw::BlockId parent) = 0;

  // Installs a fresh zeroed cache page for a just-allocated block without reading
  // the stale disk contents.
  virtual Status InstallFresh(hw::BlockId block, hw::BlockId parent) = 0;

  // ---- Durability ----

  // Asynchronously writes dirty blocks; returns without waiting. Blocks whose
  // ordering constraints are unmet (XN taint) are skipped and reported in
  // `deferred` if non-null.
  virtual Status FlushAsync(std::span<const hw::BlockId> blocks,
                            std::vector<hw::BlockId>* deferred) = 0;
  // Writes dirty blocks and waits for completion, retrying ordering-deferred blocks
  // after their children land (bottom-up flush driver).
  virtual Status FlushSync(std::span<const hw::BlockId> blocks) = 0;
  // True when the block has reached the platter (not dirty, not in transit).
  virtual bool IsClean(hw::BlockId block) const = 0;

  // ---- Allocation placement ----

  // The exposed free map: file systems pick where to allocate by searching it,
  // then claim blocks through Alloc.
  virtual const xn::FreeMap& free_map() const = 0;

  // ---- Setup ----

  // Registers/loads a named root of the given format; returns its block.
  virtual Result<hw::BlockId> CreateRoot(const std::string& name, uint32_t tmpl) = 0;
  virtual Result<hw::BlockId> OpenRoot(const std::string& name) = 0;

  // Registers a metadata format. XN verifies and persists templates; the kernel
  // backend only records is_metadata (it trusts the FS and never runs UDFs).
  virtual Result<uint32_t> RegisterTemplate(const xn::Template& t) = 0;

  // True when the block is present in the cache/registry (exposed state).
  virtual bool IsCached(hw::BlockId block) const = 0;

  // The machine the storage lives on: file-system code charges its CPU work
  // (directory scans, copies into user buffers) to its clock and cost model, and
  // emits `fs` records to its tracer.
  virtual hw::Machine& machine() = 0;
};

}  // namespace exo::fs

#endif  // EXO_FS_BACKEND_H_
