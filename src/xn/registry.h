// The buffer cache registry (Sec. 4.3.3).
//
// The registry tracks the mapping of cached disk blocks to the physical pages holding
// them — only the mapping, not the blocks themselves; the data lives in application-
// managed frames. It records each mapping's state (uninitialized / in transit /
// resident, dirty, locked), keeps an LRU list of unused-but-valid buffers that
// libOSes recycle by default, and is mapped read-only into application space (here:
// const accessors cost nothing).
//
// XN never evicts registry entries on its own (applications choose caching policy);
// entries leave only when an application removes them or reuses the frame.
#ifndef EXO_XN_REGISTRY_H_
#define EXO_XN_REGISTRY_H_

#include <cstdint>
#include <list>
#include <map>

#include "hw/disk.h"
#include "hw/phys_mem.h"
#include "sim/status.h"
#include "xn/types.h"
#include "xok/env.h"

namespace exo::xn {

enum class BufState : uint8_t {
  kUninitialized,   // allocated metadata never yet written to disk
  kInTransit,       // disk READ outstanding: the frame does not yet hold valid data
  kWriteTransit,    // disk WRITE outstanding: the frame is valid and readable
  kResident,        // frame holds valid data
};

struct RegistryEntry {
  hw::BlockId block = hw::kInvalidBlock;
  hw::BlockId parent = hw::kInvalidBlock;  // metadata block that owns this one
  TemplateId tmpl = kInvalidTemplate;      // kInvalidTemplate => "unknown type" raw read
  hw::FrameId frame = hw::kInvalidFrame;
  BufState state = BufState::kResident;
  bool dirty = false;
  xok::EnvId locked_by = xok::kInvalidEnv;
  uint64_t lru_stamp = 0;  // for the kernel-maintained LRU of unused buffers
};

class Registry {
 public:
  const RegistryEntry* Lookup(hw::BlockId b) const {
    auto it = entries_.find(b);
    return it == entries_.end() ? nullptr : &it->second;
  }
  RegistryEntry* LookupMutable(hw::BlockId b) {
    auto it = entries_.find(b);
    return it == entries_.end() ? nullptr : &it->second;
  }

  // Installs or replaces an entry. The caller has already performed access checks.
  RegistryEntry& Install(const RegistryEntry& e) {
    auto [it, inserted] = entries_.insert_or_assign(e.block, e);
    return it->second;
  }

  void Remove(hw::BlockId b) { entries_.erase(b); }

  size_t size() const { return entries_.size(); }
  const std::map<hw::BlockId, RegistryEntry>& entries() const { return entries_; }

  // LRU of unused-but-valid buffers: touched on every release; the oldest clean,
  // unlocked entry is the default recycling victim.
  void TouchLru(hw::BlockId b, uint64_t stamp) {
    if (auto* e = LookupMutable(b)) {
      e->lru_stamp = stamp;
    }
  }

  // Oldest resident, clean, unlocked entry (kInvalidBlock if none).
  hw::BlockId OldestRecyclable() const {
    hw::BlockId best = hw::kInvalidBlock;
    uint64_t best_stamp = UINT64_MAX;
    for (const auto& [b, e] : entries_) {
      if (e.state == BufState::kResident && !e.dirty && e.locked_by == xok::kInvalidEnv &&
          e.lru_stamp < best_stamp) {
        best = b;
        best_stamp = e.lru_stamp;
      }
    }
    return best;
  }

 private:
  std::map<hw::BlockId, RegistryEntry> entries_;
};

}  // namespace exo::xn

#endif  // EXO_XN_REGISTRY_H_
