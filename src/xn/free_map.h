// FreeMap: which disk blocks are free, exposed to file systems so they choose
// placement (Sec. 4.4, "Allocate").
//
// One byte per block, 1 = free. Blocks before first_data_block() hold the
// storage system's own structures and are never free. XN and the monolithic
// kernel's backend each own one; file systems read it through
// FsBackend::free_map() and change it only through their backend's Alloc and
// Dealloc.
#ifndef EXO_XN_FREE_MAP_H_
#define EXO_XN_FREE_MAP_H_

#include <algorithm>
#include <cstdint>
#include <vector>

#include "hw/disk.h"
#include "sim/status.h"

namespace exo::xn {

class FreeMap {
 public:
  // Covers `num_blocks` blocks; those from `first_data` on start free when
  // `data_free`, allocated otherwise.
  void Reset(uint32_t num_blocks, hw::BlockId first_data, bool data_free = true) {
    first_data_ = first_data;
    free_.assign(num_blocks, 0);
    free_count_ = 0;
    if (data_free && first_data < num_blocks) {
      std::fill(free_.begin() + first_data, free_.end(), 1);
      free_count_ = num_blocks - first_data;
    }
  }

  uint32_t num_blocks() const { return static_cast<uint32_t>(free_.size()); }
  hw::BlockId first_data_block() const { return first_data_; }
  uint32_t free_count() const { return free_count_; }
  bool IsFree(hw::BlockId b) const { return b < free_.size() && free_[b] != 0; }
  bool IsAllocated(hw::BlockId b) const { return b < free_.size() && free_[b] == 0; }

  void Allocate(hw::BlockId b) {
    EXO_CHECK(IsFree(b));
    free_[b] = 0;
    --free_count_;
  }
  void Release(hw::BlockId b) {
    EXO_CHECK(b >= first_data_ && IsAllocated(b));
    free_[b] = 1;
    ++free_count_;
  }
  // Recovery's traversal marks what it reaches unchecked: a corrupt pointer may
  // name a system block, or one already reached.
  void MarkReachable(hw::BlockId b) {
    EXO_CHECK_LT(b, free_.size());
    free_count_ -= free_[b];
    free_[b] = 0;
  }

  // The first run of `count` free blocks at or after `hint` (never before the
  // first data block), wrapping once to the first data block.
  [[nodiscard]] Result<hw::BlockId> FindFreeRun(hw::BlockId hint, uint32_t count) const {
    if (count == 0) {
      return Status::kInvalidArgument;
    }
    const uint32_t n = num_blocks();
    hw::BlockId start = std::max(hint, first_data_);
    for (int pass = 0; pass < 2; ++pass) {
      uint32_t run = 0;
      for (hw::BlockId b = start; b < n; ++b) {
        run = free_[b] ? run + 1 : 0;
        if (run == count) {
          return b - count + 1;
        }
      }
      start = first_data_;
    }
    return Status::kOutOfResources;
  }

 private:
  std::vector<uint8_t> free_;
  uint32_t free_count_ = 0;
  hw::BlockId first_data_ = 0;
};

}  // namespace exo::xn

#endif  // EXO_XN_FREE_MAP_H_
