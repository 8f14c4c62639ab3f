// Simulated physical memory: an array of 4-KB frames holding real bytes.
//
// PhysMem is "hardware": it provides storage and a free list but no protection.
// Ownership, capabilities, and revocation policy are the kernel's job (xok/).
// Frame contents are real so that file systems, pipes, and network buffers move actual
// data and correctness is testable end to end. Frames are zero on demand: the host
// backs a frame only once something touches it, so a 64-MB machine that uses a few
// hundred frames costs the host a few hundred pages.
#ifndef EXO_HW_PHYS_MEM_H_
#define EXO_HW_PHYS_MEM_H_

#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <span>
#include <vector>

#include "sim/check.h"
#include "sim/status.h"

namespace exo::hw {

using FrameId = uint32_t;
constexpr uint32_t kPageSize = 4096;
constexpr FrameId kInvalidFrame = 0xffffffff;

class PhysMem {
 public:
  // calloc, not a zero-filled vector: a large calloc maps fresh pages that the
  // host zeroes on first touch, so frames start zeroed without the constructor
  // writing (and faulting in) every byte up front.
  explicit PhysMem(uint32_t num_frames)
      : data_(static_cast<uint8_t*>(std::calloc(num_frames, kPageSize))),
        refcount_(num_frames, 0) {
    EXO_CHECK(data_ != nullptr || num_frames == 0);
    free_list_.reserve(num_frames);
    // Hand out low frames first so traces are stable.
    for (FrameId f = num_frames; f > 0; --f) {
      free_list_.push_back(f - 1);
    }
  }

  uint32_t num_frames() const { return static_cast<uint32_t>(refcount_.size()); }
  uint32_t free_frames() const { return static_cast<uint32_t>(free_list_.size()); }

  // Allocates one frame with refcount 1. Contents are NOT zeroed (zeroing is a
  // software policy the kernel charges for explicitly).
  Result<FrameId> Alloc() {
    if (free_list_.empty()) {
      return Status::kOutOfResources;
    }
    FrameId f = free_list_.back();
    free_list_.pop_back();
    refcount_[f] = 1;
    return f;
  }

  // Increments the sharing count (e.g. copy-on-write mappings).
  void Ref(FrameId f) {
    EXO_CHECK_GT(refcount_.at(f), 0u);
    ++refcount_[f];
  }

  // Decrements the count; frees the frame when it reaches zero.
  void Unref(FrameId f) {
    EXO_CHECK_GT(refcount_.at(f), 0u);
    if (--refcount_[f] == 0) {
      free_list_.push_back(f);
    }
  }

  uint32_t refcount(FrameId f) const { return refcount_.at(f); }
  bool allocated(FrameId f) const { return refcount_.at(f) > 0; }

  std::span<uint8_t> Data(FrameId f) {
    EXO_CHECK_LT(f, num_frames());
    return std::span<uint8_t>(data_.get() + static_cast<size_t>(f) * kPageSize, kPageSize);
  }
  std::span<const uint8_t> Data(FrameId f) const {
    EXO_CHECK_LT(f, num_frames());
    return std::span<const uint8_t>(data_.get() + static_cast<size_t>(f) * kPageSize,
                                    kPageSize);
  }

  void CopyFrame(FrameId dst, FrameId src) {
    std::memcpy(Data(dst).data(), Data(src).data(), kPageSize);
  }
  void ZeroFrame(FrameId f) { std::memset(Data(f).data(), 0, kPageSize); }

 private:
  struct Free {
    void operator()(uint8_t* p) const { std::free(p); }
  };
  std::unique_ptr<uint8_t[], Free> data_;
  std::vector<uint32_t> refcount_;
  std::vector<FrameId> free_list_;
};

}  // namespace exo::hw

#endif  // EXO_HW_PHYS_MEM_H_
