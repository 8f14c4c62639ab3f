// DirtySet: the blocks a file system has dirtied and not yet seen reach the
// platter, with write-behind and Sync.
//
// C-FFS and FFS each hold one. A block is either marked, eligible for
// write-behind (file data; every FFS block), or held for Sync (C-FFS metadata,
// which it delays as long as its ordering rules allow, so hot directory and
// indirect blocks are never mid-flush when the next operation modifies them).
#ifndef EXO_FS_DIRTY_SET_H_
#define EXO_FS_DIRTY_SET_H_

#include <cstdint>
#include <set>
#include <vector>

#include "fs/backend.h"

namespace exo::fs {

class DirtySet {
 public:
  // Eligible blocks the set holds before it writes them behind.
  static constexpr uint32_t kWritebackThreshold = 1024;

  explicit DirtySet(FsBackend* backend) : backend_(backend) {}

  // Records `b` as dirty and eligible for write-behind.
  void Mark(hw::BlockId b) { Add(&eligible_, b); }
  // Records `b` as dirty, to be written only by Sync.
  void Hold(hw::BlockId b) { Add(&held_, b); }

  // Writes every block, eligible ones first, and waits; then forgets the blocks
  // found clean.
  Status Sync() {
    std::vector<hw::BlockId> blocks(eligible_.begin(), eligible_.end());
    blocks.insert(blocks.end(), held_.begin(), held_.end());
    if (blocks.empty()) {
      return Status::kOk;
    }
    Status s = backend_->FlushSync(blocks);
    if (s != Status::kOk) {
      return s;
    }
    for (hw::BlockId b : blocks) {
      if (backend_->IsClean(b)) {
        eligible_.erase(b);
        held_.erase(b);
      }
    }
    return Status::kOk;
  }

  uint32_t size() const { return static_cast<uint32_t>(eligible_.size() + held_.size()); }

 private:
  // Once kWritebackThreshold eligible blocks are held, submits them all without
  // waiting and keeps only those whose ordering constraints deferred them: the
  // rest become clean on completion, and a block dirtied again is marked again.
  void Add(std::set<hw::BlockId>* set, hw::BlockId b) {
    set->insert(b);
    if (eligible_.size() < kWritebackThreshold) {
      return;
    }
    std::vector<hw::BlockId> blocks(eligible_.begin(), eligible_.end());
    std::vector<hw::BlockId> deferred;
    (void)backend_->FlushAsync(blocks, &deferred);
    eligible_.clear();
    eligible_.insert(deferred.begin(), deferred.end());
  }

  FsBackend* backend_;
  std::set<hw::BlockId> eligible_;  // written behind or by Sync
  std::set<hw::BlockId> held_;      // written only by Sync
};

}  // namespace exo::fs

#endif  // EXO_FS_DIRTY_SET_H_
