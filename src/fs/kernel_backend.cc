#include "fs/kernel_backend.h"

#include <cstring>

#include "fs/fs_internal.h"

namespace exo::fs {

KernelBackend::KernelBackend(hw::Machine* machine, hw::Disk* disk, Blocker blocker,
                             const KernelBackendOptions& options)
    : machine_(machine), disk_(disk), blocker_(std::move(blocker)), options_(options) {
  // The disk starts empty; block 0 stands in for a superblock.
  free_map_.Reset(disk_->geometry().num_blocks, /*first_data=*/1);
}

KernelBackend::~KernelBackend() {
  for (auto& [b, e] : cache_) {
    machine_->mem().Unref(e.frame);
  }
}

Status KernelBackend::MakeRoom() {
  const bool unified = options_.max_cache_blocks == 0;
  auto over_budget = [&] {
    if (unified) {
      // Unified cache: keep a small reserve of frames for the rest of the system.
      return machine_->mem().free_frames() < 64;
    }
    return cache_.size() >= options_.max_cache_blocks;
  };
  while (over_budget() && !cache_.empty()) {
    // Evict the LRU entry; write back first if dirty (the application waits — this
    // is precisely the "kernel decides, application pays" policy exokernels avoid).
    hw::BlockId victim = hw::kInvalidBlock;
    uint64_t best = UINT64_MAX;
    for (const auto& [b, e] : cache_) {
      if (!e.in_transit && !e.write_transit && e.lru < best) {
        best = e.lru;
        victim = b;
      }
    }
    if (victim == hw::kInvalidBlock) {
      return Status::kOutOfResources;
    }
    Entry& e = cache_[victim];
    if (e.dirty) {
      e.in_transit = true;
      Status ws = Transfer(/*write=*/true, victim, e.frame);
      e.in_transit = false;
      if (ws != Status::kOk) {
        return Status::kIoError;  // cannot evict without losing the only good copy
      }
      e.dirty = false;
    }
    machine_->mem().Unref(e.frame);
    cache_.erase(victim);
  }
  return Status::kOk;
}

Status KernelBackend::Transfer(bool write, hw::BlockId block, hw::FrameId frame) {
  Status result = Status::kOk;
  for (int attempt = 0; attempt < kIoRetries; ++attempt) {
    bool done = false;
    disk_->Submit({.write = write,
                   .start = block,
                   .nblocks = 1,
                   .frames = {frame},
                   .done = [&done, &result](Status s) {
                     result = s;
                     done = true;
                   }});
    blocker_([&done] { return done; });
    if (result == Status::kOk) {
      break;
    }
    ChargeIoBackoff(*machine_, attempt);
  }
  return result;
}

Status KernelBackend::EnsureCached(hw::BlockId block, bool read_from_disk) {
  auto it = cache_.find(block);
  if (it != cache_.end()) {
    if (it->second.in_transit) {
      blocker_([this, block] {
        auto it2 = cache_.find(block);
        return it2 == cache_.end() || !it2->second.in_transit;
      });
      it = cache_.find(block);  // the wait may have evicted or re-keyed the entry
      if (it == cache_.end()) {
        return EnsureCached(block, read_from_disk);
      }
    }
    it->second.lru = ++lru_clock_;
    return Status::kOk;
  }
  Status room = MakeRoom();
  if (room != Status::kOk) {
    return room;
  }
  auto f = machine_->mem().Alloc();
  if (!f.ok()) {
    return f.status();
  }
  Entry e;
  e.frame = *f;
  e.lru = ++lru_clock_;
  if (read_from_disk) {
    e.in_transit = true;
    cache_[block] = e;
    Status rs = Transfer(/*write=*/false, block, *f);
    cache_[block].in_transit = false;
    if (rs != Status::kOk) {
      // The frame holds garbage; unwind the mapping so later calls retry cleanly.
      machine_->mem().Unref(*f);
      cache_.erase(block);
      return rs;
    }
  } else {
    machine_->mem().ZeroFrame(*f);
    machine_->Charge(machine_->cost().ZeroCost(hw::kPageSize));
    e.dirty = true;
    cache_[block] = e;
  }
  return Status::kOk;
}

Status KernelBackend::Alloc(hw::BlockId meta, const xn::Mods& mods,
                            std::span<const udf::Extent> to_alloc) {
  // Validate the free map, then trust the file system (no UDF verification).
  for (const udf::Extent& ext : to_alloc) {
    for (uint32_t i = 0; i < ext.count; ++i) {
      if (!free_map_.IsFree(ext.start + i)) {
        return Status::kOutOfResources;
      }
    }
  }
  Status s = Modify(meta, mods);
  if (s != Status::kOk) {
    return s;
  }
  for (const udf::Extent& ext : to_alloc) {
    for (uint32_t i = 0; i < ext.count; ++i) {
      free_map_.Allocate(ext.start + i);
    }
  }
  return Status::kOk;
}

Status KernelBackend::Dealloc(hw::BlockId meta, const xn::Mods& mods,
                              std::span<const udf::Extent> to_free) {
  Status s = Modify(meta, mods);
  if (s != Status::kOk) {
    return s;
  }
  for (const udf::Extent& ext : to_free) {
    for (uint32_t i = 0; i < ext.count; ++i) {
      hw::BlockId b = ext.start + i;
      free_map_.Release(b);
      auto it = cache_.find(b);
      if (it != cache_.end() && !it->second.in_transit) {
        machine_->mem().Unref(it->second.frame);
        cache_.erase(it);
      }
    }
  }
  return Status::kOk;
}

Status KernelBackend::Modify(hw::BlockId meta, const xn::Mods& mods) {
  Status s = EnsureCached(meta, /*read_from_disk=*/true);
  if (s != Status::kOk) {
    return s;
  }
  blocker_([this, meta] {
    auto it = cache_.find(meta);
    return it == cache_.end() || !it->second.write_transit;
  });
  Entry& e = cache_[meta];
  auto bytes = machine_->mem().Data(e.frame);
  for (const xn::ByteMod& m : mods) {
    if (static_cast<uint64_t>(m.offset) + m.bytes.size() > bytes.size()) {
      return Status::kInvalidArgument;
    }
    std::memcpy(bytes.data() + m.offset, m.bytes.data(), m.bytes.size());
    machine_->Charge(machine_->cost().CopyCost(m.bytes.size()));
  }
  e.dirty = true;
  return Status::kOk;
}

Result<std::span<const uint8_t>> KernelBackend::GetBlock(hw::BlockId block, hw::BlockId) {
  Status s = EnsureCached(block, /*read_from_disk=*/true);
  if (s != Status::kOk) {
    return s;
  }
  return std::span<const uint8_t>(machine_->mem().Data(cache_[block].frame));
}

Result<std::span<uint8_t>> KernelBackend::GetDataWritable(hw::BlockId block, hw::BlockId) {
  Status s = EnsureCached(block, /*read_from_disk=*/true);
  if (s != Status::kOk) {
    return s;
  }
  blocker_([this, block] {
    auto it = cache_.find(block);
    return it == cache_.end() || !it->second.write_transit;
  });
  Entry& e = cache_[block];
  e.dirty = true;
  return std::span<uint8_t>(machine_->mem().Data(e.frame));
}

Status KernelBackend::InstallFresh(hw::BlockId block, hw::BlockId) {
  return EnsureCached(block, /*read_from_disk=*/false);
}

Status KernelBackend::FlushAsync(std::span<const hw::BlockId> blocks,
                                 std::vector<hw::BlockId>* deferred) {
  for (hw::BlockId b : blocks) {
    auto it = cache_.find(b);
    if (it == cache_.end() || !it->second.dirty || it->second.in_transit ||
        it->second.write_transit) {
      continue;
    }
    Entry& e = it->second;
    e.write_transit = true;
    e.dirty = false;
    disk_->Submit({.write = true,
                   .start = b,
                   .nblocks = 1,
                   .frames = {e.frame},
                   .done = [this, b](Status s) {
                     auto it2 = cache_.find(b);
                     if (it2 != cache_.end()) {
                       it2->second.write_transit = false;
                       if (s != Status::kOk) {
                         // Never reached the platter: re-dirty so FlushSync's next
                         // round (or a later flush) retries the write.
                         it2->second.dirty = true;
                       }
                     }
                   }});
  }
  return Status::kOk;
}

Status KernelBackend::FlushSync(std::span<const hw::BlockId> blocks) {
  // Loop until every block is clean: concurrent processes may re-dirty a shared
  // block (e.g. an inode block holding 32 inodes) while our write is in flight, so
  // one submission round is not enough.
  for (int round = 0; round < 100'000; ++round) {
    bool all_clean = true;
    for (hw::BlockId b : blocks) {
      if (!IsClean(b)) {
        all_clean = false;
        break;
      }
    }
    if (all_clean) {
      return Status::kOk;
    }
    Status s = FlushAsync(blocks, nullptr);
    if (s != Status::kOk) {
      return s;
    }
    // Wait until our writes quiesce (or the entries vanish), then re-check dirt.
    blocker_([this, &blocks] {
      for (hw::BlockId b : blocks) {
        auto it = cache_.find(b);
        if (it != cache_.end() && (it->second.in_transit || it->second.write_transit)) {
          return false;
        }
      }
      return true;
    });
  }
  return Status::kIoError;
}

bool KernelBackend::IsClean(hw::BlockId block) const {
  auto it = cache_.find(block);
  return it == cache_.end() ||
         (!it->second.dirty && !it->second.in_transit && !it->second.write_transit);
}

Result<hw::BlockId> KernelBackend::CreateRoot(const std::string& name, uint32_t tmpl) {
  if (roots_.count(name) != 0) {
    return Status::kAlreadyExists;
  }
  auto b = free_map_.FindFreeRun(free_map_.first_data_block(), 1);
  if (!b.ok()) {
    return b.status();
  }
  free_map_.Allocate(*b);
  roots_[name] = *b;
  Status s = EnsureCached(*b, /*read_from_disk=*/false);
  if (s != Status::kOk) {
    return s;
  }
  return *b;
}

Result<hw::BlockId> KernelBackend::OpenRoot(const std::string& name) {
  auto it = roots_.find(name);
  if (it == roots_.end()) {
    return Status::kNotFound;
  }
  return it->second;
}

Result<uint32_t> KernelBackend::RegisterTemplate(const xn::Template& t) {
  // The kernel trusts the file system: templates are only identifiers here.
  return next_template_++;
}

}  // namespace exo::fs
