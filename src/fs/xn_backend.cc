#include "fs/xn_backend.h"

#include <cstring>

#include "fs/fs_internal.h"

namespace exo::fs {

XnBackend::XnBackend(xn::Xn* xn, xn::Caps creds, Blocker blocker,
                     std::function<hw::FrameId()> frame_alloc)
    : xn_(xn),
      creds_(std::move(creds)),
      blocker_(std::move(blocker)),
      frame_alloc_(std::move(frame_alloc)) {}

Result<hw::FrameId> XnBackend::TakeFrame() {
  hw::FrameId f = frame_alloc_();
  if (f != hw::kInvalidFrame) {
    return f;
  }
  // Out of memory: recycle the least-recently-used clean buffer — the default policy
  // XN supports but does not mandate (Sec. 4.3.3).
  auto recycled = xn_->RecycleOldest();
  if (!recycled.ok()) {
    return Status::kOutOfResources;
  }
  return *recycled;
}

void XnBackend::WaitResident(hw::BlockId block) {
  blocker_([this, block] {
    const xn::RegistryEntry* e = xn_->registry().Lookup(block);
    return e == nullptr || e->state == xn::BufState::kResident ||
           e->state == xn::BufState::kUninitialized;
  });
}

Status XnBackend::Alloc(hw::BlockId meta, const xn::Mods& mods,
                        std::span<const udf::Extent> to_alloc) {
  for (;;) {
    Status s = xn_->Alloc(meta, mods, to_alloc, creds_);
    if (s != Status::kBusy) {
      return s;
    }
    WaitResident(meta);  // a background flush holds the block; wait and retry
  }
}

Status XnBackend::Dealloc(hw::BlockId meta, const xn::Mods& mods,
                          std::span<const udf::Extent> to_free) {
  for (;;) {
    Status s = xn_->Dealloc(meta, mods, to_free, creds_);
    if (s != Status::kBusy) {
      return s;
    }
    WaitResident(meta);
  }
}

Status XnBackend::Modify(hw::BlockId meta, const xn::Mods& mods) {
  for (;;) {
    Status s = xn_->Modify(meta, mods, creds_);
    if (s != Status::kBusy) {
      return s;
    }
    WaitResident(meta);
  }
}

Status XnBackend::EnsureCached(hw::BlockId block, hw::BlockId parent) {
  // Loop because a buffer another process is bringing in (or that we are waiting on)
  // can be recycled under memory pressure before we get to run — or because the read
  // failed, in which case XN unwinds the mapping entirely. Both look identical from
  // here ("entry gone"): treat them as a wake-up and re-issue the read.
  for (int tries = 0; tries < 64; ++tries) {
    if (tries > 0 && tries <= kIoRetries) {
      ChargeIoBackoff(machine(), tries - 1);
    }
    // Read-repair: a block quarantined by an earlier integrity failure is retried
    // once through XN's repair path (rewrite from a clean cached copy). If no such
    // copy exists the corruption is surfaced, never read around.
    if (xn_->IsQuarantined(block) && xn_->TryRepair(block) != Status::kOk) {
      return Status::kCorrupted;
    }
    const xn::RegistryEntry* e = xn_->registry().Lookup(block);
    if (e != nullptr && (e->state == xn::BufState::kResident ||
                         e->state == xn::BufState::kWriteTransit)) {
      return Status::kOk;  // write-back in flight: the frame is still readable
    }
    if (e == nullptr) {
      auto f = TakeFrame();
      if (!f.ok()) {
        return f.status();
      }
      hw::BlockId blocks[1] = {block};
      hw::FrameId frames[1] = {*f};
      Status s = xn_->ReadAndInsert(parent, blocks, frames, creds_, {});
      while (s == Status::kBusy) {
        WaitResident(parent);
        WaitResident(block);
        s = xn_->ReadAndInsert(parent, blocks, frames, creds_, {});
      }
      // The registry took its own reference; drop ours: the buffer is registry-owned.
      xn_->ReleaseFrame(*f);
      if (s != Status::kOk && s != Status::kAlreadyExists) {
        return s;
      }
    }
    // Wait for the read to land OR the entry to disappear (recycled): both wake us.
    blocker_([this, block] {
      const xn::RegistryEntry* e2 = xn_->registry().Lookup(block);
      return e2 == nullptr || e2->state == xn::BufState::kResident ||
             e2->state == xn::BufState::kWriteTransit;
    });
  }
  return Status::kIoError;  // persistent recycle race: treat as I/O failure
}

Result<std::span<const uint8_t>> XnBackend::GetBlock(hw::BlockId block, hw::BlockId parent) {
  Status s = EnsureCached(block, parent);
  if (s != Status::kOk) {
    return s;
  }
  return std::span<const uint8_t>(
      xn_->machine().mem().Data(xn_->registry().Lookup(block)->frame));
}

Result<std::span<uint8_t>> XnBackend::GetDataWritable(hw::BlockId block, hw::BlockId parent) {
  Status s = EnsureCached(block, parent);
  if (s != Status::kOk) {
    return s;
  }
  WaitResident(block);  // mutating the frame during a write DMA would corrupt it
  const xn::RegistryEntry* e = xn_->registry().Lookup(block);
  // XN forbids mapping metadata read/write; data blocks are application-owned.
  if (e->tmpl != xn::kDataTemplate) {
    return Status::kPermissionDenied;
  }
  // Mark dirty through the registry (the mapping the app holds is writable).
  const_cast<xn::RegistryEntry*>(e)->dirty = true;
  return std::span<uint8_t>(xn_->machine().mem().Data(e->frame));
}

Status XnBackend::InstallFresh(hw::BlockId block, hw::BlockId parent) {
  auto f = TakeFrame();
  if (!f.ok()) {
    return f.status();
  }
  machine().mem().ZeroFrame(*f);
  machine().Charge(machine().cost().ZeroCost(hw::kPageSize));
  Status s = xn_->InsertMapping(block, parent, *f, /*dirty=*/true, creds_);
  while (s == Status::kBusy) {
    WaitResident(parent);
    s = xn_->InsertMapping(block, parent, *f, /*dirty=*/true, creds_);
  }
  xn_->ReleaseFrame(*f);
  return s;
}

Status XnBackend::FlushAsync(std::span<const hw::BlockId> blocks,
                             std::vector<hw::BlockId>* deferred) {
  // XN validates a whole Write() call at once; submit blocks individually so one
  // tainted parent does not hold back its (writable) siblings.
  for (hw::BlockId b : blocks) {
    const xn::RegistryEntry* e = xn_->registry().Lookup(b);
    if (e == nullptr || !e->dirty || e->state != xn::BufState::kResident) {
      continue;  // nothing to do (already clean or already on its way)
    }
    hw::BlockId one[1] = {b};
    Status s = xn_->Write(one, {});
    if (s == Status::kTainted || s == Status::kBusy) {
      if (deferred != nullptr) {
        deferred->push_back(b);
      }
      continue;
    }
    if (s != Status::kOk) {
      return s;
    }
  }
  return Status::kOk;
}

Status XnBackend::FlushSync(std::span<const hw::BlockId> blocks) {
  // Bottom-up retry loop: each round, submit everything whose ordering constraints
  // are satisfied, wait for the disk to quiesce, then retry — both taint-deferred
  // parents (XN's rule 2; ordering is the libFS's half of the contract, Sec. 4.3.2)
  // and blocks that concurrent processes re-dirtied while our writes were in flight.
  for (int round = 0; round < 100'000; ++round) {
    std::vector<hw::BlockId> dirty;
    bool any_in_transit = false;
    for (hw::BlockId b : blocks) {
      const xn::RegistryEntry* e = xn_->registry().Lookup(b);
      if (e == nullptr) {
        continue;
      }
      if (e->state == xn::BufState::kInTransit || e->state == xn::BufState::kWriteTransit) {
        any_in_transit = true;
      } else if (e->dirty) {
        dirty.push_back(b);
      }
    }
    if (dirty.empty() && !any_in_transit) {
      return Status::kOk;
    }
    std::vector<hw::BlockId> deferred;
    if (!dirty.empty()) {
      Status s = FlushAsync(dirty, &deferred);
      if (s != Status::kOk) {
        return s;
      }
      if (deferred.size() == dirty.size() && !any_in_transit) {
        return Status::kTainted;  // nothing can progress: constraints unmeetable
      }
    }
    // Wait for outstanding I/O on our blocks to settle before the next round.
    blocker_([this, &blocks] {
      for (hw::BlockId b : blocks) {
        const xn::RegistryEntry* e = xn_->registry().Lookup(b);
        if (e != nullptr && (e->state == xn::BufState::kInTransit ||
                             e->state == xn::BufState::kWriteTransit)) {
          return false;
        }
      }
      return true;
    });
  }
  return Status::kIoError;
}

bool XnBackend::IsClean(hw::BlockId block) const {
  const xn::RegistryEntry* e = xn_->registry().Lookup(block);
  return e == nullptr || (!e->dirty && e->state == xn::BufState::kResident);
}

Result<hw::BlockId> XnBackend::CreateRoot(const std::string& name, uint32_t tmpl) {
  auto r = xn_->RegisterRoot(name, tmpl, /*temporary=*/false);
  if (!r.ok()) {
    return r.status();
  }
  if (Status s = LoadRoot(name, r->block); s != Status::kOk) {
    return s;
  }
  return r->block;
}

Result<hw::BlockId> XnBackend::OpenRoot(const std::string& name) {
  auto r = xn_->LookupRoot(name);
  if (!r.ok()) {
    return r.status();
  }
  if (IsCached(r->block)) {
    return r->block;  // already cached (typically by another process)
  }
  if (Status s = LoadRoot(name, r->block); s != Status::kOk) {
    return s;
  }
  return r->block;
}

Status XnBackend::LoadRoot(const std::string& name, hw::BlockId block) {
  for (int attempt = 0; attempt < kIoRetries; ++attempt) {
    auto f = TakeFrame();
    if (!f.ok()) {
      return f.status();
    }
    Status done = Status::kWouldBlock;
    Status s = xn_->LoadRoot(name, *f, creds_, [&done](Status st) { done = st; });
    xn_->ReleaseFrame(*f);
    if (s == Status::kBusy) {
      // Another process's read is in flight; wait on the exposed registry state.
      blocker_([this, block] {
        const xn::RegistryEntry* e = xn_->registry().Lookup(block);
        return e == nullptr || e->state == xn::BufState::kResident;
      });
      if (IsCached(block)) {
        return Status::kOk;
      }
      continue;  // the other process's read failed and unwound; try ourselves
    }
    if (s != Status::kOk) {
      return s;
    }
    blocker_([&done] { return done != Status::kWouldBlock; });
    if (done != Status::kIoError) {
      return done;
    }
    ChargeIoBackoff(machine(), attempt);  // transient: retry the load
  }
  return Status::kIoError;
}

Result<uint32_t> XnBackend::RegisterTemplate(const xn::Template& t) {
  auto existing = xn_->LookupTemplate(t.name);
  if (existing.ok()) {
    return *existing;  // idempotent: libFSes re-register on every mount
  }
  auto id = xn_->InstallTemplate(t);
  if (!id.ok()) {
    return id.status();
  }
  return *id;
}

}  // namespace exo::fs
