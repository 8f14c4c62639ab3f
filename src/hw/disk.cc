#include "hw/disk.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <cstring>

namespace exo::hw {

uint32_t Crc32(std::span<const uint8_t> bytes) {
  // Table-driven reflected CRC-32; the table is built once on first use.
  static const auto table = [] {
    std::array<uint32_t, 256> t{};
    for (uint32_t i = 0; i < 256; ++i) {
      uint32_t c = i;
      for (int k = 0; k < 8; ++k) {
        c = (c & 1) != 0 ? 0xEDB88320u ^ (c >> 1) : c >> 1;
      }
      t[i] = c;
    }
    return t;
  }();
  uint32_t crc = 0xFFFFFFFFu;
  for (uint8_t b : bytes) {
    crc = table[(crc ^ b) & 0xFFu] ^ (crc >> 8);
  }
  return crc ^ 0xFFFFFFFFu;
}

Disk::Disk(sim::Engine* engine, PhysMem* mem, const DiskGeometry& geometry, uint32_t cpu_mhz)
    : engine_(engine),
      mem_(mem),
      geometry_(geometry),
      cpu_mhz_(cpu_mhz),
      blocks_(geometry.num_blocks) {}

void Disk::EnableIntegrity() {
  integrity_ = true;
  tags_.resize(geometry_.num_blocks);
  // Whatever is on the media right now becomes the trusted baseline.
  for (BlockId b = 0; b < geometry_.num_blocks; ++b) {
    tags_[b] = BlockTag{Crc32(RawBlock(b)), b};
  }
}

BlockIntegrity Disk::CheckBlock(BlockId b) const {
  EXO_CHECK_LT(b, geometry_.num_blocks);
  if (latent_bad_.count(b) != 0) {
    return BlockIntegrity::kUnreadable;
  }
  if (!integrity_) {
    return BlockIntegrity::kOk;
  }
  const BlockTag& tag = tags_[b];
  if (tag.intended != b) {
    return BlockIntegrity::kMisdirected;
  }
  if (tag.crc != Crc32(RawBlock(b))) {
    return BlockIntegrity::kBadChecksum;
  }
  return BlockIntegrity::kOk;
}

void Disk::Restamp(BlockId b) {
  EXO_CHECK_LT(b, geometry_.num_blocks);
  latent_bad_.erase(b);  // a rewrite remaps the sector
  if (integrity_) {
    tags_[b] = BlockTag{Crc32(RawBlock(b)), b};
  }
}

std::span<const uint8_t> Disk::RawBlock(BlockId b) const {
  static const Block kZeroBlock{};  // what every hole reads as
  EXO_CHECK_LT(b, geometry_.num_blocks);
  const Block* block = blocks_[b].get();
  return block != nullptr ? *block : kZeroBlock;
}

std::span<uint8_t> Disk::MutableBlock(BlockId b) {
  EXO_CHECK_LT(b, geometry_.num_blocks);
  std::unique_ptr<Block>& block = blocks_[b];
  if (block == nullptr) {
    block = std::make_unique<Block>();  // value-initialized: a hole reads as zeros
  }
  return *block;
}

void Disk::Submit(DiskRequest req) {
  if (powered_off_) {
    return;  // dead controller: no transfer, no completion interrupt
  }
  const bool malformed =
      req.nblocks == 0 ||
      static_cast<uint64_t>(req.start) + req.nblocks > geometry_.num_blocks ||
      (!req.frames.empty() && req.frames.size() != req.nblocks);
  if (malformed) {
    ++stats_.rejected_requests;
    if (rejected_counter_ != nullptr) {
      ++*rejected_counter_;
    }
    if (req.done) {
      // Complete asynchronously like any other request so callers never see a
      // callback re-enter them from inside Submit.
      engine_->ScheduleAfter(0, [done = std::move(req.done)]() {
        done(Status::kInvalidArgument);
      });
    }
    return;
  }

  if (tracer_ != nullptr && tracer_->enabled(trace::Category::kDisk)) {
    tracer_->Instant(trace::Category::kDisk, trace_track_, req.write ? "submit_w" : "submit_r",
                     engine_->now(), req.start);
  }

  // Idle disk, empty queue: nothing to merge with and no competition for the
  // head, so StartNext would pick this request immediately — skip the queue and
  // its indexes entirely. This is the common case for the shallow-queue global
  // workloads, where per-request index bookkeeping would dominate.
  if (!active_ && queue_.empty()) {
    Dispatch(std::move(req));
    return;
  }

  // Try to merge with a queued request forming one contiguous run in the same
  // direction: the merge index keys same-direction framed requests by their end
  // block, so the lookup is one lower_bound. Among several requests ending at
  // req.start the earliest-queued wins (seq orders the keys), matching the old
  // front-to-back scan. Completion callbacks are chained so every submitter is
  // notified.
  if (!req.frames.empty()) {
    BlockIndex& idx = merge_tail_[req.write ? 1 : 0];
    auto mit = idx.lower_bound({req.start, 0});
    if (mit != idx.end() && mit->first.first == req.start) {
      QueuedRequest& q = *mit->second;
      q.nblocks += req.nblocks;
      q.frames.insert(q.frames.end(), req.frames.begin(), req.frames.end());
      if (req.done) {
        auto prev = std::move(q.done);
        auto next = std::move(req.done);
        q.done = [prev = std::move(prev), next = std::move(next)](Status s) {
          if (prev) {
            prev(s);
          }
          next(s);
        };
      }
      ++stats_.merged_requests;
      if (tracer_ != nullptr && tracer_->enabled(trace::Category::kDisk)) {
        tracer_->Instant(trace::Category::kDisk, trace_track_, "merge", engine_->now(),
                         req.start);
      }
      // The merged request's tail moved: rekey it under its new end block,
      // reusing the map node in place.
      QueueIter lit = mit->second;
      auto nh = idx.extract(mit);
      nh.key() = {q.start + q.nblocks, lit->seq};
      idx.insert(std::move(nh));
      return;
    }
  }

  const uint64_t seq = next_submit_seq_++;
  if (free_queue_nodes_.empty()) {
    queue_.push_back(QueuedRequest{std::move(req), seq});
  } else {
    queue_.splice(queue_.end(), free_queue_nodes_, free_queue_nodes_.begin());
    static_cast<DiskRequest&>(queue_.back()) = std::move(req);
    queue_.back().seq = seq;
  }
  QueueIter lit = std::prev(queue_.end());
  IndexInsert(by_start_, lit->start, seq, lit);
  if (!lit->frames.empty()) {
    IndexInsert(merge_tail_[lit->write ? 1 : 0], lit->start + lit->nblocks, seq, lit);
  }
  if (!active_) {
    StartNext();
  }
}

void Disk::IndexInsert(BlockIndex& idx, BlockId block, uint64_t seq, QueueIter it) {
  if (free_index_nodes_.empty()) {
    idx.emplace(std::make_pair(block, seq), it);
    return;
  }
  auto nh = std::move(free_index_nodes_.back());
  free_index_nodes_.pop_back();
  nh.key() = {block, seq};
  nh.mapped() = it;
  idx.insert(std::move(nh));
}

void Disk::IndexErase(BlockIndex& idx, BlockIndex::iterator it) {
  free_index_nodes_.push_back(idx.extract(it));
}

sim::Cycles Disk::ServiceTime(BlockId start, uint32_t nblocks, ServicePhases* phases) {
  const double cycles_per_ms = static_cast<double>(cpu_mhz_) * 1000.0;
  double ms = geometry_.controller_overhead_us / 1000.0;
  if (phases != nullptr) {
    phases->overhead = static_cast<sim::Cycles>(ms * cycles_per_ms);
  }

  const uint32_t target_cyl = CylinderOf(start);
  const bool sequential = (start == last_block_end_) && (target_cyl == head_cylinder_);

  if (!sequential) {
    // Seek: square-root curve between adjacent-cylinder and full-stroke times.
    const uint32_t dist =
        target_cyl > head_cylinder_ ? target_cyl - head_cylinder_ : head_cylinder_ - target_cyl;
    if (dist > 0) {
      const double frac = static_cast<double>(dist) /
                          static_cast<double>(std::max(1u, geometry_.num_cylinders() - 1));
      const double seek_ms = geometry_.min_seek_ms +
                             (geometry_.max_seek_ms - geometry_.min_seek_ms) * std::sqrt(frac);
      ms += seek_ms;
      if (phases != nullptr) {
        phases->seek = static_cast<sim::Cycles>(seek_ms * cycles_per_ms);
      }
      ++stats_.seeks;
    }
    // Rotational delay: platter position is a function of simulated time, so the
    // model naturally rewards requests that land just ahead of the head.
    const double rev_ms = 60000.0 / geometry_.rpm;
    const double now_ms =
        static_cast<double>(engine_->now()) / cycles_per_ms + ms;  // when the head arrives
    const double head_angle = now_ms / rev_ms - std::floor(now_ms / rev_ms);
    const double target_angle = static_cast<double>(start % geometry_.blocks_per_track) /
                                static_cast<double>(geometry_.blocks_per_track);
    double wait = target_angle - head_angle;
    if (wait < 0) {
      wait += 1.0;
    }
    ms += wait * rev_ms;
    if (phases != nullptr) {
      phases->rotate = static_cast<sim::Cycles>(wait * rev_ms * cycles_per_ms);
    }
  }

  // Media transfer.
  const double bytes = static_cast<double>(nblocks) * kBlockSize;
  ms += bytes / (geometry_.transfer_mb_per_s * 1e6) * 1000.0;

  return static_cast<sim::Cycles>(ms * cycles_per_ms);
}

void Disk::StartNext() {
  EXO_CHECK(!active_);
  if (queue_.empty()) {
    return;
  }

  // C-LOOK: service the queued request with the smallest start block at or beyond the
  // head; wrap to the lowest start when none is ahead. The dispatch index is ordered
  // by (start, seq), so both the forward pick and the wrap are one lookup, with the
  // earliest-queued request winning among equal starts as before.
  const BlockId head_block = head_cylinder_ * geometry_.blocks_per_cylinder();
  auto bit = by_start_.lower_bound({head_block, 0});
  if (bit == by_start_.end()) {
    bit = by_start_.begin();
  }
  QueueIter lit = bit->second;
  IndexErase(by_start_, bit);
  if (!lit->frames.empty()) {
    BlockIndex& idx = merge_tail_[lit->write ? 1 : 0];
    IndexErase(idx, idx.find({lit->start + lit->nblocks, lit->seq}));
  }
  DiskRequest req = std::move(static_cast<DiskRequest&>(*lit));
  free_queue_nodes_.splice(free_queue_nodes_.end(), queue_, lit);
  Dispatch(std::move(req));
}

void Disk::Dispatch(DiskRequest req) {
  active_ = true;

  const bool tracing = tracer_ != nullptr && tracer_->enabled(trace::Category::kDisk);
  ServicePhases phases;
  const sim::Cycles service =
      ServiceTime(req.start, req.nblocks, tracing ? &phases : nullptr);
  stats_.busy_cycles += service;
  ++stats_.requests;

  if (tracing) {
    // One outer "service" span per request, with the mechanical breakdown nested
    // inside it. The phase boundaries are supplementary casts; the outer span ends
    // exactly at the authoritative completion time.
    const sim::Cycles now = engine_->now();
    tracer_->Begin(trace::Category::kDisk, trace_track_, "service", now, req.start);
    sim::Cycles t = now;
    if (phases.overhead > 0) {
      tracer_->Begin(trace::Category::kDisk, trace_track_, "overhead", t, phases.overhead);
      t += phases.overhead;
      tracer_->End(trace::Category::kDisk, trace_track_, "overhead", t, phases.overhead);
    }
    if (phases.seek > 0) {
      tracer_->Begin(trace::Category::kDisk, trace_track_, "seek", t, phases.seek);
      t += phases.seek;
      tracer_->End(trace::Category::kDisk, trace_track_, "seek", t, phases.seek);
    }
    if (phases.rotate > 0) {
      tracer_->Begin(trace::Category::kDisk, trace_track_, "rotate", t, phases.rotate);
      t += phases.rotate;
      tracer_->End(trace::Category::kDisk, trace_track_, "rotate", t, phases.rotate);
    }
    if (now + service > t) {
      tracer_->Begin(trace::Category::kDisk, trace_track_, "transfer", t, req.nblocks);
      tracer_->End(trace::Category::kDisk, trace_track_, "transfer", now + service,
                   req.nblocks);
    }
    if (service_hist_ != nullptr) {
      service_hist_->Record(service);
    }
  }

  engine_->ScheduleAfter(service,
                         [this, epoch = power_epoch_, req = std::move(req)]() mutable {
    if (epoch != power_epoch_) {
      return;  // completion belongs to a pre-power-cut lifetime
    }
    Complete(std::move(req));
  });
}

void Disk::Complete(DiskRequest req) {
  if (powered_off_) {
    return;
  }

  // Injected transient failure: the head sought but the transfer never happened.
  if (faults_ != nullptr && faults_->NextDiskRequestFails(req.start, req.nblocks)) {
    ++stats_.io_errors;
    head_cylinder_ = CylinderOf(req.start);
    last_block_end_ = req.start;
    active_ = false;
    if (tracer_ != nullptr && tracer_->enabled(trace::Category::kDisk)) {
      tracer_->End(trace::Category::kDisk, trace_track_, "service", engine_->now(),
                   static_cast<uint64_t>(Status::kIoError));
    }
    if (req.done) {
      req.done(Status::kIoError);
    }
    if (!powered_off_ && !active_) {
      StartNext();
    }
    return;
  }

  // Fails the active request at block offset `at` with kIoError, leaving the
  // head where the transfer died. Mirrors the transient-failure completion.
  auto fail_request = [&](uint32_t at) {
    ++stats_.io_errors;
    head_cylinder_ = CylinderOf(req.start + at);
    last_block_end_ = req.start + at;
    active_ = false;
    if (tracer_ != nullptr && tracer_->enabled(trace::Category::kDisk)) {
      tracer_->End(trace::Category::kDisk, trace_track_, "service", engine_->now(),
                   static_cast<uint64_t>(Status::kIoError));
    }
    if (req.done) {
      req.done(Status::kIoError);
    }
    if (!powered_off_ && !active_) {
      StartNext();
    }
  };

  // DMA between the platter store and memory frames happens at completion time.
  // Writes become durable one block at a time; a power cut mid-request tears it.
  // Each DMA'd block consults the media-fault model: writes may be lost (acked,
  // never durable) or misdirected (land at the wrong LBA); reads may surface
  // persistent bit rot or hit a latent sector error. Model-only transfers (no
  // frame) touch no media and consult nothing.
  uint32_t lost = 0;  // acked write blocks that never reached the platter
  for (uint32_t i = 0; i < req.nblocks; ++i) {
    if (req.frames.empty() || req.frames[i] == kInvalidFrame) {
      continue;
    }
    auto frame = mem_->Data(req.frames[i]);
    const BlockId blk = req.start + i;
    if (req.write) {
      BlockId land = blk;
      if (faults_ != nullptr) {
        switch (faults_->NextWriteFate(blk, geometry_.num_blocks)) {
          case sim::FaultInjector::WriteFate::kLost:
            ++stats_.lost_blocks;
            ++lost;
            continue;  // acked but never durable: media, tag, cut count untouched
          case sim::FaultInjector::WriteFate::kMisdirect:
            land = static_cast<BlockId>(faults_->MisdirectTarget());
            ++stats_.misdirected_blocks;
            break;
          case sim::FaultInjector::WriteFate::kDurable:
            break;
        }
      }
      std::memcpy(MutableBlock(land).data(), frame.data(), kBlockSize);
      latent_bad_.erase(land);  // rewriting remaps a latent-bad sector
      if (integrity_) {
        // The tag records where the controller *addressed* the data; a
        // misdirected landing is detectable because intended != land.
        tags_[land] = BlockTag{Crc32(RawBlock(land)), blk};
      }
      if (faults_ != nullptr && faults_->OnBlockWritten(land)) {
        // Power dies with this block on the platter and the rest of the request
        // torn away. No completion interrupt ever fires.
        stats_.blocks_written += i + 1 - lost;
        stats_.torn_blocks += req.nblocks - (i + 1);
        if (dropped_counter_ != nullptr) {
          *dropped_counter_ += req.nblocks - (i + 1);
        }
        PowerCut();
        return;
      }
    } else {
      if (latent_bad_.count(blk) != 0) {
        // Persistent latent sector error: unreadable until rewritten, even
        // after the injector that planted it has been detached.
        ++stats_.latent_errors;
        fail_request(i);
        return;
      }
      if (faults_ != nullptr) {
        switch (faults_->NextReadFate(blk, kBlockSize)) {
          case sim::FaultInjector::ReadFate::kRot: {
            // Silent bit rot surfacing at read time: the *media* byte flips,
            // persistently, before the DMA copies it out.
            MutableBlock(blk)[faults_->RotOffset()] ^= 0x20;
            ++stats_.rotted_blocks;
            break;
          }
          case sim::FaultInjector::ReadFate::kLatent:
            latent_bad_.insert(blk);
            ++stats_.latent_errors;
            fail_request(i);
            return;
          case sim::FaultInjector::ReadFate::kClean:
            break;
        }
      }
      std::memcpy(frame.data(), RawBlock(blk).data(), kBlockSize);
    }
  }
  if (req.write) {
    stats_.blocks_written += req.nblocks - lost;
  } else {
    stats_.blocks_read += req.nblocks;
  }

  head_cylinder_ = CylinderOf(req.start + req.nblocks - 1);
  last_block_end_ = req.start + req.nblocks;
  active_ = false;

  if (tracer_ != nullptr && tracer_->enabled(trace::Category::kDisk)) {
    tracer_->End(trace::Category::kDisk, trace_track_, "service", engine_->now(),
                 static_cast<uint64_t>(Status::kOk));
  }

  if (req.done) {
    req.done(Status::kOk);
  }
  // The completion callback may have chained a new request (or cut power): an
  // idle-disk Submit from inside `done` dispatches directly, so only start the
  // queue if the controller is still idle and alive.
  if (!powered_off_ && !active_) {
    StartNext();
  }
}

void Disk::ClearQueue() {
  queue_.clear();
  by_start_.clear();
  merge_tail_[0].clear();
  merge_tail_[1].clear();
}

void Disk::PowerCut() {
  powered_off_ = true;
  ++power_epoch_;  // orphan any completion already scheduled
  ClearQueue();
  active_ = false;
}

void Disk::PowerRestore() {
  powered_off_ = false;
  ClearQueue();
  active_ = false;
  head_cylinder_ = 0;
  last_block_end_ = 0;
}

}  // namespace exo::hw
