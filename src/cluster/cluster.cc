#include "cluster/cluster.h"

#include <algorithm>
#include <atomic>
#include <thread>
#include <utility>

namespace exo::cluster {

namespace {

sim::Cycles SatAdd(sim::Cycles a, sim::Cycles b) {
  return a > kNever - b ? kNever : a + b;
}

// How long a thread waiting at the round barrier spins before it parks: 300
// pauses, about 6 us where a pause takes about 19 ns (x86). Many rounds end
// within that, which saves the futex wait and wake that parking costs. A
// longer spin takes CPU from the threads still running their windows when the
// host has fewer free cores than engine threads: at 1000 iterations,
// cluster_scale's 4-thread lane ran about 1.5x slower on a busy 4-vCPU VM.
constexpr int kSpinIterations = 300;

void CpuRelax() {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#elif defined(__aarch64__)
  asm volatile("yield");
#endif
}

// A reusable barrier for a fixed set of threads. The last thread to arrive
// runs the completion and then opens the next phase; the others spin for
// kSpinIterations and then park on the phase word.
class RoundBarrier {
 public:
  explicit RoundBarrier(uint32_t parties) : parties_(parties), remaining_(parties) {}
  RoundBarrier(const RoundBarrier&) = delete;
  RoundBarrier& operator=(const RoundBarrier&) = delete;

  template <typename Completion>
  void ArriveAndWait(Completion& completion) {
    // This thread left the previous phase, and this one cannot end without
    // it, so the relaxed load reads the current phase.
    const uint32_t phase = phase_.load(std::memory_order_relaxed);
    // acq_rel: every arrival releases its thread's window writes, and the
    // last arrival acquires all of them before it runs the completion.
    if (remaining_.fetch_sub(1, std::memory_order_acq_rel) == 1) {
      completion();
      remaining_.store(parties_, std::memory_order_relaxed);
      // seq_cst, not release: libstdc++'s notify_all skips the futex wake
      // when its count of parked waiters reads 0, and a release store may be
      // reordered after that read. A waiter that registers in between then
      // reads the old phase, parks, and is never woken.
      phase_.store(phase + 1, std::memory_order_seq_cst);
      phase_.notify_all();
      return;
    }
    for (int i = 0; i < kSpinIterations; ++i) {
      if (phase_.load(std::memory_order_acquire) != phase) {
        return;
      }
      CpuRelax();
    }
    phase_.wait(phase);
  }

 private:
  const uint32_t parties_;
  alignas(64) std::atomic<uint32_t> remaining_;
  alignas(64) std::atomic<uint32_t> phase_{0};
};

}  // namespace

ShardLink::ShardLink(Cluster* cluster, uint32_t shard_a, uint32_t shard_b,
                     double mbit_per_s, double latency_us, uint32_t cpu_mhz)
    : hw::Link(nullptr, mbit_per_s, latency_us, cpu_mhz),
      cluster_(cluster),
      shard_a_(shard_a),
      shard_b_(shard_b) {
  // A zero-latency cross-shard wire would leave the conservative protocol no
  // window to parallelize; clamp to one cycle of lookahead.
  if (latency_cycles_ < 1) {
    latency_cycles_ = 1;
  }
}

sim::Engine* ShardLink::engine_for(const hw::Nic* side) const {
  return cluster_->shards_[side == a_ ? shard_a_ : shard_b_]->engine.get();
}

void ShardLink::Arrive(hw::Nic* to, hw::Packet p, sim::Cycles arrival) {
  // Runs on the sender's shard thread, inside Link::Send.
  const uint32_t src = to == b_ ? shard_a_ : shard_b_;
  const uint32_t dst = to == b_ ? shard_b_ : shard_a_;
  cluster_->Post(dst, Cluster::CrossMsg{arrival, src, cluster_->shards_[src]->next_msg_seq++,
                                        to, std::move(p)});
}

Cluster::Cluster(const ClusterOptions& options)
    : threads_(options.threads == 0 ? 1 : options.threads), seed_(options.seed) {}

uint32_t Cluster::AddShard(std::string name) {
  EXO_CHECK(!running_);
  auto s = std::make_unique<Shard>();
  s->engine = std::make_unique<sim::Engine>();
  s->name = std::move(name);
  shards_.push_back(std::move(s));
  for (auto& shard : shards_) {
    for (auto& half : shard->inbox) {
      half.resize(shards_.size());
    }
  }
  return static_cast<uint32_t>(shards_.size() - 1);
}

hw::Link* Cluster::Connect(uint32_t shard_a, hw::Nic* a, uint32_t shard_b,
                           hw::Nic* b, double mbit_per_s, double latency_us,
                           uint32_t cpu_mhz) {
  EXO_CHECK(!running_);
  EXO_CHECK(shard_a < shards_.size());
  EXO_CHECK(shard_b < shards_.size());
  if (shard_a == shard_b) {
    auto link = std::make_unique<hw::Link>(shards_[shard_a]->engine.get(),
                                           mbit_per_s, latency_us, cpu_mhz);
    link->Connect(a, b);
    links_.push_back(std::move(link));
  } else {
    std::unique_ptr<ShardLink> link(
        new ShardLink(this, shard_a, shard_b, mbit_per_s, latency_us, cpu_mhz));
    lookahead_ = std::min(lookahead_, link->latency_cycles_);
    link->Connect(a, b);
    links_.push_back(std::move(link));
  }
  return links_.back().get();
}

void Cluster::Post(uint32_t dst_shard, CrossMsg msg) {
  Shard& src = *shards_[msg.src_shard];
  src.earliest_post = std::min(src.earliest_post, msg.arrival);
  shards_[dst_shard]->inbox[post_half_][msg.src_shard].push_back(std::move(msg));
}

void Cluster::DrainShard(uint32_t shard, uint32_t half) {
  Shard& s = *shards_[shard];
  s.drain_scratch.clear();
  for (std::vector<CrossMsg>& box : s.inbox[half]) {
    for (CrossMsg& m : box) {
      s.drain_scratch.push_back(std::move(m));
    }
    box.clear();
  }
  // The (arrival, src_shard, seq) key is assigned in deterministic simulated
  // order on the sending side, so sorting by it makes insertion order — and
  // therefore the engine's same-timestamp tie-break — independent of which
  // thread filled which inbox slot first.
  std::sort(s.drain_scratch.begin(), s.drain_scratch.end(),
            [](const CrossMsg& x, const CrossMsg& y) {
              if (x.arrival != y.arrival) {
                return x.arrival < y.arrival;
              }
              if (x.src_shard != y.src_shard) {
                return x.src_shard < y.src_shard;
              }
              return x.seq < y.seq;
            });
  s.messages_in += s.drain_scratch.size();
  for (CrossMsg& m : s.drain_scratch) {
    s.engine->ScheduleAt(m.arrival, [nic = m.nic, p = std::move(m.packet)]() mutable {
      nic->Deliver(std::move(p));
    });
  }
  s.drain_scratch.clear();
}

void Cluster::CloseWindow(Shard& s) {
  const sim::Cycles own = s.engine->HasPendingEvents() ? s.engine->NextEventTime() : kNever;
  s.next_event = std::min(own, s.earliest_post);
  s.earliest_post = kNever;
}

void Cluster::RunWindow(uint32_t shard, sim::Cycles horizon) {
  // Runs every event with timestamp < horizon and leaves the clock at
  // horizon - 1, so a cross-shard arrival (always >= horizon) is never in this
  // shard's past when the mailbox drains.
  Shard& s = *shards_[shard];
  s.engine->RunUntil(horizon - 1);
  CloseWindow(s);
}

void Cluster::RunLoop(sim::Cycles deadline) {
  EXO_CHECK(!shards_.empty());
  running_ = true;
  deadline_ = deadline;
  // Setup code may Transmit before the first Run; that mail waits in the
  // current half and counts toward the first horizon like a window's.
  for (auto& s : shards_) {
    CloseWindow(*s);
  }

  const uint32_t num_shards = static_cast<uint32_t>(shards_.size());
  const uint32_t T = std::min(std::max(threads_, 1u), num_shards);
  done_ = false;

  // Barrier completion runs exactly once per round, after every worker has
  // closed its windows: the only place round state is written. Every shard's
  // next_event already covers the mail it posted, so tmin is the earliest
  // pending event cluster-wide even though that mail is not yet drained.
  auto completion = [this]() {
    post_half_ ^= 1;
    sim::Cycles tmin = kNever;
    for (const auto& s : shards_) {
      tmin = std::min(tmin, s->next_event);
    }
    if (tmin == kNever || tmin > deadline_) {
      done_ = true;
      return;
    }
    horizon_ = SatAdd(tmin, lookahead_);
    if (deadline_ != kNever) {
      horizon_ = std::min(horizon_, deadline_ + 1);
    }
    ++rounds_;
  };
  RoundBarrier barrier(T);

  auto worker = [&](uint32_t w) {
    while (true) {
      barrier.ArriveAndWait(completion);  // publishes horizon_ / done_ / post_half_
      // The half the last window posted into. This round's windows post into
      // the other one, so senders never touch what is being drained.
      const uint32_t drain_half = post_half_ ^ 1;
      for (uint32_t s = w; s < num_shards; s += T) {
        DrainShard(s, drain_half);
      }
      if (done_) {
        return;
      }
      const sim::Cycles horizon = horizon_;
      for (uint32_t s = w; s < num_shards; s += T) {
        RunWindow(s, horizon);
      }
    }
  };

  std::vector<std::thread> pool;
  pool.reserve(T - 1);
  for (uint32_t w = 1; w < T; ++w) {
    pool.emplace_back(worker, w);
  }
  worker(0);
  for (std::thread& t : pool) {
    t.join();
  }
}

void Cluster::RunUntil(sim::Cycles t) {
  RunLoop(t);
  // Windows leave clocks at horizon - 1 <= t; align every shard to exactly t,
  // mirroring Engine::RunUntil semantics cluster-wide.
  for (auto& s : shards_) {
    s->engine->RunUntil(t);
  }
}

uint64_t Cluster::cross_messages() const {
  uint64_t total = 0;
  for (const auto& s : shards_) {
    total += s->messages_in;
  }
  return total;
}

}  // namespace exo::cluster
