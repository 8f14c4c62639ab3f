#include "cluster/cluster.h"

#include <algorithm>
#include <barrier>
#include <thread>
#include <utility>

namespace exo::cluster {

namespace {

sim::Cycles SatAdd(sim::Cycles a, sim::Cycles b) {
  return a > kNever - b ? kNever : a + b;
}

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
  Shard& dst = *shards_[dst_shard];
  if (dst.inbox.size() < shards_.size()) {
    // Only reachable from single-threaded setup code (a Transmit before the
    // first Run); RunLoop sizes every inbox before the pool starts.
    dst.inbox.resize(shards_.size());
  }
  dst.inbox[msg.src_shard].push_back(std::move(msg));
}

void Cluster::DrainShard(uint32_t shard) {
  Shard& s = *shards_[shard];
  s.drain_scratch.clear();
  for (std::vector<CrossMsg>& box : s.inbox) {
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
  s.next_event = s.engine->HasPendingEvents() ? s.engine->NextEventTime() : kNever;
}

void Cluster::RunWindow(uint32_t shard, sim::Cycles horizon) {
  // Runs every event with timestamp < horizon and leaves the clock at
  // horizon - 1, so a cross-shard arrival (always >= horizon) is never in this
  // shard's past when the mailbox drains.
  shards_[shard]->engine->RunUntil(horizon - 1);
}

void Cluster::RunLoop(sim::Cycles deadline) {
  EXO_CHECK(!shards_.empty());
  running_ = true;
  deadline_ = deadline;
  for (auto& s : shards_) {
    if (s->inbox.size() < shards_.size()) {
      s->inbox.resize(shards_.size());
    }
  }
  // Setup code may Transmit before the first Run; fold that mail in before the
  // first horizon is computed.
  for (uint32_t i = 0; i < shards_.size(); ++i) {
    DrainShard(i);
  }

  const uint32_t num_shards = static_cast<uint32_t>(shards_.size());
  const uint32_t T = std::min(std::max(threads_, 1u), num_shards);
  done_ = false;

  // Barrier completion runs exactly once per round, after every worker has
  // drained its shards: the only place round state is written.
  auto completion = [this]() noexcept {
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
  std::barrier round_barrier(T, completion);
  std::barrier mid_barrier(T);

  auto worker = [&](uint32_t w) {
    while (true) {
      round_barrier.arrive_and_wait();  // publishes horizon_ / done_
      if (done_) {
        return;
      }
      const sim::Cycles horizon = horizon_;
      for (uint32_t s = w; s < num_shards; s += T) {
        RunWindow(s, horizon);
      }
      mid_barrier.arrive_and_wait();  // all sends done before any drain reads
      for (uint32_t s = w; s < num_shards; s += T) {
        DrainShard(s);
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
