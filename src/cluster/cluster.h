// Cluster: N simulated machines, each (or each group) on its own event queue,
// advanced in parallel under a conservative lookahead-window protocol.
//
// The single-machine world shares one sim::Engine; a Cluster instead gives
// every shard its own Engine and synchronizes them at the wire-latency
// horizon, the classic conservative PDES scheme (LiveStack shards full-stack
// machines the same way): because every cross-shard packet rides a link with
// latency >= lookahead, a shard executing events in [tmin, tmin + lookahead)
// can never receive a message timestamped inside that window — every send in
// the window happens at local time >= tmin and lands at >= tmin + lookahead.
// Each round takes one barrier. Its last arriver computes tmin, the minimum
// over shards of each shard's next event and the earliest arrival that shard
// posted in the last window, and sets horizon = tmin + lookahead. Then every
// thread drains the mail its shards received in the last window into their
// engines and runs their events with timestamp < horizon, in parallel, while
// the new window's mail goes into the other half of each mailbox. A thread
// waiting at the barrier spins briefly, then parks in std::atomic::wait. The
// phase that releases it is stored seq_cst, so libstdc++'s notify_all cannot
// skip the wake-up of a thread that is just parking (cluster.cc).
//
// Determinism contract (docs/CLUSTER.md): same seed => bit-identical
// counters, traces, and bench output regardless of thread count.
//   - The round/horizon sequence depends only on event timestamps, never on
//     thread scheduling.
//   - Each shard's execution inside a window is single-threaded and
//     deterministic; a shard's state is touched only by the thread running it.
//   - Cross-shard messages are stamped (arrival time, source shard, per-source
//     send seq) and sorted by that key before insertion at the receiving
//     shard, so same-timestamp arrivals tie-break identically no matter which
//     thread produced them first in wall-clock time.
//   - Mailboxes are single-writer single-reader by construction: slot
//     [dst][half][src] is appended only by the thread running shard src during
//     a window and drained only by the thread running shard dst after the next
//     barrier, while windows post into the other half. No locks touch the
//     packet path.
#ifndef EXO_CLUSTER_CLUSTER_H_
#define EXO_CLUSTER_CLUSTER_H_

#include <array>
#include <cstdint>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "hw/nic.h"
#include "sim/check.h"
#include "sim/engine.h"

namespace exo::cluster {

inline constexpr sim::Cycles kNever = std::numeric_limits<sim::Cycles>::max();

// Deterministic per-machine seed derivation: one splitmix64 step over the
// cluster seed and the machine's stream id. Machines draw from disjoint,
// reproducible streams no matter how shards are grouped or threaded.
inline uint64_t DeriveSeed(uint64_t cluster_seed, uint64_t stream) {
  uint64_t z = cluster_seed + 0x9e3779b97f4a7c15ULL * (stream + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

class Cluster;

// hw::Link across shards: the same wire model, with each direction
// serializing against its *sender's* shard clock (engine_for) and each arrival
// posted to the receiving shard's mailbox (Arrive), where it materializes as a
// timestamped event at the next horizon. Latency is clamped to >= 1 cycle: a
// zero-latency cross-shard wire would leave the conservative protocol no
// lookahead window. Arm faults and tracing per direction (the ...For setters):
// a direction is touched only by its sender's shard thread, which keeps the
// packet path lock-free.
class ShardLink : public hw::Link {
 public:
  sim::Engine* engine_for(const hw::Nic* side) const override;

 private:
  friend class Cluster;
  ShardLink(Cluster* cluster, uint32_t shard_a, uint32_t shard_b,
            double mbit_per_s, double latency_us, uint32_t cpu_mhz);

  void Arrive(hw::Nic* to, hw::Packet p, sim::Cycles arrival) override;

  Cluster* cluster_;
  uint32_t shard_a_;
  uint32_t shard_b_;
};

struct ClusterOptions {
  // OS threads executing shard windows. Shard k runs on thread k % threads in
  // ascending shard order, so the assignment is deterministic; 1 runs every
  // window inline with no pool. Behavior is bit-identical for any value.
  uint32_t threads = 1;
  // Root seed; per-machine seeds derive from it via DeriveSeed.
  uint64_t seed = 1;
};

class Cluster {
 public:
  explicit Cluster(const ClusterOptions& options = {});
  Cluster(const Cluster&) = delete;
  Cluster& operator=(const Cluster&) = delete;

  // Creates a shard (one event queue + clock). Shards and links must be set up
  // before the first Run/RunUntil.
  uint32_t AddShard(std::string name);
  size_t num_shards() const { return shards_.size(); }
  sim::Engine& engine(uint32_t shard) { return *shards_[shard]->engine; }
  const std::string& shard_name(uint32_t shard) const { return shards_[shard]->name; }

  uint64_t seed() const { return seed_; }
  uint64_t DeriveSeed(uint64_t stream) const {
    return cluster::DeriveSeed(seed_, stream);
  }

  // Wires two NICs together. Different shards: a ShardLink through the
  // conservative fabric (latency clamped to >= 1 cycle). Same shard: a plain
  // hw::Link on that shard's engine — machine groups colocated on one shard
  // keep the exact single-engine wire semantics. The cluster owns the link.
  hw::Link* Connect(uint32_t shard_a, hw::Nic* a, uint32_t shard_b, hw::Nic* b,
                    double mbit_per_s, double latency_us, uint32_t cpu_mhz = 200);

  // Runs conservative rounds until no shard has a pending event and every
  // mailbox is drained.
  void Run() { RunLoop(kNever); }
  // Runs all events with timestamp <= t, then sets every shard clock to
  // exactly t (the cluster-wide analogue of Engine::RunUntil).
  void RunUntil(sim::Cycles t);

  // The conservative window: the minimum cross-shard link latency, in cycles.
  // kNever when no cross-shard links exist (fully independent shards run to
  // completion in one round).
  sim::Cycles lookahead() const { return lookahead_; }
  uint32_t threads() const { return threads_; }
  uint64_t rounds() const { return rounds_; }
  uint64_t cross_messages() const;

 private:
  friend class ShardLink;

  // One cross-shard packet in flight between windows.
  struct CrossMsg {
    sim::Cycles arrival;
    uint32_t src_shard;
    uint64_t seq;  // per-source-shard send order
    hw::Nic* nic;
    hw::Packet packet;
  };

  struct Shard {
    std::unique_ptr<sim::Engine> engine;
    std::string name;
    uint64_t next_msg_seq = 1;
    uint64_t messages_in = 0;
    // Earliest pending work as of the last closed window: this shard's next
    // event, or the earliest arrival it posted (still in a mailbox).
    sim::Cycles next_event = kNever;
    // Earliest arrival this shard posted since its last closed window.
    sim::Cycles earliest_post = kNever;
    // inbox[half][src]: written only by the thread running shard src during a
    // window, drained only by this shard's thread after the next barrier.
    std::array<std::vector<std::vector<CrossMsg>>, 2> inbox;
    std::vector<CrossMsg> drain_scratch;
  };

  // Called from the sending shard's thread (ShardLink::Arrive).
  void Post(uint32_t dst_shard, CrossMsg msg);
  // Inserts one half of this shard's mailbox into its engine in sorted order.
  // Runs on the thread owning the shard.
  void DrainShard(uint32_t shard, uint32_t half);
  // Sets next_event from the engine and the mail posted since the last call.
  void CloseWindow(Shard& s);
  void RunWindow(uint32_t shard, sim::Cycles horizon);
  void RunLoop(sim::Cycles deadline);

  uint32_t threads_;
  uint64_t seed_;
  std::vector<std::unique_ptr<Shard>> shards_;
  std::vector<std::unique_ptr<hw::Link>> links_;
  sim::Cycles lookahead_ = kNever;
  sim::Cycles deadline_ = kNever;
  uint64_t rounds_ = 0;
  bool running_ = false;

  // Round state shared with workers; written only in barrier completion or
  // before the pool starts, so barrier ordering publishes it.
  sim::Cycles horizon_ = 0;
  bool done_ = false;
  // The mailbox half that Post appends to: flipped by every barrier.
  uint32_t post_half_ = 0;
};

}  // namespace exo::cluster

#endif  // EXO_CLUSTER_CLUSTER_H_
