// Network interface and point-to-point link with a bandwidth/latency wire model.
//
// Modeled after the paper's testbed of 100-Mbit/s Ethernets (the Cheetah experiment
// uses three of them, Sec. 7.3). Each direction of a link serializes frames at the wire
// rate, so per-packet overheads and total bytes on the wire are both first-class: the
// two quantities Cheetah's packet-merging and zero-copy optimizations attack.
#ifndef EXO_HW_NIC_H_
#define EXO_HW_NIC_H_

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "sim/check.h"
#include "sim/counters.h"
#include "sim/engine.h"
#include "sim/fault.h"
#include "trace/trace.h"

namespace exo::cluster {
class Cluster;
}  // namespace exo::cluster

namespace exo::hw {

struct Packet {
  std::vector<uint8_t> bytes;
};

// Ethernet-ish frame bounds; the wire model charges at least min_frame_bytes.
constexpr uint32_t kMaxFrameBytes = 1514;
constexpr uint32_t kMinFrameBytes = 64;
constexpr uint32_t kFrameWireOverhead = 24;  // preamble + FCS + inter-frame gap

// Health-probe frame: byte 0 carries this protocol tag (disjoint from the
// TCP/UDP tags in net/packet.h), bytes 1..4 the prober's ip, bytes 5..8 the
// destination ip, bytes 9..16 a little-endian probe sequence. A NIC with the
// probe responder armed echoes the frame with the ips swapped — firmware-level
// liveness, deliberately below the TCP stack so a wedged or killed host stays
// silent exactly like dead hardware.
constexpr uint8_t kProbeProto = 0xEE;
constexpr uint32_t kProbeFrameBytes = 17;

struct NicStats {
  uint64_t tx_packets = 0;
  uint64_t rx_packets = 0;
  uint64_t tx_bytes = 0;
  uint64_t rx_bytes = 0;
  // Frames lost after they reached the NIC: arrival at a down NIC, or with no
  // receive handler installed.
  uint64_t dropped = 0;
  // Frames refused by a down NIC: the host keeps the buffer — backpressure,
  // not loss.
  uint64_t tx_rejected = 0;
};

class Link;

class Nic {
 public:
  explicit Nic(uint32_t id) : id_(id) {}

  uint32_t id() const { return id_; }

  // The kernel installs the receive handler; it runs at packet arrival time and
  // performs demultiplexing (packet filters on Xok, in-kernel protocol input on BSD).
  void SetReceiveHandler(std::function<void(Packet)> handler) {
    rx_handler_ = std::move(handler);
  }

  // Queues a frame for transmission on the attached link. Returns false (frame
  // refused, `nic.rejected`) while the NIC is down.
  bool Transmit(Packet p);

  void AttachLink(Link* link) { link_ = link; }
  Link* link() const { return link_; }

  // Caches `nic.rejected` / `nic.dropped` slots (docs/OBSERVABILITY.md).
  void AttachCounters(sim::Counters* counters) {
    rejected_counter_ = counters != nullptr ? counters->Handle("nic.rejected") : nullptr;
    dropped_counter_ = counters != nullptr ? counters->Handle("nic.dropped") : nullptr;
  }

  const NicStats& stats() const { return stats_; }

  // Power state. While down (machine kill), Transmit refuses (`nic.rejected`)
  // and arrivals drop on the floor (`nic.dropped`) — the wire itself keeps
  // working, the host on this end does not.
  void SetUp(bool up) { up_ = up; }
  bool up() const { return up_; }

  // Arms the probe responder: kProbeProto frames are echoed (ips swapped)
  // straight from Deliver, before the host receive handler. Dead NICs stay
  // silent, which is what makes the echo a liveness signal.
  void EnableProbeResponder() { probe_responder_ = true; }

 private:
  friend class Link;
  // The cluster fabric delivers cross-shard arrivals at the receiving shard's
  // horizon, outside any Link::Send call.
  friend class cluster::Cluster;
  void Deliver(Packet p);

  uint32_t id_;
  Link* link_ = nullptr;
  std::function<void(Packet)> rx_handler_;
  NicStats stats_;
  bool up_ = true;
  bool probe_responder_ = false;
  sim::Counters::Slot* rejected_counter_ = nullptr;
  sim::Counters::Slot* dropped_counter_ = nullptr;
};

// Full-duplex point-to-point wire. Each direction is an independent serialization
// queue: a frame occupies the wire for (bytes + overhead) * 8 / bandwidth and arrives
// at the far side after an additional propagation latency.
//
// Each direction carries its own fault and trace state, consulted only when its
// sender transmits. The cluster fabric (cluster::ShardLink) reuses this one wire
// model across shards: it overrides engine_for, so each direction serializes on
// its sender's shard clock, and Arrive, so arrivals cross through the
// conservative-horizon mailbox instead of this engine's queue.
class Link {
 public:
  Link(sim::Engine* engine, double mbit_per_s, double latency_us, uint32_t cpu_mhz)
      : latency_cycles_(static_cast<sim::Cycles>(latency_us * cpu_mhz)),
        engine_(engine),
        cycles_per_byte_(static_cast<double>(cpu_mhz) * 8.0 / mbit_per_s) {}
  virtual ~Link() = default;
  // Connected NICs hold the link's address.
  Link(const Link&) = delete;
  Link& operator=(const Link&) = delete;

  void Connect(Nic* a, Nic* b) {
    a_ = a;
    b_ = b;
    a->AttachLink(this);
    b->AttachLink(this);
  }

  // Serializes a frame onto the wire in `from`'s direction and hands every
  // copy that survives the direction's fault injector to Arrive.
  void Send(Nic* from, Packet p);

  // The engine carrying `side`'s events. One engine serves both sides of a
  // plain link; a cross-shard link returns the shard engine that owns that side.
  virtual sim::Engine* engine_for(const Nic* side) const { return engine_; }

  // Arms (or disarms, with nullptr) drop/corrupt/duplicate injection for the
  // direction whose sender is `sender` (one of the two connected NICs; call after
  // Connect). The injector is consulted once per frame in send order; it is also
  // wired to the direction's tracer, when attached, so injected fates land on the
  // sender's timeline (first attachment wins).
  void SetFaultInjectorFor(const Nic* sender, sim::FaultInjector* faults);
  // Attaches wire-occupancy tracing (`net` spans + arrival instants) for the
  // direction whose sender is `sender`, on a track named `name`. Events are
  // stamped with the sender's clock, so the tracer must belong to the sender's
  // machine whenever the two sides run on different engines.
  void AttachTracerFor(const Nic* sender, trace::Tracer* tracer, const std::string& name);

  // Both directions at once: one injector, or one tracer with tracks `name`.a2b
  // and `name`.b2a. Only for links whose sides share an engine — on a
  // cross-shard link each direction is touched by a different thread.
  void SetFaultInjector(sim::FaultInjector* faults) {
    EXO_CHECK(engine_for(a_) == engine_for(b_));
    SetFaultInjectorFor(a_, faults);
    SetFaultInjectorFor(b_, faults);
  }
  void AttachTracer(trace::Tracer* tracer, const std::string& name) {
    EXO_CHECK(engine_for(a_) == engine_for(b_));
    AttachTracerFor(a_, tracer, name + ".a2b");
    AttachTracerFor(b_, tracer, name + ".b2a");
  }

 protected:
  // Delivers a frame to `to` at simulated time `arrival`. A plain link
  // schedules the delivery on its engine.
  virtual void Arrive(Nic* to, Packet p, sim::Cycles arrival);

  sim::Cycles latency_cycles_;
  Nic* a_ = nullptr;
  Nic* b_ = nullptr;

 private:
  struct Direction {
    sim::Cycles busy_until = 0;
    sim::FaultInjector* faults = nullptr;
    trace::Tracer* tracer = nullptr;
    uint32_t track = 0;
  };
  Direction& direction(const Nic* sender) {
    EXO_CHECK(sender != nullptr && (sender == a_ || sender == b_));
    return sender == a_ ? dir_ab_ : dir_ba_;
  }

  sim::Engine* engine_;
  double cycles_per_byte_;
  Direction dir_ab_;
  Direction dir_ba_;
};

}  // namespace exo::hw

#endif  // EXO_HW_NIC_H_
