#include "hw/nic.h"

#include <algorithm>
#include <utility>

namespace exo::hw {

bool Nic::Transmit(Packet p) {
  EXO_CHECK(link_ != nullptr);
  EXO_CHECK_LE(p.bytes.size(), kMaxFrameBytes);
  if (!up_) {
    ++stats_.tx_rejected;
    if (rejected_counter_ != nullptr) {
      ++*rejected_counter_;
    }
    return false;
  }
  ++stats_.tx_packets;
  stats_.tx_bytes += p.bytes.size();
  link_->Send(this, std::move(p));
  return true;
}

void Nic::Deliver(Packet p) {
  if (!up_) {
    // The host is dead: frames already on the wire arrive at silicon nobody
    // powers. The sender paid for the wire, so this is loss, not backpressure.
    ++stats_.dropped;
    if (dropped_counter_ != nullptr) {
      ++*dropped_counter_;
    }
    return;
  }
  if (probe_responder_ && !p.bytes.empty() && p.bytes[0] == kProbeProto &&
      p.bytes.size() >= kProbeFrameBytes) {
    // Firmware echo: account the rx, swap prober/destination ips, and send the
    // same frame back. Runs before the host handler — liveness needs no stack.
    ++stats_.rx_packets;
    stats_.rx_bytes += p.bytes.size();
    for (size_t i = 1; i <= 4; ++i) {
      std::swap(p.bytes[i], p.bytes[i + 4]);
    }
    Transmit(std::move(p));
    return;
  }
  ++stats_.rx_packets;
  stats_.rx_bytes += p.bytes.size();
  if (rx_handler_) {
    rx_handler_(std::move(p));
  } else {
    ++stats_.dropped;
    if (dropped_counter_ != nullptr) {
      ++*dropped_counter_;
    }
  }
}

void Link::SetFaultInjectorFor(const Nic* sender, sim::FaultInjector* faults) {
  Direction& dir = direction(sender);
  dir.faults = faults;
  if (dir.faults != nullptr && dir.tracer != nullptr) {
    dir.faults->AttachTracer(dir.tracer, engine_for(sender));
  }
}

void Link::AttachTracerFor(const Nic* sender, trace::Tracer* tracer,
                           const std::string& name) {
  Direction& dir = direction(sender);
  dir.tracer = tracer;
  if (dir.tracer != nullptr) {
    dir.track = dir.tracer->NewTrack(name);
    if (dir.faults != nullptr) {
      dir.faults->AttachTracer(dir.tracer, engine_for(sender));
    }
  }
}

void Link::Send(Nic* from, Packet p) {
  Direction& dir = direction(from);
  Nic* to = from == a_ ? b_ : a_;

  const uint64_t wire_bytes =
      std::max<uint64_t>(p.bytes.size(), kMinFrameBytes) + kFrameWireOverhead;
  const sim::Cycles serialize =
      static_cast<sim::Cycles>(static_cast<double>(wire_bytes) * cycles_per_byte_);

  // Each direction is touched only by its sender, which serializes against its
  // own clock — on a cross-shard link, its own shard thread.
  const sim::Cycles start = std::max(engine_for(from)->now(), dir.busy_until);
  dir.busy_until = start + serialize;
  const sim::Cycles arrival = dir.busy_until + latency_cycles_;

  const bool tracing = dir.tracer != nullptr && dir.tracer->enabled(trace::Category::kNet);
  if (tracing) {
    // Serialization windows per direction never overlap (start >= prior busy_until).
    dir.tracer->Begin(trace::Category::kNet, dir.track, "wire", start, wire_bytes);
    dir.tracer->End(trace::Category::kNet, dir.track, "wire", dir.busy_until, wire_bytes);
  }

  if (dir.faults != nullptr) {
    switch (dir.faults->NextWireFate(p.bytes.size())) {
      case sim::FaultInjector::WireFate::kDrop:
        return;  // wire time was consumed, but the frame never arrives
      case sim::FaultInjector::WireFate::kCorrupt:
        p.bytes[dir.faults->CorruptionOffset()] ^= 0xff;
        break;
      case sim::FaultInjector::WireFate::kDuplicate: {
        // The duplicate trails the original by one serialization slot, as if the
        // sender's retransmit logic fired spuriously.
        dir.busy_until += serialize;
        if (tracing) {
          dir.tracer->Begin(trace::Category::kNet, dir.track, "wire_dup",
                            dir.busy_until - serialize, wire_bytes);
          dir.tracer->End(trace::Category::kNet, dir.track, "wire_dup", dir.busy_until,
                          wire_bytes);
        }
        Arrive(to, p, dir.busy_until + latency_cycles_);
        break;
      }
      case sim::FaultInjector::WireFate::kDeliver:
        break;
    }
  }

  if (tracing) {
    dir.tracer->Instant(trace::Category::kNet, dir.track, "arrive", arrival, wire_bytes);
  }
  Arrive(to, std::move(p), arrival);
}

void Link::Arrive(Nic* to, Packet p, sim::Cycles arrival) {
  engine_->ScheduleAt(arrival, [to, p = std::move(p)]() mutable { to->Deliver(std::move(p)); });
}

}  // namespace exo::hw
