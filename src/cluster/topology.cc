#include "cluster/topology.h"

#include <utility>

#include "net/packet.h"

namespace exo::cluster {

namespace {

uint32_t LoadLe32(const hw::Packet& p, uint32_t off) {
  return static_cast<uint32_t>(p.bytes[off]) |
         (static_cast<uint32_t>(p.bytes[off + 1]) << 8) |
         (static_cast<uint32_t>(p.bytes[off + 2]) << 16) |
         (static_cast<uint32_t>(p.bytes[off + 3]) << 24);
}

uint16_t LoadLe16(const hw::Packet& p, uint32_t off) {
  return static_cast<uint16_t>(static_cast<uint32_t>(p.bytes[off]) |
                               (static_cast<uint32_t>(p.bytes[off + 1]) << 8));
}

// Frames shorter than the transport header can't be routed.
constexpr size_t kMinRoutable = net::kOffDstPort + 2;

}  // namespace

Topology::Topology(const TopologyConfig& config)
    : config_(config), cluster_(ClusterOptions{config.threads, config.seed}) {
  EXO_CHECK(config_.servers > 0);
  EXO_CHECK(config_.machines_per_shard > 0);

  const uint32_t total =
      (config_.front_end_lb ? 1 : 0) + config_.servers + config_.clients;
  const uint32_t shards = (total + config_.machines_per_shard - 1) / config_.machines_per_shard;
  for (uint32_t s = 0; s < shards; ++s) {
    cluster_.AddShard("shard" + std::to_string(s));
  }

  for (uint32_t id = 0; id < total; ++id) {
    hw::MachineConfig mc = config_.machine;
    mc.seed = cluster_.DeriveSeed(id);
    if (config_.front_end_lb) {
      if (id == 0) {
        mc.num_nics = config_.clients + config_.servers;  // one port per wire
      } else {
        mc.num_nics = 1;
      }
    } else {
      if (id < config_.servers) {
        // Server k faces every client with j % servers == k on its own NIC.
        uint32_t fan_in = 0;
        for (uint32_t j = id; j < config_.clients; j += config_.servers) {
          ++fan_in;
        }
        mc.num_nics = fan_in > 0 ? fan_in : 1;
      } else {
        mc.num_nics = 1;
      }
    }
    auto m = std::make_unique<hw::Machine>(&cluster_.engine(shard_of(id)), mc);
    m->SetClusterIdentity(id);
    machines_.push_back(std::move(m));
  }

  if (config_.front_end_lb) {
    WireBalancer();
  } else {
    WireDirect();
  }
}

void Topology::WireBalancer() {
  hw::Machine& lb = balancer();
  const uint32_t mhz = config_.machine.cost.cpu_mhz;
  lb_cpu_ = std::make_unique<sim::CpuMeter>(&engine_of(0));
  lb_forwarded_ = lb.counters().Handle("lb.forwarded");
  lb_no_route_ = lb.counters().Handle("lb.no_route");
  lb_ejected_ = lb.counters().Handle("lb.ejected");
  lb_readmitted_ = lb.counters().Handle("lb.readmitted");
  lb_pins_evicted_ = lb.counters().Handle("lb.pins_evicted");
  lb_failover_reroutes_ = lb.counters().Handle("lb.failover_reroutes");

  // Balancer NIC j < clients faces client j; NIC clients + k faces server k.
  for (uint32_t j = 0; j < config_.clients; ++j) {
    cluster_.Connect(shard_of(0), &lb.nic(j), shard_of(client_id(j)),
                     &client(j).nic(0), config_.client_mbit_per_s,
                     config_.client_latency_us, mhz);
    lb.nic(j).SetReceiveHandler([this, j](hw::Packet p) {
      ForwardFromClient(j, std::move(p));
    });
  }
  for (uint32_t k = 0; k < config_.servers; ++k) {
    cluster_.Connect(shard_of(0), &lb.nic(config_.clients + k),
                     shard_of(server_id(k)), &server(k).nic(0),
                     config_.rack_mbit_per_s, config_.rack_latency_us, mhz);
    lb.nic(config_.clients + k).SetReceiveHandler([this, k](hw::Packet p) {
      OnServerFrame(k, std::move(p));
    });
  }
}

void Topology::WireDirect() {
  const uint32_t mhz = config_.machine.cost.cpu_mhz;
  for (uint32_t j = 0; j < config_.clients; ++j) {
    const uint32_t k = server_for_client(j);
    cluster_.Connect(shard_of(server_id(k)), &server(k).nic(server_nic_for_client(j)),
                     shard_of(client_id(j)), &client(j).nic(0),
                     config_.client_mbit_per_s, config_.client_latency_us, mhz);
  }
}

uint64_t Topology::FlowKey(const hw::Packet& p) const {
  uint16_t port = LoadLe16(p, net::kOffSrcPort);
  if (p.bytes[net::kOffProto] == net::kProtoTcp &&
      p.bytes.size() >= net::kIpHeaderBytes + net::kTcpHeaderBytes) {
    port = LoadLe16(p, net::kIpHeaderBytes);  // real TCP source port
  }
  return (static_cast<uint64_t>(LoadLe32(p, net::kOffSrcIp)) << 16) | port;
}

uint32_t Topology::PickBackend() {
  for (uint32_t i = 0; i < config_.servers; ++i) {
    const uint32_t k = (lb_next_backend_ + i) % config_.servers;
    if (lb_health_.empty() || !lb_health_[k].ejected) {
      lb_next_backend_ = (k + 1) % config_.servers;
      return k;
    }
  }
  return kNoBackend;
}

void Topology::EvictPin(uint64_t flow, bool reroute_expected) {
  if (lb_flows_.erase(flow) == 0) {
    return;
  }
  ++*lb_pins_evicted_;
  if (reroute_expected) {
    pending_reroute_.insert(flow);
  }
}

void Topology::ForwardFromClient(uint32_t client_nic, hw::Packet p) {
  if (p.bytes.size() < kMinRoutable) {
    ++*lb_no_route_;
    return;
  }
  // Pin the flow (src ip, src port) to a backend round-robin on first sight,
  // so every segment of a connection reaches the same server. Fresh pins skip
  // ejected backends; existing pins are honored as-is — with health checks
  // disabled a pinned flow keeps routing to a dead backend (the blackhole
  // bench/failover demonstrates).
  const uint64_t flow = FlowKey(p);
  auto it = lb_flows_.find(flow);
  if (it == lb_flows_.end()) {
    const uint32_t backend = PickBackend();
    if (backend == kNoBackend) {
      ++*lb_no_route_;
      return;
    }
    it = lb_flows_.emplace(flow, FlowPin{backend, 0, false}).first;
    if (pending_reroute_.erase(flow) != 0) {
      ++*lb_failover_reroutes_;
    }
  }
  FlowPin& pin = it->second;
  const uint32_t backend = pin.backend;

  // Track the client's close so the pin table doesn't accumulate dead flows
  // (stale pins would also mis-route a reused source port after a failover).
  // RST tears the pin down immediately; FIN starts an epoch-guarded linger so
  // the rest of the close handshake still reaches the pinned backend.
  constexpr uint32_t kFlagsOff = net::kIpHeaderBytes + 12;
  bool evict_now = false;
  if (p.bytes[net::kOffProto] == net::kProtoTcp && p.bytes.size() > kFlagsOff) {
    const uint8_t flags = p.bytes[kFlagsOff];
    if ((flags & net::kFlagRst) != 0) {
      evict_now = true;
    } else if ((flags & net::kFlagFin) != 0) {
      if (!pin.closing) {
        pin.closing = true;
        const uint64_t epoch = ++pin.close_epoch;
        const sim::Cycles linger = static_cast<sim::Cycles>(
            config_.lb_pin_linger_us * config_.machine.cost.cpu_mhz);
        engine_of(0).ScheduleAfter(linger, [this, flow, epoch] {
          auto fit = lb_flows_.find(flow);
          if (fit != lb_flows_.end() && fit->second.closing &&
              fit->second.close_epoch == epoch) {
            EvictPin(flow, /*reroute_expected=*/false);
          }
        });
      }
    } else if (pin.closing && (flags & net::kFlagAck) == 0) {
      // Non-close traffic (e.g. a reused source port's SYN) revives the pin;
      // the pending eviction sees a bumped epoch and stands down.
      pin.closing = false;
      ++pin.close_epoch;
    }
  }

  (void)client_nic;
  hw::Nic* out = &balancer().nic(config_.clients + backend);
  const sim::Cycles done = lb_cpu_->Occupy(config_.lb_forward_cost);
  ++*lb_forwarded_;
  engine_of(0).ScheduleAt(done, [out, p = std::move(p)]() mutable {
    out->Transmit(std::move(p));
  });
  if (evict_now) {
    EvictPin(flow, /*reroute_expected=*/false);
  }
}

void Topology::OnServerFrame(uint32_t backend, hw::Packet p) {
  // Probe echoes (hw::kProbeProto) are balancer-internal liveness traffic;
  // everything else forwards to the addressed client.
  if (!p.bytes.empty() && p.bytes[0] == hw::kProbeProto &&
      p.bytes.size() >= hw::kProbeFrameBytes) {
    if (backend < lb_health_.size()) {
      uint64_t seq = 0;
      for (uint32_t i = 0; i < 8; ++i) {
        seq |= static_cast<uint64_t>(p.bytes[9 + i]) << (8 * i);
      }
      BackendHealth& h = lb_health_[backend];
      if (seq > h.last_reply_seq) {
        h.last_reply_seq = seq;
      }
      h.strikes = 0;
      if (h.ejected) {
        ++h.successes;
        if (h.successes >= config_.health.rise) {
          Readmit(backend);
        }
      }
    }
    return;
  }
  ForwardFromServer(std::move(p));
}

void Topology::ForwardFromServer(hw::Packet p) {
  if (p.bytes.size() < kMinRoutable) {
    ++*lb_no_route_;
    return;
  }
  // Replies carry the client's address as destination; client ips are 1-based
  // NIC indices on the balancer.
  const uint32_t dst_ip = LoadLe32(p, net::kOffDstIp);
  if (dst_ip < 1 || dst_ip > config_.clients) {
    ++*lb_no_route_;
    return;
  }
  hw::Nic* out = &balancer().nic(dst_ip - 1);
  const sim::Cycles done = lb_cpu_->Occupy(config_.lb_forward_cost);
  ++*lb_forwarded_;
  engine_of(0).ScheduleAt(done, [out, p = std::move(p)]() mutable {
    out->Transmit(std::move(p));
  });
}

void Topology::ArmHealthChecks(sim::Cycles until) {
  EXO_CHECK(has_balancer());
  EXO_CHECK(config_.servers > 0);
  const uint32_t mhz = config_.machine.cost.cpu_mhz;
  health_until_ = until;
  health_interval_ = static_cast<sim::Cycles>(config_.health.interval_us * mhz);
  health_timeout_ = static_cast<sim::Cycles>(config_.health.timeout_us * mhz);
  EXO_CHECK(health_interval_ > 0);
  if (!lb_trace_track_made_) {
    lb_trace_track_ = balancer().tracer().NewTrack("lb");
    lb_trace_track_made_ = true;
  }
  lb_health_.assign(config_.servers, BackendHealth{});
  for (uint32_t k = 0; k < config_.servers; ++k) {
    lb_health_[k].rng = sim::Rng(cluster_.DeriveSeed(10'000 + k));
    // The probe responder is NIC firmware on the backend: it echoes while the
    // NIC is up and stays silent when the machine is dead, below any software
    // the kill tears down.
    server(k).nic(0).EnableProbeResponder();
    ScheduleProbe(k);
  }
}

void Topology::ScheduleProbe(uint32_t backend) {
  // Seeded jitter: probes land in interval * (1 +/- jitter_frac), so backends
  // don't probe in lockstep yet every run with one seed is bit-identical.
  BackendHealth& h = lb_health_[backend];
  sim::Cycles delay = health_interval_;
  const double frac = config_.health.jitter_frac;
  if (frac > 0) {
    const sim::Cycles span = static_cast<sim::Cycles>(
        static_cast<double>(health_interval_) * (frac < 1.0 ? frac : 1.0));
    if (span > 0) {
      delay = health_interval_ - span + h.rng.Below(2 * span + 1);
    }
  }
  const sim::Cycles when = engine_of(0).now() + delay;
  if (when > health_until_) {
    return;  // disarmed: past the horizon, stop rescheduling
  }
  engine_of(0).ScheduleAt(when, [this, backend] {
    SendProbe(backend);
    ScheduleProbe(backend);
  });
}

void Topology::SendProbe(uint32_t backend) {
  BackendHealth& h = lb_health_[backend];
  const uint64_t seq = ++h.probes_sent;
  hw::Packet p;
  p.bytes.assign(hw::kProbeFrameBytes, 0);
  p.bytes[0] = hw::kProbeProto;
  // Prober address 0 (the balancer), destination the VIP the backend answers.
  for (uint32_t i = 0; i < 4; ++i) {
    p.bytes[5 + i] = static_cast<uint8_t>((kVip >> (8 * i)) & 0xff);
  }
  for (uint32_t i = 0; i < 8; ++i) {
    p.bytes[9 + i] = static_cast<uint8_t>((seq >> (8 * i)) & 0xff);
  }
  balancer().nic(config_.clients + backend).Transmit(std::move(p));
  engine_of(0).ScheduleAfter(health_timeout_, [this, backend, seq] {
    if (lb_health_[backend].last_reply_seq < seq) {
      OnProbeMiss(backend);
    }
  });
}

void Topology::OnProbeMiss(uint32_t backend) {
  BackendHealth& h = lb_health_[backend];
  h.successes = 0;
  if (h.ejected) {
    return;
  }
  ++h.strikes;
  if (h.strikes >= config_.health.fall) {
    Eject(backend);
  }
}

void Topology::Eject(uint32_t backend) {
  BackendHealth& h = lb_health_[backend];
  h.ejected = true;
  h.strikes = 0;
  h.successes = 0;
  h.last_eject_time = engine_of(0).now();
  ++*lb_ejected_;
  trace::Tracer& t = balancer().tracer();
  if (t.enabled(trace::Category::kFault)) {
    t.Instant(trace::Category::kFault, lb_trace_track_, "lb_eject",
              engine_of(0).now(), backend);
  }
  // Failover: cut every flow pinned to the dead backend loose so its next
  // frame re-pins (round-robin over survivors) and counts as a reroute.
  std::vector<uint64_t> doomed;
  for (const auto& [flow, pin] : lb_flows_) {
    if (pin.backend == backend) {
      doomed.push_back(flow);
    }
  }
  for (uint64_t flow : doomed) {
    EvictPin(flow, /*reroute_expected=*/true);
  }
}

void Topology::Readmit(uint32_t backend) {
  BackendHealth& h = lb_health_[backend];
  h.ejected = false;
  h.strikes = 0;
  h.successes = 0;
  h.last_readmit_time = engine_of(0).now();
  ++*lb_readmitted_;
  trace::Tracer& t = balancer().tracer();
  if (t.enabled(trace::Category::kFault)) {
    t.Instant(trace::Category::kFault, lb_trace_track_, "lb_readmit",
              engine_of(0).now(), backend);
  }
}

void Topology::ApplyMachineSchedule(const std::vector<sim::FaultEvent>& schedule) {
  sim::RequireFaultSchedule(schedule, "kb", "Topology::ApplyMachineSchedule");
  for (const sim::FaultEvent& e : schedule) {
    EXO_CHECK(e.arg < machines_.size());
    const uint32_t id = static_cast<uint32_t>(e.arg);
    // Both counters and the track exist from the victim's first event on.
    sim::Counters::Slot* kills = machine(id).counters().Handle("fault.machine_kills");
    sim::Counters::Slot* reboots = machine(id).counters().Handle("fault.machine_reboots");
    auto [track, first] = victim_fault_tracks_.try_emplace(id, 0);
    if (first) {
      track->second = machine(id).tracer().NewTrack("faults");
    }
    const bool kill = e.kind == 'k';
    sim::Counters::Slot* count = kill ? kills : reboots;
    const uint32_t trace_track = track->second;
    engine_of(id).ScheduleAt(e.index, [this, id, kill, count, trace_track] {
      ++*count;
      trace::Tracer& t = machine(id).tracer();
      if (t.enabled(trace::Category::kFault)) {
        t.Instant(trace::Category::kFault, trace_track,
                  kill ? "machine_kill" : "machine_reboot", engine_of(id).now(), id);
      }
      if (kill) {
        machine(id).Kill();
      } else {
        machine(id).Reboot();
      }
    });
  }
}

std::string Topology::MergedCountersDump() const {
  std::string out;
  for (const auto& m : machines_) {
    for (const auto& [name, value] : m->counters().Snapshot()) {
      out += name;
      out += ' ';
      out += std::to_string(value);
      out += '\n';
    }
  }
  return out;
}

std::string Topology::MergedTraceDump(uint32_t cpu_mhz) const {
  std::vector<const trace::Tracer*> tracers;
  tracers.reserve(machines_.size());
  for (const auto& m : machines_) {
    tracers.push_back(&m->tracer());
  }
  return trace::MergedTextDump(tracers, cpu_mhz);
}

}  // namespace exo::cluster
