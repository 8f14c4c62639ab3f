// Topology: a fleet of simulated machines on a routed inter-machine fabric.
//
// Instantiates the paper's testbed scaled out: racks of Cheetah-class servers
// behind an optional front-end load balancer, plus a fleet of client machines,
// every machine a full hw::Machine (CPU + memory + disks + NICs) with its own
// derived seed and "m<id>."-prefixed counters and trace tracks. Machines are
// grouped onto Cluster shards (machines_per_shard per event queue); wires
// between machines on different shards become conservative-horizon ShardLinks,
// wires within a shard stay plain hw::Links.
//
// Two wiring modes:
//   - front_end_lb = true: every client links to the balancer, the balancer
//     links to every server. The balancer forwards store-and-forward at packet
//     granularity: flows (src ip, src port) are pinned to a backend round-robin
//     on first sight, each forwarded frame charges lb_forward_cost on the
//     balancer's CPU. Servers all answer the virtual ip kVip.
//   - front_end_lb = false: client j links directly to server j % servers
//     (the fleet_http shape: no middle hop, per-client wires).
#ifndef EXO_CLUSTER_TOPOLOGY_H_
#define EXO_CLUSTER_TOPOLOGY_H_

#include <cstdint>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "cluster/cluster.h"
#include "hw/machine.h"
#include "sim/cpu_meter.h"
#include "sim/fault.h"
#include "sim/rng.h"

namespace exo::cluster {

// Active health checking for the balancer (docs/CLUSTER.md "Machine failure
// and failover"): the balancer probes each backend's NIC firmware on a
// seeded-jitter interval, ejects a backend after `fall` consecutive missed
// replies (evicting its pinned flows), and readmits it after `rise`
// consecutive successes. Nothing probes until ArmHealthChecks — an unarmed
// topology schedules no probe events and stays byte-identical to the
// pre-failover behavior.
struct HealthCheckConfig {
  double interval_us = 2000.0;  // mean per-backend probe interval
  double timeout_us = 1000.0;   // reply deadline per probe
  uint32_t fall = 3;            // consecutive misses before ejection
  uint32_t rise = 2;            // consecutive successes before readmission
  double jitter_frac = 0.25;    // probes land in interval * (1 +/- jitter_frac)
};

struct TopologyConfig {
  uint32_t servers = 3;
  uint32_t clients = 4;
  bool front_end_lb = true;
  // Machines per Cluster shard (per event queue / OS-thread unit). 1 gives
  // maximum parallelism; clients + servers + 1 collapses to one shard and the
  // exact single-engine semantics.
  uint32_t machines_per_shard = 1;
  uint32_t threads = 1;
  uint64_t seed = 1;
  // Balancer <-> server wires (intra-rack) and client <-> fleet wires.
  double rack_mbit_per_s = 1000.0;
  double rack_latency_us = 20.0;
  double client_mbit_per_s = 1000.0;
  double client_latency_us = 40.0;
  // Balancer CPU cycles per forwarded frame (store-and-forward cost).
  sim::Cycles lb_forward_cost = 600;
  // Active backend health checks (armed with ArmHealthChecks; off by default).
  HealthCheckConfig health;
  // How long a flow pin lingers after a client FIN before eviction. The close
  // handshake (server FIN/ACK, final client ACK) must still route to the
  // pinned backend; evicting on the FIN itself would misroute it.
  double lb_pin_linger_us = 500.0;
  // Template for every machine; seed is overridden per machine with
  // DeriveSeed(seed, machine_id) and num_nics with the wiring's fan-out.
  hw::MachineConfig machine;
};

class Topology {
 public:
  // Servers answer this virtual IP in both wiring modes.
  static constexpr uint32_t kVip = 100;

  explicit Topology(const TopologyConfig& config);

  Cluster& cluster() { return cluster_; }
  const TopologyConfig& config() const { return config_; }

  // Machine ids are cluster-wide: [balancer,] servers, then clients.
  size_t num_machines() const { return machines_.size(); }
  hw::Machine& machine(uint32_t id) { return *machines_[id]; }
  uint32_t shard_of(uint32_t id) const { return id / config_.machines_per_shard; }
  sim::Engine& engine_of(uint32_t id) { return cluster_.engine(shard_of(id)); }

  bool has_balancer() const { return config_.front_end_lb; }
  hw::Machine& balancer() { return *machines_[0]; }
  uint32_t server_id(uint32_t k) const { return (has_balancer() ? 1 : 0) + k; }
  uint32_t client_id(uint32_t j) const { return server_id(config_.servers) + j; }
  hw::Machine& server(uint32_t k) { return *machines_[server_id(k)]; }
  hw::Machine& client(uint32_t j) { return *machines_[client_id(j)]; }
  uint32_t client_ip(uint32_t j) const { return j + 1; }

  // Direct mode: which server machine and which of its NICs face client j.
  uint32_t server_for_client(uint32_t j) const { return j % config_.servers; }
  uint32_t server_nic_for_client(uint32_t j) const { return j / config_.servers; }

  void Run() { cluster_.Run(); }
  void RunUntil(sim::Cycles t) { cluster_.RunUntil(t); }

  uint64_t lb_forwarded() const { return lb_forwarded_ == nullptr ? 0 : *lb_forwarded_; }
  uint64_t lb_no_route() const { return lb_no_route_ == nullptr ? 0 : *lb_no_route_; }
  size_t lb_flows() const { return lb_flows_.size(); }
  uint64_t lb_ejected() const { return lb_ejected_ == nullptr ? 0 : *lb_ejected_; }
  uint64_t lb_readmitted() const { return lb_readmitted_ == nullptr ? 0 : *lb_readmitted_; }
  uint64_t lb_pins_evicted() const { return lb_pins_evicted_ == nullptr ? 0 : *lb_pins_evicted_; }
  uint64_t lb_failover_reroutes() const {
    return lb_failover_reroutes_ == nullptr ? 0 : *lb_failover_reroutes_;
  }

  // --- Machine failure and failover (docs/CLUSTER.md, docs/ROBUSTNESS.md) ---

  // Arms the balancer's active health checks against every backend until the
  // given simulated time (probes are pre-scheduled events; an open-ended
  // self-rescheduling loop would keep Run() from ever terminating). Probes are
  // hw::kProbeProto frames answered by the backend NIC firmware
  // (EnableProbeResponder is armed here on every server NIC facing the
  // balancer), deliberately below the TCP stack: a killed machine is silent
  // exactly like dead hardware. Requires front_end_lb.
  void ArmHealthChecks(sim::Cycles until);

  // Schedules machine kill (k) and reboot (b) events on each victim's shard
  // engine: the index is the cycle and the arg the machine id, so
  // sim::ParseFaultSchedule reads a schedule as "k@<t>:<m> b@<t>:<m>"
  // (space-separated). Aborts unless sim::CheckFaultSchedule passes and every
  // kind is k or b. Kills run hw::Machine::Kill (NICs down, disks power-cut,
  // kill listeners) and reboots hw::Machine::Reboot (reboot listeners):
  // software that must die or come back with the machine registers there
  // (Machine::AddKillListener / AddRebootListener). Each event bumps the
  // victim's fault.machine_kills or fault.machine_reboots counter and emits a
  // machine_kill or machine_reboot instant on the victim's `faults` trace
  // track; both counters and the track are made when the victim's first event
  // is applied. All state touched is machine-local, so schedules replay
  // bit-identically at any thread count. Call before Run; may be called
  // multiple times.
  void ApplyMachineSchedule(const std::vector<sim::FaultEvent>& schedule);

  // Health-check observability for benches: current ejection state and the
  // last ejection/readmission timestamps per backend (0 = never).
  bool backend_ejected(uint32_t k) const {
    return k < lb_health_.size() && lb_health_[k].ejected;
  }
  sim::Cycles backend_last_eject(uint32_t k) const {
    return k < lb_health_.size() ? lb_health_[k].last_eject_time : 0;
  }
  sim::Cycles backend_last_readmit(uint32_t k) const {
    return k < lb_health_.size() ? lb_health_[k].last_readmit_time : 0;
  }

  // Deterministic fleet-wide observability: per-machine counter snapshots
  // ("m0.nic.dropped 12\n" ...) concatenated in machine order, and the
  // machines' trace rings merged in (time, machine, seq) order. The cluster
  // determinism tests diff both byte-for-byte across thread counts.
  std::string MergedCountersDump() const;
  std::string MergedTraceDump(uint32_t cpu_mhz = 200) const;

 private:
  // A flow's pin to a backend, plus its close-tracking state: a client FIN
  // marks the pin closing and schedules an epoch-guarded linger eviction;
  // later non-FIN traffic on the flow (retransmits, a reused source port)
  // bumps the epoch and revives the pin, cancelling the pending eviction.
  struct FlowPin {
    uint32_t backend = 0;
    uint64_t close_epoch = 0;
    bool closing = false;
  };

  // Per-backend health-check state; balancer-shard-local like lb_flows_.
  struct BackendHealth {
    bool ejected = false;
    uint32_t strikes = 0;    // consecutive missed probes
    uint32_t successes = 0;  // consecutive replies while ejected
    uint64_t probes_sent = 0;
    uint64_t last_reply_seq = 0;
    sim::Cycles last_eject_time = 0;
    sim::Cycles last_readmit_time = 0;
    sim::Rng rng{1};  // seeded-jitter probe spacing
  };

  void WireBalancer();
  void WireDirect();
  void ForwardFromClient(uint32_t client_nic, hw::Packet p);
  void OnServerFrame(uint32_t backend, hw::Packet p);
  void ForwardFromServer(hw::Packet p);
  // Flow key: (src ip, src port). TCP frames carry their real source port in
  // the TCP header (net::kIpHeaderBytes); everything else keys on the generic
  // net::kOffSrcPort bytes, preserving the historical non-TCP pinning.
  uint64_t FlowKey(const hw::Packet& p) const;
  // Round-robin over non-ejected backends; returns kNoBackend if all ejected.
  static constexpr uint32_t kNoBackend = 0xffffffff;
  uint32_t PickBackend();
  void EvictPin(uint64_t flow, bool reroute_expected);
  void ScheduleProbe(uint32_t backend);
  void SendProbe(uint32_t backend);
  void OnProbeMiss(uint32_t backend);
  void Eject(uint32_t backend);
  void Readmit(uint32_t backend);

  TopologyConfig config_;
  Cluster cluster_;
  std::vector<std::unique_ptr<hw::Machine>> machines_;
  // Balancer state; lives on the balancer's shard, touched only by it.
  std::unique_ptr<sim::CpuMeter> lb_cpu_;
  std::map<uint64_t, FlowPin> lb_flows_;  // (src ip, src port) -> pin
  uint32_t lb_next_backend_ = 0;
  sim::Counters::Slot* lb_forwarded_ = nullptr;
  sim::Counters::Slot* lb_no_route_ = nullptr;
  sim::Counters::Slot* lb_ejected_ = nullptr;
  sim::Counters::Slot* lb_readmitted_ = nullptr;
  sim::Counters::Slot* lb_pins_evicted_ = nullptr;
  sim::Counters::Slot* lb_failover_reroutes_ = nullptr;
  // Health checks (empty until ArmHealthChecks).
  std::vector<BackendHealth> lb_health_;
  sim::Cycles health_until_ = 0;
  sim::Cycles health_interval_ = 0;
  sim::Cycles health_timeout_ = 0;
  uint32_t lb_trace_track_ = 0;
  bool lb_trace_track_made_ = false;
  // Flows evicted by an ejection; counted into lb.failover_reroutes when the
  // flow re-pins to a surviving backend.
  std::set<uint64_t> pending_reroute_;
  // Each machine-fault victim's `faults` trace track, by machine id. Touched
  // only by ApplyMachineSchedule, before Run.
  std::map<uint32_t, uint32_t> victim_fault_tracks_;
};

}  // namespace exo::cluster

#endif  // EXO_CLUSTER_TOPOLOGY_H_
