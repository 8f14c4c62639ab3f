// Machine: one simulated host (CPU + memory + disks + NICs) sharing a global Engine.
//
// Multiple machines (e.g. an HTTP server and its load-generating clients) share one
// Engine so their clocks agree; each has private memory, disks, and NICs.
#ifndef EXO_HW_MACHINE_H_
#define EXO_HW_MACHINE_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "hw/disk.h"
#include "hw/nic.h"
#include "hw/phys_mem.h"
#include "sim/cost_model.h"
#include "sim/counters.h"
#include "sim/engine.h"
#include "sim/rng.h"
#include "trace/trace.h"

namespace exo::hw {

struct MachineConfig {
  uint32_t mem_frames = 16384;  // 64 MB, matching the paper's testbed
  std::vector<DiskGeometry> disks = {DiskGeometry{}};
  uint32_t num_nics = 1;
  sim::CostModel cost = sim::CostModel::PentiumPro200();
  uint64_t seed = 1;
};

class Machine {
 public:
  explicit Machine(sim::Engine* engine, const MachineConfig& config = MachineConfig{})
      : engine_(engine), cost_(config.cost), mem_(config.mem_frames), rng_(config.seed) {
    disks_.reserve(config.disks.size());
    for (const auto& g : config.disks) {
      disks_.push_back(std::make_unique<Disk>(engine_, &mem_, g, cost_.cpu_mhz));
      disks_.back()->SetTracer(
          &tracer_, tracer_.NewTrack("disk" + std::to_string(disks_.size() - 1)));
      disks_.back()->AttachCounters(&counters_);
    }
    nics_.reserve(config.num_nics);
    for (uint32_t i = 0; i < config.num_nics; ++i) {
      nics_.push_back(std::make_unique<Nic>(i));
      nics_.back()->AttachCounters(&counters_);
    }
    // The engine is shared across machines; the first machine's tracer carries
    // its dispatch instants.
    if (engine_->tracer() == nullptr) {
      engine_->set_tracer(&tracer_, tracer_.NewTrack("engine"));
    }
  }

  ~Machine() {
    if (engine_->tracer() == &tracer_) {
      engine_->set_tracer(nullptr);  // the engine may outlive this machine
    }
  }

  Machine(const Machine&) = delete;
  Machine& operator=(const Machine&) = delete;

  sim::Engine& engine() { return *engine_; }
  const sim::CostModel& cost() const { return cost_; }
  PhysMem& mem() { return mem_; }
  Disk& disk(size_t i = 0) { return *disks_.at(i); }
  size_t num_disks() const { return disks_.size(); }
  Nic& nic(size_t i = 0) { return *nics_.at(i); }
  size_t num_nics() const { return nics_.size(); }
  sim::Counters& counters() { return counters_; }
  // The machine's tracer (disabled until Tracer::Enable); disks and the shared
  // engine are pre-wired to it, the kernel and OS layers pick it up at boot.
  trace::Tracer& tracer() { return tracer_; }
  sim::Rng& rng() { return rng_; }

  // Charges CPU computation: advances the shared clock, firing any due device events
  // along the way.
  void Charge(sim::Cycles cycles) { engine_->Advance(cycles); }

  // Stamps this machine with its cluster-wide id: counter names and trace
  // track/histogram names gain an "m<id>." prefix so merged fleet output
  // attributes unambiguously (docs/CLUSTER.md). Cached counter handles and
  // track ids stay valid — slots and tracks are renamed in place. Standalone
  // machines never call this, keeping single-machine output byte-identical.
  void SetClusterIdentity(uint32_t id) {
    cluster_id_ = id;
    // Appended, not concatenated: GCC 12 at -O3 reports a false -Wrestrict
    // overlap inside "lit" + std::to_string(n).
    std::string prefix = "m";
    prefix += std::to_string(id);
    prefix += '.';
    counters_.SetPrefix(prefix);
    tracer_.SetNamePrefix(prefix);
  }
  static constexpr uint32_t kNoClusterId = UINT32_MAX;
  uint32_t cluster_id() const { return cluster_id_; }

  // ---- Crash/reboot lifecycle ----
  //
  // Kill models a hard power loss: every NIC goes down (arrivals drop,
  // transmits refuse), every disk takes a power cut (Disk::PowerCut tears
  // in-flight requests), and the kill listeners run so software layers (TCP
  // stack, HTTP server) can drop volatile state. The Machine object itself
  // stays alive as a zombie — any already-scheduled engine events against it
  // must find coherent (empty) state, not freed memory.
  //
  // Reboot restores power: disks come back with their surviving media image
  // (the reboot listeners are where fsck/XN recovery runs), NICs come up, and
  // higher layers rebuild themselves from the listeners. Kill on a dead
  // machine and reboot on a live one are no-ops, so schedules shrunk by ddmin
  // (which may orphan a reboot) still replay cleanly.
  bool alive() const { return alive_; }
  void Kill() {
    if (!alive_) {
      return;
    }
    alive_ = false;
    for (auto& n : nics_) {
      n->SetUp(false);
    }
    for (auto& d : disks_) {
      d->PowerCut();
    }
    for (auto& fn : kill_listeners_) {
      fn();
    }
  }
  void Reboot() {
    if (alive_) {
      return;
    }
    alive_ = true;
    for (auto& d : disks_) {
      d->PowerRestore();
    }
    for (auto& n : nics_) {
      n->SetUp(true);
    }
    for (auto& fn : reboot_listeners_) {
      fn();
    }
  }
  // Listeners run in registration order, kill first-registered-first (kernel
  // below stack below server is the natural order) — keep registration
  // deterministic.
  void AddKillListener(std::function<void()> fn) {
    kill_listeners_.push_back(std::move(fn));
  }
  void AddRebootListener(std::function<void()> fn) {
    reboot_listeners_.push_back(std::move(fn));
  }

 private:
  sim::Engine* engine_;
  sim::CostModel cost_;
  PhysMem mem_;
  std::vector<std::unique_ptr<Disk>> disks_;
  std::vector<std::unique_ptr<Nic>> nics_;
  sim::Counters counters_;
  trace::Tracer tracer_;
  sim::Rng rng_;
  uint32_t cluster_id_ = kNoClusterId;
  bool alive_ = true;
  std::vector<std::function<void()>> kill_listeners_;
  std::vector<std::function<void()>> reboot_listeners_;
};

}  // namespace exo::hw

#endif  // EXO_HW_MACHINE_H_
