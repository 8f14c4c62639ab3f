// Fleet failover: machine kill/reboot under the balancer's active health
// checks, measured as the paper's availability story — how much goodput the
// fleet keeps while a backend is dead, and how fast the balancer notices
// (time-to-ejection) and heals (time-to-readmission).
//
// Lane 1 (armed): one balancer fronting 2 Cheetah servers for 4 open-loop
// client machines, health checks armed. A machine schedule kills one backend
// mid-sweep and reboots it later, several cycles, alternating victims. The
// balancer ejects the victim after `fall` missed probes, evicts its pinned
// flows (they reroute to the survivor), and readmits it after `rise`
// post-reboot successes. Gates: worst-cycle goodput during the outage window
// stays >= min_outage_goodput_frac of steady state, post-readmission goodput
// recovers to >= min_recovered_goodput_frac, and p99 time-to-ejection /
// time-to-readmission stay under max_time_to_ejection_p99_ms /
// max_time_to_readmission_p99_ms.
//
// Lane 2 (blackhole): same fleet, health checks DISABLED, one kill and no
// reboot. Pinned flows keep routing to the dead backend and new pins
// round-robin onto it blindly; goodput collapses and stays down. The gate is
// inverted: post-kill goodput must stay <= max_blackhole_goodput_frac of
// steady state — if it doesn't, the bench is no longer demonstrating the
// hazard the health checks exist to fix.
//
// Everything on stdout is simulated-metric only and bit-identical for any
// --threads value (the cluster determinism contract); the JSON report goes to
// BENCH_failover.json (--out), and `--check bench/failover_baseline.json`
// gates it.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "apps/http.h"
#include "bench/common.h"
#include "cluster/topology.h"
#include "sim/engine.h"
#include "sim/fault.h"

namespace {

using namespace exo;

constexpr uint32_t kMhz = 200;
constexpr sim::Cycles kCyclesPerMs = static_cast<sim::Cycles>(kMhz) * 1000;

constexpr uint32_t kServers = 2;
constexpr uint32_t kClients = 4;
// Small pools rotate fast: a slot sees a new arrival every pool * interval =
// 4 ms, so a dead connection's request timeout arms (and its reconnect
// happens) promptly after a kill instead of idling for a whole rotation.
constexpr size_t kPoolPerClient = 8;
constexpr size_t kMaxPipeline = 4;
constexpr double kOfferedPerSec = 8'000;          // well under one server's capacity
constexpr sim::Cycles kRequestTimeout = 5 * kCyclesPerMs;
constexpr sim::Cycles kReconnectBase = kCyclesPerMs / 4;  // 0.25 ms, doubling
constexpr sim::Cycles kReconnectCap = 4 * kCyclesPerMs;

// Kill/reboot cadence: victim alternates, dead for 50 ms out of each 100 ms
// cycle. Measurement starts after a 100 ms warmup.
constexpr sim::Cycles kWarmup = 100 * kCyclesPerMs;
constexpr sim::Cycles kCyclePeriod = 100 * kCyclesPerMs;
constexpr sim::Cycles kOutage = 50 * kCyclesPerMs;
constexpr int kCycles = 4;
// The outage window closes this long after the reboot: wide enough to contain
// the readmission (rise * interval + slack), so "outage goodput" covers the
// full dead-to-readmitted span.
constexpr sim::Cycles kReadmitMargin = 6 * kCyclesPerMs;

struct Fleet {
  std::unique_ptr<cluster::Topology> topo;
  sim::CostModel cost = sim::CostModel::PentiumPro200();
  std::vector<std::unique_ptr<apps::HttpServer>> servers;
  std::vector<std::unique_ptr<apps::HttpServer>> graveyard;  // zombies: killed
  std::vector<std::unique_ptr<apps::OpenLoopHttpClient>> clients;

  uint64_t TotalCompleted() const {
    uint64_t total = 0;
    for (const auto& c : clients) {
      total += c->completed();
    }
    return total;
  }
};

void BuildServer(Fleet& f, uint32_t k) {
  cluster::Topology& topo = *f.topo;
  apps::HttpServerOptions opts;
  opts.persistent = true;
  auto server = std::make_unique<apps::HttpServer>(
      &topo.engine_of(topo.server_id(k)), &f.cost, apps::ServerStyle::kCheetah,
      /*ip=*/cluster::Topology::kVip, opts);
  server->AddDocument("d0", std::vector<uint8_t>(512, 7));
  EXO_CHECK_EQ(server->Listen(80), Status::kOk);
  for (uint32_t j = 0; j < kClients; ++j) {
    server->AttachNic(&topo.server(k).nic(0), topo.client_ip(j));
  }
  f.servers[k] = std::move(server);
}

Fleet BuildFleet(bool health_checks, bool client_retry, uint32_t threads,
                 const std::vector<sim::FaultEvent>& schedule,
                 sim::Cycles horizon) {
  Fleet f;
  cluster::TopologyConfig tc;
  tc.servers = kServers;
  tc.clients = kClients;
  tc.front_end_lb = true;
  tc.machines_per_shard = 1;
  tc.threads = threads;
  tc.machine.mem_frames = 256;
  tc.machine.disks.clear();
  tc.health.interval_us = 1'000;
  tc.health.timeout_us = 400;
  tc.health.fall = 3;
  tc.health.rise = 2;
  f.topo = std::make_unique<cluster::Topology>(tc);
  cluster::Topology& topo = *f.topo;

  f.servers.resize(kServers);
  for (uint32_t k = 0; k < kServers; ++k) {
    BuildServer(f, k);
  }
  // Kill: the victim's HTTP stack dies with the machine (no FINs, no RSTs —
  // its zombie object just stops; stale timers no-op). Reboot: a fresh server
  // process comes up on the same hardware and re-registers its routes.
  for (uint32_t k = 0; k < kServers; ++k) {
    hw::Machine& m = topo.server(k);
    m.AddKillListener([&f, k] {
      f.servers[k]->Shutdown();
      f.graveyard.push_back(std::move(f.servers[k]));
    });
    m.AddRebootListener([&f, k] { BuildServer(f, k); });
  }

  const double per_client = kOfferedPerSec / kClients;
  const sim::Cycles interval = static_cast<sim::Cycles>(
      static_cast<double>(kMhz) * 1'000'000.0 / per_client);
  for (uint32_t j = 0; j < kClients; ++j) {
    auto client = std::make_unique<apps::OpenLoopHttpClient>(
        &topo.engine_of(topo.client_id(j)), &f.cost, &topo.client(j).nic(0),
        topo.client_ip(j), cluster::Topology::kVip, "d0", interval);
    client->EnablePersistent(kPoolPerClient, kMaxPipeline);
    if (client_retry) {
      client->set_request_timeout(kRequestTimeout);
      client->set_reconnect_backoff(kReconnectBase, kReconnectCap,
                                    cluster::DeriveSeed(tc.seed, 77'000 + j));
    }
    f.clients.push_back(std::move(client));
  }

  if (health_checks) {
    topo.ArmHealthChecks(horizon);
  }
  topo.ApplyMachineSchedule(schedule);
  for (auto& c : f.clients) {
    c->Start(horizon);
  }
  return f;
}

double Percentile(std::vector<double> v, double p) {
  if (v.empty()) {
    return 0;
  }
  std::sort(v.begin(), v.end());
  const size_t idx = static_cast<size_t>(p / 100.0 * static_cast<double>(v.size()));
  return v[std::min(idx, v.size() - 1)];
}

struct ArmedResult {
  double steady_rps = 0;
  double worst_outage_frac = 0;
  double worst_recovered_frac = 0;
  double tte_p99_ms = 0;  // time-to-ejection
  double ttr_p99_ms = 0;  // time-to-readmission
  uint64_t ejected = 0;
  uint64_t readmitted = 0;
  uint64_t pins_evicted = 0;
  uint64_t reroutes = 0;
};

ArmedResult RunArmed(uint32_t threads) {
  std::vector<sim::FaultEvent> schedule;
  std::vector<uint32_t> victims;
  for (int i = 0; i < kCycles; ++i) {
    const uint32_t victim = 1 + (static_cast<uint32_t>(i) % kServers);  // server_id
    const sim::Cycles kill = kWarmup + static_cast<sim::Cycles>(i) * kCyclePeriod;
    schedule.push_back({'k', kill, victim});
    schedule.push_back({'b', kill + kOutage, victim});
    victims.push_back(victim);
  }
  const sim::Cycles horizon =
      kWarmup + static_cast<sim::Cycles>(kCycles) * kCyclePeriod;
  Fleet f = BuildFleet(/*health_checks=*/true, /*client_retry=*/true, threads,
                       schedule, horizon);
  cluster::Topology& topo = *f.topo;

  ArmedResult r;
  // Steady state: the warmup tail, before the first kill.
  const sim::Cycles steady_start = kWarmup / 2;
  topo.RunUntil(steady_start);
  const uint64_t at_steady_start = f.TotalCompleted();
  topo.RunUntil(kWarmup);
  const uint64_t at_first_kill = f.TotalCompleted();
  r.steady_rps = static_cast<double>(at_first_kill - at_steady_start) /
                 (static_cast<double>(kWarmup - steady_start) /
                  (static_cast<double>(kMhz) * 1e6));

  r.worst_outage_frac = 1e9;
  r.worst_recovered_frac = 1e9;
  std::vector<double> tte_ms, ttr_ms;
  std::printf("%-6s %-7s %-12s %-12s %-9s %-9s\n", "cycle", "victim", "outage rps",
              "recover rps", "tte ms", "ttr ms");
  for (int i = 0; i < kCycles; ++i) {
    const sim::Cycles kill = kWarmup + static_cast<sim::Cycles>(i) * kCyclePeriod;
    const sim::Cycles reboot = kill + kOutage;
    const sim::Cycles outage_end = reboot + kReadmitMargin;
    const sim::Cycles cycle_end = kill + kCyclePeriod;
    const uint32_t backend = victims[static_cast<size_t>(i)] - 1;  // server index

    const uint64_t at_kill = f.TotalCompleted();
    topo.RunUntil(outage_end);
    const uint64_t at_outage_end = f.TotalCompleted();
    topo.RunUntil(cycle_end);
    const uint64_t at_cycle_end = f.TotalCompleted();

    const double outage_rps = static_cast<double>(at_outage_end - at_kill) /
                              (static_cast<double>(outage_end - kill) /
                               (static_cast<double>(kMhz) * 1e6));
    const double recover_rps = static_cast<double>(at_cycle_end - at_outage_end) /
                               (static_cast<double>(cycle_end - outage_end) /
                                (static_cast<double>(kMhz) * 1e6));
    const sim::Cycles eject_at = topo.backend_last_eject(backend);
    const sim::Cycles readmit_at = topo.backend_last_readmit(backend);
    EXO_CHECK(eject_at >= kill);
    EXO_CHECK(readmit_at >= reboot);
    const double tte = static_cast<double>(eject_at - kill) /
                       static_cast<double>(kCyclesPerMs);
    const double ttr = static_cast<double>(readmit_at - reboot) /
                       static_cast<double>(kCyclesPerMs);
    tte_ms.push_back(tte);
    ttr_ms.push_back(ttr);
    r.worst_outage_frac = std::min(r.worst_outage_frac, outage_rps / r.steady_rps);
    r.worst_recovered_frac =
        std::min(r.worst_recovered_frac, recover_rps / r.steady_rps);
    std::printf("%-6d m%-6u %-12.0f %-12.0f %-9.2f %-9.2f\n", i,
                victims[static_cast<size_t>(i)], outage_rps, recover_rps, tte, ttr);
  }
  r.tte_p99_ms = Percentile(tte_ms, 99);
  r.ttr_p99_ms = Percentile(ttr_ms, 99);
  r.ejected = topo.lb_ejected();
  r.readmitted = topo.lb_readmitted();
  r.pins_evicted = topo.lb_pins_evicted();
  r.reroutes = topo.lb_failover_reroutes();
  return r;
}

struct BlackholeResult {
  double steady_rps = 0;
  double blackhole_frac = 0;  // post-kill goodput / steady, never recovers
};

BlackholeResult RunBlackhole(uint32_t threads) {
  // Health checks off, one kill, no reboot, and no client-side retry: the
  // flows pinned to the dead backend stay pinned (nothing evicts them) and
  // route into the void forever — the stale-pin hazard the health checks and
  // eviction exist to fix. Roughly half the fleet's goodput vanishes.
  std::vector<sim::FaultEvent> schedule = {{'k', kWarmup, 1}};
  const sim::Cycles horizon = kWarmup + 2 * kCyclePeriod;
  Fleet f = BuildFleet(/*health_checks=*/false, /*client_retry=*/false, threads,
                       schedule, horizon);
  cluster::Topology& topo = *f.topo;

  BlackholeResult r;
  const sim::Cycles steady_start = kWarmup / 2;
  topo.RunUntil(steady_start);
  const uint64_t at_steady_start = f.TotalCompleted();
  topo.RunUntil(kWarmup);
  const uint64_t at_kill = f.TotalCompleted();
  r.steady_rps = static_cast<double>(at_kill - at_steady_start) /
                 (static_cast<double>(kWarmup - steady_start) /
                  (static_cast<double>(kMhz) * 1e6));
  // Skip the first 10 ms of the outage (in-flight drain), then measure the
  // settled blackhole rate.
  topo.RunUntil(kWarmup + 10 * kCyclesPerMs);
  const uint64_t at_settle = f.TotalCompleted();
  topo.RunUntil(horizon);
  const uint64_t at_end = f.TotalCompleted();
  const double rate = static_cast<double>(at_end - at_settle) /
                      (static_cast<double>(horizon - kWarmup - 10 * kCyclesPerMs) /
                       (static_cast<double>(kMhz) * 1e6));
  r.blackhole_frac = rate / r.steady_rps;
  return r;
}

}  // namespace

int main(int argc, char** argv) {
  bench::Report report("failover", argc, argv);
  const auto threads =
      static_cast<uint32_t>(std::atoi(bench::FlagValue(argc, argv, "--threads", "1").c_str()));
  report.Add("threads", threads);

  bench::PrintHeader("fleet failover: kill/reboot under balancer health checks");
  std::printf("fleet: 1 balancer, %u Cheetah servers, %u clients, %.0f req/s offered\n",
              kServers, kClients, kOfferedPerSec);
  std::printf("schedule: %d cycles, victim dead %llu ms of every %llu ms\n\n", kCycles,
              static_cast<unsigned long long>(kOutage / kCyclesPerMs),
              static_cast<unsigned long long>(kCyclePeriod / kCyclesPerMs));

  std::printf("lane 1: health checks armed (1 ms probes, fall 3, rise 2)\n");
  const ArmedResult armed = RunArmed(threads);
  std::printf("\nsteady %.0f req/s; worst outage %.2f of steady, worst recovery %.2f; "
              "tte p99 %.2f ms, ttr p99 %.2f ms\n",
              armed.steady_rps, armed.worst_outage_frac, armed.worst_recovered_frac,
              armed.tte_p99_ms, armed.ttr_p99_ms);
  std::printf("balancer: %llu ejections, %llu readmissions, %llu pins evicted, "
              "%llu flows rerouted\n",
              static_cast<unsigned long long>(armed.ejected),
              static_cast<unsigned long long>(armed.readmitted),
              static_cast<unsigned long long>(armed.pins_evicted),
              static_cast<unsigned long long>(armed.reroutes));

  std::printf("\nlane 2: health checks disabled, one kill, no reboot\n");
  const BlackholeResult bh = RunBlackhole(threads);
  std::printf("steady %.0f req/s; settled post-kill goodput %.2f of steady "
              "(pinned flows blackhole)\n",
              bh.steady_rps, bh.blackhole_frac);

  report.Add("steady_rps", armed.steady_rps);
  report.Add("outage_goodput_frac", armed.worst_outage_frac);
  report.Add("recovered_goodput_frac", armed.worst_recovered_frac);
  report.Add("time_to_ejection_p99_ms", armed.tte_p99_ms);
  report.Add("time_to_readmission_p99_ms", armed.ttr_p99_ms);
  report.Add("ejections", armed.ejected);
  report.Add("readmissions", armed.readmitted);
  report.Add("pins_evicted", armed.pins_evicted);
  report.Add("failover_reroutes", armed.reroutes);
  report.Add("blackhole_goodput_frac", bh.blackhole_frac);
  return report.Finish();
}
