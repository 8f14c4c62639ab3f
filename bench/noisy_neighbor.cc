// Noisy-neighbor isolation: per-tenant goodput and tail latency under stride
// scheduling with per-tenant tickets + pressure revocation, vs the same
// scheduler with every env at equal tickets (per-env fairness).
//
// Method. One XokKernel hosts two tenants: three latency-sensitive "victim"
// envs (open-loop request every 0.5 ms: CPU burn + region write + NIC
// transmit) and one "flooder" tenant of eight workers draining a seeded
// multi-resource op script (CPU burn, frame hoarding, NIC spray, disk DMA)
// and then spinning CPU-bound to the deadline. In the stride lane the victim
// tenant holds 1200 tickets and the flooder 96; in the equal-ticket control
// lane every env holds 100, so the 8-worker flooder gets 8 of every 11
// slices. The pressure monitor revokes frames from whoever is most over its
// proportional share. The table reports each tenant's goodput, p50/p99, and
// CPU share. CPU shares come from the per-tenant trace tracks: every env's
// `run` spans are summed from the trace ring, the same attribution a
// Perfetto view of the run shows.
//
// Stdout is the human-readable table (deterministic, golden-diffable). The
// JSON report goes to BENCH_noisy_neighbor.json (--out FILE overrides). With
// `--check bench/noisy_neighbor_baseline.json` the binary exits nonzero
// unless, under tenant tickets, victim goodput and p99 hold their committed
// bounds while the equal-ticket lane still demonstrates the starvation that
// per-tenant tickets exist to fix.
#include <cstdio>
#include <cstring>
#include <algorithm>
#include <string>
#include <vector>

#include "bench/common.h"
#include "hw/machine.h"
#include "hw/nic.h"
#include "sim/check.h"
#include "sim/engine.h"
#include "sim/fuzz.h"
#include "trace/trace.h"
#include "xok/capability.h"
#include "xok/kernel.h"

namespace {

using namespace exo;

constexpr uint32_t kMhz = 200;
constexpr sim::Cycles kQuantum = 50'000;  // 0.25 ms
constexpr uint64_t kEpochs = 8;
constexpr sim::Cycles kEpoch = 500'000;
constexpr int kVictims = 3;
constexpr int kFloodWorkers = 8;
constexpr uint32_t kVictimTickets = 400;  // tenant total 1200
constexpr uint32_t kFloodTickets = 12;    // tenant total 96
constexpr uint32_t kEqualTickets = 100;   // control lane: every env alike
constexpr sim::Cycles kVictimInterval = 100'000;
constexpr sim::Cycles kVictimService = 20'000;
constexpr sim::Cycles kLatencySlo = 400'000;  // 2 ms: the goodput cutoff
constexpr uint32_t kNoDma = UINT32_MAX;

struct TenantStats {
  double goodput_frac = 0;  // victim requests answered within the SLO
  double p50_ms = 0;
  double p99_ms = 0;
  double victim_cpu_frac = 0;  // run-span cycles on victim tracks / total
  double flood_cpu_frac = 0;
  uint64_t pressure_revokes = 0;
  uint64_t completed = 0;
};

// One full scenario run. The flood script is regenerated from the same seed
// each lane, so both ticket assignments face an identical offered load.
TenantStats RunLane(bool equal_tickets) {
  sim::Engine engine;
  hw::MachineConfig mc;
  mc.mem_frames = 256;
  mc.cost.quantum = kQuantum;
  hw::Machine machine(&engine, mc);
  machine.tracer().Enable(trace::Bit(trace::Category::kSched));
  hw::Nic peer(99);
  hw::Link link(&engine, 100.0, 10.0, kMhz);
  link.Connect(&peer, &machine.nic(0));
  xok::XokKernel kernel(&machine);
  xok::MemoryPressurePolicy pp;
  pp.low_frames = 64;
  pp.high_frames = 96;
  pp.grace = 6 * kQuantum;
  pp.min_interval = 2 * kQuantum;
  kernel.SetMemoryPressurePolicy(pp);

  const sim::Cycles deadline = kEpochs * kEpoch;

  struct FloodOp {
    char kind;
    uint32_t arg;
  };
  std::vector<FloodOp> ops;
  {
    sim::Fuzzer fz(1);
    for (size_t i = 0; i < 24 * kEpochs; ++i) {
      const uint32_t k = fz.Pick(100);
      if (k < 30) {
        ops.push_back({'c', 5'000 + fz.Pick(20'000)});
      } else if (k < 60) {
        ops.push_back({'f', 4 + fz.Pick(12)});
      } else if (k < 72) {
        ops.push_back({'r', 1 + fz.Pick(6)});
      } else if (k < 88) {
        ops.push_back({'n', 1 + fz.Pick(4)});
      } else {
        ops.push_back({'d', fz.Pick(64)});
      }
    }
  }

  std::vector<std::vector<sim::Cycles>> lat(kVictims);
  std::vector<std::vector<hw::FrameId>> held(kFloodWorkers);
  std::vector<hw::FrameId> dma(kFloodWorkers, kNoDma);
  size_t next_op = 0;
  uint64_t disk_done = 0;
  std::vector<uint32_t> victim_tracks, flood_tracks;

  const uint64_t reqs = deadline / kVictimInterval;  // per victim
  for (int i = 0; i < kVictims; ++i) {
    xok::EnvId id = kernel.CreateEnv(
        xok::kInvalidEnv, {xok::Capability::Root()}, [&kernel, &lat, i, reqs] {
          auto rgn = kernel.SysRegionCreate(4096, {xok::kCapUsers, 7}, 0);
          EXO_CHECK(rgn.ok());
          uint8_t buf[64] = {0x42};
          for (uint64_t k = 0; k < reqs; ++k) {
            const sim::Cycles arrival =
                k * kVictimInterval + static_cast<sim::Cycles>(i) * 33'333;
            if (kernel.Now() < arrival) {
              xok::WakeupPredicate p;
              p.deadline = arrival;
              p.host_cost = 40;
              p.host = [&kernel, arrival] { return kernel.Now() >= arrival; };
              kernel.SysSleep(std::move(p));
            }
            kernel.ChargeCpu(kVictimService);
            (void)kernel.SysRegionWrite(*rgn, static_cast<uint32_t>((k * 64) % 4000),
                                        std::span<const uint8_t>(buf, 64), 0);
            (void)kernel.SysNicTransmit(0, hw::Packet{std::vector<uint8_t>(256, 0x55)});
            lat[i].push_back(kernel.Now() - arrival);
          }
        });
    xok::ResourceQuota q;
    q.cpu_tickets = equal_tickets ? kEqualTickets : kVictimTickets;
    EXO_CHECK_EQ(kernel.SysSetQuota(id, q, xok::kCredAny), Status::kOk);
    victim_tracks.push_back(kernel.env(id).trace_track);
  }

  for (int w = 0; w < kFloodWorkers; ++w) {
    const xok::CapName guard{xok::kCapUsers, static_cast<uint16_t>(50 + w)};
    xok::EnvId id = kernel.CreateEnv(
        xok::kInvalidEnv, {xok::Capability{guard, /*write=*/true}},
        [&kernel, &machine, &ops, &held, &dma, &next_op, &disk_done, w, guard,
         deadline] {
          auto f = kernel.SysFrameAlloc(0, guard);
          if (f.ok()) {
            dma[w] = *f;
          }
          while (next_op < ops.size() && kernel.Now() < deadline) {
            const FloodOp op = ops[next_op++];
            switch (op.kind) {
              case 'c':
                kernel.ChargeCpu(op.arg);
                break;
              case 'f':
                for (uint32_t i = 0; i < op.arg; ++i) {
                  auto h = kernel.SysFrameAlloc(0, guard);
                  if (!h.ok()) {
                    break;
                  }
                  held[w].push_back(*h);
                }
                break;
              case 'r':
                for (uint32_t i = 0; i < op.arg && !held[w].empty(); ++i) {
                  (void)kernel.SysFrameFree(held[w].back(), 0);
                  held[w].pop_back();
                }
                break;
              case 'n':
                for (uint32_t i = 0; i < op.arg; ++i) {
                  (void)kernel.SysNicTransmit(
                      0, hw::Packet{std::vector<uint8_t>(1200, 0xee)});
                }
                break;
              default:  // 'd'
                if (dma[w] != kNoDma) {
                  machine.disk().Submit({.write = true,
                                         .start = op.arg % 64,
                                         .nblocks = 1,
                                         .frames = {dma[w]},
                                         .done = [&disk_done](Status) { ++disk_done; }});
                }
                break;
            }
          }
          while (kernel.Now() < deadline) {
            kernel.ChargeCpu(kQuantum);
          }
          while (!held[w].empty()) {
            (void)kernel.SysFrameFree(held[w].back(), 0);
            held[w].pop_back();
          }
          if (dma[w] != kNoDma) {
            (void)kernel.SysFrameFree(dma[w], 0);
            dma[w] = kNoDma;
          }
        });
    xok::ResourceQuota q;
    q.cpu_tickets = equal_tickets ? kEqualTickets : kFloodTickets;
    EXO_CHECK_EQ(kernel.SysSetQuota(id, q, xok::kCredAny), Status::kOk);
    flood_tracks.push_back(kernel.env(id).trace_track);
    kernel.env(id).on_revoke = [&kernel, &held, id, w](const xok::RevocationRequest& req) {
      while (kernel.env(id).usage.frames > req.allowed && !held[w].empty()) {
        if (kernel.SysFrameFree(held[w].back(), 0) != Status::kOk) {
          break;
        }
        held[w].pop_back();
      }
    };
  }

  kernel.Run();
  engine.RunUntilIdle();

  TenantStats s;
  s.pressure_revokes = machine.counters().Get("xok.pressure_revokes");

  std::vector<sim::Cycles> all;
  for (int i = 0; i < kVictims; ++i) {
    all.insert(all.end(), lat[i].begin(), lat[i].end());
  }
  s.completed = all.size();
  EXO_CHECK_EQ(all.size(), reqs * kVictims);  // no request may be lost outright
  std::sort(all.begin(), all.end());
  uint64_t good = 0;
  for (sim::Cycles l : all) {
    good += l <= kLatencySlo ? 1 : 0;
  }
  s.goodput_frac = static_cast<double>(good) / static_cast<double>(all.size());
  const double cycles_per_ms = static_cast<double>(kMhz) * 1000.0;
  s.p50_ms = static_cast<double>(all[all.size() / 2]) / cycles_per_ms;
  s.p99_ms = static_cast<double>(all[(all.size() * 99 + 99) / 100 - 1]) / cycles_per_ms;

  // Per-tenant CPU attribution from the trace: sum each track's `run` spans.
  std::vector<sim::Cycles> track_cpu(machine.tracer().track_names().size(), 0);
  std::vector<sim::Cycles> open(track_cpu.size(), 0);
  for (const trace::Record& rec : machine.tracer().Records()) {
    if (rec.category != trace::Category::kSched ||
        std::strcmp(rec.name, "run") != 0 || rec.track >= track_cpu.size()) {
      continue;
    }
    if (rec.kind == trace::Kind::kBegin) {
      open[rec.track] = rec.time;
    } else if (rec.kind == trace::Kind::kEnd) {
      track_cpu[rec.track] += rec.time - open[rec.track];
    }
  }
  EXO_CHECK_EQ(machine.tracer().dropped(), 0u);  // ring must cover the whole run
  sim::Cycles victim_cpu = 0, flood_cpu = 0;
  for (uint32_t t : victim_tracks) {
    victim_cpu += track_cpu[t];
  }
  for (uint32_t t : flood_tracks) {
    flood_cpu += track_cpu[t];
  }
  s.victim_cpu_frac = static_cast<double>(victim_cpu) / static_cast<double>(deadline);
  s.flood_cpu_frac = static_cast<double>(flood_cpu) / static_cast<double>(deadline);
  return s;
}

}  // namespace

int main(int argc, char** argv) {
  bench::Report report("noisy_neighbor", argc, argv);
  bench::PrintHeader("noisy neighbor: per-tenant goodput/latency, tenant vs equal tickets");
  std::printf("victims %d x %u tickets, flooder %d x %u tickets (control: all %u), "
              "%llu epochs of %.1f ms\n\n",
              kVictims, kVictimTickets, kFloodWorkers, kFloodTickets, kEqualTickets,
              static_cast<unsigned long long>(kEpochs),
              static_cast<double>(kEpoch) / (kMhz * 1000.0));

  const TenantStats st = RunLane(/*equal_tickets=*/false);
  const TenantStats eq = RunLane(/*equal_tickets=*/true);

  std::printf("%-12s %-9s %-8s %-8s %-11s %-10s %-8s\n", "scheduler", "goodput",
              "p50ms", "p99ms", "victim-cpu", "flood-cpu", "revokes");
  auto row = [&report](const char* name, const std::string& lane, const TenantStats& s) {
    std::printf("%-12s %-9.3f %-8.2f %-8.2f %-11.2f %-10.2f %-8llu\n", name,
                s.goodput_frac, s.p50_ms, s.p99_ms, s.victim_cpu_frac, s.flood_cpu_frac,
                static_cast<unsigned long long>(s.pressure_revokes));
    report.Add(lane + ".goodput_frac", s.goodput_frac);
    report.Add(lane + ".p50_ms", s.p50_ms);
    report.Add(lane + ".p99_ms", s.p99_ms);
    report.Add(lane + ".victim_cpu_frac", s.victim_cpu_frac);
    report.Add(lane + ".flood_cpu_frac", s.flood_cpu_frac);
    report.Add(lane + ".pressure_revokes", s.pressure_revokes);
  };
  row("stride", "stride", st);
  row("equal-ticket", "equal_tickets", eq);
  std::printf("\nvictim p99: %.2f ms under tenant tickets vs %.2f ms under equal tickets "
              "(%.0fx)\n",
              st.p99_ms, eq.p99_ms, eq.p99_ms / st.p99_ms);

  return report.Finish();
}
