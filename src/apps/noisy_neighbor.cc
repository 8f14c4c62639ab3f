#include "apps/noisy_neighbor.h"

#include <charconv>
#include <cstring>
#include <span>
#include <string_view>

#include "hw/machine.h"
#include "hw/nic.h"
#include "sim/check.h"
#include "sim/fuzz.h"
#include "trace/trace.h"
#include "xok/capability.h"
#include "xok/kernel.h"

namespace exo::apps {

namespace {

constexpr sim::Cycles kNoisyQuantum = 50'000;  // 0.25 ms
constexpr sim::Cycles kVictimService = 20'000;  // ~21% of a CPU per victim
constexpr size_t kFloodOpsPerEpoch = 24;
constexpr uint32_t kNoDma = UINT32_MAX;
constexpr std::string_view kFloodKinds = "cfrnd";

// Sums each track's `run` spans: what the scheduler gave the env on it.
std::vector<EnvRun> RunSpans(const trace::Tracer& tracer) {
  std::vector<EnvRun> runs(tracer.track_names().size());
  std::vector<sim::Cycles> open(runs.size(), 0);
  for (const trace::Record& rec : tracer.Records()) {
    if (rec.category != trace::Category::kSched || std::strcmp(rec.name, "run") != 0) {
      continue;
    }
    if (rec.kind == trace::Kind::kBegin) {
      open[rec.track] = rec.time;
      ++runs[rec.track].slices;
    } else if (rec.kind == trace::Kind::kEnd) {
      runs[rec.track].cycles += rec.time - open[rec.track];
    }
  }
  return runs;
}

}  // namespace

std::string FormatFloodSchedule(const std::vector<FloodOp>& ops) {
  std::string out;
  for (const FloodOp& op : ops) {
    if (!out.empty()) {
      out += ' ';
    }
    out += op.kind;
    out += '@';
    out += std::to_string(op.arg);
  }
  return out;
}

std::vector<FloodOp> ParseFloodSchedule(const std::string& text, std::string* error) {
  std::vector<FloodOp> ops;
  size_t token = 0;
  auto fail = [&](const std::string& why) {
    *error = "token " + std::to_string(token) + ": " + why;
    return std::vector<FloodOp>{};
  };
  const char* p = text.data();
  const char* const end = p + text.size();
  while (p < end) {
    if (*p == ' ') {
      ++p;
      continue;
    }
    ++token;
    FloodOp op;
    op.kind = *p++;
    if (kFloodKinds.find(op.kind) == std::string_view::npos) {
      return fail(std::string("unknown kind '") + op.kind + "'");
    }
    if (p == end || *p != '@') {
      return fail("expected '@' after kind");
    }
    const auto [next, ec] = std::from_chars(p + 1, end, op.arg);
    if (ec != std::errc() || (next != end && *next != ' ')) {
      return fail("argument is not a decimal uint32");
    }
    p = next;
    ops.push_back(op);
  }
  error->clear();
  return ops;
}

std::vector<FloodOp> GenerateFloodSchedule(uint64_t seed, uint64_t epochs) {
  std::vector<FloodOp> ops;
  sim::Fuzzer fz(seed);
  for (size_t i = 0; i < kFloodOpsPerEpoch * epochs; ++i) {
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
  return ops;
}

NoisyResult RunNoisyNeighbor(const NoisyConfig& cfg) {
  sim::Engine engine;
  hw::MachineConfig mc;
  mc.mem_frames = 256;
  mc.cost.quantum = kNoisyQuantum;
  hw::Machine machine(&engine, mc);
  // Before any env exists, so each registers its own track.
  machine.tracer().Enable(cfg.trace ? trace::kAllCategories
                                    : trace::Bit(trace::Category::kSched));
  hw::Nic peer(99);
  hw::Link link(&engine, 100.0, 10.0, kNoisyMhz);
  link.Connect(&peer, &machine.nic(0));
  xok::XokKernel kernel(&machine);
  xok::MemoryPressurePolicy pp;
  pp.low_frames = 64;
  pp.high_frames = 96;
  pp.grace = cfg.hostile ? kNoisyQuantum / 2 : 6 * kNoisyQuantum;
  pp.min_interval = 2 * kNoisyQuantum;
  kernel.SetMemoryPressurePolicy(pp);

  const sim::Cycles deadline = cfg.epochs * kNoisyEpoch;
  NoisyResult r;
  r.ops = cfg.replay != nullptr ? *cfg.replay : GenerateFloodSchedule(cfg.seed, cfg.epochs);
  for (const FloodOp& op : r.ops) {
    EXO_CHECK(kFloodKinds.find(op.kind) != std::string_view::npos);  // no op it would misread
  }
  r.requests_per_victim = deadline / kVictimInterval;
  r.victims.resize(kVictims);

  // All heap-owning state lives in this frame, never on fiber stacks: hostile
  // workers are aborted without unwinding.
  std::vector<std::vector<hw::FrameId>> held(kFloodWorkers);
  std::vector<hw::FrameId> dma(kFloodWorkers, kNoDma);
  size_t next_op = 0;
  std::vector<xok::EnvId> envs;

  for (int i = 0; i < kVictims; ++i) {
    xok::EnvId id = kernel.CreateEnv(
        xok::kInvalidEnv, {xok::Capability::Root()},
        [&kernel, &samples = r.victims[i], i, reqs = r.requests_per_victim] {
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
            samples.push_back({arrival, kernel.Now() - arrival});
          }
        });
    envs.push_back(id);
    xok::ResourceQuota q;
    q.cpu_tickets = cfg.equal_tickets ? kEqualTickets : kVictimTickets;
    EXO_CHECK_EQ(kernel.SysSetQuota(id, q, xok::kCredAny), Status::kOk);
  }

  for (int w = 0; w < kFloodWorkers; ++w) {
    const xok::CapName guard{xok::kCapUsers, static_cast<uint16_t>(50 + w)};
    xok::EnvId id = kernel.CreateEnv(
        xok::kInvalidEnv, {xok::Capability{guard, /*write=*/true}},
        [&kernel, &machine, &held, &dma, &next_op, &r, w, guard, deadline,
         hostile = cfg.hostile] {
          auto f = kernel.SysFrameAlloc(0, guard);
          if (f.ok()) {
            dma[w] = *f;
          }
          if (hostile) {
            for (int i = 0; i < 28; ++i) {
              auto h = kernel.SysFrameAlloc(0, guard);
              if (h.ok()) {
                held[w].push_back(*h);
              }
            }
          }
          while (next_op < r.ops.size() && kernel.Now() < deadline) {
            const FloodOp op = r.ops[next_op++];
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
              case 'd':
                if (dma[w] != kNoDma) {
                  machine.disk().Submit({.write = true,
                                         .start = op.arg % 64,
                                         .nblocks = 1,
                                         .frames = {dma[w]},
                                         .done = [](Status) {}});
                }
                break;
            }
          }
          while (kernel.Now() < deadline) {
            kernel.ChargeCpu(kNoisyQuantum);
          }
          // Voluntary-exit cleanup (aborted hostile workers never get here).
          while (!held[w].empty()) {
            (void)kernel.SysFrameFree(held[w].back(), 0);
            held[w].pop_back();
          }
          if (dma[w] != kNoDma) {
            (void)kernel.SysFrameFree(dma[w], 0);
            dma[w] = kNoDma;
          }
        });
    envs.push_back(id);
    xok::ResourceQuota q;
    q.cpu_tickets = cfg.equal_tickets ? kEqualTickets : kFloodTickets;
    EXO_CHECK_EQ(kernel.SysSetQuota(id, q, xok::kCredAny), Status::kOk);
    if (!cfg.hostile) {
      // A well-behaved tenant: the revocation upcall sheds hoarded frames
      // down to the allowance.
      kernel.env(id).on_revoke = [&kernel, &held, id, w](const xok::RevocationRequest& req) {
        while (kernel.env(id).usage.frames > req.allowed && !held[w].empty()) {
          if (kernel.SysFrameFree(held[w].back(), 0) != Status::kOk) {
            break;
          }
          held[w].pop_back();
        }
      };
    }
  }

  kernel.Run();
  r.kernel_end_time = engine.now();
  engine.RunUntilIdle();  // drain in-flight flooder disk DMA

  r.end_time = engine.now();
  r.ops_executed = next_op;
  r.pressure_revokes = machine.counters().Get("xok.pressure_revokes");
  r.pressure_aborts = machine.counters().Get("xok.pressure_aborts");
  r.env_aborts = machine.counters().Get("xok.env_aborts");
  r.counters = machine.counters().Snapshot();
  const trace::Tracer& tracer = machine.tracer();
  if (cfg.trace) {
    r.trace_dump = trace::TextDump(tracer);
  }
  EXO_CHECK_EQ(tracer.dropped(), 0u);  // the ring must cover the whole run
  const std::vector<EnvRun> runs = RunSpans(tracer);
  for (int k = 0; k < kVictims + kFloodWorkers; ++k) {
    const EnvRun& run = runs[kernel.env(envs[k]).trace_track];
    (k < kVictims ? r.victim_runs : r.flood_runs).push_back(run);
  }
  r.invariants = kernel.CheckInvariants();
  r.deadlock_report = kernel.deadlock_report();

  // Forcibly reclaim and reap every env, as the syscall fuzzer does.
  for (xok::EnvId id : envs) {
    kernel.AbortEnv(id, "noisy-neighbor cleanup");
    (void)kernel.ReapEnv(id);
  }
  return r;
}

}  // namespace exo::apps
