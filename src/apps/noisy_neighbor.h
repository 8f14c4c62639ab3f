// The noisy-neighbor scenario (Sec. 3: Xok shares CPU and memory among mutually
// distrustful library OSes and takes resources back by visible revocation,
// then abort), defined once for the gated bench and the soak tests.
//
// One XokKernel hosts three latency-sensitive victim envs, each serving an
// open-loop request every kVictimInterval (CPU burn, region write, NIC
// transmit), and a flooder tenant of kFloodWorkers envs that drain one shared
// flood script and then spin CPU-bound to the deadline. Under tenant tickets
// the victims hold 3 x 400 and the flooder 8 x 12; in the equal-ticket control
// every env holds 100, so the flooder gets 8 of every 11 slices. A pressure
// policy revokes frames from whoever is most over its share: a compliant
// flooder worker sheds hoarded frames in its revocation upcall, a hostile one
// hoards up front, installs no handler, and is aborted. CPU is attributed
// from each env's `run` spans on its trace track; no env installs a slice
// upcall, so counting slices charges nothing.
#ifndef EXO_APPS_NOISY_NEIGHBOR_H_
#define EXO_APPS_NOISY_NEIGHBOR_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "sim/engine.h"

namespace exo::apps {

inline constexpr uint32_t kNoisyMhz = 200;
inline constexpr sim::Cycles kNoisyEpoch = 500'000;  // 2.5 ms = 5 quanta
inline constexpr int kVictims = 3;
inline constexpr int kFloodWorkers = 8;
// Victim tickets are deliberately high relative to demand (each victim uses
// ~21% CPU): a small victim stride keeps pass accrual during backlog catch-up
// below the virtual-clock rate, so victims retain their banked credit — and
// with it the right to preempt — even while draining a burst.
inline constexpr uint32_t kVictimTickets = 400;
inline constexpr uint32_t kFloodTickets = 12;   // tenant total 96: ~7% of CPU
inline constexpr uint32_t kEqualTickets = 100;  // control: every env alike
inline constexpr sim::Cycles kVictimInterval = 100'000;
// A request answered within kLatencySlo (2 ms) is good; an epoch needs
// kGoodputSlo of its requests good.
inline constexpr sim::Cycles kLatencySlo = 400'000;
inline constexpr double kGoodputSlo = 0.9;

// One flooder operation. The one-line codec, ddmin-able like fault schedules:
//   c@N cpu burn of N cycles    f@N alloc N frames     r@N release N frames
//   n@N transmit N frames       d@B DMA-write disk block B (mod 64)
struct FloodOp {
  char kind = 'c';
  uint32_t arg = 0;
  bool operator==(const FloodOp&) const = default;
};

std::string FormatFloodSchedule(const std::vector<FloodOp>& ops);
// Strict: an unknown kind, a missing '@', or an argument that is not a decimal
// uint32 yields no ops and "token N: <why>" in *error, else *error is "".
std::vector<FloodOp> ParseFloodSchedule(const std::string& text, std::string* error);
// 24 ops per epoch, drawn from `seed`.
std::vector<FloodOp> GenerateFloodSchedule(uint64_t seed, uint64_t epochs);

struct NoisyConfig {
  uint64_t seed = 1;
  uint64_t epochs = 8;
  bool equal_tickets = false;  // every env at kEqualTickets (control run)
  bool hostile = false;  // flooder hoards up front and ignores revocation
  bool trace = false;    // trace every category and keep the text dump
  const std::vector<FloodOp>* replay = nullptr;  // run this script, not the seed's
};

// What an env got from the scheduler: its `run` spans' cycles and count.
struct EnvRun {
  sim::Cycles cycles = 0;
  uint64_t slices = 0;
};

struct NoisySample {
  sim::Cycles arrival = 0;
  sim::Cycles latency = 0;
};

struct NoisyResult {
  std::vector<FloodOp> ops;  // the flood script (generated or replayed)
  size_t ops_executed = 0;
  uint64_t requests_per_victim = 0;
  std::vector<std::vector<NoisySample>> victims;  // per victim, in request order
  std::vector<EnvRun> victim_runs;
  std::vector<EnvRun> flood_runs;  // per flooder worker
  uint64_t pressure_revokes = 0;
  uint64_t pressure_aborts = 0;
  uint64_t env_aborts = 0;
  std::vector<std::pair<std::string, uint64_t>> counters;
  std::string invariants;       // XokKernel::CheckInvariants() after the run
  std::string deadlock_report;  // "" unless the scheduler declared deadlock
  std::string trace_dump;       // trace::TextDump, when cfg.trace
  // When kernel.Run() returned, once every env had finished: the time the
  // CPU was shared, and so what each env's `run` cycles are a share of.
  sim::Cycles kernel_end_time = 0;
  sim::Cycles end_time = 0;  // after the flooder's queued disk writes drained
};

// Runs cfg.epochs * kNoisyEpoch cycles, drains in-flight disk DMA, and reaps
// every env. Aborts if the trace ring dropped records, since the CPU
// attribution would then undercount.
NoisyResult RunNoisyNeighbor(const NoisyConfig& cfg);

}  // namespace exo::apps

#endif  // EXO_APPS_NOISY_NEIGHBOR_H_
