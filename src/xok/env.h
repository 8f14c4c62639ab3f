// Environment: the kernel-visible state of one running program (Sec. 5.1).
//
// An environment holds exactly what the hardware needs to run a process and respond to
// events: a page table, capability list, scheduling state, and upcall entry points.
// Everything else (UNIX process semantics, file descriptors, signals) lives in the
// libOS. A small application-reserved area in the environment structure is readable by
// everyone and writable by the owner; ExOS keeps its process-table entry there.
#ifndef EXO_XOK_ENV_H_
#define EXO_XOK_ENV_H_

#include <array>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <vector>

#include "sim/engine.h"
#include "sim/fiber.h"
#include "udf/insn.h"
#include "xok/capability.h"
#include "xok/page_table.h"

namespace exo::xok {

using EnvId = uint32_t;
constexpr EnvId kInvalidEnv = 0xffffffff;

// A kernel object a blocked env's wakeup predicate reads. When the predicate
// declares its watches, the scheduler re-evaluates it only after a write to one
// of the watched objects (or once the deadline passes) instead of on every
// scheduling decision.
enum class WatchKind : uint8_t {
  kRegion,      // id = RegionId: SysRegionWrite/Destroy
  kFilterRing,  // id = FilterId: packet arrival, ring consume, filter removal
  kIpc,         // id = EnvId whose ipc_queue is read (usually the watcher's own)
  kEnvState,    // id = EnvId: exit/abort transitions (wait-style predicates)
};

struct WatchSpec {
  WatchKind kind = WatchKind::kRegion;
  uint32_t id = 0;
};

// A downloaded wakeup predicate (Sec. 5.1): a loop-free program the kernel evaluates
// when the environment is about to be scheduled; the environment runs only if it
// returns nonzero. The program reads a pinned memory window (pre-translated physical
// addresses in real Xok) and may compare against the system clock.
//
// LibOS code may alternatively install a host-lambda predicate with an explicit cycle
// cost; this stands in for an equivalent downloaded program where writing assembly
// text would add nothing, while keeping the charged cost honest.
struct WakeupPredicate {
  udf::Program program;                               // empty => use `host`
  const std::vector<uint8_t>* live_window = nullptr;  // pinned live memory
  std::function<bool()> host;
  sim::Cycles host_cost = 60;
  // Re-evaluation deadline hint for time-based predicates; the scheduler advances an
  // idle clock no further than this before re-checking.
  sim::Cycles deadline = UINT64_MAX;
  // Opt-in dirty-window indexing. Empty (the default): the predicate is
  // re-evaluated on every scheduling decision, exactly as before. Non-empty: the
  // installer asserts the predicate's value can only change when one of the
  // watched kernel objects is written (or when `deadline` passes) — predicates
  // over raw application memory that other envs poke directly must NOT declare
  // watches, since those stores are invisible to the kernel.
  std::vector<WatchSpec> watches;
};

enum class EnvState : uint8_t {
  kRunnable,
  kBlocked,   // waiting on a wakeup predicate
  kZombie,    // exited; waiting to be reaped by the spawner
};

struct IpcMessage {
  EnvId from = kInvalidEnv;
  std::array<uint64_t, 4> words{};
};

// ---- Resource accounting (quotas + revocation, Sec. 3 "visible resource
// revocation" and Sec. 3.5 "the abort protocol") ----

// Per-env ceilings. Defaults are effectively unlimited; a supervisor (the host
// driver or a privileged libOS) lowers them with SysSetQuota. All admission
// checks are pure integer compares on the stored ledger — no cycles are charged
// beyond the syscall's normal cost, so well-behaved workloads are unaffected.
struct ResourceQuota {
  uint32_t frames = UINT32_MAX;      // direct refs + page-table mappings
  uint32_t regions = UINT32_MAX;     // software regions owned
  uint64_t region_bytes = UINT64_MAX;
  uint32_t filters = UINT32_MAX;     // packet filters installed
  uint32_t ring_slots = UINT32_MAX;  // sum of filter ring capacities
  uint32_t ipc_depth = 1024;         // pending messages in ipc_queue
  // Proportional-share CPU weight for the stride scheduler. Tickets are part of
  // the quota ledger, so SysSetQuota adjusts them live under the same
  // capability check as every other ceiling. Zero is legal and means "best
  // effort": the scheduler applies a one-ticket floor so the env still makes
  // progress instead of starving outright.
  uint32_t cpu_tickets = 100;
  // When locked, the env itself may not raise its own quota (a hostile libOS
  // cannot simply undo the limits placed on it).
  bool locked = false;
};

// The ledger the kernel maintains as resources are granted/released. Stored
// (not recomputed) so admission is O(1); CheckInvariants() recounts from
// scratch and cross-checks.
struct ResourceUsage {
  uint32_t frames = 0;
  uint32_t regions = 0;
  uint64_t region_bytes = 0;
  uint32_t filters = 0;
  uint32_t ring_slots = 0;
};

enum class RevokeResource : uint8_t { kFrames, kRegions, kFilters };

// An outstanding revocation: the kernel has asked the env (via its on_revoke
// upcall) to shed resources down to `allowed` before `deadline`. Past the
// deadline a non-compliant env is aborted and the kernel repossesses
// everything it held (Sec. 3.5).
struct RevocationRequest {
  RevokeResource resource = RevokeResource::kFrames;
  uint32_t allowed = 0;       // usage the env must get down to
  sim::Cycles deadline = 0;   // absolute cycle count
  // Set when the kernel's memory-pressure monitor issued this request (rather
  // than a supervisor env): a deadline abort then counts toward
  // "xok.pressure_aborts" so soaks can tell policy kills from hostile ones.
  bool from_pressure = false;
};

struct Env {
  EnvId id = kInvalidEnv;
  EnvId parent = kInvalidEnv;
  bool alive = false;

  std::vector<Capability> caps;
  PageTable pt;

  EnvState state = EnvState::kRunnable;
  WakeupPredicate predicate;  // valid when state == kBlocked
  // Dirty flag for watched predicates: set when a watched object is written (and
  // on block, so every predicate is evaluated at least once); cleared after an
  // evaluation that returned false. Meaningless when predicate.watches is empty.
  bool predicate_dirty = true;

  // Scheduling.
  sim::Cycles slice_used = 0;
  // Stride-scheduler state: the env's pass value advances by
  // stride * (cpu consumed / quantum) each time it is descheduled, and the
  // scheduler always runs the lowest-pass schedulable env. `sched_seq` is a
  // kernel-assigned tie-break refreshed at every deschedule, so equal-pass
  // envs rotate instead of the lowest id winning every tie (with equal
  // tickets this degenerates to round-robin order).
  uint64_t pass = 0;
  uint64_t sched_seq = 0;
  uint32_t critical_depth = 0;        // robust critical sections: software interrupts off
  bool end_of_slice_pending = false;  // slice expired inside a critical section
  EnvId yield_to = kInvalidEnv;       // directed yield hint

  // Upcalls. Installed by the libOS; invoked by the kernel in env context.
  // Page-fault handler returns true if it resolved the fault (e.g. COW copy).
  std::function<bool(VPage, bool write)> on_page_fault;
  std::function<void()> on_slice_begin;
  std::function<void()> on_slice_end;
  std::function<void(const IpcMessage&)> on_ipc;

  std::deque<IpcMessage> ipc_queue;

  // ---- Resource accounting ----

  ResourceQuota quota;
  ResourceUsage usage;
  // Direct frame references held via SysFrameAlloc/SysFrameRef (frame -> count).
  // Page-table references are tracked by `pt` itself. Together these are what
  // AbortEnv repossesses and what CheckInvariants() audits.
  std::map<hw::FrameId, uint32_t> frame_refs;

  // Outstanding revocation, if any (at most one at a time).
  std::optional<RevocationRequest> pending_revoke;
  // Revocation upcall, installed by the libOS. Runs in env context with
  // software interrupts disabled (critical section), like the other upcalls.
  std::function<void(const RevocationRequest&)> on_revoke;

  // Why the kernel aborted this env (nullptr if it exited voluntarily).
  const char* abort_reason = nullptr;

  // Watchdog: consecutive end-of-slice deferrals inside one critical section.
  uint32_t deferred_slices = 0;
  // Set when the parent exited first; FinishExit auto-reaps orphaned zombies.
  bool orphaned = false;

  // Application-reserved space in the kernel environment structure, mapped readable
  // for all processes and writable only for the owner (Sec. 9.3).
  std::array<uint8_t, 256> app_data{};

  int exit_code = 0;

  // Host-side execution context (the simulated program counter + stack).
  std::unique_ptr<sim::Fiber> fiber;

  // Accounting surfaced to Figure 4/5 benches: per-process run time.
  sim::Cycles spawned_at = 0;
  sim::Cycles exited_at = 0;

  // Tracing: the track this env's spans land on (the kernel track when the env
  // was created with tracing off), and when the current blocked period started
  // (the wake path emits the whole `blocked` span retrospectively).
  uint32_t trace_track = 0;
  sim::Cycles blocked_since = 0;
};

}  // namespace exo::xok

#endif  // EXO_XOK_ENV_H_
