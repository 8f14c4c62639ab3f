// XokKernel: the exokernel proper (Sec. 3, Sec. 5.1).
//
// Xok multiplexes the physical resources of one simulated machine: CPU time
// (proportional-share stride scheduling over per-env quota tickets, with
// begin/end-of-slice upcalls and directed yield), physical memory
// (explicit frame allocation guarded by capabilities; page tables updated only through
// system calls), the network (dynamic packet filters demultiplex frames into per-
// filter packet rings), plus the protected-sharing primitives of Sec. 3.3: software
// regions, hierarchically-named capabilities with explicit credentials on every call,
// wakeup predicates, and robust critical sections.
//
// Everything here follows the exokernel principles: the kernel tracks ownership and
// performs access control, but management (what to map where, when to yield, how to
// lay out data) belongs to the applications. Kernel data structures (environment
// table, page tables, frame guards, packet rings) are exposed read-only to
// applications, which is why many accessors below are free reads rather than
// syscalls.
//
// Simulation note: "user code" runs on fibers; a system call is a method on this class
// that charges the trap cost, validates explicit credentials, and bumps the
// "xok.syscalls" counter. User code never touches kernel state except through these
// methods.
#ifndef EXO_XOK_KERNEL_H_
#define EXO_XOK_KERNEL_H_

#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <set>
#include <span>
#include <string>
#include <tuple>
#include <unordered_map>
#include <utility>
#include <vector>

#include "hw/machine.h"
#include "sim/status.h"
#include "udf/insn.h"
#include "xok/env.h"

namespace exo::xok {

using RegionId = uint32_t;
using FilterId = uint32_t;

// Syscall-surface bounds: the kernel rejects arguments beyond these instead of
// letting a hostile libOS grow kernel structures without limit.
constexpr size_t kMaxGuardName = 64;            // capability-name components
constexpr size_t kMaxFilterProgramInsns = 1024; // packet-filter program length
// Watchdog bounds for robust critical sections (Sec. 3.3): a libOS that nests
// deeper than this, or holds software interrupts disabled across this many
// consecutive quanta, is presumed runaway and aborted.
constexpr uint32_t kMaxCriticalDepth = 1024;
constexpr uint32_t kMaxCriticalDeferrals = 64;

// Stride-scheduler constants. stride = kStrideScale / tickets, so an env with
// twice the tickets accrues pass half as fast and runs twice as often. Tickets
// above kStrideScale would round the stride to zero (the env's pass would
// never advance); the scheduler floors the stride at 1 instead.
constexpr uint64_t kStrideScale = uint64_t{1} << 20;

// How far below the virtual clock a waking env's pass may sit (its banked
// credit from consuming less than its ticket share). Under the cap, sleepers
// keep their credit and preempt CPU-bound envs the moment they wake; above
// it the excess is forfeited, so a hostile env cannot convert a long idle
// period into a starvation burst — at minimum share (stride == kStrideScale)
// the burst is capped at kMaxSchedLag / kStrideScale of a slice, and
// proportionally more quanta only for envs holding proportionally more
// tickets.
constexpr uint64_t kMaxSchedLag = kStrideScale / 4;

// Watermark policy for pressure-driven frame revocation. Disabled until the
// host arms it (low_frames == 0). While the free list sits below `low_frames`
// the kernel asks the env most over its tickets-proportional frame share to
// shed down to that share (SysRevoke → on_revoke → deadline → abort), one
// request per `min_interval`, until the free list recovers past `high_frames`
// (hysteresis: low != high keeps the monitor from flapping at the boundary).
struct MemoryPressurePolicy {
  uint32_t low_frames = 0;           // arm: revoke while free < low
  uint32_t high_frames = 0;          // disarm: stop once free >= high
  sim::Cycles grace = 400'000;       // revocation deadline (2 ms at 200 MHz)
  sim::Cycles min_interval = 200'000;  // pacing between pressure revocations
};

struct PtOp {
  enum class Kind : uint8_t { kInsert, kProtect, kRemove } kind = Kind::kInsert;
  VPage vpage = 0;
  Pte pte;  // for insert/protect
};

// A software region (Sec. 3.3): capability-guarded sub-page memory. `owner` is
// the env whose quota ledger carries it (kInvalidEnv: host/registry-owned).
struct Region {
  CapName guard;
  EnvId owner = kInvalidEnv;
  std::vector<uint8_t> bytes;
};

// One installed dynamic packet filter and its packet ring (Sec. 5.1).
struct PacketFilter {
  FilterId id = 0;
  EnvId owner = kInvalidEnv;
  udf::Program program;
  std::deque<hw::Packet> ring;  // NIC DMAs packets here; app consumes
  uint32_t ring_capacity = 64;
  uint64_t delivered = 0;
  uint64_t dropped = 0;
  // True when the program provably reads only fixed offsets inside the
  // flow-key prefix (first kFlowKeyBytes of the frame), making its verdict a
  // pure function of the flow key — the property the demux flow cache relies
  // on. Computed once at install time from the verified program.
  bool flow_cacheable = false;
};

// Demultiplexing is per-packet work: at fleet scale the linear walk over every
// installed filter program dominates delivery. The flow cache memoizes
// "flow-key prefix -> claiming filter" (DPF-style; Engler & Kaashoek, SIGCOMM
// '96): a steady-state packet costs one hash probe instead of up to F program
// evaluations. An entry is installed only when the claiming filter AND every
// filter dispatched before it are flow_cacheable, so the memoized verdict is
// exactly what the walk would recompute. The cache is flushed on any filter
// install/remove and on env teardown (stale entries would misdeliver).
constexpr uint32_t kFlowKeyBytes = 16;  // proto + src/dst ip + pad + ports
// Charged on a flow-cache hit in place of the filter-program evaluations: one
// hash + one compare of the 16-byte key.
constexpr sim::Cycles kDemuxProbeCost = 40;

struct FlowKey {
  uint64_t lo = 0;
  uint64_t hi = 0;
  bool operator==(const FlowKey&) const = default;
};

struct FlowKeyHash {
  size_t operator()(const FlowKey& k) const {
    uint64_t x = k.lo ^ (k.hi * 0x9e3779b97f4a7c15ULL);
    x ^= x >> 30;
    x *= 0xbf58476d1ce4e5b9ULL;
    x ^= x >> 27;
    return static_cast<size_t>(x);
  }
};

class XokKernel {
 public:
  explicit XokKernel(hw::Machine* machine);
  ~XokKernel();

  XokKernel(const XokKernel&) = delete;
  XokKernel& operator=(const XokKernel&) = delete;

  // ---- Environment lifecycle (sys_env_alloc and friends) ----

  // Creates an environment holding the given capabilities. The body runs on its own
  // fiber once Run() schedules it.
  EnvId CreateEnv(EnvId parent, std::vector<Capability> caps, std::function<void()> body);

  Env& env(EnvId id);
  const Env& env(EnvId id) const;
  bool EnvExists(EnvId id) const;
  uint32_t alive_count() const { return alive_count_; }

  // Reaps a zombie environment: frees its frames and kernel state. Called by the
  // parent libOS (wait) or the host driver for top-level environments.
  [[nodiscard]] Status ReapEnv(EnvId id);

  // Forcibly terminates an environment, repossessing everything it holds: page-
  // table mappings, direct frame references, regions, filters, queued IPC. Unlike
  // ReapEnv after a voluntary exit, nothing survives. This is the kernel's last
  // resort in the abort protocol (Sec. 3.5) and the watchdogs' teeth. Safe on
  // zombies (reclaims what a voluntary exit left shared). Never returns when the
  // env aborts itself (the calling fiber suspends forever).
  void AbortEnv(EnvId id, const char* reason);

  // ---- Resource quotas + revocation (Sec. 3: visible revocation; Sec. 3.5) ----

  // Replaces `target`'s quota. Callable from the host, or by an env holding the
  // target's environment capability — except that an env whose quota is `locked`
  // may not change its own.
  [[nodiscard]] Status SysSetQuota(EnvId target, const ResourceQuota& q, CredIndex cred);

  // Asks `target` (via its on_revoke upcall) to shed `resource` down to `allowed`
  // within `grace` cycles. Returns kOk immediately if already compliant, kBusy if
  // a revocation is outstanding. A non-compliant env is aborted by the scheduler
  // once the deadline passes.
  [[nodiscard]] Status SysRevoke(EnvId target, RevokeResource resource, uint32_t allowed,
                                 sim::Cycles grace, CredIndex cred);

  // Audits every kernel data structure against its definition: frame refcounts vs
  // guards vs the free list, per-env ledgers vs a from-scratch recount, zombie/
  // alive/stride-order consistency, capability justification for writable mappings,
  // and the revocation bookkeeping. Returns "" when clean, else one violation per
  // line. Charges nothing (host diagnostic, not a syscall) — the fuzzer calls it
  // after every step.
  std::string CheckInvariants() const;

  // ---- Host driver ----

  // Schedules environments until none are alive. The host test/bench driver calls
  // this once after creating the initial environment(s).
  void Run();

  // The environment whose fiber is currently executing (nullptr in host context).
  Env* current() { return current_; }
  EnvId current_id() const { return current_ == nullptr ? kInvalidEnv : current_->id; }

  // Lowers the idle-time bound after which Run() declares deadlock (tests use a
  // small bound to exercise the diagnostic without minutes of idle scanning).
  void SetDeadlockBound(sim::Cycles cycles) { deadlock_bound_ = cycles; }

  // ---- Memory pressure ----

  // Arms (or, with low_frames == 0, disarms) the pressure monitor.
  void SetMemoryPressurePolicy(const MemoryPressurePolicy& p) { pressure_policy_ = p; }
  // Non-empty once Run() has diagnosed a deadlock (all remaining envs were
  // aborted instead of spinning forever).
  const std::string& deadlock_report() const { return deadlock_report_; }

  // ---- CPU multiplexing (called from env fibers) ----

  // Charges user-mode computation, delivering end-of-slice upcalls and yielding at
  // quantum boundaries (deferred while in a critical section).
  void ChargeCpu(sim::Cycles cycles);

  // Gives up the rest of the slice; optionally a directed yield to a specific
  // environment (used by ExOS pipes, Sec. 5.2.1).
  void SysYield(EnvId directed = kInvalidEnv);

  // Blocks the calling environment until its wakeup predicate evaluates true.
  void SysSleep(WakeupPredicate predicate);

  // Terminates the calling environment; its fiber never resumes.
  [[noreturn]] void SysExit(int code);

  // Blocks until the child is a zombie, then reaps it and returns its exit code.
  [[nodiscard]] Result<int> SysWait(EnvId child);

  // Robust critical sections: disable/enable software interrupts (Sec. 3.3). These
  // are env-local flag flips visible to the kernel, not syscalls.
  void EnterCritical();
  void ExitCritical();

  // ---- Physical memory ----

  // `shared = true` attributes the reference to the host/registry ledger instead
  // of the calling env's quota — used by libOS-shared caches (the buffer
  // registry) whose frames outlive any single environment.
  [[nodiscard]] Result<hw::FrameId> SysFrameAlloc(CredIndex cred, CapName guard,
                                                  bool shared = false);
  [[nodiscard]] Status SysFrameFree(hw::FrameId frame, CredIndex cred);
  // Extra reference for sharing (e.g. COW); freeing decrements.
  [[nodiscard]] Status SysFrameRef(hw::FrameId frame, CredIndex cred);
  uint32_t FreeFrameCount() const;  // exposed free list (no syscall)

  // Trusted-sibling release path (XN, the buffer registry, host drivers): drops
  // one reference through the kernel's accounting so guards and ledgers stay
  // exact when the refcount hits zero. `attribution` names the env whose ledger
  // carried the reference (kInvalidEnv: the host/registry ledger). Charges
  // nothing; callers charge through their own cost models.
  void FrameUnref(hw::FrameId frame, EnvId attribution = kInvalidEnv);

  [[nodiscard]] Status SysPtUpdate(EnvId target, const PtOp& op, CredIndex cred);
  // Batched page-table updates amortize the trap over many entries (Sec. 5.2.1).
  [[nodiscard]] Status SysPtBatch(EnvId target, std::span<const PtOp> ops, CredIndex cred);

  // Walks `env`'s page table to move bytes between a host buffer and mapped frames,
  // taking (and charging) page faults through the environment's handler exactly as
  // hardware would. Used by libOS data paths.
  [[nodiscard]] Status AccessUserMemory(EnvId id, uint64_t vaddr, std::span<uint8_t> buf, bool write,
                          bool charge_copy = true);

  // ---- Software regions (sub-page protection, Sec. 3.3) ----

  [[nodiscard]] Result<RegionId> SysRegionCreate(uint32_t size, CapName guard, CredIndex cred);
  [[nodiscard]] Status SysRegionWrite(RegionId rid, uint32_t off, std::span<const uint8_t> data,
                        CredIndex cred);
  [[nodiscard]] Status SysRegionRead(RegionId rid, uint32_t off, std::span<uint8_t> out, CredIndex cred);
  [[nodiscard]] Status SysRegionDestroy(RegionId rid, CredIndex cred);
  // Exposed state: regions are readable data structures for predicate windows.
  const std::vector<uint8_t>* RegionBytes(RegionId rid) const;

  // ---- IPC ----

  [[nodiscard]] Status SysIpcSend(EnvId to, const IpcMessage& msg, CredIndex cred);
  // Non-blocking receive from own queue.
  [[nodiscard]] Result<IpcMessage> SysIpcRecv();

  // ---- Network ----

  // Installs a packet filter; the program must pass the deterministic-policy
  // verifier. Filters are dispatched in installation order; the kernel inspects
  // programs at install time, which is why it can trust their claims (Sec. 9.3).
  [[nodiscard]] Result<FilterId> SysFilterInstall(udf::Program program, CredIndex cred);
  [[nodiscard]] Status SysFilterRemove(FilterId id, CredIndex cred);
  // Consumes the next packet from the filter's ring (kWouldBlock if empty).
  [[nodiscard]] Result<hw::Packet> SysRingConsume(FilterId id, CredIndex cred);
  const PacketFilter* Filter(FilterId id) const;  // exposed (predicate windows)

  // Switches the demux flow cache. Defaults to on; SetDemuxCache(false)
  // recovers the linear filter walk for every packet (the fleet_http ablation).
  // Host-only toggle; flushes the cache.
  void SetDemuxCache(bool on) {
    demux_cache_on_ = on;
    flow_cache_.clear();
  }
  size_t flow_cache_size() const { return flow_cache_.size(); }

  // Transmits a frame. Data is gathered by DMA; the CPU does not touch the bytes
  // (copies, if any, are charged by the protocol library that built the frame).
  [[nodiscard]] Status SysNicTransmit(uint32_t nic, hw::Packet packet);

  // ---- Misc ----

  // Null syscall: trap + credential check only. Sections 6.1/6.3 use bursts of these
  // to model the cost of protecting writes to shared abstractions.
  void SysNull(int count = 1);

  // Exposed clock (reading the cycle counter needs no syscall).
  sim::Cycles Now() const;

  hw::Machine& machine() { return *machine_; }
  sim::Counters& counters() { return machine_->counters(); }

  // RAII span around one system call: opens a `syscall` span on the calling
  // environment's track, then charges the entry cost (ChargeSyscall). The
  // destructor closes the span with Status::kOk; error paths close
  // early via `return scope.Close(status);`, and syscalls that suspend the
  // fiber close explicitly before blocking so no span stays open across a
  // context switch. Closing also feeds the "syscall.latency_cycles" histogram.
  class SyscallScope {
   public:
    SyscallScope(XokKernel* kernel, const char* name);
    ~SyscallScope() { Close(Status::kOk); }
    SyscallScope(const SyscallScope&) = delete;
    SyscallScope& operator=(const SyscallScope&) = delete;
    // Idempotent; returns `s` so callers can `return scope.Close(s);`.
    Status Close(Status s);

   private:
    XokKernel* kernel_;
    const char* name_;
    uint32_t track_ = 0;
    sim::Cycles start_ = 0;
    bool open_ = false;
  };

  // Validates that `cred` (an index into env's capability list, or kCredAny) grants
  // `need_write` access to `guard`, charging per capability comparison.
  [[nodiscard]] Status CheckCred(const Env& e, CredIndex cred, const CapName& guard, bool need_write);

 private:
  // Charges syscall entry/exit + credential check and counts it.
  void ChargeSyscall(const char* name);
  void FinishExit(Env* e, int code);
  Env* PickNext();
  bool EvalPredicate(Env* e);
  // Effective ticket count (the zero-ticket floor) and the resulting stride.
  static uint64_t EffectiveTickets(const Env& e) {
    return e.quota.cpu_tickets == 0 ? 1 : e.quota.cpu_tickets;
  }
  static uint64_t StrideOf(const Env& e) {
    const uint64_t s = kStrideScale / EffectiveTickets(e);
    return s == 0 ? 1 : s;
  }
  // Stride-order maintenance: the set mirrors (pass, sched_seq) of every alive
  // env, so every pass/seq change must erase + reinsert through these.
  void StrideInsert(const Env& e);
  void StrideErase(const Env& e);
  // Pass bookkeeping at the two scheduling edges: `used` CPU cycles consumed
  // when an env is descheduled, and the bounded-lag clamp when a blocked env
  // wakes (a waker keeps its banked credit, capped at kMaxSchedLag behind the
  // virtual clock so a long sleep cannot be cashed in as a starvation burst).
  void StrideCharge(Env* e, sim::Cycles used);
  void StrideWake(Env* e);
  // Issues one pressure revocation when the free list is below the low
  // watermark (host context, called from the Run() loop; O(1) while disarmed
  // or healthy).
  void MaybeRelievePressure();
  // SysRevoke body; the pressure monitor stamps its requests so deadline
  // aborts can be attributed (the flag must be set before the upcall fires).
  Status RevokeImpl(EnvId target, RevokeResource resource, uint32_t allowed,
                    sim::Cycles grace, CredIndex cred, bool from_pressure);
  // Dirty-window predicate indexing: a blocked env with declared watches is
  // re-evaluated only after one of its watched objects is written (or past its
  // deadline). Registration happens in SysSleep; every write path to a watchable
  // object calls NotifyWatch.
  void RegisterWatches(Env* e);
  void UnregisterWatches(Env* e);
  void NotifyWatch(WatchKind kind, uint32_t id);
  void DeliverEndOfSlice(Env* e);
  void OnPacket(uint32_t nic, hw::Packet p);
  void DeliverToFilter(PacketFilter& f, hw::Packet p);
  void EraseFilter(FilterId id);
  // True when every load in `p` reads a fixed offset inside the flow-key
  // prefix, so the program's verdict is a pure function of the first
  // kFlowKeyBytes of the packet.
  static bool FlowCacheable(const udf::Program& p);
  [[nodiscard]] Status PtApply(Env& target, const PtOp& op, CredIndex cred);

  // Drops one refcount; when the frame dies, retires its guard and any residual
  // host attribution so no stale bookkeeping survives. Every kernel-side Unref
  // goes through here.
  void ReleaseFrame(hw::FrameId frame);
  // Best-effort ledger debit when a reference is released: the caller's own
  // direct ref first, then the host ledger, then any env's (a capability holder
  // may free references it did not take). Returns false when no ledger accounts
  // for the frame — its remaining references are page mappings or kernel-held,
  // and an untrusted free must not steal them.
  bool DebitFrameRef(hw::FrameId frame, Env* preferred);
  uint32_t RevocableUsage(const Env& e, RevokeResource r) const;
  // Clears a pending revocation the moment the env becomes compliant.
  void ClearRevokeIfCompliant(Env& e);
  // The single teardown path for a pending revocation: drops it from the env,
  // the deadline index, and the outstanding count together so the three can
  // never disagree (CheckInvariants cross-checks all of them).
  void DropPendingRevoke(Env& e);
  // Host-context scheduler duties: abort envs past their revocation deadline;
  // reap orphaned zombies queued by FinishExit.
  void EnforceRevocations();
  void DrainPendingReaps();

  hw::Machine* machine_;
  std::map<EnvId, std::unique_ptr<Env>> envs_;
  Env* current_ = nullptr;
  EnvId last_scheduled_ = kInvalidEnv;
  EnvId next_env_id_ = 1;
  uint32_t alive_count_ = 0;

  // Stride scheduler: alive envs ordered by (pass, sched_seq, id). The
  // scheduler picks the first schedulable entry.
  std::set<std::tuple<uint64_t, uint64_t, EnvId>> stride_order_;
  // Virtual clock: the pass of the most-entitled env actually served, i.e.
  // max over picks of the picked env's pass. Tracking the service point (the
  // way CFS tracks min_vruntime) rather than integrating a fair-share rate
  // keeps the clock honest when envs use less than their entitlement — an
  // integrated clock races ahead of every real pass and turns the wake-lag
  // cap into a credit shredder.
  uint64_t global_pass_ = 0;
  uint64_t sched_seq_counter_ = 0;  // tie-break source, bumped per deschedule

  // Memory-pressure monitor state (policy armed by the host).
  MemoryPressurePolicy pressure_policy_;
  bool pressure_active_ = false;          // hysteresis latch
  sim::Cycles last_pressure_revoke_ = 0;  // pacing

  std::map<hw::FrameId, CapName> frame_guards_;
  // References held by the host/registry rather than any env (shared caches,
  // frames surviving a reaped env). CheckInvariants() sums this with the per-env
  // ledgers against the real refcounts.
  std::map<hw::FrameId, uint32_t> host_frame_refs_;
  std::map<RegionId, Region> regions_;
  RegionId next_region_id_ = 1;
  // Keyed by id (== install order) so dispatch iterates in install order while
  // remove/lookup are O(log F) instead of the old vector scan; the per-owner
  // index makes env teardown proportional to the env's own filters.
  std::map<FilterId, PacketFilter> filters_;
  std::map<EnvId, std::set<FilterId>> filters_by_owner_;
  FilterId next_filter_id_ = 1;

  // Demux flow cache: flow-key prefix -> claiming filter. Pointers into
  // filters_ are stable (std::map) and every mutation of filters_ flushes the
  // cache, so an entry can never dangle.
  struct FlowEntry {
    FilterId id = 0;
    PacketFilter* filter = nullptr;
  };
  bool demux_cache_on_ = true;
  std::unordered_map<FlowKey, FlowEntry, FlowKeyHash> flow_cache_;

  // Orphaned zombies queued for host-context reaping (their fibers may be the
  // one executing when they die, so FinishExit cannot erase them inline).
  std::deque<EnvId> pending_reaps_;
  uint32_t pending_revocations_ = 0;
  // Deadline index over envs with a pending revocation, so the scheduler's
  // healthy path peeks at the earliest deadline in O(1) instead of scanning
  // every env per pass. Kept consistent with the per-env pending_revoke
  // optionals by DropPendingRevoke; CheckInvariants audits the pairing.
  std::set<std::pair<sim::Cycles, EnvId>> revoke_deadlines_;
  sim::Cycles deadlock_bound_ = 24'000'000'000ULL;  // 120 s at 200 MHz
  std::string deadlock_report_;

  // CPU time consumed by interrupt-context demultiplexing, folded into the next
  // synchronous charge (we cannot advance the clock from inside an event callback).
  sim::Cycles interrupt_debt_ = 0;

  // Watch key -> blocked envs to mark dirty on write. Entries are pruned when a
  // watcher wakes or dies (UnregisterWatches) and lazily inside NotifyWatch.
  std::map<std::pair<uint8_t, uint32_t>, std::vector<EnvId>> watchers_;

  uint64_t* syscall_counter_ = nullptr;
  uint64_t* ctx_switch_counter_ = nullptr;
  uint64_t* fault_counter_ = nullptr;
  uint64_t* predicate_eval_counter_ = nullptr;
  uint64_t* predicate_skip_counter_ = nullptr;
  uint64_t* demux_counter_ = nullptr;
  uint64_t* demux_hit_counter_ = nullptr;
  uint64_t* demux_miss_counter_ = nullptr;
  uint64_t* unclaimed_counter_ = nullptr;
  uint64_t* ring_drop_counter_ = nullptr;
  uint64_t* ipc_rejected_counter_ = nullptr;
  uint64_t* orphan_reap_counter_ = nullptr;
  uint64_t* stride_pick_counter_ = nullptr;
  uint64_t* wake_jump_counter_ = nullptr;
  uint64_t* pressure_revoke_counter_ = nullptr;
  uint64_t* pressure_abort_counter_ = nullptr;

  // The machine's tracer (never null) and the kernel's own track; per-env
  // tracks live in Env::trace_track.
  trace::Tracer* tracer_ = nullptr;
  uint32_t trace_track_ = 0;
  trace::LatencyHistogram* syscall_hist_ = nullptr;
};

}  // namespace exo::xok

#endif  // EXO_XOK_KERNEL_H_
