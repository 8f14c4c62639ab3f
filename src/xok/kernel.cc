#include "xok/kernel.h"

#include <algorithm>
#include <cstdio>
#include <cstring>

#include "udf/verifier.h"
#include "udf/vm.h"

namespace exo::xok {

namespace {

CapName EnvGuardName(EnvId id) {
  return CapName{kCapEnvs, static_cast<uint16_t>(id >> 16), static_cast<uint16_t>(id & 0xffff)};
}

// Idle-clock tick when every environment is blocked and no device events are pending.
constexpr sim::Cycles kIdleTick = 20'000;  // 100 us at 200 MHz

}  // namespace

XokKernel::XokKernel(hw::Machine* machine) : machine_(machine) {
  syscall_counter_ = machine_->counters().Handle("xok.syscalls");
  ctx_switch_counter_ = machine_->counters().Handle("xok.context_switches");
  fault_counter_ = machine_->counters().Handle("xok.page_faults");
  predicate_eval_counter_ = machine_->counters().Handle("xok.predicate_evals");
  predicate_skip_counter_ = machine_->counters().Handle("xok.predicate_skips");
  demux_counter_ = machine_->counters().Handle("xok.packets_demuxed");
  demux_hit_counter_ = machine_->counters().Handle("xok.demux_hits");
  demux_miss_counter_ = machine_->counters().Handle("xok.demux_misses");
  unclaimed_counter_ = machine_->counters().Handle("xok.packets_unclaimed");
  ring_drop_counter_ = machine_->counters().Handle("xok.ring_drops");
  ipc_rejected_counter_ = machine_->counters().Handle("xok.rejected");
  orphan_reap_counter_ = machine_->counters().Handle("xok.orphans_reaped");
  stride_pick_counter_ = machine_->counters().Handle("sched.stride_picks");
  wake_jump_counter_ = machine_->counters().Handle("sched.wake_pass_jumps");
  pressure_revoke_counter_ = machine_->counters().Handle("xok.pressure_revokes");
  pressure_abort_counter_ = machine_->counters().Handle("xok.pressure_aborts");
  tracer_ = &machine_->tracer();
  trace_track_ = tracer_->NewTrack("kernel");
  syscall_hist_ = tracer_->Histogram("syscall.latency_cycles");
  for (uint32_t i = 0; i < machine_->num_nics(); ++i) {
    machine_->nic(i).SetReceiveHandler([this, i](hw::Packet p) { OnPacket(i, std::move(p)); });
  }
}

XokKernel::~XokKernel() = default;

XokKernel::SyscallScope::SyscallScope(XokKernel* kernel, const char* name)
    : kernel_(kernel), name_(name) {
  // The span opens before the entry charge, so it and its latency sample cover
  // the trap and the check as well as the body.
  if (kernel_->tracer_->enabled(trace::Category::kSyscall)) {
    track_ = kernel_->current_ != nullptr ? kernel_->current_->trace_track
                                          : kernel_->trace_track_;
    start_ = kernel_->machine_->engine().now();
    kernel_->tracer_->Begin(trace::Category::kSyscall, track_, name_, start_,
                            kernel_->current_id());
    open_ = true;
  }
  kernel_->ChargeSyscall(name_);
}

Status XokKernel::SyscallScope::Close(Status s) {
  if (open_) {
    open_ = false;
    const sim::Cycles now = kernel_->machine_->engine().now();
    kernel_->tracer_->End(trace::Category::kSyscall, track_, name_, now,
                          static_cast<uint64_t>(s));
    kernel_->syscall_hist_->Record(now - start_);
  }
  return s;
}

void XokKernel::ChargeSyscall(const char* name) {
  const auto& c = machine_->cost();
  machine_->Charge(c.trap_round_trip + c.xok_syscall_check + interrupt_debt_);
  interrupt_debt_ = 0;
  ++*syscall_counter_;
}

Status XokKernel::CheckCred(const Env& e, CredIndex cred, const CapName& guard,
                            bool need_write) {
  const auto& c = machine_->cost();
  if (cred == kCredAny) {
    for (const Capability& cap : e.caps) {
      machine_->Charge(c.cap_check);
      if (Dominates(cap, guard, need_write)) {
        return Status::kOk;
      }
    }
    return Status::kPermissionDenied;
  }
  if (cred < 0 || static_cast<size_t>(cred) >= e.caps.size()) {
    return Status::kInvalidArgument;
  }
  machine_->Charge(c.cap_check);
  return Dominates(e.caps[static_cast<size_t>(cred)], guard, need_write)
             ? Status::kOk
             : Status::kPermissionDenied;
}

// ---- Environments ----

EnvId XokKernel::CreateEnv(EnvId parent, std::vector<Capability> caps,
                           std::function<void()> body) {
  SyscallScope scope(this, "env_alloc");
  EnvId id = next_env_id_++;
  auto e = std::make_unique<Env>();
  e->id = id;
  // With tracing off at creation, the env shares the kernel track; a track
  // created later would renumber depending on when tracing was switched on.
  e->trace_track = tracer_->active() ? tracer_->NewTrack("env" + std::to_string(id))
                                     : trace_track_;
  e->parent = parent;
  e->alive = true;
  e->caps = std::move(caps);
  // The environment implicitly holds the capability for itself; its creator is
  // granted one too, enabling parent-managed setup (fork) under unidirectional trust.
  e->caps.push_back(Capability{EnvGuardName(id), true});
  if (parent != kInvalidEnv && EnvExists(parent)) {
    env(parent).caps.push_back(Capability{EnvGuardName(id), true});
  }
  e->spawned_at = machine_->engine().now();
  Env* raw = e.get();
  e->fiber = std::make_unique<sim::Fiber>([this, raw, body = std::move(body)] {
    body();
    // Body returned without SysExit; treat as exit(0) from host context after the
    // fiber completes (see Run()).
  });
  // A newborn joins one stride above the virtual clock, as if it had just
  // been issued its first quantum: it competes fairly from now on but cannot
  // claim credit for time before it existed, and a burst of newborns does not
  // pile up at the clock ahead of envs already mid-stride.
  raw->pass = global_pass_ + StrideOf(*raw);
  raw->sched_seq = ++sched_seq_counter_;
  envs_[id] = std::move(e);
  StrideInsert(*raw);
  ++alive_count_;
  return id;
}

Env& XokKernel::env(EnvId id) {
  auto it = envs_.find(id);
  EXO_CHECK(it != envs_.end());
  return *it->second;
}

const Env& XokKernel::env(EnvId id) const {
  auto it = envs_.find(id);
  EXO_CHECK(it != envs_.end());
  return *it->second;
}

bool XokKernel::EnvExists(EnvId id) const { return envs_.count(id) != 0; }

Status XokKernel::ReapEnv(EnvId id) {
  auto it = envs_.find(id);
  if (it == envs_.end()) {
    return Status::kNotFound;
  }
  Env& e = *it->second;
  if (e.state != EnvState::kZombie) {
    return Status::kBusy;
  }
  // Drop the mapping references; frames shared with the buffer-cache registry (or
  // other environments) survive, which is how cache contents outlive processes.
  for (const auto& [vp, pte] : e.pt.entries()) {
    ReleaseFrame(pte.frame);
  }
  // Direct references survive the reap (same reason), but their ledger entries
  // move to the host so the global accounting stays exact and a later holder of
  // the guard capability can still free them.
  for (const auto& [f, n] : e.frame_refs) {
    host_frame_refs_[f] += n;
  }
  // Regions survive likewise, ownerless; installed filters of a dead env can
  // only accumulate garbage, so they go.
  for (auto& [rid, region] : regions_) {
    if (region.owner == id) {
      region.owner = kInvalidEnv;
    }
  }
  if (auto owned = filters_by_owner_.find(id); owned != filters_by_owner_.end()) {
    for (FilterId fid : owned->second) {
      NotifyWatch(WatchKind::kFilterRing, fid);
      filters_.erase(fid);
    }
    filters_by_owner_.erase(owned);
    flow_cache_.clear();
  }
  DropPendingRevoke(e);
  envs_.erase(it);
  return Status::kOk;
}

void XokKernel::FinishExit(Env* e, int code) {
  EXO_CHECK(e->alive);
  if (e->state == EnvState::kBlocked) {
    UnregisterWatches(e);  // a blocked env can die via AbortEnv
  }
  StrideErase(*e);
  e->alive = false;
  e->state = EnvState::kZombie;
  e->exit_code = code;
  e->exited_at = machine_->engine().now();
  --alive_count_;
  NotifyWatch(WatchKind::kEnvState, e->id);  // wait-style predicates on this env
  // A zombie cannot comply with a revocation; the abort/reap path reclaims.
  DropPendingRevoke(*e);
  // Orphan handling: children of a dead parent will never be SysWait()ed on, so
  // their zombie state would leak. Reparent them to "no one" and auto-reap any
  // that are already (or later become) zombies. Top-level envs (created with no
  // parent) keep the old behavior: the host driver inspects and reaps them.
  for (auto& [cid, child] : envs_) {
    if (child->parent == e->id) {
      child->parent = kInvalidEnv;
      child->orphaned = true;
      if (child->state == EnvState::kZombie) {
        pending_reaps_.push_back(cid);
      }
    }
  }
  if (e->orphaned || (e->parent != kInvalidEnv && !EnvExists(e->parent))) {
    pending_reaps_.push_back(e->id);
  }
}

// ---- Scheduler ----

bool XokKernel::EvalPredicate(Env* e) {
  WakeupPredicate& p = e->predicate;
  if (!p.program.empty()) {
    udf::RunInput in;
    if (p.live_window != nullptr) {
      in.buffers[udf::kBufMeta] = *p.live_window;
    }
    in.time = [this] { return machine_->engine().now(); };
    in.fuel = 4096;
    udf::RunOutput out = udf::Run(p.program, in);
    machine_->Charge(out.insns * machine_->cost().downloaded_insn);
    return out.ok && out.ret != 0;
  }
  if (p.host) {
    machine_->Charge(p.host_cost);
    return p.host();
  }
  return true;  // empty predicate: plain yield-style sleep, immediately runnable
}

Env* XokKernel::PickNext() {
  // Directed-yield hint takes priority (Sec. 9.1: the CPU interface's directed yields
  // let communicating processes hand the slice to each other).
  auto consider = [this](Env* e) -> Env* {
    if (!e->alive) {
      return nullptr;
    }
    if (e->state == EnvState::kRunnable) {
      return e;
    }
    if (e->state != EnvState::kBlocked) {
      return nullptr;
    }
    // Watched predicates: skip the evaluation entirely while no watched object
    // has been written and the deadline has not passed. The skip charges nothing
    // (a flag check in kernel memory), so unwatched workloads are untouched.
    if (!e->predicate.watches.empty() && !e->predicate_dirty &&
        machine_->engine().now() < e->predicate.deadline) {
      ++*predicate_skip_counter_;
      if (tracer_->enabled(trace::Category::kSched)) {
        tracer_->Instant(trace::Category::kSched, trace_track_, "pred_skip",
                         machine_->engine().now(), e->id);
      }
      return nullptr;
    }
    ++*predicate_eval_counter_;
    if (tracer_->enabled(trace::Category::kSched)) {
      tracer_->Instant(trace::Category::kSched, trace_track_, "pred_eval",
                       machine_->engine().now(), e->id);
    }
    const bool ready = EvalPredicate(e);
    e->predicate_dirty = false;
    if (ready) {
      UnregisterWatches(e);
      e->state = EnvState::kRunnable;
      StrideWake(e);
      if (tracer_->enabled(trace::Category::kSched)) {
        // The whole blocked period, emitted retrospectively at wake so no span
        // stays open while the fiber is suspended.
        tracer_->Begin(trace::Category::kSched, e->trace_track, "blocked",
                       e->blocked_since, e->id);
        tracer_->End(trace::Category::kSched, e->trace_track, "blocked",
                     machine_->engine().now(), e->id);
      }
      return e;
    }
    return nullptr;
  };

  if (last_scheduled_ != kInvalidEnv && EnvExists(last_scheduled_)) {
    EnvId hint = env(last_scheduled_).yield_to;
    if (hint != kInvalidEnv) {
      env(last_scheduled_).yield_to = kInvalidEnv;
      auto it = envs_.find(hint);
      if (it != envs_.end()) {
        if (Env* e = consider(it->second.get())) {
          return e;
        }
      }
    }
  }

  // Stride pick: walk alive envs in (pass, sched_seq) order and run the first
  // schedulable one — blocked envs keep their place and are predicate-checked
  // as encountered. The walk re-seeks by key each step because a charged
  // predicate evaluation can fire device events whose handlers mutate the set.
  auto it = stride_order_.begin();
  while (it != stride_order_.end()) {
    const auto key = *it;
    if (Env* e = consider(&env(std::get<2>(key)))) {
      return e;
    }
    it = stride_order_.upper_bound(key);
  }
  return nullptr;
}

void XokKernel::StrideInsert(const Env& e) {
  stride_order_.insert({e.pass, e.sched_seq, e.id});
}

void XokKernel::StrideErase(const Env& e) {
  stride_order_.erase({e.pass, e.sched_seq, e.id});
}

void XokKernel::StrideCharge(Env* e, sim::Cycles used) {
  StrideErase(*e);
  // Pass advances with CPU actually consumed, not per slice granted: an env
  // that yields early pays for what it used, one that defers its slice end
  // inside a critical section pays for every deferred quantum.
  const uint64_t inc = StrideOf(*e) * used / machine_->cost().quantum;
  e->pass += inc == 0 ? 1 : inc;
  e->sched_seq = ++sched_seq_counter_;
  StrideInsert(*e);
}

void XokKernel::StrideWake(Env* e) {
  // Bounded lag: an env that consumes less than its ticket share legitimately
  // trails the virtual clock, and that credit is what lets it preempt
  // CPU-bound envs the moment it wakes — so a waker keeps its own pass.
  // But the credit is capped at kMaxSchedLag of virtual time: a hostile env
  // that sleeps for ages and then goes CPU-bound can burst only
  // kMaxSchedLag / stride quanta (about one slice at minimum share) before
  // the scheduler treats it like any other contender, instead of cashing the
  // whole idle period in as starvation of everyone else.
  const uint64_t floor =
      global_pass_ > kMaxSchedLag ? global_pass_ - kMaxSchedLag : 0;
  if (e->pass >= floor) {
    return;
  }
  StrideErase(*e);
  e->pass = floor;
  e->sched_seq = ++sched_seq_counter_;
  StrideInsert(*e);
  ++*wake_jump_counter_;
}

void XokKernel::Run() {
  EXO_CHECK(current_ == nullptr);
  sim::Cycles idle_since = machine_->engine().now();
  bool was_idle = false;

  while (alive_count_ > 0) {
    DrainPendingReaps();
    if (pending_revocations_ > 0) {
      EnforceRevocations();
      if (alive_count_ == 0) {
        break;
      }
    }
    MaybeRelievePressure();
    Env* next = PickNext();
    if (next == nullptr) {
      if (machine_->engine().HasPendingEvents()) {
        machine_->engine().RunNextEvent();
        was_idle = false;
        continue;
      }
      // Everything is blocked and no device events are pending: advance the clock so
      // time-based predicates can fire. Bounded to catch true deadlock.
      if (!was_idle) {
        was_idle = true;
        idle_since = machine_->engine().now();
      }
      sim::Cycles step = kIdleTick;
      for (const auto& [id, e] : envs_) {
        if (e->state == EnvState::kBlocked && e->predicate.deadline != UINT64_MAX &&
            e->predicate.deadline > machine_->engine().now()) {
          step = std::min(step, e->predicate.deadline - machine_->engine().now());
        }
      }
      if (!revoke_deadlines_.empty() &&
          revoke_deadlines_.begin()->first > machine_->engine().now()) {
        step = std::min(step, revoke_deadlines_.begin()->first - machine_->engine().now());
      }
      if (machine_->engine().now() - idle_since >= deadlock_bound_) {
        // Never-true predicates (or a lost wakeup) would idle forever. Report a
        // diagnostic and abort the stuck envs instead of spinning or crashing
        // the host: a buggy libOS may only hurt itself (Sec. 3).
        deadlock_report_ = "deadlock: " + std::to_string(alive_count_) + " alive envs idle for " +
                           std::to_string(machine_->engine().now() - idle_since) + " cycles:";
        std::vector<EnvId> stuck;
        for (const auto& [id, e] : envs_) {
          deadlock_report_ += " env" + std::to_string(id) + "=" +
                              (e->state == EnvState::kRunnable ? "runnable"
                               : e->state == EnvState::kBlocked ? "blocked"
                                                                : "zombie");
          if (e->alive) {
            stuck.push_back(id);
          }
        }
        std::fprintf(stderr, "%s\n", deadlock_report_.c_str());
        for (EnvId id : stuck) {
          AbortEnv(id, "deadlock: wakeup predicate can never become true");
        }
        continue;
      }
      machine_->engine().Advance(step);
      continue;
    }
    was_idle = false;

    if (next->id != last_scheduled_) {
      machine_->Charge(machine_->cost().context_switch);
      ++*ctx_switch_counter_;
      if (tracer_->enabled(trace::Category::kSched)) {
        tracer_->Instant(trace::Category::kSched, trace_track_, "context_switch",
                         machine_->engine().now(), next->id);
      }
    }
    last_scheduled_ = next->id;
    next->slice_used = 0;
    ++*stride_pick_counter_;
    machine_->Charge(machine_->cost().stride_pick);
    // Advance the virtual clock to the service point. The picked env is the
    // lowest-pass schedulable env, so this is the stride analogue of CFS
    // min_vruntime: monotone, and never ahead of what is actually served.
    if (next->pass > global_pass_) {
      global_pass_ = next->pass;
    }
    const sim::Cycles run_from = machine_->engine().now();

    if (next->on_slice_begin) {
      machine_->Charge(machine_->cost().upcall);
      next->on_slice_begin();
    }

    const bool trace_run = tracer_->enabled(trace::Category::kSched);
    if (trace_run) {
      tracer_->Begin(trace::Category::kSched, next->trace_track, "run",
                     machine_->engine().now(), next->id);
    }
    current_ = next;
    next->fiber->Resume();
    current_ = nullptr;
    if (trace_run) {
      tracer_->End(trace::Category::kSched, next->trace_track, "run",
                   machine_->engine().now(), next->id);
    }

    if (next->fiber->done() && next->alive) {
      FinishExit(next, 0);
    }
    if (next->alive) {
      StrideCharge(next, machine_->engine().now() - run_from);
    }
  }
  DrainPendingReaps();
}

void XokKernel::DrainPendingReaps() {
  while (!pending_reaps_.empty()) {
    EnvId id = pending_reaps_.front();
    pending_reaps_.pop_front();
    if (EnvExists(id) && env(id).state == EnvState::kZombie) {
      ++*orphan_reap_counter_;
      EXO_CHECK_EQ(ReapEnv(id), Status::kOk);
    }
  }
}

void XokKernel::EnforceRevocations() {
  // The deadline index makes the healthy path O(1): peek at the earliest
  // outstanding deadline instead of scanning every env per scheduler pass.
  while (!revoke_deadlines_.empty() &&
         revoke_deadlines_.begin()->first <= machine_->engine().now()) {
    const EnvId id = revoke_deadlines_.begin()->second;
    Env& e = env(id);
    if (RevocableUsage(e, e.pending_revoke->resource) <= e.pending_revoke->allowed) {
      DropPendingRevoke(e);  // complied on the last cycle
      continue;
    }
    const bool from_pressure = e.pending_revoke->from_pressure;
    if (from_pressure) {
      ++*pressure_abort_counter_;
      if (tracer_->enabled(trace::Category::kSched)) {
        tracer_->Instant(trace::Category::kSched, trace_track_, "pressure_abort",
                         machine_->engine().now(), id);
      }
    }
    AbortEnv(id, from_pressure ? "revocation deadline passed (memory pressure)"
                               : "revocation deadline passed");
  }
}

void XokKernel::MaybeRelievePressure() {
  if (pressure_policy_.low_frames == 0) {
    return;  // disarmed (the default): one predicted branch per scheduler pass
  }
  const uint32_t free = FreeFrameCount();
  if (!pressure_active_) {
    if (free >= pressure_policy_.low_frames) {
      return;
    }
    pressure_active_ = true;
  } else if (free >= pressure_policy_.high_frames) {
    pressure_active_ = false;  // hysteresis: recovered past the high mark
    return;
  }
  const sim::Cycles now = machine_->engine().now();
  if (last_pressure_revoke_ != 0 &&
      now - last_pressure_revoke_ < pressure_policy_.min_interval) {
    return;
  }
  // Proportional-share victim selection: the env furthest over its
  // tickets-proportional slice of physical memory. Envs already under a
  // revocation request are skipped (one outstanding request per env).
  uint64_t total_tickets = 0;
  for (const auto& [id, e] : envs_) {
    if (e->alive) {
      total_tickets += EffectiveTickets(*e);
    }
  }
  if (total_tickets == 0) {
    return;
  }
  const uint64_t nframes = machine_->mem().num_frames();
  Env* victim = nullptr;
  uint64_t victim_share = 0;
  int64_t worst = 0;
  for (const auto& [id, e] : envs_) {
    if (!e->alive || e->pending_revoke.has_value()) {
      continue;
    }
    const uint64_t share = nframes * EffectiveTickets(*e) / total_tickets;
    const int64_t over = static_cast<int64_t>(e->usage.frames) - static_cast<int64_t>(share);
    if (over > worst) {
      worst = over;
      victim = e.get();
      victim_share = share;
    }
  }
  if (victim == nullptr) {
    return;  // nobody over share: the pressure is host/registry frames
  }
  // Ask for enough to clear the high mark, but never push an env below its
  // fair share — pressure enforces proportionality, it does not confiscate.
  const uint32_t need =
      pressure_policy_.high_frames > free ? pressure_policy_.high_frames - free : 1;
  uint32_t allowed = victim->usage.frames > need ? victim->usage.frames - need : 0;
  allowed = std::max(allowed, static_cast<uint32_t>(victim_share));
  last_pressure_revoke_ = now;
  ++*pressure_revoke_counter_;
  if (tracer_->enabled(trace::Category::kSched)) {
    tracer_->Instant(trace::Category::kSched, trace_track_, "pressure_revoke", now, victim->id);
  }
  (void)RevokeImpl(victim->id, RevokeResource::kFrames, allowed, pressure_policy_.grace,
                   kCredAny, /*from_pressure=*/true);
}

void XokKernel::ChargeCpu(sim::Cycles cycles) {
  cycles += interrupt_debt_;
  interrupt_debt_ = 0;
  if (current_ == nullptr) {
    // Host/boot context: no slicing.
    machine_->Charge(cycles);
    return;
  }
  Env* e = current_;
  const sim::Cycles quantum = machine_->cost().quantum;
  for (;;) {
    if (e->slice_used >= quantum) {
      // Timer fires the moment the quantum is consumed.
      if (e->critical_depth > 0) {
        // Software interrupts disabled: defer slice end, run on (Sec. 3.3). The
        // paper's critical sections are short by construction; one that eats
        // whole quanta without re-enabling interrupts is runaway, and the
        // kernel repossesses the CPU by aborting it (Sec. 3.5).
        if (++e->deferred_slices > kMaxCriticalDeferrals) {
          AbortEnv(e->id, "runaway critical section");  // does not return
        }
        e->end_of_slice_pending = true;
        e->slice_used = 0;
      } else {
        e->deferred_slices = 0;
        DeliverEndOfSlice(e);
        sim::Fiber::Suspend();  // descheduled; resumed when picked again
        e->slice_used = 0;
      }
      continue;
    }
    if (cycles == 0) {
      break;
    }
    sim::Cycles step = std::min(cycles, quantum - e->slice_used);
    machine_->Charge(step);
    e->slice_used += step;
    cycles -= step;
  }
}

void XokKernel::DeliverEndOfSlice(Env* e) {
  if (e->on_slice_end) {
    machine_->Charge(machine_->cost().upcall);
    e->on_slice_end();
  }
}

void XokKernel::SysYield(EnvId directed) {
  EXO_CHECK(current_ != nullptr);
  SyscallScope scope(this, "yield");
  current_->yield_to = directed;
  scope.Close(Status::kOk);  // the span must not outlive the fiber's slice
  sim::Fiber::Suspend();
}

void XokKernel::SysSleep(WakeupPredicate predicate) {
  EXO_CHECK(current_ != nullptr);
  SyscallScope scope(this, "sleep");
  // Downloaded predicates face the same static verifier as packet filters; an
  // unverifiable program is dropped, degrading to a plain yield-style sleep
  // (immediately runnable) rather than running arbitrary code in the scheduler.
  if (!predicate.program.empty() &&
      (predicate.program.size() > kMaxFilterProgramInsns ||
       !udf::Verify(predicate.program, udf::Policy::kDeterministic).ok)) {
    predicate.program.clear();
    predicate.host = nullptr;
  }
  current_->predicate = std::move(predicate);
  current_->state = EnvState::kBlocked;
  current_->predicate_dirty = true;  // always evaluate at least once after blocking
  current_->blocked_since = machine_->engine().now();
  RegisterWatches(current_);
  scope.Close(Status::kOk);  // the span must not outlive the fiber's slice
  sim::Fiber::Suspend();
}

void XokKernel::RegisterWatches(Env* e) {
  for (const WatchSpec& w : e->predicate.watches) {
    watchers_[{static_cast<uint8_t>(w.kind), w.id}].push_back(e->id);
  }
}

void XokKernel::UnregisterWatches(Env* e) {
  if (e->predicate.watches.empty()) {
    return;
  }
  for (const WatchSpec& w : e->predicate.watches) {
    auto it = watchers_.find({static_cast<uint8_t>(w.kind), w.id});
    if (it == watchers_.end()) {
      continue;
    }
    auto& v = it->second;
    v.erase(std::remove(v.begin(), v.end(), e->id), v.end());
    if (v.empty()) {
      watchers_.erase(it);
    }
  }
}

void XokKernel::NotifyWatch(WatchKind kind, uint32_t id) {
  auto it = watchers_.find({static_cast<uint8_t>(kind), id});
  if (it == watchers_.end()) {
    return;
  }
  auto& v = it->second;
  size_t kept = 0;
  for (EnvId watcher : v) {
    auto eit = envs_.find(watcher);
    if (eit == envs_.end() || eit->second->state != EnvState::kBlocked) {
      continue;  // stale entry: the watcher woke or died; prune it
    }
    eit->second->predicate_dirty = true;
    v[kept++] = watcher;
  }
  v.resize(kept);
  if (v.empty()) {
    watchers_.erase(it);
  }
}

void XokKernel::SysExit(int code) {
  EXO_CHECK(current_ != nullptr);
  SyscallScope scope(this, "exit");
  FinishExit(current_, code);
  scope.Close(Status::kOk);  // the fiber never resumes past the suspend below
  for (;;) {
    sim::Fiber::Suspend();  // zombies are never scheduled again
    EXO_CHECK(false);
  }
}

Result<int> XokKernel::SysWait(EnvId child) {
  EXO_CHECK(current_ != nullptr);
  SyscallScope scope(this, "wait");
  if (!EnvExists(child)) {
    return scope.Close(Status::kNotFound);
  }
  if (env(child).parent != current_->id) {
    return scope.Close(Status::kPermissionDenied);
  }
  scope.Close(Status::kOk);  // the nested SysSleep may suspend the fiber
  if (env(child).state != EnvState::kZombie) {
    WakeupPredicate p;
    p.host = [this, child] {
      return EnvExists(child) && env(child).state == EnvState::kZombie;
    };
    SysSleep(std::move(p));
  }
  int code = env(child).exit_code;
  EXO_CHECK_EQ(ReapEnv(child), Status::kOk);
  return code;
}

void XokKernel::EnterCritical() {
  EXO_CHECK(current_ != nullptr);
  machine_->Charge(5);  // a flag write in exposed memory; no kernel crossing
  if (current_->critical_depth >= kMaxCriticalDepth) {
    AbortEnv(current_->id, "critical-section depth overflow");  // does not return
  }
  ++current_->critical_depth;
}

void XokKernel::ExitCritical() {
  EXO_CHECK(current_ != nullptr);
  Env* e = current_;
  if (e->critical_depth == 0) {
    // Unbalanced exit: a libOS bug that would previously crash the host. It only
    // hurts the misbehaving env.
    AbortEnv(e->id, "critical-section underflow");  // does not return
  }
  machine_->Charge(5);
  if (--e->critical_depth == 0) {
    e->deferred_slices = 0;
    if (e->end_of_slice_pending) {
      e->end_of_slice_pending = false;
      DeliverEndOfSlice(e);
      sim::Fiber::Suspend();
      e->slice_used = 0;
    }
  }
}

// ---- Physical memory ----

void XokKernel::ReleaseFrame(hw::FrameId frame) {
  machine_->mem().Unref(frame);
  if (!machine_->mem().allocated(frame)) {
    frame_guards_.erase(frame);
    host_frame_refs_.erase(frame);
  }
}

bool XokKernel::DebitFrameRef(hw::FrameId frame, Env* preferred) {
  if (preferred != nullptr) {
    auto it = preferred->frame_refs.find(frame);
    if (it != preferred->frame_refs.end()) {
      if (--it->second == 0) {
        preferred->frame_refs.erase(it);
      }
      --preferred->usage.frames;
      ClearRevokeIfCompliant(*preferred);
      return true;
    }
  }
  auto hit = host_frame_refs_.find(frame);
  if (hit != host_frame_refs_.end()) {
    if (--hit->second == 0) {
      host_frame_refs_.erase(hit);
    }
    return true;
  }
  // Freed by a capability holder that never took the reference itself: debit
  // whichever env's ledger carries it so attribution tracks the real refcounts.
  for (auto& [id, e] : envs_) {
    auto it = e->frame_refs.find(frame);
    if (it != e->frame_refs.end()) {
      if (--it->second == 0) {
        e->frame_refs.erase(it);
      }
      --e->usage.frames;
      ClearRevokeIfCompliant(*e);
      return true;
    }
  }
  return false;
}

void XokKernel::FrameUnref(hw::FrameId frame, EnvId attribution) {
  if (frame >= machine_->mem().num_frames() || !machine_->mem().allocated(frame)) {
    return;  // trusted path, but stay defensive: never abort the host
  }
  Env* holder = (attribution != kInvalidEnv && EnvExists(attribution)) ? &env(attribution) : nullptr;
  DebitFrameRef(frame, holder);
  ReleaseFrame(frame);
}

Result<hw::FrameId> XokKernel::SysFrameAlloc(CredIndex cred, CapName guard, bool shared) {
  SyscallScope scope(this, "frame_alloc");
  (void)cred;  // allocation itself needs no permission; the guard protects use
  if (guard.size() > kMaxGuardName) {
    return scope.Close(Status::kInvalidArgument);
  }
  Env* e = shared ? nullptr : current_;
  if (e != nullptr && e->usage.frames + 1 > e->quota.frames) {
    return scope.Close(Status::kQuotaExceeded);
  }
  auto f = machine_->mem().Alloc();
  if (!f.ok()) {
    return scope.Close(f.status());
  }
  frame_guards_[*f] = std::move(guard);
  if (e != nullptr) {
    ++e->frame_refs[*f];
    ++e->usage.frames;
  } else {
    ++host_frame_refs_[*f];
  }
  return *f;
}

Status XokKernel::SysFrameFree(hw::FrameId frame, CredIndex cred) {
  SyscallScope scope(this, "frame_free");
  if (frame >= machine_->mem().num_frames()) {
    return scope.Close(Status::kInvalidArgument);
  }
  auto it = frame_guards_.find(frame);
  if (it == frame_guards_.end() || !machine_->mem().allocated(frame)) {
    return scope.Close(Status::kNotFound);
  }
  if (current_ != nullptr) {
    Status s = CheckCred(*current_, cred, it->second, /*need_write=*/true);
    if (s != Status::kOk) {
      return scope.Close(s);
    }
  }
  if (!DebitFrameRef(frame, current_)) {
    // Every remaining reference is a page mapping or kernel-held (e.g. the
    // buffer-cache registry). Releasing one from here would leave a dangling
    // mapping; the holder must unmap/evict first.
    return scope.Close(Status::kBusy);
  }
  ReleaseFrame(frame);
  return Status::kOk;
}

Status XokKernel::SysFrameRef(hw::FrameId frame, CredIndex cred) {
  SyscallScope scope(this, "frame_ref");
  if (frame >= machine_->mem().num_frames()) {
    return scope.Close(Status::kInvalidArgument);
  }
  auto it = frame_guards_.find(frame);
  if (it == frame_guards_.end() || !machine_->mem().allocated(frame)) {
    return scope.Close(Status::kNotFound);
  }
  if (current_ != nullptr) {
    Status s = CheckCred(*current_, cred, it->second, /*need_write=*/false);
    if (s != Status::kOk) {
      return scope.Close(s);
    }
  }
  if (current_ != nullptr && current_->usage.frames + 1 > current_->quota.frames) {
    return scope.Close(Status::kQuotaExceeded);
  }
  machine_->mem().Ref(frame);
  if (current_ != nullptr) {
    ++current_->frame_refs[frame];
    ++current_->usage.frames;
  } else {
    ++host_frame_refs_[frame];
  }
  return Status::kOk;
}

uint32_t XokKernel::FreeFrameCount() const { return machine_->mem().free_frames(); }

Status XokKernel::PtApply(Env& target, const PtOp& op, CredIndex cred) {
  const Env* caller = current_ != nullptr ? current_ : &target;
  // Updating another environment's page table requires its environment capability.
  if (caller->id != target.id) {
    Status s = CheckCred(*caller, cred, EnvGuardName(target.id), /*need_write=*/true);
    if (s != Status::kOk) {
      return s;
    }
  }
  switch (op.kind) {
    case PtOp::Kind::kInsert: {
      if (op.pte.frame >= machine_->mem().num_frames()) {
        return Status::kInvalidArgument;
      }
      auto git = frame_guards_.find(op.pte.frame);
      if (git == frame_guards_.end() || !machine_->mem().allocated(op.pte.frame)) {
        return Status::kNotFound;
      }
      Status s = CheckCred(*caller, cred, git->second, /*need_write=*/op.pte.writable);
      if (s != Status::kOk) {
        return s;
      }
      const Pte* old = target.pt.Lookup(op.vpage);
      if (old == nullptr && target.usage.frames + 1 > target.quota.frames) {
        return Status::kQuotaExceeded;
      }
      // Take the new reference before dropping the old one: remapping the same
      // frame over itself must not bounce the refcount through zero.
      machine_->mem().Ref(op.pte.frame);
      if (old != nullptr) {
        ReleaseFrame(old->frame);
      } else {
        ++target.usage.frames;
      }
      target.pt.Insert(op.vpage, op.pte);
      return Status::kOk;
    }
    case PtOp::Kind::kProtect: {
      Pte* pte = target.pt.LookupMutable(op.vpage);
      if (pte == nullptr) {
        return Status::kNotFound;
      }
      if (op.pte.writable && !pte->writable) {
        // Upgrading to writable requires write access to the frame.
        auto git = frame_guards_.find(pte->frame);
        if (git == frame_guards_.end()) {
          return Status::kNotFound;
        }
        Status s = CheckCred(*caller, cred, git->second, /*need_write=*/true);
        if (s != Status::kOk) {
          return s;
        }
      }
      pte->readable = op.pte.readable;
      pte->writable = op.pte.writable;
      pte->software_bits = op.pte.software_bits;
      return Status::kOk;
    }
    case PtOp::Kind::kRemove: {
      const Pte* pte = target.pt.Lookup(op.vpage);
      if (pte == nullptr) {
        return Status::kNotFound;
      }
      ReleaseFrame(pte->frame);
      target.pt.Remove(op.vpage);
      --target.usage.frames;
      ClearRevokeIfCompliant(target);
      return Status::kOk;
    }
  }
  return Status::kInvalidArgument;
}

Status XokKernel::SysPtUpdate(EnvId target, const PtOp& op, CredIndex cred) {
  SyscallScope scope(this, "pt_update");
  if (!EnvExists(target)) {
    return scope.Close(Status::kNotFound);
  }
  machine_->Charge(machine_->cost().pte_update_kernel);
  return scope.Close(PtApply(env(target), op, cred));
}

Status XokKernel::SysPtBatch(EnvId target, std::span<const PtOp> ops, CredIndex cred) {
  SyscallScope scope(this, "pt_batch");
  if (!EnvExists(target)) {
    return scope.Close(Status::kNotFound);
  }
  Env& t = env(target);
  for (const PtOp& op : ops) {
    machine_->Charge(machine_->cost().pte_update_batched);
    Status s = PtApply(t, op, cred);
    if (s != Status::kOk) {
      return scope.Close(s);  // batch stops at first failure; prior updates remain applied
    }
  }
  return Status::kOk;
}

Status XokKernel::AccessUserMemory(EnvId id, uint64_t vaddr, std::span<uint8_t> buf,
                                   bool write, bool charge_copy) {
  if (!EnvExists(id)) {
    return Status::kNotFound;
  }
  Env& e = env(id);
  size_t done = 0;
  while (done < buf.size()) {
    const VPage vp = static_cast<VPage>((vaddr + done) >> kPageShift);
    const uint32_t off = static_cast<uint32_t>((vaddr + done) & (hw::kPageSize - 1));
    const uint32_t chunk =
        static_cast<uint32_t>(std::min<uint64_t>(buf.size() - done, hw::kPageSize - off));

    const Pte* pte = e.pt.Lookup(vp);
    int tries = 0;
    while (pte == nullptr || !pte->readable || (write && !pte->writable)) {
      machine_->Charge(machine_->cost().page_fault_trap);
      ++*fault_counter_;
      if (!e.on_page_fault || !e.on_page_fault(vp, write)) {
        return Status::kPermissionDenied;
      }
      pte = e.pt.Lookup(vp);
      if (++tries > 4) {
        return Status::kPermissionDenied;
      }
    }

    auto frame = machine_->mem().Data(pte->frame);
    if (charge_copy) {
      machine_->Charge(machine_->cost().CopyCost(chunk));
    }
    if (write) {
      std::memcpy(frame.data() + off, buf.data() + done, chunk);
    } else {
      std::memcpy(buf.data() + done, frame.data() + off, chunk);
    }
    done += chunk;
  }
  return Status::kOk;
}

// ---- Software regions ----

Result<RegionId> XokKernel::SysRegionCreate(uint32_t size, CapName guard, CredIndex cred) {
  SyscallScope scope(this, "region_create");
  (void)cred;
  if (size == 0 || size > (1u << 20) || guard.size() > kMaxGuardName) {
    return scope.Close(Status::kInvalidArgument);
  }
  if (current_ != nullptr && (current_->usage.regions + 1 > current_->quota.regions ||
                              current_->usage.region_bytes + size > current_->quota.region_bytes)) {
    return scope.Close(Status::kQuotaExceeded);
  }
  RegionId id = next_region_id_++;
  regions_[id] = Region{std::move(guard), current_id(), std::vector<uint8_t>(size, 0)};
  if (current_ != nullptr) {
    ++current_->usage.regions;
    current_->usage.region_bytes += size;
  }
  return id;
}

Status XokKernel::SysRegionWrite(RegionId rid, uint32_t off, std::span<const uint8_t> data,
                                 CredIndex cred) {
  SyscallScope scope(this, "region_write");
  auto it = regions_.find(rid);
  if (it == regions_.end()) {
    return scope.Close(Status::kNotFound);
  }
  if (current_ != nullptr) {
    Status s = CheckCred(*current_, cred, it->second.guard, /*need_write=*/true);
    if (s != Status::kOk) {
      return scope.Close(s);
    }
  }
  auto& bytes = it->second.bytes;
  if (static_cast<uint64_t>(off) + data.size() > bytes.size()) {
    return scope.Close(Status::kInvalidArgument);
  }
  machine_->Charge(machine_->cost().CopyCost(data.size()));
  std::memcpy(bytes.data() + off, data.data(), data.size());
  NotifyWatch(WatchKind::kRegion, rid);
  return Status::kOk;
}

Status XokKernel::SysRegionRead(RegionId rid, uint32_t off, std::span<uint8_t> out,
                                CredIndex cred) {
  SyscallScope scope(this, "region_read");
  auto it = regions_.find(rid);
  if (it == regions_.end()) {
    return scope.Close(Status::kNotFound);
  }
  if (current_ != nullptr) {
    Status s = CheckCred(*current_, cred, it->second.guard, /*need_write=*/false);
    if (s != Status::kOk) {
      return scope.Close(s);
    }
  }
  const auto& bytes = it->second.bytes;
  if (static_cast<uint64_t>(off) + out.size() > bytes.size()) {
    return scope.Close(Status::kInvalidArgument);
  }
  machine_->Charge(machine_->cost().CopyCost(out.size()));
  std::memcpy(out.data(), bytes.data() + off, out.size());
  return Status::kOk;
}

Status XokKernel::SysRegionDestroy(RegionId rid, CredIndex cred) {
  SyscallScope scope(this, "region_destroy");
  auto it = regions_.find(rid);
  if (it == regions_.end()) {
    return scope.Close(Status::kNotFound);
  }
  if (current_ != nullptr) {
    Status s = CheckCred(*current_, cred, it->second.guard, /*need_write=*/true);
    if (s != Status::kOk) {
      return scope.Close(s);
    }
  }
  if (it->second.owner != kInvalidEnv && EnvExists(it->second.owner)) {
    Env& owner = env(it->second.owner);
    --owner.usage.regions;
    owner.usage.region_bytes -= it->second.bytes.size();
    ClearRevokeIfCompliant(owner);
  }
  regions_.erase(it);
  NotifyWatch(WatchKind::kRegion, rid);
  return Status::kOk;
}

const std::vector<uint8_t>* XokKernel::RegionBytes(RegionId rid) const {
  auto it = regions_.find(rid);
  return it == regions_.end() ? nullptr : &it->second.bytes;
}

// ---- IPC ----

Status XokKernel::SysIpcSend(EnvId to, const IpcMessage& msg, CredIndex cred) {
  SyscallScope scope(this, "ipc_send");
  if (!EnvExists(to) || !env(to).alive) {
    return scope.Close(Status::kNotFound);
  }
  Env& dest = env(to);
  // The queue lives in kernel memory: bound it by the receiver's quota so a
  // flooding sender exhausts its own patience, not host memory.
  if (dest.ipc_queue.size() >= dest.quota.ipc_depth) {
    ++*ipc_rejected_counter_;
    return scope.Close(Status::kWouldBlock);
  }
  IpcMessage m = msg;
  m.from = current_ != nullptr ? current_->id : kInvalidEnv;
  dest.ipc_queue.push_back(m);
  NotifyWatch(WatchKind::kIpc, to);
  if (dest.on_ipc) {
    machine_->Charge(machine_->cost().upcall);
    dest.on_ipc(m);
  }
  return Status::kOk;
}

Result<IpcMessage> XokKernel::SysIpcRecv() {
  EXO_CHECK(current_ != nullptr);
  SyscallScope scope(this, "ipc_recv");
  if (current_->ipc_queue.empty()) {
    return scope.Close(Status::kWouldBlock);
  }
  IpcMessage m = current_->ipc_queue.front();
  current_->ipc_queue.pop_front();
  NotifyWatch(WatchKind::kIpc, current_->id);
  return m;
}

// ---- Network ----

Result<FilterId> XokKernel::SysFilterInstall(udf::Program program, CredIndex cred) {
  SyscallScope scope(this, "filter_install");
  (void)cred;
  if (program.size() > kMaxFilterProgramInsns) {
    return scope.Close(Status::kInvalidArgument);
  }
  auto v = udf::Verify(program, udf::Policy::kDeterministic);
  if (!v.ok) {
    return scope.Close(Status::kVerifierReject);
  }
  PacketFilter f;
  f.id = next_filter_id_++;
  f.owner = current_ != nullptr ? current_->id : kInvalidEnv;
  f.program = std::move(program);
  if (current_ != nullptr &&
      (current_->usage.filters + 1 > current_->quota.filters ||
       current_->usage.ring_slots + f.ring_capacity > current_->quota.ring_slots)) {
    return scope.Close(Status::kQuotaExceeded);
  }
  if (current_ != nullptr) {
    ++current_->usage.filters;
    current_->usage.ring_slots += f.ring_capacity;
  }
  f.flow_cacheable = FlowCacheable(f.program);
  const FilterId fid = f.id;
  filters_by_owner_[f.owner].insert(fid);
  filters_.emplace(fid, std::move(f));
  flow_cache_.clear();  // every filter-set mutation drops memoized verdicts
  return fid;
}

Status XokKernel::SysFilterRemove(FilterId id, CredIndex cred) {
  SyscallScope scope(this, "filter_remove");
  (void)cred;
  auto it = filters_.find(id);
  if (it == filters_.end()) {
    return scope.Close(Status::kNotFound);
  }
  PacketFilter& f = it->second;
  if (current_ != nullptr && f.owner != current_->id) {
    return scope.Close(Status::kPermissionDenied);
  }
  if (f.owner != kInvalidEnv && EnvExists(f.owner)) {
    Env& owner = env(f.owner);
    --owner.usage.filters;
    owner.usage.ring_slots -= f.ring_capacity;
    ClearRevokeIfCompliant(owner);
  }
  EraseFilter(id);
  NotifyWatch(WatchKind::kFilterRing, id);
  return Status::kOk;
}

void XokKernel::EraseFilter(FilterId id) {
  auto it = filters_.find(id);
  if (it == filters_.end()) {
    return;
  }
  if (auto owned = filters_by_owner_.find(it->second.owner);
      owned != filters_by_owner_.end()) {
    owned->second.erase(id);
    if (owned->second.empty()) {
      filters_by_owner_.erase(owned);
    }
  }
  filters_.erase(it);
  flow_cache_.clear();  // stale entries would misdeliver
}

Result<hw::Packet> XokKernel::SysRingConsume(FilterId id, CredIndex cred) {
  // Packet rings live in application memory; consuming advances a head pointer the
  // application owns, so no kernel crossing is needed (Sec. 5.1).
  machine_->Charge(30);
  auto it = filters_.find(id);
  if (it == filters_.end()) {
    return Status::kNotFound;
  }
  PacketFilter& f = it->second;
  if (current_ != nullptr && f.owner != current_->id) {
    return Status::kPermissionDenied;
  }
  if (f.ring.empty()) {
    return Status::kWouldBlock;
  }
  hw::Packet p = std::move(f.ring.front());
  f.ring.pop_front();
  NotifyWatch(WatchKind::kFilterRing, id);
  return p;
}

const PacketFilter* XokKernel::Filter(FilterId id) const {
  auto it = filters_.find(id);
  return it != filters_.end() ? &it->second : nullptr;
}

Status XokKernel::SysNicTransmit(uint32_t nic, hw::Packet packet) {
  SyscallScope scope(this, "nic_tx");
  if (nic >= machine_->num_nics() || packet.bytes.size() > hw::kMaxFrameBytes) {
    // An oversized frame must not reach the DMA engine.
    return scope.Close(Status::kInvalidArgument);
  }
  machine_->Charge(150);  // DMA descriptor setup; the CPU does not touch the payload
  machine_->nic(nic).Transmit(std::move(packet));
  return Status::kOk;
}

bool XokKernel::FlowCacheable(const udf::Program& p) {
  // Which registers does the program ever write? Registers start at 0, so a
  // load whose index register is never written addresses exactly `imm`.
  bool written[udf::kNumRegs] = {};
  for (const udf::Insn& in : p) {
    switch (in.op) {
      case udf::Op::kBz:
      case udf::Op::kBnz:
      case udf::Op::kJmp:
      case udf::Op::kEmit:
      case udf::Op::kRet:
        break;
      default:
        written[in.rd % udf::kNumRegs] = true;
        break;
    }
  }
  for (const udf::Insn& in : p) {
    uint32_t width = 0;
    switch (in.op) {
      case udf::Op::kLd1: width = 1; break;
      case udf::Op::kLd2: width = 2; break;
      case udf::Op::kLd4: width = 4; break;
      case udf::Op::kLd8: width = 8; break;
      case udf::Op::kLen:
      case udf::Op::kTime:
        return false;  // verdict depends on more than the key prefix
      default:
        continue;
    }
    if (in.rt != udf::kBufMeta || written[in.rs % udf::kNumRegs] || in.imm < 0 ||
        static_cast<uint32_t>(in.imm) + width > kFlowKeyBytes) {
      return false;
    }
  }
  return true;
}

void XokKernel::DeliverToFilter(PacketFilter& f, hw::Packet p) {
  const bool full = f.ring.size() >= f.ring_capacity;
  if (full) {
    ++f.dropped;
    ++*ring_drop_counter_;
  } else {
    f.ring.push_back(std::move(p));
    ++f.delivered;
  }
  NotifyWatch(WatchKind::kFilterRing, f.id);
  ++*demux_counter_;
  if (tracer_->enabled(trace::Category::kNet)) {
    tracer_->Instant(trace::Category::kNet, trace_track_,
                     full ? "ring_drop" : "demux", machine_->engine().now(), f.id);
  }
}

void XokKernel::OnPacket(uint32_t nic, hw::Packet p) {
  // Interrupt context: account the demultiplexing work but do not advance the clock
  // re-entrantly (we are inside an event callback). The cost is charged as a lump on
  // the next clock advance via a zero-length event.
  sim::Cycles cost = machine_->cost().interrupt_overhead;
  const bool keyable = demux_cache_on_ && p.bytes.size() >= kFlowKeyBytes;
  FlowKey key;
  if (keyable) {
    std::memcpy(&key.lo, p.bytes.data(), 8);
    std::memcpy(&key.hi, p.bytes.data() + 8, 8);
    if (auto it = flow_cache_.find(key); it != flow_cache_.end()) {
      // One hash probe replaces the filter-program walk.
      ++*demux_hit_counter_;
      cost += kDemuxProbeCost;
      DeliverToFilter(*it->second.filter, std::move(p));
      interrupt_debt_ += cost;
      return;
    }
    ++*demux_miss_counter_;
  }
  // An entry may be memoized only when the claiming filter and every filter
  // dispatched before it are flow-cacheable — otherwise a later packet with
  // the same 16-byte prefix could legitimately demultiplex differently.
  bool prefix_cacheable = true;
  for (auto& [fid, f] : filters_) {
    udf::RunInput in;
    in.buffers[udf::kBufMeta] = p.bytes;
    in.fuel = 4096;
    udf::RunOutput out = udf::Run(f.program, in);
    cost += out.insns * machine_->cost().downloaded_insn;
    if (out.ok && out.ret != 0) {
      if (keyable && prefix_cacheable && f.flow_cacheable) {
        flow_cache_.emplace(key, FlowEntry{fid, &f});
      }
      DeliverToFilter(f, std::move(p));
      interrupt_debt_ += cost;
      return;
    }
    prefix_cacheable = prefix_cacheable && f.flow_cacheable;
  }
  ++*unclaimed_counter_;
  if (tracer_->enabled(trace::Category::kNet)) {
    tracer_->Instant(trace::Category::kNet, trace_track_, "unclaimed",
                     machine_->engine().now(), p.bytes.size());
  }
  interrupt_debt_ += cost;
}

// ---- Quotas, revocation, abort (Sec. 3 / Sec. 3.5) ----

uint32_t XokKernel::RevocableUsage(const Env& e, RevokeResource r) const {
  switch (r) {
    case RevokeResource::kFrames:
      return e.usage.frames;
    case RevokeResource::kRegions:
      return e.usage.regions;
    case RevokeResource::kFilters:
      return e.usage.filters;
  }
  return 0;
}

void XokKernel::ClearRevokeIfCompliant(Env& e) {
  if (e.pending_revoke.has_value() &&
      RevocableUsage(e, e.pending_revoke->resource) <= e.pending_revoke->allowed) {
    DropPendingRevoke(e);
    machine_->counters().Add("xok.revocations_complied");
  }
}

void XokKernel::DropPendingRevoke(Env& e) {
  if (!e.pending_revoke.has_value()) {
    return;
  }
  revoke_deadlines_.erase({e.pending_revoke->deadline, e.id});
  e.pending_revoke.reset();
  --pending_revocations_;
}

Status XokKernel::SysSetQuota(EnvId target, const ResourceQuota& q, CredIndex cred) {
  SyscallScope scope(this, "set_quota");
  if (!EnvExists(target)) {
    return scope.Close(Status::kNotFound);
  }
  Env& t = env(target);
  if (current_ != nullptr) {
    Status s = CheckCred(*current_, cred, EnvGuardName(target), /*need_write=*/true);
    if (s != Status::kOk) {
      return scope.Close(s);
    }
    if (t.quota.locked && current_->id == target) {
      // A limited env may not lift its own limits.
      return scope.Close(Status::kPermissionDenied);
    }
  }
  if (tracer_->enabled(trace::Category::kSched) && t.quota.cpu_tickets != q.cpu_tickets) {
    tracer_->Instant(trace::Category::kSched, trace_track_, "set_tickets",
                     machine_->engine().now(),
                     (static_cast<uint64_t>(target) << 32) | q.cpu_tickets);
  }
  // A ticket change rescales the env's position in virtual time: the consumed
  // portion of its current stride (pass - global) is converted to the new
  // stride so history neither mints credit nor inflicts debt — an env
  // re-weighted from 100 tickets to 12 owes as much of its *new*, longer
  // stride as it had consumed of the old one. A blocked env keeps its stale
  // pass; the wake path clamps it against the lag cap anyway.
  const uint64_t oldeff = EffectiveTickets(t);
  const uint64_t neweff = q.cpu_tickets == 0 ? 1 : q.cpu_tickets;
  if (neweff != oldeff && t.state == EnvState::kRunnable) {
    const uint64_t old_stride = std::max<uint64_t>(1, kStrideScale / oldeff);
    const uint64_t new_stride = std::max<uint64_t>(1, kStrideScale / neweff);
    const uint64_t done = t.pass > global_pass_ ? t.pass - global_pass_ : 0;
    StrideErase(t);
    t.pass = global_pass_ + done * new_stride / old_stride;
    t.sched_seq = ++sched_seq_counter_;
    StrideInsert(t);
  }
  t.quota = q;
  return Status::kOk;
}

Status XokKernel::SysRevoke(EnvId target, RevokeResource resource, uint32_t allowed,
                            sim::Cycles grace, CredIndex cred) {
  return RevokeImpl(target, resource, allowed, grace, cred, /*from_pressure=*/false);
}

Status XokKernel::RevokeImpl(EnvId target, RevokeResource resource, uint32_t allowed,
                             sim::Cycles grace, CredIndex cred, bool from_pressure) {
  SyscallScope scope(this, "revoke");
  if (!EnvExists(target) || !env(target).alive) {
    return scope.Close(Status::kNotFound);
  }
  Env& t = env(target);
  if (current_ != nullptr) {
    Status s = CheckCred(*current_, cred, EnvGuardName(target), /*need_write=*/true);
    if (s != Status::kOk) {
      return scope.Close(s);
    }
  }
  if (RevocableUsage(t, resource) <= allowed) {
    return Status::kOk;  // already compliant; nothing to ask
  }
  if (t.pending_revoke.has_value()) {
    return scope.Close(Status::kBusy);  // one outstanding request at a time
  }
  t.pending_revoke =
      RevocationRequest{resource, allowed, machine_->engine().now() + grace, from_pressure};
  ++pending_revocations_;
  revoke_deadlines_.insert({t.pending_revoke->deadline, t.id});
  machine_->counters().Add("xok.revocations_requested");
  if (t.on_revoke) {
    // Deliver the upcall in the target's context so releases debit its ledger.
    // Software interrupts are disabled for the duration (the handler runs on the
    // requester's slice and must not be suspended mid-flight).
    const RevocationRequest req = *t.pending_revoke;  // by value: handler may clear it
    Env* saved = current_;
    current_ = &t;
    ++t.critical_depth;
    machine_->Charge(machine_->cost().upcall);
    t.on_revoke(req);
    --t.critical_depth;
    if (t.critical_depth == 0 && t.end_of_slice_pending) {
      // The handler consumed the rest of a slice; drop the deferred upcall (the
      // slice accounting restarts when the target is next scheduled).
      t.end_of_slice_pending = false;
    }
    current_ = saved;
    ClearRevokeIfCompliant(t);
  }
  return Status::kOk;
}

void XokKernel::AbortEnv(EnvId id, const char* reason) {
  auto it = envs_.find(id);
  if (it == envs_.end()) {
    return;
  }
  Env& e = *it->second;
  // Repossess everything: mappings, direct references, regions, filters, IPC.
  for (const auto& [vp, pte] : e.pt.entries()) {
    ReleaseFrame(pte.frame);
  }
  e.pt.Clear();
  for (const auto& [f, n] : e.frame_refs) {
    for (uint32_t i = 0; i < n; ++i) {
      ReleaseFrame(f);
    }
  }
  e.frame_refs.clear();
  for (auto rit = regions_.begin(); rit != regions_.end();) {
    if (rit->second.owner == id) {
      const RegionId dead = rit->first;
      rit = regions_.erase(rit);
      NotifyWatch(WatchKind::kRegion, dead);
    } else {
      ++rit;
    }
  }
  if (auto owned = filters_by_owner_.find(id); owned != filters_by_owner_.end()) {
    for (FilterId fid : owned->second) {
      NotifyWatch(WatchKind::kFilterRing, fid);
      filters_.erase(fid);
    }
    filters_by_owner_.erase(owned);
    flow_cache_.clear();
  }
  e.ipc_queue.clear();
  e.usage = ResourceUsage{};
  DropPendingRevoke(e);
  e.abort_reason = reason;
  machine_->counters().Add("xok.env_aborts");
  const bool self = (current_ == &e);
  if (e.alive) {
    FinishExit(&e, -1);
  }
  if (self) {
    for (;;) {
      sim::Fiber::Suspend();  // zombies are never scheduled again
      EXO_CHECK(false);
    }
  }
}

// ---- Invariant audit ----

std::string XokKernel::CheckInvariants() const {
  std::string out;
  auto fail = [&out](std::string line) {
    out += line;
    out += '\n';
  };
  const hw::PhysMem& mem = machine_->mem();
  const uint32_t nframes = mem.num_frames();

  // (1) Guards and attribution only on live frames; attributed refs <= refcount.
  std::map<hw::FrameId, uint64_t> attributed;
  for (const auto& [f, n] : host_frame_refs_) {
    attributed[f] += n;
  }
  for (const auto& [id, e] : envs_) {
    for (const auto& [f, n] : e->frame_refs) {
      attributed[f] += n;
      if (frame_guards_.count(f) == 0) {
        fail("env " + std::to_string(id) + " holds unguarded frame " + std::to_string(f));
      }
    }
    for (const auto& [vp, pte] : e->pt.entries()) {
      attributed[pte.frame] += 1;
      if (frame_guards_.count(pte.frame) == 0) {
        fail("env " + std::to_string(id) + " maps unguarded frame " + std::to_string(pte.frame));
      }
    }
  }
  for (const auto& [f, guard] : frame_guards_) {
    if (f >= nframes || !mem.allocated(f)) {
      fail("stale guard on free frame " + std::to_string(f));
    }
  }
  for (const auto& [f, n] : attributed) {
    if (f >= nframes || !mem.allocated(f)) {
      fail("attributed refs on free frame " + std::to_string(f));
    } else if (n > mem.refcount(f)) {
      fail("frame " + std::to_string(f) + ": attributed " + std::to_string(n) + " > refcount " +
           std::to_string(mem.refcount(f)));
    }
  }

  // (2) Free-list conservation.
  uint32_t live = 0;
  for (hw::FrameId f = 0; f < nframes; ++f) {
    live += mem.allocated(f) ? 1 : 0;
  }
  if (live + mem.free_frames() != nframes) {
    fail("frame conservation: " + std::to_string(live) + " live + " +
         std::to_string(mem.free_frames()) + " free != " + std::to_string(nframes));
  }

  // (3) Stored per-env ledgers match a from-scratch recount.
  for (const auto& [id, e] : envs_) {
    uint64_t direct = 0;
    for (const auto& [f, n] : e->frame_refs) {
      direct += n;
    }
    const uint64_t frames = direct + e->pt.size();
    if (frames != e->usage.frames) {
      fail("env " + std::to_string(id) + ": usage.frames " + std::to_string(e->usage.frames) +
           " != recount " + std::to_string(frames));
    }
    uint32_t regions = 0;
    uint64_t region_bytes = 0;
    for (const auto& [rid, r] : regions_) {
      if (r.owner == id) {
        ++regions;
        region_bytes += r.bytes.size();
      }
    }
    if (regions != e->usage.regions || region_bytes != e->usage.region_bytes) {
      fail("env " + std::to_string(id) + ": region ledger (" + std::to_string(e->usage.regions) +
           ", " + std::to_string(e->usage.region_bytes) + "B) != recount (" +
           std::to_string(regions) + ", " + std::to_string(region_bytes) + "B)");
    }
    uint32_t nfilters = 0;
    uint64_t ring_slots = 0;
    for (const auto& [fid, f] : filters_) {
      if (f.owner == id) {
        ++nfilters;
        ring_slots += f.ring_capacity;
      }
    }
    if (nfilters != e->usage.filters || ring_slots != e->usage.ring_slots) {
      fail("env " + std::to_string(id) + ": filter ledger (" + std::to_string(e->usage.filters) +
           ", " + std::to_string(e->usage.ring_slots) + " slots) != recount (" +
           std::to_string(nfilters) + ", " + std::to_string(ring_slots) + " slots)");
    }
    if (e->ipc_queue.size() > e->quota.ipc_depth) {
      fail("env " + std::to_string(id) + ": ipc queue " + std::to_string(e->ipc_queue.size()) +
           " over quota " + std::to_string(e->quota.ipc_depth));
    }
  }

  // (4) Scheduler consistency: alive <=> not zombie, and the stride order holds
  // exactly one entry per alive env, keyed by its stored (pass, seq, id) — an
  // env with a stale key would schedule at the wrong priority or never again.
  uint32_t alive = 0;
  for (const auto& [id, e] : envs_) {
    if (e->alive != (e->state != EnvState::kZombie)) {
      fail("env " + std::to_string(id) + ": alive flag disagrees with state");
    }
    if (e->alive) {
      ++alive;
      if (stride_order_.count({e->pass, e->sched_seq, id}) == 0) {
        fail("alive env " + std::to_string(id) + " missing from stride order");
      }
    }
  }
  if (alive != alive_count_) {
    fail("alive_count " + std::to_string(alive_count_) + " != recount " + std::to_string(alive));
  }
  if (stride_order_.size() != alive_count_) {
    fail("stride order holds " + std::to_string(stride_order_.size()) + " entries != " +
         std::to_string(alive_count_) + " alive envs");
  }

  // (5) Protection: every writable mapping is justified by a capability — held
  // by the mapped env itself, or by some env that also holds the mapped env's
  // environment capability (the parent-setup case).
  for (const auto& [id, e] : envs_) {
    const CapName env_guard = EnvGuardName(id);
    for (const auto& [vp, pte] : e->pt.entries()) {
      if (!pte.writable) {
        continue;
      }
      auto git = frame_guards_.find(pte.frame);
      if (git == frame_guards_.end()) {
        continue;  // reported above
      }
      bool justified = false;
      for (const auto& [oid, other] : envs_) {
        if (justified) {
          break;
        }
        bool frame_ok = false;
        bool env_ok = (oid == id);
        for (const Capability& cap : other->caps) {
          frame_ok = frame_ok || Dominates(cap, git->second, /*need_write=*/true);
          env_ok = env_ok || Dominates(cap, env_guard, /*need_write=*/true);
        }
        justified = frame_ok && env_ok;
      }
      if (!justified) {
        fail("env " + std::to_string(id) + " vpage " + std::to_string(vp) +
             ": writable mapping of frame " + std::to_string(pte.frame) +
             " with no justifying capability");
      }
    }
  }

  // (6) Revocation bookkeeping: the stored count, the per-env optionals, and
  // the deadline index must all agree (the index is what lets the scheduler's
  // healthy path skip the full scan, so a stale entry would silently disable
  // or misfire deadline enforcement).
  uint32_t pending = 0;
  for (const auto& [id, e] : envs_) {
    if (e->pending_revoke.has_value()) {
      ++pending;
      if (revoke_deadlines_.count({e->pending_revoke->deadline, id}) == 0) {
        fail("env " + std::to_string(id) + ": pending revocation missing from deadline index");
      }
    }
  }
  if (pending != pending_revocations_) {
    fail("pending_revocations " + std::to_string(pending_revocations_) + " != recount " +
         std::to_string(pending));
  }
  if (revoke_deadlines_.size() != pending) {
    fail("revocation deadline index holds " + std::to_string(revoke_deadlines_.size()) +
         " entries != " + std::to_string(pending) + " pending requests");
  }

  // (7) Demux consistency: the owner index is an exact partition of filters_,
  // and every flow-cache entry still points at a live, cacheable filter whose
  // claim the linear walk would reproduce — a violation here means a packet
  // could be delivered to the wrong environment.
  size_t indexed = 0;
  for (const auto& [owner, fids] : filters_by_owner_) {
    for (FilterId fid : fids) {
      ++indexed;
      auto fit = filters_.find(fid);
      if (fit == filters_.end()) {
        fail("owner index names missing filter " + std::to_string(fid));
      } else if (fit->second.owner != owner) {
        fail("filter " + std::to_string(fid) + " indexed under owner " + std::to_string(owner) +
             " but owned by " + std::to_string(fit->second.owner));
      }
    }
  }
  if (indexed != filters_.size()) {
    fail("filter owner index holds " + std::to_string(indexed) + " entries != " +
         std::to_string(filters_.size()) + " filters");
  }
  for (const auto& [key, entry] : flow_cache_) {
    auto fit = filters_.find(entry.id);
    if (fit == filters_.end()) {
      fail("flow cache entry names removed filter " + std::to_string(entry.id));
      continue;
    }
    if (&fit->second != entry.filter) {
      fail("flow cache entry for filter " + std::to_string(entry.id) + " holds a stale pointer");
    }
    // Replay the walk over just the key bytes: every earlier filter must
    // reject and be cacheable, the target must accept and be cacheable.
    std::vector<uint8_t> key_bytes(kFlowKeyBytes);
    std::memcpy(key_bytes.data(), &key.lo, 8);
    std::memcpy(key_bytes.data() + 8, &key.hi, 8);
    for (const auto& [fid, f] : filters_) {
      if (!f.flow_cacheable) {
        fail("flow cache entry for filter " + std::to_string(entry.id) +
             " coexists with non-cacheable filter " + std::to_string(fid) + " at or before it");
        break;
      }
      udf::RunInput in;
      in.buffers[udf::kBufMeta] = key_bytes;
      in.fuel = 4096;
      udf::RunOutput res = udf::Run(f.program, in);
      const bool claims = res.ok && res.ret != 0;
      if (fid == entry.id) {
        if (!claims) {
          fail("flow cache entry for filter " + std::to_string(fid) +
               " memoizes a claim the program no longer makes");
        }
        break;
      }
      if (claims) {
        fail("flow cache entry for filter " + std::to_string(entry.id) +
             " shadowed by earlier filter " + std::to_string(fid));
        break;
      }
    }
  }
  return out;
}

void XokKernel::SysNull(int count) {
  const auto& c = machine_->cost();
  // Bursts are common (Sec. 6.3 issues hundreds of thousands); one span covers
  // the whole burst rather than drowning the ring in per-call records.
  const bool tracing = tracer_->enabled(trace::Category::kSyscall);
  const uint32_t track = current_ != nullptr ? current_->trace_track : trace_track_;
  if (tracing) {
    tracer_->Begin(trace::Category::kSyscall, track, "null", machine_->engine().now(),
                   static_cast<uint64_t>(count));
  }
  for (int i = 0; i < count; ++i) {
    machine_->Charge(c.trap_round_trip + c.xok_syscall_check);
    ++*syscall_counter_;
  }
  if (tracing) {
    tracer_->End(trace::Category::kSyscall, track, "null", machine_->engine().now(),
                 static_cast<uint64_t>(Status::kOk));
  }
}

sim::Cycles XokKernel::Now() const { return machine_->engine().now(); }

}  // namespace exo::xok
