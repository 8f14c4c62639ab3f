// Unit tests for the simulation core: event engine, fibers, RNG, counters, cost
// model, and the fault-schedule codec/injector surface.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "cluster/topology.h"
#include "sim/cost_model.h"
#include "sim/counters.h"
#include "sim/engine.h"
#include "sim/fault.h"
#include "sim/fiber.h"
#include "sim/rng.h"
#include "sim/status.h"
#include "trace/trace.h"

namespace exo::sim {
namespace {

TEST(EngineTest, StartsAtZero) {
  Engine e;
  EXPECT_EQ(e.now(), 0u);
  EXPECT_FALSE(e.HasPendingEvents());
}

TEST(EngineTest, RunsEventsInTimeOrder) {
  Engine e;
  std::vector<int> order;
  e.ScheduleAt(30, [&] { order.push_back(3); });
  e.ScheduleAt(10, [&] { order.push_back(1); });
  e.ScheduleAt(20, [&] { order.push_back(2); });
  e.RunUntilIdle();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(e.now(), 30u);
}

TEST(EngineTest, TiesBreakInScheduleOrder) {
  Engine e;
  std::vector<int> order;
  e.ScheduleAt(5, [&] { order.push_back(1); });
  e.ScheduleAt(5, [&] { order.push_back(2); });
  e.RunUntilIdle();
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
}

TEST(EngineTest, AdvanceFiresDueEvents) {
  Engine e;
  bool fired = false;
  e.ScheduleAt(100, [&] { fired = true; });
  e.Advance(50);
  EXPECT_FALSE(fired);
  EXPECT_EQ(e.now(), 50u);
  e.Advance(50);
  EXPECT_TRUE(fired);
  EXPECT_EQ(e.now(), 100u);
}

TEST(EngineTest, AdvancePastEventStillEndsAtTarget) {
  Engine e;
  Cycles when_fired = 0;
  e.ScheduleAt(10, [&] { when_fired = e.now(); });
  e.Advance(100);
  EXPECT_EQ(when_fired, 10u);
  EXPECT_EQ(e.now(), 100u);
}

TEST(EngineTest, CancelPreventsExecution) {
  Engine e;
  bool fired = false;
  auto id = e.ScheduleAt(10, [&] { fired = true; });
  e.Cancel(id);
  e.RunUntilIdle();
  EXPECT_FALSE(fired);
}

TEST(EngineTest, EventsCanScheduleEvents) {
  Engine e;
  int depth = 0;
  std::function<void()> chain = [&] {
    if (++depth < 5) {
      e.ScheduleAfter(10, chain);
    }
  };
  e.ScheduleAfter(10, chain);
  e.RunUntilIdle();
  EXPECT_EQ(depth, 5);
  EXPECT_EQ(e.now(), 50u);
}

TEST(EngineTest, NextEventTimeSkipsCancelled) {
  Engine e;
  auto id = e.ScheduleAt(5, [] {});
  e.ScheduleAt(9, [] {});
  e.Cancel(id);
  EXPECT_EQ(e.NextEventTime(), 9u);
}

TEST(EngineTest, SameTimestampOrderSurvivesInterleavedCancels) {
  Engine e;
  std::vector<int> order;
  std::vector<Engine::EventId> ids;
  for (int i = 0; i < 8; ++i) {
    ids.push_back(e.ScheduleAt(5, [&order, i] { order.push_back(i); }));
  }
  e.Cancel(ids[1]);
  e.Cancel(ids[4]);
  e.Cancel(ids[7]);
  // Late arrivals at the same timestamp still fire after the survivors.
  e.ScheduleAt(5, [&order] { order.push_back(8); });
  e.RunUntilIdle();
  EXPECT_EQ(order, (std::vector<int>{0, 2, 3, 5, 6, 8}));
}

TEST(EngineTest, CancelAfterFireIsNoOp) {
  Engine e;
  auto id = e.ScheduleAt(10, [] {});
  e.RunUntilIdle();
  e.Cancel(id);  // must not disturb anything, including a reuse of the same slot
  bool fired = false;
  auto id2 = e.ScheduleAt(20, [&] { fired = true; });
  e.Cancel(id);  // stale id again, now that the slot is re-armed for id2
  e.RunUntilIdle();
  EXPECT_TRUE(fired);
  EXPECT_NE(id, id2);
}

TEST(EngineTest, RunUntilLandsExactlyOnTargetWithNoEvents) {
  Engine e;
  e.RunUntil(1234);
  EXPECT_EQ(e.now(), 1234u);
  EXPECT_FALSE(e.HasPendingEvents());
  // And with an event strictly before the target: clock still ends at t.
  Cycles fired_at = 0;
  e.ScheduleAt(2000, [&] { fired_at = e.now(); });
  e.RunUntil(3000);
  EXPECT_EQ(fired_at, 2000u);
  EXPECT_EQ(e.now(), 3000u);
}

TEST(EngineTest, EventIdsAreNeverZero) {
  // Callers (TCP timers) use 0 as the "no event armed" sentinel.
  Engine e;
  for (int i = 0; i < 100; ++i) {
    auto id = e.ScheduleAfter(1, [] {});
    EXPECT_NE(id, 0u);
    e.RunUntilIdle();
  }
}

TEST(EngineTest, AcceptsMoveOnlyCallables) {
  Engine e;
  auto big = std::make_unique<int>(41);
  int got = 0;
  e.ScheduleAt(1, [p = std::move(big), &got] { got = *p + 1; });
  e.RunUntilIdle();
  EXPECT_EQ(got, 42);
}

TEST(EngineTest, SlotsAreRecycledAcrossChurn) {
  Engine e;
  for (int round = 0; round < 10'000; ++round) {
    e.ScheduleAfter(1, [] {});
    e.ScheduleAfter(2, [] {});
    e.RunUntilIdle();
  }
  // The slab never grows past the peak concurrency (2), not the total churn.
  EXPECT_LE(e.event_slot_count(), 2u);
}

// Regression: ids of already-fired events used to accumulate forever in a
// cancelled-id vector that every pop scanned linearly, so a long-running sim
// leaked memory and went quadratic. Cancelling 1M fired ids must be O(1) each
// and leave no residue (with the old representation this test would not finish).
TEST(EngineTest, CancellingAMillionFiredIdsStaysBounded) {
  Engine e;
  std::vector<Engine::EventId> fired;
  fired.reserve(1'000'000);
  for (int i = 0; i < 1'000'000; ++i) {
    fired.push_back(e.ScheduleAfter(1, [] {}));
    e.RunUntilIdle();
  }
  for (auto id : fired) {
    e.Cancel(id);
  }
  EXPECT_LE(e.event_slot_count(), 1u);   // one slot, reused a million times
  EXPECT_EQ(e.queued_entry_count(), 0u);  // stale cancels queue no corpses
  bool sentinel = false;
  e.ScheduleAfter(1, [&] { sentinel = true; });
  e.RunUntilIdle();
  EXPECT_TRUE(sentinel);
}

TEST(FiberTest, RunsBodyToCompletion) {
  int x = 0;
  Fiber f([&] { x = 42; });
  EXPECT_FALSE(f.done());
  f.Resume();
  EXPECT_TRUE(f.done());
  EXPECT_EQ(x, 42);
}

TEST(FiberTest, SuspendAndResumeRoundTrips) {
  std::vector<int> order;
  Fiber f([&] {
    order.push_back(1);
    Fiber::Suspend();
    order.push_back(3);
    Fiber::Suspend();
    order.push_back(5);
  });
  f.Resume();
  order.push_back(2);
  f.Resume();
  order.push_back(4);
  f.Resume();
  EXPECT_TRUE(f.done());
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3, 4, 5}));
}

TEST(FiberTest, CurrentTracksRunningFiber) {
  EXPECT_EQ(Fiber::Current(), nullptr);
  Fiber* seen = nullptr;
  Fiber f([&] { seen = Fiber::Current(); });
  f.Resume();
  EXPECT_EQ(seen, &f);
  EXPECT_EQ(Fiber::Current(), nullptr);
}

TEST(FiberTest, ManyFibersInterleave) {
  std::vector<int> order;
  std::vector<std::unique_ptr<Fiber>> fibers;
  for (int i = 0; i < 4; ++i) {
    fibers.push_back(std::make_unique<Fiber>([&order, i] {
      order.push_back(i);
      Fiber::Suspend();
      order.push_back(i + 10);
    }));
  }
  for (auto& f : fibers) {
    f->Resume();
  }
  for (auto& f : fibers) {
    f->Resume();
  }
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 10, 11, 12, 13}));
}

TEST(RngTest, DeterministicForSameSeed) {
  Rng a(7);
  Rng b(7);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.Next(), b.Next());
  }
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(1);
  Rng b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    same += a.Next() == b.Next() ? 1 : 0;
  }
  EXPECT_LT(same, 2);
}

TEST(RngTest, BelowStaysInRange) {
  Rng r(3);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(r.Below(17), 17u);
  }
}

TEST(RngTest, RangeInclusive) {
  Rng r(4);
  bool saw_lo = false;
  bool saw_hi = false;
  for (int i = 0; i < 2000; ++i) {
    uint64_t v = r.Range(3, 6);
    EXPECT_GE(v, 3u);
    EXPECT_LE(v, 6u);
    saw_lo |= v == 3;
    saw_hi |= v == 6;
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(CountersTest, HandleIsStableAndShared) {
  Counters c;
  auto* h1 = c.Handle("syscalls");
  auto* h2 = c.Handle("syscalls");
  EXPECT_EQ(h1, h2);
  *h1 += 5;
  EXPECT_EQ(c.Get("syscalls"), 5u);
}

TEST(CountersTest, ResetZeroesAll) {
  Counters c;
  c.Add("a", 3);
  c.Add("b", 4);
  c.Reset();
  EXPECT_EQ(c.Get("a"), 0u);
  EXPECT_EQ(c.Get("b"), 0u);
}

TEST(CostModelTest, MicrosecondRoundTrip) {
  CostModel m = CostModel::PentiumPro200();
  EXPECT_EQ(m.FromMicros(1.0), 200u);
  EXPECT_DOUBLE_EQ(m.ToMicros(200), 1.0);
  EXPECT_DOUBLE_EQ(m.ToSeconds(200'000'000), 1.0);
}

TEST(CostModelTest, GetpidCalibration) {
  // Sec. 7.1: getpid is 270 cycles on OpenBSD, 100 as a rerouted procedure call.
  CostModel m = CostModel::PentiumPro200();
  EXPECT_EQ(m.trap_round_trip + m.unix_syscall_dispatch + m.getpid_body, 270u);
  EXPECT_EQ(m.libos_procedure_call + m.getpid_body, 100u);
}

TEST(StatusTest, ResultHoldsValueOrStatus) {
  Result<int> ok(7);
  EXPECT_TRUE(ok.ok());
  EXPECT_EQ(*ok, 7);
  EXPECT_EQ(ok.status(), Status::kOk);

  Result<int> err(Status::kNotFound);
  EXPECT_FALSE(err.ok());
  EXPECT_EQ(err.status(), Status::kNotFound);
}

TEST(StatusTest, NamesAreDistinct) {
  EXPECT_STREQ(StatusName(Status::kOk), "OK");
  EXPECT_STREQ(StatusName(Status::kTainted), "TAINTED");
  EXPECT_STRNE(StatusName(Status::kBusy), StatusName(Status::kWouldBlock));
}

TEST(StatusTest, GtestPrintsTheName) {
  EXPECT_EQ(testing::PrintToString(Status::kInvalidArgument), "INVALID_ARGUMENT");
}

// ---- Fault-schedule codec hardening ----
//
// The parser is the trust boundary for replayed reproducers (CI artifacts,
// bug reports, hand-edited seed lines): any malformed token must yield an
// empty schedule plus a diagnostic — never a silent best-effort misparse that
// would replay the WRONG schedule and "not reproduce".

TEST(FaultCodecTest, MalformedInputsRejectLoudly) {
  const char* bad[] = {
      "x@1",           // unknown kind
      "d@0",           // indices are 1-based
      "d@",            // missing index
      "@3",            // missing kind
      "d3",            // missing '@'
      "c@5",           // 'c' requires :arg (the byte to flip)
      "m@4",           // 'm' requires :arg (the target LBA)
      "r@4",           // 'r' requires :arg (the byte offset)
      "k@5",           // 'k' requires :arg (the machine id)
      "b@5",           // 'b' requires :arg (the machine id)
      "d@3:1",         // 'd' forbids :arg
      "w@2:7",         // 'w' forbids :arg
      "l@2:7",         // 'l' forbids :arg
      "c@5:",          // empty arg
      "c@5:9x",        // trailing garbage in arg
      "d@18446744073709551616",  // 2^64: overflow
      "d@3 d@3",       // duplicate consultation index
      "d@3 c@3:7",     // duplicate index across kinds of the wire stream
      "w@3 m@3:9",     // duplicate within the write stream
      "l@2 r@2:1",     // duplicate within the read stream
      "k@5:1 b@5:1",   // one machine killed and rebooted on one cycle
      "d@1 oops",      // valid token then garbage
      "d@1,w@2",       // a comma is not a separator
  };
  for (const char* text : bad) {
    std::string err;
    EXPECT_TRUE(ParseFaultSchedule(text, &err).empty()) << text;
    EXPECT_NE(err.find("token"), std::string::npos) << text << " -> " << err;
  }

  // Duplicates are per stream: w@3/l@3 are different streams, and two
  // machines may die on one cycle.
  std::string err;
  EXPECT_EQ(ParseFaultSchedule("d@3 w@3 l@3", &err).size(), 3u) << err;
  EXPECT_EQ(ParseFaultSchedule("k@5:1 k@5:2", &err).size(), 2u) << err;

  // Whitespace-only input is a valid empty schedule, not an error: the
  // diagnostic out-param is cleared, not populated.
  err = "sentinel";
  EXPECT_TRUE(ParseFaultSchedule("   ", &err).empty());
  EXPECT_EQ(err, "");
}

// The reproducer lines the harnesses print keep their exact text.
TEST(FaultCodecTest, ReproLinesRoundTripExactly) {
  const std::vector<std::pair<std::vector<FaultEvent>, std::string>> cases = {
      {{{'d', 3, 0}, {'c', 15, 58}, {'u', 20, 0}, {'d', 901, 0}},
       "d@3 c@15:58 u@20 d@901"},
      {{{'d', 3, 0},
        {'w', 1, 0},
        {'c', 15, 58},
        {'r', 7, 128},
        {'m', 5, 917},
        {'l', 2, 0},
        {'u', 20, 0}},
       "d@3 w@1 c@15:58 r@7:128 m@5:917 l@2 u@20"},
      {{{'k', 1000, 2}, {'b', 6000, 2}, {'k', 6000, 3}}, "k@1000:2 b@6000:2 k@6000:3"},
      {{}, ""},
  };
  for (const auto& [events, text] : cases) {
    EXPECT_EQ(FormatFaultSchedule(events), text);
    std::string err;
    EXPECT_TRUE(ParseFaultSchedule(text, &err) == events) << text << " -> " << err;
  }
}

// Fuzz the round-trip: any valid schedule survives Format -> Parse unchanged.
// Indices are strictly increasing per stream (that is what real recordings
// look like and what the duplicate check demands).
TEST(FaultCodecTest, FuzzedSchedulesRoundTrip) {
  Rng rng(20260809);
  for (int iter = 0; iter < 200; ++iter) {
    std::vector<FaultEvent> events;
    uint64_t wire_idx = 0;
    uint64_t write_idx = 0;
    uint64_t read_idx = 0;
    uint64_t cycle = 0;
    const uint32_t n = rng.Below(12);
    for (uint32_t i = 0; i < n; ++i) {
      static constexpr char kKinds[] = {'d', 'c', 'u', 'w', 'm', 'l', 'r', 'k', 'b'};
      const char kind = kKinds[rng.Below(9)];
      uint64_t* stream = (kind == 'd' || kind == 'c' || kind == 'u') ? &wire_idx
                         : (kind == 'w' || kind == 'm')              ? &write_idx
                         : (kind == 'l' || kind == 'r')              ? &read_idx
                                                                     : &cycle;
      *stream += 1 + rng.Below(1000);
      const bool has_arg = kind != 'd' && kind != 'u' && kind != 'w' && kind != 'l';
      events.push_back(FaultEvent{kind, *stream, has_arg ? rng.Below(1 << 20) : 0});
    }
    EXPECT_EQ(CheckFaultSchedule(events), "");
    const std::string line = FormatFaultSchedule(events);
    std::string err;
    const auto parsed = ParseFaultSchedule(line, &err);
    ASSERT_TRUE(parsed == events) << "iter " << iter << ": \"" << line << "\" -> " << err;
  }
}

// The check behind every boundary names the first bad event and why.
TEST(FaultCodecTest, CheckNamesTheFirstBadEvent) {
  const std::vector<std::pair<std::vector<FaultEvent>, std::string>> cases = {
      {{{'x', 1, 0}}, "event 1: unknown kind 'x'"},
      // Index first, kind second: the constant 1 compiles as kind '\x01'.
      {{{1, 'w', 0}}, "event 1: unknown kind \\x01"},
      {{{'d', 1, 0}, {'d', 0, 0}}, "event 2: index must be >= 1 (indices are 1-based)"},
      {{{'l', 2, 7}}, "event 1: kind 'l' takes no arg"},
      {{{'w', 3, 0}, {'m', 3, 9}}, "event 2: duplicate index 3 (clashes with event 1)"},
      {{{'k', 5, 1}, {'b', 5, 1}}, "event 2: duplicate index 5 (clashes with event 1)"},
      {{{'d', 1, 0},
        {'w', 1, 0},
        {'l', 1, 0},
        {'c', 2, 40},
        {'r', 2, 9},
        {'m', 2, 7},
        {'k', 1, 1},
        {'k', 1, 2},
        {'b', 2, 1}},
       ""},
  };
  for (const auto& [events, why] : cases) {
    EXPECT_EQ(CheckFaultSchedule(events), why) << FormatFaultSchedule(events);
  }
}

// Every consumer of a schedule aborts on one it would misread, printing the
// check's reason: the injector on a bad or machine kind, the topology on a
// wire kind.
TEST(FaultScheduleDeathTest, EveryBoundaryAbortsOnABadSchedule) {
  EXPECT_DEATH(FaultInjector(FaultPlan{.script = {{'x', 1, 0}}}),
               "event 1: unknown kind 'x'");
  EXPECT_DEATH(FaultInjector(FaultPlan{.script = {{'d', 1, 0}, {'k', 5, 1}}}),
               "event 2: kind 'k' is not one of dcuwmlr");
  EXPECT_DEATH(
      {
        cluster::TopologyConfig tc;
        tc.servers = 1;
        tc.clients = 1;
        cluster::Topology topo(tc);
        topo.ApplyMachineSchedule({{'d', 1, 0}});
      },
      "event 1: kind 'd' is not one of kb");
}

// ---- Injector attachment and cut-point bookkeeping ----

// First tracer attachment wins (a Disk and a Link sharing one injector both
// try); nullptr detaches and a new tracer can then take over.
TEST(FaultInjectorTest, AttachTracerFirstWinsAndReattaches) {
  FaultPlan plan;
  FaultInjector faults(plan);
  Engine engine;
  trace::Tracer t1;
  trace::Tracer t2;

  faults.AttachTracer(&t1, &engine);
  faults.AttachTracer(&t2, &engine);  // second attach: ignored
  EXPECT_EQ(faults.tracer(), &t1);

  faults.AttachTracer(nullptr, nullptr);  // detach
  EXPECT_EQ(faults.tracer(), nullptr);

  faults.AttachTracer(&t2, &engine);  // re-attach after detach
  EXPECT_EQ(faults.tracer(), &t2);
}

// Counters follow the same contract, and injected faults land in fault.*.
TEST(FaultInjectorTest, AttachCountersFirstWinsAndCounts) {
  FaultPlan plan;
  plan.script = {{'d', 1, 0}, {'w', 1, 0}, {'l', 1, 0}};
  FaultInjector faults(plan);
  Counters c1;
  Counters c2;
  faults.AttachCounters(&c1);
  faults.AttachCounters(&c2);  // ignored: first attachment wins

  EXPECT_EQ(faults.NextWireFate(100), FaultInjector::WireFate::kDrop);
  EXPECT_EQ(faults.NextWriteFate(7, 64), FaultInjector::WriteFate::kLost);
  EXPECT_EQ(faults.NextReadFate(7, 4096), FaultInjector::ReadFate::kLatent);

  EXPECT_EQ(c1.Get("fault.net_drops"), 1u);
  EXPECT_EQ(c1.Get("fault.disk_lost_writes"), 1u);
  EXPECT_EQ(c1.Get("fault.disk_latent"), 1u);
  EXPECT_EQ(c2.Get("fault.net_drops"), 0u);

  faults.AttachCounters(nullptr);  // detach: later faults count nowhere
  faults.AttachCounters(&c2);      // and a fresh surface can take over
}

// The cut-point predicate flips exactly at the k-th durable block write: the
// k-th OnBlockWritten returns true (power is lost after it) and pending goes
// false from that instant on.
TEST(FaultInjectorTest, PowerCutFiresAtExactlyKthWrite) {
  FaultPlan plan;
  plan.power_cut_after_blocks = 3;
  FaultInjector faults(plan);

  EXPECT_TRUE(faults.power_cut_pending());
  EXPECT_FALSE(faults.OnBlockWritten(10));  // write 1
  EXPECT_TRUE(faults.power_cut_pending());
  EXPECT_FALSE(faults.OnBlockWritten(11));  // write 2
  EXPECT_TRUE(faults.power_cut_pending());
  EXPECT_TRUE(faults.OnBlockWritten(12));   // write 3: the cut
  EXPECT_FALSE(faults.power_cut_pending());
  EXPECT_FALSE(faults.OnBlockWritten(13));  // never re-fires
  EXPECT_EQ(faults.stats().power_cuts, 1u);

  // k = 0 disables the mechanism entirely.
  FaultInjector off(FaultPlan{});
  EXPECT_FALSE(off.power_cut_pending());
  EXPECT_FALSE(off.OnBlockWritten(1));
}

}  // namespace
}  // namespace exo::sim
