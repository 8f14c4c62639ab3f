// Chaos soak: long multi-tenant HTTP workloads under randomized wire-fault
// schedules, with invariants checked every epoch and failing schedules
// delta-minimized (sim::Shrinker) to a replayable reproducer.
//
// Knobs (CI and local triage):
//   SOAK_SEEDS=<lo>:<hi>   seed block for the randomized sweep (default 1:3)
//   SOAK_EPOCHS=<n>        epochs per seed (default 5; one epoch = 10 ms sim)
//   FLEET_SEEDS=<lo>:<hi>  seed block for the fleet kill/reboot sweep (default 1:3)
//
// On an invariant violation the test prints one line —
//   SOAK-REPRO seed=<seed> schedule="d@12 c@31:58 ..."
// — whose schedule replays byte-for-byte through FaultPlan::script
// (docs/OVERLOAD.md walks through replaying one).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "apps/http.h"
#include "apps/noisy_neighbor.h"
#include "cluster/topology.h"
#include "hw/machine.h"
#include "hw/nic.h"
#include "net/packet.h"
#include "sim/engine.h"
#include "sim/fault.h"
#include "sim/rng.h"
#include "sim/shrink.h"

namespace exo {
namespace {

uint64_t EnvOr(const char* name, uint64_t fallback) {
  const char* v = std::getenv(name);
  return v != nullptr && *v != '\0' ? std::strtoull(v, nullptr, 0) : fallback;
}

// The seed block a sweep runs: `<lo>:<hi>` (or a lone `<lo>`) from the
// environment variable `name`, 1:3 when unset.
std::pair<uint64_t, uint64_t> SeedBlock(const char* name) {
  const char* block = std::getenv(name);
  if (block == nullptr) {
    return {1, 3};
  }
  char* colon = nullptr;
  const uint64_t lo = std::strtoull(block, &colon, 0);
  const uint64_t hi =
      (colon != nullptr && *colon == ':') ? std::strtoull(colon + 1, nullptr, 0) : lo;
  return {lo, hi};
}

constexpr sim::Cycles kEpoch = 2'000'000;  // 10 ms at 200 MHz

struct SoakResult {
  std::string failure;                  // first violated invariant ("" = clean)
  std::vector<sim::FaultEvent> events;  // executed wire faults, replayable
  std::vector<std::string> fault_log;   // injector log, for byte-exactness checks
  uint64_t closed_completed = 0;
  uint64_t open_completed = 0;
  uint64_t open_rejected = 0;
  uint64_t open_failed = 0;
  uint64_t pers_completed = 0;
  uint64_t pers_failed = 0;
  uint64_t pers_conns_opened = 0;
  sim::Cycles end_time = 0;
};

// Three tenants against one armed Cheetah server (persistent + document store
// + response cache + gather transmit) with the full robustness policy on: an
// open-loop HTTP/1.0 client (checksum-verifying profile, so corrupted
// responses are detected and recovered), a closed-loop client, and a
// persistent HTTP/1.1 client pipelining over a keep-alive pool — so wire
// faults land on long-lived pipelined connections, not just per-request ones.
// One FaultInjector spans all links, so a schedule is a single
// consultation-ordered stream.
SoakResult RunSoak(const sim::FaultPlan& plan, uint64_t epochs) {
  sim::Engine engine;
  sim::CostModel cost = sim::CostModel::PentiumPro200();
  sim::FaultInjector faults(plan);

  net::DocumentStore store(&cost);  // setup-time writes: no CPU to charge
  apps::HttpServerOptions options;
  options.persistent = true;
  options.documents = &store;
  options.response_cache_entries = 8;
  options.gather_tx = true;
  apps::HttpServer server(&engine, &cost, apps::ServerStyle::kCheetah, /*ip=*/100,
                          options);
  std::vector<uint8_t> doc(4096);
  for (size_t i = 0; i < doc.size(); ++i) {
    doc[i] = static_cast<uint8_t>(i * 31);
  }
  server.AddDocument("doc", doc);
  net::ServerOverloadPolicy policy;
  policy.enabled = true;
  policy.listen_backlog = 16;
  policy.high_watermark_us = 2'000;
  policy.low_watermark_us = 500;
  policy.request_deadline_us = 100'000;  // 100 ms: generous, but bounded
  server.SetOverloadPolicy(policy);

  hw::Nic snic0(0), cnic0(100), snic1(1), cnic1(101), snic2(2), cnic2(102);
  hw::Link link0(&engine, 100.0, 40.0, 200);
  hw::Link link1(&engine, 100.0, 40.0, 200);
  hw::Link link2(&engine, 100.0, 40.0, 200);
  link0.Connect(&snic0, &cnic0);
  link1.Connect(&snic1, &cnic1);
  link2.Connect(&snic2, &cnic2);
  link0.SetFaultInjector(&faults);
  link1.SetFaultInjector(&faults);
  link2.SetFaultInjector(&faults);
  server.AttachNic(&snic0, /*peer_ip=*/1);
  server.AttachNic(&snic1, /*peer_ip=*/2);
  server.AttachNic(&snic2, /*peer_ip=*/3);
  EXPECT_EQ(server.Listen(80), Status::kOk);

  // Tenant 1: open-loop at ~2000 req/s, rx-verifying stack.
  apps::OpenLoopHttpClient open_client(&engine, &cost, &cnic0, /*ip=*/1, 100, "doc",
                                       /*interval_cycles=*/100'000,
                                       net::XokSocketProfile());
  // Tenant 2: closed-loop, 4 concurrent fetchers.
  apps::HttpClient closed_client(&engine, &cost, &cnic1, /*ip=*/2, 100, "doc",
                                 /*concurrency=*/4);
  // Tenant 3: open-loop at ~2000 req/s over a persistent keep-alive pool,
  // pipelining HTTP/1.1 requests — faults hit mid-pipeline, and recovery is
  // the on_close fail-outstanding-and-reconnect path, not a fresh handshake.
  apps::OpenLoopHttpClient pers_client(&engine, &cost, &cnic2, /*ip=*/3, 100, "doc",
                                       /*interval_cycles=*/100'000,
                                       net::XokSocketProfile());
  pers_client.EnablePersistent(/*pool_size=*/4, /*max_pipeline=*/8);
  // Client-side request deadlines: without them a lost server-abort RST leaves
  // a client parked in kEstablished forever (no timer armed), which the drain
  // leak check would — correctly — flag.
  open_client.set_request_timeout(40'000'000);    // 200 ms
  closed_client.set_request_timeout(40'000'000);
  pers_client.set_request_timeout(40'000'000);

  const sim::Cycles deadline = static_cast<sim::Cycles>(epochs) * kEpoch;
  open_client.Start(deadline);
  closed_client.Start(deadline);
  pers_client.Start(deadline);

  SoakResult r;
  auto fail = [&](const std::string& what, uint64_t epoch) {
    if (r.failure.empty()) {
      r.failure = what + " (epoch " + std::to_string(epoch) + ")";
    }
  };

  uint64_t last_progress = 0;
  for (uint64_t e = 1; e <= epochs && r.failure.empty(); ++e) {
    engine.RunUntil(static_cast<sim::Cycles>(e) * kEpoch);
    // Stack invariants: monotonic ACKs, sequenced retransmission queues, timers
    // consistent with state, half-open accounting honest and within backlog.
    for (net::TcpStack* check : {&server.stack(), &open_client.stack(),
                                 &closed_client.stack(), &pers_client.stack()}) {
      std::string bad = check->CheckInvariants();
      if (!bad.empty()) {
        fail(bad, e);
      }
    }
    // Liveness: the system must keep resolving requests every epoch — under
    // faults a deadlock or livelock would freeze this sum while arrivals
    // continue (even a shed request counts; silence does not).
    const uint64_t progress = closed_client.completed() + open_client.completed() +
                              open_client.rejected() + pers_client.completed() +
                              pers_client.rejected() + server.requests_rejected();
    if (progress <= last_progress) {
      fail("no request resolved over an epoch (deadlock/livelock)", e);
    }
    last_progress = progress;
  }

  // Drain: stop offering load, let every timer resolve (RTO aborts bound
  // retries, reapers bound half-open and half-closed states), then the world
  // must be empty — anything left is a leak.
  if (r.failure.empty()) {
    // The keep-alive pool holds its connections open by design; close them so
    // the leak check below means "nothing unaccounted", not "pool exists".
    pers_client.ClosePool();
    engine.RunUntilIdle();
    if (server.stack().conn_count() != 0) {
      fail("server leaked connections after drain", epochs);
    }
    if (open_client.stack().conn_count() != 0 ||
        closed_client.stack().conn_count() != 0 ||
        pers_client.stack().conn_count() != 0) {
      fail("client leaked connections after drain: [open] " +
               open_client.stack().DebugConnStates() + " [closed] " +
               closed_client.stack().DebugConnStates() + " [persistent] " +
               pers_client.stack().DebugConnStates(),
           epochs);
    }
    if (server.stack().half_open_count(80) != 0) {
      fail("half-open count nonzero after drain", epochs);
    }
    // Frame conservation: every frame a NIC transmitted is delivered or
    // dropped by an injected wire fault; a duplicate adds one extra delivery.
    const uint64_t tx = snic0.stats().tx_packets + snic1.stats().tx_packets +
                        snic2.stats().tx_packets + cnic0.stats().tx_packets +
                        cnic1.stats().tx_packets + cnic2.stats().tx_packets;
    const uint64_t rx = snic0.stats().rx_packets + snic1.stats().rx_packets +
                        snic2.stats().rx_packets + cnic0.stats().rx_packets +
                        cnic1.stats().rx_packets + cnic2.stats().rx_packets;
    if (tx + faults.stats().net_duplicates != rx + faults.stats().net_drops) {
      fail("frames leaked on the wire (tx != rx + drops)", epochs);
    }
  }

  r.events = faults.events();
  r.fault_log = faults.log();
  r.closed_completed = closed_client.completed();
  r.open_completed = open_client.completed();
  r.open_rejected = open_client.rejected();
  r.open_failed = open_client.failed();
  r.pers_completed = pers_client.completed();
  r.pers_failed = pers_client.failed();
  r.pers_conns_opened = pers_client.conns_opened();
  r.end_time = engine.now();
  return r;
}

// Re-runs the identical workload under an explicit schedule (no RNG on the
// wire) — the replay/shrink harness for a failure found by the rate-mode sweep.
SoakResult ReplaySoak(const std::vector<sim::FaultEvent>& schedule, uint64_t epochs) {
  sim::FaultPlan plan;
  plan.net_corrupt_min_offset = net::kIpHeaderBytes + net::kTcpHeaderBytes;
  plan.script = schedule;
  return RunSoak(plan, epochs);
}

// The CI soak sweep: randomized schedules, every epoch checked. A failure
// here is a real bug; the printed SOAK-REPRO line is its minimized, replayable
// form (docs/OVERLOAD.md describes the triage workflow).
TEST(Soak, MultiTenantRandomFaultSweep) {
  const auto [lo, hi] = SeedBlock("SOAK_SEEDS");
  const uint64_t epochs = EnvOr("SOAK_EPOCHS", 5);

  for (uint64_t seed = lo; seed <= hi; ++seed) {
    sim::FaultPlan plan;
    plan.seed = seed;
    plan.net_drop_rate = 0.02;
    plan.net_corrupt_rate = 0.01;
    plan.net_duplicate_rate = 0.01;
    plan.net_corrupt_min_offset = net::kIpHeaderBytes + net::kTcpHeaderBytes;

    SoakResult r = RunSoak(plan, epochs);
    if (!r.failure.empty()) {
      // Minimize before reporting: the reproducer is the deliverable.
      const std::string failure = r.failure;
      sim::Shrinker shrinker([&](const std::vector<sim::FaultEvent>& candidate) {
        return ReplaySoak(candidate, epochs).failure == failure;
      });
      std::vector<sim::FaultEvent> minimal = r.events;
      if (ReplaySoak(minimal, epochs).failure == failure) {
        minimal = shrinker.Minimize(minimal);
      }
      std::printf("SOAK-REPRO seed=%llu schedule=\"%s\"\n",
                  static_cast<unsigned long long>(seed),
                  sim::FormatFaultSchedule(minimal).c_str());
      ADD_FAILURE() << "seed " << seed << ": " << failure
                    << "\nminimized schedule (" << minimal.size()
                    << " events): " << sim::FormatFaultSchedule(minimal);
      continue;
    }
    // The sweep must actually exercise the machinery, not idle through it.
    EXPECT_GT(r.closed_completed + r.open_completed, 100u) << "seed " << seed;
    EXPECT_GT(r.pers_completed, 50u) << "seed " << seed;
    EXPECT_GT(r.events.size(), 10u) << "seed " << seed;
  }
}

// A recorded rate-mode schedule, replayed through FaultPlan::script, must
// re-execute the identical faults against the identical frames: same event
// stream, same outcome counters, same final clock — byte-for-byte determinism
// across modes.
TEST(Soak, RecordedScheduleReplaysByteExact) {
  sim::FaultPlan plan;
  plan.seed = 99;
  plan.net_drop_rate = 0.02;
  plan.net_corrupt_rate = 0.01;
  plan.net_duplicate_rate = 0.01;
  plan.net_corrupt_min_offset = net::kIpHeaderBytes + net::kTcpHeaderBytes;

  SoakResult original = RunSoak(plan, 3);
  ASSERT_EQ(original.failure, "");
  ASSERT_GT(original.events.size(), 5u);

  SoakResult replay1 = ReplaySoak(original.events, 3);
  SoakResult replay2 = ReplaySoak(original.events, 3);

  // Scripted mode re-executes the recorded schedule exactly...
  EXPECT_TRUE(replay1.events == original.events);
  EXPECT_EQ(replay1.failure, "");
  // ...the simulation lands in the identical final state...
  EXPECT_EQ(replay1.closed_completed, original.closed_completed);
  EXPECT_EQ(replay1.open_completed, original.open_completed);
  EXPECT_EQ(replay1.open_rejected, original.open_rejected);
  EXPECT_EQ(replay1.open_failed, original.open_failed);
  EXPECT_EQ(replay1.pers_completed, original.pers_completed);
  EXPECT_EQ(replay1.pers_failed, original.pers_failed);
  EXPECT_EQ(replay1.pers_conns_opened, original.pers_conns_opened);
  EXPECT_EQ(replay1.end_time, original.end_time);
  // ...and replay itself is bit-stable run to run.
  EXPECT_EQ(replay1.fault_log, replay2.fault_log);
  EXPECT_TRUE(replay1.events == replay2.events);
  EXPECT_EQ(replay1.end_time, replay2.end_time);
}

// The schedule codec round-trips the printed seed line.
TEST(Soak, WireScheduleCodecRoundTrips) {
  std::vector<sim::FaultEvent> events = {
      {'d', 3, 0}, {'c', 15, 58}, {'u', 20, 0}, {'d', 901, 0}};
  const std::string text = sim::FormatFaultSchedule(events);
  EXPECT_EQ(text, "d@3 c@15:58 u@20 d@901");
  EXPECT_TRUE(sim::ParseFaultSchedule(text) == events);
  EXPECT_TRUE(sim::ParseFaultSchedule("").empty());
}

// ---- Shrinker acceptance: a soak-style failure minimizes to a <=10-event
// reproducer that replays byte-for-byte from its printed seed line. ----

// A deliberately fragile scenario: one client with max_retransmits=3 fetching
// one 2000-byte document. Failure predicate: the fetch never completes. The
// cheapest way to kill it is to drop the SYN and all three retries — frames
// 1..4, since nothing else crosses the wire until the handshake succeeds.
// When `recorded` is non-null the executed wire schedule is copied out.
bool FragileFetchFails(const sim::FaultPlan& plan,
                       std::vector<sim::FaultEvent>* recorded = nullptr) {
  sim::Engine engine;
  sim::CostModel cost = sim::CostModel::PentiumPro200();
  sim::FaultInjector faults(plan);

  hw::Nic snic(0), cnic(1);
  hw::Link link(&engine, 100.0, 40.0, 200);
  link.Connect(&snic, &cnic);
  link.SetFaultInjector(&faults);

  net::TcpProfile server_prof = net::XokSocketProfile();
  net::TcpProfile client_prof = net::ClientProfile();
  server_prof.max_retransmits = 3;
  client_prof.max_retransmits = 3;

  auto mk = [&](hw::Nic* nic, net::IpAddr ip, const net::TcpProfile& prof) {
    net::TcpStack::Hooks hooks;
    hooks.engine = &engine;
    hooks.cost = &cost;
    hooks.cpu = nullptr;
    hooks.transmit = [&engine, nic](hw::Packet p, sim::Cycles when) {
      engine.ScheduleAt(std::max(when, engine.now()),
                        [nic, p = std::move(p)]() mutable { nic->Transmit(std::move(p)); });
    };
    auto stack = std::make_unique<net::TcpStack>(hooks, ip, prof);
    net::TcpStack* raw = stack.get();
    nic->SetReceiveHandler([raw](hw::Packet p) { raw->Input(p); });
    return stack;
  };
  auto server = mk(&snic, 2, server_prof);
  auto client = mk(&cnic, 1, client_prof);

  size_t got = 0;
  EXPECT_EQ(server->Listen(80,
                           [](net::TcpConn* c) {
                             c->set_on_data(
                                 [](net::TcpConn* conn, std::span<const uint8_t>) {
                                   conn->Send(std::vector<uint8_t>(2000, 0x5a));
                                 });
                           }),
            Status::kOk);
  client->Connect(2, 80, [&](net::TcpConn* c) {
    c->set_on_data([&](net::TcpConn*, std::span<const uint8_t> d) { got += d.size(); });
    c->Send(std::vector<uint8_t>(64, 0x42));
  });
  engine.RunUntilIdle();
  if (recorded != nullptr) {
    *recorded = faults.events();
  }
  return got < 2000;  // the fetch never completed: the failure being shrunk
}

// End-to-end: find a genuinely failing random schedule, record it, ddmin it,
// and prove the printed seed line replays the failure byte-for-byte.
TEST(Soak, ShrinkerMinimizesFailureToReplayableSeedLine) {
  uint64_t failing_seed = 0;
  std::vector<sim::FaultEvent> recorded;
  for (uint64_t seed = 1; seed <= 50 && failing_seed == 0; ++seed) {
    sim::FaultPlan plan;
    plan.seed = seed;
    plan.net_drop_rate = 0.30;
    if (FragileFetchFails(plan, &recorded)) {
      failing_seed = seed;
    }
  }
  ASSERT_NE(failing_seed, 0u) << "no failing seed in 1..50 at 30% drop";
  ASSERT_FALSE(recorded.empty());

  // Predicate: does a scripted candidate still reproduce the failure?
  auto still_fails = [](const std::vector<sim::FaultEvent>& candidate) {
    sim::FaultPlan plan;
    plan.script = candidate;
    return FragileFetchFails(plan);
  };
  ASSERT_TRUE(still_fails(recorded)) << "recorded schedule must replay the failure";

  sim::Shrinker shrinker(still_fails);
  const std::vector<sim::FaultEvent> minimal = shrinker.Minimize(recorded);

  // The acceptance bar: a small (<=10 events) reproducer...
  EXPECT_LE(minimal.size(), 10u);
  ASSERT_TRUE(still_fails(minimal));
  // ...that is 1-minimal: removing any single event loses the failure.
  for (size_t i = 0; i < minimal.size(); ++i) {
    std::vector<sim::FaultEvent> weaker = minimal;
    weaker.erase(weaker.begin() + static_cast<long>(i));
    EXPECT_FALSE(still_fails(weaker)) << "not 1-minimal at event " << i;
  }

  // The printed seed line replays byte-for-byte: format, parse, run twice,
  // identical executed schedule both times.
  const std::string line = sim::FormatFaultSchedule(minimal);
  std::printf("SOAK-REPRO seed=%llu schedule=\"%s\"\n",
              static_cast<unsigned long long>(failing_seed), line.c_str());
  std::vector<sim::FaultEvent> parsed = sim::ParseFaultSchedule(line);
  ASSERT_TRUE(parsed == minimal);
  std::vector<sim::FaultEvent> executed1, executed2;
  sim::FaultPlan replay;
  replay.script = parsed;
  EXPECT_TRUE(FragileFetchFails(replay, &executed1));
  EXPECT_TRUE(FragileFetchFails(replay, &executed2));
  EXPECT_TRUE(executed1 == executed2);
}

// Deterministic shape check: a planted schedule — the four drops that kill the
// handshake plus noise events on frames that never occur once the connection
// aborts — must minimize to exactly the four necessary drops.
TEST(Soak, ShrinkerPrunesPlantedScheduleToNecessaryDrops) {
  std::vector<sim::FaultEvent> planted = {
      {'d', 1, 0}, {'d', 2, 0}, {'d', 3, 0}, {'d', 4, 0},
      {'d', 6, 0}, {'c', 9, 40}, {'u', 11, 0}, {'d', 100, 0}};
  auto still_fails = [](const std::vector<sim::FaultEvent>& candidate) {
    sim::FaultPlan plan;
    plan.script = candidate;
    return FragileFetchFails(plan);
  };
  ASSERT_TRUE(still_fails(planted));

  sim::Shrinker shrinker(still_fails);
  const std::vector<sim::FaultEvent> minimal = shrinker.Minimize(planted);
  ASSERT_EQ(minimal.size(), 4u);
  for (size_t i = 0; i < minimal.size(); ++i) {
    EXPECT_EQ(minimal[i].kind, 'd');
    EXPECT_EQ(minimal[i].index, i + 1);
  }
  EXPECT_GT(shrinker.probes(), 0u);
}

// ---- Combined wire + disk schedules: one stream, one ddmin, one repro line ----

// The codec covers both layers in one line (kind letters are disjoint), and
// each layer's events, filtered out by kind, still format as that layer's line.
TEST(Soak, CombinedScheduleCodecRoundTrips) {
  std::vector<sim::FaultEvent> events = {{'d', 3, 0},   {'w', 1, 0},  {'c', 15, 58},
                                         {'r', 7, 128}, {'m', 5, 917}, {'l', 2, 0},
                                         {'u', 20, 0}};
  const std::string text = sim::FormatFaultSchedule(events);
  EXPECT_EQ(text, "d@3 w@1 c@15:58 r@7:128 m@5:917 l@2 u@20");
  EXPECT_TRUE(sim::ParseFaultSchedule(text) == events);
  EXPECT_TRUE(sim::ParseFaultSchedule("").empty());
  EXPECT_EQ(sim::CheckFaultSchedule(events), "");

  std::vector<sim::FaultEvent> wire;
  std::vector<sim::FaultEvent> disk;
  for (const sim::FaultEvent& e : events) {
    (e.kind == 'd' || e.kind == 'c' || e.kind == 'u' ? wire : disk).push_back(e);
  }
  ASSERT_EQ(wire.size(), 3u);
  ASSERT_EQ(disk.size(), 4u);
  EXPECT_EQ(sim::FormatFaultSchedule(wire), "d@3 c@15:58 u@20");
  EXPECT_EQ(sim::FormatFaultSchedule(disk), "w@1 r@7:128 m@5:917 l@2");
}

// Disk leg of a combined failure: DMA-write one block, read it back. A lost
// (or misdirected-away) first write leaves the stale bytes — that mismatch, or
// a loudly failed I/O, is the failure being shrunk.
bool FragileWriteFails(const sim::FaultPlan& plan) {
  sim::Engine engine;
  hw::Machine machine(&engine,
                      hw::MachineConfig{.mem_frames = 16,
                                        .disks = {hw::DiskGeometry{.num_blocks = 64}}});
  sim::FaultInjector faults(plan);
  machine.disk().SetFaultInjector(&faults);
  auto f = machine.mem().Alloc();
  EXPECT_TRUE(f.ok());
  auto buf = machine.mem().Data(*f);
  std::fill(buf.begin(), buf.end(), uint8_t{0xab});
  bool wrote = false;
  bool read = false;
  machine.disk().Submit({.write = true,
                         .start = 5,
                         .nblocks = 1,
                         .frames = {*f},
                         .done = [&](Status s) { wrote = s == Status::kOk; }});
  engine.RunUntilIdle();
  std::fill(buf.begin(), buf.end(), uint8_t{0});
  machine.disk().Submit({.write = false,
                         .start = 5,
                         .nblocks = 1,
                         .frames = {*f},
                         .done = [&](Status s) { read = s == Status::kOk; }});
  engine.RunUntilIdle();
  machine.disk().SetFaultInjector(nullptr);
  if (!wrote || !read) {
    return true;  // the I/O failed loudly
  }
  return !std::all_of(buf.begin(), buf.end(), [](uint8_t b) { return b == 0xab; });
}

// A failure that needs BOTH layers reproduces through one ddmin pass over the
// merged stream: the four handshake-killing drops and the one lost write
// survive; noise on both layers (events whose consultation index is never
// reached, plus redundant wire faults) is pruned. Each candidate arms both rigs
// as one script, and the printed line is a single combined SOAK-REPRO
// reproducer.
TEST(Soak, CombinedWireDiskScheduleMinimizesToOneReproLine) {
  std::vector<sim::FaultEvent> planted = {
      {'d', 1, 0}, {'w', 1, 0}, {'d', 2, 0}, {'m', 9, 3},  // write 9 never happens
      {'d', 3, 0}, {'l', 7, 0},                            // read 7 never happens
      {'d', 4, 0}, {'d', 6, 0}, {'c', 9, 40}, {'u', 11, 0}};
  auto still_fails = [](const std::vector<sim::FaultEvent>& candidate) {
    sim::FaultPlan plan;
    plan.script = candidate;
    return FragileFetchFails(plan) && FragileWriteFails(plan);
  };
  ASSERT_TRUE(still_fails(planted));

  sim::Shrinker shrinker(still_fails);
  const std::vector<sim::FaultEvent> minimal = shrinker.Minimize(planted);
  const std::string line = sim::FormatFaultSchedule(minimal);
  ASSERT_EQ(minimal.size(), 5u) << line;
  EXPECT_EQ(line, "d@1 w@1 d@2 d@3 d@4");
  EXPECT_TRUE(sim::ParseFaultSchedule(line) == minimal);
  EXPECT_TRUE(still_fails(minimal));
  EXPECT_GT(shrinker.probes(), 0u);
  std::printf("SOAK-REPRO schedule=\"%s\"\n", line.c_str());
}

// ---- Noisy-neighbor isolation: stride scheduling + pressure revocation ----
//
// The scenario in src/apps/noisy_neighbor.h: one flooder tenant (eight envs
// draining a shared, seed-derived multi-resource op script) against three
// latency-sensitive victim envs on one XokKernel. Per-epoch victim SLOs (p99
// latency, goodput) are checked after the run; a violation is delta-minimized
// over the flood script to a replayable SOAK-REPRO line.
//
// Knobs: NOISY_SEEDS=<lo>:<hi> (default 1:3), NOISY_EPOCHS=<n> (default 8).

// One run of the scenario and what the tests assert on it.
struct NoisyRun : apps::NoisyResult {
  explicit NoisyRun(apps::NoisyResult run) : apps::NoisyResult(std::move(run)) {}

  std::string failure;  // first violated SLO/invariant ("" = clean)
  std::vector<sim::Cycles> epoch_p99;
  std::vector<double> epoch_goodput;
  uint64_t victim_completed = 0;
  uint64_t flood_slices = 0;
};

uint64_t Slices(const std::vector<apps::EnvRun>& runs) {
  uint64_t n = 0;
  for (const apps::EnvRun& run : runs) {
    n += run.slices;
  }
  return n;
}

NoisyRun RunNoisy(const apps::NoisyConfig& cfg) {
  NoisyRun r(apps::RunNoisyNeighbor(cfg));
  for (const auto& victim : r.victims) {
    r.victim_completed += victim.size();
  }
  r.flood_slices = Slices(r.flood_runs);

  auto fail = [&](const std::string& what, uint64_t epoch) {
    if (r.failure.empty()) {
      r.failure = what + " (epoch " + std::to_string(epoch) + ")";
    }
  };
  for (uint64_t e = 0; e < cfg.epochs; ++e) {
    std::vector<sim::Cycles> l;
    uint64_t good = 0;
    for (const auto& victim : r.victims) {
      for (const apps::NoisySample& s : victim) {
        if (s.arrival / apps::kNoisyEpoch == e) {
          l.push_back(s.latency);
          if (s.latency <= apps::kLatencySlo) {
            ++good;
          }
        }
      }
    }
    if (l.empty()) {
      fail("no victim request arrived", e);
      continue;
    }
    std::sort(l.begin(), l.end());
    const sim::Cycles p99 = l[(l.size() * 99 + 99) / 100 - 1];
    r.epoch_p99.push_back(p99);
    r.epoch_goodput.push_back(static_cast<double>(good) / static_cast<double>(l.size()));
    if (p99 > apps::kLatencySlo) {
      fail("victim p99 " + std::to_string(p99) + " cycles above SLO " +
               std::to_string(apps::kLatencySlo),
           e);
    }
    if (r.epoch_goodput.back() < apps::kGoodputSlo) {
      fail("victim goodput " + std::to_string(r.epoch_goodput.back()) + " below SLO", e);
    }
  }
  const uint64_t issued = r.requests_per_victim * apps::kVictims;
  if (r.victim_completed != issued) {
    fail("victim requests lost: " + std::to_string(r.victim_completed) + " of " +
             std::to_string(issued),
         cfg.epochs);
  }
  if (!r.deadlock_report.empty()) {
    fail("scheduler declared deadlock", cfg.epochs);
  }
  if (!cfg.hostile && (r.pressure_aborts != 0 || r.env_aborts != 0)) {
    fail("compliant tenant aborted", cfg.epochs);
  }
  if (!cfg.equal_tickets) {
    // The cap that matters: even as the work-conserving scheduler hands the
    // flooder every idle cycle, it cannot crowd out victim slices (equal
    // tickets would give the 8-env flooder 8/11 = 73% of all slices).
    const uint64_t total = Slices(r.victim_runs) + r.flood_slices;
    if (total > 0 && r.flood_slices * 2 > total) {
      fail("flooder above ticket-share cap: " + std::to_string(r.flood_slices) + "/" +
               std::to_string(total) + " slices",
           cfg.epochs);
    }
  }
  if (!r.invariants.empty()) {
    fail("invariants: " + r.invariants, cfg.epochs);
  }
  return r;
}

// The CI noisy-neighbor sweep: randomized flood schedules under stride
// scheduling; victim SLOs must hold for every epoch of every seed. A failure
// is minimized over the flood script and printed as a replayable SOAK-REPRO
// line (replay by passing the parsed script through NoisyConfig::replay).
TEST(NoisySoak, VictimSlosHoldUnderFloodSweep) {
  const auto [lo, hi] = SeedBlock("NOISY_SEEDS");
  const uint64_t epochs = EnvOr("NOISY_EPOCHS", 8);

  uint64_t total_revokes = 0;
  for (uint64_t seed = lo; seed <= hi; ++seed) {
    apps::NoisyConfig cfg;
    cfg.seed = seed;
    cfg.epochs = epochs;
    NoisyRun r = RunNoisy(cfg);
    total_revokes += r.pressure_revokes;
    if (!r.failure.empty()) {
      const std::string failure = r.failure;
      auto still_fails = [&](const std::vector<apps::FloodOp>& candidate) {
        apps::NoisyConfig probe = cfg;
        probe.replay = &candidate;
        return RunNoisy(probe).failure == failure;
      };
      std::vector<apps::FloodOp> minimal = r.ops;
      if (still_fails(minimal)) {
        sim::BasicShrinker<apps::FloodOp> shrinker(still_fails);
        minimal = shrinker.Minimize(minimal);
      }
      std::printf("SOAK-REPRO seed=%llu flood=\"%s\"\n",
                  static_cast<unsigned long long>(seed),
                  apps::FormatFloodSchedule(minimal).c_str());
      ADD_FAILURE() << "seed " << seed << ": " << failure << "\nminimized flood ("
                    << minimal.size() << " ops): " << apps::FormatFloodSchedule(minimal);
      continue;
    }
    // The sweep must exercise the machinery, not idle through it.
    EXPECT_GT(r.victim_completed, epochs * 10) << "seed " << seed;
    EXPECT_GT(r.ops_executed, r.ops.size() / 2) << "seed " << seed;
    EXPECT_GT(r.flood_slices, 0u) << "seed " << seed;
  }
  // Across the sweep the flooder's hoard must have tripped the watermark
  // monitor at least once — otherwise the pressure path went untested.
  EXPECT_GE(total_revokes, 1u);
}

// Round-robin control: the identical workload with every env at equal tickets
// (per-env fairness, which stride serves in round-robin order) lets the 8-env
// flooder take ~73% of slices and the victims blow their SLOs — the isolation
// is the per-tenant tickets' doing, not an artifact of light load.
TEST(NoisySoak, RoundRobinControlStarvesVictims) {
  apps::NoisyConfig cfg;
  cfg.seed = 1;
  cfg.epochs = 6;
  NoisyRun stride = RunNoisy(cfg);
  cfg.equal_tickets = true;
  NoisyRun rr = RunNoisy(cfg);
  EXPECT_EQ(stride.failure, "");
  EXPECT_NE(rr.failure, "");
  ASSERT_FALSE(stride.epoch_p99.empty());
  ASSERT_FALSE(rr.epoch_p99.empty());
  const sim::Cycles stride_worst =
      *std::max_element(stride.epoch_p99.begin(), stride.epoch_p99.end());
  const sim::Cycles rr_worst = *std::max_element(rr.epoch_p99.begin(), rr.epoch_p99.end());
  EXPECT_GT(rr_worst, stride_worst * 4) << "rr p99 " << rr_worst << " vs stride "
                                        << stride_worst;
}

// Hostile flooder: hoards past the pressure watermark with no revocation
// handler. The kernel's escalation ladder (revoke -> deadline -> abort) kills
// flooder workers, never victims, and the victims' SLOs hold throughout.
TEST(NoisySoak, HostileFlooderAbortedByPressureNotVictims) {
  apps::NoisyConfig cfg;
  cfg.seed = 5;
  cfg.epochs = 8;
  cfg.hostile = true;
  NoisyRun r = RunNoisy(cfg);
  EXPECT_EQ(r.failure, "");
  EXPECT_GE(r.pressure_revokes, 1u);
  EXPECT_GE(r.pressure_aborts, 1u);
  // Every abort came from the pressure ladder and hit a flooder worker; all
  // victim requests still completed.
  EXPECT_EQ(r.env_aborts, r.pressure_aborts);
  EXPECT_EQ(r.victim_completed,
            cfg.epochs * (apps::kNoisyEpoch / apps::kVictimInterval) * apps::kVictims);
}

// Same seed, same everything: counters, per-epoch percentiles, the final
// clock, and the full trace dump are bit-identical across runs.
TEST(NoisySoak, SameSeedRunsBitIdentical) {
  apps::NoisyConfig cfg;
  cfg.seed = 7;
  cfg.epochs = 4;
  cfg.trace = true;
  NoisyRun a = RunNoisy(cfg);
  NoisyRun b = RunNoisy(cfg);
  EXPECT_EQ(a.failure, b.failure);
  EXPECT_EQ(a.end_time, b.end_time);
  EXPECT_EQ(a.epoch_p99, b.epoch_p99);
  EXPECT_EQ(a.victim_completed, b.victim_completed);
  EXPECT_TRUE(a.counters == b.counters);
  ASSERT_FALSE(a.trace_dump.empty());
  EXPECT_EQ(a.trace_dump, b.trace_dump);
}

// The flood-schedule codec round-trips the printed SOAK-REPRO line and
// rejects, with the offending token named, any line it would misread.
TEST(NoisySoak, FloodScheduleCodecRoundTrips) {
  std::vector<apps::FloodOp> ops = {{'c', 20000}, {'f', 8}, {'n', 2}, {'d', 63}, {'r', 1}};
  const std::string text = apps::FormatFloodSchedule(ops);
  EXPECT_EQ(text, "c@20000 f@8 n@2 d@63 r@1");
  std::string err = "unset";
  EXPECT_TRUE(apps::ParseFloodSchedule(text, &err) == ops);
  EXPECT_EQ(err, "");
  EXPECT_TRUE(apps::ParseFloodSchedule("", &err).empty());
  EXPECT_EQ(err, "");

  const std::pair<const char*, const char*> bad[] = {
      {"x@5 c@1", "token 1: unknown kind 'x'"},
      {"c@1 c", "token 2: expected '@' after kind"},
      {"c@1 f8", "token 2: expected '@' after kind"},
      {"n@two", "token 1: argument is not a decimal uint32"},
      {"d@", "token 1: argument is not a decimal uint32"},
      {"c@-1", "token 1: argument is not a decimal uint32"},
      {"c@12x", "token 1: argument is not a decimal uint32"},
      {"r@4294967296", "token 1: argument is not a decimal uint32"},
  };
  for (const auto& [line, why] : bad) {
    EXPECT_TRUE(apps::ParseFloodSchedule(line, &err).empty()) << line;
    EXPECT_EQ(err, why) << line;
  }
}

// ---------------------------------------------------------------------------
// Fleet soak: whole-machine kill/reboot chaos over a balanced cluster.
//
// A health-checked front-end balancer fronts two echo backends; machines die
// and reboot on a scripted k/b sim::FaultEvent schedule. The invariants are the
// fleet-level ones from docs/CLUSTER.md: the merged counter+trace dump is a
// pure function of (config, schedule) at ANY thread count, the balancer never
// readmits more backends than it ejected, and traffic keeps flowing whenever
// at least one backend is alive. A violating schedule is ddmin-minimized
// (sim::Shrinker) and printed as one replayable line:
//   FLEET-REPRO seed=<seed> schedule="k@350000:1 b@900000:1 ..."
// which feeds straight back through sim::ParseFaultSchedule +
// cluster::Topology::ApplyMachineSchedule.

constexpr uint32_t kFleetServers = 2;
constexpr uint32_t kFleetClients = 2;
constexpr sim::Cycles kFleetHorizon = 2'400'000;  // 12 ms at 200 MHz

struct FleetResult {
  std::string failure;  // first violated fleet invariant ("" = clean)
  std::string dump;     // merged counters + merged trace, the determinism unit
  uint64_t echoed = 0;
  uint64_t no_route = 0;
  uint64_t ejected = 0;
  uint64_t readmitted = 0;
};

// A routable client->VIP UDP frame, as cluster::Topology's balancer keys it.
hw::Packet FleetFrame(uint32_t src_ip, uint16_t src_port) {
  hw::Packet p;
  p.bytes.assign(64, 0);
  p.bytes[net::kOffProto] = net::kProtoUdp;
  for (int i = 0; i < 4; ++i) {
    p.bytes[net::kOffSrcIp + i] = static_cast<uint8_t>(src_ip >> (8 * i));
    p.bytes[net::kOffDstIp + i] =
        static_cast<uint8_t>(cluster::Topology::kVip >> (8 * i));
  }
  p.bytes[net::kOffSrcPort] = static_cast<uint8_t>(src_port);
  p.bytes[net::kOffSrcPort + 1] = static_cast<uint8_t>(src_port >> 8);
  p.bytes[net::kOffDstPort] = 80;
  return p;
}

FleetResult RunFleet(const std::vector<sim::FaultEvent>& schedule,
                     uint32_t threads) {
  cluster::TopologyConfig tc;
  tc.servers = kFleetServers;
  tc.clients = kFleetClients;
  tc.front_end_lb = true;
  tc.threads = threads;
  tc.seed = 11;
  tc.machine.mem_frames = 64;
  tc.machine.disks.clear();
  tc.health.interval_us = 300.0;  // 60k cycles at 200 MHz
  tc.health.timeout_us = 100.0;
  tc.health.fall = 2;
  tc.health.rise = 2;
  cluster::Topology topo(tc);

  // One echo counter per server: each is touched only by its own shard thread.
  uint64_t echo_counts[kFleetServers] = {};
  for (uint32_t k = 0; k < tc.servers; ++k) {
    hw::Machine& srv = topo.server(k);
    srv.tracer().Enable();
    auto* rx = srv.counters().Handle("srv.rx");
    hw::Nic* nic = &srv.nic(0);
    uint64_t* echoes = &echo_counts[k];
    nic->SetReceiveHandler([rx, nic, echoes](hw::Packet p) {
      ++*rx;
      ++*echoes;
      for (int i = 0; i < 4; ++i) {
        std::swap(p.bytes[net::kOffSrcIp + i], p.bytes[net::kOffDstIp + i]);
      }
      std::swap(p.bytes[net::kOffSrcPort], p.bytes[net::kOffDstPort]);
      std::swap(p.bytes[net::kOffSrcPort + 1], p.bytes[net::kOffDstPort + 1]);
      nic->Transmit(std::move(p));
    });
  }
  for (uint32_t j = 0; j < tc.clients; ++j) {
    hw::Machine& cli = topo.client(j);
    cli.tracer().Enable();
    auto* rx = cli.counters().Handle("cli.rx");
    cli.nic(0).SetReceiveHandler([rx](hw::Packet) { ++*rx; });
    sim::Engine& eng = topo.engine_of(topo.client_id(j));
    for (int burst = 0; burst < 18; ++burst) {
      eng.ScheduleAt(1'000 + 120'000 * burst + 271 * j, [&topo, j] {
        topo.client(j).nic(0).Transmit(
            FleetFrame(topo.client_ip(j), static_cast<uint16_t>(2'000 + j)));
      });
    }
  }
  topo.balancer().tracer().Enable();
  topo.ArmHealthChecks(kFleetHorizon);
  topo.ApplyMachineSchedule(schedule);
  topo.Run();

  FleetResult r;
  r.echoed = 0;
  for (uint32_t k = 0; k < tc.servers; ++k) {
    r.echoed += echo_counts[k];
  }
  r.no_route = topo.lb_no_route();
  r.ejected = topo.lb_ejected();
  r.readmitted = topo.lb_readmitted();
  r.dump = topo.MergedCountersDump() + topo.MergedTraceDump();
  if (r.readmitted > r.ejected) {
    r.failure = "balancer readmitted more backends than it ejected";
  } else if (r.echoed == 0) {
    r.failure = "fleet made no progress (no request ever echoed)";
  }
  return r;
}

// A random but fully seed-determined kill/reboot schedule: 2..4 kill+reboot
// pairs over the non-balancer machines (servers m1..m2, clients m3..m4), each
// reboot 60k..660k cycles after its kill. Same-machine same-cycle collisions
// are nudged forward so the formatted line always re-parses.
std::vector<sim::FaultEvent> RandomFleetSchedule(uint64_t seed) {
  sim::Rng rng(seed);
  std::vector<sim::FaultEvent> sched;
  auto push_unique = [&sched](uint64_t t, char kind, uint64_t machine) {
    for (size_t i = 0; i < sched.size(); ++i) {
      if (sched[i].arg == machine && sched[i].index == t) {
        ++t;
        i = static_cast<size_t>(-1);  // rescan with the nudged time
      }
    }
    sched.push_back({kind, t, machine});
  };
  const uint32_t pairs = 2 + static_cast<uint32_t>(rng.Below(3));
  for (uint32_t i = 0; i < pairs; ++i) {
    const uint64_t machine = 1 + rng.Below(kFleetServers + kFleetClients);
    const uint64_t t_kill = 200'000 + rng.Below(1'400'000);
    const uint64_t t_boot = t_kill + 60'000 + rng.Below(600'000);
    push_unique(t_kill, 'k', machine);
    push_unique(t_boot, 'b', machine);
  }
  std::sort(sched.begin(), sched.end(),
            [](const sim::FaultEvent& a, const sim::FaultEvent& b) {
              return a.index != b.index ? a.index < b.index
                     : a.arg != b.arg   ? a.arg < b.arg
                                        : a.kind < b.kind;
            });
  return sched;
}

// The CI fleet sweep: randomized kill/reboot schedules; every seed must (a)
// satisfy the fleet invariants and (b) produce a byte-identical merged dump at
// 1 and 4 threads. A failure ddmins over the machine schedule and prints a
// FLEET-REPRO line.
TEST(FleetSoak, RandomKillRebootSchedulesHoldInvariantsAcrossThreads) {
  const auto [lo, hi] = SeedBlock("FLEET_SEEDS");
  for (uint64_t seed = lo; seed <= hi; ++seed) {
    const std::vector<sim::FaultEvent> schedule = RandomFleetSchedule(seed);
    FleetResult one = RunFleet(schedule, 1);
    FleetResult four = RunFleet(schedule, 4);
    const bool bad = !one.failure.empty() || one.dump != four.dump;
    if (bad) {
      auto still_fails = [](const std::vector<sim::FaultEvent>& candidate) {
        FleetResult a = RunFleet(candidate, 1);
        FleetResult b = RunFleet(candidate, 4);
        return !a.failure.empty() || a.dump != b.dump;
      };
      sim::Shrinker shrinker(still_fails);
      const std::vector<sim::FaultEvent> minimal = shrinker.Minimize(schedule);
      std::printf("FLEET-REPRO seed=%llu schedule=\"%s\"\n",
                  static_cast<unsigned long long>(seed),
                  sim::FormatFaultSchedule(minimal).c_str());
      ADD_FAILURE() << "seed " << seed << ": "
                    << (one.failure.empty() ? "thread-count dump divergence"
                                            : one.failure)
                    << "\nminimized schedule (" << minimal.size()
                    << " events): " << sim::FormatFaultSchedule(minimal);
      continue;
    }
    // The sweep must exercise the machinery, not idle through it.
    EXPECT_GT(one.echoed, 0u) << "seed " << seed;
    EXPECT_NE(one.dump.find("fault.machine_kills"), std::string::npos)
        << "seed " << seed;
    EXPECT_GE(one.ejected, one.readmitted) << "seed " << seed;
  }
}

// Planted violation: a noisy 8-event schedule whose kills of BOTH backends
// blackhole client traffic (lb.no_route fires — the recovery SLO a real fleet
// would page on). ddmin strips the client-machine noise and the too-late
// reboots down to the two backend kills, the FLEET-REPRO line round-trips
// through the codec, and the minimal schedule replays byte-for-byte at 1 and
// 4 threads.
TEST(FleetSoak, PlantedBlackholeShrinksToReplayableFleetRepro) {
  std::string err;
  const std::vector<sim::FaultEvent> planted = sim::ParseFaultSchedule(
      "k@350000:1 k@400000:2 k@500000:3 b@600000:3 k@700000:4 b@800000:4 "
      "b@1600000:1 b@1700000:2",
      &err);
  ASSERT_TRUE(err.empty()) << err;
  ASSERT_EQ(planted.size(), 8u);

  auto blackholes = [](const std::vector<sim::FaultEvent>& candidate) {
    return RunFleet(candidate, 1).no_route > 0;
  };
  ASSERT_TRUE(blackholes(planted));

  sim::Shrinker shrinker(blackholes);
  std::vector<sim::FaultEvent> minimal = shrinker.Minimize(planted);
  EXPECT_LE(minimal.size(), 10u);
  ASSERT_EQ(minimal.size(), 2u);
  const std::string line = sim::FormatFaultSchedule(minimal);
  EXPECT_EQ(line, "k@350000:1 k@400000:2");
  // 1-minimal: drop either kill and the survivor absorbs the flows.
  for (size_t i = 0; i < minimal.size(); ++i) {
    std::vector<sim::FaultEvent> cand = minimal;
    cand.erase(cand.begin() + static_cast<long>(i));
    EXPECT_FALSE(blackholes(cand)) << "not 1-minimal at event " << i;
  }

  std::printf("FLEET-REPRO seed=planted schedule=\"%s\"\n", line.c_str());
  const std::vector<sim::FaultEvent> replay = sim::ParseFaultSchedule(line, &err);
  ASSERT_TRUE(err.empty()) << err;
  EXPECT_TRUE(replay == minimal);
  FleetResult first = RunFleet(replay, 1);
  FleetResult again = RunFleet(replay, 1);
  FleetResult wide = RunFleet(replay, 4);
  EXPECT_GT(first.no_route, 0u);
  EXPECT_EQ(first.ejected, 2u);
  EXPECT_EQ(first.readmitted, 0u);
  EXPECT_EQ(first.dump, again.dump);
  EXPECT_EQ(first.dump, wide.dump);
}

}  // namespace
}  // namespace exo
