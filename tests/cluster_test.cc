// Cluster subsystem: conservative-horizon parallel engine, cross-shard links,
// topology wiring, and the determinism contract (same seed => bit-identical
// output at any thread count).
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <functional>
#include <memory>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "cluster/cluster.h"
#include "cluster/topology.h"
#include "hw/disk.h"
#include "hw/machine.h"
#include "hw/nic.h"
#include "net/packet.h"
#include "sim/engine.h"
#include "sim/fault.h"
#include "trace/trace.h"
#include "udf/assembler.h"
#include "xn/types.h"
#include "xn/xn.h"

namespace exo {
namespace {

hw::Packet RoutableFrame(uint32_t src_ip, uint32_t dst_ip, uint16_t src_port,
                         uint16_t dst_port, size_t size = 64) {
  hw::Packet p;
  p.bytes.assign(size, 0);
  p.bytes[net::kOffProto] = net::kProtoUdp;
  for (int i = 0; i < 4; ++i) {
    p.bytes[net::kOffSrcIp + i] = static_cast<uint8_t>(src_ip >> (8 * i));
    p.bytes[net::kOffDstIp + i] = static_cast<uint8_t>(dst_ip >> (8 * i));
  }
  p.bytes[net::kOffSrcPort] = static_cast<uint8_t>(src_port);
  p.bytes[net::kOffSrcPort + 1] = static_cast<uint8_t>(src_port >> 8);
  p.bytes[net::kOffDstPort] = static_cast<uint8_t>(dst_port);
  p.bytes[net::kOffDstPort + 1] = static_cast<uint8_t>(dst_port >> 8);
  return p;
}

// A minimal TCP frame as net::EncodeTcp lays one out: generic routing header,
// real source port at the TCP header base, flags byte at header offset 12.
hw::Packet TcpFrame(uint32_t src_ip, uint32_t dst_ip, uint16_t src_port,
                    uint8_t flags) {
  hw::Packet p = RoutableFrame(src_ip, dst_ip, src_port, 80,
                               net::kIpHeaderBytes + net::kTcpHeaderBytes);
  p.bytes[net::kOffProto] = net::kProtoTcp;
  p.bytes[net::kIpHeaderBytes] = static_cast<uint8_t>(src_port);
  p.bytes[net::kIpHeaderBytes + 1] = static_cast<uint8_t>(src_port >> 8);
  p.bytes[net::kIpHeaderBytes + 2] = 80;
  p.bytes[net::kIpHeaderBytes + 12] = flags;
  return p;
}

// A ping-pong across a cross-shard link must observe the exact timestamps the
// plain single-engine wire produces: the fabric changes who runs the events,
// never when they happen.
TEST(ClusterTest, CrossShardWireMatchesSingleEngineTimestamps) {
  constexpr int kRounds = 8;
  constexpr double kMbps = 100.0;
  constexpr double kLatencyUs = 50.0;

  // Reference: one engine, plain link.
  std::vector<sim::Cycles> want;
  {
    sim::Engine engine;
    hw::Nic a(0), b(1);
    hw::Link link(&engine, kMbps, kLatencyUs, 200);
    link.Connect(&a, &b);
    int hops = 0;
    b.SetReceiveHandler([&](hw::Packet p) {
      want.push_back(engine.now());
      if (++hops < kRounds) {
        b.Transmit(std::move(p));
      }
    });
    a.SetReceiveHandler([&](hw::Packet p) {
      want.push_back(engine.now());
      a.Transmit(std::move(p));
    });
    a.Transmit(hw::Packet{std::vector<uint8_t>(200, 1)});
    engine.RunUntilIdle();
  }
  // b records kRounds arrivals, a records the kRounds - 1 returns.
  ASSERT_EQ(want.size(), static_cast<size_t>(2 * kRounds - 1));

  std::vector<sim::Cycles> got;
  {
    cluster::Cluster cl;
    const uint32_t sa = cl.AddShard("a");
    const uint32_t sb = cl.AddShard("b");
    hw::Nic a(0), b(1);
    cl.Connect(sa, &a, sb, &b, kMbps, kLatencyUs, 200);
    int hops = 0;
    b.SetReceiveHandler([&](hw::Packet p) {
      got.push_back(cl.engine(sb).now());
      if (++hops < kRounds) {
        b.Transmit(std::move(p));
      }
    });
    a.SetReceiveHandler([&](hw::Packet p) {
      got.push_back(cl.engine(sa).now());
      a.Transmit(std::move(p));
    });
    a.Transmit(hw::Packet{std::vector<uint8_t>(200, 1)});
    cl.Run();
    EXPECT_GT(cl.rounds(), 0u);
    EXPECT_EQ(cl.cross_messages(), static_cast<uint64_t>(2 * kRounds - 1));
  }
  EXPECT_EQ(got, want);
}

// A zero-latency wire would give the conservative protocol no window at all;
// the fabric clamps it to one cycle of lookahead.
TEST(ClusterTest, ZeroLatencyCrossShardLinkClampsToOneCycle) {
  cluster::Cluster cl;
  const uint32_t sa = cl.AddShard("a");
  const uint32_t sb = cl.AddShard("b");
  hw::Nic a(0), b(1);
  cl.Connect(sa, &a, sb, &b, 1000.0, /*latency_us=*/0.0, 200);
  EXPECT_EQ(cl.lookahead(), 1u);

  int delivered = 0;
  b.SetReceiveHandler([&](hw::Packet) { ++delivered; });
  a.Transmit(hw::Packet{std::vector<uint8_t>(64, 0)});
  cl.Run();
  EXPECT_EQ(delivered, 1);
}

// Same-cycle arrivals from different source shards must insert in
// (src shard, send seq) order no matter which worker thread drained first.
TEST(ClusterTest, SameTimestampCrossShardArrivalsTieBreakBySourceShard) {
  uint64_t rounds1 = 0;
  for (uint32_t threads : {1u, 2u, 3u}) {
    cluster::Cluster cl(cluster::ClusterOptions{threads, 1});
    const uint32_t sa = cl.AddShard("a");
    const uint32_t sb = cl.AddShard("b");
    const uint32_t sd = cl.AddShard("dst");
    hw::Nic a(0), b(1), da(2), db(3);
    cl.Connect(sa, &a, sd, &da, 100.0, 25.0, 200);
    cl.Connect(sb, &b, sd, &db, 100.0, 25.0, 200);

    std::vector<uint8_t> order;
    auto record = [&order](hw::Packet p) { order.push_back(p.bytes[63]); };
    da.SetReceiveHandler(record);
    db.SetReceiveHandler(record);

    // Identical frames sent at local time 0 on identical wires: identical
    // arrival cycles. Transmit in *reverse* shard order to prove the sort, not
    // the call order, decides.
    hw::Packet from_b{std::vector<uint8_t>(64, 0)};
    from_b.bytes[63] = 2;
    b.Transmit(std::move(from_b));
    hw::Packet from_a{std::vector<uint8_t>(64, 0)};
    from_a.bytes[63] = 1;
    a.Transmit(std::move(from_a));
    cl.Run();

    ASSERT_EQ(order.size(), 2u);
    EXPECT_EQ(order[0], 1) << "threads=" << threads;
    EXPECT_EQ(order[1], 2) << "threads=" << threads;
    if (threads == 1) {
      rounds1 = cl.rounds();
    }
    EXPECT_EQ(cl.rounds(), rounds1) << "threads=" << threads;
  }
}

// A liveness check for the round barrier rather than a reproducer of any one
// interleaving: two ping-pongs on four shards over zero-latency wires, so the
// lookahead is one cycle and the threads cross the barrier tens of thousands
// of times. A lost wake-up hangs (ctest's timeout turns that into a failure);
// a protocol slip shows as a different round count or arrival time.
constexpr size_t kPingPongHops = 30'000;  // receptions per NIC, at most

struct PingPongRun {
  uint64_t rounds = 0;
  uint64_t cross_messages = 0;
  std::vector<std::vector<sim::Cycles>> arrivals;  // per NIC, in receive order
};

PingPongRun RunShortRoundPingPong(uint32_t threads) {
  cluster::Cluster cl(cluster::ClusterOptions{threads, 1});
  uint32_t shard[4];
  for (uint32_t i = 0; i < 4; ++i) {
    shard[i] = cl.AddShard(std::to_string(i));
  }
  hw::Nic n0(0), n1(1), n2(2), n3(3);
  hw::Nic* nic[4] = {&n0, &n1, &n2, &n3};
  // Different wire rates keep the two pairs' arrivals on different cycles, so
  // most rounds run one event.
  cl.Connect(shard[0], nic[0], shard[1], nic[1], 1000.0, 0.0, 200);
  cl.Connect(shard[2], nic[2], shard[3], nic[3], 800.0, 0.0, 200);
  EXPECT_EQ(cl.lookahead(), 1u);

  PingPongRun run;
  run.arrivals.resize(4);
  for (uint32_t i = 0; i < 4; ++i) {
    // Each NIC's log is touched only by its own shard's thread.
    nic[i]->SetReceiveHandler([&cl, &run, i, s = shard[i], n = nic[i]](hw::Packet p) {
      run.arrivals[i].push_back(cl.engine(s).now());
      if (run.arrivals[i].size() < kPingPongHops) {
        n->Transmit(std::move(p));
      }
    });
  }
  nic[0]->Transmit(hw::Packet{std::vector<uint8_t>(64, 0)});
  nic[2]->Transmit(hw::Packet{std::vector<uint8_t>(64, 0)});
  cl.Run();
  run.rounds = cl.rounds();
  run.cross_messages = cl.cross_messages();
  return run;
}

TEST(ClusterTest, ManyShortRoundsFinishAtEveryThreadCount) {
  const PingPongRun one = RunShortRoundPingPong(1);
  EXPECT_GE(one.rounds, 50'000u);
  // Each pair's answering NIC hears every hop; the opener misses the last.
  EXPECT_EQ(one.cross_messages, 4 * kPingPongHops - 2);
  for (uint32_t threads : {2u, 4u}) {
    const PingPongRun run = RunShortRoundPingPong(threads);
    EXPECT_EQ(run.rounds, one.rounds) << "threads=" << threads;
    EXPECT_EQ(run.cross_messages, one.cross_messages) << "threads=" << threads;
    EXPECT_TRUE(run.arrivals == one.arrivals) << "threads=" << threads;
  }
}

TEST(ClusterTest, RunUntilAlignsEveryShardClock) {
  cluster::Cluster cl;
  const uint32_t sa = cl.AddShard("a");
  const uint32_t sb = cl.AddShard("b");
  const uint32_t sc = cl.AddShard("idle");
  hw::Nic a(0), b(1);
  cl.Connect(sa, &a, sb, &b, 1000.0, 10.0, 200);
  b.SetReceiveHandler([&](hw::Packet p) { b.Transmit(std::move(p)); });
  a.SetReceiveHandler([&](hw::Packet p) { a.Transmit(std::move(p)); });
  a.Transmit(hw::Packet{std::vector<uint8_t>(64, 0)});

  cl.RunUntil(50'000);
  EXPECT_EQ(cl.engine(sa).now(), 50'000u);
  EXPECT_EQ(cl.engine(sb).now(), 50'000u);
  EXPECT_EQ(cl.engine(sc).now(), 50'000u);

  // Resuming past the first deadline keeps the ping-pong alive.
  const uint64_t msgs = cl.cross_messages();
  cl.RunUntil(100'000);
  EXPECT_GT(cl.cross_messages(), msgs);
}

TEST(ClusterTest, SeedDerivationIsStableAndDisjoint) {
  EXPECT_EQ(cluster::DeriveSeed(1, 0), cluster::DeriveSeed(1, 0));
  EXPECT_NE(cluster::DeriveSeed(1, 0), cluster::DeriveSeed(1, 1));
  EXPECT_NE(cluster::DeriveSeed(1, 0), cluster::DeriveSeed(2, 0));
  cluster::Cluster cl(cluster::ClusterOptions{1, 42});
  EXPECT_EQ(cl.DeriveSeed(7), cluster::DeriveSeed(42, 7));
}

// Machines colocated on one shard keep plain links; only cross-shard wires
// contribute lookahead.
TEST(ClusterTest, SameShardConnectStaysPlainLink) {
  cluster::Cluster cl;
  const uint32_t s = cl.AddShard("s");
  hw::Nic a(0), b(1);
  hw::Link* link = cl.Connect(s, &a, s, &b, 1000.0, 0.0, 200);
  EXPECT_EQ(link->engine_for(&a), &cl.engine(s));
  EXPECT_EQ(cl.lookahead(), cluster::kNever);
  int delivered = 0;
  b.SetReceiveHandler([&](hw::Packet) { ++delivered; });
  a.Transmit(hw::Packet{std::vector<uint8_t>(64, 0)});
  cl.Run();
  EXPECT_EQ(delivered, 1);
}

// Satellite: machine-id prefixes. A cluster machine re-keys its counters and
// trace tracks in place; a standalone machine's names are untouched.
TEST(ClusterTest, ClusterIdentityPrefixesCountersAndTracks) {
  sim::Engine engine;
  hw::Machine m(&engine);
  EXPECT_EQ(m.cluster_id(), hw::Machine::kNoClusterId);
  auto* slot = m.counters().Handle("nic.dropped");
  m.counters().Add("nic.dropped", 3);

  m.SetClusterIdentity(7);
  EXPECT_EQ(m.cluster_id(), 7u);
  // Cached handles survive the re-key; reads through either path agree.
  *slot += 1;
  EXPECT_EQ(m.counters().Get("nic.dropped"), 4u);  // Get applies the prefix
  auto snap = m.counters().Snapshot();
  ASSERT_FALSE(snap.empty());
  for (const auto& [name, value] : snap) {
    EXPECT_EQ(name.rfind("m7.", 0), 0u) << name;
  }
  EXPECT_EQ(m.tracer().track_names()[0], "m7.main");
  const uint32_t t = m.tracer().NewTrack("disk9");
  EXPECT_EQ(m.tracer().track_names()[t], "m7.disk9");

  sim::Engine e2;
  hw::Machine standalone(&e2);
  standalone.counters().Add("nic.dropped");
  bool found_unprefixed = false;
  for (const auto& [name, value] : standalone.counters().Snapshot()) {
    EXPECT_NE(name.rfind("m", 0), 0u) << name;
    found_unprefixed |= name == "nic.dropped";
  }
  EXPECT_TRUE(found_unprefixed);
  EXPECT_EQ(standalone.tracer().track_names()[0], "main");
}

// ---- Topology ----

struct BalancerRun {
  std::string dump;  // merged counters + trace
  uint64_t forwarded = 0;
  size_t flows = 0;
  uint64_t echoed = 0;
  uint64_t rounds = 0;
};

// Drives the balancer topology with raw routable frames: every client streams
// requests at the VIP, servers echo them back. The merged counters+trace dump
// must be bit-identical across thread counts.
BalancerRun RunBalancerWorkload(uint32_t threads) {
  cluster::TopologyConfig tc;
  tc.servers = 2;
  tc.clients = 3;
  tc.front_end_lb = true;
  tc.threads = threads;
  tc.seed = 99;
  tc.machine.mem_frames = 64;
  tc.machine.disks.clear();
  cluster::Topology topo(tc);

  // Each server counts its echoes in its own machine's counters: the servers
  // run on different shard threads, so a shared tally would race.
  for (uint32_t k = 0; k < tc.servers; ++k) {
    hw::Machine& srv = topo.server(k);
    srv.tracer().Enable();
    auto* rx = srv.counters().Handle("srv.rx");
    hw::Nic* nic = &srv.nic(0);
    nic->SetReceiveHandler([rx, nic](hw::Packet p) {
      ++*rx;
      // Echo: swap src and dst ip/port so the balancer routes the reply home.
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
    for (int burst = 0; burst < 4; ++burst) {
      eng.ScheduleAt(1'000 + 7'000 * burst + 311 * j, [&topo, j] {
        topo.client(j).nic(0).Transmit(RoutableFrame(
            topo.client_ip(j), cluster::Topology::kVip, 2'000 + j, 80));
      });
    }
  }
  topo.balancer().tracer().Enable();
  topo.Run();

  BalancerRun run;
  run.forwarded = topo.lb_forwarded();
  run.flows = topo.lb_flows();
  for (uint32_t k = 0; k < tc.servers; ++k) {
    run.echoed += topo.server(k).counters().Get("srv.rx");
  }
  run.rounds = topo.cluster().rounds();
  run.dump = topo.MergedCountersDump() + topo.MergedTraceDump();
  return run;
}

// The determinism contract, end to end: same seed, thread count 1 vs 2 vs 3
// vs 4, the same rounds and byte-identical merged counters and trace dumps.
TEST(ClusterTest, TopologyOutputBitIdenticalAcrossThreadCounts) {
  const BalancerRun one = RunBalancerWorkload(1);
  EXPECT_EQ(one.echoed, 12u);    // 3 clients x 4 bursts, every frame reached a server
  EXPECT_EQ(one.forwarded, 24u);  // each echoed frame crossed the balancer twice
  EXPECT_EQ(one.flows, 3u);       // one pinned flow per client
  // The dump is machine-prefixed and non-trivial.
  EXPECT_NE(one.dump.find("m0.lb.forwarded 24"), std::string::npos);
  EXPECT_NE(one.dump.find("m1.srv.rx"), std::string::npos);
  for (uint32_t threads : {2u, 3u, 4u}) {
    const BalancerRun run = RunBalancerWorkload(threads);
    EXPECT_EQ(run.forwarded, one.forwarded) << "threads=" << threads;
    EXPECT_EQ(run.flows, one.flows) << "threads=" << threads;
    EXPECT_EQ(run.echoed, one.echoed) << "threads=" << threads;
    EXPECT_EQ(run.rounds, one.rounds) << "threads=" << threads;
    EXPECT_EQ(run.dump, one.dump) << "threads=" << threads;
  }
}

// Flow pinning: each client's flow lands on one backend, round-robin by first
// sight; replies route back to the right client.
TEST(ClusterTest, BalancerPinsFlowsRoundRobin) {
  const BalancerRun run = RunBalancerWorkload(2);
  const std::string& dump = run.dump;
  EXPECT_EQ(run.flows, 3u);
  // Clients fire in j order within each burst (311 * j stagger): backends get
  // flows 0,1,0 -> server m1 sees 2 flows x 4 frames, m2 sees 1 x 4.
  EXPECT_NE(dump.find("m1.srv.rx 8"), std::string::npos) << dump;
  EXPECT_NE(dump.find("m2.srv.rx 4"), std::string::npos) << dump;
  // Every client got all 4 echoes back.
  EXPECT_NE(dump.find("m3.cli.rx 4"), std::string::npos) << dump;
  EXPECT_NE(dump.find("m4.cli.rx 4"), std::string::npos) << dump;
  EXPECT_NE(dump.find("m5.cli.rx 4"), std::string::npos) << dump;
}

// Direct mode wires client j to server j % servers with no middle hop.
TEST(ClusterTest, DirectTopologyWiresClientsToServers) {
  cluster::TopologyConfig tc;
  tc.servers = 2;
  tc.clients = 4;
  tc.front_end_lb = false;
  tc.machine.mem_frames = 64;
  tc.machine.disks.clear();
  cluster::Topology topo(tc);

  ASSERT_EQ(topo.num_machines(), 6u);
  EXPECT_EQ(topo.server(0).num_nics(), 2u);  // clients 0 and 2
  EXPECT_EQ(topo.server(1).num_nics(), 2u);  // clients 1 and 3
  EXPECT_EQ(topo.server_for_client(3), 1u);
  EXPECT_EQ(topo.server_nic_for_client(3), 1u);

  int rx = 0;
  topo.server(1).nic(1).SetReceiveHandler([&](hw::Packet) { ++rx; });
  topo.client(3).nic(0).Transmit(RoutableFrame(topo.client_ip(3),
                                               cluster::Topology::kVip, 99, 80));
  topo.Run();
  EXPECT_EQ(rx, 1);
}

// ---- Cross-shard wire faults: one wire model for both link kinds ----

// What a scripted 4-frame burst a -> b produced: each arrival at b (time and
// bytes), the injector's outcome, and the a->b direction's wire records.
struct ScriptedBurst {
  std::vector<sim::Cycles> arrival_times;
  std::vector<std::vector<uint8_t>> arrivals;
  int a_rx = 0;
  sim::FaultStats stats;
  std::string executed;  // the executed schedule, replay form
  std::vector<std::string> fault_log;
  // (kind, name, time, arg) of every `wire`, `wire_dup` and `arrive` record.
  std::vector<std::tuple<trace::Kind, std::string, sim::Cycles, uint64_t>> wire_records;
};

// Arms only the a->b direction of `link` with the injector "d@1 c@2:3 u@3" and
// a tracer, sends frames 1..4 (id in byte 63), and has b answer the fourth
// arrival over the unarmed reverse direction. `run` drains the simulation;
// `b_clock` is the engine b's events run on.
ScriptedBurst RunScriptedBurst(hw::Link* link, hw::Nic& a, hw::Nic& b,
                               const sim::Engine& b_clock,
                               const std::function<void()>& run) {
  sim::FaultPlan plan;
  plan.script = sim::ParseFaultSchedule("d@1 c@2:3 u@3");
  EXPECT_EQ(plan.script.size(), 3u);
  sim::FaultInjector faults(plan);
  trace::Tracer tracer;
  tracer.Enable();
  link->AttachTracerFor(&a, &tracer, "ab");
  link->SetFaultInjectorFor(&a, &faults);

  ScriptedBurst r;
  b.SetReceiveHandler([&](hw::Packet p) {
    r.arrival_times.push_back(b_clock.now());
    r.arrivals.push_back(p.bytes);
    if (r.arrivals.size() == 4) {
      b.Transmit(hw::Packet{std::vector<uint8_t>(64, 9)});  // reverse direction
    }
  });
  a.SetReceiveHandler([&](hw::Packet) { ++r.a_rx; });
  for (uint8_t i = 1; i <= 4; ++i) {
    hw::Packet p{std::vector<uint8_t>(64, 0)};
    p.bytes[63] = i;
    a.Transmit(std::move(p));
  }
  run();

  r.stats = faults.stats();
  r.executed = sim::FormatFaultSchedule(faults.events());
  r.fault_log = faults.log();
  for (const trace::Record& rec : tracer.Records()) {
    const std::string name = rec.name;
    if (name == "wire" || name == "wire_dup" || name == "arrive") {
      r.wire_records.emplace_back(rec.kind, name, rec.time, rec.arg);
    }
  }
  return r;
}

// A scripted injector armed on one direction of a cross-shard link hits the
// exact frames it names — drop, corrupt, duplicate — with `wire`/`wire_dup`
// spans and `arrive` instants on the sender's tracer, while the reverse
// direction stays untouched. The same burst over a plain hw::Link on one
// engine is the reference: arrivals, fault log and wire records all match.
TEST(ClusterTest, CrossShardLinkInjectsScriptedWireFaults) {
  cluster::Cluster cl;
  const uint32_t sa = cl.AddShard("a");
  const uint32_t sb = cl.AddShard("b");
  hw::Nic a(0), b(1);
  hw::Link* link = cl.Connect(sa, &a, sb, &b, 100.0, 25.0, 200);
  const ScriptedBurst cross =
      RunScriptedBurst(link, a, b, cl.engine(sb), [&] { cl.Run(); });

  // Frame 1 dropped; frame 2 corrupted at byte 3; frame 3 doubled; frame 4
  // clean. The duplicate trails its original by one serialization slot.
  std::vector<uint8_t> markers;  // frame id (byte 63) per arrival at b
  std::vector<uint8_t> byte3s;   // the corruption target byte per arrival
  for (const std::vector<uint8_t>& bytes : cross.arrivals) {
    markers.push_back(bytes[63]);
    byte3s.push_back(bytes[3]);
  }
  ASSERT_EQ(markers, (std::vector<uint8_t>{2, 3, 3, 4}));
  EXPECT_EQ(byte3s, (std::vector<uint8_t>{0xff, 0, 0, 0}));
  EXPECT_EQ(cross.a_rx, 1);
  EXPECT_EQ(cross.stats.frames_seen, 4u);  // reverse direction unarmed
  EXPECT_EQ(cross.stats.net_drops, 1u);
  EXPECT_EQ(cross.stats.net_corruptions, 1u);
  EXPECT_EQ(cross.stats.net_duplicates, 1u);
  // The executed schedule replays verbatim.
  EXPECT_EQ(cross.executed, "d@1 c@2:3 u@3");

  int wire_begins = 0, dup_begins = 0, arrives = 0;
  for (const auto& [kind, name, time, arg] : cross.wire_records) {
    if (kind == trace::Kind::kBegin && name == "wire") {
      ++wire_begins;
    } else if (kind == trace::Kind::kBegin && name == "wire_dup") {
      ++dup_begins;
    } else if (kind == trace::Kind::kInstant && name == "arrive") {
      ++arrives;
    }
  }
  EXPECT_EQ(wire_begins, 4);  // every frame serializes, even the dropped one
  EXPECT_EQ(dup_begins, 1);
  EXPECT_EQ(arrives, 3);      // the dropped frame never arrives

  sim::Engine engine;
  hw::Nic ra(0), rb(1);
  hw::Link plain(&engine, 100.0, 25.0, 200);
  plain.Connect(&ra, &rb);
  const ScriptedBurst ref =
      RunScriptedBurst(&plain, ra, rb, engine, [&] { engine.RunUntilIdle(); });
  EXPECT_EQ(cross.arrival_times, ref.arrival_times);
  EXPECT_EQ(cross.arrivals, ref.arrivals);
  EXPECT_EQ(cross.fault_log, ref.fault_log);
  EXPECT_EQ(cross.wire_records, ref.wire_records);
}

// ---- Balancer pin lifecycle (satellite: no stale pins) ----

// Client closes tear their pins down: RST immediately, FIN after a linger that
// lets the close handshake drain — and traffic on a reused source port inside
// the linger revives the pin instead of racing the eviction.
TEST(ClusterTest, BalancerEvictsPinsOnConnectionClose) {
  cluster::TopologyConfig tc;
  tc.servers = 2;
  tc.clients = 2;
  tc.front_end_lb = true;
  tc.seed = 7;
  tc.machine.mem_frames = 64;
  tc.machine.disks.clear();
  cluster::Topology topo(tc);

  auto send = [&](uint32_t j, sim::Cycles at, uint8_t flags) {
    topo.engine_of(topo.client_id(j)).ScheduleAt(at, [&topo, j, flags] {
      topo.client(j).nic(0).Transmit(
          TcpFrame(topo.client_ip(j), cluster::Topology::kVip, 7'777, flags));
    });
  };
  // Client 0: data, FIN, then a reused-port SYN inside the linger (revives the
  // pin), and finally an RST long after.
  send(0, 1'000, net::kFlagPsh);
  send(0, 50'000, net::kFlagFin);
  send(0, 80'000, net::kFlagSyn);
  send(0, 400'000, net::kFlagRst);
  // Client 1: data, then FIN — the linger eviction fires unopposed.
  send(1, 2'000, net::kFlagPsh);
  send(1, 60'000, net::kFlagFin);

  // Inside the linger window (500 us = 100k cycles at 200 MHz) both pins live.
  topo.RunUntil(120'000);
  EXPECT_EQ(topo.lb_flows(), 2u);
  EXPECT_EQ(topo.lb_pins_evicted(), 0u);

  // Past both linger deadlines: client 1's pin evicted, client 0's revived.
  topo.RunUntil(300'000);
  EXPECT_EQ(topo.lb_flows(), 1u);
  EXPECT_EQ(topo.lb_pins_evicted(), 1u);

  topo.Run();
  EXPECT_EQ(topo.lb_flows(), 0u);  // the RST tore the survivor down
  EXPECT_EQ(topo.lb_pins_evicted(), 2u);
  EXPECT_EQ(topo.lb_forwarded(), 6u);  // every frame still reached a backend
  EXPECT_EQ(topo.lb_failover_reroutes(), 0u);
}

// ---- Machine kill/reboot + health-check failover (tentpole) ----

// Kills one of two backends mid-workload with health checks armed, reboots it
// later, and requires the whole story — ejection, pin eviction, failover
// re-pinning, readmission — to be byte-identical at 1, 2, 3, and 4 threads.
std::string RunFailoverWorkload(uint32_t threads, uint64_t* echoed, uint64_t* rounds) {
  cluster::TopologyConfig tc;
  tc.servers = 2;
  tc.clients = 3;
  tc.front_end_lb = true;
  tc.threads = threads;
  tc.seed = 99;
  tc.machine.mem_frames = 64;
  tc.machine.disks.clear();
  tc.health.interval_us = 500.0;  // 100k cycles at 200 MHz
  tc.health.timeout_us = 200.0;
  tc.health.fall = 2;
  tc.health.rise = 2;
  cluster::Topology topo(tc);

  // One echo counter per server: each is touched only by its own shard thread.
  uint64_t echo_counts[2] = {0, 0};
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
    for (int burst = 0; burst < 16; ++burst) {
      eng.ScheduleAt(1'000 + 150'000 * burst + 311 * j, [&topo, j] {
        topo.client(j).nic(0).Transmit(RoutableFrame(
            topo.client_ip(j), cluster::Topology::kVip, 2'000 + j, 80));
      });
    }
  }
  topo.balancer().tracer().Enable();
  topo.ArmHealthChecks(2'500'000);

  // Server 0 is machine 1: killed a third of the way in, rebooted at 1.5M.
  std::string err;
  const auto schedule = sim::ParseFaultSchedule("k@600000:1 b@1500000:1", &err);
  EXO_CHECK(err.empty());
  topo.ApplyMachineSchedule(schedule);
  topo.Run();

  EXPECT_EQ(topo.lb_ejected(), 1u) << "threads=" << threads;
  EXPECT_EQ(topo.lb_readmitted(), 1u) << "threads=" << threads;
  // Clients 0 and 2 were pinned to the dead backend; their flows were cut
  // loose on ejection and re-pinned to the survivor.
  EXPECT_EQ(topo.lb_pins_evicted(), 2u) << "threads=" << threads;
  EXPECT_EQ(topo.lb_failover_reroutes(), 2u) << "threads=" << threads;
  EXPECT_FALSE(topo.backend_ejected(0));
  EXPECT_GT(topo.backend_last_eject(0), 600'000u);
  EXPECT_LT(topo.backend_last_eject(0), 1'500'000u);
  EXPECT_GT(topo.backend_last_readmit(0), 1'500'000u);

  *echoed = echo_counts[0] + echo_counts[1];
  *rounds = topo.cluster().rounds();
  return topo.MergedCountersDump() + topo.MergedTraceDump();
}

TEST(ClusterTest, FailoverWithKillAndRebootIsBitIdenticalAcrossThreads) {
  uint64_t echo1 = 0, rounds1 = 0;
  const std::string dump1 = RunFailoverWorkload(1, &echo1, &rounds1);
  // Some frames blackholed between the kill and the ejection; everything after
  // the failover re-pin was served.
  EXPECT_GE(echo1, 40u);
  EXPECT_LE(echo1, 46u);
  for (uint32_t threads : {2u, 3u, 4u}) {
    uint64_t echo = 0, rounds = 0;
    const std::string dump = RunFailoverWorkload(threads, &echo, &rounds);
    EXPECT_EQ(echo, echo1) << "threads=" << threads;
    EXPECT_EQ(rounds, rounds1) << "threads=" << threads;
    EXPECT_EQ(dump, dump1) << "threads=" << threads;
  }
  // The machine faults and the failover counters are on the merged surface.
  EXPECT_NE(dump1.find("m1.fault.machine_kills 1"), std::string::npos);
  EXPECT_NE(dump1.find("m1.fault.machine_reboots 1"), std::string::npos);
  EXPECT_NE(dump1.find("m0.lb.ejected 1"), std::string::npos);
  EXPECT_NE(dump1.find("m0.lb.readmitted 1"), std::string::npos);
  EXPECT_NE(dump1.find("lb_eject"), std::string::npos);
  EXPECT_NE(dump1.find("lb_readmit"), std::string::npos);
  EXPECT_NE(dump1.find("machine_kill"), std::string::npos);
}

// ---- Reboot recovery fsck (satellite: integrity across kill/reboot) ----

// The miniature tnode format from xn_test: a u32 child count then u32 child
// pointers, typed by an owns-udf.
udf::Program DataTnodeOwns() {
  char src[512];
  std::snprintf(src, sizeof(src), R"(
      ldi r1, 0
      ld4 r2, r1, 0, meta
      ldi r3, 4
      ldi r4, 1
      ldi r5, %u
      bz r2, done
    loop:
      ld4 r6, r3, 0, meta
      emit r6, r4, r5
      addi r3, r3, 4
      addi r2, r2, -1
      bnz r2, loop
    done:
      ret r0
  )", xn::kDataTemplate);
  auto r = udf::Assemble(src);
  EXO_CHECK(r.ok);
  return r.program;
}

// A rebooted server machine re-runs the XN recovery fsck against the surviving
// disk image: a block silently rotted by a pre-kill disk fault schedule is
// quarantined (reads refuse it), while clean blocks serve their exact bytes.
TEST(ClusterTest, RebootedServerFsckQuarantinesPreKillDiskCorruption) {
  cluster::TopologyConfig tc;
  tc.servers = 1;
  tc.clients = 1;
  tc.front_end_lb = false;
  tc.machines_per_shard = 2;  // one shard: drive phases with RunUntilIdle
  tc.machine.mem_frames = 512;
  tc.machine.disks = {hw::DiskGeometry{.num_blocks = 2048}};
  cluster::Topology topo(tc);

  hw::Machine& srv = topo.server(0);
  sim::Engine& eng = topo.engine_of(topo.server_id(0));
  srv.disk().EnableIntegrity();

  auto xn = std::make_unique<xn::Xn>(&srv, &srv.disk());
  xn->Format();
  ASSERT_EQ(xn->Attach(), Status::kOk);
  xn::Template leaf;
  leaf.name = "tnode-leaf";
  leaf.is_metadata = true;
  leaf.owns_udf = DataTnodeOwns();
  auto size_uf = udf::Assemble("ldi r1, 4096\nret r1\n");
  ASSERT_TRUE(size_uf.ok);
  leaf.size_uf = size_uf.program;
  auto tmpl = xn->InstallTemplate(leaf);
  ASSERT_TRUE(tmpl.ok());

  const xn::Caps creds;  // empty acl-uf: no extra access control
  auto root_info = xn->RegisterRoot("fs", *tmpl, /*temporary=*/false);
  ASSERT_TRUE(root_info.ok());
  const hw::BlockId root = root_info->block;
  auto root_frame = srv.mem().Alloc();
  ASSERT_TRUE(root_frame.ok());
  Status loaded = Status::kNotFound;
  ASSERT_EQ(xn->LoadRoot("fs", *root_frame, creds, [&](Status s) { loaded = s; }),
            Status::kOk);
  eng.RunUntilIdle();
  ASSERT_EQ(loaded, Status::kOk);

  // Two data children under the root, distinct fills, flushed to the platter.
  std::vector<hw::BlockId> kids;
  {
    xn::ByteMod count;
    count.offset = 0;
    count.bytes = {2, 0, 0, 0};
    xn::Mods mods = {count};
    std::vector<udf::Extent> extents;
    hw::BlockId hint = xn->free_map().first_data_block();
    for (uint32_t i = 0; i < 2; ++i) {
      auto blk = xn->free_map().FindFreeRun(hint, 1);
      ASSERT_TRUE(blk.ok());
      hint = *blk + 1;
      xn::ByteMod ptr;
      ptr.offset = 4 + i * 4;
      ptr.bytes = {static_cast<uint8_t>(*blk), static_cast<uint8_t>(*blk >> 8),
                   static_cast<uint8_t>(*blk >> 16), static_cast<uint8_t>(*blk >> 24)};
      mods.push_back(ptr);
      extents.push_back({*blk, 1, xn::kDataTemplate});
      kids.push_back(*blk);
    }
    ASSERT_EQ(xn->Alloc(root, mods, extents, creds), Status::kOk);
  }
  for (size_t i = 0; i < kids.size(); ++i) {
    auto f = srv.mem().Alloc();
    ASSERT_TRUE(f.ok());
    std::memset(srv.mem().Data(*f).data(), i == 0 ? 0x5a : 0x42, 4096);
    ASSERT_EQ(xn->InsertMapping(kids[i], root, *f, /*dirty=*/true, creds),
              Status::kOk);
  }
  Status flushed = Status::kNotFound;
  ASSERT_EQ(xn->Write(std::vector<hw::BlockId>{kids[0], kids[1], root},
                      [&](Status s) { flushed = s; }),
            Status::kOk);
  eng.RunUntilIdle();
  ASSERT_EQ(flushed, Status::kOk);

  // Pre-kill disk fault schedule: the next block read silently rots a media
  // byte of the block it touches. A raw controller read of kids[0] (below
  // XN's checking) plants the corruption without anything noticing.
  sim::FaultPlan dplan;
  dplan.script = sim::ParseFaultSchedule("r@1:9");
  ASSERT_EQ(dplan.script.size(), 1u);
  sim::FaultInjector disk_faults(dplan);
  srv.disk().SetFaultInjector(&disk_faults);
  auto scratch = srv.mem().Alloc();
  ASSERT_TRUE(scratch.ok());
  srv.disk().Submit(hw::DiskRequest{false, kids[0], 1, {*scratch}, nullptr});
  eng.RunUntilIdle();
  srv.disk().SetFaultInjector(nullptr);
  ASSERT_EQ(disk_faults.stats().disk_rot, 1u);
  ASSERT_EQ(srv.disk().CheckBlock(kids[0]), hw::BlockIntegrity::kBadChecksum);

  // Kill tears the software stack down with the hardware; reboot attaches a
  // fresh XN, whose recovery fsck must find the rot before trusting traversal,
  // then serves the clean sibling and refuses the quarantined block.
  std::unique_ptr<xn::Xn> reborn;
  Status reattach = Status::kNotFound;
  Status good_read = Status::kNotFound;
  Status bad_read = Status::kOk;
  hw::FrameId good_frame = hw::kInvalidFrame;
  srv.AddKillListener([&] { xn->Crash(); });
  srv.AddRebootListener([&] {
    reborn = std::make_unique<xn::Xn>(&srv, &srv.disk());
    reattach = reborn->Attach();
    if (reattach != Status::kOk) {
      return;
    }
    auto rf = srv.mem().Alloc();
    EXO_CHECK(rf.ok());
    EXO_CHECK_EQ(reborn->LoadRoot("fs", *rf, creds,
                                  [&](Status s) {
      if (s != Status::kOk) {
        return;
      }
      auto gf = srv.mem().Alloc();
      EXO_CHECK(gf.ok());
      good_frame = *gf;
      std::vector<hw::BlockId> want = {kids[1]};
      std::vector<hw::FrameId> frames = {good_frame};
      EXO_CHECK_EQ(reborn->ReadAndInsert(root, want, frames, creds,
                                         [&](Status rs) { good_read = rs; }),
                   Status::kOk);
      auto bf = srv.mem().Alloc();
      EXO_CHECK(bf.ok());
      std::vector<hw::BlockId> doomed = {kids[0]};
      std::vector<hw::FrameId> bframes = {*bf};
      bad_read = reborn->ReadAndInsert(root, doomed, bframes, creds,
                                       [](Status) {});
    }),
                 Status::kOk);
  });
  const sim::Cycles t_kill = eng.now() + 50'000;
  topo.ApplyMachineSchedule({{'k', t_kill, topo.server_id(0)},
                             {'b', t_kill + 100'000, topo.server_id(0)}});
  eng.RunUntilIdle();

  ASSERT_NE(reborn, nullptr);
  ASSERT_EQ(reattach, Status::kOk);
  EXPECT_TRUE(reborn->recovered_after_crash());
  EXPECT_TRUE(reborn->IsQuarantined(kids[0]));
  EXPECT_FALSE(reborn->IsQuarantined(kids[1]));
  EXPECT_EQ(bad_read, Status::kCorrupted);  // refused at submit: never served
  ASSERT_EQ(good_read, Status::kOk);
  auto bytes = srv.mem().Data(good_frame);
  for (size_t i = 0; i < bytes.size(); ++i) {
    ASSERT_EQ(bytes[i], 0x42) << "byte " << i;
  }
  EXPECT_EQ(srv.counters().Get("fault.machine_kills"), 1u);
  EXPECT_EQ(srv.counters().Get("fault.machine_reboots"), 1u);
}

}  // namespace
}  // namespace exo
