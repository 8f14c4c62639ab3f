// Simulator hot-path performance harness (wall-clock, not simulated time).
//
// Every other bench in this directory reports *simulated* seconds; this one reports
// how fast the simulator itself chews through its hot loops, so engine/scheduler/
// disk-queue optimizations (and regressions) are visible. Eight workloads:
//
//   event_churn      raw sim::Engine schedule/cancel/fire churn shaped like the TCP
//                    timer pattern (arm, re-arm, cancel-after-fire)
//   trace_overhead   the event_churn loop with a tracer attached but disabled
//   predicate_storm  N blocked envs with downloaded wakeup predicates; a producer
//                    pokes one region at a time, so almost every predicate the
//                    scheduler could evaluate per decision is a waste
//   disk_deep_queue  thousands of queued requests exercising merge lookup and
//                    C-LOOK dispatch
//   global_fig4      Figure 4's 35-job, 5-concurrent Xok/ExOS cell (apps::Fig4Pool,
//                    every grep/wc/cksum answer checked): the end-to-end sanity
//                    number, whose sim_s is fig4's 35/5 Xok/ExOS total
//   fs_write         a 3-MB file written, gzipped, gunzipped and synced on C-FFS
//                    over XN: block allocation under owns-udf checks, and LZ
//   lz               gzip's LZ codec alone, round-tripping fig4's 2-MB text:
//                    compress and decompress MB/s
//   cluster_scale    an 8-machine balancer fleet on the parallel cluster engine at
//                    1, 2 and 4 threads: speedup and host time per round
//
// Results go to BENCH_simperf.json (--out FILE overrides), and
// `--check bench/simperf_baseline.json` gates them (bench::Report). See
// docs/PERFORMANCE.md for how to read the numbers.
#include <algorithm>
#include <cstring>
#include <deque>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include <thread>

#include "apps/lz.h"
#include "bench/global_common.h"
#include "cluster/topology.h"
#include "hw/disk.h"
#include "net/packet.h"
#include "sim/rng.h"
#include "udf/insn.h"
#include "xok/kernel.h"

namespace {

using namespace exo;
using bench::WallNow;

struct WorkloadResult {
  std::string name;
  uint64_t ops = 0;        // workload-defined unit (events, wakeups, requests, ...)
  double wall_s = 0;
  double sim_s = 0;        // simulated seconds the workload advanced
  uint64_t predicate_evals = 0;
  uint64_t predicate_skips = 0;
};

// ---- Workloads 1 and 1b: event churn, and trace overhead ----
//
// The TCP stack's timer pattern: every connection arms an RTO/ack timer, most are
// cancelled — often after an intervening event already fired them. The old engine
// kept every stale cancellation forever and scanned the list on each pop.
//
// With `disabled_tracer` the engine has a Tracer attached but never enabled
// (trace_overhead): every dispatch pays the instrumentation site's predicted branch
// and nothing else, so its ops/s should be within noise of event_churn's.
WorkloadResult EventChurn(uint64_t n, bool disabled_tracer) {
  sim::Engine eng;
  trace::Tracer tracer;
  if (disabled_tracer) {
    eng.set_tracer(&tracer, 0);
  }
  uint64_t fired = 0;
  std::deque<sim::Engine::EventId> armed;

  const double t0 = WallNow();
  for (uint64_t i = 0; i < n; ++i) {
    armed.push_back(eng.ScheduleAfter(20 + (i * 7) % 400, [&fired] { ++fired; }));
    if ((i & 7) < 6) {
      eng.RunNextEvent();
    }
    if (armed.size() >= 64) {
      // Cancel the oldest half: a mix of still-pending and long-fired ids.
      for (int k = 0; k < 32; ++k) {
        eng.Cancel(armed.front());
        armed.pop_front();
      }
    }
  }
  eng.RunUntilIdle();
  const double t1 = WallNow();
  EXO_CHECK_EQ(tracer.emitted(), 0u);  // disabled tracing stored nothing

  WorkloadResult r;
  r.name = disabled_tracer ? "trace_overhead" : "event_churn";
  r.ops = n + n / 2;  // schedules + cancels
  r.wall_s = t1 - t0;
  r.sim_s = eng.now_seconds();
  return r;
}

// ---- Workload 2: predicate storm ----

// Wake when the 32-bit little-endian word at window[0] equals `round`.
udf::Program EqProgram(uint32_t round) {
  using udf::Insn;
  using udf::Op;
  udf::Program p;
  p.push_back(Insn{Op::kLdi, 1, 0, 0, 0});
  p.push_back(Insn{Op::kLd4, 2, 1, udf::kBufMeta, 0});
  p.push_back(Insn{Op::kLdi, 3, 0, 0, static_cast<int32_t>(round)});
  p.push_back(Insn{Op::kCeq, 4, 2, 3, 0});
  p.push_back(Insn{Op::kRet, 0, 4, 0, 0});
  return p;
}

WorkloadResult PredicateStorm(uint32_t n_envs, uint32_t rounds) {
  sim::Engine eng;
  hw::MachineConfig cfg;
  cfg.mem_frames = 256;
  cfg.disks.clear();
  hw::Machine machine(&eng, cfg);
  xok::XokKernel kernel(&machine);

  std::vector<xok::RegionId> rids(n_envs);
  for (uint32_t i = 0; i < n_envs; ++i) {
    auto rid = kernel.SysRegionCreate(8, {}, xok::kCredAny);
    EXO_CHECK(rid.ok());
    rids[i] = *rid;
  }

  const uint64_t evals0 = machine.counters().Get("xok.predicate_evals");
  const uint64_t skips0 = machine.counters().Get("xok.predicate_skips");

  for (uint32_t i = 0; i < n_envs; ++i) {
    kernel.CreateEnv(xok::kInvalidEnv, {xok::Capability::Root()}, [&kernel, &rids, i,
                                                                   rounds] {
      for (uint32_t r = 1; r <= rounds; ++r) {
        xok::WakeupPredicate p;
        p.program = EqProgram(r);
        p.live_window = kernel.RegionBytes(rids[i]);
        p.watches.push_back(xok::WatchSpec{xok::WatchKind::kRegion, rids[i]});
        kernel.SysSleep(std::move(p));
      }
    });
  }
  kernel.CreateEnv(xok::kInvalidEnv, {xok::Capability::Root()}, [&kernel, &rids,
                                                                 n_envs, rounds] {
    for (uint32_t r = 1; r <= rounds; ++r) {
      for (uint32_t i = 0; i < n_envs; ++i) {
        uint8_t buf[4];
        std::memcpy(buf, &r, 4);
        EXO_CHECK_EQ(kernel.SysRegionWrite(rids[i], 0, buf, 0), Status::kOk);
        kernel.SysYield();
      }
    }
  });

  const double t0 = WallNow();
  kernel.Run();
  const double t1 = WallNow();

  WorkloadResult r;
  r.name = "predicate_storm";
  r.ops = static_cast<uint64_t>(n_envs) * rounds;  // wakeups delivered
  r.wall_s = t1 - t0;
  r.sim_s = eng.now_seconds();
  r.predicate_evals = machine.counters().Get("xok.predicate_evals") - evals0;
  r.predicate_skips = machine.counters().Get("xok.predicate_skips") - skips0;
  return r;
}

// ---- Workload 3: deep disk queues ----
WorkloadResult DiskDeepQueue(uint32_t bursts, uint32_t burst_size) {
  sim::Engine eng;
  hw::PhysMem mem(8);
  hw::DiskGeometry geom;
  geom.num_blocks = 1u << 16;
  hw::Disk disk(&eng, &mem, geom, 200);
  auto frame = mem.Alloc();
  EXO_CHECK(frame.ok());

  sim::Rng rng(7);
  uint64_t completed = 0;
  uint64_t submitted = 0;

  const double t0 = WallNow();
  for (uint32_t b = 0; b < bursts; ++b) {
    for (uint32_t j = 0; j < burst_size; ++j) {
      const hw::BlockId start = static_cast<hw::BlockId>(rng.Below(geom.num_blocks - 4));
      const bool write = (j & 1) != 0;
      disk.Submit({.write = write,
                   .start = start,
                   .nblocks = 1,
                   .frames = {*frame},
                   .done = [&completed](Status) { ++completed; }});
      ++submitted;
      if (j % 5 == 0) {
        // A contiguous follow-on: exercises the merge lookup.
        disk.Submit({.write = write,
                     .start = start + 1,
                     .nblocks = 1,
                     .frames = {*frame},
                     .done = [&completed](Status) { ++completed; }});
        ++submitted;
      }
    }
    eng.RunUntilIdle();
  }
  const double t1 = WallNow();
  EXO_CHECK_EQ(completed, submitted);

  WorkloadResult r;
  r.name = "disk_deep_queue";
  r.ops = submitted;
  r.wall_s = t1 - t0;
  r.sim_s = eng.now_seconds();
  return r;
}

// ---- Workload 5: cluster_scale — the parallel conservative engine ----
//
// An 8-machine Topology (front-end balancer, 3 servers, 4 clients), one shard
// per machine. Clients run a closed loop of raw request frames through the
// balancer; each request triggers a PHOLD-style local event chain on its
// server (kChainEvents events, 50 cycles apart) before the reply goes back.
// The chains are the parallelizable CPU meat: at a 20 us rack lookahead every
// server shard advances ~a chain per window independently.
//
// The workload runs at threads=1, at threads=2 (the repository benchmark's
// web_fleet thread count) and at threads=N, EXO_CHECKs the merged per-machine
// counters are byte-identical — the determinism contract — then reports
// wall-clock speedups and host time per round for each lane. ops counts server
// chain events (the dominant event population), so events_per_sec gates the
// serial lane exactly like the other workloads.

struct ClusterScaleRun {
  double wall_s = 0;
  double sim_s = 0;
  uint64_t ops = 0;
  uint64_t cross_messages = 0;
  uint64_t rounds = 0;
  std::string counters;  // merged dump: the equivalence witness
};

void ClusterChainStep(sim::Engine* eng, sim::Counters::Slot* work, uint32_t left,
                      hw::Nic* nic, hw::Packet reply) {
  ++*work;
  if (left == 0) {
    nic->Transmit(std::move(reply));
    return;
  }
  eng->ScheduleAfter(50, [eng, work, left, nic, reply = std::move(reply)]() mutable {
    ClusterChainStep(eng, work, left - 1, nic, std::move(reply));
  });
}

ClusterScaleRun RunClusterScaleOnce(uint32_t threads, uint32_t chain_events,
                                    sim::Cycles sim_cycles) {
  constexpr uint32_t kOutstanding = 32;  // closed-loop requests per client
  cluster::TopologyConfig tc;
  tc.servers = 3;
  tc.clients = 4;
  tc.front_end_lb = true;
  tc.threads = threads;
  tc.seed = 7;
  // Generous wire latencies widen the conservative window (the lookahead) so
  // each shard advances a meaty batch of chain events per round — the window
  // work must dwarf the barrier cost for parallelism to pay.
  tc.rack_latency_us = 100.0;
  tc.client_latency_us = 200.0;
  tc.lb_forward_cost = 100;
  tc.machine.mem_frames = 64;
  tc.machine.disks.clear();
  cluster::Topology topo(tc);

  for (uint32_t k = 0; k < tc.servers; ++k) {
    hw::Machine& srv = topo.server(k);
    sim::Engine* eng = &topo.engine_of(topo.server_id(k));
    auto* work = srv.counters().Handle("srv.chain_events");
    auto* rx = srv.counters().Handle("srv.rx");
    hw::Nic* nic = &srv.nic(0);
    nic->SetReceiveHandler([eng, work, rx, nic, chain_events](hw::Packet p) {
      ++*rx;
      // Echo becomes the reply once the chain drains: swap src/dst in place.
      for (int i = 0; i < 4; ++i) {
        std::swap(p.bytes[net::kOffSrcIp + i], p.bytes[net::kOffDstIp + i]);
      }
      std::swap(p.bytes[net::kOffSrcPort], p.bytes[net::kOffDstPort]);
      std::swap(p.bytes[net::kOffSrcPort + 1], p.bytes[net::kOffDstPort + 1]);
      ClusterChainStep(eng, work, chain_events, nic, std::move(p));
    });
  }
  for (uint32_t j = 0; j < tc.clients; ++j) {
    hw::Machine& cli = topo.client(j);
    auto* rx = cli.counters().Handle("cli.rx");
    hw::Nic* nic = &cli.nic(0);
    nic->SetReceiveHandler([rx, nic](hw::Packet p) {
      ++*rx;
      // Closed loop: the reply bounces straight back as the next request.
      for (int i = 0; i < 4; ++i) {
        std::swap(p.bytes[net::kOffSrcIp + i], p.bytes[net::kOffDstIp + i]);
      }
      std::swap(p.bytes[net::kOffSrcPort], p.bytes[net::kOffDstPort]);
      std::swap(p.bytes[net::kOffSrcPort + 1], p.bytes[net::kOffDstPort + 1]);
      nic->Transmit(std::move(p));
    });
    for (uint32_t o = 0; o < kOutstanding; ++o) {
      hw::Packet req;
      req.bytes.assign(64, 0);
      req.bytes[net::kOffProto] = net::kProtoUdp;
      const uint32_t src_ip = topo.client_ip(j);
      for (int i = 0; i < 4; ++i) {
        req.bytes[net::kOffSrcIp + i] = static_cast<uint8_t>(src_ip >> (8 * i));
        req.bytes[net::kOffDstIp + i] =
            static_cast<uint8_t>(cluster::Topology::kVip >> (8 * i));
      }
      const uint16_t port = static_cast<uint16_t>(3000 + j * 16 + o);
      req.bytes[net::kOffSrcPort] = static_cast<uint8_t>(port);
      req.bytes[net::kOffSrcPort + 1] = static_cast<uint8_t>(port >> 8);
      req.bytes[net::kOffDstPort] = 80;
      nic->Transmit(std::move(req));
    }
  }

  const double t0 = WallNow();
  topo.RunUntil(sim_cycles);
  const double t1 = WallNow();

  ClusterScaleRun r;
  r.wall_s = t1 - t0;
  r.sim_s = static_cast<double>(sim_cycles) / 200e6;
  for (uint32_t k = 0; k < tc.servers; ++k) {
    r.ops += topo.server(k).counters().Get("srv.chain_events");
  }
  r.cross_messages = topo.cluster().cross_messages();
  r.rounds = topo.cluster().rounds();
  r.counters = topo.MergedCountersDump();
  return r;
}

struct ClusterScaleResult {
  WorkloadResult serial;  // the threads=1 lane: gated like every workload
  double speedup = 0;     // t1 wall / tN wall
  double speedup_at_2 = 0;  // t1 wall / t2 wall
  uint32_t parallel_threads = 0;
  uint64_t cross_messages = 0;
  uint64_t rounds = 0;
  // (threads, host microseconds per round) for 1, 2 and, when N > 2, N.
  std::vector<std::pair<uint32_t, double>> host_us_per_round;
};

ClusterScaleResult ClusterScale() {
  const uint32_t chain = 64;
  const sim::Cycles sim_cycles = 20'000'000;  // 100 ms simulated
  const uint32_t hw_threads = std::max(1u, std::thread::hardware_concurrency());
  const uint32_t par = std::min(4u, hw_threads);

  ClusterScaleRun t1 = RunClusterScaleOnce(1, chain, sim_cycles);
  ClusterScaleRun t2 = RunClusterScaleOnce(2, chain, sim_cycles);
  ClusterScaleRun tn = par == 2 ? t2 : RunClusterScaleOnce(par, chain, sim_cycles);
  for (const ClusterScaleRun* lane : {&t2, &tn}) {
    EXO_CHECK_EQ(t1.ops, lane->ops);
    EXO_CHECK_EQ(t1.rounds, lane->rounds);
    EXO_CHECK(t1.counters == lane->counters);  // determinism contract, enforced
  }

  ClusterScaleResult r;
  r.serial.name = "cluster_scale";
  r.serial.ops = t1.ops;
  r.serial.wall_s = t1.wall_s;
  r.serial.sim_s = t1.sim_s;
  r.speedup = tn.wall_s > 0 ? t1.wall_s / tn.wall_s : 0;
  r.speedup_at_2 = t2.wall_s > 0 ? t1.wall_s / t2.wall_s : 0;
  r.parallel_threads = par;
  r.cross_messages = t1.cross_messages;
  r.rounds = t1.rounds;
  // Every lane runs the same rounds (checked above).
  const double rounds = static_cast<double>(std::max<uint64_t>(t1.rounds, 1));
  r.host_us_per_round = {{1, t1.wall_s * 1e6 / rounds}, {2, t2.wall_s * 1e6 / rounds}};
  if (par > 2) {
    r.host_us_per_round.emplace_back(par, tn.wall_s * 1e6 / rounds);
  }
  return r;
}

// ---- Workload 4: Figure 4's 35/5 Xok/ExOS cell ----
//
// fig4's pool, inputs and seed-11 schedule at 35 jobs, at most 5 at once: sim_s
// is that cell's Xok/ExOS total, and ops counts jobs.
WorkloadResult GlobalFig4() {
  constexpr int kJobs = 35;
  const apps::SharedInputSpecs inputs = apps::Fig4Inputs();
  const std::vector<apps::Job> pool = apps::Fig4Pool(inputs);

  const double t0 = WallNow();
  const bench::GlobalResult g =
      bench::RunGlobal(os::Flavor::kXokExos, pool, inputs, kJobs, 5, 11);
  const double t1 = WallNow();

  WorkloadResult r;
  r.name = "global_fig4";
  r.ops = kJobs;
  r.wall_s = t1 - t0;
  r.sim_s = g.total;
  return r;
}

// ---- Workload 6: fs_write — the file-system write path ----
//
// One Xok/ExOS system writes a `kb`-KB source file in kIoChunk writes, gzips it,
// gunzips it, checks the round trip and syncs. Each batch of blocks a file
// grows by runs the owning metadata block's owns-udf twice in XN's
// before/after check in Alloc, then once per block in InsertMapping, and gzip
// runs the LZ match table. ops is the file size in KB. XN's udf runs and its
// owns-udf memo hits are deterministic counts, the same on every host.
struct FsWriteResult {
  WorkloadResult lane;
  uint64_t udf_runs = 0;        // XN's owns-udf and acl-uf runs, memo hits included
  uint64_t owns_memo_hits = 0;  // owns-udf runs XN answered from its memo
};

FsWriteResult FsWrite(uint32_t kb) {
  sim::Engine engine;
  hw::Machine machine(&engine, bench::PaperMachine(256));
  os::System sys(&machine, os::Flavor::kXokExos);
  EXO_CHECK_EQ(sys.Boot(), Status::kOk);
  const std::vector<uint8_t> content =
      apps::FileContent({.path = "fs_write", .size = kb * 1024, .seed = 5});

  double t0 = 0;
  double t1 = 0;
  sim::Cycles sim0 = 0;
  sim::Cycles sim1 = 0;
  xn::XnStats xn0;
  xn::XnStats xn1;
  sys.SpawnInit("sh", [&](os::UnixEnv& env) {
    t0 = WallNow();
    sim0 = env.Now();
    xn0 = sys.xn()->stats();
    auto fd = env.Open("/f.txt", /*create=*/true);
    EXO_CHECK(fd.ok());
    const std::span<const uint8_t> data(content);
    for (size_t off = 0; off < data.size(); off += apps::kIoChunk) {
      const size_t n = std::min(apps::kIoChunk, data.size() - off);
      EXO_CHECK(env.Write(*fd, data.subspan(off, n)).ok());
    }
    EXO_CHECK_EQ(env.Close(*fd), Status::kOk);
    EXO_CHECK_EQ(apps::Gzip(env, "/f.txt", "/f.gz"), Status::kOk);
    EXO_CHECK_EQ(apps::Gunzip(env, "/f.gz", "/f.out"), Status::kOk);
    const Result<int> diff = apps::DiffFile(env, "/f.txt", "/f.out");
    EXO_CHECK(diff.ok() && *diff == 0);
    EXO_CHECK_EQ(env.Sync(), Status::kOk);
    xn1 = sys.xn()->stats();
    sim1 = env.Now();
    t1 = WallNow();
  });
  sys.Run();

  FsWriteResult r;
  r.lane.name = "fs_write";
  r.lane.ops = kb;
  r.lane.wall_s = t1 - t0;
  r.lane.sim_s = bench::Secs(sim1 - sim0);
  r.udf_runs = xn1.udf_runs - xn0.udf_runs;
  r.owns_memo_hits = xn1.owns_memo_hits - xn0.owns_memo_hits;
  return r;
}

// ---- Workload 7: lz — gzip's codec on fig4's 2-MB text ----
//
// Compresses fig4's shared 2-MB text and decompresses the result, kRounds
// times, checking every round trip. Host time only: gzip and gunzip charge a
// fixed number of simulated cycles per byte, whatever the codec costs.
struct LzResult {
  uint64_t rounds = 0;
  double compress_mb_per_s = 0;
  double decompress_mb_per_s = 0;
};

LzResult Lz() {
  constexpr int kRounds = 10;
  const std::vector<uint8_t> text = apps::FileContent(apps::Fig4Inputs().big);
  double compress_s = 0;
  double decompress_s = 0;
  for (int round = 0; round < kRounds; ++round) {
    const double t0 = WallNow();
    const std::vector<uint8_t> packed = apps::LzCompress(text);
    const double t1 = WallNow();
    bool ok = false;
    const std::vector<uint8_t> back = apps::LzDecompress(packed, &ok);
    const double t2 = WallNow();
    EXO_CHECK(ok && back == text);
    compress_s += t1 - t0;
    decompress_s += t2 - t1;
  }
  const double mb = kRounds * static_cast<double>(text.size()) / 1e6;
  return {kRounds, mb / compress_s, mb / decompress_s};
}

// Prints one workload's row and adds its metrics to the report.
void Record(const WorkloadResult& r, bench::Report* report) {
  const double per_sec = static_cast<double>(r.ops) / r.wall_s;
  std::printf("%-18s %12llu ops %9.3f s wall %12.0f ops/s %10.3f sim-s %8.2f sim-s/wall-s\n",
              r.name.c_str(), static_cast<unsigned long long>(r.ops), r.wall_s, per_sec,
              r.sim_s, r.sim_s / r.wall_s);
  if (r.predicate_evals + r.predicate_skips > 0) {
    std::printf("%-18s %12s evals=%llu skips=%llu\n", "", "",
                static_cast<unsigned long long>(r.predicate_evals),
                static_cast<unsigned long long>(r.predicate_skips));
  }
  const std::string row = r.name + ".";
  report->Add(row + "ops", r.ops);
  report->Add(row + "wall_s", r.wall_s);
  report->Add(row + "events_per_sec", per_sec);
  report->Add(row + "sim_s", r.sim_s);
  report->Add(row + "sim_s_per_wall_s", r.sim_s / r.wall_s);
  report->Add(row + "predicate_evals", r.predicate_evals);
  report->Add(row + "predicate_skips", r.predicate_skips);
}

}  // namespace

int main(int argc, char** argv) {
  bench::Report report("simperf", argc, argv);
  const uint32_t hw_threads = std::thread::hardware_concurrency();
  report.Add("hw_threads", hw_threads);

  bench::PrintHeader("simperf: simulator hot-path wall-clock throughput");
  std::printf("\n");
  Record(EventChurn(150000, /*disabled_tracer=*/false), &report);
  Record(EventChurn(150000, /*disabled_tracer=*/true), &report);
  Record(PredicateStorm(1000, 10), &report);
  Record(DiskDeepQueue(8, 3000), &report);
  Record(GlobalFig4(), &report);
  const FsWriteResult fw = FsWrite(3072);
  Record(fw.lane, &report);
  std::printf("%-18s %12s udf_runs=%llu owns_memo_hits=%llu\n", "", "",
              static_cast<unsigned long long>(fw.udf_runs),
              static_cast<unsigned long long>(fw.owns_memo_hits));
  report.Add("fs_write.udf_runs", fw.udf_runs);
  report.Add("fs_write.owns_memo_hits", fw.owns_memo_hits);
  const LzResult lz = Lz();
  std::printf("%-18s %12llu round trips %9.1f MB/s compress %9.1f MB/s decompress\n", "lz",
              static_cast<unsigned long long>(lz.rounds), lz.compress_mb_per_s,
              lz.decompress_mb_per_s);
  report.Add("lz.rounds", lz.rounds);
  report.Add("lz.compress_mb_per_s", lz.compress_mb_per_s);
  report.Add("lz.decompress_mb_per_s", lz.decompress_mb_per_s);
  const ClusterScaleResult cs = ClusterScale();
  Record(cs.serial, &report);
  std::printf("%-18s %12s threads=%u speedup=%.2fx speedup_at_2=%.2fx rounds=%llu "
              "cross_msgs=%llu hw_threads=%u\n",
              "", "", cs.parallel_threads, cs.speedup, cs.speedup_at_2,
              static_cast<unsigned long long>(cs.rounds),
              static_cast<unsigned long long>(cs.cross_messages), hw_threads);
  report.Add("cluster_scale.rounds", cs.rounds);
  report.Add("cluster_scale.cross_messages", cs.cross_messages);
  report.Add("cluster_scale.speedup_at_2", cs.speedup_at_2);
  if (cs.parallel_threads == 4) {
    report.Add("cluster_scale.speedup_at_4", cs.speedup);
  } else {
    report.Skip("cluster_scale.speedup_at_4", "fewer than 4 hardware threads");
  }
  std::printf("%-18s %12s host_us_per_round:", "", "");
  for (const auto& [threads, us] : cs.host_us_per_round) {
    std::printf(" threads=%u %.2f", threads, us);
    std::string name = "cluster_scale.host_us_per_round.";
    name += std::to_string(threads);
    report.Add(std::move(name), us);
  }
  std::printf("\n");
  return report.Finish();
}
