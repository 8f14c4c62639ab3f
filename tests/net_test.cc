// Tests for the network stack: packet codecs, TCP handshake/data/close/retransmit,
// Cheetah's zero-copy + precomputed-checksum + ACK-piggybacking options, and the
// XIO document store and response cache.
#include <gtest/gtest.h>

#include <memory>

#include "apps/http.h"
#include "net/packet.h"
#include "net/tcp.h"
#include "net/xio.h"
#include "sim/cpu_meter.h"
#include "sim/engine.h"

namespace exo::net {
namespace {

class NetTest : public ::testing::Test {
 protected:
  NetTest()
      : link_(&engine_, 100.0, 30.0, 200),
        nic_a_(0),
        nic_b_(1),
        cpu_a_(&engine_),
        cpu_b_(&engine_) {
    link_.Connect(&nic_a_, &nic_b_);
    cost_ = sim::CostModel::PentiumPro200();
  }

  std::unique_ptr<TcpStack> MakeStack(hw::Nic* nic, sim::CpuMeter* cpu, IpAddr ip,
                                      TcpProfile profile) {
    TcpStack::Hooks hooks;
    hooks.engine = &engine_;
    hooks.cost = &cost_;
    hooks.cpu = cpu;
    hooks.transmit = [this, nic](hw::Packet p, sim::Cycles when) {
      sim::Cycles at = std::max(when, engine_.now());
      engine_.ScheduleAt(at, [nic, p = std::move(p)]() mutable {
        if (drop_next_ > 0 && p.bytes.size() > kIpHeaderBytes + kTcpHeaderBytes) {
          --drop_next_;
          return;  // simulated loss of a data segment
        }
        nic->Transmit(std::move(p));
      });
    };
    auto stack = std::make_unique<TcpStack>(hooks, ip, profile);
    TcpStack* raw = stack.get();
    nic->SetReceiveHandler([raw](hw::Packet p) { raw->Input(p); });
    return stack;
  }

  void Run() { engine_.RunUntilIdle(); }

  sim::Engine engine_;
  hw::Link link_;
  hw::Nic nic_a_;
  hw::Nic nic_b_;
  sim::CpuMeter cpu_a_;
  sim::CpuMeter cpu_b_;
  sim::CostModel cost_;
  static int drop_next_;
};

int NetTest::drop_next_ = 0;

TEST(PacketTest, TcpCodecRoundTrips) {
  TcpSegment s;
  s.src_ip = 0x0a000001;
  s.dst_ip = 0x0a000002;
  s.src_port = 1234;
  s.dst_port = 80;
  s.seq = 777;
  s.ack = 888;
  s.flags = kFlagPsh | kFlagAck;
  s.window = 4096;
  s.payload = {1, 2, 3, 4, 5};
  s.checksum = Checksum(s.payload);
  auto p = EncodeTcp(s);
  auto d = DecodeTcp(p);
  ASSERT_TRUE(d.has_value());
  EXPECT_EQ(d->src_ip, s.src_ip);
  EXPECT_EQ(d->dst_port, s.dst_port);
  EXPECT_EQ(d->seq, s.seq);
  EXPECT_EQ(d->ack, s.ack);
  EXPECT_EQ(d->flags, s.flags);
  EXPECT_EQ(d->payload, s.payload);
  EXPECT_EQ(d->checksum, Checksum(d->payload));
}

TEST(PacketTest, DecodeRejectsWrongProtoAndShortFrames) {
  EXPECT_FALSE(DecodeTcp(hw::Packet{.bytes = {1, 2, 3}}).has_value());
  // Long enough for a TCP header, but the protocol byte says UDP.
  hw::Packet udp;
  udp.bytes.assign(kIpHeaderBytes + kTcpHeaderBytes + 4, 0);
  udp.bytes[kOffProto] = kProtoUdp;
  EXPECT_FALSE(DecodeTcp(udp).has_value());
}

TEST(PacketTest, ChecksumDetectsCorruption) {
  std::vector<uint8_t> data(1000, 7);
  uint32_t sum = Checksum(data);
  data[500] ^= 0xff;
  EXPECT_NE(Checksum(data), sum);
}

TEST_F(NetTest, HandshakeAndEcho) {
  auto server = MakeStack(&nic_b_, &cpu_b_, 2, XokSocketProfile());
  auto client = MakeStack(&nic_a_, nullptr, 1, ClientProfile());

  std::vector<uint8_t> server_got;
  std::vector<uint8_t> client_got;
  ASSERT_EQ(server->Listen(80, [&](TcpConn* c) {
    c->set_on_data([&](TcpConn* conn, std::span<const uint8_t> data) {
      server_got.assign(data.begin(), data.end());
      conn->Send(std::vector<uint8_t>{'p', 'o', 'n', 'g'});
    });
  }), Status::kOk);

  client->Connect(2, 80, [&](TcpConn* c) {
    c->set_on_data([&](TcpConn*, std::span<const uint8_t> data) {
      client_got.assign(data.begin(), data.end());
    });
    c->Send(std::vector<uint8_t>{'p', 'i', 'n', 'g'});
  });
  Run();
  EXPECT_EQ(server_got, (std::vector<uint8_t>{'p', 'i', 'n', 'g'}));
  EXPECT_EQ(client_got, (std::vector<uint8_t>{'p', 'o', 'n', 'g'}));
}

TEST_F(NetTest, LargeTransferSegmentsAndWindowing) {
  auto server = MakeStack(&nic_b_, &cpu_b_, 2, XokSocketProfile());
  auto client = MakeStack(&nic_a_, nullptr, 1, ClientProfile());

  std::vector<uint8_t> blob(300 * 1024);
  for (size_t i = 0; i < blob.size(); ++i) {
    blob[i] = static_cast<uint8_t>(i * 13);
  }
  std::vector<uint8_t> got;
  bool done = false;
  ASSERT_EQ(server->Listen(80, [&](TcpConn* c) {
    c->set_on_send_complete([&](TcpConn*) { done = true; });
    c->Send(blob);
  }), Status::kOk);
  client->Connect(2, 80, [&](TcpConn* c) {
    c->set_on_data([&](TcpConn*, std::span<const uint8_t> data) {
      got.insert(got.end(), data.begin(), data.end());
    });
  });
  Run();
  EXPECT_TRUE(done);
  EXPECT_EQ(got, blob);
  EXPECT_GE(server->stats().segments_out, blob.size() / kMss);
  // Wire time floor: 300 KB at 100 Mbit/s is ~24.6 ms.
  EXPECT_GE(engine_.now(), cost_.FromMicros(24'000));
}

TEST_F(NetTest, RetransmitRecoversFromLoss) {
  auto server = MakeStack(&nic_b_, &cpu_b_, 2, XokSocketProfile());
  auto client = MakeStack(&nic_a_, nullptr, 1, ClientProfile());

  std::vector<uint8_t> got;
  ASSERT_EQ(server->Listen(80, [&](TcpConn* c) {
    c->set_on_data([&](TcpConn*, std::span<const uint8_t> d) {
      got.insert(got.end(), d.begin(), d.end());
    });
  }), Status::kOk);
  client->Connect(2, 80, [&](TcpConn* c) {
    drop_next_ = 1;  // the first data segment vanishes on the wire
    c->Send(std::vector<uint8_t>(100, 0x42));
  });
  Run();
  ASSERT_EQ(got.size(), 100u);
  EXPECT_EQ(got[0], 0x42);
  EXPECT_GE(client->stats().retransmits, 1u);
}

TEST_F(NetTest, ByteExactTransferUnderInjectedLossAndCorruption) {
  // 5% drop + 3% corruption + 2% duplication on the wire; the transfer must still
  // be byte-exact, with retransmission doing the recovery and the payload checksum
  // catching every corrupted segment.
  sim::FaultInjector faults({.seed = 20260807,
                             .net_drop_rate = 0.05,
                             .net_corrupt_rate = 0.03,
                             .net_duplicate_rate = 0.02,
                             .net_corrupt_min_offset = kIpHeaderBytes + kTcpHeaderBytes});
  link_.SetFaultInjector(&faults);

  auto server = MakeStack(&nic_b_, &cpu_b_, 2, XokSocketProfile());
  // The receiver must run a checksum-verifying profile (ClientProfile models a
  // cost-free load generator that skips rx verification and would accept damage).
  auto client = MakeStack(&nic_a_, &cpu_a_, 1, XokSocketProfile());

  std::vector<uint8_t> blob(150 * 1024);
  for (size_t i = 0; i < blob.size(); ++i) {
    blob[i] = static_cast<uint8_t>(i * 31 + (i >> 8));
  }
  std::vector<uint8_t> got;
  ASSERT_EQ(server->Listen(80, [&](TcpConn* c) { c->Send(blob); }), Status::kOk);
  client->Connect(2, 80, [&](TcpConn* c) {
    c->set_on_data([&](TcpConn*, std::span<const uint8_t> d) {
      got.insert(got.end(), d.begin(), d.end());
    });
  });
  Run();

  EXPECT_EQ(got.size(), blob.size());
  EXPECT_EQ(got, blob);
  EXPECT_GT(server->stats().retransmits, 0u);
  EXPECT_GT(faults.stats().net_drops, 0u);
  EXPECT_GT(faults.stats().net_corruptions, 0u);
  EXPECT_GT(client->stats().checksum_drops, 0u);
}

TEST_F(NetTest, ByteExactBothDirectionsUnderTenPercentLoss) {
  sim::FaultInjector faults({.seed = 5, .net_drop_rate = 0.10});
  link_.SetFaultInjector(&faults);

  auto server = MakeStack(&nic_b_, &cpu_b_, 2, XokSocketProfile());
  auto client = MakeStack(&nic_a_, nullptr, 1, ClientProfile());

  std::vector<uint8_t> up(40 * 1024);
  std::vector<uint8_t> down(40 * 1024);
  for (size_t i = 0; i < up.size(); ++i) {
    up[i] = static_cast<uint8_t>(i * 7);
    down[i] = static_cast<uint8_t>(i * 11 + 3);
  }
  std::vector<uint8_t> server_got;
  std::vector<uint8_t> client_got;
  ASSERT_EQ(server->Listen(80, [&](TcpConn* c) {
    c->set_on_data([&](TcpConn*, std::span<const uint8_t> d) {
      server_got.insert(server_got.end(), d.begin(), d.end());
    });
    c->Send(down);
  }), Status::kOk);
  client->Connect(2, 80, [&](TcpConn* c) {
    c->set_on_data([&](TcpConn*, std::span<const uint8_t> d) {
      client_got.insert(client_got.end(), d.begin(), d.end());
    });
    c->Send(up);
  });
  Run();

  EXPECT_EQ(server_got, up);
  EXPECT_EQ(client_got, down);
  EXPECT_GT(faults.stats().net_drops, 0u);
  EXPECT_GT(client->stats().retransmits + server->stats().retransmits, 0u);
}

TEST_F(NetTest, HandshakeSurvivesSynAndSynAckLoss) {
  // Drop the first two frames on the wire: the client's SYN, then the server's
  // SYN|ACK from the retried handshake. Both sides must retransmit their half.
  int frames_sent = 0;
  auto mk = [&](hw::Nic* nic, IpAddr ip, TcpProfile prof) {
    TcpStack::Hooks hooks;
    hooks.engine = &engine_;
    hooks.cost = &cost_;
    hooks.cpu = nullptr;
    hooks.transmit = [this, nic, &frames_sent](hw::Packet p, sim::Cycles when) {
      engine_.ScheduleAt(std::max(when, engine_.now()),
                         [this, nic, &frames_sent, p = std::move(p)]() mutable {
        if (++frames_sent <= 2) {
          return;  // SYN lost, then SYN|ACK lost
        }
        nic->Transmit(std::move(p));
      });
    };
    auto stack = std::make_unique<TcpStack>(hooks, ip, prof);
    TcpStack* raw = stack.get();
    nic->SetReceiveHandler([raw](hw::Packet p) { raw->Input(p); });
    return stack;
  };
  auto server = mk(&nic_b_, 2, XokSocketProfile());
  auto client = mk(&nic_a_, 1, ClientProfile());

  std::vector<uint8_t> got;
  ASSERT_EQ(server->Listen(80, [&](TcpConn* c) {
    c->set_on_data([&](TcpConn*, std::span<const uint8_t> d) {
      got.insert(got.end(), d.begin(), d.end());
    });
  }), Status::kOk);
  bool established = false;
  client->Connect(2, 80, [&](TcpConn* c) {
    established = true;
    c->Send(std::vector<uint8_t>(64, 0x5c));
  });
  Run();

  EXPECT_TRUE(established);
  ASSERT_EQ(got.size(), 64u);
  EXPECT_EQ(got[0], 0x5c);
  EXPECT_GE(client->stats().retransmits + server->stats().retransmits, 2u);
}

TEST_F(NetTest, CloseHandshakeReachesBothSides) {
  auto server = MakeStack(&nic_b_, &cpu_b_, 2, XokSocketProfile());
  auto client = MakeStack(&nic_a_, nullptr, 1, ClientProfile());
  bool server_closed = false;
  bool client_closed = false;
  ASSERT_EQ(server->Listen(80, [&](TcpConn* c) {
    c->set_on_close([&](TcpConn* conn) {
      server_closed = true;
      conn->Close();  // passive close
    });
  }), Status::kOk);
  client->Connect(2, 80, [&](TcpConn* c) {
    c->set_on_close([&](TcpConn*) { client_closed = true; });
    c->Send(std::vector<uint8_t>(10, 1));
    c->Close();
  });
  Run();
  EXPECT_TRUE(server_closed);
  EXPECT_TRUE(client_closed);
}

TEST_F(NetTest, PiggybackedAcksReducePurePackets) {
  // Request/response workload: the piggyback profile should emit fewer pure ACKs.
  auto run = [&](TcpProfile profile) {
    sim::Engine engine;
    hw::Link link(&engine, 100.0, 30.0, 200);
    hw::Nic na(0);
    hw::Nic nb(1);
    link.Connect(&na, &nb);
    sim::CpuMeter cpu(&engine);
    sim::CostModel cost = sim::CostModel::PentiumPro200();

    auto mk = [&](hw::Nic* nic, sim::CpuMeter* meter, IpAddr ip, TcpProfile prof) {
      TcpStack::Hooks hooks;
      hooks.engine = &engine;
      hooks.cost = &cost;
      hooks.cpu = meter;
      hooks.transmit = [&engine, nic](hw::Packet p, sim::Cycles when) {
        engine.ScheduleAt(std::max(when, engine.now()),
                          [nic, p = std::move(p)]() mutable { nic->Transmit(std::move(p)); });
      };
      return std::make_unique<TcpStack>(hooks, ip, prof);
    };
    auto server = mk(&nb, &cpu, 2, profile);
    auto client = mk(&na, nullptr, 1, ClientProfile());
    nb.SetReceiveHandler([&](hw::Packet p) { server->Input(p); });
    na.SetReceiveHandler([&](hw::Packet p) { client->Input(p); });

    int responses = 0;
    EXPECT_EQ(server->Listen(80, [&](TcpConn* c) {
      c->set_on_data([&](TcpConn* conn, std::span<const uint8_t>) {
        conn->Send(std::vector<uint8_t>(200, 0));  // response piggybacks the ACK
      });
    }), Status::kOk);
    client->Connect(2, 80, [&](TcpConn* c) {
      c->set_on_data([&, n = 0](TcpConn* conn, std::span<const uint8_t>) mutable {
        ++responses;
        if (++n < 20) {
          conn->Send(std::vector<uint8_t>(100, 0));
        }
      });
      c->Send(std::vector<uint8_t>(100, 0));
    });
    engine.RunUntilIdle();
    EXPECT_EQ(responses, 20);
    return server->stats();
  };

  TcpStats merged = run(CheetahProfile());
  TcpStats plain = run(BsdSocketProfile());
  EXPECT_LT(merged.pure_acks_out, plain.pure_acks_out);
  EXPECT_GT(merged.piggybacked_acks, 10u);
}

TEST_F(NetTest, ZeroCopyProfileUsesLessCpu) {
  const auto blob = std::make_shared<const std::vector<uint8_t>>(200 * 1024, 0x77);
  auto run = [&](TcpProfile profile, std::span<const uint32_t> sums) {
    sim::Engine engine;
    hw::Link link(&engine, 100.0, 30.0, 200);
    hw::Nic na(0);
    hw::Nic nb(1);
    link.Connect(&na, &nb);
    sim::CpuMeter cpu(&engine);
    sim::CostModel cost = sim::CostModel::PentiumPro200();
    auto mk = [&](hw::Nic* nic, sim::CpuMeter* meter, IpAddr ip, TcpProfile prof) {
      TcpStack::Hooks hooks;
      hooks.engine = &engine;
      hooks.cost = &cost;
      hooks.cpu = meter;
      hooks.transmit = [&engine, nic](hw::Packet p, sim::Cycles when) {
        engine.ScheduleAt(std::max(when, engine.now()),
                          [nic, p = std::move(p)]() mutable { nic->Transmit(std::move(p)); });
      };
      return std::make_unique<TcpStack>(hooks, ip, prof);
    };
    auto server = mk(&nb, &cpu, 2, profile);
    auto client = mk(&na, nullptr, 1, ClientProfile());
    nb.SetReceiveHandler([&](hw::Packet p) { server->Input(p); });
    na.SetReceiveHandler([&](hw::Packet p) { client->Input(p); });
    size_t received = 0;
    EXPECT_EQ(server->Listen(80, [&](TcpConn* c) {
      c->Send(PinnedBytes{blob, *blob, sums});  // every profile references the blob
    }), Status::kOk);
    client->Connect(2, 80, [&](TcpConn* c) {
      c->set_on_data([&](TcpConn*, std::span<const uint8_t> d) { received += d.size(); });
    });
    engine.RunUntilIdle();
    EXPECT_EQ(received, blob->size());
    return cpu.total_busy();
  };

  // Precompute checksums as Cheetah stores them with the file.
  std::vector<uint32_t> sums;
  for (size_t off = 0; off < blob->size(); off += kMss) {
    sums.push_back(Checksum(std::span<const uint8_t>(*blob).subspan(
        off, std::min<size_t>(kMss, blob->size() - off))));
  }
  sim::Cycles cheetah = run(CheetahProfile(), sums);
  sim::Cycles socket = run(XokSocketProfile(), {});
  sim::Cycles bsd = run(BsdSocketProfile(), {});
  EXPECT_LT(cheetah * 2, socket);  // no copy, no checksum
  EXPECT_LT(socket, bsd);          // fewer copies, cheaper crossings
}

// Cheetah's retransmission pool is the file cache, so a retransmission must
// resend the bytes first sent even after the caller's temporary header is
// gone, the heap has reused its memory, and the document has been rewritten:
// the stack owns what it copied and pins what it references.
TEST_F(NetTest, ZeroCopyRetransmissionResendsTheBytesFirstSent) {
  auto server = MakeStack(&nic_b_, &cpu_b_, 2, CheetahProfile());
  auto client = MakeStack(&nic_a_, nullptr, 1, ClientProfile());
  DocumentStore store(&cost_);
  std::vector<uint8_t> doc(600);
  for (size_t i = 0; i < doc.size(); ++i) {
    doc[i] = static_cast<uint8_t>(i * 7 + 1);
  }
  store.Put("doc", doc);
  const std::vector<uint8_t> header(40, 'H');

  std::vector<uint8_t> scratch;
  ASSERT_EQ(server->Listen(80, [&](TcpConn* c) {
    drop_next_ = 2;  // the header and body segments both vanish on the wire
    c->Send(std::vector<uint8_t>(header));  // a temporary, freed on return
    std::shared_ptr<const DocumentStore::Doc> pin = store.Pin("doc");
    c->Send(PinnedBytes{pin, pin->bytes, pin->checksums});
    // Before the RTO fires: rewrite the document and reuse the freed memory.
    store.Put("doc", std::vector<uint8_t>(doc.size(), 0xee));
    scratch.assign(header.size(), 0xff);
  }), Status::kOk);
  std::vector<uint8_t> got;
  client->Connect(2, 80, [&](TcpConn* c) {
    c->set_on_data([&](TcpConn*, std::span<const uint8_t> d) {
      got.insert(got.end(), d.begin(), d.end());
    });
  });
  Run();

  std::vector<uint8_t> want = header;
  want.insert(want.end(), doc.begin(), doc.end());
  EXPECT_EQ(got, want);
  EXPECT_GE(server->stats().retransmits, 2u);
  EXPECT_EQ(drop_next_, 0);
}

TEST_F(NetTest, PcbReuseCountsAndCharges) {
  auto server = MakeStack(&nic_b_, &cpu_b_, 2, XokSocketProfile());
  auto client = MakeStack(&nic_a_, nullptr, 1, ClientProfile());
  int closed = 0;
  ASSERT_EQ(server->Listen(80, [&](TcpConn* c) {
    c->set_on_close([&, s = server.get()](TcpConn* conn) {
      conn->Close();
      ++closed;
    });
  }), Status::kOk);

  for (int i = 0; i < 5; ++i) {
    client->Connect(2, 80, [&](TcpConn* c) {
      c->Send(std::vector<uint8_t>(10, 1));
      c->Close();
    });
    Run();
    // Release server-side conns that reached Closed.
  }
  EXPECT_EQ(closed, 5);
}

// Transmit times for a connection whose every frame is black-holed: the initial
// SYN plus one retransmission per backoff step until max_retransmits aborts it.
std::vector<sim::Cycles> RetransmitSchedule(uint64_t jitter_seed,
                                            TcpStats* stats_out = nullptr) {
  sim::Engine engine;
  sim::CostModel cost = sim::CostModel::PentiumPro200();
  std::vector<sim::Cycles> times;
  TcpStack::Hooks hooks;
  hooks.engine = &engine;
  hooks.cost = &cost;
  hooks.transmit = [&](hw::Packet, sim::Cycles when) { times.push_back(when); };
  TcpProfile p = ClientProfile();
  p.rto_jitter_seed = jitter_seed;
  p.max_retransmits = 6;
  TcpStack stack(hooks, /*ip=*/1, p);
  stack.Connect(2, 80, [](TcpConn*) {});
  engine.RunUntilIdle();
  if (stats_out != nullptr) {
    *stats_out = stack.stats();
  }
  return times;
}

TEST(PacketTest, ChecksumCombineMatchesConcatenationForEvenPrefix) {
  std::vector<uint8_t> header = {'H', 'T', 'T', 'P', '/', '1', '.', '1', ' ', '\n'};
  ASSERT_EQ(header.size() % 2, 0u);
  std::vector<uint8_t> body(3000);
  for (size_t i = 0; i < body.size(); ++i) {
    body[i] = static_cast<uint8_t>(i * 131 + 7);
  }
  std::vector<uint8_t> both = header;
  both.insert(both.end(), body.begin(), body.end());
  EXPECT_EQ(ChecksumCombine(Checksum(header), Checksum(body)), Checksum(both));
  // An odd-length prefix shifts the 16-bit word framing of everything after
  // it, so the identity does not hold — that is why prepared headers are
  // padded to even length before their checksum is stored.
  std::vector<uint8_t> odd = {1};
  std::vector<uint8_t> odd_both = odd;
  odd_both.insert(odd_both.end(), body.begin(), body.end());
  EXPECT_NE(ChecksumCombine(Checksum(odd), Checksum(body)), Checksum(odd_both));
}

TEST(DocumentStoreTest, ChecksumsAtWriteTimeAndGenerationOnMutation) {
  sim::CostModel cost = sim::CostModel::PentiumPro200();
  sim::Cycles charged = 0;
  DocumentStore store(&cost, [&](sim::Cycles c) { charged += c; });

  const std::vector<uint8_t> first(kMss + 100, 7);
  const DocumentStore::Doc* d = store.Put("f", first);
  ASSERT_NE(d, nullptr);
  EXPECT_EQ(store.Find("f"), d);
  EXPECT_GT(charged, 0u);  // checksum cost lands at write time, not serve time
  ASSERT_EQ(d->checksums.size(), 2u);
  std::span<const uint8_t> bytes = d->bytes;
  EXPECT_EQ(d->checksums[0], Checksum(bytes.subspan(0, kMss)));
  EXPECT_EQ(d->checksums[1], Checksum(bytes.subspan(kMss)));

  // Rewrite: a new version with fresh checksums, charged again. A pin taken
  // before the rewrite still reads the old bytes and sums.
  std::shared_ptr<const DocumentStore::Doc> pin = store.Pin("f");
  EXPECT_EQ(pin.get(), d);
  const sim::Cycles charged_first = charged;
  const DocumentStore::Doc* d2 = store.Put("f", std::vector<uint8_t>(50, 9));
  EXPECT_NE(d2, pin.get());
  EXPECT_EQ(store.Find("f"), d2);
  EXPECT_EQ(store.Pin("f").get(), d2);
  EXPECT_GT(charged, charged_first);
  ASSERT_EQ(d2->checksums.size(), 1u);
  EXPECT_EQ(d2->checksums[0], Checksum(std::span<const uint8_t>(d2->bytes)));
  EXPECT_EQ(pin->bytes, first);
  ASSERT_EQ(pin->checksums.size(), 2u);
  EXPECT_EQ(pin->checksums[1], Checksum(std::span<const uint8_t>(first).subspan(kMss)));

  EXPECT_EQ(store.Find("missing"), nullptr);
  EXPECT_EQ(store.Pin("missing"), nullptr);
}

TEST(HttpResponseCacheTest, LruEvictsAndGenerationMismatchDropsEntry) {
  sim::CostModel cost = sim::CostModel::PentiumPro200();
  DocumentStore store(&cost);
  store.Put("a", std::vector<uint8_t>(100, 1));
  store.Put("b", std::vector<uint8_t>(100, 2));

  HttpResponseCache cache(2);
  auto entry = [&store](const std::string& doc) {
    HttpResponseCache::Entry e;
    e.header = {'O', 'K'};
    e.header_checksum = Checksum(std::span<const uint8_t>(e.header));
    e.doc = store.Pin(doc);
    return e;
  };
  cache.Put("a", entry("a"));
  cache.Put("b", entry("b"));
  EXPECT_NE(cache.Get("a", store.Find("a")), nullptr);  // "a" is now most recent
  cache.Put("c", entry("b"));  // capacity 2: evicts "b", the LRU
  EXPECT_EQ(cache.evictions(), 1u);
  EXPECT_EQ(cache.Get("b", store.Find("b")), nullptr);
  EXPECT_NE(cache.Get("a", store.Find("a")), nullptr);

  // Rewriting the document invalidates the prepared response: the entry pins
  // the version the store replaced, so lookup misses and drops it, and with
  // it the last pin on that version.
  std::weak_ptr<const DocumentStore::Doc> old_a = store.Pin("a");
  store.Put("a", std::vector<uint8_t>(200, 3));
  EXPECT_FALSE(old_a.expired());
  const uint64_t misses_before = cache.misses();
  EXPECT_EQ(cache.Get("a", store.Find("a")), nullptr);
  EXPECT_EQ(cache.misses(), misses_before + 1);
  EXPECT_EQ(cache.size(), 1u);  // only "c" remains
  EXPECT_TRUE(old_a.expired());
  EXPECT_NE(cache.Get("c", store.Find("b")), nullptr);
}

TEST(TcpRtoTest, BackoffIsDeterministicUnderSeededJitterAndDoubles) {
  TcpStats stats;
  const std::vector<sim::Cycles> a = RetransmitSchedule(0xfeed, &stats);
  const std::vector<sim::Cycles> b = RetransmitSchedule(0xfeed);
  ASSERT_EQ(a.size(), 7u);  // initial SYN + max_retransmits retries
  EXPECT_EQ(a, b);          // same seed, same jittered schedule, cycle for cycle
  for (size_t i = 2; i < a.size(); ++i) {
    const sim::Cycles prev = a[i - 1] - a[i - 2];
    const sim::Cycles cur = a[i] - a[i - 1];
    // Each backoff step doubles the timer; jitter is bounded at rto/8, so even
    // worst-case draws leave every gap >= 1.7x its predecessor.
    EXPECT_GE(cur * 10, prev * 17) << "gap " << i << " did not back off";
  }
  EXPECT_EQ(stats.rto_aborts, 1u);
  EXPECT_EQ(stats.rsts_out, 0u);  // never-established conns abort without an RST
  const std::vector<sim::Cycles> c = RetransmitSchedule(0xbeef);
  EXPECT_NE(a, c);  // a different seed perturbs the schedule
}

TEST_F(NetTest, KarnRuleExcludesRetransmitsFromSrtt) {
  auto server = MakeStack(&nic_b_, &cpu_b_, 2, XokSocketProfile());
  auto client = MakeStack(&nic_a_, nullptr, 1, ClientProfile());
  ASSERT_EQ(server->Listen(80, [](TcpConn*) {}), Status::kOk);
  TcpConn* conn = nullptr;
  client->Connect(2, 80, [&](TcpConn* c) { conn = c; });
  Run();
  ASSERT_NE(conn, nullptr);

  conn->Send(std::vector<uint8_t>(100, 1));  // clean round trip: baseline SRTT
  Run();
  const sim::Cycles srtt_clean = conn->srtt();
  ASSERT_GT(srtt_clean, 0u);

  // Drop the next data segment. Its retransmission is ACKed a full RTO (tens of
  // milliseconds) after the original send; Karn's rule must keep that ambiguous
  // sample out of the estimator, or SRTT would jump by three orders of magnitude.
  drop_next_ = 1;
  conn->Send(std::vector<uint8_t>(100, 2));
  Run();
  drop_next_ = 0;
  EXPECT_GE(client->stats().retransmits, 1u);
  EXPECT_LT(conn->srtt(), srtt_clean * 2);
}

TEST_F(NetTest, RetryExhaustionAbortsWithRstAndReapsBothPcbs) {
  TcpProfile cp = ClientProfile();
  cp.max_retransmits = 3;
  auto server = MakeStack(&nic_b_, &cpu_b_, 2, XokSocketProfile());
  auto client = MakeStack(&nic_a_, nullptr, 1, cp);
  bool server_closed = false;
  ASSERT_EQ(server->Listen(80, [&](TcpConn* c) {
    c->set_on_close([&](TcpConn*) { server_closed = true; });
  }), Status::kOk);
  TcpConn* conn = nullptr;
  bool aborted = false;
  client->Connect(2, 80, [&](TcpConn* c) {
    conn = c;
    c->set_on_close([&](TcpConn* cc) { aborted = cc->aborted(); });
  });
  Run();
  ASSERT_NE(conn, nullptr);

  // Black-hole every data segment from here on: the sender retries
  // max_retransmits times, gives up, and aborts. The RST is header-only, so it
  // still crosses the wire and tears down the peer's PCB too.
  drop_next_ = 1000;
  conn->Send(std::vector<uint8_t>(200, 9));
  Run();
  drop_next_ = 0;
  EXPECT_TRUE(aborted);
  EXPECT_EQ(client->stats().rto_aborts, 1u);
  EXPECT_EQ(client->stats().rsts_out, 1u);
  EXPECT_EQ(server->stats().rsts_in, 1u);
  EXPECT_TRUE(server_closed);
  EXPECT_EQ(client->conn_count(), 0u);
  EXPECT_EQ(server->conn_count(), 0u);
}

TEST_F(NetTest, HalfOpenConnsFromLostFinalAcksAreReaped) {
  // Frame 3 on the wire is the client's final handshake ACK (1: SYN,
  // 2: SYN|ACK). Dropping it strands the server in kSynRcvd; frames 5/7/9 drop
  // whatever the client answers to each SYN|ACK retransmission, so the server
  // side can never complete. It must burn its retry budget, then reap the
  // half-open PCB instead of leaking it — the SYN-flood survival property.
  sim::FaultInjector faults({.seed = 1,
                             .script = {{'d', 3, 0},
                                        {'d', 5, 0},
                                        {'d', 7, 0},
                                        {'d', 9, 0}}});
  link_.SetFaultInjector(&faults);
  TcpProfile sp = XokSocketProfile();
  sp.max_retransmits = 3;
  auto server = MakeStack(&nic_b_, &cpu_b_, 2, sp);
  auto client = MakeStack(&nic_a_, nullptr, 1, ClientProfile());
  ASSERT_EQ(server->Listen(80, [](TcpConn*) {}, /*backlog=*/4), Status::kOk);
  client->Connect(2, 80, [](TcpConn*) {});
  Run();
  link_.SetFaultInjector(nullptr);

  EXPECT_EQ(server->stats().half_open_reaped, 1u);
  EXPECT_EQ(server->stats().rto_aborts, 1u);
  EXPECT_EQ(server->half_open_count(80), 0u);
  EXPECT_EQ(server->conn_count(), 0u);
}

// End to end: a fully armed Cheetah server (persistent connections, shared
// document store, response cache, gather transmit) against a pipelining client
// whose stack *verifies checksums on receive* — so if the stapled
// header+body checksum of a gather segment were wrong, the segment would be
// dropped, the response would never complete, and completed < issued.
TEST_F(NetTest, PersistentPipelinedGatherServesChecksumVerifiedResponses) {
  DocumentStore store(&cost_);
  apps::HttpServerOptions opts;
  opts.persistent = true;
  opts.documents = &store;
  opts.response_cache_entries = 4;
  opts.gather_tx = true;
  apps::HttpServer server(&engine_, &cost_, apps::ServerStyle::kCheetah, /*ip=*/2,
                          opts);
  server.AddDocument("small", std::vector<uint8_t>(600, 0x5a));   // gathers: one MSS
  server.AddDocument("large", std::vector<uint8_t>(3000, 0xa5));  // two-send path
  ASSERT_EQ(server.Listen(80), Status::kOk);
  server.AttachNic(&nic_b_, /*peer_ip=*/1);

  apps::OpenLoopHttpClient client(&engine_, &cost_, &nic_a_, /*ip=*/1, 2, "small",
                                  /*interval_cycles=*/50'000, XokSocketProfile());
  client.EnablePersistent(/*pool_size=*/3, /*max_pipeline=*/8);
  int flip = 0;
  client.set_doc_picker([&flip] { return ++flip % 2 == 0 ? "large" : "small"; });
  client.Start(/*deadline=*/40 * 50'000);
  Run();

  EXPECT_EQ(client.issued(), 40u);
  EXPECT_EQ(client.completed(), 40u);
  EXPECT_EQ(client.failed(), 0u);
  EXPECT_EQ(client.rejected(), 0u);
  EXPECT_EQ(client.conns_opened(), 3u);  // the pool, reused across all requests
  EXPECT_GT(server.gather_sends(), 0u);
  EXPECT_GT(server.cache_hits(), 0u);
  // Bodies arrived complete and intact (ClassifyResponse checks length; the
  // verifying stack checks every segment's checksum, gathered or not).
  EXPECT_EQ(server.requests_served(), 40u);
  std::string bad = server.stack().CheckInvariants();
  EXPECT_TRUE(bad.empty()) << bad;
}

}  // namespace
}  // namespace exo::net
