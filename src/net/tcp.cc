#include "net/tcp.h"

#include <algorithm>
#include <cstdio>

#include "sim/check.h"

namespace exo::net {

namespace {
constexpr uint32_t kInitialSeq = 1000;
constexpr uint32_t kWindowBytes = 48 * 1024;  // fixed send window
// Control-block setup: fresh, or recycled from the pool (TcpProfile::pcb_reuse).
constexpr sim::Cycles kPcbAllocCycles = 700;
constexpr sim::Cycles kPcbReuseCycles = 90;
constexpr sim::Cycles kDelayedAckUs = 2'000;  // piggyback_ack: longest ACK hold
// Retransmission timer: the RTO before the first RTT sample, and the clamp
// on every RTO after it (backoff included).
constexpr sim::Cycles kInitialRtoUs = 50'000;
constexpr sim::Cycles kMinRtoUs = 5'000;
constexpr sim::Cycles kMaxRtoUs = 4'000'000;
// A connection that sent its FIN (kFinWait) but whose peer goes silent is
// force-closed after this long — the TIME_WAIT-style reaper that keeps
// half-closed PCBs from leaking when the peer dies.
constexpr sim::Cycles kFinWaitTimeoutUs = 1'000'000;
// Sequence-space compare: a >= b under 32-bit wraparound.
inline bool SeqGe(uint32_t a, uint32_t b) { return static_cast<int32_t>(a - b) >= 0; }
}  // namespace

TcpStack::TcpStack(const Hooks& hooks, IpAddr ip, const TcpProfile& profile)
    : hooks_(hooks), ip_(ip), profile_(profile), jitter_rng_(profile.rto_jitter_seed) {
  EXO_CHECK(hooks_.engine != nullptr);
  EXO_CHECK(hooks_.cost != nullptr);
  EXO_CHECK(hooks_.transmit != nullptr);
}

TcpStack::~TcpStack() = default;

Status TcpStack::Listen(Port port, std::function<void(TcpConn*)> on_accept,
                        uint32_t backlog) {
  if (listeners_.count(port) != 0) {
    return Status::kAlreadyExists;
  }
  listeners_[port] = Listener{std::move(on_accept), backlog};
  return Status::kOk;
}

TcpConn* TcpStack::NewConn() {
  ++stats_.conns_opened;
  if (profile_.pcb_reuse && !pcb_pool_.empty()) {
    auto conn = std::move(pcb_pool_.back());
    pcb_pool_.pop_back();
    ++stats_.pcb_reused;
    Occupy(kPcbReuseCycles);
    *conn = TcpConn{};
    conn->stack_ = this;
    TcpConn* raw = conn.get();
    // Re-keyed by the caller.
    tmp_ = std::move(conn);
    return raw;
  }
  Occupy(kPcbAllocCycles);
  auto conn = std::make_unique<TcpConn>();
  conn->stack_ = this;
  TcpConn* raw = conn.get();
  tmp_ = std::move(conn);
  return raw;
}

TcpConn* TcpStack::Connect(IpAddr dst_ip, Port dst_port,
                           std::function<void(TcpConn*)> on_established) {
  TcpConn* c = NewConn();
  c->peer_ip_ = dst_ip;
  c->peer_port_ = dst_port;
  // Ephemeral allocation must survive wraparound: at fleet scale (tens of
  // thousands of connections per stack) the 16-bit counter laps itself, and
  // handing out a port whose (ip, port, port) key is still live would replace
  // the existing PCB in the table. Probe past live keys; the no-collision path
  // hands out exactly the historical sequence.
  Port port = next_ephemeral_;
  for (uint32_t tries = 0; tries < 65536; ++tries) {
    if (conns_.count(Key(dst_ip, dst_port, port)) == 0) {
      break;
    }
    ++port;
  }
  next_ephemeral_ = static_cast<Port>(port + 1);
  c->local_port_ = port;
  c->state_ = TcpConn::State::kSynSent;
  c->snd_next_ = kInitialSeq;
  c->snd_una_ = kInitialSeq;
  c->on_established_ = std::move(on_established);
  conns_[Key(dst_ip, dst_port, c->local_port_)] = std::move(tmp_);
  peak_conns_ = std::max(peak_conns_, conns_.size());
  const sim::Cycles sent = Emit(c, kFlagSyn, c->snd_next_, {}, 0, false, false);
  TcpConn::PendingSegment syn;
  syn.syn = true;
  syn.seq = c->snd_next_;
  syn.sent_at = sent;
  c->unacked_.push_back(std::move(syn));
  c->snd_next_ += 1;
  ArmRto(c);
  return c;
}

sim::Cycles TcpStack::Emit(TcpConn* c, uint8_t flags, uint32_t seq,
                           std::span<const uint8_t> payload, uint32_t checksum,
                           bool charge_checksum, bool charge_copy,
                           std::span<const uint8_t> tail) {
  const size_t payload_size = payload.size() + tail.size();
  sim::Cycles cost = profile_.tx_fixed;
  if (payload_size != 0) {
    if (charge_copy) {
      cost += static_cast<sim::Cycles>(static_cast<double>(hooks_.cost->CopyCost(payload_size)) *
                                       profile_.tx_copies);
    }
    if (charge_checksum) {
      cost += hooks_.cost->ChecksumCost(payload_size);
    }
  }
  sim::Cycles when = Occupy(cost);

  TcpSegment seg;
  seg.src_ip = ip_;
  seg.dst_ip = c->peer_ip_;
  seg.src_port = c->local_port_;
  seg.dst_port = c->peer_port_;
  seg.seq = seq;
  seg.flags = flags;
  seg.window = 0xffff;
  seg.checksum = checksum;
  // The payload rides the span straight into the encoded frame below; copying it
  // into the segment first would double the per-byte work on the transmit path.
  if (c->state_ != TcpConn::State::kSynSent || (flags & kFlagAck) != 0) {
    seg.flags |= kFlagAck;
    seg.ack = c->rcv_next_;
  }
  if ((seg.flags & kFlagAck) != 0 && payload_size != 0 && c->ack_pending_) {
    c->ack_pending_ = false;
    if (c->ack_timer_ != 0) {
      hooks_.engine->Cancel(c->ack_timer_);
      c->ack_timer_ = 0;
    }
    ++stats_.piggybacked_acks;
  }

  ++stats_.segments_out;
  stats_.bytes_out += payload_size;
  if (tracer_ != nullptr && tracer_->enabled(trace::Category::kNet)) {
    tracer_->Instant(trace::Category::kNet, trace_track_, "tcp.tx", when, payload_size);
  }
  hooks_.transmit(tail.empty() ? EncodeTcp(seg, payload) : EncodeTcp(seg, payload, tail), when);
  return when;
}

void TcpStack::SendPureAck(TcpConn* c) {
  c->ack_pending_ = false;
  if (c->ack_timer_ != 0) {
    hooks_.engine->Cancel(c->ack_timer_);
    c->ack_timer_ = 0;
  }
  ++stats_.pure_acks_out;
  Emit(c, kFlagAck, c->snd_next_, {}, 0, false, false);
}

void TcpStack::ScheduleDelayedAck(TcpConn* c) {
  if (!profile_.piggyback_ack) {
    SendPureAck(c);
    return;
  }
  // Knowledge-based packet merging: hold the ACK; the response will carry it.
  c->ack_pending_ = true;
  if (c->ack_timer_ != 0) {
    return;
  }
  ConnKey key = Key(c->peer_ip_, c->peer_port_, c->local_port_);
  c->ack_timer_ = hooks_.engine->ScheduleAfter(
      kDelayedAckUs * hooks_.cost->cpu_mhz, [this, key] {
        auto it = conns_.find(key);
        if (it != conns_.end() && it->second->ack_pending_) {
          it->second->ack_timer_ = 0;
          SendPureAck(it->second.get());
        }
      });
}

void TcpStack::PumpSendQueue(TcpConn* c) {
  while (!c->send_queue_.empty()) {
    uint32_t in_flight = c->snd_next_ - c->snd_una_;
    const auto& head = c->send_queue_.front();
    if (in_flight + head.size() > kWindowBytes) {
      break;
    }
    TcpConn::PendingSegment seg = std::move(c->send_queue_.front());
    c->send_queue_.pop_front();
    seg.seq = c->snd_next_;
    if (seg.fin) {
      seg.sent_at = Emit(c, kFlagFin, seg.seq, {}, 0, false, false);
      c->snd_next_ += 1;
      c->fin_sent_ = true;
      c->state_ = c->state_ == TcpConn::State::kCloseWait ? TcpConn::State::kLastAck
                                                          : TcpConn::State::kFinWait;
      if (c->state_ == TcpConn::State::kFinWait) {
        ArmFinWaitReaper(c);
      }
    } else {
      const bool precomputed = seg.checksum != 0;
      // A gather segment (head+tail) always arrives with a combined precomputed
      // checksum; plain segments may need one computed here.
      seg.sent_at = Emit(c, kFlagPsh, seg.seq, seg.head(),
                         precomputed ? seg.checksum : Checksum(seg.head()),
                         /*charge_checksum=*/profile_.checksum_tx && !precomputed,
                         /*charge_copy=*/!profile_.zero_copy_tx, seg.tail());
      c->snd_next_ += static_cast<uint32_t>(seg.size());
    }
    c->unacked_.push_back(std::move(seg));
  }
  if (!c->unacked_.empty()) {
    ArmRto(c);
  }
}

void TcpConn::Send(std::vector<uint8_t> data) {
  EXO_CHECK(stack_ != nullptr);
  if (data.size() > kMss) {
    for (size_t off = 0; off < data.size(); off += kMss) {
      const size_t n = std::min<size_t>(kMss, data.size() - off);
      PendingSegment seg;
      seg.owned.assign(data.begin() + static_cast<long>(off),
                       data.begin() + static_cast<long>(off + n));
      send_queue_.push_back(std::move(seg));
    }
  } else if (!data.empty()) {
    PendingSegment seg;
    seg.owned = std::move(data);  // one segment: keep the caller's buffer
    send_queue_.push_back(std::move(seg));
  }
  stack_->PumpSendQueue(this);
}

void TcpConn::Send(PinnedBytes data) {
  EXO_CHECK(stack_ != nullptr);
  EXO_CHECK(data.owner != nullptr);
  size_t seg_index = 0;
  for (size_t off = 0; off < data.bytes.size(); off += kMss, ++seg_index) {
    PendingSegment seg;
    seg.stable = data.bytes.subspan(off, std::min<size_t>(kMss, data.bytes.size() - off));
    seg.owner = data.owner;
    if (seg_index < data.checksums.size()) {
      seg.checksum = data.checksums[seg_index];
    }
    send_queue_.push_back(std::move(seg));
  }
  stack_->PumpSendQueue(this);
}

void TcpConn::SendGather(std::vector<uint8_t> header, PinnedBytes body, uint32_t checksum) {
  EXO_CHECK(stack_ != nullptr);
  EXO_CHECK(body.owner != nullptr);
  EXO_CHECK(header.size() % 2 == 0 && header.size() + body.bytes.size() <= kMss);
  PendingSegment seg;
  seg.owned = std::move(header);
  seg.stable = body.bytes;
  seg.owner = std::move(body.owner);
  seg.checksum = checksum;
  send_queue_.push_back(std::move(seg));
  stack_->PumpSendQueue(this);
}

void TcpConn::Close() {
  if (fin_queued_ || state_ == State::kClosed) {
    return;
  }
  fin_queued_ = true;
  PendingSegment fin;
  fin.fin = true;
  send_queue_.push_back(std::move(fin));
  stack_->PumpSendQueue(this);
}

sim::Cycles TcpStack::RtoCycles(TcpConn* c) {
  const sim::Cycles mhz = hooks_.cost->cpu_mhz;
  // The initial RTO holds until the estimator's first sample.
  sim::Cycles rto = c->rtt_valid_
                        ? c->srtt_ + std::max<sim::Cycles>(4 * c->rttvar_, mhz)
                        : kInitialRtoUs * mhz;
  rto = std::clamp(rto, kMinRtoUs * mhz, kMaxRtoUs * mhz);
  if (c->backoff_ > 0) {
    const sim::Cycles max_rto = kMaxRtoUs * mhz;
    const uint32_t shift = std::min<uint32_t>(c->backoff_, 20);
    rto = rto > (max_rto >> shift) ? max_rto : (rto << shift);
    // Deterministic seeded jitter desynchronizes retry storms without breaking
    // replay: same seed, same schedule.
    rto += jitter_rng_.Below(rto / 8 + 1);
  }
  return rto;
}

void TcpStack::ArmRto(TcpConn* c) {
  if (c->rto_timer_ != 0) {
    return;
  }
  ConnKey key = Key(c->peer_ip_, c->peer_port_, c->local_port_);
  c->rto_timer_ = hooks_.engine->ScheduleAfter(RtoCycles(c), [this, key] {
    auto it = conns_.find(key);
    if (it != conns_.end()) {
      it->second->rto_timer_ = 0;
      OnRto(it->second.get());
    }
  });
}

void TcpStack::OnRto(TcpConn* c) {
  if (c->unacked_.empty()) {
    return;
  }
  if (c->backoff_ >= profile_.max_retransmits) {
    // Retry budget exhausted: the peer is gone (or the path is dead). Abort
    // rather than retry forever — under sustained loss this is what turns an
    // unbounded PCB leak into bounded, observable failure.
    ++stats_.rto_aborts;
    if (c->state_ == TcpConn::State::kSynRcvd) {
      ++stats_.half_open_reaped;
    }
    AbortConn(c, /*send_rst=*/c->state_ != TcpConn::State::kSynSent, "tcp.rto_abort");
    return;
  }
  ++c->backoff_;
  ++stats_.retransmits;
  TcpConn::PendingSegment& seg = c->unacked_.front();
  seg.retransmitted = true;  // Karn: this segment can no longer yield an RTT sample
  sim::Cycles when = 0;
  if (seg.syn) {
    // Emit adds the ACK flag itself outside kSynSent, so this re-sends the client's
    // SYN or the server's SYN|ACK as appropriate.
    when = Emit(c, kFlagSyn, seg.seq, {}, 0, false, false);
  } else if (seg.fin) {
    when = Emit(c, kFlagFin, seg.seq, {}, 0, false, false);
  } else {
    // Retransmission reads the segment's own bytes: owned, or kept alive by
    // its pin. Zero-copy pays no copy here either — the file cache is the
    // retransmission pool.
    const bool precomputed = seg.checksum != 0;
    when = Emit(c, kFlagPsh, seg.seq, seg.head(),
                precomputed ? seg.checksum : Checksum(seg.head()),
                profile_.checksum_tx && !precomputed, !profile_.zero_copy_tx, seg.tail());
  }
  if (tracer_ != nullptr && tracer_->enabled(trace::Category::kNet)) {
    tracer_->Instant(trace::Category::kNet, trace_track_, "tcp.retx", when, seg.seq);
  }
  ArmRto(c);
}

void TcpStack::ArmFinWaitReaper(TcpConn* c) {
  if (c->reap_deadline_ != 0) {
    return;
  }
  AddReapDeadline(c, hooks_.engine->now() + kFinWaitTimeoutUs * hooks_.cost->cpu_mhz);
}

void TcpStack::AddReapDeadline(TcpConn* c, sim::Cycles deadline) {
  c->reap_deadline_ = deadline;
  reap_deadlines_.insert({deadline, Key(c->peer_ip_, c->peer_port_, c->local_port_)});
  ArmReapTimer();
}

void TcpStack::CancelReapDeadline(TcpConn* c) {
  if (c->reap_deadline_ == 0) {
    return;
  }
  reap_deadlines_.erase({c->reap_deadline_, Key(c->peer_ip_, c->peer_port_, c->local_port_)});
  c->reap_deadline_ = 0;
  // The timer is left armed; firing with nothing due is a cheap no-op re-arm.
}

void TcpStack::ArmReapTimer() {
  if (reap_deadlines_.empty()) {
    return;
  }
  const sim::Cycles earliest = reap_deadlines_.begin()->first;
  if (reap_timer_event_ != 0) {
    if (reap_timer_deadline_ <= earliest) {
      return;  // already watching something at least as early
    }
    hooks_.engine->Cancel(reap_timer_event_);
  }
  reap_timer_deadline_ = earliest;
  reap_timer_event_ = hooks_.engine->ScheduleAfter(earliest - hooks_.engine->now(),
                                                   [this] { OnReapTimer(); });
}

void TcpStack::OnReapTimer() {
  reap_timer_event_ = 0;
  reap_timer_deadline_ = 0;
  const sim::Cycles now = hooks_.engine->now();
  while (!reap_deadlines_.empty() && reap_deadlines_.begin()->first <= now) {
    const ConnKey key = reap_deadlines_.begin()->second;
    reap_deadlines_.erase(reap_deadlines_.begin());
    auto it = conns_.find(key);
    if (it == conns_.end()) {
      continue;
    }
    TcpConn* conn = it->second.get();
    conn->reap_deadline_ = 0;
    if (conn->state_ == TcpConn::State::kFinWait) {
      // We closed, the peer never did (died, or its FIN path is aborted):
      // reap the half-closed PCB instead of holding it forever.
      ++stats_.fin_wait_reaped;
      AbortConn(conn, /*send_rst=*/true, "tcp.finwait_reap");
    }
  }
  ArmReapTimer();
}

void TcpStack::DropHalfOpen(TcpConn* c) {
  if (!c->half_open_counted_) {
    return;
  }
  c->half_open_counted_ = false;
  auto it = half_open_.find(c->local_port_);
  if (it != half_open_.end() && it->second > 0) {
    --it->second;
  }
}

void TcpStack::AbortConn(TcpConn* c, bool send_rst, const char* trace_name) {
  if (c->state_ == TcpConn::State::kClosed) {
    return;
  }
  DropHalfOpen(c);
  if (send_rst) {
    ++stats_.rsts_out;
    Emit(c, kFlagRst, c->snd_next_, {}, 0, false, false);
  }
  if (tracer_ != nullptr && tracer_->enabled(trace::Category::kNet)) {
    tracer_->Instant(trace::Category::kNet, trace_track_, trace_name,
                     hooks_.engine->now(), c->snd_una_);
  }
  for (auto* timer : {&c->ack_timer_, &c->rto_timer_}) {
    if (*timer != 0) {
      hooks_.engine->Cancel(*timer);
      *timer = 0;
    }
  }
  CancelReapDeadline(c);
  c->unacked_.clear();
  c->send_queue_.clear();
  c->ack_pending_ = false;
  c->aborted_ = true;
  c->state_ = TcpConn::State::kClosed;
  DeliverClose(c);
  AutoRelease(c);
}

void TcpStack::Abort(TcpConn* conn) {
  AbortConn(conn, /*send_rst=*/true, "tcp.app_abort");
}

void TcpStack::Shutdown() {
  for (auto& [key, conn] : conns_) {
    TcpConn* c = conn.get();
    for (auto* timer : {&c->ack_timer_, &c->rto_timer_}) {
      if (*timer != 0) {
        hooks_.engine->Cancel(*timer);
        *timer = 0;
      }
    }
    c->reap_deadline_ = 0;
    c->unacked_.clear();
    c->send_queue_.clear();
    c->ack_pending_ = false;
    // Closed + delivered without running callbacks: nobody hears from a
    // machine that lost power.
    c->aborted_ = true;
    c->close_delivered_ = true;
    c->state_ = TcpConn::State::kClosed;
  }
  conns_.clear();
  pcb_pool_.clear();
  tmp_.reset();
  listeners_.clear();
  half_open_.clear();
  reap_deadlines_.clear();
  if (reap_timer_event_ != 0) {
    hooks_.engine->Cancel(reap_timer_event_);
    reap_timer_event_ = 0;
  }
  reap_timer_deadline_ = 0;
}

void TcpStack::Input(const hw::Packet& p) {
  auto seg = DecodeTcp(p);
  if (!seg.has_value()) {
    return;
  }
  // Receive-path CPU: fixed per-segment cost + payload copy/verify, then process.
  sim::Cycles cost = profile_.rx_fixed;
  bool checksum_ok = true;
  if (!seg->payload.empty()) {
    cost += static_cast<sim::Cycles>(
        static_cast<double>(hooks_.cost->CopyCost(seg->payload.size())) * profile_.rx_copies);
    if (profile_.checksum_rx) {
      cost += hooks_.cost->ChecksumCost(seg->payload.size());
      checksum_ok = Checksum(seg->payload) == seg->checksum;
    }
  }
  sim::Cycles when = Occupy(cost);
  const bool tracing = tracer_ != nullptr && tracer_->enabled(trace::Category::kNet);
  if (tracing) {
    tracer_->Instant(trace::Category::kNet, trace_track_, "tcp.rx", when,
                     seg->payload.size());
  }
  if (!checksum_ok) {
    // Damaged in transit: discard after paying the verify cost; the sender's RTO
    // recovers. Indistinguishable from a drop, which is the point of the checksum.
    ++stats_.checksum_drops;
    if (tracing) {
      tracer_->Instant(trace::Category::kNet, trace_track_, "tcp.csum_drop", when, seg->seq);
    }
    return;
  }
  hooks_.engine->ScheduleAt(when, [this, s = std::move(*seg)]() mutable {
    ProcessSegment(std::move(s));
  });
}

void TcpStack::ProcessSegment(TcpSegment seg) {
  ++stats_.segments_in;
  stats_.bytes_in += seg.payload.size();

  ConnKey key = Key(seg.src_ip, seg.src_port, seg.dst_port);
  auto it = conns_.find(key);
  TcpConn* c = it != conns_.end() ? it->second.get() : nullptr;

  if (c == nullptr) {
    // New connection? Must be a SYN to a listener.
    auto lit = listeners_.find(seg.dst_port);
    if (lit == listeners_.end() || (seg.flags & kFlagSyn) == 0) {
      return;  // no RST machinery; silence is fine on a closed simulated network
    }
    if (lit->second.backlog != 0 &&
        half_open_count(seg.dst_port) >= lit->second.backlog) {
      // SYN-flood shedding: the backlog is full, so this SYN is dropped before a
      // PCB is allocated. A legitimate peer retries; a flood starves here.
      ++stats_.syns_shed;
      if (tracer_ != nullptr && tracer_->enabled(trace::Category::kNet)) {
        tracer_->Instant(trace::Category::kNet, trace_track_, "tcp.syn_shed",
                         hooks_.engine->now(), seg.dst_port);
      }
      return;
    }
    c = NewConn();
    c->peer_ip_ = seg.src_ip;
    c->peer_port_ = seg.src_port;
    c->local_port_ = seg.dst_port;
    c->state_ = TcpConn::State::kSynRcvd;
    c->half_open_counted_ = true;
    ++half_open_[seg.dst_port];
    c->rcv_next_ = seg.seq + 1;
    c->snd_next_ = kInitialSeq;
    c->snd_una_ = kInitialSeq;
    conns_[key] = std::move(tmp_);
    peak_conns_ = std::max(peak_conns_, conns_.size());
    const sim::Cycles sent = Emit(c, kFlagSyn | kFlagAck, c->snd_next_, {}, 0, false, false);
    TcpConn::PendingSegment syn;
    syn.syn = true;
    syn.seq = c->snd_next_;
    syn.sent_at = sent;
    c->unacked_.push_back(std::move(syn));
    c->snd_next_ += 1;
    ArmRto(c);
    return;
  }

  // RST: the peer aborted. Tear down immediately — no reply, no retransmission.
  if ((seg.flags & kFlagRst) != 0) {
    ++stats_.rsts_in;
    AbortConn(c, /*send_rst=*/false, "tcp.rst_rx");
    return;
  }

  // Active open: SYN|ACK completes the client side of the handshake.
  if ((seg.flags & kFlagSyn) != 0 && c->state_ == TcpConn::State::kSynSent) {
    c->rcv_next_ = seg.seq + 1;
    c->snd_una_ = seg.ack;
    c->unacked_.clear();
    if (c->rto_timer_ != 0) {
      hooks_.engine->Cancel(c->rto_timer_);
      c->rto_timer_ = 0;
    }
    c->backoff_ = 0;
    c->state_ = TcpConn::State::kEstablished;
    SendPureAck(c);
    if (c->on_established_) {
      auto cb = std::move(c->on_established_);
      cb(c);
    }
    return;
  }

  // Duplicate SYN|ACK: our handshake-completing ACK was lost, so the peer is still
  // retransmitting. Re-ack so it can leave SynRcvd. (In kSynRcvd ourselves, our own
  // RTO re-sends the SYN|ACK; a duplicate SYN needs no reply.)
  if ((seg.flags & kFlagSyn) != 0) {
    if (c->state_ != TcpConn::State::kSynRcvd) {
      SendPureAck(c);
    }
    return;
  }

  // ACK processing.
  if ((seg.flags & kFlagAck) != 0) {
    if (c->state_ == TcpConn::State::kSynSent) {
      return;  // stray ACK before the SYN|ACK; ignore
    }
    bool progressed = false;
    while (!c->unacked_.empty()) {
      const auto& head = c->unacked_.front();
      uint32_t head_end =
          head.seq + ((head.fin || head.syn) ? 1 : static_cast<uint32_t>(head.size()));
      if (SeqGe(seg.ack, head_end)) {
        if (head.sent_at != 0 && !head.retransmitted) {
          const sim::Cycles sample = hooks_.engine->now() - head.sent_at;
          UpdateRtt(c, sample);  // Karn's rule: retransmitted heads never sample
          if (rtt_hist_ != nullptr && tracer_->enabled(trace::Category::kNet)) {
            rtt_hist_->Record(sample);
          }
        }
        c->snd_una_ = head_end;
        c->unacked_.pop_front();
        progressed = true;
      } else {
        break;
      }
    }
    if (progressed) {
      c->backoff_ = 0;  // forward progress resets the backoff ladder
    }
    // Restart the retransmission timer when nothing is outstanding or on
    // progress, so the timeout measures silence since the *latest* advance
    // rather than since the oldest arm (the classic premature-RTO-on-long-
    // transfers bug).
    if (c->rto_timer_ != 0 && (c->unacked_.empty() || progressed)) {
      hooks_.engine->Cancel(c->rto_timer_);
      c->rto_timer_ = 0;
    }
    if (c->state_ == TcpConn::State::kSynRcvd) {
      c->state_ = TcpConn::State::kEstablished;
      DropHalfOpen(c);
      auto lit = listeners_.find(c->local_port_);
      if (lit != listeners_.end()) {
        lit->second.on_accept(c);
      }
    }
    if (c->unacked_.empty() && c->send_queue_.empty() && !c->fin_queued_ &&
        c->on_send_complete_) {
      auto cb = c->on_send_complete_;
      cb(c);
    }
    if (c->state_ == TcpConn::State::kLastAck && c->fin_sent_ && c->unacked_.empty()) {
      c->state_ = TcpConn::State::kClosed;
      DeliverClose(c);
      AutoRelease(c);
      return;
    }
    PumpSendQueue(c);
  }

  // In-order data.
  if (!seg.payload.empty()) {
    if (seg.seq == c->rcv_next_) {
      c->rcv_next_ += static_cast<uint32_t>(seg.payload.size());
      ScheduleDelayedAck(c);
      if (c->on_data_) {
        c->on_data_(c, seg.payload);
      }
    } else {
      SendPureAck(c);  // duplicate ack triggers the peer's eventual retransmit
    }
  }

  if ((seg.flags & kFlagFin) != 0 && seg.seq == c->rcv_next_) {
    c->rcv_next_ += 1;
    SendPureAck(c);
    if (c->state_ == TcpConn::State::kEstablished) {
      c->state_ = TcpConn::State::kCloseWait;
      DeliverClose(c);
    } else if (c->state_ == TcpConn::State::kFinWait) {
      c->state_ = TcpConn::State::kClosed;
      DeliverClose(c);
      AutoRelease(c);
    }
  }
}

void TcpStack::UpdateRtt(TcpConn* c, sim::Cycles sample) {
  // Jacobson '88 (integer form): SRTT += (err)/8, RTTVAR += (|err| - RTTVAR)/4.
  if (!c->rtt_valid_) {
    c->rtt_valid_ = true;
    c->srtt_ = sample;
    c->rttvar_ = sample / 2;
    return;
  }
  const int64_t err = static_cast<int64_t>(sample) - static_cast<int64_t>(c->srtt_);
  const int64_t abs_err = err < 0 ? -err : err;
  c->rttvar_ = static_cast<sim::Cycles>(
      static_cast<int64_t>(c->rttvar_) + (abs_err - static_cast<int64_t>(c->rttvar_)) / 4);
  c->srtt_ = static_cast<sim::Cycles>(
      std::max<int64_t>(1, static_cast<int64_t>(c->srtt_) + err / 8));
}

std::string TcpStack::DebugConnStates() const {
  // conns_ is hashed; sort by key so leak-triage output is stable across runs.
  std::map<ConnKey, const TcpConn*> ordered;
  for (const auto& [key, up] : conns_) {
    ordered[key] = up.get();
  }
  std::string out;
  for (const auto& [key, cp] : ordered) {
    const TcpConn& c = *cp;
    char line[128];
    std::snprintf(line, sizeof(line), "%u:%u state=%d unacked=%zu queued=%zu\n",
                  c.peer_ip_, c.peer_port_, static_cast<int>(c.state_),
                  c.unacked_.size(), c.send_queue_.size());
    out += line;
  }
  return out;
}

std::string TcpStack::CheckInvariants() const {
  std::map<Port, uint32_t> half_open_actual;
  for (const auto& [key, up] : conns_) {
    const TcpConn& c = *up;
    const int32_t in_flight = static_cast<int32_t>(c.snd_next_ - c.snd_una_);
    if (in_flight < 0) {
      return "snd_una passed snd_next (cumulative ACK regressed)";
    }
    // SYN and FIN each occupy one sequence number beyond the data window.
    if (static_cast<uint32_t>(in_flight) > kWindowBytes + 2) {
      return "in-flight bytes exceed the send window";
    }
    uint32_t expect = c.snd_una_;
    for (const auto& seg : c.unacked_) {
      if (seg.seq != expect) {
        return "retransmission queue out of sequence";
      }
      expect += (seg.syn || seg.fin) ? 1 : static_cast<uint32_t>(seg.size());
    }
    if (expect != c.snd_next_ && c.send_queue_.empty()) {
      return "unacked queue does not account for all sent sequence space";
    }
    if (c.state_ == TcpConn::State::kClosed &&
        (c.rto_timer_ != 0 || c.ack_timer_ != 0 || c.reap_deadline_ != 0)) {
      return "timer armed on a closed connection";
    }
    if (c.reap_deadline_ != 0 &&
        reap_deadlines_.count({c.reap_deadline_, key}) == 0) {
      return "reap deadline not present in the deadline index";
    }
    if (!c.unacked_.empty() && c.rto_timer_ == 0 &&
        c.state_ != TcpConn::State::kClosed) {
      return "outstanding segments without a retransmission timer";
    }
    if (c.half_open_counted_) {
      if (c.state_ != TcpConn::State::kSynRcvd) {
        return "half-open accounting on a non-SynRcvd connection";
      }
      ++half_open_actual[c.local_port_];
    }
  }
  for (const auto& [port, count] : half_open_) {
    if (count != (half_open_actual.count(port) ? half_open_actual[port] : 0)) {
      return "half-open counter drifted from the connection table";
    }
    const auto lit = listeners_.find(port);
    if (lit != listeners_.end() && lit->second.backlog != 0 &&
        count > lit->second.backlog) {
      return "half-open population exceeds the listen backlog";
    }
  }
  // Every index entry must name a live connection carrying that exact deadline
  // (the per-conn check above covers the other direction); a stale entry would
  // reap the wrong PCB or spin the timer forever.
  for (const auto& [deadline, key] : reap_deadlines_) {
    auto cit = conns_.find(key);
    if (cit == conns_.end() || cit->second->reap_deadline_ != deadline) {
      return "reap deadline index entry names no matching connection";
    }
  }
  return "";
}

void TcpStack::DeliverClose(TcpConn* c) {
  if (c->on_close_ && !c->close_delivered_) {
    c->close_delivered_ = true;
    c->on_close_(c);
  }
}

void TcpStack::AutoRelease(TcpConn* c) {
  // Fully closed: return the PCB once the current processing step finishes.
  ConnKey key = Key(c->peer_ip_, c->peer_port_, c->local_port_);
  hooks_.engine->ScheduleAfter(0, [this, key] {
    auto it = conns_.find(key);
    if (it != conns_.end() && it->second->state_ == TcpConn::State::kClosed) {
      Release(it->second.get());
    }
  });
}

void TcpStack::Release(TcpConn* conn) {
  ConnKey key = Key(conn->peer_ip_, conn->peer_port_, conn->local_port_);
  auto it = conns_.find(key);
  if (it == conns_.end()) {
    return;
  }
  DropHalfOpen(conn);
  for (auto* timer : {&conn->ack_timer_, &conn->rto_timer_}) {
    if (*timer != 0) {
      hooks_.engine->Cancel(*timer);
      *timer = 0;
    }
  }
  CancelReapDeadline(conn);
  if (profile_.pcb_reuse) {
    pcb_pool_.push_back(std::move(it->second));
  }
  conns_.erase(it);
}

}  // namespace exo::net
