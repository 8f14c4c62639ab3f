// A TCP implementation designed to run in any protection regime (Sec. 5.2.1, 7.3).
//
// The same engine serves four configurations, differing only in their cost profile
// and option flags:
//   - ExOS user-level sockets on Xok (per-segment syscall to transmit, one payload
//     copy, packet-ring receive),
//   - in-kernel BSD sockets (per-operation syscall + user/kernel copies),
//   - the XIO-based server path (PCB reuse, application-cached file pointers),
//   - Cheetah's extended path: transmit directly from the file cache with
//     precomputed checksums (merged file cache and retransmission pool — data is
//     never copied and never touched by the CPU), and knowledge-based packet
//     merging (delay the ACK on a request because the response will piggy-back it).
//
// Protocol scope: 3-way handshake, cumulative ACKs, fixed window, timeout
// retransmission (go-back-N), FIN teardown, RST aborts. Loss recovery is adaptive:
// RTT samples (Karn-filtered — retransmitted segments never contribute) feed a
// Jacobson SRTT/RTTVAR estimator, consecutive timeouts back off exponentially with
// deterministic seeded jitter, and a connection that exhausts its retransmission
// budget is aborted (RST) and reaped so sustained loss can never leak PCBs.
#ifndef EXO_NET_TCP_H_
#define EXO_NET_TCP_H_

#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <set>
#include <span>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "net/packet.h"
#include "sim/cost_model.h"
#include "sim/status.h"
#include "sim/cpu_meter.h"
#include "sim/engine.h"
#include "sim/rng.h"
#include "trace/trace.h"

namespace exo::net {

// Per-configuration cost profile: what one segment costs on this stack.
struct TcpProfile {
  sim::Cycles tx_fixed = 300;   // per-segment send-path overhead (syscalls, driver)
  sim::Cycles rx_fixed = 300;   // per-segment receive-path overhead
  double tx_copies = 1.0;       // CPU copies of the payload on the send path
  double rx_copies = 1.0;       // CPU copies on the receive path
  bool checksum_tx = true;      // compute checksum on send (off when precomputed)
  bool checksum_rx = true;      // verify checksum on receive
  bool piggyback_ack = false;   // Cheetah: delay ACKs to merge them into responses
  bool zero_copy_tx = false;    // transmit charges no payload copy (Cheetah's cost)
  bool pcb_reuse = false;       // recycle protocol control blocks

  // ---- Retransmission timer ----
  // The initial RTO holds until the first RTT sample lands; from then on the
  // timer follows Jacobson's estimator, RTO = SRTT + max(4*RTTVAR, 1us),
  // clamped to a fixed [min, max] (tcp.cc). Consecutive timeouts on the same
  // connection double the timer (exponential backoff, capped at the max) and
  // add a deterministic jitter in [0, RTO/8] drawn from a per-stack Rng seeded
  // with `rto_jitter_seed` — two runs with the same seed retransmit at
  // identical times.
  uint64_t rto_jitter_seed = 0x5eed;
  // Consecutive timeouts on one connection before it is aborted: an RST is
  // emitted (except from kSynSent, where the peer never spoke), the close
  // callback fires with aborted() set, and the PCB is reaped. This budget is
  // also what reaps a kSynRcvd connection whose handshake never completes.
  uint32_t max_retransmits = 8;
};

// Caller bytes that TCP transmits by reference (Cheetah's merged file cache and
// retransmission pool, Sec. 7.3): `bytes` stays valid while `owner` lives, and
// every segment carrying them holds a copy of `owner` until the segment is
// acknowledged, aborted or shut down. `checksums` are the stored per-MSS sums
// of `bytes` (one per segment); where absent, the stack computes the sum.
struct PinnedBytes {
  std::shared_ptr<const void> owner;
  std::span<const uint8_t> bytes;
  std::span<const uint32_t> checksums;
};

struct TcpStats {
  uint64_t segments_out = 0;
  uint64_t segments_in = 0;
  uint64_t bytes_out = 0;
  uint64_t bytes_in = 0;
  uint64_t retransmits = 0;
  uint64_t checksum_drops = 0;  // received segments discarded for bad payload checksum
  uint64_t pure_acks_out = 0;
  uint64_t piggybacked_acks = 0;
  uint64_t conns_opened = 0;
  uint64_t pcb_reused = 0;
  // ---- Robustness ----
  uint64_t rto_aborts = 0;        // connections aborted after max_retransmits
  uint64_t rsts_out = 0;          // RST segments emitted (aborts)
  uint64_t rsts_in = 0;           // RST segments received (peer aborts)
  uint64_t syns_shed = 0;         // SYNs dropped by a full listen backlog
  uint64_t half_open_reaped = 0;  // kSynRcvd conns aborted (handshake never done)
  uint64_t fin_wait_reaped = 0;   // kFinWait conns force-closed (peer went silent)
};

class TcpStack;

class TcpConn {
 public:
  enum class State : uint8_t {
    kSynSent,
    kSynRcvd,
    kEstablished,
    kFinWait,
    kCloseWait,
    kLastAck,
    kClosed,
  };

  // Queues payload; segments drain as the window opens. The stack owns `data`
  // from here on and keeps its segments until they are acknowledged.
  void Send(std::vector<uint8_t> data);
  // Queues pinned bytes by reference, without copying them. Each segment
  // holds a copy of `data.owner`, which must be non-null, until it is
  // acknowledged; a segment with a stored checksum goes out without the stack
  // summing its bytes.
  void Send(PinnedBytes data);
  // Batched header+body transmission in one segment (Cheetah's HTML-aware
  // gather): the stack owns `header`, `body` rides by reference, and
  // `checksum` covers the concatenation (combine the rendered header's sum
  // with the body's stored sum via ChecksumCombine). The header must have even
  // length, so that combination is valid, and header+body must fit one MSS.
  void SendGather(std::vector<uint8_t> header, PinnedBytes body, uint32_t checksum);
  // Half-close after all queued data is acknowledged.
  void Close();

  void set_on_data(std::function<void(TcpConn*, std::span<const uint8_t>)> cb) {
    on_data_ = std::move(cb);
  }
  void set_on_close(std::function<void(TcpConn*)> cb) { on_close_ = std::move(cb); }
  void set_on_send_complete(std::function<void(TcpConn*)> cb) {
    on_send_complete_ = std::move(cb);
  }

  State state() const { return state_; }
  IpAddr peer_ip() const { return peer_ip_; }
  // True once the connection was torn down abnormally (retry exhaustion, an
  // incoming RST, a reap timeout, or an application Abort) rather than by the
  // FIN handshake. Valid inside and after the on_close callback.
  bool aborted() const { return aborted_; }
  // Timer introspection (tests, observability). srtt/rttvar are 0 until the
  // first un-retransmitted segment is acknowledged (Karn's rule).
  sim::Cycles srtt() const { return srtt_; }
  sim::Cycles rttvar() const { return rttvar_; }
  uint64_t user_data = 0;  // application scratch (request state machines)

 private:
  friend class TcpStack;
  struct PendingSegment {
    // Payload = owned ‖ stable. A plain send fills `owned`, a pinned send
    // fills `stable`, and a gather send fills both (header, then body).
    // `owner` keeps `stable` alive for as long as this segment exists.
    std::vector<uint8_t> owned;
    std::span<const uint8_t> stable;
    std::shared_ptr<const void> owner;
    uint32_t checksum = 0;
    uint32_t seq = 0;
    bool fin = false;
    bool syn = false;  // handshake segments occupy sequence space and retransmit too
    sim::Cycles sent_at = 0;    // first transmission time (RTT sampling)
    bool retransmitted = false;  // Karn's rule: no RTT sample from retransmits
    size_t size() const { return owned.size() + stable.size(); }
    std::span<const uint8_t> head() const {
      return owned.empty() ? stable : std::span<const uint8_t>(owned);
    }
    std::span<const uint8_t> tail() const {
      return owned.empty() ? std::span<const uint8_t>() : stable;
    }
  };

  TcpStack* stack_ = nullptr;
  IpAddr peer_ip_ = 0;
  Port peer_port_ = 0;
  Port local_port_ = 0;
  State state_ = State::kClosed;

  uint32_t snd_next_ = 0;  // next seq to assign
  uint32_t snd_una_ = 0;   // oldest unacked
  uint32_t rcv_next_ = 0;
  std::deque<PendingSegment> unacked_;   // sent, awaiting ack
  std::deque<PendingSegment> send_queue_;  // not yet sent (window closed)
  bool fin_queued_ = false;
  bool fin_sent_ = false;
  bool close_delivered_ = false;
  bool ack_pending_ = false;
  bool aborted_ = false;
  bool half_open_counted_ = false;  // contributes to the listener's backlog count
  sim::Cycles srtt_ = 0;
  sim::Cycles rttvar_ = 0;
  bool rtt_valid_ = false;
  uint32_t backoff_ = 0;  // consecutive timeouts since the last forward progress
  sim::Engine::EventId ack_timer_ = 0;
  sim::Engine::EventId rto_timer_ = 0;
  // Nonzero while this connection sits in the stack's reap-deadline index
  // (kFinWait silent-peer timeout); the value is the absolute deadline, which
  // is also the entry's key in the index.
  sim::Cycles reap_deadline_ = 0;

  std::function<void(TcpConn*, std::span<const uint8_t>)> on_data_;
  std::function<void(TcpConn*)> on_close_;
  std::function<void(TcpConn*)> on_send_complete_;
  std::function<void(TcpConn*)> on_established_;
};

class TcpStack {
 public:
  struct Hooks {
    sim::Engine* engine = nullptr;
    const sim::CostModel* cost = nullptr;
    sim::CpuMeter* cpu = nullptr;  // nullptr => infinitely fast (load generators)
    // Hands a frame to the NIC path at simulated time `when`.
    std::function<void(hw::Packet, sim::Cycles when)> transmit;
  };

  TcpStack(const Hooks& hooks, IpAddr ip, const TcpProfile& profile);
  ~TcpStack();

  TcpStack(const TcpStack&) = delete;
  TcpStack& operator=(const TcpStack&) = delete;

  // Accept callback fires when a connection completes the handshake. `backlog`
  // bounds the number of half-open (kSynRcvd) connections on this port: past it,
  // incoming SYNs are shed (dropped without allocating a PCB — the SYN-flood
  // defense; the peer's own retry/abort machinery handles the silence).
  // 0 = unbounded.
  Status Listen(Port port, std::function<void(TcpConn*)> on_accept,
                uint32_t backlog = 0);
  TcpConn* Connect(IpAddr dst_ip, Port dst_port,
                   std::function<void(TcpConn*)> on_established);

  // Feed a received frame (from the NIC receive handler or a packet ring drain).
  void Input(const hw::Packet& p);

  // Application-initiated abort: emits an RST, fires on_close with aborted() set,
  // and reaps the PCB (servers use this to shed connections that blew a deadline).
  void Abort(TcpConn* conn);

  // Releases a fully closed connection (returns its PCB to the pool).
  void Release(TcpConn* conn);

  // Machine-death teardown: every PCB, listener, and timer vanishes at once,
  // the way volatile memory does. No RSTs go out and no on_close callbacks
  // fire — the host is dead, not closing — so peers discover the loss only by
  // timeout, exactly as on real hardware. The stack object stays valid as an
  // empty zombie: engine events already scheduled against it (delayed acks,
  // RTOs, reap sweeps) look up their connection by key, find nothing, and
  // no-op. Used by the cluster machine-kill path; a reboot builds a fresh
  // stack rather than reviving this one.
  void Shutdown();

  const TcpStats& stats() const { return stats_; }
  IpAddr ip() const { return ip_; }
  const TcpProfile& profile() const { return profile_; }

  // ---- Introspection (soak invariants, tests) ----
  size_t conn_count() const { return conns_.size(); }
  size_t peak_conn_count() const { return peak_conns_; }  // high-water of conn_count
  uint32_t half_open_count(Port port) const {
    auto it = half_open_.find(port);
    return it == half_open_.end() ? 0 : it->second;
  }
  // Audits every connection: cumulative-ACK monotonicity (snd_una never passes
  // snd_next), in-flight data within the window, retransmission-queue seq
  // continuity, timers armed iff work is outstanding, and half-open accounting.
  // Returns "" when all invariants hold, else a description of the violation.
  std::string CheckInvariants() const;
  // One line per live connection ("peer:port state=N unacked=K queued=K"), for
  // leak triage in soak-test failure messages.
  std::string DebugConnStates() const;

  // Attaches a tracer; segment tx/rx/retransmit land as `net` instants on
  // `track`, and acks of never-retransmitted data segments feed the
  // "tcp.rtt_cycles" histogram.
  void SetTracer(trace::Tracer* tracer, uint32_t track) {
    tracer_ = tracer;
    trace_track_ = track;
    rtt_hist_ = tracer != nullptr ? tracer->Histogram("tcp.rtt_cycles") : nullptr;
  }

 private:
  friend class TcpConn;
  using ConnKey = uint64_t;
  static ConnKey Key(IpAddr ip, Port remote, Port local) {
    return (static_cast<uint64_t>(ip) << 32) | (static_cast<uint64_t>(remote) << 16) | local;
  }

  struct Listener {
    std::function<void(TcpConn*)> on_accept;
    uint32_t backlog = 0;  // max half-open connections; 0 = unbounded
  };

  sim::Cycles Occupy(sim::Cycles cost) {
    return hooks_.cpu != nullptr ? hooks_.cpu->Occupy(cost) : hooks_.engine->now();
  }

  TcpConn* NewConn();
  // Returns the simulated time the frame reaches the wire (CPU completion).
  // `tail` extends the payload within the same frame (gather transmission).
  sim::Cycles Emit(TcpConn* c, uint8_t flags, uint32_t seq, std::span<const uint8_t> payload,
                   uint32_t checksum, bool charge_checksum, bool charge_copy,
                   std::span<const uint8_t> tail = {});
  void SendPureAck(TcpConn* c);
  void ScheduleDelayedAck(TcpConn* c);
  void PumpSendQueue(TcpConn* c);
  // Current retransmission timeout for this connection, in cycles: Jacobson +
  // clamp + backoff + jitter.
  sim::Cycles RtoCycles(TcpConn* c);
  void ArmRto(TcpConn* c);
  void OnRto(TcpConn* c);
  void ArmFinWaitReaper(TcpConn* c);
  // Deadline-ordered reap index (mirrors the kernel's revocation deadline set):
  // one engine timer armed for the earliest deadline replaces a timer per
  // connection — O(log n) arm/cancel and no timer storm at fleet scale.
  void AddReapDeadline(TcpConn* c, sim::Cycles deadline);
  void CancelReapDeadline(TcpConn* c);
  void ArmReapTimer();
  void OnReapTimer();
  // Abnormal teardown: cancel timers, optionally emit an RST, fire on_close with
  // aborted() set, release the PCB. `trace_name` labels the `net` trace instant.
  void AbortConn(TcpConn* c, bool send_rst, const char* trace_name);
  void DropHalfOpen(TcpConn* c);  // backlog bookkeeping for kSynRcvd conns
  void ProcessSegment(TcpSegment seg);
  void UpdateRtt(TcpConn* c, sim::Cycles sample);
  void DeliverClose(TcpConn* c);
  void AutoRelease(TcpConn* c);

  Hooks hooks_;
  IpAddr ip_;
  TcpProfile profile_;
  // Hashed demux tables: segment dispatch and listen-side SYN dispatch are one
  // hash probe each, independent of how many connections or listeners exist.
  std::unordered_map<Port, Listener> listeners_;
  std::unordered_map<Port, uint32_t> half_open_;  // per-listener kSynRcvd population
  std::unordered_map<ConnKey, std::unique_ptr<TcpConn>> conns_;
  std::vector<std::unique_ptr<TcpConn>> pcb_pool_;
  std::unique_ptr<TcpConn> tmp_;  // freshly built PCB awaiting keying into conns_
  Port next_ephemeral_ = 20000;
  size_t peak_conns_ = 0;
  // Connections awaiting a reap deadline, ordered so the single timer always
  // watches the earliest. Cancellation just erases the entry; a timer armed for
  // a now-cancelled deadline fires, finds nothing due, and re-arms.
  std::set<std::pair<sim::Cycles, ConnKey>> reap_deadlines_;
  sim::Engine::EventId reap_timer_event_ = 0;
  sim::Cycles reap_timer_deadline_ = 0;  // deadline the armed timer targets
  TcpStats stats_;
  sim::Rng jitter_rng_;  // drawn only when arming a backed-off retransmission
  trace::Tracer* tracer_ = nullptr;
  uint32_t trace_track_ = 0;
  trace::LatencyHistogram* rtt_hist_ = nullptr;
};

}  // namespace exo::net

#endif  // EXO_NET_TCP_H_
