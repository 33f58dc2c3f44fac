// Client-side RPC transports.
//
// UdpRpcTransport is the classic NFS transport — one datagram per call, a
// retransmit timer, exponential backoff — extended with the paper's two
// tuning mechanisms, both off by default so the same class models the "old"
// UDP transport:
//   * dynamic per-class RTO estimation (RtoPolicy, A+4D/A+2D), with the RTO
//     recomputed on every NFS clock tick;
//   * a TCP-style congestion window on outstanding requests (no slow start).
//
// TcpRpcTransport runs calls over one TCP connection with 4-byte record
// marks between messages; reliability and congestion control come from TCP
// itself, so there is no RPC-level retransmission (and therefore none of the
// non-idempotent-retry hazards of UDP).
//
// Both transports implement the classic 4.3BSD mount semantics:
//   * soft — give up after max_tries transmissions, the call resolves with a
//     timeout Status (the mount's ETIMEDOUT);
//   * hard — never give up; after max_tries the transport announces "nfs
//     server not responding" (a recovery-stats event), keeps retrying at the
//     capped backoff, and announces "ok" when a reply finally arrives;
//   * intr — Interrupt() cancels everything in flight with kCancelled, the
//     only way out of a hard mount while the server is down.
// The TCP transport additionally reconnects after prolonged silence on an
// in-flight call (a crashed server loses its connections without sending
// anything) and re-issues the pending calls on the new connection.
#ifndef RENONFS_SRC_RPC_CLIENT_H_
#define RENONFS_SRC_RPC_CLIENT_H_

#include <array>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>

#include "src/mbuf/mbuf.h"
#include "src/net/udp.h"
#include "src/obs/trace.h"
#include "src/rpc/message.h"
#include "src/rpc/rto.h"
#include "src/sim/sync.h"
#include "src/sim/task.h"
#include "src/tcp/tcp.h"
#include "src/util/rng.h"
#include "src/util/stats.h"

namespace renonfs {

struct RpcTransportStats {
  uint64_t calls = 0;
  uint64_t replies = 0;
  uint64_t retransmits = 0;
  std::array<uint64_t, kNumTimedClasses + 1> retransmits_by_class{};
  uint64_t soft_timeouts = 0;  // gave up after max_tries
  uint64_t stray_replies = 0;  // reply for an xid no longer pending
  // TCP only: reply-stream record marks that failed validation. Each one
  // opens a resync hunt (below); only a failed hunt costs a connection cycle.
  uint64_t corrupted_records = 0;
  // TCP record resync: after a corrupt mark the transport hunts the stream
  // for the next believable reply boundary (plausible mark + the xid of a
  // call actually in flight) instead of cycling the connection outright.
  uint64_t resync_hunts = 0;
  uint64_t resync_successes = 0;  // framing re-established in place
  uint64_t resync_failures = 0;   // hunt abandoned: connection cycled
  std::array<RunningStat, kNumTimedClasses + 1> rtt_ms_by_class;

  RunningStat& RttFor(RpcTimerClass cls) { return rtt_ms_by_class[static_cast<size_t>(cls)]; }
  const RunningStat& RttFor(RpcTimerClass cls) const {
    return rtt_ms_by_class[static_cast<size_t>(cls)];
  }
};

// Outage/recovery events, the simulator's stand-in for the console messages
// a 4.3BSD client printed. An "episode" opens when a call exhausts
// max_tries transmissions without a reply and closes on the next reply.
struct RpcRecoveryStats {
  uint64_t not_responding_events = 0;  // "nfs server not responding"
  uint64_t server_ok_events = 0;       // "nfs server ok"
  uint64_t interrupted_calls = 0;      // calls cancelled by Interrupt()
  uint64_t reconnects = 0;             // TCP connection cycles after silence
  uint64_t reissued_calls = 0;         // calls re-sent on a new connection
  SimTime last_outage = 0;             // duration of the last closed episode
  SimTime longest_outage = 0;
};

// Per-call metadata, filled in when the call resolves. The NFS client uses
// transmissions > 1 to recognize results that may come from a re-executed
// non-idempotent procedure (the dup cache is lost across a server reboot).
struct RpcCallInfo {
  int transmissions = 0;  // datagrams (UDP) / connection sends (TCP)
};

class RpcClientTransport {
 public:
  virtual ~RpcClientTransport() = default;

  // Issues one RPC; resolves with the reply body (after the reply header) or
  // an error (timeout, garbage reply, server-side accept failure). If `info`
  // is non-null it is filled in before the call resolves; it must outlive
  // the call (the caller's coroutine frame does).
  virtual CoTask<StatusOr<MbufChain>> Call(uint32_t proc, RpcTimerClass cls, MbufChain args,
                                           RpcCallInfo* info) = 0;
  CoTask<StatusOr<MbufChain>> Call(uint32_t proc, RpcTimerClass cls, MbufChain args) {
    return Call(proc, cls, std::move(args), nullptr);
  }

  // intr mount support: cancels every call in flight with kCancelled and
  // returns how many were cancelled. A transport honours this only when its
  // options set `intr` (a plain hard mount is uninterruptible, faithfully).
  virtual size_t Interrupt() { return 0; }

  // Instrumentation: invoked once per completed call with the measured RTT
  // and the RTO that was in force when the call was (last) transmitted.
  using RttProbe = std::function<void(RpcTimerClass cls, SimTime rtt, SimTime rto)>;
  void set_rtt_probe(RttProbe probe) { rtt_probe_ = std::move(probe); }

  // Observability: call lifecycle events (send, retransmit, timeout,
  // completion) are recorded on the given track.
  void set_tracer(Tracer* tracer, uint16_t track) {
    tracer_ = tracer;
    trace_track_ = track;
  }

  const RpcTransportStats& stats() const { return stats_; }
  const RpcRecoveryStats& recovery_stats() const { return recovery_; }

 protected:
  // Outage episodes (RpcRecoveryStats): the first call to give up on the
  // server opens one at `now`, and the next reply closes it.
  void OpenOutageEpisode(SimTime now);
  void CloseOutageEpisode(SimTime now);

  void Trace(TraceEventKind kind, uint32_t xid, uint32_t proc, uint64_t arg = 0) {
    if (tracer_ != nullptr) {
      tracer_->Record(trace_track_, kind, xid, proc, arg);
    }
  }

  RpcTransportStats stats_;
  RpcRecoveryStats recovery_;
  RttProbe rtt_probe_;
  Tracer* tracer_ = nullptr;
  uint16_t trace_track_ = 0;

 private:
  bool not_responding_ = false;  // an outage episode is open
  SimTime outage_started_ = 0;
};

struct UdpRpcOptions {
  RtoPolicyOptions rto;
  RpcCongestionWindow::Options cwnd;
  int max_tries = 12;  // transmissions before a soft timeout / not-responding
  bool hard = false;   // hard mount: retry forever at the capped backoff
  bool intr = false;   // allow Interrupt() to cancel outstanding calls

  // The three transport personalities benchmarked in Section 4.
  static UdpRpcOptions FixedRto(SimTime timeo = Seconds(1)) {
    UdpRpcOptions o;
    o.rto.constant_timeout = timeo;
    o.rto.dynamic = false;
    o.cwnd.enabled = false;
    return o;
  }
  static UdpRpcOptions DynamicRto(SimTime timeo = Seconds(1)) {
    UdpRpcOptions o;
    o.rto.constant_timeout = timeo;
    o.rto.dynamic = true;
    o.cwnd.enabled = true;
    o.cwnd.slow_start = false;  // removed per the paper
    return o;
  }
};

class UdpRpcTransport : public RpcClientTransport {
 public:
  UdpRpcTransport(UdpStack* udp, uint16_t local_port, SockAddr server, UdpRpcOptions options);
  ~UdpRpcTransport() override;

  using RpcClientTransport::Call;
  CoTask<StatusOr<MbufChain>> Call(uint32_t proc, RpcTimerClass cls, MbufChain args,
                                   RpcCallInfo* info) override;
  size_t Interrupt() override;

  const RtoPolicy& rto_policy() const { return rto_policy_; }
  size_t outstanding() const { return outstanding_; }

 private:
  struct Pending {
    uint32_t xid = 0;
    uint32_t proc = 0;
    RpcTimerClass cls = RpcTimerClass::kOther;
    MbufChain wire;  // complete RPC message, retained for retransmission
    SimPromise<StatusOr<MbufChain>> promise;
    RpcCallInfo* info = nullptr;
    SimTime first_sent = 0;
    SimTime last_sent = 0;
    int tries = 0;          // transmissions so far
    bool on_wire = false;   // false while queued behind the congestion window
    bool retransmitted = false;  // Karn: suppress the RTT sample
  };

  void TransmitPending(Pending& pending);
  void OnDatagram(SockAddr from, MbufChain payload);
  void OnClockTick();
  void DrainSendQueue();
  void ResolvePending(uint32_t xid, StatusOr<MbufChain> result);

  UdpStack* udp_;
  uint16_t local_port_;
  SockAddr server_;
  UdpRpcOptions options_;
  RtoPolicy rto_policy_;
  RpcCongestionWindow cwnd_;
  uint32_t next_xid_;
  size_t outstanding_ = 0;
  std::map<uint32_t, Pending> pending_;
  std::deque<uint32_t> send_queue_;
  Timer tick_timer_;
  // Jitter applied to retransmit deadlines: without it, two requests lost to
  // the same queue overflow retransmit in lockstep on the NFS clock tick and
  // their fragmented replies collide at the bottleneck queue indefinitely.
  // Seeded from the node's RNG so every transport gets its own stream.
  Rng jitter_rng_;
};

struct TcpRpcOptions {
  TcpConfig tcp;
  bool hard = false;  // reconnect and re-issue forever after server silence
  bool intr = false;  // allow Interrupt() to cancel outstanding calls
  // Soft mount: give up on a call after this many transmissions (initial
  // send plus re-issues). 0 means wait forever — the historical behavior of
  // this transport, and the default.
  int max_tries = 0;
};

class TcpRpcTransport : public RpcClientTransport {
 public:
  TcpRpcTransport(TcpStack* tcp, uint16_t local_port, SockAddr server, TcpRpcOptions options);
  ~TcpRpcTransport() override;

  using RpcClientTransport::Call;
  CoTask<StatusOr<MbufChain>> Call(uint32_t proc, RpcTimerClass cls, MbufChain args,
                                   RpcCallInfo* info) override;
  size_t Interrupt() override;

  TcpConnection* connection() { return connection_; }

 private:
  struct Pending {
    uint32_t proc = 0;
    RpcTimerClass cls = RpcTimerClass::kOther;
    MbufChain wire;  // record-marked message, retained for re-issue
    SimPromise<StatusOr<MbufChain>> promise;
    RpcCallInfo* info = nullptr;
    SimTime sent_at = 0;    // first transmission
    SimTime last_sent = 0;  // latest (re-)transmission
    int tries = 1;
  };

  // Does this configuration ever re-issue calls (and thus need the
  // watchdog and retained wire copies)?
  bool RecoveryEnabled() const { return options_.hard || options_.max_tries > 0; }

  void OnData(MbufChain data);
  // Corrupt-mark recovery: scan the buffered stream for the next believable
  // reply boundary. Returns true when framing is re-established (the buffer
  // now starts at a record mark); condemns the stream when the hunt window
  // overruns without a hit.
  bool HuntForRecordMark();
  void ProcessRecord(MbufChain record);
  void OnWatchdog();
  void Reconnect(SimTime now);
  void ResolvePending(uint32_t xid, StatusOr<MbufChain> result);

  TcpStack* tcp_;
  uint16_t local_port_;
  SockAddr server_;
  TcpRpcOptions options_;
  TcpConnection* connection_ = nullptr;
  uint32_t next_xid_;
  std::map<uint32_t, Pending> pending_;
  MbufChain receive_buffer_;
  Timer watchdog_;
  // Cycles the connection when stream recovery gives up: armed with the
  // reply-timeout grace when a resync hunt starts (a starved hunt is the
  // same silence judgment the watchdog makes) and at zero delay when the
  // hunt window overruns. The deferral also matters mechanically — marks are
  // detected inside the connection's own data callback, where Close() would
  // destroy the object mid-delivery.
  Timer reconnect_timer_;
  bool stream_corrupt_ = false;  // discard stream data until the cycle fires
  bool hunting_ = false;         // between a corrupt mark and resync/give-up
};

}  // namespace renonfs

#endif  // RENONFS_SRC_RPC_CLIENT_H_
