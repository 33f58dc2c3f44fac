#include "src/rpc/client.h"

#include <algorithm>
#include <utility>
#include <vector>

#include "src/util/logging.h"
#include "src/xdr/xdr.h"

namespace renonfs {

namespace {
// The NFS clock: the UDP transport re-examines its retransmit timers on
// every tick, and jitters each retransmit deadline by up to one tick.
constexpr SimTime kNfsClockTick = Milliseconds(200);
// Silence on an in-flight TCP call before the transport assumes the
// connection is dead (a crashed server loses connections without sending
// anything) and starts a reconnect cycle. TCP's own retransmissions ride out
// shorter outages on the existing connection.
constexpr SimTime kReplyTimeout = Seconds(20);
constexpr SimTime kWatchdogInterval = Seconds(1);  // granularity of that check
}  // namespace

// --- RpcClientTransport -----------------------------------------------------

void RpcClientTransport::OpenOutageEpisode(SimTime now) {
  if (not_responding_) {
    return;
  }
  not_responding_ = true;
  outage_started_ = now;
  ++recovery_.not_responding_events;
}

void RpcClientTransport::CloseOutageEpisode(SimTime now) {
  if (!not_responding_) {
    return;
  }
  not_responding_ = false;
  const SimTime outage = now - outage_started_;
  recovery_.last_outage = outage;
  recovery_.longest_outage = std::max(recovery_.longest_outage, outage);
  ++recovery_.server_ok_events;
}

// --- UdpRpcTransport --------------------------------------------------------

UdpRpcTransport::UdpRpcTransport(UdpStack* udp, uint16_t local_port, SockAddr server,
                                 UdpRpcOptions options)
    : udp_(udp),
      local_port_(local_port),
      server_(server),
      options_(options),
      rto_policy_(options.rto),
      cwnd_(options.cwnd),
      next_xid_(static_cast<uint32_t>(udp->node()->id()) << 20 | 1),
      tick_timer_(udp->node()->scheduler(), [this]() { OnClockTick(); }),
      jitter_rng_(udp->node()->rng().NextUint64()) {
  udp_->Bind(local_port_, [this](SockAddr from, MbufChain payload) {
    OnDatagram(from, std::move(payload));
  });
  tick_timer_.Start(kNfsClockTick);
}

UdpRpcTransport::~UdpRpcTransport() {
  tick_timer_.Stop();
  udp_->Unbind(local_port_);
}

CoTask<StatusOr<MbufChain>> UdpRpcTransport::Call(uint32_t proc, RpcTimerClass cls,
                                                  MbufChain args, RpcCallInfo* info) {
  const uint32_t xid = next_xid_++;
  RpcCallHeader header;
  header.xid = xid;
  header.prog = kNfsProgram;
  header.vers = kNfsVersion;
  header.proc = proc;

  MbufChain wire;
  XdrEncoder enc(&wire);
  EncodeCallHeader(enc, header);
  wire.Concat(std::move(args));

  Pending& pending = pending_[xid];
  pending.xid = xid;
  pending.proc = proc;
  pending.cls = cls;
  pending.wire = std::move(wire);
  pending.info = info;
  ++stats_.calls;

  SimFuture<StatusOr<MbufChain>> future;
  pending.promise = SimPromise<StatusOr<MbufChain>>(future);

  // Building the request costs client CPU.
  udp_->node()->cpu().ChargeBackground(udp_->node()->profile().rpc_build_reply,
                                       CostCategory::kRpc);

  // Root-span open: before the cwnd gate, so time queued behind the
  // congestion window is measurable as send wait.
  Trace(TraceEventKind::kClientCallStart, xid, proc);

  if (cwnd_.CanSend(outstanding_)) {
    TransmitPending(pending);
  } else {
    send_queue_.push_back(xid);
  }

  StatusOr<MbufChain> result = co_await future;
  co_return result;
}

void UdpRpcTransport::TransmitPending(Pending& pending) {
  const SimTime now = udp_->node()->scheduler().now();
  if (pending.tries == 0) {
    pending.first_sent = now;
    ++outstanding_;
  }
  pending.last_sent = now;
  ++pending.tries;
  pending.on_wire = true;
  if (pending.tries == 1) {
    Trace(TraceEventKind::kClientSend, pending.xid, pending.proc);
  } else {
    Trace(TraceEventKind::kClientRetransmit, pending.xid, pending.proc,
          static_cast<uint64_t>(pending.tries));
  }
  udp_->SendTo(local_port_, server_, pending.wire.Clone());
}

void UdpRpcTransport::ResolvePending(uint32_t xid, StatusOr<MbufChain> result) {
  auto node = pending_.extract(xid);
  if (node.empty()) {
    return;
  }
  Pending pending = std::move(node.mapped());
  if (pending.on_wire) {
    CHECK_GT(outstanding_, 0u);
    --outstanding_;
  }
  DrainSendQueue();
  if (pending.info != nullptr) {
    pending.info->transmissions = pending.tries;
  }
  Trace(TraceEventKind::kClientComplete, xid, pending.proc, result.ok() ? 1 : 0);
  pending.promise.Set(std::move(result));
}

size_t UdpRpcTransport::Interrupt() {
  if (!options_.intr) {
    return 0;
  }
  send_queue_.clear();  // queued calls must not be transmitted as slots free up
  std::vector<uint32_t> xids;
  xids.reserve(pending_.size());
  for (const auto& [xid, pending] : pending_) {
    xids.push_back(xid);
  }
  for (uint32_t xid : xids) {
    ++recovery_.interrupted_calls;
    ResolvePending(xid, CancelledError("rpc: call interrupted"));
  }
  return xids.size();
}

void UdpRpcTransport::OnDatagram(SockAddr from, MbufChain payload) {
  (void)from;
  XdrDecoder dec(&payload);
  auto header_or = DecodeReplyHeader(dec);
  if (!header_or.ok()) {
    return;  // unparseable reply
  }
  const RpcReplyHeader header = header_or.value();
  auto it = pending_.find(header.xid);
  if (it == pending_.end()) {
    ++stats_.stray_replies;  // a late reply to a retransmitted request
    return;
  }
  Pending& pending = it->second;
  const SimTime now = udp_->node()->scheduler().now();
  const SimTime rtt = now - pending.first_sent;
  const SimTime rto = rto_policy_.CurrentRto(pending.cls);

  // RTT sampling. Clean (non-retransmitted) exchanges always feed the
  // estimator. Retransmitted ones are sampled only while the estimator has
  // no data yet: strict Karn would deadlock when the true RTT exceeds the
  // default RTO (every request retransmitted, nothing ever sampled — e.g.
  // 8 KB reads over the 56 Kbps line vs the 1 s default), and time since
  // first transmission is a safe overestimate for bootstrapping. Once the
  // estimator is live, Karn applies, so loss stalls never pollute it.
  // kOther has no estimator: it always runs on the constant timeout.
  if (pending.cls != RpcTimerClass::kOther &&
      (!pending.retransmitted || !rto_policy_.estimator(pending.cls).valid())) {
    rto_policy_.AddSample(pending.cls, rtt);
  }
  cwnd_.OnReply();
  CloseOutageEpisode(now);
  ++stats_.replies;
  stats_.RttFor(pending.cls).Add(ToMilliseconds(rtt));
  if (rtt_probe_) {
    rtt_probe_(pending.cls, rtt, rto);
  }

  // Client-side reply processing cost.
  udp_->node()->cpu().ChargeBackground(udp_->node()->profile().rpc_dispatch,
                                       CostCategory::kRpc);

  if (header.stat != RpcAcceptStat::kSuccess) {
    ResolvePending(header.xid, StatusForAcceptStat(header.stat));
    return;
  }
  MbufChain body = payload.CopyRange(dec.Consumed(), payload.Length() - dec.Consumed());
  ResolvePending(header.xid, std::move(body));
}

void UdpRpcTransport::OnClockTick() {
  tick_timer_.Start(kNfsClockTick);
  const SimTime now = udp_->node()->scheduler().now();
  // The RTO is recomputed from the estimators *now*, on the tick, rather
  // than using a value snapshotted at transmission time.
  std::vector<uint32_t> expired;
  for (auto& [xid, pending] : pending_) {
    if (!pending.on_wire) {
      continue;
    }
    const SimTime rto = rto_policy_.BackedOffRto(pending.cls, pending.tries - 1);
    const SimTime jitter =
        static_cast<SimTime>(jitter_rng_.UniformUint64(static_cast<uint64_t>(kNfsClockTick)));
    if (now - pending.last_sent < rto + jitter) {
      continue;
    }
    if (pending.tries >= options_.max_tries) {
      if (!options_.hard) {
        expired.push_back(xid);
        continue;
      }
      // Hard mount: the call has used up a soft mount's patience. Announce
      // the outage once and keep retrying — BackedOffRto is already capped
      // at max_rto, so the retry cadence settles there.
      OpenOutageEpisode(now);
    }
    // Retransmit: back off, shrink the congestion window.
    pending.retransmitted = true;
    ++stats_.retransmits;
    ++stats_.retransmits_by_class[static_cast<size_t>(pending.cls)];
    cwnd_.OnTimeout();
    TransmitPending(pending);
  }
  for (uint32_t xid : expired) {
    ++stats_.soft_timeouts;
    OpenOutageEpisode(now);  // soft mounts also print "not responding" as they give up
    Trace(TraceEventKind::kClientTimeout, xid, pending_[xid].proc);
    ResolvePending(xid, TimeoutError("rpc: request timed out"));
  }
}

void UdpRpcTransport::DrainSendQueue() {
  while (!send_queue_.empty() && cwnd_.CanSend(outstanding_)) {
    const uint32_t xid = send_queue_.front();
    send_queue_.pop_front();
    auto it = pending_.find(xid);
    if (it == pending_.end()) {
      continue;  // already resolved (e.g. timed out while queued)
    }
    TransmitPending(it->second);
  }
}

// --- TcpRpcTransport --------------------------------------------------------

TcpRpcTransport::TcpRpcTransport(TcpStack* tcp, uint16_t local_port, SockAddr server,
                                 TcpRpcOptions options)
    : tcp_(tcp),
      local_port_(local_port),
      server_(server),
      options_(options),
      next_xid_(static_cast<uint32_t>(tcp->node()->id()) << 20 | 0x80001),
      watchdog_(tcp->node()->scheduler(), [this]() { OnWatchdog(); }),
      reconnect_timer_(tcp->node()->scheduler(),
                       [this]() { Reconnect(tcp_->node()->scheduler().now()); }) {
  connection_ = tcp_->Connect(local_port, server_, []() {}, options_.tcp);
  connection_->set_data_handler([this](MbufChain data) { OnData(std::move(data)); });
  if (RecoveryEnabled()) {
    watchdog_.Start(kWatchdogInterval);
  }
}

TcpRpcTransport::~TcpRpcTransport() {
  watchdog_.Stop();
  if (connection_ != nullptr) {
    connection_->Close();
    connection_ = nullptr;
  }
}

CoTask<StatusOr<MbufChain>> TcpRpcTransport::Call(uint32_t proc, RpcTimerClass cls,
                                                  MbufChain args, RpcCallInfo* info) {
  const uint32_t xid = next_xid_++;
  RpcCallHeader header;
  header.xid = xid;
  header.prog = kNfsProgram;
  header.vers = kNfsVersion;
  header.proc = proc;

  MbufChain message;
  XdrEncoder enc(&message);
  EncodeCallHeader(enc, header);
  message.Concat(std::move(args));

  // Record mark: last-fragment bit plus the record length.
  const uint32_t mark = 0x80000000u | static_cast<uint32_t>(message.Length());
  uint8_t* rm = message.Prepend(4);
  rm[0] = static_cast<uint8_t>(mark >> 24);
  rm[1] = static_cast<uint8_t>(mark >> 16);
  rm[2] = static_cast<uint8_t>(mark >> 8);
  rm[3] = static_cast<uint8_t>(mark);

  Pending& pending = pending_[xid];
  pending.proc = proc;
  pending.cls = cls;
  pending.sent_at = tcp_->node()->scheduler().now();
  pending.last_sent = pending.sent_at;
  pending.info = info;
  if (RecoveryEnabled()) {
    pending.wire = message.Clone();  // retained for re-issue after a reconnect
  }
  ++stats_.calls;

  SimFuture<StatusOr<MbufChain>> future;
  pending.promise = SimPromise<StatusOr<MbufChain>>(future);

  tcp_->node()->cpu().ChargeBackground(tcp_->node()->profile().rpc_build_reply,
                                       CostCategory::kRpc);
  Trace(TraceEventKind::kClientCallStart, xid, proc);
  Trace(TraceEventKind::kClientSend, xid, proc);
  connection_->Send(std::move(message));

  StatusOr<MbufChain> result = co_await future;
  co_return result;
}

namespace {
// Big-endian 32-bit load, the byte order of record marks and XDR words.
uint32_t LoadBe32(const uint8_t* b) {
  return static_cast<uint32_t>(b[0]) << 24 | static_cast<uint32_t>(b[1]) << 16 |
         static_cast<uint32_t>(b[2]) << 8 | static_cast<uint32_t>(b[3]);
}
// How much stream to buffer during a resync hunt before conceding the
// boundary is unfindable: two maximal records, so a boundary hidden behind
// one garbled full-size record is still inside the window.
constexpr size_t kResyncHuntWindow = 2 * kMaxRpcRecordBytes;
}  // namespace

void TcpRpcTransport::OnData(MbufChain data) {
  if (stream_corrupt_) {
    return;  // stream already condemned; a reconnect event is queued
  }
  receive_buffer_.Concat(std::move(data));
  for (;;) {
    if (hunting_ && !HuntForRecordMark()) {
      return;  // still hunting, or the hunt just condemned the stream
    }
    if (receive_buffer_.Length() < 4) {
      return;
    }
    uint8_t rm[4];
    CHECK(receive_buffer_.CopyOut(0, 4, rm));
    const uint32_t mark = LoadBe32(rm);
    const size_t record_len = mark & 0x7fffffffu;
    if ((mark & 0x80000000u) == 0 || record_len > kMaxRpcRecordBytes) {
      // The record framing is lost. Rather than paying a full connection
      // cycle (reconnect + re-issue of everything in flight) immediately,
      // hunt the already-buffered stream for the next believable reply
      // boundary; the reconnect timer is armed as the give-up deadline in
      // case the hunt starves — a hunt with no data coming is the same
      // silence judgment the watchdog makes.
      ++stats_.corrupted_records;
      ++stats_.resync_hunts;
      hunting_ = true;
      reconnect_timer_.Start(kReplyTimeout);
      continue;
    }
    if (receive_buffer_.Length() < 4 + record_len) {
      return;  // record incomplete; wait for more stream data
    }
    MbufChain record = receive_buffer_.CopyRange(4, record_len);
    receive_buffer_.TrimFront(4 + record_len);
    ProcessRecord(std::move(record));
  }
}

bool TcpRpcTransport::HuntForRecordMark() {
  // A believable boundary: a mark with the last-fragment bit and a sane
  // length, opening a record whose first word is the xid of a call actually
  // in flight and whose second is REPLY. Random bytes pass all three tests
  // with probability ~2^-50 per offset, so a hit is the real framing.
  //
  // Every arrival rescans from offset 1: the xid test consults pending_,
  // which may have changed since the last arrival. The buffer is read in
  // one pass rather than one chain walk per offset.
  const std::vector<uint8_t> bytes = receive_buffer_.ContiguousCopy();
  const size_t len = bytes.size();
  for (size_t p = 1; p + 12 <= len; ++p) {
    const uint8_t* window = bytes.data() + p;
    const uint32_t mark = LoadBe32(window);
    const size_t record_len = mark & 0x7fffffffu;
    if ((mark & 0x80000000u) == 0 || record_len < 12 || record_len > kMaxRpcRecordBytes) {
      continue;
    }
    if (LoadBe32(window + 8) != kRpcMsgReply || !pending_.contains(LoadBe32(window + 4))) {
      continue;
    }
    receive_buffer_.TrimFront(p);
    hunting_ = false;
    reconnect_timer_.Stop();
    ++stats_.resync_successes;
    return true;
  }
  if (len > kResyncHuntWindow) {
    // No boundary in a window big enough to hold one: concede and cycle the
    // connection (deferred — we are inside the connection's data callback).
    ++stats_.resync_failures;
    hunting_ = false;
    stream_corrupt_ = true;
    receive_buffer_ = MbufChain();
    reconnect_timer_.Start(0);
  }
  return false;
}

void TcpRpcTransport::ProcessRecord(MbufChain record) {
  XdrDecoder dec(&record);
  auto header_or = DecodeReplyHeader(dec);
  if (!header_or.ok()) {
    return;
  }
  const RpcReplyHeader header = header_or.value();
  auto it = pending_.find(header.xid);
  if (it == pending_.end()) {
    ++stats_.stray_replies;
    return;
  }
  Pending& pending = it->second;
  CloseOutageEpisode(tcp_->node()->scheduler().now());
  ++stats_.replies;
  // Karn: a call re-issued on a new connection has an ambiguous RTT — the
  // elapsed time since sent_at spans the whole outage (tens of seconds) and
  // would poison the per-class stats. Sample only clean first-transmission
  // exchanges, mirroring the UDP transport's retransmission handling.
  if (pending.tries == 1) {
    const SimTime rtt = tcp_->node()->scheduler().now() - pending.sent_at;
    stats_.RttFor(pending.cls).Add(ToMilliseconds(rtt));
    if (rtt_probe_) {
      rtt_probe_(pending.cls, rtt, connection_->rto());
    }
  }
  tcp_->node()->cpu().ChargeBackground(tcp_->node()->profile().rpc_dispatch,
                                       CostCategory::kRpc);

  if (header.stat != RpcAcceptStat::kSuccess) {
    ResolvePending(header.xid, StatusForAcceptStat(header.stat));
    return;
  }
  MbufChain body = record.CopyRange(dec.Consumed(), record.Length() - dec.Consumed());
  ResolvePending(header.xid, std::move(body));
}

void TcpRpcTransport::ResolvePending(uint32_t xid, StatusOr<MbufChain> result) {
  auto node = pending_.extract(xid);
  if (node.empty()) {
    return;
  }
  Pending pending = std::move(node.mapped());
  if (pending.info != nullptr) {
    pending.info->transmissions = pending.tries;
  }
  Trace(TraceEventKind::kClientComplete, xid, pending.proc, result.ok() ? 1 : 0);
  pending.promise.Set(std::move(result));
}

void TcpRpcTransport::OnWatchdog() {
  watchdog_.Start(kWatchdogInterval);
  if (pending_.empty()) {
    return;
  }
  const SimTime now = tcp_->node()->scheduler().now();
  // The connection is presumed dead only after *every* in-flight call has
  // been silent past the threshold: progress on any call means the stream
  // is alive and TCP's own retransmission is the right recovery.
  SimTime most_recent = 0;
  for (const auto& [xid, pending] : pending_) {
    most_recent = std::max(most_recent, pending.last_sent);
  }
  if (now - most_recent < kReplyTimeout) {
    return;
  }
  OpenOutageEpisode(now);
  // Soft mount: calls that have used up their transmissions resolve with
  // the mount's ETIMEDOUT instead of riding the next connection.
  if (options_.max_tries > 0) {
    std::vector<uint32_t> expired;
    for (const auto& [xid, pending] : pending_) {
      if (pending.tries >= options_.max_tries) {
        expired.push_back(xid);
      }
    }
    for (uint32_t xid : expired) {
      ++stats_.soft_timeouts;
      Trace(TraceEventKind::kClientTimeout, xid, pending_[xid].proc);
      ResolvePending(xid, TimeoutError("rpc: request timed out"));
    }
  }
  // The silence threshold was crossed, so the connection is presumed dead.
  // Reconnect even if the expiry above emptied pending_ (max_tries == 1
  // expires every call on its first watchdog pass): the crashed server
  // forgot the connection without sending anything, so without a fresh
  // connection every future call would ride the dead stream and time out
  // forever.
  Reconnect(now);
}

void TcpRpcTransport::Reconnect(SimTime now) {
  if (hunting_) {
    // The resync hunt never found a boundary before its deadline (or the
    // watchdog gave up on the silence first): a hunt failure either way.
    hunting_ = false;
    ++stats_.resync_failures;
  }
  // The watchdog and the corrupt-stream timer can both decide to cycle the
  // connection; whichever fires first wins and the other becomes a no-op.
  stream_corrupt_ = false;
  reconnect_timer_.Stop();
  ++reconnects_;
  ++recovery_.reconnects;
  receive_buffer_ = MbufChain();  // a partial record from the old stream is garbage
  if (connection_ != nullptr) {
    connection_->Close();
    connection_ = nullptr;
  }
  // A fresh local port for each cycle, like a real client binding a new
  // port: if the server did *not* crash (e.g. a healed partition), its half
  // of the old connection still exists and would swallow a SYN reusing the
  // old port pair. Drawn from the stack's ephemeral allocator so concurrent
  // mounts on the same node cannot collide with each other's ports.
  const uint16_t port = tcp_->AllocateEphemeralPort();
  connection_ = tcp_->Connect(port, server_, []() {}, options_.tcp);
  connection_->set_data_handler([this](MbufChain data) { OnData(std::move(data)); });
  // Re-issue every pending call. Send() buffers until the handshake
  // completes, so this is safe even though the connection is not yet
  // established. Re-execution on the server is possible (there is no dup
  // cache on the TCP path) — the NFS client absorbs the resulting
  // EEXIST/ENOENT class of errors for retried calls.
  std::vector<uint32_t> unrecoverable;
  for (auto& [xid, pending] : pending_) {
    if (pending.wire.Empty()) {
      // No retained copy (recovery disabled, e.g. a corrupt-stream cycle on
      // a plain mount): the call died with the old connection. Fail it
      // rather than leave it pending forever.
      unrecoverable.push_back(xid);
      continue;
    }
    ++pending.tries;
    pending.last_sent = now;
    ++stats_.retransmits;
    ++stats_.retransmits_by_class[static_cast<size_t>(pending.cls)];
    ++recovery_.reissued_calls;
    Trace(TraceEventKind::kClientRetransmit, xid, pending.proc,
          static_cast<uint64_t>(pending.tries));
    connection_->Send(pending.wire.Clone());
  }
  for (uint32_t xid : unrecoverable) {
    ResolvePending(xid, IoError("rpc: connection lost with no retained call"));
  }
}

size_t TcpRpcTransport::Interrupt() {
  if (!options_.intr) {
    return 0;
  }
  std::vector<uint32_t> xids;
  xids.reserve(pending_.size());
  for (const auto& [xid, pending] : pending_) {
    xids.push_back(xid);
  }
  for (uint32_t xid : xids) {
    ++recovery_.interrupted_calls;
    ResolvePending(xid, CancelledError("rpc: call interrupted"));
  }
  return xids.size();
}

}  // namespace renonfs
