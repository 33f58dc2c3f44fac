#include "src/tcp/tcp.h"

#include <algorithm>
#include <utility>

#include "src/util/logging.h"

namespace renonfs {

namespace {

constexpr size_t kAdvertisedWindow = 16 * 1024;
constexpr SimTime kMinRto = Milliseconds(500);
constexpr SimTime kInitialRto = Seconds(3);
// BSD delayed acknowledgements: ack every second data segment or after
// the timer, and piggyback on any outgoing segment. This is what lets an
// RPC reply carry the ack for the call.
constexpr SimTime kDelayedAckTimeout = Milliseconds(200);

void PutU16(uint8_t* p, uint16_t v) {
  p[0] = static_cast<uint8_t>(v >> 8);
  p[1] = static_cast<uint8_t>(v);
}

void PutU32(uint8_t* p, uint32_t v) {
  p[0] = static_cast<uint8_t>(v >> 24);
  p[1] = static_cast<uint8_t>(v >> 16);
  p[2] = static_cast<uint8_t>(v >> 8);
  p[3] = static_cast<uint8_t>(v);
}

uint16_t GetU16(const uint8_t* p) { return static_cast<uint16_t>(p[0]) << 8 | p[1]; }

uint32_t GetU32(const uint8_t* p) {
  return static_cast<uint32_t>(p[0]) << 24 | static_cast<uint32_t>(p[1]) << 16 |
         static_cast<uint32_t>(p[2]) << 8 | static_cast<uint32_t>(p[3]);
}

// Reconstructs a 64-bit sequence number from its low 32 bits, choosing the
// candidate nearest the reference.
uint64_t Unwrap(uint64_t ref, uint32_t raw) {
  const uint64_t span = 1ull << 32;
  uint64_t candidate = (ref & ~(span - 1)) | raw;
  uint64_t best = candidate;
  uint64_t best_dist = candidate > ref ? candidate - ref : ref - candidate;
  for (const uint64_t alt : {candidate + span, candidate >= span ? candidate - span : candidate}) {
    const uint64_t dist = alt > ref ? alt - ref : ref - alt;
    if (dist < best_dist) {
      best = alt;
      best_dist = dist;
    }
  }
  return best;
}

}  // namespace

// --- TcpConnection ----------------------------------------------------------

TcpConnection::TcpConnection(TcpStack* stack, SockAddr local, SockAddr remote, TcpConfig config)
    : stack_(stack),
      local_(local),
      remote_(remote),
      config_(config),
      rto_(kInitialRto),
      retransmit_timer_(stack->scheduler(), [this]() { OnRetransmitTimeout(); }),
      delack_timer_(stack->scheduler(), [this]() { SendAck(); }) {
  cwnd_ = config_.mss;
  ssthresh_ = 64 * 1024;
  snd_wnd_ = kAdvertisedWindow;
}

TcpConnection::~TcpConnection() = default;

void TcpConnection::StartActiveOpen(ConnectedHandler on_connected) {
  connected_handler_ = std::move(on_connected);
  iss_ = stack_->next_iss_;
  stack_->next_iss_ += 64 * 1024;
  snd_una_ = iss_;
  snd_nxt_ = iss_ + 1;  // SYN occupies one sequence number
  snd_max_ = snd_nxt_;
  state_ = State::kSynSent;
  SendSegment(iss_, 0, kFlagSyn, false);
  ArmRetransmitTimer();
}

void TcpConnection::StartPassiveOpen(uint64_t peer_iss) {
  iss_ = stack_->next_iss_;
  stack_->next_iss_ += 64 * 1024;
  irs_ = peer_iss;
  rcv_nxt_ = peer_iss + 1;
  snd_una_ = iss_;
  snd_nxt_ = iss_ + 1;
  snd_max_ = snd_nxt_;
  state_ = State::kSynReceived;
  SendSegment(iss_, 0, kFlagSyn | kFlagAck, false);
  ArmRetransmitTimer();
}

void TcpConnection::Send(MbufChain data) {
  stats_.bytes_sent += data.Length();
  send_buffer_.Concat(std::move(data));
  TrySend();
}

void TcpConnection::Close() {
  retransmit_timer_.Stop();
  delack_timer_.Stop();
  state_ = State::kClosed;
  stack_->Deregister(this);  // destroys *this
}

size_t TcpConnection::EffectiveWindow() const {
  const size_t flow = snd_wnd_ > 0 ? snd_wnd_ : config_.mss;
  return std::min(cwnd_, flow);
}

void TcpConnection::OnSegment(Segment segment) {
  ++stats_.segments_received;
  const bool has_syn = (segment.flags & kFlagSyn) != 0;
  const bool has_ack = (segment.flags & kFlagAck) != 0;

  switch (state_) {
    case State::kClosed:
      return;

    case State::kSynSent: {
      if (!has_syn || !has_ack) {
        return;
      }
      const uint64_t ack = Unwrap(snd_nxt_, static_cast<uint32_t>(segment.ack));
      if (ack != iss_ + 1) {
        return;
      }
      irs_ = segment.seq;  // raw value is fine: fresh ISS, no wrap yet
      rcv_nxt_ = irs_ + 1;
      snd_una_ = ack;
      snd_wnd_ = segment.window;
      state_ = State::kEstablished;
      retransmit_timer_.Stop();
      rto_ = kInitialRto;
      backed_off_rto_ = 0;
      SendAck();
      if (connected_handler_) {
        auto handler = std::move(connected_handler_);
        handler();
      }
      TrySend();
      return;
    }

    case State::kSynReceived: {
      if (!has_ack) {
        return;
      }
      const uint64_t ack = Unwrap(snd_nxt_, static_cast<uint32_t>(segment.ack));
      if (ack != iss_ + 1) {
        return;
      }
      snd_una_ = ack;
      snd_wnd_ = segment.window;
      state_ = State::kEstablished;
      retransmit_timer_.Stop();
      rto_ = kInitialRto;
      backed_off_rto_ = 0;
      if (!segment.payload.Empty()) {
        AcceptData(std::move(segment));
      }
      return;
    }

    case State::kEstablished: {
      if (has_ack) {
        const uint64_t ack = Unwrap(snd_una_, static_cast<uint32_t>(segment.ack));
        OnAck(ack, segment.window);
      }
      if (!segment.payload.Empty()) {
        AcceptData(std::move(segment));
      }
      return;
    }
  }
}

void TcpConnection::OnAck(uint64_t ack, size_t peer_window) {
  snd_wnd_ = peer_window;
  if (ack > snd_max_) {
    return;  // acks data never sent; ignore
  }
  if (ack <= snd_una_) {
    // Duplicate ack?
    if (ack == snd_una_ && snd_max_ > snd_una_) {
      ++dup_acks_;
      if (dup_acks_ == 3) {
        // Fast retransmit + Reno fast recovery.
        ++stats_.fast_retransmits;
        ssthresh_ = std::max(BytesInFlight() / 2, 2 * config_.mss);
        const size_t len =
            std::min<uint64_t>(config_.mss, (snd_una_ + send_buffer_.Length()) - snd_una_);
        if (len > 0) {
          SendSegment(snd_una_, len, kFlagAck, true);
        }
        cwnd_ = ssthresh_ + 3 * config_.mss;
        in_fast_recovery_ = true;
      } else if (dup_acks_ > 3 && in_fast_recovery_) {
        cwnd_ += config_.mss;  // window inflation
        TrySend();
      }
    }
    return;
  }

  // New data acknowledged.
  const uint64_t newly_acked = ack - snd_una_;
  // The send buffer starts at snd_una_ once established; handshake sequence
  // space (the SYN) is not in the buffer.
  const uint64_t buffered_acked = std::min<uint64_t>(newly_acked, send_buffer_.Length());
  if (buffered_acked > 0) {
    send_buffer_.TrimFront(buffered_acked);
  }

  // RTT sample (Karn: timing_active_ is cleared on any retransmission).
  if (timing_active_ && ack >= timed_seq_) {
    timing_active_ = false;
    UpdateRtt(stack_->scheduler().now() - timed_at_);
  }

  if (in_fast_recovery_) {
    cwnd_ = ssthresh_;  // deflate
    in_fast_recovery_ = false;
  } else if (cwnd_ < ssthresh_) {
    cwnd_ += config_.mss;  // slow start
  } else {
    cwnd_ += std::max<size_t>(1, config_.mss * config_.mss / cwnd_);  // congestion avoidance
  }

  snd_una_ = ack;
  if (snd_nxt_ < snd_una_) {
    snd_nxt_ = snd_una_;
  }
  dup_acks_ = 0;
  backed_off_rto_ = 0;

  if (snd_una_ < snd_max_) {
    ArmRetransmitTimer();
  } else {
    retransmit_timer_.Stop();
  }
  TrySend();
}

void TcpConnection::AcceptData(Segment segment) {
  uint64_t seq = Unwrap(rcv_nxt_, static_cast<uint32_t>(segment.seq));
  MbufChain data = std::move(segment.payload);

  if (seq + data.Length() <= rcv_nxt_) {
    ScheduleAck(/*immediate=*/true);  // duplicate: ack now (peer may be probing)
    return;
  }
  if (seq < rcv_nxt_) {
    data.TrimFront(rcv_nxt_ - seq);
    seq = rcv_nxt_;
  }
  if (seq > rcv_nxt_) {
    // Hole: buffer out of order, send duplicate ack.
    if (!out_of_order_.contains(seq)) {
      out_of_order_[seq] = std::move(data);
    }
    ScheduleAck(/*immediate=*/true);  // duplicate ack fuels fast retransmit
    return;
  }

  // In order: deliver, then drain any now-contiguous buffered segments.
  MbufChain deliverable = std::move(data);
  rcv_nxt_ = seq + deliverable.Length();
  for (auto it = out_of_order_.begin(); it != out_of_order_.end();) {
    if (it->first > rcv_nxt_) {
      break;
    }
    const uint64_t end = it->first + it->second.Length();
    if (end > rcv_nxt_) {
      MbufChain piece = std::move(it->second);
      piece.TrimFront(rcv_nxt_ - it->first);
      rcv_nxt_ = end;
      deliverable.Concat(std::move(piece));
    }
    it = out_of_order_.erase(it);
  }

  stats_.bytes_delivered += deliverable.Length();
  stack_->node()->cpu().ChargeBackground(stack_->node()->profile().socket_wakeup,
                                         CostCategory::kTcp);
  ++unacked_data_segments_;
  ScheduleAck(/*immediate=*/unacked_data_segments_ >= 2);
  if (data_handler_) {
    data_handler_(std::move(deliverable));
  }
}

void TcpConnection::TrySend() {
  if (state_ != State::kEstablished) {
    return;
  }
  const uint64_t data_end = snd_una_ + send_buffer_.Length();
  while (true) {
    const size_t window = EffectiveWindow();
    const size_t in_flight = BytesInFlight();
    if (snd_nxt_ >= data_end || in_flight >= window) {
      return;
    }
    const size_t budget = window - in_flight;
    const size_t len = std::min<uint64_t>({config_.mss, data_end - snd_nxt_, budget});
    if (len == 0) {
      return;
    }
    SendSegment(snd_nxt_, len, kFlagAck, snd_nxt_ < snd_max_);
    snd_nxt_ += len;
    snd_max_ = std::max(snd_max_, snd_nxt_);
  }
}

void TcpConnection::SendSegment(uint64_t seq, size_t len, uint8_t flags, bool retransmission) {
  Segment segment;
  segment.src_port = local_.port;
  segment.dst_port = remote_.port;
  segment.seq = seq;
  segment.ack = (flags & kFlagAck) ? rcv_nxt_ : 0;
  segment.flags = flags;
  segment.window = kAdvertisedWindow;
  if (len > 0) {
    const uint64_t offset = seq - snd_una_;
    CHECK_LE(offset + len, send_buffer_.Length());
    segment.payload = send_buffer_.CopyRange(offset, len);
  }

  if (flags & kFlagAck) {
    // Piggybacked or explicit: the pending delayed ack is satisfied.
    delack_timer_.Stop();
    unacked_data_segments_ = 0;
  }
  if (retransmission) {
    ++stats_.retransmits;
    timing_active_ = false;  // Karn's rule
  } else if (!timing_active_ && len > 0) {
    timing_active_ = true;
    timed_seq_ = seq + len;
    timed_at_ = stack_->scheduler().now();
  }
  ++stats_.segments_sent;

  stack_->Output(std::move(segment), remote_.host);
  if ((len > 0 || (flags & kFlagSyn)) && !retransmit_timer_.pending()) {
    ArmRetransmitTimer();
  }
}

void TcpConnection::SendAck() { SendSegment(snd_nxt_, 0, kFlagAck, false); }

void TcpConnection::ScheduleAck(bool immediate) {
  if (immediate) {
    SendAck();
    return;
  }
  if (!delack_timer_.pending()) {
    delack_timer_.Start(kDelayedAckTimeout);
  }
}

void TcpConnection::ArmRetransmitTimer() {
  const SimTime effective = backed_off_rto_ > 0 ? backed_off_rto_ : rto_;
  retransmit_timer_.Start(effective);
}

void TcpConnection::OnRetransmitTimeout() {
  ++stats_.timeouts;
  const SimTime effective = backed_off_rto_ > 0 ? backed_off_rto_ : rto_;
  backed_off_rto_ = std::min(effective * 2, config_.max_rto);

  switch (state_) {
    case State::kClosed:
      return;
    case State::kSynSent:
      ++stats_.retransmits;
      SendSegment(iss_, 0, kFlagSyn, false);
      ArmRetransmitTimer();
      return;
    case State::kSynReceived:
      ++stats_.retransmits;
      SendSegment(iss_, 0, kFlagSyn | kFlagAck, false);
      ArmRetransmitTimer();
      return;
    case State::kEstablished:
      break;
  }

  // Standard Van Jacobson reaction: collapse to one segment, halve ssthresh.
  ssthresh_ = std::max(BytesInFlight() / 2, 2 * config_.mss);
  cwnd_ = config_.mss;
  dup_acks_ = 0;
  in_fast_recovery_ = false;
  timing_active_ = false;
  snd_nxt_ = snd_una_;
  if (send_buffer_.Length() > 0) {
    const size_t len = std::min<size_t>(config_.mss, send_buffer_.Length());
    SendSegment(snd_una_, len, kFlagAck, true);
    snd_nxt_ = snd_una_ + len;
  }
  ArmRetransmitTimer();
}

void TcpConnection::UpdateRtt(SimTime sample) {
  if (!rtt_valid_) {
    srtt_ = sample;
    rttvar_ = sample / 2;
    rtt_valid_ = true;
  } else {
    const SimTime delta = sample - srtt_;
    srtt_ += delta / 8;
    const SimTime abs_delta = delta < 0 ? -delta : delta;
    rttvar_ += (abs_delta - rttvar_) / 4;
  }
  rto_ = std::clamp(srtt_ + 4 * rttvar_, kMinRto, config_.max_rto);
}

// --- TcpStack ---------------------------------------------------------------

TcpStack::TcpStack(Node* node, TcpConfig default_config)
    : node_(node), default_config_(default_config) {
  node_->RegisterProtocol(kProtoTcp, [this](Datagram d) { OnDatagram(std::move(d)); });
}

void TcpStack::Listen(uint16_t port, AcceptHandler handler) {
  CHECK(!listeners_.contains(port)) << node_->name() << ": TCP port " << port << " in use";
  listeners_[port] = std::move(handler);
}

uint16_t TcpStack::AllocateEphemeralPort() {
  for (uint32_t scanned = 0; scanned < kEphemeralCount; ++scanned) {
    const uint16_t port = static_cast<uint16_t>(kEphemeralFirst + next_ephemeral_);
    next_ephemeral_ = (next_ephemeral_ + 1) % kEphemeralCount;
    if (listeners_.contains(port)) {
      continue;
    }
    bool in_use = false;
    for (const auto& [key, connection] : connections_) {
      if (key.local_port == port) {
        in_use = true;
        break;
      }
    }
    if (!in_use) {
      return port;
    }
  }
  CHECK(false) << node_->name() << ": ephemeral ports exhausted";
  return 0;
}

TcpConnection* TcpStack::Connect(uint16_t local_port, SockAddr remote,
                                 TcpConnection::ConnectedHandler on_connected, TcpConfig config) {
  const ConnKey key{local_port, remote.host, remote.port};
  CHECK(!connections_.contains(key)) << node_->name() << ": connection exists";
  auto connection = std::unique_ptr<TcpConnection>(
      new TcpConnection(this, SockAddr{node_->id(), local_port}, remote, config));
  TcpConnection* raw = connection.get();
  connections_[key] = std::move(connection);
  raw->StartActiveOpen(std::move(on_connected));
  return raw;
}

void TcpStack::Output(TcpConnection::Segment segment, HostId dst) {
  MbufChain wire = std::move(segment.payload);
  const size_t payload_len = wire.Length();
  uint8_t* header = wire.Prepend(kTcpHeaderBytes);
  PutU16(header + 0, segment.src_port);
  PutU16(header + 2, segment.dst_port);
  PutU32(header + 4, static_cast<uint32_t>(segment.seq));
  PutU32(header + 8, static_cast<uint32_t>(segment.ack));
  header[12] = segment.flags;
  header[13] = 0;
  PutU16(header + 14, static_cast<uint16_t>(std::min<size_t>(segment.window, 0xffff)));
  PutU16(header + 16, 0);
  PutU16(header + 18, 0);
  const uint16_t checksum = wire.InternetChecksum();
  PutU16(header + 16, checksum == 0 ? 0xffff : checksum);

  const CostProfile& profile = node_->profile();
  node_->cpu().ChargeBackground(profile.tcp_per_segment, CostCategory::kTcp);
  node_->cpu().ChargeBackground(
      profile.checksum_per_byte * static_cast<SimTime>(payload_len + kTcpHeaderBytes),
      CostCategory::kChecksum);

  Datagram datagram;
  datagram.src = node_->id();
  datagram.dst = dst;
  datagram.proto = kProtoTcp;
  datagram.payload = std::move(wire);
  node_->SendDatagram(std::move(datagram));
}

void TcpStack::OnDatagram(Datagram datagram) {
  if (datagram.payload.Length() < kTcpHeaderBytes) {
    ++stack_stats_.runt_drops;
    return;
  }
  if (datagram.payload.InternetChecksum() != 0) {
    // Checksum over header+payload must be zero for an intact segment.
    ++stack_stats_.checksum_drops;
    return;
  }
  uint8_t header[kTcpHeaderBytes];
  CHECK(datagram.payload.CopyOut(0, kTcpHeaderBytes, header));
  TcpConnection::Segment segment;
  segment.src_port = GetU16(header + 0);
  segment.dst_port = GetU16(header + 2);
  segment.seq = GetU32(header + 4);
  segment.ack = GetU32(header + 8);
  segment.flags = header[12];
  segment.window = GetU16(header + 14);
  datagram.payload.TrimFront(kTcpHeaderBytes);
  segment.payload = std::move(datagram.payload);

  const ConnKey key{segment.dst_port, datagram.src, segment.src_port};
  auto it = connections_.find(key);
  if (it == connections_.end()) {
    // New passive connection?
    if ((segment.flags & TcpConnection::kFlagSyn) != 0 &&
        (segment.flags & TcpConnection::kFlagAck) == 0) {
      auto listener = listeners_.find(segment.dst_port);
      if (listener == listeners_.end()) {
        return;
      }
      auto connection = std::unique_ptr<TcpConnection>(new TcpConnection(
          this, SockAddr{node_->id(), segment.dst_port},
          SockAddr{datagram.src, segment.src_port}, default_config_));
      TcpConnection* raw = connection.get();
      connections_[key] = std::move(connection);
      listener->second(raw);  // user installs the data handler here
      raw->StartPassiveOpen(segment.seq);
    }
    return;
  }

  // Charge segment input processing, then hand to the connection.
  const CostProfile& profile = node_->profile();
  node_->cpu().ChargeBackground(
      profile.checksum_per_byte *
          static_cast<SimTime>(segment.payload.Length() + kTcpHeaderBytes),
      CostCategory::kChecksum);
  const SimTime cost = profile.tcp_per_segment;
  auto shared = std::make_shared<TcpConnection::Segment>(std::move(segment));
  TcpConnection* connection = it->second.get();
  node_->cpu().Charge(cost, CostCategory::kTcp, [this, key, connection, shared]() {
    // The connection may have been closed while the CPU work was queued.
    auto lookup = connections_.find(key);
    if (lookup == connections_.end() || lookup->second.get() != connection) {
      return;
    }
    connection->OnSegment(std::move(*shared));
  });
}

void TcpStack::Deregister(TcpConnection* connection) {
  for (auto it = connections_.begin(); it != connections_.end(); ++it) {
    if (it->second.get() == connection) {
      connections_.erase(it);
      return;
    }
  }
}

}  // namespace renonfs
