// A Reno-era TCP: reliable byte stream with Jacobson RTT estimation
// [Jacobson88a], slow start, congestion avoidance, exponential retransmit
// backoff, Karn's rule and fast retransmit/recovery.
//
// This is the transport the paper runs NFS RPCs over in the "Reno-TCP"
// configurations. Segments carry real 20-byte headers in the mbuf chain and
// are checksummed end to end; the MSS is chosen below the smallest path MTU,
// so TCP never triggers IP fragmentation — precisely the property that makes
// it robust where 8 KB UDP datagrams (6 fragments on an Ethernet) are
// fragile [Kent87b].
//
// Simplifications relative to a full implementation, none of which affect
// the measured behaviour: no FIN/TIME_WAIT teardown (NFS mounts hold their
// connection for the whole run; Close() just silences the endpoint), no
// urgent data, and a fixed advertised window.
#ifndef RENONFS_SRC_TCP_TCP_H_
#define RENONFS_SRC_TCP_TCP_H_

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <unordered_map>

#include "src/mbuf/mbuf.h"
#include "src/net/address.h"
#include "src/net/node.h"
#include "src/sim/scheduler.h"

namespace renonfs {

struct TcpConfig {
  size_t mss = 1460;  // caller sets to min path MTU - 40
};

struct TcpStats {
  uint64_t segments_sent = 0;
  uint64_t retransmits = 0;
  uint64_t fast_retransmits = 0;
};

// Stack-wide receive-path drop counters. Segments killed here die *before*
// demultiplexing — there is no connection to charge them to (and per-
// connection TcpStats can't see them), which is why corrupted-TCP drops were
// invisible to the chaos report until this counter existed.
struct TcpStackStats {
  uint64_t checksum_drops = 0;  // Internet checksum over header+payload != 0
  uint64_t runt_drops = 0;      // datagram shorter than a TCP header
};

class TcpStack;

class TcpConnection {
 public:
  using DataHandler = std::function<void(MbufChain)>;
  using ConnectedHandler = std::function<void()>;

  ~TcpConnection();
  TcpConnection(const TcpConnection&) = delete;
  TcpConnection& operator=(const TcpConnection&) = delete;

  // Queues bytes on the send buffer; transmission is governed by the
  // congestion and flow-control windows.
  void Send(MbufChain data);

  void set_data_handler(DataHandler handler) { data_handler_ = std::move(handler); }

  bool established() const { return state_ == State::kEstablished; }
  const TcpStats& stats() const { return stats_; }

  // Smoothed RTT estimate and current RTO, for instrumentation.
  SimTime srtt() const { return srtt_; }
  SimTime rto() const { return rto_; }
  size_t cwnd() const { return cwnd_; }

  // Stops all timers and detaches from the stack. Delivered data stops.
  void Close();

 private:
  friend class TcpStack;

  enum class State { kClosed, kSynSent, kSynReceived, kEstablished };

  struct Segment {
    uint16_t src_port;
    uint16_t dst_port;
    uint64_t seq;
    uint64_t ack;
    uint8_t flags;
    size_t window;
    MbufChain payload;
  };
  static constexpr uint8_t kFlagSyn = 0x02;
  static constexpr uint8_t kFlagAck = 0x10;

  TcpConnection(TcpStack* stack, SockAddr local, SockAddr remote, TcpConfig config);

  void StartActiveOpen(ConnectedHandler on_connected);
  void StartPassiveOpen(uint64_t peer_iss);

  void OnSegment(Segment segment);
  void OnAck(uint64_t ack, size_t peer_window);
  void AcceptData(Segment segment);
  void TrySend();
  void SendSegment(uint64_t seq, size_t len, uint8_t flags, bool retransmission);
  void SendAck();
  void OnRetransmitTimeout();
  void ArmRetransmitTimer();
  void UpdateRtt(SimTime sample);
  void ScheduleAck(bool immediate);

  size_t BytesInFlight() const { return static_cast<size_t>(snd_nxt_ - snd_una_); }
  size_t EffectiveWindow() const;

  TcpStack* stack_;
  SockAddr local_;
  SockAddr remote_;
  TcpConfig config_;
  State state_ = State::kClosed;
  DataHandler data_handler_;
  ConnectedHandler connected_handler_;
  TcpStats stats_;

  // --- send side (all sequence numbers are 64-bit internally) ---
  uint64_t iss_ = 0;
  uint64_t snd_una_ = 0;
  uint64_t snd_nxt_ = 0;
  uint64_t snd_max_ = 0;       // highest sequence ever sent
  size_t snd_wnd_ = 0;         // peer's advertised window
  MbufChain send_buffer_;      // bytes [snd_una_, snd_una_ + len)
  size_t cwnd_ = 0;
  size_t ssthresh_ = 0;
  int dup_acks_ = 0;
  bool in_fast_recovery_ = false;

  // --- RTT estimation (Jacobson) ---
  SimTime srtt_ = 0;
  SimTime rttvar_ = 0;
  SimTime rto_;
  bool rtt_valid_ = false;
  bool timing_active_ = false;
  uint64_t timed_seq_ = 0;
  SimTime timed_at_ = 0;
  SimTime backed_off_rto_ = 0;

  // --- receive side ---
  uint64_t irs_ = 0;
  uint64_t rcv_nxt_ = 0;
  std::map<uint64_t, MbufChain> out_of_order_;

  Timer retransmit_timer_;
  Timer delack_timer_;
  int unacked_data_segments_ = 0;
};

class TcpStack {
 public:
  using AcceptHandler = std::function<void(TcpConnection*)>;

  explicit TcpStack(Node* node, TcpConfig default_config = {});
  TcpStack(const TcpStack&) = delete;
  TcpStack& operator=(const TcpStack&) = delete;

  Node* node() { return node_; }
  Scheduler& scheduler() { return node_->scheduler(); }
  const TcpConfig& default_config() const { return default_config_; }
  const TcpStackStats& stack_stats() const { return stack_stats_; }

  // Passive open: connections arriving on `port` are created and handed to
  // the accept handler (already configured; set a data handler immediately).
  void Listen(uint16_t port, AcceptHandler handler);

  // Allocates a local port from the ephemeral range [49152, 65535] that no
  // listener or existing connection on this node is using. Deterministic
  // (round-robin over the range), like the kernel allocator every client
  // bind goes through: reconnecting transports draw from here so two mounts
  // on one node can never hijack each other's port.
  uint16_t AllocateEphemeralPort();
  static constexpr uint32_t kEphemeralFirst = 49152;
  static constexpr uint32_t kEphemeralCount = 65536 - kEphemeralFirst;

  // Active open. on_connected fires when the handshake completes.
  TcpConnection* Connect(uint16_t local_port, SockAddr remote,
                         TcpConnection::ConnectedHandler on_connected,
                         TcpConfig config);
  TcpConnection* Connect(uint16_t local_port, SockAddr remote,
                         TcpConnection::ConnectedHandler on_connected) {
    return Connect(local_port, remote, std::move(on_connected), default_config_);
  }

  // Destroys every connection without notifying peers, as a crashing kernel
  // does. Peers discover the loss by retransmitting into silence; segments
  // for dead connections are dropped (no RST in this model), and a fresh SYN
  // to a listening port opens a new connection after restart.
  void ResetAllConnections() { connections_.clear(); }

 private:
  friend class TcpConnection;

  struct ConnKey {
    uint16_t local_port;
    HostId remote_host;
    uint16_t remote_port;
    bool operator==(const ConnKey&) const = default;
  };
  struct ConnKeyHash {
    size_t operator()(const ConnKey& k) const {
      return std::hash<uint64_t>()(static_cast<uint64_t>(k.local_port) << 32 |
                                   static_cast<uint64_t>(k.remote_host) << 16 | k.remote_port);
    }
  };

  void OnDatagram(Datagram datagram);
  void Output(TcpConnection::Segment segment, HostId dst);
  void Deregister(TcpConnection* connection);

  Node* node_;
  TcpConfig default_config_;
  std::unordered_map<uint16_t, AcceptHandler> listeners_;
  std::unordered_map<ConnKey, std::unique_ptr<TcpConnection>, ConnKeyHash> connections_;
  TcpStackStats stack_stats_;
  uint64_t next_iss_ = 100000;

  uint32_t next_ephemeral_ = 0;  // offset into the ephemeral range
};

}  // namespace renonfs

#endif  // RENONFS_SRC_TCP_TCP_H_
