// RPC server: accepts calls over UDP datagrams and/or TCP record streams,
// dispatches them to a registered handler, and replies.
//
// Includes the duplicate-request cache of [Juszczak89]: UDP retransmissions
// of a request that is still executing are dropped (never executed twice
// concurrently), and completed non-idempotent requests are answered from a
// cached reply instead of being redone — the correctness hazard the paper's
// conclusion pins on Sun RPC's at-least-once semantics.
#ifndef RENONFS_SRC_RPC_SERVER_H_
#define RENONFS_SRC_RPC_SERVER_H_

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <set>

#include "src/mbuf/mbuf.h"
#include "src/net/udp.h"
#include "src/obs/trace.h"
#include "src/rpc/message.h"
#include "src/sim/sync.h"
#include "src/sim/task.h"
#include "src/tcp/tcp.h"

namespace renonfs {

struct RpcServerOptions {
  uint32_t prog = 100003;  // NFS
  uint32_t vers = 2;
  size_t server_threads = 4;   // concurrent nfsd daemons
  size_t dup_cache_entries = 128;
  // Maximum useful lifetime of a completed duplicate-cache entry
  // ([Juszczak89]'s aging). Client xids are sequence numbers that wrap (and
  // restart from a clock on reboot), so an entry old enough cannot belong
  // to a retransmission of the same call — replaying it would answer a brand
  // new request with a stale reply. Aged entries are re-primed in place:
  // the new call executes and refreshes the slot.
  SimTime dup_cache_max_age = Seconds(300);
  std::set<uint32_t> non_idempotent_procs;
};

struct RpcServerStats {
  uint64_t requests = 0;
  uint64_t replies = 0;
  // Requests whose contents could not be parsed: the RPC header itself (no
  // xid to reply to — dropped silently) or the procedure arguments (answered
  // with GARBAGE_ARGS).
  uint64_t garbage_requests = 0;
  // TCP record marks that failed validation (fragment bit clear or an absurd
  // length). Each one opens a resync hunt for the next believable call
  // boundary; only a failed hunt poisons the connection (the server stops
  // reading it and waits for the peer to reconnect). The server itself must
  // never die for this.
  uint64_t corrupted_records = 0;
  // TCP record resync: hunts opened after a corrupt mark, and how they
  // ended. A success means the stream kept serving without a reconnect.
  uint64_t resync_hunts = 0;
  uint64_t resync_successes = 0;
  uint64_t resync_failures = 0;  // hunt window overran: connection poisoned
  uint64_t duplicate_in_progress_drops = 0;
  uint64_t duplicate_cache_replays = 0;
  // Completed entries whose age exceeded dup_cache_max_age when the same
  // (host, port, xid, proc) key arrived again: treated as a fresh call, not
  // a retransmission (xid wraparound / client reboot).
  uint64_t duplicate_entries_aged = 0;
  // Requests that found every nfsd slot busy and had to queue — the
  // saturation signal a slow disk drives (paper Section 5).
  uint64_t nfsd_slot_waits = 0;
  // Replies suppressed because the server crashed while the request was
  // being executed: the dispatch straddled a reboot and must look, to the
  // client, like it never happened.
  uint64_t replies_dropped_crash = 0;
};

class RpcServer {
 public:
  // proc handler: receives the argument body and produces the result body.
  using Dispatcher =
      std::function<CoTask<StatusOr<MbufChain>>(uint32_t proc, MbufChain args, SockAddr client)>;

  RpcServer(Node* node, RpcServerOptions options);
  RpcServer(const RpcServer&) = delete;
  RpcServer& operator=(const RpcServer&) = delete;

  void set_dispatcher(Dispatcher dispatcher) { dispatcher_ = std::move(dispatcher); }

  void BindUdp(UdpStack* udp, uint16_t port);
  void BindTcp(TcpStack* tcp, uint16_t port);

  // Models the RPC layer's share of a machine crash: the in-memory duplicate
  // cache is lost (the hazard behind spurious EEXIST/ENOENT on retried
  // non-idempotent calls), per-connection TCP receive state is dropped, and
  // any dispatch already in progress will have its reply suppressed — a
  // request straddling the reboot must look like it was never received.
  void OnServerCrash();

  const RpcServerStats& stats() const { return stats_; }
  Node* node() { return node_; }

  // Observability: request lifecycle events (receive, dup-cache hit, slot
  // wait, reply) are recorded on the given track.
  void set_tracer(Tracer* tracer, uint16_t track) {
    tracer_ = tracer;
    trace_track_ = track;
  }

  // The xid of the request currently being handed to the dispatcher. Valid
  // only synchronously inside the dispatcher invocation (the dispatcher
  // coroutine body runs eagerly, so reading this before its first co_await
  // is safe); downstream layers use it to key their trace events.
  uint32_t dispatching_xid() const { return dispatching_xid_; }

 private:
  struct DupKey {
    HostId host;
    uint16_t port;
    uint32_t xid;
    uint32_t proc;
    bool operator<(const DupKey& other) const {
      return std::tie(host, port, xid, proc) <
             std::tie(other.host, other.port, other.xid, other.proc);
    }
  };
  struct DupEntry {
    bool done = false;
    MbufChain reply;  // valid when done and the proc is non-idempotent
    bool cache_reply = false;
    SimTime stamp = 0;  // creation (= last re-prime) time, for aging
  };

  // Replier abstracts UDP datagram vs TCP record framing for the response.
  using Replier = std::function<void(MbufChain)>;

  CoTask<void> HandleMessage(MbufChain message, SockAddr client, Replier reply);
  MbufChain EncodeReply(uint32_t xid, RpcAcceptStat stat, MbufChain body);

  void OnTcpConnection(TcpConnection* connection);

  Node* node_;
  RpcServerOptions options_;
  Dispatcher dispatcher_;
  Semaphore nfsd_slots_;
  std::map<DupKey, DupEntry> dup_cache_;
  std::deque<DupKey> dup_order_;
  RpcServerStats stats_;
  uint64_t crash_epoch_ = 0;
  Tracer* tracer_ = nullptr;
  uint16_t trace_track_ = 0;
  uint32_t dispatching_xid_ = 0;

  void Trace(TraceEventKind kind, uint32_t xid, uint32_t proc, uint64_t arg = 0) {
    if (tracer_ != nullptr) {
      tracer_->Record(trace_track_, kind, xid, proc, arg);
    }
  }

  // Per-connection receive state for TCP record reassembly.
  struct TcpConnState {
    MbufChain buffer;
    // Set when the resync hunt gives up on a corrupt stream: the connection
    // goes read-deaf until the peer gives up and reconnects. Closing it here
    // is unsafe (we are inside the connection's own data callback).
    bool poisoned = false;
    // Between a corrupt record mark and either a found boundary or give-up.
    bool hunting = false;
  };
  // Corrupt-mark recovery: scan the connection's buffered stream for the
  // next believable call boundary (plausible mark + CALL/RPCv2 header words).
  // Returns true when framing is re-established; poisons the connection when
  // the hunt window overruns without a hit.
  bool HuntForCallBoundary(TcpConnState* state);
  std::map<TcpConnection*, std::unique_ptr<TcpConnState>> tcp_conns_;
};

}  // namespace renonfs

#endif  // RENONFS_SRC_RPC_SERVER_H_
