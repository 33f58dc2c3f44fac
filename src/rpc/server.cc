#include "src/rpc/server.h"

#include <utility>
#include <vector>

#include "src/util/logging.h"
#include "src/xdr/xdr.h"

namespace renonfs {
namespace {

constexpr size_t kServerThreads = 4;  // concurrent nfsd daemons
constexpr size_t kDupCacheEntries = 128;

}  // namespace

RpcServer::RpcServer(Node* node, RpcServerOptions options)
    : node_(node), options_(std::move(options)), nfsd_slots_(kServerThreads) {}

void RpcServer::BindUdp(UdpStack* udp, uint16_t port) {
  udp->Bind(port, [this, udp, port](SockAddr from, MbufChain payload) {
    Replier reply = [udp, port, from](MbufChain bytes) {
      udp->SendTo(port, from, std::move(bytes));
    };
    HandleMessage(std::move(payload), from, std::move(reply)).Detach();
  });
}

void RpcServer::BindTcp(TcpStack* tcp, uint16_t port) {
  tcp->Listen(port, [this](TcpConnection* connection) { OnTcpConnection(connection); });
}

void RpcServer::OnServerCrash() {
  ++crash_epoch_;
  dup_cache_.clear();
  dup_order_.clear();
  tcp_conns_.clear();
}

namespace {
// Big-endian 32-bit load, the byte order of record marks and XDR words.
uint32_t LoadBe32(const uint8_t* b) {
  return static_cast<uint32_t>(b[0]) << 24 | static_cast<uint32_t>(b[1]) << 16 |
         static_cast<uint32_t>(b[2]) << 8 | static_cast<uint32_t>(b[3]);
}
// Stream buffered during a resync hunt before conceding the boundary is
// unfindable: two maximal records, so a boundary hidden behind one garbled
// full-size record is still inside the window.
constexpr size_t kResyncHuntWindow = 2 * kMaxRpcRecordBytes;
}  // namespace

bool RpcServer::HuntForCallBoundary(TcpConnState* state) {
  // A believable boundary: a mark with the last-fragment bit and a sane
  // length, opening a record whose msg_type word says CALL and whose
  // rpcvers word says 2. Random bytes pass all the tests with probability
  // ~2^-80 per offset, so a hit is the real framing.
  //
  // The test reads only the 16 bytes at the offset, and while hunting the
  // buffer only grows at its tail, so an offset that failed on an earlier
  // arrival fails again: each arrival tests just the offsets whose windows
  // it completed, reading their bytes in one pass.
  const size_t len = state->buffer.Length();
  if (state->hunt_from + 16 <= len) {
    std::vector<uint8_t> bytes(len - state->hunt_from);
    CHECK(state->buffer.CopyOut(state->hunt_from, bytes.size(), bytes.data()));
    for (size_t p = state->hunt_from; p + 16 <= len; ++p) {
      const uint8_t* window = bytes.data() + (p - state->hunt_from);
      const uint32_t mark = LoadBe32(window);
      const size_t record_len = mark & 0x7fffffffu;
      if ((mark & 0x80000000u) == 0 || record_len < 16 || record_len > kMaxRpcRecordBytes) {
        continue;
      }
      // Record layout: xid (+4, anything), msg_type (+8), rpcvers (+12).
      if (LoadBe32(window + 8) != kRpcMsgCall || LoadBe32(window + 12) != kRpcVersion) {
        continue;
      }
      state->buffer.TrimFront(p);
      state->hunting = false;
      ++stats_.resync_successes;
      return true;
    }
    state->hunt_from = len - 15;  // the first window still missing bytes
  }
  if (len > kResyncHuntWindow) {
    // No boundary in a window big enough to hold one: this stream stays
    // unreadable. Poison only this connection — the server keeps serving
    // everyone else — and let the peer reconnect.
    ++stats_.resync_failures;
    state->hunting = false;
    state->poisoned = true;
    state->buffer = MbufChain();
  }
  return false;
}

void RpcServer::OnTcpConnection(TcpConnection* connection) {
  auto state = std::make_unique<TcpConnState>();
  TcpConnState* raw_state = state.get();
  tcp_conns_[connection] = std::move(state);
  connection->set_data_handler([this, connection, raw_state](MbufChain data) {
    if (raw_state->poisoned) {
      return;  // framing lost for good; discard everything until reconnect
    }
    raw_state->buffer.Concat(std::move(data));
    for (;;) {
      if (raw_state->hunting && !HuntForCallBoundary(raw_state)) {
        return;  // still hunting, or the hunt just poisoned the connection
      }
      if (raw_state->buffer.Length() < 4) {
        return;
      }
      uint8_t rm[4];
      CHECK(raw_state->buffer.CopyOut(0, 4, rm));
      const uint32_t mark = LoadBe32(rm);
      const size_t record_len = mark & 0x7fffffffu;
      // Validate the mark before trusting it: our peers never produce
      // multi-fragment records (fragment bit always set) or records beyond
      // the RPC message ceiling, so either condition means the byte stream
      // is corrupt or the peer is hostile. Count the damage, then hunt the
      // stream for the next believable call boundary instead of going
      // read-deaf outright.
      if ((mark & 0x80000000u) == 0 || record_len > kMaxRpcRecordBytes) {
        ++stats_.corrupted_records;
        ++stats_.resync_hunts;
        raw_state->hunting = true;
        raw_state->hunt_from = 1;
        continue;
      }
      if (raw_state->buffer.Length() < 4 + record_len) {
        return;
      }
      MbufChain record = raw_state->buffer.CopyRange(4, record_len);
      raw_state->buffer.TrimFront(4 + record_len);

      // Identify the peer for duplicate-cache keying; TCP gives exactly-once
      // delivery so duplicates cannot occur, but the path is shared.
      Replier reply = [connection](MbufChain bytes) {
        const uint32_t reply_mark = 0x80000000u | static_cast<uint32_t>(bytes.Length());
        uint8_t* rm_out = bytes.Prepend(4);
        rm_out[0] = static_cast<uint8_t>(reply_mark >> 24);
        rm_out[1] = static_cast<uint8_t>(reply_mark >> 16);
        rm_out[2] = static_cast<uint8_t>(reply_mark >> 8);
        rm_out[3] = static_cast<uint8_t>(reply_mark);
        connection->Send(std::move(bytes));
      };
      HandleMessage(std::move(record), SockAddr{0, 0}, std::move(reply)).Detach();
    }
  });
}

MbufChain RpcServer::EncodeReply(uint32_t xid, RpcAcceptStat stat, MbufChain body) {
  MbufChain reply;
  XdrEncoder enc(&reply);
  RpcReplyHeader header;
  header.xid = xid;
  header.stat = stat;
  EncodeReplyHeader(enc, header);
  reply.Concat(std::move(body));
  return reply;
}

CoTask<void> RpcServer::HandleMessage(MbufChain message, SockAddr client, Replier reply) {
  ++stats_.requests;
  const uint64_t epoch = crash_epoch_;

  // RPC header decode happens before anything else and costs CPU.
  co_await node_->cpu().Use(node_->profile().rpc_dispatch, CostCategory::kRpc);

  if (epoch != crash_epoch_) {
    // The request was sitting in the dead kernel's input queue when the
    // machine went down; nobody will ever see it.
    co_return;
  }

  XdrDecoder dec(&message);
  auto header_or = DecodeCallHeader(dec);
  if (!header_or.ok()) {
    ++stats_.garbage_requests;
    co_return;  // cannot even find an xid to reply to
  }
  const RpcCallHeader header = header_or.value();
  Trace(TraceEventKind::kServerReceive, header.xid, header.proc);

  if (header.prog != kNfsProgram || header.vers != kNfsVersion) {
    reply(EncodeReply(header.xid, RpcAcceptStat::kProgUnavail, MbufChain()));
    ++stats_.replies;
    co_return;
  }

  const DupKey key{client.host, client.port, header.xid, header.proc};
  const bool use_dup_cache = client.host != 0;  // UDP only; TCP is exactly-once
  const SimTime now = node_->scheduler().now();
  if (use_dup_cache) {
    auto it = dup_cache_.find(key);
    if (it != dup_cache_.end()) {
      if (it->second.done && now - it->second.stamp > options_.dup_cache_max_age) {
        // Too old to be a retransmission of the same call: the client's xid
        // counter wrapped (or it rebooted and restarted the sequence). Replay
        // here would answer a *new* request with a stale reply, so re-prime
        // the slot in place and execute. In-progress entries never age — a
        // call that is still running cannot have a wrapped twin yet.
        ++stats_.duplicate_entries_aged;
        it->second = DupEntry{};
        it->second.stamp = now;
      } else if (!it->second.done) {
        // Still executing: drop the retransmission.
        ++stats_.duplicate_in_progress_drops;
        Trace(TraceEventKind::kDupCacheHit, header.xid, header.proc, 1);
        co_return;
      } else if (it->second.cache_reply) {
        // Replay the saved reply rather than redoing a non-idempotent op.
        ++stats_.duplicate_cache_replays;
        ++stats_.replies;
        Trace(TraceEventKind::kDupCacheHit, header.xid, header.proc, 0);
        reply(it->second.reply.Clone());
        co_return;
      }
      // Completed idempotent op (or an aged entry): fall through and redo it.
    } else {
      DupEntry fresh;
      fresh.stamp = now;
      dup_cache_[key] = std::move(fresh);
      dup_order_.push_back(key);
      while (dup_order_.size() > kDupCacheEntries) {
        dup_cache_.erase(dup_order_.front());
        dup_order_.pop_front();
      }
    }
  }

  MbufChain args = message.CopyRange(dec.Consumed(), message.Length() - dec.Consumed());

  const bool slot_waited = nfsd_slots_.available() == 0;
  if (slot_waited) {
    ++stats_.nfsd_slot_waits;  // all daemons busy: queue behind the slow path
    Trace(TraceEventKind::kNfsdSlotWait, header.xid, header.proc, stats_.nfsd_slot_waits);
  }
  co_await nfsd_slots_.Acquire();
  if (slot_waited) {
    // Close the queue-wait leaf: from here on the request is running.
    Trace(TraceEventKind::kNfsdSlotGrant, header.xid, header.proc);
  }
  // Note: co_await must not appear inside a conditional expression — GCC 12
  // miscompiles the temporary lifetimes (verified with ASan), so this is a
  // plain statement-level await.
  StatusOr<MbufChain> result = ProcUnavailError("no dispatcher");
  if (dispatcher_) {
    // The dispatcher coroutine starts eagerly, so it observes this xid at
    // entry and can stamp its own trace events (disk queue, gathering) with
    // it. Cleared only by the next dispatch.
    dispatching_xid_ = header.xid;
    result = co_await dispatcher_(header.proc, std::move(args), client);
  }
  nfsd_slots_.Release();

  if (epoch != crash_epoch_) {
    // The machine rebooted while this request was executing; its memory of
    // the request — dup cache entry, reply buffer, socket — is gone. Any
    // durable LocalFs side effects the dispatcher already made survive,
    // which is exactly the non-idempotent-retry hazard.
    ++stats_.replies_dropped_crash;
    co_return;
  }

  co_await node_->cpu().Use(node_->profile().rpc_build_reply, CostCategory::kRpc);

  if (epoch != crash_epoch_) {
    // Crashed while the reply was being built: the socket (UDP) or
    // TcpConnection the Replier closes over died with the old kernel, so
    // touching it now would be a use-after-free — and even on UDP, a reply
    // escaping after the reboot would violate "the crash never happened".
    ++stats_.replies_dropped_crash;
    co_return;
  }

  MbufChain wire;
  if (result.ok()) {
    wire = EncodeReply(header.xid, RpcAcceptStat::kSuccess, std::move(result).value());
  } else {
    const RpcAcceptStat accept_stat = AcceptStatForStatus(result.status());
    if (accept_stat == RpcAcceptStat::kGarbageArgs) {
      ++stats_.garbage_requests;  // header parsed, arguments did not
    }
    wire = EncodeReply(header.xid, accept_stat, MbufChain());
  }

  if (use_dup_cache) {
    auto it = dup_cache_.find(key);
    if (it != dup_cache_.end()) {
      it->second.done = true;
      // Age from completion, not arrival: the cached reply is only born now.
      it->second.stamp = node_->scheduler().now();
      if (options_.non_idempotent_procs.contains(header.proc)) {
        it->second.cache_reply = true;
        it->second.reply = wire.Clone();
      }
    }
  }

  ++stats_.replies;
  Trace(TraceEventKind::kServerReply, header.xid, header.proc, wire.Length());
  reply(std::move(wire));
}

}  // namespace renonfs
