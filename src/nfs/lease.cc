#include "src/nfs/lease.h"

#include <algorithm>

#include "src/xdr/xdr.h"

namespace renonfs {
namespace {

// The term granted to a client that asks for none (term_us == 0).
constexpr SimTime kDefaultLeaseTerm = Seconds(30);

}  // namespace

LeaseTable::LeaseTable(Node* node, LeaseOptions options) : node_(node), options_(options) {}

void LeaseTable::AttachUdp(UdpStack* udp, uint16_t recall_port) {
  udp_ = udp;
  recall_port_ = recall_port;
}

SimTime LeaseTable::ClampTerm(uint32_t term_us) const {
  if (term_us == 0) {
    return kDefaultLeaseTerm;
  }
  const SimTime requested = static_cast<SimTime>(term_us) * Microseconds(1);
  return std::clamp(requested, options_.min_term, options_.max_term);
}

bool LeaseTable::InGrace() const { return node_->scheduler().now() < grace_until_; }

void LeaseTable::ExpireHolders(Ino ino, Entry& entry, SimTime now) {
  auto& holders = entry.holders;
  for (size_t i = 0; i < holders.size();) {
    if (holders[i].expires_at > now) {
      ++i;
      continue;
    }
    // An unanswered recall ends here: the term is the eviction deadline.
    if (holders[i].recalled) {
      ++stats_.evictions;
    }
    ++stats_.expired;
    Trace(TraceEventKind::kLeaseExpire, 0, holders[i].kind);
    (void)ino;
    holders[i] = holders.back();
    holders.pop_back();
  }
}

void LeaseTable::Grant(Ino ino, const LeaseArgs& args, LeaseReply* reply) {
  const SimTime now = node_->scheduler().now();
  reply->kind = args.kind;
  reply->term_us = 0;
  reply->boot_verifier = boot_verifier_;

  Entry& entry = table_[ino];
  ExpireHolders(ino, entry, now);

  const uint64_t key = ClientKey(args.client_host, args.callback_port);
  Holder* own = nullptr;
  bool conflict = false;
  for (Holder& holder : entry.holders) {
    if (holder.client == key) {
      own = &holder;
      continue;
    }
    if (args.kind == kLeaseWrite || holder.kind == kLeaseWrite) {
      conflict = true;
    }
  }

  auto deny = [&](uint32_t code) {
    reply->granted = code;
    if (entry.holders.empty()) {
      table_.erase(ino);
    }
    Trace(TraceEventKind::kLeaseDeny, 0, args.kind);
  };

  // A conflict that survived ResolveConflict (or raced in behind it) is a
  // denial; the client degrades to push-on-close semantics. This also covers
  // two clients both claiming a grace-window reclaim on the same file: at
  // most one of them legitimately held a write lease before the crash, so
  // the loser must treat its cache as stale, not push through.
  if (conflict) {
    ++stats_.denied;
    deny(kLeaseDeniedConflict);
    return;
  }
  // Never renew a lease that is being recalled — renewal would extend the
  // very term the recaller is waiting out.
  if (own != nullptr && own->recalled) {
    ++stats_.denied;
    deny(kLeaseDeniedConflict);
    return;
  }
  if (InGrace() && args.reclaim == 0) {
    ++stats_.grace_denials;
    deny(kLeaseDeniedGrace);
    return;
  }

  const SimTime term = ClampTerm(args.term_us);
  if (own == nullptr) {
    entry.holders.push_back(Holder{});
    own = &entry.holders.back();
    own->client = key;
    own->kind = args.kind;
    if (InGrace()) {
      ++stats_.reclaimed;
    } else {
      ++stats_.granted;
    }
  } else {
    // Upgrades stick (read holder asking for write); downgrades do not — the
    // server keeps honouring the strongest promise it ever made this term.
    own->kind = std::max(own->kind, args.kind);
    ++stats_.renewed;
  }
  own->term = term;
  own->expires_at = now + term;

  reply->granted = kLeaseGranted;
  reply->kind = own->kind;
  reply->term_us = static_cast<uint32_t>(term / Microseconds(1));
  Trace(TraceEventKind::kLeaseGrant, 0, own->kind);
}

bool LeaseTable::Vacate(Ino ino, const VacateArgs& args) {
  auto it = table_.find(ino);
  if (it == table_.end()) {
    return false;
  }
  const uint64_t key = ClientKey(args.client_host, args.callback_port);
  auto& holders = it->second.holders;
  for (size_t i = 0; i < holders.size(); ++i) {
    if (holders[i].client != key) {
      continue;
    }
    if (holders[i].recalled) {
      const SimTime now = node_->scheduler().now();
      recall_latency_us_.Add(
          static_cast<uint64_t>((now - holders[i].recalled_at) / Microseconds(1)));
    }
    ++stats_.vacated;
    Trace(TraceEventKind::kLeaseVacate, 0, args.serial);
    holders[i] = holders.back();
    holders.pop_back();
    if (holders.empty()) {
      table_.erase(it);
    }
    return true;
  }
  return false;
}

void LeaseTable::SendRecall(Ino ino, Holder& holder, SimTime now) {
  holder.next_recall_at = now + holder.recall_interval;
  holder.recall_interval *= 2;
  ++stats_.recalls_sent;
  Trace(TraceEventKind::kLeaseRecall, 0, holder.recall_serial);
  if (udp_ == nullptr) {
    return;
  }
  // Bare XDR body, no RPC framing: the callback channel carries exactly one
  // message shape and the client retransmits nothing (the server does).
  RecallArgs recall;
  recall.file = NfsFh::Make(1, ino);
  recall.kind = holder.kind;
  recall.serial = holder.recall_serial;
  recall.boot_verifier = boot_verifier_;
  MbufChain payload;
  XdrEncoder enc(&payload);
  EncodeRecallArgs(enc, recall);
  const SockAddr dst{static_cast<HostId>(holder.client >> 16),
                     static_cast<uint16_t>(holder.client & 0xffffu)};
  udp_->SendTo(recall_port_, dst, std::move(payload));
}

CoTask<void> LeaseTable::ResolveConflict(uint32_t xid, Ino ino, bool write_op,
                                         HostId requester) {
  (void)xid;
  for (;;) {
    // Table state may be arbitrarily stale after any await below: re-find the
    // entry and re-scan holders on every pass, never holding references
    // across a suspension.
    const uint64_t epoch = epoch_;
    auto it = table_.find(ino);
    if (it == table_.end()) {
      co_return;
    }
    const SimTime now = node_->scheduler().now();
    ExpireHolders(ino, it->second, now);
    if (it->second.holders.empty()) {
      table_.erase(it);
      co_return;
    }

    bool conflict = false;
    // Recall pacing: mark every conflicting holder, but put at most a couple
    // of datagrams on the wire per wakeup. A write invalidating N readers
    // becomes a term-bounded trickle instead of an N-datagram burst.
    int send_budget = 2;
    SimTime next_event = now + options_.max_term;
    for (Holder& holder : it->second.holders) {
      if (static_cast<HostId>(holder.client >> 16) == requester) {
        continue;
      }
      if (!write_op && holder.kind != kLeaseWrite) {
        continue;
      }
      conflict = true;
      if (!holder.recalled) {
        holder.recalled = true;
        holder.recalled_at = now;
        holder.recall_serial = ++next_recall_serial_;
        // First retransmit after term/8; doubles from there. All cadence in
        // this loop derives from the lease term so short-term test configs
        // resolve proportionally faster.
        holder.recall_interval = holder.term / 8;
        holder.next_recall_at = now;
        ++stats_.recalled;
      }
      if (send_budget > 0 && now >= holder.next_recall_at) {
        SendRecall(ino, holder, now);
        --send_budget;
      }
      next_event = std::min(next_event, holder.expires_at);
      next_event = std::min(next_event, holder.next_recall_at);
    }
    if (!conflict) {
      co_return;
    }
    SimTime step = next_event - now;
    const SimTime floor = std::max<SimTime>(options_.min_term / 64, Microseconds(1));
    if (step < floor) {
      step = floor;
    }
    co_await node_->scheduler().Delay(step);
    if (epoch_ != epoch) {
      // The table was cleared (server crash) while we slept; every lease we
      // were waiting out is gone with it.
      co_return;
    }
  }
}

void LeaseTable::Clear() {
  table_.clear();
  grace_until_ = 0;
  ++epoch_;
}

size_t LeaseTable::active_leases() const {
  size_t n = 0;
  for (const auto& [ino, entry] : table_) {
    n += entry.holders.size();
  }
  return n;
}

}  // namespace renonfs
