// Server-side NQNFS-style lease table [Gray89].
//
// Per-file read/write leases with term clamping. A lease is a promise the
// server can always let lapse: all state here is volatile — Crash() clears
// the table and Restart() opens a grace window during which only pre-reboot
// holders may reclaim, so no combination of crashes and partitions can leave
// two clients believing they both hold a write lease inside one term.
//
// Conflicting operations (a WRITE against any foreign lease, a READ against
// a foreign write lease) call ResolveConflict, which recalls the holders via
// callback datagrams — retransmitted at a term-derived, doubling cadence —
// and waits until they vacate or their leases expire. Recalls to multiple
// holders are paced (at most a couple of datagrams per wakeup) so one writer
// invalidating N readers produces a bounded trickle, not an N-datagram burst.
#ifndef RENONFS_SRC_NFS_LEASE_H_
#define RENONFS_SRC_NFS_LEASE_H_

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "src/net/node.h"
#include "src/net/udp.h"
#include "src/nfs/wire.h"
#include "src/obs/metrics.h"
#include "src/obs/trace.h"
#include "src/sim/task.h"

namespace renonfs {

// LeaseReply.granted values (wire constants).
inline constexpr uint32_t kLeaseDeniedConflict = 0;  // a foreign holder stands
inline constexpr uint32_t kLeaseGranted = 1;
inline constexpr uint32_t kLeaseDeniedGrace = 2;  // reboot grace window

struct LeaseOptions {
  SimTime min_term = Seconds(5);
  SimTime max_term = Seconds(60);
};

struct LeaseStats {
  uint64_t granted = 0;        // fresh grants
  uint64_t renewed = 0;        // grants to an existing holder
  uint64_t reclaimed = 0;      // grace-window reclaims
  uint64_t denied = 0;         // conflict denials
  uint64_t grace_denials = 0;  // denials because the grace window is open
  uint64_t recalled = 0;       // holders put into recall
  uint64_t recalls_sent = 0;   // recall datagrams, retransmits included
  uint64_t vacated = 0;        // holders that answered a recall or volunteered
  uint64_t expired = 0;        // leases that aged out unrecalled
  uint64_t evictions = 0;      // recalled holders evicted at the term deadline
};

class LeaseTable {
 public:
  LeaseTable(Node* node, LeaseOptions options);
  LeaseTable(const LeaseTable&) = delete;
  LeaseTable& operator=(const LeaseTable&) = delete;

  // Recall datagrams go out through `udp` from `recall_port`.
  void AttachUdp(UdpStack* udp, uint16_t recall_port);
  void set_tracer(Tracer* tracer, uint16_t track) {
    tracer_ = tracer;
    trace_track_ = track;
  }
  // Stamped into recall datagrams and grant bookkeeping; the server sets it
  // to its crash count so clients detect reboots.
  void set_boot_verifier(uint32_t verifier) { boot_verifier_ = verifier; }

  // Grants or denies, filling reply->granted/kind/term_us. The caller has
  // already run ResolveConflict for conflicting requests; a conflict that
  // still stands here is a denial, not a wait.
  void Grant(Ino ino, const LeaseArgs& args, LeaseReply* reply);

  // Client surrender / recall acknowledgement. Returns true if a holder
  // matched (false for duplicate or post-expiry vacates — still success).
  bool Vacate(Ino ino, const VacateArgs& args);

  // Blocks until no foreign lease conflicts with the operation, recalling
  // holders as needed. `write_op` ops conflict with every foreign lease;
  // reads only with foreign write leases. `requester` exempts the caller's
  // own host. Returns promptly when the table has no entry for the file.
  CoTask<void> ResolveConflict(uint32_t xid, Ino ino, bool write_op, HostId requester);

  // Crash: every lease is volatile kernel state and dies with it.
  void Clear();
  // Reboot recovery: deny new leases (reclaims excepted) until `until`.
  void BeginGrace(SimTime until) { grace_until_ = until; }
  bool InGrace() const;

  const LeaseStats& stats() const { return stats_; }
  // Recall-to-vacate latency, microseconds.
  const Log2Histogram& recall_latency_us() const { return recall_latency_us_; }
  size_t active_leases() const;

 private:
  struct Holder {
    uint64_t client = 0;  // (host << 16) | callback_port
    uint32_t kind = kLeaseRead;
    SimTime term = 0;
    SimTime expires_at = 0;
    bool recalled = false;
    SimTime recalled_at = 0;
    uint32_t recall_serial = 0;
    SimTime next_recall_at = 0;
    SimTime recall_interval = 0;  // doubles on each retransmit
  };
  struct Entry {
    std::vector<Holder> holders;
  };

  static uint64_t ClientKey(uint32_t host, uint32_t port) {
    return (static_cast<uint64_t>(host) << 16) | (port & 0xffffu);
  }
  SimTime ClampTerm(uint32_t term_us) const;
  // Drops holders past their expiry; counts expirations and evictions.
  void ExpireHolders(Ino ino, Entry& entry, SimTime now);
  void SendRecall(Ino ino, Holder& holder, SimTime now);
  void Trace(TraceEventKind kind, uint32_t xid, uint64_t arg) {
    if (tracer_ != nullptr) {
      tracer_->Record(trace_track_, kind, xid, kNfsLease, arg);
    }
  }

  Node* node_;
  LeaseOptions options_;
  UdpStack* udp_ = nullptr;
  uint16_t recall_port_ = 0;
  Tracer* tracer_ = nullptr;
  uint16_t trace_track_ = 0;
  uint32_t boot_verifier_ = 0;
  SimTime grace_until_ = 0;
  uint32_t next_recall_serial_ = 0;
  // Bumped by Clear(); ResolveConflict waiters re-check it after every await
  // (the crash-epoch idiom) so a reboot mid-wait releases them immediately.
  uint64_t epoch_ = 0;
  std::unordered_map<Ino, Entry> table_;
  LeaseStats stats_;
  Log2Histogram recall_latency_us_;
};

}  // namespace renonfs

#endif  // RENONFS_SRC_NFS_LEASE_H_
