// The caching NFS client.
//
// Implements the 4.3BSD Reno client architecture of Section 2/5 — VFS name
// cache, attribute cache with 5-second timeout, block buffer cache with
// dirty-region tracking, biod-style asynchronous writes, push-on-close for
// close/open consistency, and the conservative push-dirty-before-read rule —
// with every mechanism switchable so the paper's comparison personalities
// (Reno / Reno-TCP / Reno-nopush / Reno-noconsist / Ultrix-like reference
// port) are mount options:
//
//   * Reno           — everything on; delayed writes; UDP + dynamic RTO.
//   * RenoTcp        — same over TCP transport.
//   * RenoNoPush     — no push-on-close (Table #2 "Reno-nopush").
//   * RenoNoConsist  — the experimental mount flag that disables all cache
//                      consistency: no push-on-close, no push-before-read,
//                      no open revalidation (Table #3/#5 "no consist").
//   * UltrixLike     — reference-port client model: no name cache, no
//                      dirty-region bufs (partial writes pre-read the
//                      block), asynchronous write policy, trusts its own
//                      writes (no push-before-read).
#ifndef RENONFS_SRC_NFS_CLIENT_H_
#define RENONFS_SRC_NFS_CLIENT_H_

#include <array>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "src/net/udp.h"
#include "src/nfs/wire.h"
#include "src/obs/metrics.h"
#include "src/rpc/client.h"
#include "src/sim/sync.h"
#include "src/sim/task.h"
#include "src/tcp/tcp.h"
#include "src/vfs/attr_cache.h"
#include "src/vfs/buf_cache.h"
#include "src/vfs/name_cache.h"

namespace renonfs {

// The three transports compared throughout Section 4.
enum class NfsTransportKind {
  kUdpFixedRto,    // the classic NFS transport: constant RTO, no cwnd
  kUdpDynamicRto,  // per-class A+kD estimation + congestion window
  kTcp,            // NFS over a TCP connection
};

enum class WritePolicy { kWriteThrough, kAsync, kDelayed };

struct NfsMountOptions {
  NfsTransportKind transport = NfsTransportKind::kUdpDynamicRto;
  SimTime timeo = Seconds(1);  // constant RTO / fallback for dynamic
  int max_tries = 12;
  TcpConfig tcp;  // used when transport == kTcp

  // 4.3BSD mount semantics. Soft (the default, and the simulator's
  // historical behavior): a UDP call fails with a timeout Status after
  // max_tries transmissions. hard: retry forever at the capped backoff,
  // surfacing "nfs server not responding"/"ok" events in recovery_stats();
  // over TCP, hard also reconnects and re-issues calls after a crashed
  // server goes silent. intr: Interrupt() cancels outstanding calls — the
  // only way a process escapes a hard mount while the server is down.
  bool hard = false;
  bool intr = false;
  // TCP soft mounts: reconnect cycles before a call fails with a timeout.
  // 0 keeps the historical wait-forever behavior. Ignored when hard.
  int tcp_soft_cycles = 0;

  size_t rsize = kNfsMaxData;
  size_t wsize = kNfsMaxData;
  size_t biods = 4;  // asynchronous I/O daemons; 0 forces write-through
  WritePolicy write_policy = WritePolicy::kDelayed;
  int read_ahead = 1;

  bool push_on_close = true;          // close/open consistency
  bool push_dirty_before_read = true; // Reno's conservative rule (Section 5)
  bool open_consistency = true;       // revalidate attributes at open
  bool name_cache = true;
  bool dirty_region_bufs = true;  // false: partial writes pre-read the block
  // Reference-port asynchronous policy: every write syscall starts the push
  // of the touched block immediately (not only full blocks), so repeated
  // small writes to one block cost repeated write RPCs.
  bool async_partial_blocks = false;
  size_t cache_blocks = 160;  // ~1.3 MB of 8 KB buffers, a uVAXII-class cache

  // NQNFS-style lease consistency [Gray89]. The client takes read leases on
  // attribute fetches (LEASE doubles as GETATTR) and a write lease before
  // writing; a live lease substitutes for open revalidation, the attribute
  // TTL, push-dirty-before-read, and push-on-close. Denied, expired, or
  // recalled leases degrade to the plain 4.3BSD rules above. UDP mounts
  // only — the recall callback channel is a UDP datagram port.
  bool leases = false;
  SimTime lease_term = Seconds(30);

  static NfsMountOptions Reno();
  static NfsMountOptions RenoUdpFixed();
  static NfsMountOptions RenoTcp();
  static NfsMountOptions RenoNoPush();
  static NfsMountOptions RenoNoConsist();
  static NfsMountOptions UltrixLike();
  // Reno with leases on: the §5 middle ground between push-on-close and the
  // no-consistency mount.
  static NfsMountOptions Leases();
};

struct NfsClientStats {
  std::array<uint64_t, kNfsProcCount> rpc_counts{};
  // Non-idempotent calls whose error was recognized as the echo of an
  // earlier transmission that did the work (EEXIST on a retried CREATE,
  // ENOENT on a retried REMOVE/RENAME) and absorbed. This happens when the
  // server's dup cache is lost across a reboot — the client-side hack
  // 4.3BSD shipped with, reproduced here.
  uint64_t retry_errors_absorbed = 0;
  // Write-behind failures latched on the file (the BSD nfsnode n_error): the
  // biod/sync-daemon push failed after write() already returned success, so
  // the error is reported at the next write() or close() on the file.
  uint64_t write_errors_latched = 0;
  // Dirty buffers discarded because their push failed with a permanent error
  // (ENOSPC, EIO): retrying forever would wedge the sync daemon, so the data
  // is dropped — the Unix contract for failed delayed writes.
  uint64_t dirty_bufs_discarded = 0;

  // --- lease telemetry (all zero unless the mount enables leases) ---------
  uint64_t leases_granted = 0;
  uint64_t leases_denied = 0;     // conflict or grace denials
  uint64_t lease_renewals = 0;
  uint64_t lease_recalls = 0;     // recall datagrams received
  uint64_t lease_vacates = 0;     // VACATE RPCs sent
  uint64_t lease_expirations = 0; // dropped at the skew-margin expiry / reboot
  // Dirty data discarded because the write lease lapsed AND the file moved
  // on (or a re-acquire was denied for conflict): the bytes lost the race
  // leases arbitrate, so pushing them would overwrite a newer writer.
  uint64_t lease_stale_discards = 0;
  // GETATTRs / open revalidations a live lease answered without an RPC.
  uint64_t lease_reads_saved = 0;
  // Invariant counter: WRITE RPCs initiated while the record showed an
  // expired, unreacquired write lease. Must stay zero; the chaos harness
  // and the runtime auditor assert it.
  uint64_t stale_lease_writes = 0;

  uint64_t TotalRpcs() const {
    uint64_t total = 0;
    for (uint64_t count : rpc_counts) {
      total += count;
    }
    return total;
  }
  uint64_t read_rpcs() const { return rpc_counts[kNfsRead]; }
  uint64_t write_rpcs() const { return rpc_counts[kNfsWrite]; }
  uint64_t lookup_rpcs() const { return rpc_counts[kNfsLookup]; }
  uint64_t getattr_rpcs() const { return rpc_counts[kNfsGetattr]; }
};

class NfsClient {
 public:
  // The transport binds `local_port` on the given stacks; only the stack
  // matching the chosen transport kind is used.
  NfsClient(Node* node, UdpStack* udp, TcpStack* tcp, SockAddr server, NfsFh root,
            NfsMountOptions options, uint16_t local_port = 890);
  ~NfsClient();
  NfsClient(const NfsClient&) = delete;
  NfsClient& operator=(const NfsClient&) = delete;

  const NfsFh& root() const { return root_; }
  const NfsMountOptions& options() const { return options_; }
  const NfsClientStats& stats() const { return stats_; }
  NfsClientStats& mutable_stats() { return stats_; }
  const RpcTransportStats& transport_stats() const { return transport_->stats(); }
  const RpcRecoveryStats& recovery_stats() const { return transport_->recovery_stats(); }
  RpcClientTransport* transport() { return transport_.get(); }

  // intr mount support: cancels every RPC in flight (they resolve with
  // kCancelled). No-op unless the mount has intr set.
  size_t Interrupt() { return transport_->Interrupt(); }

  // Observability: RPC send/retransmit/timeout/complete events on `track`.
  void set_tracer(Tracer* tracer, uint16_t track) { transport_->set_tracer(tracer, track); }
  // Interns one latency histogram per NFS procedure under
  // `<prefix><proc-name>` (microseconds); CallRpc records into them.
  void set_metrics(MetricsRegistry* registry, const std::string& prefix);
  const NameCache& name_cache() const { return name_cache_; }
  const AttrCache& attr_cache() const { return attr_cache_; }
  const BufCache& buf_cache() const { return cache_; }

  // --- namespace operations --------------------------------------------
  CoTask<StatusOr<NfsFh>> Lookup(NfsFh dir, std::string name);
  CoTask<StatusOr<NfsFh>> LookupPath(std::string path);  // '/'-separated, from root
  CoTask<StatusOr<FileAttr>> Getattr(NfsFh file);
  CoTask<Status> Setattr(NfsFh file, SetAttrRequest request);
  CoTask<StatusOr<NfsFh>> Create(NfsFh dir, std::string name, uint32_t mode = 0644);
  CoTask<StatusOr<NfsFh>> Mkdir(NfsFh dir, std::string name, uint32_t mode = 0755);
  CoTask<Status> Remove(NfsFh dir, std::string name);
  CoTask<Status> Rmdir(NfsFh dir, std::string name);
  CoTask<Status> Rename(NfsFh from_dir, std::string from_name, NfsFh to_dir,
                        std::string to_name);
  CoTask<Status> Link(NfsFh file, NfsFh dir, std::string name);
  CoTask<Status> Symlink(NfsFh dir, std::string name, std::string target);
  CoTask<StatusOr<std::string>> Readlink(NfsFh file);
  CoTask<StatusOr<std::vector<ReaddirEntry>>> Readdir(NfsFh dir);
  CoTask<StatusOr<FsStat>> Statfs();

  // --- open-file I/O ------------------------------------------------------
  CoTask<Status> Open(NfsFh file);
  // Reads into `out` (may be nullptr to discard); returns bytes read.
  CoTask<StatusOr<size_t>> Read(NfsFh file, uint64_t offset, size_t len, uint8_t* out);
  CoTask<Status> Write(NfsFh file, uint64_t offset, const uint8_t* data, size_t len);
  CoTask<Status> Close(NfsFh file);
  // Pushes all delayed writes (the 30-second sync daemon, or umount).
  CoTask<Status> Flush(NfsFh file);
  CoTask<Status> FlushAll();

 private:
  struct FileState {
    NfsFh fh;
    bool written_since_read = false;
    SimTime data_mtime = -1;  // mtime the cached blocks correspond to
    // Local view of the file size: with delayed writes the server's size is
    // stale until the push, so reads must honor locally written extents
    // (the nfsnode n_size field in the BSD implementation).
    uint64_t local_size = 0;
    // Bumped on every local write; lets an in-flight block fetch detect that
    // its reply predates newer local data and retry instead of installing
    // stale bytes (the buffer-busy interlock of the BSD buf layer).
    uint64_t write_gen = 0;
    int open_count = 0;
    WaitGroup async_writes;
    // First asynchronous write-behind failure, held until a write() or
    // close() on the file can report it (4.3BSD's nfsnode n_error). Cleared
    // when surfaced.
    Status write_error;
  };
  // Client-side view of one per-file lease. A record with kind == 0 is a
  // denial marker: it backs the post-denial cooldown so the client does not
  // re-ask on every operation.
  struct LeaseState {
    uint32_t kind = 0;           // 0 = none, else kLeaseRead / kLeaseWrite
    SimTime expires_at = 0;      // send time + term - term/8 (skew margin)
    uint32_t boot_verifier = 0;  // server incarnation that granted it
    bool vacating = false;       // a recall is being served
    bool stale_boot = false;     // the server rebooted since the grant
    bool expiry_counted = false;
    SimTime denied_until = 0;    // cooldown after a denial
  };
  struct DirListing {
    SimTime mtime;
    std::vector<ReaddirEntry> entries;
  };

  // --- RPC plumbing -------------------------------------------------------
  CoTask<StatusOr<MbufChain>> CallRpc(uint32_t proc, MbufChain args,
                                      RpcCallInfo* info = nullptr);
  // The 4.3BSD retry-error heuristic (DESIGN §8). When the server loses a
  // duplicate-cache entry (a reboot, an eviction), a retransmitted
  // non-idempotent call re-executes and answers EEXIST (CREATE, MKDIR, LINK,
  // SYMLINK) or ENOENT (REMOVE, RMDIR, RENAME): the echo of an earlier
  // transmission that did the work. True, and counted in
  // retry_errors_absorbed, when `status` is that `echo` nfsstat on a call
  // sent more than once; a transport error is never absorbed.
  bool AbsorbRetryError(const StatusOr<MbufChain>& reply, const Status& status, ErrorCode echo,
                        const RpcCallInfo& info);

  CoTask<StatusOr<FileAttr>> RpcGetattr(NfsFh file);
  CoTask<StatusOr<DirOpReply>> RpcLookup(NfsFh dir, const std::string& name);
  CoTask<StatusOr<ReadReply>> RpcRead(NfsFh file, uint32_t offset, uint32_t count);
  CoTask<StatusOr<FileAttr>> RpcWrite(NfsFh file, uint32_t offset, MbufChain data);

  // --- cache plumbing ------------------------------------------------------
  FileState& StateFor(NfsFh fh);
  // Fresh-enough attributes: attr cache else GETATTR RPC.
  CoTask<StatusOr<FileAttr>> GetattrCached(NfsFh file);
  void NoteAttrs(NfsFh file, const FileAttr& attr);
  void DiscardFile(NfsFh file);  // drop data + attrs (file removed/stale)
  // A call changed `dir`: forget its name-cache epoch, cached listing and
  // cached attributes. Each caller purges the name cache itself, as far as
  // its call requires.
  void DirChanged(NfsFh dir);
  // CREATE and MKDIR: one body, as on the server (NfsServer::DoCreate).
  CoTask<StatusOr<NfsFh>> MakeNode(uint32_t proc, NfsFh dir, std::string name, uint32_t mode);

  // Reads `block` into the cache (read RPC of up to rsize), with read-ahead.
  CoTask<StatusOr<Buf*>> FetchBlock(NfsFh file, uint32_t block);
  CoTask<void> ReadAheadBlock(NfsFh file, uint32_t block);

  // Pushes one buffer's dirty region; re-finds the buf on completion.
  CoTask<Status> PushBufRegion(NfsFh file, uint32_t block);
  CoTask<Status> PushBufRegionLocked(NfsFh file, uint32_t block);
  // Records a failed asynchronous push on the file so close()/next write can
  // report it; permanent errors also discard the dirty buffer (see .cc).
  void LatchWriteError(NfsFh file, uint32_t block, const Status& status);
  // Surfaces and clears the latched error (returns Ok when none).
  Status TakeWriteError(FileState& state);
  // Pushes all dirty buffers of a file through the biod pool and waits.
  CoTask<Status> PushDirty(NfsFh file);
  // Applies the Reno consistency rule before serving a read.
  CoTask<Status> MaybePushBeforeRead(NfsFh file);
  // Makes room in the cache when every buffer is dirty.
  CoTask<Status> ReclaimOneBuf();
  // Find-or-create `block`, reclaiming when the cache is full. The returned
  // pointer was (re)looked up after this coroutine's last suspension, so the
  // caller may use it freely until its own next co_await.
  CoTask<StatusOr<Buf*>> EnsureCachedBlock(uint64_t key, uint32_t block);

  CoTask<Status> WriteBlockRange(NfsFh file, uint32_t block, size_t lo, size_t hi,
                                 const uint8_t* bytes);

  // --- lease plumbing -----------------------------------------------------
  // True when a live lease of at least `kind` strength covers the file
  // (write subsumes read). Counts the expiry the first time it observes one.
  bool LeaseValid(uint64_t key, uint32_t kind);
  // Whether a LEASE request is worth sending (channel up, not mid-recall,
  // past any denial cooldown).
  bool CanAskLease(uint64_t key) const;
  // True when the record shows a write lease we can no longer trust.
  bool WriteLeaseLapsed(uint64_t key) const;
  // LEASE RPC; updates the lease record and the attribute cache.
  CoTask<StatusOr<LeaseReply>> RpcLease(NfsFh file, uint32_t kind, bool reclaim);
  void NoteLeaseReply(uint64_t key, const LeaseReply& reply, SimTime sent_at);
  // Reboot detection: a changed verifier marks every lease stale.
  void CheckBootVerifier(uint32_t verifier);
  // Takes a lease of `kind` unless one is live or recently denied. A lapsed
  // write lease with dirty data is settled through EnsureSafeToPush instead.
  CoTask<void> MaybeAcquireLease(NfsFh file, uint32_t kind);
  // The push choke point: a lapsed write lease must be re-acquired (or the
  // dirty data discarded, if the file moved on) before any WRITE goes out.
  CoTask<Status> EnsureSafeToPush(NfsFh file);
  void OnRecallDatagram(SockAddr from, MbufChain payload);
  CoTask<void> HandleRecall(RecallArgs args);
  CoTask<void> RpcVacate(NfsFh file, uint32_t kind, uint32_t serial);
  // Voluntary vacate (serial 0) when the file is going away locally.
  void VacateIfHeld(NfsFh file);
  CoTask<void> LeaseRenewalPass();

  Node* node_;
  SockAddr server_;
  NfsFh root_;
  NfsMountOptions options_;
  std::unique_ptr<RpcClientTransport> transport_;
  NameCache name_cache_;
  AttrCache attr_cache_;  // 5 s TTL (kAttrTtl in attr_cache.cc)
  BufCache cache_;
  Semaphore biods_;
  NfsClientStats stats_;
  std::map<uint64_t, FileState> files_;
  std::map<uint64_t, SimTime> name_cache_epoch_;  // dir key -> mtime at Enter
  std::map<uint64_t, DirListing> dir_listings_;
  // In-flight block fetches, for read-ahead/demand-read deduplication.
  std::map<std::pair<uint64_t, uint32_t>, std::shared_ptr<WaitGroup>> fetching_;
  // In-flight block pushes — the B_BUSY buffer lock (see PushBufRegion).
  std::map<std::pair<uint64_t, uint32_t>, std::shared_ptr<WaitGroup>> pushing_;
  // Per-proc RPC latency histograms, interned once by set_metrics so the
  // per-call path never touches the registry's string map.
  std::array<Log2Histogram*, kNfsProcCount> lat_hist_{};
  Timer sync_timer_;  // the 30-second update/sync daemon
  CoTask<void> SyncDaemonPass();

  // --- lease state ----------------------------------------------------------
  std::map<uint64_t, LeaseState> leases_;
  uint32_t server_boot_verifier_ = 0;
  bool seen_boot_verifier_ = false;
  // Recall callback channel (bound only on UDP mounts with leases on).
  UdpStack* callback_udp_ = nullptr;
  uint16_t callback_port_ = 0;
  Timer lease_timer_;  // renewal daemon, term/4 cadence
};

}  // namespace renonfs

#endif  // RENONFS_SRC_NFS_CLIENT_H_
