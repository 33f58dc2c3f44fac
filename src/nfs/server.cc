#include "src/nfs/server.h"

#include <algorithm>
#include <utility>

#include "src/util/logging.h"

namespace renonfs {

namespace {
// Approximate on-disk size of a directory entry (UFS direct struct).
constexpr size_t kDirEntryBytes = 16;

// The server caches whole file-system blocks.
static_assert(kBufBlockSize == kFsBlockSize);

// Write gathering: a gather window lasts at least kGatherWindow and re-arms
// while new writes keep joining, up to kGatherMaxRounds rounds.
constexpr SimTime kGatherWindow = Milliseconds(8);
constexpr size_t kGatherMaxRounds = 8;
// Hard cap on one round's wait. The queue_clears_at() extension is unbounded
// by itself: under a DiskSlow storm the queue horizon can sit minutes out,
// and a gather lead that sleeps until then would park its nfsd slot and
// every gathered WRITE's reply behind the whole backlog instead of just the
// next drain. One round never waits longer than this, slow disk or not.
constexpr SimTime kMaxGatherWindow = Milliseconds(250);
static_assert(kMaxGatherWindow >= kGatherWindow);

size_t DirBlocks(size_t entries) {
  return std::max<size_t>(1, (entries * kDirEntryBytes + kFsBlockSize - 1) / kFsBlockSize);
}

// Directory blocks live in the same buffer cache as data blocks but under a
// distinct key space.
uint64_t CacheKey(Ino ino, bool is_directory) {
  return static_cast<uint64_t>(ino) | (is_directory ? (1ull << 63) : 0);
}
}  // namespace

NfsServer::NfsServer(Node* node, LocalFs* fs, NfsServerOptions options)
    : node_(node),
      fs_(fs),
      options_(options),
      rpc_server_(node,
                  [] {
                    RpcServerOptions rpc_options;
                    for (uint32_t proc = 0; proc < kNfsProcCount; ++proc) {
                      if (IsNonIdempotent(proc)) {
                        rpc_options.non_idempotent_procs.insert(proc);
                      }
                    }
                    return rpc_options;
                  }()),
      cache_([&options] {
        BufCacheOptions cache_options;
        cache_options.capacity_blocks = options.cache_blocks;
        cache_options.vnode_chained = options.vnode_chained_bufs;
        return cache_options;
      }()),
      name_cache_([&options] {
        NameCacheOptions nc_options;
        nc_options.enabled = options.server_name_cache;
        return nc_options;
      }()),
      leases_(node, options.lease) {
  rpc_server_.set_dispatcher(
      [this](uint32_t proc, MbufChain args, SockAddr client) -> CoTask<StatusOr<MbufChain>> {
        return Dispatch(proc, std::move(args), client);
      });
}

void NfsServer::AttachUdp(UdpStack* udp, uint16_t port) {
  rpc_server_.BindUdp(udp, port);
  if (options_.leases) {
    // Recall callbacks go out as bare datagrams from the port above the RPC
    // service; they are server->client pushes, not RPC replies.
    leases_.AttachUdp(udp, port + 1);
  }
}

void NfsServer::AttachTcp(TcpStack* tcp, uint16_t port) {
  tcp_stack_ = tcp;
  rpc_server_.BindTcp(tcp, port);
}

void NfsServer::Crash() {
  CHECK(!crashed_) << node_->name() << ": crashed twice without a restart";
  crashed_ = true;
  ++crash_count_;
  node_->set_powered(false);
  // Volatile kernel state dies. Order: kill the TCP connections first so no
  // handler can run against the cleared per-connection RPC state.
  if (tcp_stack_ != nullptr) {
    tcp_stack_->ResetAllConnections();
  }
  rpc_server_.OnServerCrash();
  cache_.Clear();
  name_cache_.Purge();
  // Open gather windows die with the kernel. The batch objects themselves
  // stay alive (shared_ptr) for the coroutines still parked on them; the
  // leaders will notice crashed_, skip the disk commit, and release the
  // waiters, whose replies the RPC crash epoch then suppresses.
  gather_.clear();
  // Leases are volatile server state too; clearing bumps the lease epoch so
  // recall waiters parked in ResolveConflict release on their next wakeup.
  leases_.Clear();
}

void NfsServer::Restart() {
  CHECK(crashed_) << node_->name() << ": restart without a crash";
  crashed_ = false;
  node_->set_powered(true);
  if (options_.leases) {
    // Grace period: no new leases until every term granted by the previous
    // incarnation has run out, so a partitioned pre-crash holder can never
    // overlap a post-crash grant. Holders reclaim with the new boot verifier.
    leases_.set_boot_verifier(static_cast<uint32_t>(crash_count_));
    leases_.BeginGrace(node_->scheduler().now() + options_.lease.max_term);
  }
}

StatusOr<Ino> NfsServer::ResolveFh(const NfsFh& fh) const {
  if (fh.fsid() != 1 || !fs_->Exists(fh.ino())) {
    return StaleError("nfsd: stale file handle");
  }
  return fh.ino();
}

void NfsServer::NoteOpCpu(uint32_t xid, SimTime nominal, CostCategory category) {
  if (tracer_ != nullptr && tracer_->sink() != nullptr) {
    tracer_->sink()->OnCpuCharge(xid, static_cast<uint8_t>(category),
                                 node_->cpu().ScaledCost(nominal));
  }
}

void NfsServer::ChargeOp(uint32_t xid, SimTime nominal, CostCategory category) {
  node_->cpu().ChargeBackground(nominal, category);
  NoteOpCpu(xid, nominal, category);
}

void NfsServer::ChargeCacheSearch(uint32_t xid) {
  const CostProfile& profile = node_->profile();
  ChargeOp(xid,
           profile.bufcache_search_base +
               profile.bufcache_search_per_buf *
                   static_cast<SimTime>(cache_.last_scan_length()),
           CostCategory::kNfsProc);
}

CoTask<Buf*> NfsServer::BlockThroughCache(uint32_t xid, Ino ino, uint32_t block,
                                          bool is_directory) {
  const uint64_t key = CacheKey(ino, is_directory);
  Buf* buf = cache_.Find(key, block);
  ChargeCacheSearch(xid);
  if (buf != nullptr) {
    co_return buf;
  }
  auto created = cache_.Create(key, block);
  ++stats_.disk_reads;
  const uint64_t epoch = crash_count_;
  const SimTime queue_ahead = node_->disk().queue_clears_at();
  const SimTime entered = node_->scheduler().now();
  Trace(TraceEventKind::kDiskQueueWait, xid,
        queue_ahead > entered ? static_cast<uint64_t>(queue_ahead - entered) : 0);
  Trace(TraceEventKind::kDiskQueueEnter, xid, kFsBlockSize);
  co_await node_->disk().Io(kFsBlockSize);
  Trace(TraceEventKind::kDiskQueueLeave, xid, kFsBlockSize);
  if (crashed_ || crash_count_ != epoch) {
    // The server rebooted while this read sat in the disk queue: Crash()
    // cleared the buffer cache, so `created` now dangles. The RPC crash
    // epoch suppresses the reply; just never touch the dead buffer.
    co_return nullptr;
  }
  if (!created.ok()) {
    // Every buffer dirty (cannot happen on this write-through server, but
    // stay robust): serve straight from disk without caching.
    co_return nullptr;
  }
  ++stats_.cache_fills;
  Buf* fresh = created.value();
  if (!is_directory) {
    auto data = fs_->Read(ino, static_cast<uint64_t>(block) * kFsBlockSize, kFsBlockSize);
    if (data.ok()) {
      fresh->CopyIn(0, data->data(), data->size());
      fresh->set_valid(data->size());
    }
  } else {
    fresh->set_valid(kFsBlockSize);
  }
  co_return fresh;
}

CoTask<void> NfsServer::DiskWrite(uint32_t xid, size_t bytes) {
  ++stats_.disk_writes;
  const SimTime queue_ahead = node_->disk().queue_clears_at();
  const SimTime entered = node_->scheduler().now();
  Trace(TraceEventKind::kDiskQueueWait, xid,
        queue_ahead > entered ? static_cast<uint64_t>(queue_ahead - entered) : 0);
  Trace(TraceEventKind::kDiskQueueEnter, xid, bytes);
  co_await node_->disk().Io(bytes);
  Trace(TraceEventKind::kDiskQueueLeave, xid, bytes);
}

CoTask<void> NfsServer::CommitToDisk(uint32_t xid, size_t disk_ops, size_t bytes_per_op) {
  for (size_t i = 0; i < disk_ops; ++i) {
    co_await DiskWrite(xid, bytes_per_op);
  }
}

CoTask<void> NfsServer::CommitWrite(uint32_t xid, Ino ino, uint32_t first_block,
                                    uint32_t last_block, size_t bytes) {
  const size_t data_blocks = last_block - first_block + 1;
  if (!options_.write_gathering) {
    // Baseline: the 1-3 synchronous disk writes per write RPC the paper
    // mentions — data block(s), then the inode, strictly serial.
    co_await CommitToDisk(xid, data_blocks, bytes == 0 ? 512 : bytes / data_blocks);
    co_await CommitToDisk(xid, 1, 512);  // inode
    co_return;
  }

  ++writes_in_flight_[ino];

  auto open = gather_.find(ino);
  if (open != gather_.end()) {
    // Another nfsd already holds this file's gather window open: add our
    // blocks to its batch and wait for the shared commit.
    auto batch = open->second;
    for (uint32_t block = first_block; block <= last_block; ++block) {
      batch->blocks.insert(block);
    }
    batch->bytes += bytes;
    ++batch->calls;
    batch->baseline_disk_ops += data_blocks + 1;
    ++stats_.gathered_writes;
    Trace(TraceEventKind::kGatherJoin, xid, batch->calls);
    co_await batch->committed.Wait();
    --writes_in_flight_[ino];
    if (writes_in_flight_[ino] == 0) {
      writes_in_flight_.erase(ino);
    }
    co_return;
  }

  if (writes_in_flight_[ino] <= 1) {
    // No other WRITE for this file anywhere between decode and commit:
    // opening a window would only add latency. Commit like the baseline —
    // but stay counted while the disk runs, so a WRITE arriving meanwhile
    // sees the overlap and opens a window for the ones behind it.
    co_await CommitToDisk(xid, data_blocks, bytes == 0 ? 512 : bytes / data_blocks);
    co_await CommitToDisk(xid, 1, 512);  // inode
    --writes_in_flight_[ino];
    if (writes_in_flight_[ino] == 0) {
      writes_in_flight_.erase(ino);
    }
    co_return;
  }

  // Become the gather leader: open the window and let the other in-flight
  // WRITEs (and any that arrive while we wait) pile onto the batch. The
  // window re-arms while the batch keeps growing, bounded by
  // kGatherMaxRounds so a sustained stream cannot starve the commit.
  auto batch = std::make_shared<GatherBatch>();
  for (uint32_t block = first_block; block <= last_block; ++block) {
    batch->blocks.insert(block);
  }
  batch->bytes = bytes;
  batch->calls = 1;
  batch->baseline_disk_ops = data_blocks + 1;
  batch->committed.Add(1);
  gather_[ino] = batch;
  ++stats_.gathered_writes;
  Trace(TraceEventKind::kGatherLead, xid, writes_in_flight_[ino]);

  size_t seen_calls = 0;
  size_t rounds = 0;
  while (batch->calls > seen_calls && rounds < kGatherMaxRounds && !crashed_) {
    seen_calls = batch->calls;
    ++rounds;
    // The window is at least kGatherWindow, and extends while the disk is
    // busy with earlier work: our commit could not start before the queue
    // ahead of it drains, so that wait is free gathering time. On an idle
    // disk this degenerates to the small fixed delay; behind a slow or
    // backlogged disk the batch rides the queue and absorbs every WRITE
    // that arrives while the device grinds — the saturation regime where
    // gathering pays.
    const SimTime now = node_->scheduler().now();
    const SimTime disk_ready = node_->disk().queue_clears_at();
    const SimTime wait =
        std::min(std::max(kGatherWindow, disk_ready > now ? disk_ready - now : 0),
                 kMaxGatherWindow);
    co_await node_->scheduler().Delay(wait);
  }

  // Close the window before touching the disk so late arrivals start a new
  // batch instead of joining one whose block set is already committed.
  // After a crash the map was cleared (and possibly repopulated post
  // restart), so only erase our own entry.
  auto current = gather_.find(ino);
  if (current != gather_.end() && current->second == batch) {
    gather_.erase(current);
  }

  if (!crashed_) {
    if (batch->calls > 1) {
      ++stats_.gather_batches;
      stats_.disk_writes_saved += batch->baseline_disk_ops - 2;
    }
    // One clustered data commit covering every gathered block, then one
    // inode write for the batch.
    const uint64_t commit_bytes =
        std::max<uint64_t>(batch->bytes, batch->blocks.size() * 512);
    co_await DiskWrite(xid, commit_bytes);
    co_await DiskWrite(xid, 512);
  }
  // A crashed leader releases its waiters without committing: the RPC crash
  // epoch suppresses every reply in the batch, so no client ever hears an
  // acknowledgement for data that missed stable storage.

  batch->committed.Done();
  --writes_in_flight_[ino];
  if (writes_in_flight_[ino] == 0) {
    writes_in_flight_.erase(ino);
  }
}

CoTask<StatusOr<Ino>> NfsServer::LookupWithCosts(uint32_t xid, Ino dir,
                                                 const std::string& name) {
  const CostProfile& profile = node_->profile();
  if (name_cache_.enabled()) {
    ChargeOp(xid, profile.namecache_hit, CostCategory::kNfsProc);
    auto cached = name_cache_.Lookup(dir, name);
    if (cached.has_value()) {
      // Validate against the filesystem (entries can go stale on rename).
      auto current = fs_->Lookup(dir, name);
      if (current.ok() && static_cast<uint64_t>(current.value()) == *cached) {
        co_return current.value();
      }
      name_cache_.Invalidate(dir, name);
    }
    ChargeOp(xid, profile.namecache_miss_overhead, CostCategory::kNfsProc);
  }

  // Scan the directory: read its blocks through the buffer cache and charge
  // the per-entry comparison cost. A hit scans half the directory on
  // average; a miss scans all of it.
  auto entry_count_or = fs_->EntryCount(dir);
  if (!entry_count_or.ok()) {
    co_return entry_count_or.status();
  }
  const size_t entries = entry_count_or.value();
  auto result = fs_->Lookup(dir, name);
  const size_t total_blocks = DirBlocks(entries);
  const size_t blocks_to_scan = result.ok() ? total_blocks / 2 + 1 : total_blocks;
  const size_t entries_to_scan = result.ok() ? entries / 2 + 1 : entries;
  for (size_t block = 0; block < blocks_to_scan; ++block) {
    co_await BlockThroughCache(xid, dir, static_cast<uint32_t>(block), /*is_directory=*/true);
  }
  ChargeOp(xid, profile.dir_scan_per_entry * static_cast<SimTime>(entries_to_scan),
           CostCategory::kNfsProc);
  if (result.ok() && name_cache_.enabled()) {
    name_cache_.Enter(dir, name, result.value());
  }
  co_return result;
}

CoTask<StatusOr<MbufChain>> NfsServer::Dispatch(uint32_t proc, MbufChain args, SockAddr client) {
  // Read before the first co_await: the RPC server publishes the xid only
  // for the synchronous prefix of the dispatcher coroutine.
  const uint32_t xid = rpc_server_.dispatching_xid();
  if (proc >= kNfsProcCount) {
    co_return ProcUnavailError("nfsd: no such procedure");
  }
  ++stats_.proc_counts[proc];
  const CostProfile& profile = node_->profile();
  if (options_.layered_xdr) {
    // Reference port: arguments pass through the layered XDR/RPC library's
    // contiguous buffer before reaching the handler, and the library's call
    // layering costs a fixed overhead per RPC.
    ChargeOp(xid,
             profile.xdr_layered_per_call +
                 profile.xdr_layered_per_byte * static_cast<SimTime>(args.Length()),
             CostCategory::kXdr);
  }
  NoteOpCpu(xid, profile.nfs_op_base, CostCategory::kNfsProc);
  co_await node_->cpu().Use(profile.nfs_op_base, CostCategory::kNfsProc);

  if (proc == kNfsNull) {
    co_return MbufChain();
  }
  if (proc == kNfsRoot || proc == kNfsWriteCache) {
    co_return ProcUnavailError("nfsd: obsolete procedure");
  }

  XdrDecoder dec(&args);
  MbufChain body;
  XdrEncoder body_enc(&body);
  Status status = InternalError("nfsd: unhandled");
  switch (proc) {
    case kNfsGetattr:
      status = co_await DoGetattr(xid, dec, body_enc);
      break;
    case kNfsSetattr:
      status = co_await DoSetattr(xid, dec, body_enc, client.host);
      break;
    case kNfsLookup:
      status = co_await DoLookup(xid, dec, body_enc);
      break;
    case kNfsReadlink:
      status = co_await DoReadlink(xid, dec, body_enc);
      break;
    case kNfsRead:
      status = co_await DoRead(xid, dec, body_enc, client.host);
      break;
    case kNfsWrite:
      status = co_await DoWrite(xid, dec, body_enc, client.host);
      break;
    case kNfsCreate:
      status = co_await DoCreate(xid, dec, body_enc, /*mkdir=*/false);
      break;
    case kNfsMkdir:
      status = co_await DoCreate(xid, dec, body_enc, /*mkdir=*/true);
      break;
    case kNfsRemove:
      status = co_await DoRemove(xid, dec, body_enc, /*rmdir=*/false, client.host);
      break;
    case kNfsRmdir:
      status = co_await DoRemove(xid, dec, body_enc, /*rmdir=*/true, client.host);
      break;
    case kNfsRename:
      status = co_await DoRename(xid, dec, body_enc);
      break;
    case kNfsLink:
      status = co_await DoLink(xid, dec, body_enc);
      break;
    case kNfsSymlink:
      status = co_await DoSymlink(xid, dec, body_enc);
      break;
    case kNfsReaddir:
      status = co_await DoReaddir(xid, dec, body_enc);
      break;
    case kNfsStatfs:
      status = co_await DoStatfs(xid, dec, body_enc);
      break;
    case kNfsLease:
      status = co_await DoLease(xid, dec, body_enc);
      break;
    case kNfsVacate:
      status = co_await DoVacate(xid, dec, body_enc);
      break;
    default:
      co_return ProcUnavailError("nfsd: no such procedure");
  }

  if (status.code() == ErrorCode::kGarbageArgs) {
    co_return status;  // becomes an RPC-level GARBAGE_ARGS reply
  }

  MbufChain reply;
  XdrEncoder head(&reply);
  EncodeNfsStat(head, NfsStatFromStatus(status));
  if (status.ok()) {
    reply.Concat(std::move(body));
  }
  if (options_.layered_xdr) {
    ChargeOp(xid, profile.xdr_layered_per_byte * static_cast<SimTime>(reply.Length()),
             CostCategory::kXdr);
  }
  co_return reply;
}

CoTask<Status> NfsServer::DoGetattr(uint32_t xid, XdrDecoder& dec, XdrEncoder& out) {
  auto fh_or = DecodeFh(dec);
  if (!fh_or.ok()) {
    co_return fh_or.status();
  }
  auto ino_or = ResolveFh(fh_or.value());
  if (!ino_or.ok()) {
    co_return ino_or.status();
  }
  auto attr_or = fs_->Getattr(ino_or.value());
  if (!attr_or.ok()) {
    co_return attr_or.status();
  }
  ChargeOp(xid, node_->profile().fattr_fill, CostCategory::kNfsProc);
  EncodeFattr(out, attr_or.value());
  co_return Status::Ok();
}

CoTask<Status> NfsServer::DoSetattr(uint32_t xid, XdrDecoder& dec, XdrEncoder& out,
                                    HostId client) {
  auto args_or = DecodeSetattrArgs(dec);
  if (!args_or.ok()) {
    co_return args_or.status();
  }
  auto ino_or = ResolveFh(args_or->file);
  if (!ino_or.ok()) {
    co_return ino_or.status();
  }
  const bool lease_ok = co_await GateOnLeases(xid, ino_or.value(), /*write_op=*/true, client);
  if (!lease_ok) {
    co_return UnavailableError("nfsd: rebooted during lease recall");
  }
  Status status = fs_->Setattr(ino_or.value(), args_or->attrs);
  if (!status.ok()) {
    co_return status;
  }
  if (args_or->attrs.size.has_value() && options_.page_loaning) {
    // A truncate (or extension) changes file bytes without going through
    // DoWrite's cache refresh. The baseline read path re-reads the fs on
    // every READ so stale buffers only cost stats, but the loaning path
    // serves bytes straight from the cache — drop them. (Gated on the flag
    // so the flags-off configuration reproduces the paper's cache
    // behaviour exactly.)
    cache_.InvalidateFile(CacheKey(ino_or.value(), false));
  }
  co_await CommitToDisk(xid, 1, 512);  // inode update
  auto attr_or = fs_->Getattr(ino_or.value());
  if (!attr_or.ok()) {
    co_return attr_or.status();
  }
  ChargeOp(xid, node_->profile().fattr_fill, CostCategory::kNfsProc);
  EncodeFattr(out, attr_or.value());
  co_return Status::Ok();
}

CoTask<Status> NfsServer::DoLookup(uint32_t xid, XdrDecoder& dec, XdrEncoder& out) {
  auto args_or = DecodeDirOpArgs(dec);
  if (!args_or.ok()) {
    co_return args_or.status();
  }
  auto dir_or = ResolveFh(args_or->dir);
  if (!dir_or.ok()) {
    co_return dir_or.status();
  }
  auto ino_or = co_await LookupWithCosts(xid, dir_or.value(), args_or->name);
  if (!ino_or.ok()) {
    co_return ino_or.status();
  }
  auto attr_or = fs_->Getattr(ino_or.value());
  if (!attr_or.ok()) {
    co_return attr_or.status();
  }
  ChargeOp(xid, node_->profile().fattr_fill, CostCategory::kNfsProc);
  DirOpReply reply;
  reply.file = NfsFh::Make(1, ino_or.value());
  reply.attr = attr_or.value();
  EncodeDirOpReply(out, reply);
  co_return Status::Ok();
}

CoTask<Status> NfsServer::DoReadlink(uint32_t xid, XdrDecoder& dec, XdrEncoder& out) {
  (void)xid;
  auto fh_or = DecodeFh(dec);
  if (!fh_or.ok()) {
    co_return fh_or.status();
  }
  auto ino_or = ResolveFh(fh_or.value());
  if (!ino_or.ok()) {
    co_return ino_or.status();
  }
  auto target_or = fs_->Readlink(ino_or.value());
  if (!target_or.ok()) {
    co_return target_or.status();
  }
  out.PutString(target_or.value());
  co_return Status::Ok();
}

CoTask<Status> NfsServer::DoRead(uint32_t xid, XdrDecoder& dec, XdrEncoder& out,
                                 HostId client) {
  auto args_or = DecodeReadArgs(dec);
  if (!args_or.ok()) {
    co_return args_or.status();
  }
  auto ino_or = ResolveFh(args_or->file);
  if (!ino_or.ok()) {
    co_return ino_or.status();
  }
  // A READ against a foreign write lease waits for the holder to push and
  // vacate, so the bytes served below include that holder's cached writes.
  const bool lease_ok = co_await GateOnLeases(xid, ino_or.value(), /*write_op=*/false, client);
  if (!lease_ok) {
    co_return UnavailableError("nfsd: rebooted during lease recall");
  }
  const Ino ino = ino_or.value();
  const uint32_t offset = args_or->offset;
  const uint32_t count = std::min<uint32_t>(args_or->count, kNfsMaxData);

  // Bring every overlapped block through the buffer cache (cost + disk).
  const uint32_t first_block = offset / kFsBlockSize;
  const uint32_t last_block = count == 0 ? first_block : (offset + count - 1) / kFsBlockSize;
  for (uint32_t block = first_block; block <= last_block; ++block) {
    co_await BlockThroughCache(xid, ino, block, /*is_directory=*/false);
  }

  auto attr_or = fs_->Getattr(ino);
  if (!attr_or.ok()) {
    co_return attr_or.status();
  }

  MbufChain data;
  if (options_.page_loaning) {
    // Loan the cache clusters into the reply instead of copying them — the
    // "borrowing" Section 3 left as future work. Only the per-cluster pin
    // bookkeeping costs CPU; the data bytes never move. The chain holds
    // cluster references until the frames leave the machine, which pins the
    // buffers against eviction and forces copy-on-write under any
    // overlapping WRITE (see BufCache).
    const uint64_t file_size = attr_or->size;
    uint64_t pos = offset;
    uint64_t remaining =
        offset >= file_size ? 0 : std::min<uint64_t>(count, file_size - offset);
    bool loaned_any = false;
    while (remaining > 0) {
      const uint32_t block = static_cast<uint32_t>(pos / kFsBlockSize);
      const size_t in_off = pos % kFsBlockSize;
      const size_t take = std::min<uint64_t>(remaining, kFsBlockSize - in_off);
      // Re-find: the bring-in loop above awaits the disk per block, and a
      // concurrent request may have evicted an earlier block meanwhile.
      Buf* buf = cache_.Find(CacheKey(ino, false), block);
      ChargeCacheSearch(xid);
      if (buf != nullptr && buf->valid() >= in_off + take) {
        const size_t clusters = buf->ShareInto(&data, in_off, take);
        ChargeOp(xid,
                 node_->profile().page_loan_per_cluster * static_cast<SimTime>(clusters),
                 CostCategory::kNfsProc);
        stats_.loaned_bytes += take;
        loaned_any = true;
      } else {
        // Evicted under pressure (or a short fill): serve this range by the
        // classic copy path.
        auto part_or = fs_->Read(ino, pos, take);
        if (!part_or.ok()) {
          co_return part_or.status();
        }
        ChargeOp(xid, node_->profile().copy_per_byte * static_cast<SimTime>(part_or->size()),
                 CostCategory::kCopy);
        data.Append(part_or->data(), part_or->size());
        if (part_or->size() < take) {
          break;  // concurrent truncation
        }
      }
      pos += take;
      remaining -= take;
    }
    if (loaned_any) {
      ++stats_.loaned_replies;
    }
  } else {
    auto data_or = fs_->Read(ino, offset, count);
    if (!data_or.ok()) {
      co_return data_or.status();
    }
    const std::vector<uint8_t>& bytes = data_or.value();

    // Copy buffer cache -> mbuf clusters: the remaining per-byte cost the
    // paper's Section 3 could not remove.
    ChargeOp(xid, node_->profile().copy_per_byte * static_cast<SimTime>(bytes.size()),
             CostCategory::kCopy);
    data.Append(bytes.data(), bytes.size());
  }
  ChargeOp(xid, node_->profile().fattr_fill, CostCategory::kNfsProc);
  ReadReply reply;
  reply.attr = attr_or.value();
  reply.data = std::move(data);
  EncodeReadReply(out, std::move(reply));
  co_return Status::Ok();
}

CoTask<Status> NfsServer::DoWrite(uint32_t xid, XdrDecoder& dec, XdrEncoder& out,
                                  HostId client) {
  auto args_or = DecodeWriteArgs(dec);
  if (!args_or.ok()) {
    co_return args_or.status();
  }
  auto ino_or = ResolveFh(args_or->file);
  if (!ino_or.ok()) {
    co_return ino_or.status();
  }
  const bool lease_ok = co_await GateOnLeases(xid, ino_or.value(), /*write_op=*/true, client);
  if (!lease_ok) {
    co_return UnavailableError("nfsd: rebooted during lease recall");
  }
  const Ino ino = ino_or.value();
  const std::vector<uint8_t> bytes = args_or->data.ContiguousCopy();

  // Copy mbufs -> buffer cache.
  ChargeOp(xid, node_->profile().copy_per_byte * static_cast<SimTime>(bytes.size()),
           CostCategory::kCopy);
  Status status = fs_->Write(ino, args_or->offset, bytes.data(), bytes.size());
  if (!status.ok()) {
    co_return status;
  }
  // Refresh any cached blocks this write touched. A block whose clusters
  // are loaned to a read reply still in flight is copied-on-write: the
  // reply keeps transmitting the old bytes, the cache gets the new ones.
  const uint32_t first_block = args_or->offset / kFsBlockSize;
  const uint32_t last_block =
      bytes.empty() ? first_block
                    : (args_or->offset + static_cast<uint32_t>(bytes.size()) - 1) / kFsBlockSize;
  if (!bytes.empty()) {
    for (uint32_t block = first_block; block <= last_block; ++block) {
      Buf* buf = cache_.Find(CacheKey(ino, false), block);
      ChargeCacheSearch(xid);
      if (buf != nullptr) {
        auto fresh = fs_->Read(ino, static_cast<uint64_t>(block) * kFsBlockSize, kFsBlockSize);
        if (fresh.ok()) {
          const size_t breaks = buf->CopyIn(0, fresh->data(), fresh->size());
          stats_.loan_cow_breaks += breaks;
          cache_.RecordLoanCowBreaks(breaks);
          buf->set_valid(fresh->size());
        }
      }
    }
  }

  // Stable storage before the reply (NFSv2 write-through), possibly batched
  // with concurrent WRITEs to the same file.
  co_await CommitWrite(xid, ino, first_block, last_block, bytes.size());

  auto attr_or = fs_->Getattr(ino);
  if (!attr_or.ok()) {
    co_return attr_or.status();
  }
  ChargeOp(xid, node_->profile().fattr_fill, CostCategory::kNfsProc);
  EncodeFattr(out, attr_or.value());
  co_return Status::Ok();
}

CoTask<Status> NfsServer::DoCreate(uint32_t xid, XdrDecoder& dec, XdrEncoder& out, bool mkdir) {
  auto args_or = DecodeCreateArgs(dec);
  if (!args_or.ok()) {
    co_return args_or.status();
  }
  auto dir_or = ResolveFh(args_or->dir);
  if (!dir_or.ok()) {
    co_return dir_or.status();
  }
  const uint32_t mode = args_or->attrs.mode.value_or(mkdir ? 0755 : 0644);
  StatusOr<Ino> ino_or = mkdir ? fs_->Mkdir(dir_or.value(), args_or->name, mode)
                               : fs_->Create(dir_or.value(), args_or->name, mode);
  if (!ino_or.ok()) {
    co_return ino_or.status();
  }
  if (args_or->attrs.size.has_value()) {
    SetAttrRequest truncate;
    truncate.size = args_or->attrs.size;
    (void)fs_->Setattr(ino_or.value(), truncate);
    if (options_.page_loaning) {
      // CREATE over an existing file truncates it; see DoSetattr.
      cache_.InvalidateFile(CacheKey(ino_or.value(), false));
    }
  }
  co_await CommitToDisk(xid, 2, kFsBlockSize);  // directory block + new inode
  if (name_cache_.enabled()) {
    name_cache_.Enter(dir_or.value(), args_or->name, ino_or.value());
  }
  auto attr_or = fs_->Getattr(ino_or.value());
  if (!attr_or.ok()) {
    co_return attr_or.status();
  }
  ChargeOp(xid, node_->profile().fattr_fill, CostCategory::kNfsProc);
  DirOpReply reply;
  reply.file = NfsFh::Make(1, ino_or.value());
  reply.attr = attr_or.value();
  EncodeDirOpReply(out, reply);
  co_return Status::Ok();
}

CoTask<Status> NfsServer::DoRemove(uint32_t xid, XdrDecoder& dec, XdrEncoder& out, bool rmdir,
                                   HostId client) {
  (void)out;
  auto args_or = DecodeDirOpArgs(dec);
  if (!args_or.ok()) {
    co_return args_or.status();
  }
  auto dir_or = ResolveFh(args_or->dir);
  if (!dir_or.ok()) {
    co_return dir_or.status();
  }
  auto victim = fs_->Lookup(dir_or.value(), args_or->name);
  if (victim.ok()) {
    // Removing a leased file recalls its holders first, then re-looks the
    // name up: the entry may have been removed or replaced while we waited.
    const bool lease_ok = co_await GateOnLeases(xid, victim.value(), /*write_op=*/true, client);
    if (!lease_ok) {
      co_return UnavailableError("nfsd: rebooted during lease recall");
    }
    victim = fs_->Lookup(dir_or.value(), args_or->name);
  }
  Status status = rmdir ? fs_->Rmdir(dir_or.value(), args_or->name)
                        : fs_->Remove(dir_or.value(), args_or->name);
  if (!status.ok()) {
    co_return status;
  }
  name_cache_.Invalidate(dir_or.value(), args_or->name);
  if (victim.ok()) {
    cache_.InvalidateFile(CacheKey(victim.value(), false));
    cache_.InvalidateFile(CacheKey(victim.value(), true));
  }
  co_await CommitToDisk(xid, 2, 512);  // directory block + inode
  co_return Status::Ok();
}

CoTask<Status> NfsServer::DoRename(uint32_t xid, XdrDecoder& dec, XdrEncoder& out) {
  (void)out;
  auto args_or = DecodeRenameArgs(dec);
  if (!args_or.ok()) {
    co_return args_or.status();
  }
  auto from_or = ResolveFh(args_or->from_dir);
  auto to_or = ResolveFh(args_or->to_dir);
  if (!from_or.ok()) {
    co_return from_or.status();
  }
  if (!to_or.ok()) {
    co_return to_or.status();
  }
  Status status =
      fs_->Rename(from_or.value(), args_or->from_name, to_or.value(), args_or->to_name);
  if (!status.ok()) {
    co_return status;
  }
  name_cache_.Invalidate(from_or.value(), args_or->from_name);
  name_cache_.Invalidate(to_or.value(), args_or->to_name);
  co_await CommitToDisk(xid, 2, 512);
  co_return Status::Ok();
}

CoTask<Status> NfsServer::DoLink(uint32_t xid, XdrDecoder& dec, XdrEncoder& out) {
  (void)out;
  auto args_or = DecodeLinkArgs(dec);
  if (!args_or.ok()) {
    co_return args_or.status();
  }
  auto target_or = ResolveFh(args_or->from);
  auto dir_or = ResolveFh(args_or->to_dir);
  if (!target_or.ok()) {
    co_return target_or.status();
  }
  if (!dir_or.ok()) {
    co_return dir_or.status();
  }
  Status status = fs_->Link(target_or.value(), dir_or.value(), args_or->to_name);
  if (!status.ok()) {
    co_return status;
  }
  co_await CommitToDisk(xid, 2, 512);
  co_return Status::Ok();
}

CoTask<Status> NfsServer::DoSymlink(uint32_t xid, XdrDecoder& dec, XdrEncoder& out) {
  (void)out;
  auto args_or = DecodeSymlinkArgs(dec);
  if (!args_or.ok()) {
    co_return args_or.status();
  }
  auto dir_or = ResolveFh(args_or->dir);
  if (!dir_or.ok()) {
    co_return dir_or.status();
  }
  auto ino_or = fs_->Symlink(dir_or.value(), args_or->name, args_or->target);
  if (!ino_or.ok()) {
    co_return ino_or.status();
  }
  co_await CommitToDisk(xid, 2, 512);
  co_return Status::Ok();
}

CoTask<Status> NfsServer::DoReaddir(uint32_t xid, XdrDecoder& dec, XdrEncoder& out) {
  auto args_or = DecodeReaddirArgs(dec);
  if (!args_or.ok()) {
    co_return args_or.status();
  }
  auto dir_or = ResolveFh(args_or->dir);
  if (!dir_or.ok()) {
    co_return dir_or.status();
  }
  const Ino dir = dir_or.value();
  // Reply budget: entries of roughly (fileid + cookie + flags + name).
  const uint32_t budget = std::max<uint32_t>(args_or->count, 512);
  const size_t max_entries = budget / 24;
  auto entries_or = fs_->Readdir(dir, args_or->cookie, max_entries);
  if (!entries_or.ok()) {
    co_return entries_or.status();
  }

  // Directory blocks come through the buffer cache.
  auto entry_count_or = fs_->EntryCount(dir);
  const size_t total_entries = entry_count_or.ok() ? entry_count_or.value() : 0;
  const size_t blocks = DirBlocks(total_entries);
  for (size_t block = 0; block < blocks; ++block) {
    co_await BlockThroughCache(xid, dir, static_cast<uint32_t>(block), /*is_directory=*/true);
  }
  ChargeOp(xid, node_->profile().dir_scan_per_entry * static_cast<SimTime>(entries_or->size()),
           CostCategory::kNfsProc);

  ReaddirReply reply;
  for (const DirEntry& entry : entries_or.value()) {
    ReaddirEntry wire_entry;
    wire_entry.fileid = entry.ino;
    wire_entry.name = entry.name;
    wire_entry.cookie = static_cast<uint32_t>(entry.cookie);
    reply.entries.push_back(std::move(wire_entry));
  }
  // EOF when the page was not full.
  reply.eof = entries_or->size() < max_entries;
  EncodeReaddirReply(out, reply);
  co_return Status::Ok();
}

CoTask<Status> NfsServer::DoStatfs(uint32_t xid, XdrDecoder& dec, XdrEncoder& out) {
  (void)xid;
  auto fh_or = DecodeFh(dec);
  if (!fh_or.ok()) {
    co_return fh_or.status();
  }
  StatfsReply reply;
  reply.stat = fs_->Statfs();
  EncodeStatfsReply(out, reply);
  co_return Status::Ok();
}

CoTask<bool> NfsServer::GateOnLeases(uint32_t xid, Ino ino, bool write_op, HostId client) {
  if (!options_.leases) {
    co_return true;
  }
  const uint64_t epoch = crash_count_;
  co_await leases_.ResolveConflict(xid, ino, write_op, client);
  co_return !crashed_ && crash_count_ == epoch;
}

CoTask<Status> NfsServer::DoLease(uint32_t xid, XdrDecoder& dec, XdrEncoder& out) {
  auto args_or = DecodeLeaseArgs(dec);
  if (!args_or.ok()) {
    co_return args_or.status();
  }
  auto ino_or = ResolveFh(args_or->file);
  if (!ino_or.ok()) {
    co_return ino_or.status();
  }
  const Ino ino = ino_or.value();

  LeaseReply reply;
  reply.kind = args_or->kind;
  if (options_.leases) {
    // A conflicting lease request recalls the current holders before it is
    // decided [Gray89] — except during grace, when the table only contains
    // reclaims and the answer must come back immediately.
    if (!leases_.InGrace()) {
      const bool write_req = args_or->kind == kLeaseWrite;
      const bool lease_ok = co_await GateOnLeases(xid, ino, write_req,
                                                  static_cast<HostId>(args_or->client_host));
      if (!lease_ok) {
        co_return UnavailableError("nfsd: rebooted during lease recall");
      }
    }
    leases_.Grant(ino, args_or.value(), &reply);
  }
  reply.boot_verifier = static_cast<uint32_t>(crash_count_);

  // Whatever the verdict, the reply carries fresh attributes: LEASE doubles
  // as GETATTR, so a denied lease costs the client exactly one attribute
  // fetch and it degrades to plain 4.3BSD semantics.
  auto attr_or = fs_->Getattr(ino);
  if (!attr_or.ok()) {
    co_return attr_or.status();
  }
  ChargeOp(xid, node_->profile().fattr_fill, CostCategory::kNfsProc);
  reply.attr = attr_or.value();
  EncodeLeaseReply(out, reply);
  co_return Status::Ok();
}

CoTask<Status> NfsServer::DoVacate(uint32_t xid, XdrDecoder& dec, XdrEncoder& out) {
  (void)xid;
  (void)out;
  auto args_or = DecodeVacateArgs(dec);
  if (!args_or.ok()) {
    co_return args_or.status();
  }
  // Deliberately no ResolveFh: vacating a lease on a file that was just
  // REMOVEd must still succeed, or the recall that raced the remove would
  // never be acknowledged.
  leases_.Vacate(args_or->file.ino(), args_or.value());
  co_return Status::Ok();
}

}  // namespace renonfs
