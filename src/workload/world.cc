#include "src/workload/world.h"

#include <string>

#include "src/mbuf/mbuf.h"
#include "src/util/pool.h"

namespace renonfs {

void World::InitAuditor() {
  auditor_ = std::make_unique<InvariantAuditor>();
  auto register_cache = [this](std::string name, const BufCache& cache) {
    InvariantAuditor::CacheHooks hooks;
    hooks.name = std::move(name);
    hooks.owner = &cache;
    hooks.loaned_count = [&cache] { return cache.loaned_count(); };
    hooks.collect = [&cache](std::unordered_set<const Cluster*>& out) {
      cache.CollectClusterIds(out);
    };
    auditor_->RegisterCache(std::move(hooks));
  };
  register_cache("server", server_->cache());
  for (size_t i = 0; i < clients_.size(); ++i) {
    register_cache("client" + std::to_string(i), clients_[i]->buf_cache());
  }
  auditor_->RegisterDisk("server", &topo_.server->disk());
}

void World::InitObservability() {
  tracer_ = std::make_unique<Tracer>(topo_.scheduler());
  tracer_->set_proc_namer(NfsProcName);
  metrics_ = std::make_unique<MetricsRegistry>();
  MetricsRegistry& m = *metrics_;

  // --- causal span collector -------------------------------------------------
  // The tracer's sink: every trace event is folded online into per-op
  // critical-path breakdowns. Sampling is seeded from the installation seed so
  // a RENONFS_SEED replay retains the identical op population.
  {
    SpanOptions so;
    so.seed = options_.topology_options.seed;
    spans_ = std::make_unique<SpanCollector>(so);
    spans_->set_proc_namer(NfsProcName);
    tracer_->set_sink(spans_.get());
  }
  // Flight recorder over the registry; armed lazily by harnesses that want a
  // timeline (chaos soak, nfsstat --timeline).
  flight_ = std::make_unique<FlightRecorder>(topo_.scheduler(), m, FlightOptions{});

  // --- trace tracks --------------------------------------------------------
  const uint16_t server_rpc_track = tracer_->RegisterTrack("server.rpc");
  const uint16_t server_nfs_track = tracer_->RegisterTrack("server.nfs");
  server_->set_tracer(tracer_.get(), server_rpc_track, server_nfs_track);
  for (size_t i = 0; i < clients_.size(); ++i) {
    const std::string name = i == 0 ? "client.rpc" : "client" + std::to_string(i) + ".rpc";
    clients_[i]->set_tracer(tracer_.get(), tracer_->RegisterTrack(name));
    clients_[i]->set_metrics(&m, "client.nfs.lat_us.");
  }
  for (Medium* medium : topo_.path_media) {
    medium->set_tracer(tracer_.get(), tracer_->RegisterTrack("net." + medium->config().name));
  }

  // --- server RPC layer (names mirror the RpcServerStats fields) -----------
  {
    const RpcServerStats& s = server_->rpc_stats();
    m.RegisterCounter("server.rpc.requests", &s.requests);
    m.RegisterCounter("server.rpc.replies", &s.replies);
    m.RegisterCounter("server.rpc.garbage_requests", &s.garbage_requests);
    m.RegisterCounter("server.rpc.corrupted_records", &s.corrupted_records);
    m.RegisterCounter("server.rpc.resync_hunts", &s.resync_hunts);
    m.RegisterCounter("server.rpc.resync_successes", &s.resync_successes);
    m.RegisterCounter("server.rpc.resync_failures", &s.resync_failures);
    m.RegisterCounter("server.rpc.duplicate_in_progress_drops", &s.duplicate_in_progress_drops);
    m.RegisterCounter("server.rpc.duplicate_cache_replays", &s.duplicate_cache_replays);
    m.RegisterCounter("server.rpc.duplicate_entries_aged", &s.duplicate_entries_aged);
    m.RegisterCounter("server.rpc.nfsd_slot_waits", &s.nfsd_slot_waits);
    m.RegisterCounter("server.rpc.replies_dropped_crash", &s.replies_dropped_crash);
  }

  // --- server NFS layer -----------------------------------------------------
  {
    const NfsServerStats& s = server_->stats();
    m.RegisterCounter("server.nfs.disk_reads", &s.disk_reads);
    m.RegisterCounter("server.nfs.disk_writes", &s.disk_writes);
    m.RegisterCounter("server.nfs.cache_fills", &s.cache_fills);
    m.RegisterCounter("server.nfs.loaned_replies", &s.loaned_replies);
    m.RegisterCounter("server.nfs.loaned_bytes", &s.loaned_bytes);
    m.RegisterCounter("server.nfs.loan_cow_breaks", &s.loan_cow_breaks);
    m.RegisterCounter("server.nfs.gather_batches", &s.gather_batches);
    m.RegisterCounter("server.nfs.gathered_writes", &s.gathered_writes);
    m.RegisterCounter("server.nfs.disk_writes_saved", &s.disk_writes_saved);
    m.RegisterCounter("server.nfs.crashes", [this] { return server_->crash_count(); });
    for (uint32_t proc = 0; proc < kNfsProcCount; ++proc) {
      m.RegisterCounter(std::string("server.nfs.proc.") + NfsProcName(proc),
                        &s.proc_counts[proc]);
    }
  }

  // --- server lease table (NQNFS cache consistency) -------------------------
  {
    const LeaseStats& s = server_->lease_stats();
    m.RegisterCounter("server.lease.granted", &s.granted);
    m.RegisterCounter("server.lease.renewed", &s.renewed);
    m.RegisterCounter("server.lease.reclaimed", &s.reclaimed);
    m.RegisterCounter("server.lease.denied", &s.denied);
    m.RegisterCounter("server.lease.grace_denials", &s.grace_denials);
    m.RegisterCounter("server.lease.recalled", &s.recalled);
    m.RegisterCounter("server.lease.recalls_sent", &s.recalls_sent);
    m.RegisterCounter("server.lease.vacated", &s.vacated);
    m.RegisterCounter("server.lease.expired", &s.expired);
    m.RegisterCounter("server.lease.evictions", &s.evictions);
    m.RegisterCounter("server.lease.active", [this] { return server_->lease_table().active_leases(); });
    m.RegisterCounter("server.lease.recall_p99_us", [this] {
      return server_->lease_table().recall_latency_us().Percentile(0.99);
    });
  }

  // --- server transports, CPU, disk ----------------------------------------
  {
    const UdpStats& u = server_udp_->stats();
    m.RegisterCounter("server.udp.datagrams_sent", &u.datagrams_sent);
    m.RegisterCounter("server.udp.datagrams_received", &u.datagrams_received);
    m.RegisterCounter("server.udp.checksum_failures", &u.checksum_failures);
    m.RegisterCounter("server.udp.no_port_drops", &u.no_port_drops);
    const TcpStackStats& t = server_tcp_->stack_stats();
    m.RegisterCounter("server.tcp.checksum_drops", &t.checksum_drops);
    m.RegisterCounter("server.tcp.runt_drops", &t.runt_drops);
    Node* server_node = topo_.server;
    m.RegisterCounter("server.cpu.busy_ns",
                      [server_node] { return static_cast<uint64_t>(server_node->cpu().busy_accum()); });
    for (size_t c = 0; c < kNumCostCategories; ++c) {
      const auto category = static_cast<CostCategory>(c);
      m.RegisterCounter(std::string("server.cpu.ns.") + CostCategoryName(category),
                        [server_node, category] {
                          return static_cast<uint64_t>(server_node->cpu().category_accum(category));
                        });
    }
    m.RegisterCounter("server.disk.ops",
                      [server_node] { return server_node->disk().ops_completed(); });
    m.RegisterCounter("server.disk.busy_ns",
                      [server_node] { return static_cast<uint64_t>(server_node->disk().busy_accum()); });
  }

  // --- clients (summed over all mounts) ------------------------------------
  auto sum = [this](auto field) {
    return [this, field]() {
      uint64_t total = 0;
      for (const auto& client : clients_) {
        total += field(*client);
      }
      return total;
    };
  };
  m.RegisterCounter("client.rpc.calls",
                    sum([](const NfsClient& c) { return c.transport_stats().calls; }));
  m.RegisterCounter("client.rpc.replies",
                    sum([](const NfsClient& c) { return c.transport_stats().replies; }));
  m.RegisterCounter("client.rpc.retransmits",
                    sum([](const NfsClient& c) { return c.transport_stats().retransmits; }));
  m.RegisterCounter("client.rpc.soft_timeouts",
                    sum([](const NfsClient& c) { return c.transport_stats().soft_timeouts; }));
  m.RegisterCounter("client.rpc.stray_replies",
                    sum([](const NfsClient& c) { return c.transport_stats().stray_replies; }));
  m.RegisterCounter("client.rpc.corrupted_records",
                    sum([](const NfsClient& c) { return c.transport_stats().corrupted_records; }));
  m.RegisterCounter("client.rpc.resync_hunts",
                    sum([](const NfsClient& c) { return c.transport_stats().resync_hunts; }));
  m.RegisterCounter("client.rpc.resync_successes",
                    sum([](const NfsClient& c) { return c.transport_stats().resync_successes; }));
  m.RegisterCounter("client.rpc.resync_failures",
                    sum([](const NfsClient& c) { return c.transport_stats().resync_failures; }));
  m.RegisterCounter(
      "client.recovery.not_responding_events",
      sum([](const NfsClient& c) { return c.recovery_stats().not_responding_events; }));
  m.RegisterCounter("client.recovery.server_ok_events",
                    sum([](const NfsClient& c) { return c.recovery_stats().server_ok_events; }));
  m.RegisterCounter("client.recovery.interrupted_calls",
                    sum([](const NfsClient& c) { return c.recovery_stats().interrupted_calls; }));
  m.RegisterCounter("client.recovery.reconnects",
                    sum([](const NfsClient& c) { return c.recovery_stats().reconnects; }));
  m.RegisterCounter("client.recovery.reissued_calls",
                    sum([](const NfsClient& c) { return c.recovery_stats().reissued_calls; }));
  m.RegisterCounter("client.nfs.retry_errors_absorbed",
                    sum([](const NfsClient& c) { return c.stats().retry_errors_absorbed; }));
  m.RegisterCounter("client.nfs.write_errors_latched",
                    sum([](const NfsClient& c) { return c.stats().write_errors_latched; }));
  m.RegisterCounter("client.nfs.dirty_bufs_discarded",
                    sum([](const NfsClient& c) { return c.stats().dirty_bufs_discarded; }));
  m.RegisterCounter("client.lease.granted",
                    sum([](const NfsClient& c) { return c.stats().leases_granted; }));
  m.RegisterCounter("client.lease.denied",
                    sum([](const NfsClient& c) { return c.stats().leases_denied; }));
  m.RegisterCounter("client.lease.renewals",
                    sum([](const NfsClient& c) { return c.stats().lease_renewals; }));
  m.RegisterCounter("client.lease.recalls",
                    sum([](const NfsClient& c) { return c.stats().lease_recalls; }));
  m.RegisterCounter("client.lease.vacates",
                    sum([](const NfsClient& c) { return c.stats().lease_vacates; }));
  m.RegisterCounter("client.lease.expirations",
                    sum([](const NfsClient& c) { return c.stats().lease_expirations; }));
  m.RegisterCounter("client.lease.stale_discards",
                    sum([](const NfsClient& c) { return c.stats().lease_stale_discards; }));
  m.RegisterCounter("client.lease.reads_saved",
                    sum([](const NfsClient& c) { return c.stats().lease_reads_saved; }));
  // Invariant: must stay zero — a nonzero value means a client pushed bytes
  // through a write lease it no longer held.
  m.RegisterCounter("client.lease.stale_lease_writes",
                    sum([](const NfsClient& c) { return c.stats().stale_lease_writes; }));
  for (uint32_t proc = 0; proc < kNfsProcCount; ++proc) {
    m.RegisterCounter(std::string("client.nfs.proc.") + NfsProcName(proc),
                      sum([proc](const NfsClient& c) { return c.stats().rpc_counts[proc]; }));
  }

  // --- filesystem faults ----------------------------------------------------
  m.RegisterCounter("fs.enospc_errors", &fs_->fault_stats().enospc_errors);
  m.RegisterCounter("fs.injected_errors", &fs_->fault_stats().injected_errors);

  // --- media on the client->server path ------------------------------------
  for (Medium* medium : topo_.path_media) {
    const std::string prefix = "net.medium." + medium->config().name + ".";
    const MediumStats& s = medium->stats();
    m.RegisterCounter(prefix + "frames_delivered", &s.frames_delivered);
    m.RegisterCounter(prefix + "frames_dropped_queue", &s.frames_dropped_queue);
    m.RegisterCounter(prefix + "frames_dropped_loss", &s.frames_dropped_loss);
    m.RegisterCounter(prefix + "frames_damaged", &s.frames_damaged);
    m.RegisterCounter(prefix + "frames_dropped_down", &s.frames_dropped_down);
    m.RegisterCounter(prefix + "bytes_on_wire", &s.bytes_on_wire);
    m.RegisterCounter(prefix + "background_frames", &s.background_frames);
    m.RegisterCounter(prefix + "frames_bit_flipped", &s.frames_bit_flipped);
    m.RegisterCounter(prefix + "frames_truncated", &s.frames_truncated);
    m.RegisterCounter(prefix + "frames_duplicated", &s.frames_duplicated);
    m.RegisterCounter(prefix + "frames_reordered", &s.frames_reordered);
  }

  // --- process-wide mbuf pool ------------------------------------------------
  // The pool is a singleton, but the registry must report per-run numbers:
  // the record/replay subsystem compares snapshot hashes across Worlds in one
  // process, so each counter is published as a delta from its value at World
  // construction. clusters_live is a gauge (≈0 at construction after a
  // quiesced predecessor) and stays absolute.
  {
    const MbufStats& s = MbufStats::Instance();
    const MbufStats base = s;
    m.RegisterCounter("mbuf.small_allocs",
                      [&s, base] { return s.small_allocs - base.small_allocs; });
    m.RegisterCounter("mbuf.cluster_allocs", [&s, base] {
      return s.cluster_allocs - base.cluster_allocs;
    });
    m.RegisterCounter("mbuf.cluster_shares", [&s, base] {
      return s.cluster_shares - base.cluster_shares;
    });
    m.RegisterCounter("mbuf.bytes_shared",
                      [&s, base] { return s.bytes_shared - base.bytes_shared; });
    m.RegisterCounter("mbuf.bytes_copied",
                      [&s, base] { return s.bytes_copied - base.bytes_copied; });
    // Cluster ledger (also process-wide): every cluster alloc/free in any
    // layer, and the number currently live — the quiesce audit's raw data.
    const ClusterLedger& ledger = ClusterLedger::Instance();
    const uint64_t base_allocs = ledger.allocs();
    const uint64_t base_frees = ledger.frees();
    m.RegisterCounter("mbuf.ledger.cluster_allocs",
                      [&ledger, base_allocs] { return ledger.allocs() - base_allocs; });
    m.RegisterCounter("mbuf.ledger.cluster_frees",
                      [&ledger, base_frees] { return ledger.frees() - base_frees; });
    m.RegisterCounter("mbuf.ledger.clusters_live", [&ledger] { return ledger.live(); });
  }

  // --- span collector + flight recorder diagnostics -------------------------
  // Diagnostics, not counters: sampling configuration and recorder cadence are
  // observer knobs, so they must stay out of the snapshot hash that scenario
  // replay compares (a replay with tracing off must still hash-match).
  {
    const SpanCollector* sc = spans_.get();
    m.RegisterDiagnostic("obs.span.events_seen", [sc] { return sc->stats().events_seen; });
    m.RegisterDiagnostic("obs.span.ops_started", [sc] { return sc->stats().ops_started; });
    m.RegisterDiagnostic("obs.span.ops_completed",
                         [sc] { return sc->stats().ops_completed; });
    m.RegisterDiagnostic("obs.span.sampled_out", [sc] { return sc->stats().sampled_out; });
    m.RegisterDiagnostic("obs.span.live_ops", [sc] { return sc->live_ops(); });
    m.RegisterDiagnostic("obs.span.live_high_water",
                         [sc] { return sc->stats().live_high_water; });
    // Both invariants must stay zero: a pool spill means the collector heap-
    // allocated under load; a conservation failure means a breakdown did not
    // sum to its op's measured latency.
    m.RegisterDiagnostic("obs.span.pool_exhausted_drops",
                         [sc] { return sc->stats().pool_exhausted_drops; });
    m.RegisterDiagnostic("obs.span.conservation_checks",
                         [sc] { return sc->stats().conservation_checks; });
    m.RegisterDiagnostic("obs.span.conservation_failures",
                         [sc] { return sc->stats().conservation_failures; });
    const FlightRecorder* fr = flight_.get();
    m.RegisterDiagnostic("obs.flight.frames", [fr] { return static_cast<uint64_t>(fr->size()); });
    m.RegisterDiagnostic("obs.flight.frames_captured", [fr] { return fr->frames_captured(); });
    m.RegisterDiagnostic("obs.flight.frames_evicted", [fr] { return fr->frames_evicted(); });
  }

  // --- sim-core allocator diagnostics ---------------------------------------
  // Occupancy gauges for the scheduler's event-node arena and the mbuf /
  // cluster FixedPools. Registered as diagnostics, not counters: pool warmth
  // depends on earlier Worlds in the process, so these must stay out of the
  // snapshot hash that replay compares.
  {
    Scheduler& sched = scheduler();
    m.RegisterDiagnostic("sim.pool.event.nodes_total",
                         [&sched] { return sched.pool_stats().nodes_total; });
    m.RegisterDiagnostic("sim.pool.event.nodes_in_use",
                         [&sched] { return sched.pool_stats().nodes_in_use; });
    m.RegisterDiagnostic("sim.pool.event.nodes_free",
                         [&sched] { return sched.pool_stats().nodes_free; });
    m.RegisterDiagnostic("sim.pool.event.high_water",
                         [&sched] { return sched.pool_stats().high_water; });
    m.RegisterDiagnostic("sim.pool.event.callable_heap_allocs",
                         [&sched] { return sched.pool_stats().callable_heap_allocs; });
    // The FixedPools are process-wide and created lazily on first allocation,
    // so look them up by name at snapshot time, not here.
    auto pool_gauge = [](const char* pool_name, uint64_t FixedPool::Stats::*field) {
      return [pool_name, field]() -> uint64_t {
        const FixedPool* pool = FixedPool::Find(pool_name);
        return pool == nullptr ? 0 : pool->stats().*field;
      };
    };
    for (const char* pool_name : {"mbuf", "cluster"}) {
      const std::string prefix = std::string("sim.pool.") + pool_name + ".";
      m.RegisterDiagnostic(prefix + "blocks_total",
                           pool_gauge(pool_name, &FixedPool::Stats::total_blocks));
      m.RegisterDiagnostic(prefix + "in_use", pool_gauge(pool_name, &FixedPool::Stats::in_use));
      m.RegisterDiagnostic(prefix + "high_water",
                           pool_gauge(pool_name, &FixedPool::Stats::high_water));
      m.RegisterDiagnostic(prefix + "fresh_allocs",
                           pool_gauge(pool_name, &FixedPool::Stats::fresh_allocs));
      m.RegisterDiagnostic(prefix + "recycles",
                           pool_gauge(pool_name, &FixedPool::Stats::recycles));
    }
  }
}

}  // namespace renonfs
