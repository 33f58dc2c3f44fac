// Span-collector tests: the conservation invariant under a fault-heavy
// chaos soak, run-to-run agreement, every call tracked, flight-recorder ring
// eviction, top-K slow-op retention, and timing-neutrality of the passive
// collector.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "src/obs/flight.h"
#include "src/obs/metrics.h"
#include "src/obs/span.h"
#include "src/sim/scheduler.h"
#include "src/workload/chaos.h"
#include "src/workload/world.h"
#include "tests/nfs_test_util.h"

namespace renonfs {
namespace {

WorldOptions QuietWorldOptions() {
  WorldOptions options;
  options.topology_options = TopologyOptions::Quiet();
  options.mount = NfsMountOptions::Reno();
  options.mount.hard = true;
  options.mount.max_tries = 3;
  return options;
}

ChaosOptions OpMixChaos(uint32_t operations) {
  ChaosOptions chaos;
  chaos.workload = ChaosWorkload::kOpMix;
  chaos.opmix.operations = operations;
  return chaos;
}

// The invariant the collector is built around: every op's component
// breakdown sums to its measured wall-clock latency exactly — under the
// nastiest schedule we can assemble (loss storm + slow disk + a crash/reboot
// + a link flap on the 56K serial path), not just on the happy path. The
// per-op CHECK in Finish() would abort the process on the first violation;
// the stats counters make the count visible here too.
TEST(SpanChaosTest, ConservationHoldsUnderFaultHeavySoak) {
  World world(QuietWorldOptions());
  DumpOnFailure dump_on_failure(world);

  ChaosOptions chaos = OpMixChaos(150);
  chaos.schedule.push_back(FaultSpecFromString("crash at=20s dur=10s").value());
  chaos.schedule.push_back(
      FaultSpecFromString("link_flap at=45s count=2 dur=1s period=2s").value());
  chaos.schedule.push_back(FaultSpecFromString("loss_storm at=5s dur=25s mag=0.2").value());
  chaos.schedule.push_back(FaultSpecFromString("disk_slow at=60s dur=30s mag=8").value());

  ChaosReport report = RunChaos(world, chaos);

  EXPECT_TRUE(report.workload_status.ok()) << report.workload_status;
  EXPECT_TRUE(report.integrity_ok) << report.integrity_error;

  const SpanStats& stats = world.spans().stats();
  EXPECT_GT(stats.ops_completed, 0u);
  EXPECT_GT(stats.conservation_checks, 0u);
  EXPECT_EQ(stats.conservation_failures, 0u);
  EXPECT_EQ(stats.pool_exhausted_drops, 0u);
  EXPECT_EQ(stats.conservation_checks, stats.ops_completed);

  // The aggregate preserves the per-op invariant: summed components equal
  // summed latency, per proc and in total.
  SpanCollector::ProcBreakdown total = world.spans().TotalBreakdown();
  EXPECT_GT(total.ops, 0u);
  SimTime comp_sum = 0;
  for (size_t c = 0; c < kNumLatencyComponents; ++c) {
    comp_sum += total.comp[c];
  }
  EXPECT_EQ(comp_sum, total.total);

  // The chaos report carries the attribution; the world keeps the
  // flight-recorder timeline.
  EXPECT_FALSE(report.top_components.empty());
  EXPECT_EQ(report.metrics.Value("obs.span.conservation_failures"), 0u);
  EXPECT_EQ(report.metrics.Value("obs.span.pool_exhausted_drops"), 0u);
  EXPECT_NE(world.flight().ToJsonl().find("at_ms"), std::string::npos);
}

// Two same-seed worlds running the same workload produce identical aggregate
// attribution.
TEST(SpanTest, RunsAgreeAcrossWorlds) {
  auto run = [] {
    World world(QuietWorldOptions());
    ChaosReport report = RunChaos(world, OpMixChaos(80));
    EXPECT_TRUE(report.workload_status.ok()) << report.workload_status;
    SpanCollector::ProcBreakdown total = world.spans().TotalBreakdown();
    return std::make_pair(world.spans().stats().ops_completed, total.total);
  };
  auto first = run();
  auto second = run();
  EXPECT_GT(first.first, 0u);
  EXPECT_EQ(first, second);
}

// Nothing filters ops: every call a client transport starts is tracked, and
// once the run has quiesced every tracked op has completed. The UDP run
// retransmits through a loss storm and a crash; the TCP run re-issues its
// calls on a new connection after the crash.
TEST(SpanTest, EveryCallIsTracked) {
  auto check = [](const WorldOptions& options, const ChaosOptions& chaos) {
    World world(options);
    DumpOnFailure dump_on_failure(world);
    ChaosReport report = RunChaos(world, chaos);
    ASSERT_TRUE(report.workload_status.ok()) << report.workload_status;
    const SpanStats& stats = world.spans().stats();
    EXPECT_GT(stats.ops_started, 0u);
    EXPECT_EQ(stats.ops_started, report.metrics.Value("client.rpc.calls"));
    EXPECT_EQ(stats.ops_completed, stats.ops_started);
    EXPECT_EQ(world.spans().live_ops(), 0u);
    EXPECT_EQ(stats.pool_exhausted_drops, 0u);
    EXPECT_GT(report.metrics.Value("client.rpc.retransmits") +
                  report.metrics.Value("client.recovery.reissued_calls"),
              0u);
  };

  ChaosOptions udp = OpMixChaos(120);
  udp.schedule.push_back(FaultSpecFromString("loss_storm at=2s dur=20s mag=0.2").value());
  udp.schedule.push_back(FaultSpecFromString("crash at=10s dur=5s").value());
  check(QuietWorldOptions(), udp);

  WorldOptions tcp_world = QuietWorldOptions();
  tcp_world.mount = NfsMountOptions::RenoTcp();
  tcp_world.mount.hard = true;
  ChaosOptions tcp = OpMixChaos(120);
  tcp.schedule.push_back(FaultSpecFromString("crash at=2s dur=6s").value());
  check(tcp_world, tcp);

  WorldOptions lease_world = QuietWorldOptions();
  lease_world.mount = NfsMountOptions::Leases();
  lease_world.mount.hard = true;
  lease_world.clients = 3;
  lease_world.server.leases = true;
  ChaosOptions storm;
  storm.workload = ChaosWorkload::kCreateDelete;
  storm.iterations = 20;
  storm.lease_storm = true;
  storm.schedule.push_back(FaultSpecFromString("crash at=3s dur=6s").value());
  check(lease_world, storm);
}

// The flight recorder is a bounded ring: frames past capacity evict the
// oldest, the counters account for every captured frame, and the surviving
// frames keep strictly increasing timestamps.
TEST(SpanTest, FlightRecorderRingEvictsOldestFrames) {
  Scheduler sched;
  MetricsRegistry registry;
  uint64_t counter = 0;
  registry.RegisterCounter("test.ticks", &counter);

  FlightOptions options;
  options.interval = Milliseconds(10);
  options.capacity = 4;
  FlightRecorder flight(sched, registry, options);
  flight.Start();
  flight.Start();  // idempotent

  for (int i = 1; i <= 9; ++i) {
    counter += static_cast<uint64_t>(i);
    sched.RunUntil(Milliseconds(10 * i));
  }
  flight.Stop();
  flight.Stop();  // idempotent

  EXPECT_EQ(flight.size(), 4u);
  EXPECT_GE(flight.frames_captured(), 6u);
  EXPECT_EQ(flight.frames_evicted(), flight.frames_captured() - flight.size());

  SimTime last_at = 0;
  for (const FlightRecorder::Frame& frame : flight.Frames()) {
    EXPECT_GT(frame.at, last_at);
    last_at = frame.at;
  }
  EXPECT_NE(flight.ToJsonl().find("at_ms"), std::string::npos);
  EXPECT_NE(flight.ToCsv().find("at_ms"), std::string::npos);

  // Stopped: no further frames accumulate.
  const uint64_t captured = flight.frames_captured();
  sched.RunUntil(Milliseconds(200));
  EXPECT_EQ(flight.frames_captured(), captured);
}

// Every export of a ring that has wrapped, byte for byte. The counters are
// registered out of name order, one name needs JSON escaping, window 7 moves
// nothing, window 8 moves six counters (two by the same amount), and the
// diagnostic moves every window but appears in no export.
TEST(SpanTest, FlightRecorderExportsArePinned) {
  constexpr size_t kCounters = 7;
  const char* const kNames[kCounters] = {
      "client.rpc.calls",   "client.rpc.retransmits", "fs.disk.ops",        "idle.never",
      "quote\"and\\slash", "server.rpc.replies",     "server.rpc.requests",
  };
  // Per-window increments, in name order.
  const uint64_t kSteps[9][kCounters] = {
      {5, 0, 1, 0, 1, 5, 5}, {7, 1, 2, 0, 0, 7, 8},  {3, 0, 0, 0, 2, 3, 3},
      {0, 0, 0, 0, 0, 0, 0}, {9, 2, 4, 0, 1, 9, 11}, {4, 0, 1, 0, 0, 4, 4},
      {0, 0, 0, 0, 0, 0, 0}, {6, 3, 2, 0, 6, 5, 9},  {2, 0, 0, 0, 1, 2, 2},
  };
  Scheduler sched;
  MetricsRegistry registry;
  uint64_t values[kCounters] = {};
  for (size_t i : {6, 4, 1, 3, 0, 5, 2}) {
    registry.RegisterCounter(kNames[i], &values[i]);
  }
  uint64_t live = 0;
  registry.RegisterDiagnostic("pool.live", [&live] { return live; });

  FlightOptions options;
  options.interval = Milliseconds(10);
  options.capacity = 4;
  FlightRecorder flight(sched, registry, options);
  flight.Start();
  // Registry snapshots at the start and at every tick instant.
  std::vector<MetricsSnapshot> at_tick = {registry.Snapshot(sched.now())};
  for (size_t w = 0; w < 9; ++w) {
    for (size_t i = 0; i < kCounters; ++i) {
      values[i] += kSteps[w][i];
    }
    live = 100 + w;
    sched.RunUntil(Milliseconds(10 * static_cast<int64_t>(w + 1)));
    at_tick.push_back(registry.Snapshot(sched.now()));
  }
  flight.Stop();
  ASSERT_EQ(flight.frames_captured(), 9u);
  ASSERT_EQ(flight.size(), 4u);

  EXPECT_EQ(flight.ToJsonl(),
            R"json({"at_ms":60.000,"window_ms":10.000,"counters":{"client.rpc.calls":4,"fs.disk.ops":1,"server.rpc.replies":4,"server.rpc.requests":4}}
{"at_ms":70.000,"window_ms":10.000,"counters":{}}
{"at_ms":80.000,"window_ms":10.000,"counters":{"client.rpc.calls":6,"client.rpc.retransmits":3,"fs.disk.ops":2,"quote\"and\\slash":6,"server.rpc.replies":5,"server.rpc.requests":9}}
{"at_ms":90.000,"window_ms":10.000,"counters":{"client.rpc.calls":2,"quote\"and\\slash":1,"server.rpc.replies":2,"server.rpc.requests":2}}
)json");
  EXPECT_EQ(flight.ToCsv(), R"csv(at_ms,name,delta
60.000,client.rpc.calls,4
60.000,fs.disk.ops,1
60.000,server.rpc.replies,4
60.000,server.rpc.requests,4
80.000,client.rpc.calls,6
80.000,client.rpc.retransmits,3
80.000,fs.disk.ops,2
80.000,quote"and\slash,6
80.000,server.rpc.replies,5
80.000,server.rpc.requests,9
90.000,client.rpc.calls,2
90.000,quote"and\slash,1
90.000,server.rpc.replies,2
90.000,server.rpc.requests,2
)csv");
  EXPECT_EQ(flight.Tail(2),
            "[      80.000 ms] server.rpc.requests=+9 client.rpc.calls=+6 "
            "quote\"and\\slash=+6 server.rpc.replies=+5 client.rpc.retransmits=+3 (+1 more)\n"
            "[      90.000 ms] client.rpc.calls=+2 server.rpc.replies=+2 "
            "server.rpc.requests=+2 quote\"and\\slash=+1\n");

  // Each kept frame is the by-name difference of the snapshots at its two
  // tick instants, and carries no diagnostics.
  const std::vector<FlightRecorder::Frame> frames = flight.Frames();
  ASSERT_EQ(frames.size(), 4u);
  for (size_t k = 0; k < frames.size(); ++k) {
    const MetricsSnapshot& earlier = at_tick[5 + k];
    const MetricsSnapshot& later = at_tick[6 + k];
    std::vector<std::pair<std::string, uint64_t>> expected;
    for (const auto& [name, value] : later.counters) {
      expected.emplace_back(name, value - earlier.Value(name));
    }
    EXPECT_EQ(frames[k].at, later.at) << k;
    EXPECT_EQ(frames[k].delta.at, later.at - earlier.at) << k;
    EXPECT_EQ(frames[k].delta.counters, expected) << k;
    EXPECT_TRUE(frames[k].delta.diagnostics.empty()) << k;
  }
}

// Frames index the registry's counter name order, so a counter registered
// while a recorder runs aborts the recorder's next tick.
TEST(SpanDeathTest, CounterRegisteredAfterStartDiesAtNextTick) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  Scheduler sched;
  MetricsRegistry registry;
  const uint64_t early = 0;
  const uint64_t late = 0;
  registry.RegisterCounter("early", &early);
  FlightOptions options;
  options.interval = Milliseconds(10);
  FlightRecorder flight(sched, registry, options);
  flight.Start();
  registry.RegisterCounter("late", &late);
  sched.RunUntil(Milliseconds(9));  // no tick yet
  EXPECT_EQ(flight.frames_captured(), 0u);
  EXPECT_DEATH(sched.RunUntil(Milliseconds(10)), "counter registered after Start");
}

// Slow-op retention: at most kMaxSlowOps entries per proc, sorted slowest-first,
// and each retained breakdown still satisfies the conservation invariant.
TEST(SpanTest, TopKSlowOpRetention) {
  World world(QuietWorldOptions());
  DumpOnFailure dump_on_failure(world);
  ChaosReport report = RunChaos(world, OpMixChaos(200));
  EXPECT_TRUE(report.workload_status.ok()) << report.workload_status;

  const SpanCollector& spans = world.spans();
  ASSERT_GT(spans.stats().ops_completed, kMaxSlowOps);

  std::vector<OpBreakdown> all = spans.SlowOps();
  ASSERT_FALSE(all.empty());
  SimTime prev = all.front().total();
  for (const OpBreakdown& op : all) {
    EXPECT_LE(op.total(), prev);
    prev = op.total();
    EXPECT_GE(op.attempts, 1u);
    SimTime sum = 0;
    for (size_t c = 0; c < kNumLatencyComponents; ++c) {
      sum += op.comp[c];
    }
    EXPECT_EQ(sum, op.total()) << "xid " << op.xid;
  }
  for (uint32_t proc = 0; proc < kSpanProcSlots; ++proc) {
    EXPECT_LE(spans.SlowOps(proc).size(), kMaxSlowOps);
  }
}

// The collector is passive: detaching it must not change a single scheduler
// tick or any replay-hashed counter. (The span/flight gauges are registered
// as diagnostics precisely so the hashes stay comparable.)
TEST(SpanTest, TracingIsTimingNeutral) {
  auto run = [](bool traced) {
    World world(QuietWorldOptions());
    if (!traced) {
      world.tracer().set_spans(nullptr);
    }
    ChaosReport report = RunChaos(world, OpMixChaos(80));
    EXPECT_TRUE(report.workload_status.ok()) << report.workload_status;
    return std::make_pair(world.scheduler().now(), world.MetricsNow().Hash());
  };
  auto traced = run(true);
  auto untraced = run(false);
  EXPECT_EQ(traced.first, untraced.first);   // identical simulated end time
  EXPECT_EQ(traced.second, untraced.second); // identical replay hash
}

}  // namespace
}  // namespace renonfs
