// Span-collector tests: the conservation invariant under a fault-heavy
// chaos soak, head-sampling determinism, flight-recorder ring eviction,
// top-K slow-op retention, and timing-neutrality of the passive sink.
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

// The invariant the collector is built around: every sampled op's component
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

  // The chaos report carries the attribution and the flight-recorder dump.
  EXPECT_FALSE(report.top_components.empty());
  EXPECT_EQ(report.metrics.Value("obs.span.conservation_failures"), 0u);
  EXPECT_EQ(report.metrics.Value("obs.span.pool_exhausted_drops"), 0u);
  EXPECT_NE(report.timeline_jsonl.find("at_ms"), std::string::npos);
}

// Head sampling is a pure function of (seed, xid): two collectors built with
// the same options agree on every xid, a different seed picks a different
// subset, and the keep rate tracks 1/period.
TEST(SpanTest, SamplingIsDeterministicPerSeed) {
  SpanOptions quarter;
  quarter.seed = 42;
  quarter.sample_period = 4;
  SpanCollector a(quarter);
  SpanCollector b(quarter);

  SpanOptions other = quarter;
  other.seed = 43;
  SpanCollector c(other);

  uint32_t kept = 0;
  bool differs = false;
  for (uint32_t xid = 1; xid <= 4096; ++xid) {
    ASSERT_EQ(a.Sampled(xid), b.Sampled(xid)) << "xid " << xid;
    kept += a.Sampled(xid) ? 1 : 0;
    differs = differs || (a.Sampled(xid) != c.Sampled(xid));
  }
  EXPECT_TRUE(differs);  // a different seed must select a different subset
  // 1/4 of 4096 = 1024; allow generous slack for the hash.
  EXPECT_GT(kept, 700u);
  EXPECT_LT(kept, 1400u);

  SpanOptions all = quarter;
  all.sample_period = 1;
  SpanOptions off = quarter;
  off.sample_period = 0;
  SpanCollector every(all);
  SpanCollector none(off);
  for (uint32_t xid = 1; xid <= 64; ++xid) {
    EXPECT_TRUE(every.Sampled(xid));
    EXPECT_FALSE(none.Sampled(xid));
  }
}

// Two same-seed worlds running the same workload sample the same ops and
// produce identical aggregate attribution.
TEST(SpanTest, SampledRunsAgreeAcrossWorlds) {
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

// Slow-op retention: at most top_k entries per proc, sorted slowest-first,
// and each retained breakdown still satisfies the conservation invariant.
TEST(SpanTest, TopKSlowOpRetention) {
  World world(QuietWorldOptions());
  DumpOnFailure dump_on_failure(world);
  ChaosReport report = RunChaos(world, OpMixChaos(200));
  EXPECT_TRUE(report.workload_status.ok()) << report.workload_status;

  const SpanCollector& spans = world.spans();
  ASSERT_GT(spans.stats().ops_completed, spans.options().top_k);

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
    EXPECT_LE(spans.SlowOps(proc).size(), spans.options().top_k);
  }
}

// The sink is passive: detaching it must not change a single scheduler tick
// or any replay-hashed counter. (The span/flight gauges are registered as
// diagnostics precisely so the hashes stay comparable.)
TEST(SpanTest, TracingIsTimingNeutral) {
  auto run = [](bool traced) {
    World world(QuietWorldOptions());
    if (!traced) {
      world.tracer().set_sink(nullptr);
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
