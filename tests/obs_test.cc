// Observability layer: log2 histogram bucket math, metrics-registry
// snapshot determinism, tracer ring eviction, profiler accounting, and the
// Section 3 reproduction (copy+checksum share of server CPU vs page
// loaning).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <limits>
#include <vector>

#include "src/mbuf/mbuf.h"
#include "src/obs/metrics.h"
#include "src/obs/profiler.h"
#include "src/obs/trace.h"
#include "src/workload/chaos.h"
#include "src/workload/world.h"

namespace renonfs {
namespace {

// --- Log2Histogram ---------------------------------------------------------

TEST(ObsTest, HistogramBucketBoundaries) {
  // Bucket 0 holds the value 0; bucket i >= 1 holds [2^(i-1), 2^i - 1].
  EXPECT_EQ(Log2Histogram::BucketIndex(0), 0u);
  EXPECT_EQ(Log2Histogram::BucketIndex(1), 1u);
  EXPECT_EQ(Log2Histogram::BucketIndex(2), 2u);
  EXPECT_EQ(Log2Histogram::BucketIndex(3), 2u);
  for (size_t k = 2; k < 64; ++k) {
    const uint64_t pow = uint64_t{1} << k;
    EXPECT_EQ(Log2Histogram::BucketIndex(pow - 1), k) << "2^" << k << " - 1";
    EXPECT_EQ(Log2Histogram::BucketIndex(pow), k + 1) << "2^" << k;
    EXPECT_EQ(Log2Histogram::BucketIndex(pow + 1), k + 1) << "2^" << k << " + 1";
  }
  EXPECT_EQ(Log2Histogram::BucketIndex(std::numeric_limits<uint64_t>::max()),
            Log2Histogram::kNumBuckets - 1);
  for (size_t i = 1; i < Log2Histogram::kNumBuckets; ++i) {
    EXPECT_EQ(Log2Histogram::BucketLowerBound(i), uint64_t{1} << (i - 1));
    EXPECT_EQ(Log2Histogram::BucketIndex(Log2Histogram::BucketLowerBound(i)), i);
    EXPECT_EQ(Log2Histogram::BucketIndex(Log2Histogram::BucketUpperBound(i)), i);
  }
}

TEST(ObsTest, HistogramPercentilesAndMinMax) {
  Log2Histogram h;
  EXPECT_EQ(h.Percentile(0.5), 0u);
  for (uint64_t v = 1; v <= 100; ++v) {
    h.Add(v);
  }
  EXPECT_EQ(h.count(), 100u);
  EXPECT_EQ(h.min(), 1u);
  EXPECT_EQ(h.max(), 100u);
  EXPECT_EQ(h.sum(), 5050u);
  // p50 lands in bucket [32,63]; percentiles are bucket upper bounds clamped
  // to the observed range, so p99/p100 report the true max.
  EXPECT_EQ(h.Percentile(0.50), 63u);
  EXPECT_EQ(h.Percentile(1.00), 100u);
  EXPECT_GE(h.Percentile(0.99), h.Percentile(0.50));
}

// --- Tracer ring -----------------------------------------------------------

TEST(ObsTest, TracerRingEvictsOldestFirst) {
  Scheduler scheduler;
  Tracer tracer(scheduler, 4);
  const uint16_t track = tracer.RegisterTrack("test");
  for (uint64_t i = 0; i < 6; ++i) {
    tracer.Record(track, TraceEventKind::kClientSend, /*xid=*/100 + i, /*proc=*/0,
                  /*arg=*/i);
  }
  EXPECT_EQ(tracer.capacity(), 4u);
  EXPECT_EQ(tracer.size(), 4u);
  EXPECT_EQ(tracer.recorded(), 6u);
  EXPECT_EQ(tracer.dropped(), 2u);

  const std::vector<TraceEvent> events = tracer.Events();
  ASSERT_EQ(events.size(), 4u);
  // The two oldest records were evicted; the survivors come back oldest
  // first in record order.
  for (size_t i = 0; i < events.size(); ++i) {
    EXPECT_EQ(events[i].arg, i + 2) << "event " << i;
    EXPECT_EQ(events[i].xid, 102 + i);
    if (i > 0) {
      EXPECT_GT(events[i].seq, events[i - 1].seq);
    }
  }
}

// --- registry + profiler over a real run -----------------------------------

ChaosOptions QuietCreateDelete() {
  ChaosOptions chaos;
  chaos.workload = ChaosWorkload::kCreateDelete;
  chaos.iterations = 8;
  chaos.opmix.file_bytes = 4 * 1024;
  return chaos;
}

WorldOptions QuietWorldOptions() {
  WorldOptions options;
  options.topology_options.ethernet_background = 0;
  options.topology_options.ethernet_loss = 0;
  options.mount.hard = true;
  return options;
}

TEST(ObsTest, RegistrySnapshotIsDeterministicAcrossIdenticalRuns) {
  MetricsSnapshot snaps[2];
  std::string traces[2];
  for (int run = 0; run < 2; ++run) {
    // The mbuf pool stats and cluster ledger are process-wide; reset them so
    // both runs count from zero.
    MbufStats::Instance().Reset();
    ClusterLedger::Instance().ResetCounters();
    World world(QuietWorldOptions());
    ChaosReport report = RunChaos(world, QuietCreateDelete());
    ASSERT_TRUE(report.workload_status.ok()) << report.workload_status;
    snaps[run] = world.MetricsNow();
    traces[run] = world.tracer().ToJsonl();
  }
  ASSERT_FALSE(snaps[0].counters.empty());
  EXPECT_GT(snaps[0].Value("client.rpc.calls"), 0u);
  EXPECT_EQ(snaps[0].at, snaps[1].at);
  EXPECT_EQ(snaps[0].counters, snaps[1].counters);
  EXPECT_EQ(traces[0], traces[1]);

  // ToText/ToJson don't crash.
  EXPECT_FALSE(snaps[0].ToText().empty());
  EXPECT_FALSE(snaps[0].ToJson().empty());
}

// A snapshot lists each kind in name order whatever order the layers
// registered in, so the replay hash does not depend on registration order.
// The positional accessors the flight recorder reads follow the same order.
TEST(ObsTest, RegistrationOrderDoesNotChangeSnapshot) {
  const std::vector<std::string> names = {"server.rpc.requests", "client.rpc.calls",
                                          "fs.disk.ops", "client.rpc.retransmits", "mbuf.copies"};
  const uint64_t values[] = {7, 3, 11, 0, 5};
  MetricsRegistry forward;
  MetricsRegistry backward;
  for (size_t i = 0; i < names.size(); ++i) {
    const size_t j = names.size() - 1 - i;
    forward.RegisterCounter(names[i], &values[i]);
    backward.RegisterCounter(names[j], &values[j]);
  }
  for (const char* diagnostic : {"sim.pool.live", "obs.flight.frames"}) {
    forward.RegisterDiagnostic(diagnostic, [] { return uint64_t{1}; });
  }
  for (const char* diagnostic : {"obs.flight.frames", "sim.pool.live"}) {
    backward.RegisterDiagnostic(diagnostic, [] { return uint64_t{1}; });
  }

  const MetricsSnapshot a = forward.Snapshot(Milliseconds(5));
  const MetricsSnapshot b = backward.Snapshot(Milliseconds(5));
  ASSERT_EQ(a.counters.size(), names.size());
  EXPECT_TRUE(std::is_sorted(a.counters.begin(), a.counters.end()));
  EXPECT_TRUE(std::is_sorted(a.diagnostics.begin(), a.diagnostics.end()));
  EXPECT_EQ(a.counters, b.counters);
  EXPECT_EQ(a.diagnostics, b.diagnostics);
  EXPECT_EQ(a.Hash(), b.Hash());

  ASSERT_EQ(forward.counter_count(), names.size());
  std::vector<uint64_t> read(names.size());
  forward.ReadCounters(read.data());
  for (size_t i = 0; i < names.size(); ++i) {
    EXPECT_EQ(forward.counter_name(i), a.counters[i].first) << i;
    EXPECT_EQ(read[i], a.counters[i].second) << i;
  }
}

// Counters and diagnostics share one namespace: a name registered twice,
// as the same kind or as both kinds in either order, aborts.
TEST(ObsDeathTest, NameRegisteredTwiceDies) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  const uint64_t value = 0;
  const MetricsRegistry::Source zero = [] { return uint64_t{0}; };
  EXPECT_DEATH(
      {
        MetricsRegistry registry;
        registry.RegisterCounter("a.b", &value);
        registry.RegisterDiagnostic("a.b", zero);
      },
      "name registered twice: a.b");
  EXPECT_DEATH(
      {
        MetricsRegistry registry;
        registry.RegisterDiagnostic("a.b", zero);
        registry.RegisterCounter("a.b", &value);
      },
      "name registered twice: a.b");
  EXPECT_DEATH(
      {
        MetricsRegistry registry;
        registry.RegisterCounter("a.b", &value);
        registry.RegisterCounter("a.a", &value);
        registry.RegisterCounter("a.b", &value);
      },
      "counter registered twice: a.b");
  EXPECT_DEATH(
      {
        MetricsRegistry registry;
        registry.RegisterDiagnostic("a.b", zero);
        registry.RegisterDiagnostic("a.c", zero);
        registry.RegisterDiagnostic("a.b", zero);
      },
      "diagnostic registered twice: a.b");
}

TEST(ObsTest, RegistryCountersMirrorSourceStats) {
  World world(QuietWorldOptions());
  ChaosReport report = RunChaos(world, QuietCreateDelete());
  ASSERT_TRUE(report.workload_status.ok()) << report.workload_status;
  const MetricsSnapshot snap = world.MetricsNow();

  const RpcServerStats& rpc = world.server().rpc_stats();
  EXPECT_EQ(snap.Value("server.rpc.requests"), rpc.requests);
  EXPECT_EQ(snap.Value("server.rpc.replies"), rpc.replies);
  EXPECT_EQ(snap.Value("server.rpc.garbage_requests"), rpc.garbage_requests);
  EXPECT_EQ(snap.Value("server.rpc.duplicate_cache_replays"), rpc.duplicate_cache_replays);
  EXPECT_EQ(snap.Value("server.rpc.nfsd_slot_waits"), rpc.nfsd_slot_waits);
  EXPECT_EQ(snap.Value("client.rpc.calls"), world.client().transport_stats().calls);
  EXPECT_EQ(snap.Value("server.cpu.busy_ns"),
            static_cast<uint64_t>(world.server_node()->cpu().busy_accum()));

  // Latency histograms recorded something for the procs the workload used.
  const Log2Histogram* h = world.metrics().FindHistogram("client.nfs.lat_us.write");
  ASSERT_NE(h, nullptr);
  EXPECT_GT(h->count(), 0u);
}

TEST(ObsTest, ProfilerCategoriesSumToBusyAccum) {
  World world(QuietWorldOptions());
  ChaosReport report = RunChaos(world, QuietCreateDelete());
  ASSERT_TRUE(report.workload_status.ok()) << report.workload_status;

  for (Node* node : {world.server_node(), world.topology().client}) {
    const CpuProfile profile = CpuProfile::Capture(node->cpu(), world.scheduler().now());
    SimTime sum = 0;
    for (size_t c = 0; c < kNumCostCategories; ++c) {
      sum += profile.by_category[c];
    }
    EXPECT_EQ(sum, profile.busy);
    EXPECT_EQ(profile.busy, node->cpu().busy_accum());
    EXPECT_GT(profile.busy, 0);
    EXPECT_LE(profile.busy, profile.elapsed);
    EXPECT_GT(profile.utilization(), 0.0);
    EXPECT_LE(profile.utilization(), 1.0);
  }
}

// --- Section 3 reproduction ------------------------------------------------

CoTask<StatusOr<NfsFh>> MakeFile(NfsClient& client, const char* name, size_t bytes) {
  StatusOr<NfsFh> fh = co_await client.Create(client.root(), name);
  if (!fh.ok()) {
    co_return fh.status();
  }
  Status open = co_await client.Open(*fh);
  if (!open.ok()) {
    co_return open;
  }
  std::vector<uint8_t> block(8192, 0x5a);
  for (size_t off = 0; off < bytes; off += block.size()) {
    Status s = co_await client.Write(*fh, off, block.data(), block.size());
    if (!s.ok()) {
      co_return s;
    }
  }
  Status flushed = co_await client.FlushAll();
  if (!flushed.ok()) {
    co_return flushed;
  }
  co_return fh;
}

CoTask<void> ReadPasses(World& world, NfsFh fh, size_t bytes, int passes) {
  NfsClient& client = world.client();
  Status open = co_await client.Open(fh);
  CHECK(open.ok()) << open.message();
  for (int pass = 0; pass < passes; ++pass) {
    for (size_t off = 0; off < bytes; off += 8192) {
      StatusOr<size_t> n = co_await client.Read(fh, off, 8192, nullptr);
      CHECK(n.ok()) << n.status().message();
    }
  }
  co_return;
}

// Server CPU profile of a read-heavy window: a file far larger than the
// client cache, read back twice, every block served from the server's cache
// (no disk noise in the CPU numbers).
CpuProfile ReadHeavyProfile(bool page_loaning) {
  const size_t file_bytes = 512 * 1024;
  WorldOptions options;
  options.topology_options.ethernet_background = 0;
  options.topology_options.ethernet_loss = 0;
  options.mount.hard = true;
  options.mount.cache_blocks = 16;  // client cache far smaller than the file
  options.server.page_loaning = page_loaning;
  options.server.cache_blocks = file_bytes / 8192 + 16;
  World world(options);

  auto setup = MakeFile(world.client(), "section3.dat", file_bytes);
  StatusOr<NfsFh> fh = world.Run(setup);
  CHECK(fh.ok()) << fh.status().message();

  const CpuProfile before = world.ServerCpuProfile();
  auto task = ReadPasses(world, *fh, file_bytes, 2);
  world.Run(task);
  return world.ServerCpuProfile().Delta(before);
}

// Section 3's headline measurement: with the stock datapath (no page
// loaning) over a third of server busy CPU goes to data copies and
// checksums; page loaning removes the reply-side copy, so the combined
// share drops strictly below the stock figure.
TEST(ObsTest, Section3CopyChecksumShareDropsWithPageLoaning) {
  const CpuProfile off = ReadHeavyProfile(false);
  const CpuProfile on = ReadHeavyProfile(true);
  const std::initializer_list<CostCategory> kCopyChecksum = {CostCategory::kCopy,
                                                             CostCategory::kChecksum};
  const double share_off = off.BusyShare(kCopyChecksum);
  const double share_on = on.BusyShare(kCopyChecksum);
  EXPECT_GE(share_off, 1.0 / 3.0) << off.FlatTable("page loaning off");
  EXPECT_LT(share_on, share_off) << on.FlatTable("page loaning on");
  // The savings come out of the copy row specifically.
  EXPECT_LT(on.Time(CostCategory::kCopy), off.Time(CostCategory::kCopy));
  // And the flat table renders the winner rows.
  const std::string table = off.FlatTable("page loaning off");
  EXPECT_NE(table.find("checksum"), std::string::npos);
  EXPECT_NE(table.find("copy"), std::string::npos);
}

}  // namespace
}  // namespace renonfs
