// Chaos soak tests: real workloads under a deterministic fault schedule —
// server crash/reboot mid-run, serial link flap — with a byte-level
// integrity audit after recovery.
#include <gtest/gtest.h>

#include <map>
#include <tuple>

#include "src/workload/chaos.h"
#include "src/workload/world.h"
#include "tests/nfs_test_util.h"

namespace renonfs {
namespace {

WorldOptions QuietWorldOptions(TopologyKind topology, NfsMountOptions mount) {
  WorldOptions options;
  options.topology = topology;
  options.topology_options = TopologyOptions::Quiet();
  options.mount = mount;
  return options;
}

NfsMountOptions HardMount() {
  NfsMountOptions mount = NfsMountOptions::Reno();
  mount.hard = true;
  mount.max_tries = 3;  // announce "not responding" quickly
  return mount;
}

AndrewOptions SmallAndrew() {
  AndrewOptions andrew;
  andrew.directories = 3;
  andrew.source_files = 12;
  andrew.mean_file_bytes = 1500;
  return andrew;
}

// The headline scenario: Andrew on the 3-router/56K-serial topology with a
// mid-run server crash/reboot and a serial-line flap. The hard mount rides
// out both; afterwards every file the client wrote is byte-identical on the
// server's stable storage.
TEST(ChaosTest, HardAndrewSurvivesCrashAndFlapOnSlowLink) {
  World world(QuietWorldOptions(TopologyKind::kSlowLinkPath, HardMount()));
  DumpOnFailure dump_on_failure(world);
  ChaosOptions chaos;
  chaos.workload = ChaosWorkload::kAndrew;
  chaos.andrew = SmallAndrew();
  chaos.schedule.push_back(FaultSpecFromString("crash at=30s dur=15s").value());
  chaos.schedule.push_back(
      FaultSpecFromString("link_flap at=60s count=2 dur=2s period=3s").value());

  ChaosReport report = RunChaos(world, chaos);

  EXPECT_TRUE(report.workload_status.ok()) << report.workload_status;
  EXPECT_TRUE(report.integrity_ok) << report.integrity_error;
  EXPECT_GT(report.files_compared, 20u);  // sources + objects + a.out
  EXPECT_EQ(report.metrics.Value("server.nfs.crashes"), 1u);
  EXPECT_EQ(report.fault_trace.size(), 6u);  // crash+restart, 2 x (down+up)
  EXPECT_GE(report.recovery.not_responding_events, 1u);
  EXPECT_GE(report.recovery.server_ok_events, 1u);
}

// The same crash on a soft mount must surface ETIMEDOUT to the workload
// rather than hang — and once the server is back, the world still heals.
TEST(ChaosTest, SoftAndrewSurfacesTimeoutInsteadOfHanging) {
  NfsMountOptions mount = NfsMountOptions::Reno();
  mount.hard = false;
  mount.max_tries = 3;
  World world(QuietWorldOptions(TopologyKind::kSlowLinkPath, mount));
  DumpOnFailure dump_on_failure(world);
  ChaosOptions chaos;
  chaos.workload = ChaosWorkload::kAndrew;
  chaos.andrew = SmallAndrew();
  chaos.schedule.push_back(FaultSpecFromString("crash at=20s dur=30s").value());

  ChaosReport report = RunChaos(world, chaos);

  ASSERT_FALSE(report.workload_status.ok());
  EXPECT_EQ(report.workload_status.code(), ErrorCode::kTimeout);
  // The audit runs after the fault horizon: server up, dirty data flushed.
  EXPECT_TRUE(report.integrity_ok) << report.integrity_error;
  EXPECT_EQ(report.metrics.Value("server.nfs.crashes"), 1u);
}

// Create-delete — the non-idempotent grinder — across all three paper
// topologies with a crash/reboot in the middle. A retried CREATE/REMOVE
// straddling the reboot must be absorbed (dup cache before the crash, the
// client's 4.3BSD retry-error heuristic after it), never surfacing a
// spurious EEXIST/ENOENT that would fail the workload.
TEST(ChaosTest, CreateDeleteSurvivesCrashOnAllTopologies) {
  for (TopologyKind topology : {TopologyKind::kSameLan, TopologyKind::kTokenRingPath,
                                TopologyKind::kSlowLinkPath}) {
    SCOPED_TRACE(static_cast<int>(topology));
    World world(QuietWorldOptions(topology, HardMount()));
    DumpOnFailure dump_on_failure(world);
    ChaosOptions chaos;
    chaos.workload = ChaosWorkload::kCreateDelete;
    chaos.iterations = 30;
    chaos.opmix.file_bytes = 4096;
    chaos.schedule.push_back(FaultSpecFromString("crash at=1s dur=10s").value());
    chaos.schedule.push_back(
        FaultSpecFromString("link_flap at=18s count=1 dur=1s period=1s").value());

    ChaosReport report = RunChaos(world, chaos);

    EXPECT_TRUE(report.workload_status.ok()) << report.workload_status;
    EXPECT_TRUE(report.integrity_ok) << report.integrity_error;
    EXPECT_GE(report.files_compared, 4u);  // the chaos_keep files
    EXPECT_EQ(report.metrics.Value("server.nfs.crashes"), 1u);
    // The crash landed mid-run: some call sat unanswered long enough for
    // the hard mount to announce the outage, and recovery followed.
    EXPECT_GE(report.recovery.not_responding_events, 1u);
    EXPECT_GE(report.recovery.server_ok_events, 1u);
  }
}

// Corruption soak: a create-delete grinder under a wire-corruption storm
// (bit flips, truncation, duplication, reordering) plus a burst of hostile
// garbage RPCs. The hard UDP mount must ride it out byte-identical, and
// every kind of injected damage must show up in a counter — corruption that
// is injected but never counted reached the application silently.
TEST(ChaosTest, HardMountSurvivesCorruptionStorm) {
  World world(QuietWorldOptions(TopologyKind::kSameLan, HardMount()));
  DumpOnFailure dump_on_failure(world);
  ChaosOptions chaos;
  chaos.workload = ChaosWorkload::kCreateDelete;
  chaos.iterations = 20;
  chaos.opmix.file_bytes = 4096;
  chaos.schedule.push_back(
      FaultSpecFromString(
          "corruption_storm at=1s dur=30s flip=0.15 trunc=0.05 dup=0.1 reorder=0.1 rdelay=30ms")
          .value());
  chaos.schedule.push_back(FaultSpecFromString("garbage_datagrams at=1s dur=30s count=25").value());

  ChaosReport report = RunChaos(world, chaos);

  EXPECT_TRUE(report.workload_status.ok()) << report.workload_status;
  EXPECT_TRUE(report.integrity_ok) << report.integrity_error;
  EXPECT_EQ(report.fault_trace.size(), 2u);  // corruption begin + end
  // The damage was injected and detected, not silently passed through.
  EXPECT_GT(report.frames_corrupted, 0u) << report.SummaryLine();
  EXPECT_GT(report.checksum_drops, 0u) << report.SummaryLine();
  EXPECT_GT(report.metrics.Value("server.rpc.garbage_requests"), 0u) << report.SummaryLine();
  // Loss-by-corruption fed the same retransmit machinery as loss-by-drop.
  EXPECT_GT(world.client().transport_stats().retransmits, 0u);
  // The summary line carries each counter for the soak logs.
  EXPECT_NE(report.SummaryLine().find("checksum_drops="), std::string::npos);
  EXPECT_NE(report.SummaryLine().find("garbage="), std::string::npos);
}

// The same storm over a hard TCP mount: TCP's checksums and sequence
// numbers absorb the damage below the RPC layer, at worst costing a
// reconnect cycle; the workload still ends byte-identical.
TEST(ChaosTest, TcpHardMountSurvivesCorruptionStorm) {
  NfsMountOptions mount = NfsMountOptions::RenoTcp();
  mount.hard = true;
  World world(QuietWorldOptions(TopologyKind::kSameLan, mount));
  DumpOnFailure dump_on_failure(world);
  ChaosOptions chaos;
  chaos.workload = ChaosWorkload::kCreateDelete;
  chaos.iterations = 10;
  chaos.opmix.file_bytes = 4096;
  chaos.schedule.push_back(
      FaultSpecFromString("corruption_storm at=1s dur=30s flip=0.1 dup=0.1 reorder=0.1 rdelay=30ms")
          .value());

  ChaosReport report = RunChaos(world, chaos);

  EXPECT_TRUE(report.workload_status.ok()) << report.workload_status;
  EXPECT_TRUE(report.integrity_ok) << report.integrity_error;
  EXPECT_GT(report.frames_corrupted, 0u) << report.SummaryLine();
  // Bit-flipped TCP segments die at the stack's Internet checksum before
  // demultiplexing. That drop used to be invisible (per-connection TcpStats
  // can't see segments with no connection); the stack-wide counter now feeds
  // the report, so a TCP storm shows checksum_drops just like a UDP one.
  EXPECT_GT(report.checksum_drops, 0u) << report.SummaryLine();
  EXPECT_GT(world.server_tcp()->stack_stats().checksum_drops +
                world.client_tcp(0)->stack_stats().checksum_drops,
            0u);
}

// Garbage datagrams with no storm to eat them: every hostile call reaches the
// server and comes back GARBAGE_ARGS, counted once each. They are traffic,
// not a state change, so the fault trace stays empty.
TEST(ChaosTest, EveryGarbageDatagramIsCountedOnAQuietLan) {
  World world(QuietWorldOptions(TopologyKind::kSameLan, HardMount()));
  DumpOnFailure dump_on_failure(world);
  ChaosOptions chaos;
  chaos.workload = ChaosWorkload::kCreateDelete;
  chaos.iterations = 20;
  chaos.opmix.file_bytes = 4096;
  chaos.schedule.push_back(FaultSpecFromString("garbage_datagrams at=1s dur=10s count=25").value());

  ChaosReport report = RunChaos(world, chaos);

  EXPECT_TRUE(report.workload_status.ok()) << report.workload_status;
  EXPECT_TRUE(report.integrity_ok) << report.integrity_error;
  EXPECT_EQ(report.metrics.Value("server.rpc.garbage_requests"), 25u) << report.SummaryLine();
  EXPECT_TRUE(report.fault_trace.empty());
}

// A slow disk (every op inflated 6x mid-run) is the paper's Section 5
// saturation regime: nothing fails, but WRITE-heavy load piles every nfsd
// up behind the device queue. Write gathering exists for exactly this —
// batching the per-call data+inode commits collapses the queue. Run the
// identical soak with gathering on and off and compare the saturation
// telemetry; the hard mount must survive both runs with full integrity.
TEST(ChaosTest, SlowDiskSaturatesNfsdsLessWithWriteGathering) {
  // Fixed-RTO transport: no congestion window, so the biod pool's concurrent
  // block pushes actually overlap at the server — the precondition for both
  // slot saturation and write gathering. Eight biods against four nfsds
  // guarantees queueing once the disk slows down.
  NfsMountOptions mount = NfsMountOptions::RenoUdpFixed();
  mount.hard = true;
  mount.biods = 8;
  uint64_t slot_waits[2] = {0, 0};
  uint64_t disk_ops[2] = {0, 0};
  for (int gathering = 0; gathering < 2; ++gathering) {
    WorldOptions options = QuietWorldOptions(TopologyKind::kSameLan, mount);
    options.server.write_gathering = gathering == 1;
    World world(options);
    DumpOnFailure dump_on_failure(world);
    ChaosOptions chaos;
    chaos.workload = ChaosWorkload::kCreateDelete;
    chaos.iterations = 12;
    chaos.opmix.file_bytes = 64 * 1024;  // WRITE-heavy: 8 full blocks per file
    chaos.schedule.push_back(FaultSpecFromString("disk_slow at=1s dur=120s mag=6").value());

    ChaosReport report = RunChaos(world, chaos);

    EXPECT_TRUE(report.workload_status.ok()) << report.SummaryLine();
    EXPECT_TRUE(report.integrity_ok) << report.integrity_error;
    ASSERT_EQ(report.fault_trace.size(), 2u);  // slow begin + end
    EXPECT_NE(report.fault_trace[0].find("disk slow begin (x6.0)"), std::string::npos)
        << report.fault_trace[0];
    slot_waits[gathering] = report.metrics.Value("server.rpc.nfsd_slot_waits");
    disk_ops[gathering] = world.server_node()->disk().ops_completed();
    if (gathering == 1) {
      EXPECT_GT(world.server().stats().gather_batches, 0u) << report.SummaryLine();
    }
  }
  // Without gathering the slow disk must actually saturate the slot pool
  // (that's the regime this soak constructs), and gathering must save real
  // disk ops — fewer trips through the slow device is where relief comes
  // from. (Gathered nfsds still *hold* their slots while parked in the
  // window, as the real implementation's sleeping nfsds did, so slot_waits
  // itself is not asserted to shrink.)
  EXPECT_GT(slot_waits[0], 0u);
  EXPECT_LT(disk_ops[1], disk_ops[0]);
}

// The resource-exhaustion acceptance scenario: Andrew against a server whose
// disk fills mid-run. The workload must fail cleanly with ENOSPC (surfaced
// from the write-behind at close/next-write, never a client crash), the
// server must keep answering, and after the disk is restored the same world
// must pass a byte-level integrity audit and run a full workload again.
TEST(ChaosTest, AndrewSurfacesEnospcAndHealsAfterRestore) {
  World world(QuietWorldOptions(TopologyKind::kSameLan, HardMount()));
  DumpOnFailure dump_on_failure(world);
  ChaosOptions chaos;
  chaos.workload = ChaosWorkload::kAndrew;
  chaos.andrew = SmallAndrew();
  chaos.schedule.push_back(FaultSpecFromString("disk_full at=3s blocks=0").value());
  chaos.schedule.push_back(FaultSpecFromString("disk_restore at=90s").value());

  ChaosReport report = RunChaos(world, chaos);

  ASSERT_FALSE(report.workload_status.ok());
  EXPECT_EQ(report.workload_status.code(), ErrorCode::kNoSpace)
      << report.workload_status << " | " << report.SummaryLine();
  EXPECT_GT(report.metrics.Value("fs.enospc_errors"), 0u) << report.SummaryLine();
  EXPECT_GT(report.write_errors_latched, 0u) << report.SummaryLine();
  // The audit ran post-restore through the same client against the same
  // server: it was still answering, and what did reach stable storage is
  // byte-identical through the client's caches.
  EXPECT_TRUE(report.integrity_ok) << report.integrity_error;

  // Post-restore retry on the same world: a full workload now succeeds.
  ChaosOptions retry;
  retry.workload = ChaosWorkload::kCreateDelete;
  retry.iterations = 16;
  retry.opmix.file_bytes = 4096;
  ChaosReport report2 = RunChaos(world, retry);
  EXPECT_TRUE(report2.workload_status.ok()) << report2.workload_status;
  EXPECT_TRUE(report2.integrity_ok) << report2.integrity_error;
}

// Same seed, same schedule ⇒ identical fault trace and identical outcome.
TEST(ChaosTest, SameSeedGivesIdenticalTraceAndOutcome) {
  auto run = [] {
    World world(QuietWorldOptions(TopologyKind::kSameLan, HardMount()));
    DumpOnFailure dump_on_failure(world);
    ChaosOptions chaos;
    chaos.workload = ChaosWorkload::kCreateDelete;
    chaos.iterations = 20;
    chaos.opmix.file_bytes = 2048;
    chaos.schedule.push_back(FaultSpecFromString("crash at=3s dur=8s").value());
    chaos.schedule.push_back(
        FaultSpecFromString("link_flap at=14s count=1 dur=1s period=1s").value());
    ChaosReport report = RunChaos(world, chaos);
    const auto& stats = world.client().transport_stats();
    return std::make_tuple(report.fault_trace, report.files_compared,
                           report.retry_errors_absorbed,
                           report.metrics.Value("server.rpc.duplicate_cache_replays"),
                           static_cast<int>(report.workload_status.code()), stats.calls,
                           stats.retransmits);
  };
  auto first = run();
  auto second = run();
  EXPECT_EQ(first, second);
  EXPECT_FALSE(std::get<0>(first).empty());
}

// A hard TCP mount: the crashed server forgets every connection; the client
// transport notices the silence, reconnects, and re-issues in-flight calls.
TEST(ChaosTest, TcpHardMountRidesOutCrash) {
  NfsMountOptions mount = NfsMountOptions::RenoTcp();
  mount.hard = true;
  World world(QuietWorldOptions(TopologyKind::kSameLan, mount));
  DumpOnFailure dump_on_failure(world);
  ChaosOptions chaos;
  chaos.workload = ChaosWorkload::kCreateDelete;
  chaos.iterations = 10;
  chaos.opmix.file_bytes = 2048;
  chaos.schedule.push_back(FaultSpecFromString("crash at=2s dur=6s").value());

  ChaosReport report = RunChaos(world, chaos);

  EXPECT_TRUE(report.workload_status.ok()) << report.workload_status;
  EXPECT_TRUE(report.integrity_ok) << report.integrity_error;
  EXPECT_GE(report.recovery.reconnects, 1u);
  EXPECT_GE(report.recovery.reissued_calls, 1u);
}

// The PR-4 acceptance run: one seeded chaos invocation must yield, at once,
// (1) a flat server CPU profile whose categories sum to the CPU's total
// busy time, (2) a Chrome trace whose timestamps are monotonic per track,
// and (3) a registry snapshot whose server.rpc.* counters match the
// RpcServerStats fields they mirror.
TEST(ChaosTest, OneRunYieldsProfileTraceAndMatchingSnapshot) {
  World world(QuietWorldOptions(TopologyKind::kSameLan, HardMount()));
  DumpOnFailure dump_on_failure(world);
  ChaosOptions chaos;
  chaos.workload = ChaosWorkload::kCreateDelete;
  chaos.iterations = 15;
  chaos.opmix.file_bytes = 4096;
  chaos.schedule.push_back(FaultSpecFromString("crash at=1s dur=8s").value());

  ChaosReport report = RunChaos(world, chaos);
  EXPECT_TRUE(report.workload_status.ok()) << report.workload_status;
  EXPECT_TRUE(report.integrity_ok) << report.integrity_error;

  // (1) The flat profile accounts for every charged nanosecond.
  const CpuProfile profile = world.ServerCpuProfile();
  SimTime by_category_sum = 0;
  for (size_t c = 0; c < kNumCostCategories; ++c) {
    by_category_sum += profile.by_category[c];
  }
  EXPECT_EQ(by_category_sum, profile.busy);
  EXPECT_EQ(profile.busy, world.server_node()->cpu().busy_accum());
  EXPECT_GT(profile.busy, 0);

  // (2) The trace exported, and event times never step backwards within a
  // track (scripts/validate_trace.py re-checks this on the JSON itself).
  const std::string chrome = world.tracer().ToChromeJson();
  EXPECT_NE(chrome.find("\"traceEvents\""), std::string::npos);
  std::map<uint16_t, SimTime> last_at;
  uint64_t last_seq = 0;
  bool first_event = true;
  for (const TraceEvent& event : world.tracer().Events()) {
    auto it = last_at.find(event.track);
    if (it != last_at.end()) {
      EXPECT_GE(event.at, it->second) << TraceEventKindName(event.kind);
    }
    last_at[event.track] = event.at;
    if (!first_event) {
      EXPECT_GT(event.seq, last_seq);  // strictly increasing record order
    }
    first_event = false;
    last_seq = event.seq;
  }
  EXPECT_GE(last_at.size(), 3u);  // client, server.rpc/nfs, medium tracks

  // (3) The snapshot mirrors the source structs field for field.
  const MetricsSnapshot snap = world.MetricsNow();
  const RpcServerStats& rpc = world.server().rpc_stats();
  EXPECT_EQ(snap.Value("server.rpc.requests"), rpc.requests);
  EXPECT_EQ(snap.Value("server.rpc.replies"), rpc.replies);
  EXPECT_EQ(snap.Value("server.rpc.garbage_requests"), rpc.garbage_requests);
  EXPECT_EQ(snap.Value("server.rpc.corrupted_records"), rpc.corrupted_records);
  EXPECT_EQ(snap.Value("server.rpc.duplicate_in_progress_drops"),
            rpc.duplicate_in_progress_drops);
  EXPECT_EQ(snap.Value("server.rpc.duplicate_cache_replays"), rpc.duplicate_cache_replays);
  EXPECT_EQ(snap.Value("server.rpc.duplicate_entries_aged"), rpc.duplicate_entries_aged);
  EXPECT_EQ(snap.Value("server.rpc.nfsd_slot_waits"), rpc.nfsd_slot_waits);
  EXPECT_EQ(snap.Value("server.rpc.replies_dropped_crash"), rpc.replies_dropped_crash);
  EXPECT_GT(snap.Value("server.rpc.requests"), 0u);

  // The report carries the metrics for the soak logs; the world keeps the
  // trace ring.
  EXPECT_FALSE(report.metrics.counters.empty());
  EXPECT_FALSE(world.tracer().Tail(64).empty());
  EXPECT_FALSE(report.latencies.empty());
  EXPECT_NE(report.SummaryLine().find("lat_us["), std::string::npos);
}

// The lease soak: a create-delete grinder on client 0 under a write-caching
// lease mount while two reader clients re-read every surviving file — each
// read recalls the writer's cached write lease — and the server crashes and
// reboots in the middle, so recalls straddle the reboot and its grace
// window. The run must end byte-identical with zero stale-lease writes:
// every conflict resolved by recall/vacate/discard, never by a client
// pushing through a lease it no longer holds.
TEST(ChaosTest, LeaseStormWithCrashKeepsIntegrityAndNoStaleWrites) {
  NfsMountOptions mount = NfsMountOptions::Leases();
  mount.hard = true;
  mount.max_tries = 3;
  mount.lease_term = Seconds(5);
  WorldOptions options = QuietWorldOptions(TopologyKind::kSameLan, mount);
  options.clients = 3;
  options.server.leases = true;
  options.server.lease.min_term = Seconds(1);
  options.server.lease.max_term = Seconds(10);
  World world(options);
  DumpOnFailure dump_on_failure(world);
  ChaosOptions chaos;
  chaos.workload = ChaosWorkload::kCreateDelete;
  chaos.iterations = 30;
  chaos.opmix.file_bytes = 4096;
  chaos.schedule.push_back(FaultSpecFromString("crash at=5s dur=8s").value());
  chaos.lease_storm = true;
  chaos.lease_read_interval = Milliseconds(300);

  ChaosReport report = RunChaos(world, chaos);

  EXPECT_TRUE(report.workload_status.ok()) << report.workload_status;
  EXPECT_TRUE(report.integrity_ok) << report.integrity_error;
  EXPECT_EQ(report.metrics.Value("server.nfs.crashes"), 1u);
  // The storm actually happened: leases were granted, reads recalled the
  // writer's leases, and holders answered with vacates.
  EXPECT_GT(report.leases_granted, 0u) << report.SummaryLine();
  EXPECT_GT(report.metrics.Value("server.lease.recalls_sent"), 0u) << report.SummaryLine();
  EXPECT_GT(report.metrics.Value("server.lease.vacated"), 0u) << report.SummaryLine();
  // The invariant the whole design hangs on.
  EXPECT_EQ(report.metrics.Value("client.lease.stale_lease_writes"), 0u)
      << report.SummaryLine();
  EXPECT_NE(report.SummaryLine().find("stale_lease_writes=0"), std::string::npos);
}

// Regression: a server crash landing while a cache-miss READ sits in the
// disk queue. BlockThroughCache held a Buf* across the disk await; Crash()
// clears the buffer cache, so the resumed coroutine wrote through a
// dangling pointer (caught by ASan). The epoch guard now abandons the fill.
TEST(ChaosTest, CrashWhileReadWaitsInDiskQueue) {
  WorldOptions options;  // default LAN, background traffic and all
  options.mount.hard = true;
  World world(options);
  DumpOnFailure dump_on_failure(world);
  ChaosOptions chaos;
  chaos.workload = ChaosWorkload::kAndrew;
  chaos.andrew.directories = 3;
  chaos.andrew.source_files = 12;
  chaos.andrew.mean_file_bytes = 2000;
  chaos.schedule.push_back(FaultSpecFromString("crash at=3s dur=8s").value());

  ChaosReport report = RunChaos(world, chaos);

  EXPECT_TRUE(report.workload_status.ok()) << report.workload_status;
  EXPECT_TRUE(report.integrity_ok) << report.integrity_error;
  EXPECT_EQ(report.metrics.Value("server.nfs.crashes"), 1u);
}

}  // namespace
}  // namespace renonfs
