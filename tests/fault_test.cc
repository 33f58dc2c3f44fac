// Fault-injection tests: link faults, partitions, server crash/reboot, and
// the hard/soft/intr mount recovery semantics they exercise.
#include <gtest/gtest.h>


#include <algorithm>
#include <cstring>
#include <string>
#include <vector>

#include "src/fault/injector.h"
#include "src/nfs/wire.h"
#include "src/util/config.h"
#include "src/workload/chaos.h"
#include "tests/nfs_test_util.h"

namespace renonfs {
namespace {

NfsMountOptions FastRetryMount(int max_tries, bool hard, bool intr = false) {
  NfsMountOptions mount = NfsMountOptions::RenoUdpFixed();
  mount.timeo = Milliseconds(500);
  mount.max_tries = max_tries;
  mount.hard = hard;
  mount.intr = intr;
  return mount;
}

// Schedules one fault line against the world's canonical targets, the path
// scenarios and replays take.
void ScheduleFault(FaultInjector& injector, World& world, const std::string& line) {
  injector.Schedule(FaultSpecFromString(line).value(), WorldFaultTargets(world));
}

// Satellite regression: a retransmitted non-idempotent RPC must be answered
// from the server's duplicate cache, not re-executed into a spurious EEXIST.
// A one-way partition drops server→client replies while client→server
// requests still flow — the classic duplicate generator.
TEST(FaultTest, DupCacheAbsorbsRetransmittedCreate) {
  World world(QuietWorld());
  DumpOnFailure dump_on_failure(world);
  FaultInjector injector(world.scheduler());
  ScheduleFault(injector, world, "partition at=0s dur=2500ms inbound=true");

  auto task = world.client().Create(world.client().root(), "dup_victim");
  auto fh_or = world.Run(task);

  ASSERT_TRUE(fh_or.ok()) << fh_or.status();
  // Executed exactly once; every retransmission was replayed from the cache.
  EXPECT_EQ(world.server().stats().proc_counts[kNfsCreate], 1u);
  EXPECT_GE(world.server().rpc_stats().duplicate_cache_replays, 1u);
  EXPECT_GE(world.client().transport_stats().retransmits, 1u);
  // The dup cache handled it; the client-side absorption heuristic did not
  // need to fire.
  EXPECT_EQ(world.client().stats().retry_errors_absorbed, 0u);
  EXPECT_TRUE(world.fs().Lookup(world.fs().root(), "dup_victim").ok());
}

// Satellite regression: a soft mount gives up with a timeout Status after
// exactly max_tries transmissions with exponential backoff.
TEST(FaultTest, SoftTimeoutAfterExactlyMaxTries) {
  World world(QuietWorld(1, FastRetryMount(/*max_tries=*/4, /*hard=*/false)));
  DumpOnFailure dump_on_failure(world);
  world.server().Crash();  // never restarted: the server is simply gone

  auto task = world.client().Getattr(world.client().root());
  auto attr_or = world.Run(task);

  ASSERT_FALSE(attr_or.ok());
  EXPECT_EQ(attr_or.status().code(), ErrorCode::kTimeout);
  EXPECT_EQ(world.client().transport_stats().calls, 1u);
  EXPECT_EQ(world.client().transport_stats().retransmits, 3u);  // 4 transmissions total
  EXPECT_EQ(world.client().transport_stats().soft_timeouts, 1u);
  world.server().Restart();
}

// A hard mount rides out a crash/reboot: the call retries forever, announces
// "nfs server not responding" after max_tries, and completes (announcing
// "ok") once the server is back.
TEST(FaultTest, HardMountRidesOutServerCrash) {
  World world(QuietWorld(1, FastRetryMount(/*max_tries=*/3, /*hard=*/true)));
  DumpOnFailure dump_on_failure(world);
  FaultInjector injector(world.scheduler());
  ScheduleFault(injector, world, "crash at=0s dur=10s");

  auto task = world.client().Create(world.client().root(), "survivor");
  auto fh_or = world.Run(task);

  ASSERT_TRUE(fh_or.ok()) << fh_or.status();
  EXPECT_EQ(world.server().crash_count(), 1u);
  EXPECT_EQ(world.client().transport_stats().soft_timeouts, 0u);
  EXPECT_GE(world.client().recovery_stats().not_responding_events, 1u);
  EXPECT_GE(world.client().recovery_stats().server_ok_events, 1u);
  EXPECT_GT(world.client().recovery_stats().last_outage, 0);
  EXPECT_TRUE(world.fs().Lookup(world.fs().root(), "survivor").ok());
}

// intr: Interrupt() is the only way out of a hard mount while the server is
// down — outstanding calls resolve with kCancelled.
TEST(FaultTest, InterruptCancelsHardMountCalls) {
  World world(QuietWorld(1, FastRetryMount(/*max_tries=*/3, /*hard=*/true, /*intr=*/true)));
  DumpOnFailure dump_on_failure(world);
  world.server().Crash();
  world.scheduler().Schedule(Seconds(3), [&world]() { world.client().Interrupt(); });

  auto task = world.client().Create(world.client().root(), "doomed");
  auto fh_or = world.Run(task);

  ASSERT_FALSE(fh_or.ok());
  EXPECT_EQ(fh_or.status().code(), ErrorCode::kCancelled);
  EXPECT_EQ(world.client().recovery_stats().interrupted_calls, 1u);
  world.server().Restart();
}

// A plain hard mount (no intr) ignores Interrupt(), faithfully.
TEST(FaultTest, HardMountWithoutIntrIsUninterruptible) {
  World world(QuietWorld(1, FastRetryMount(/*max_tries=*/3, /*hard=*/true, /*intr=*/false)));
  DumpOnFailure dump_on_failure(world);
  EXPECT_EQ(world.client().Interrupt(), 0u);
}

// Link down swallows frames without sender notification; the hard mount
// retries through the outage and completes once carrier returns.
TEST(FaultTest, LinkFlapRecoversHardMount) {
  World world(QuietWorld(1, FastRetryMount(/*max_tries=*/3, /*hard=*/true)));
  DumpOnFailure dump_on_failure(world);
  Medium* lan = world.topology().path_media.front();
  FaultInjector injector(world.scheduler());
  ScheduleFault(injector, world, "link_down at=0s");
  ScheduleFault(injector, world, "link_up at=2s");

  auto task = world.client().Create(world.client().root(), "flapped");
  auto fh_or = world.Run(task);

  ASSERT_TRUE(fh_or.ok()) << fh_or.status();
  EXPECT_GT(lan->stats().frames_dropped_down, 0u);
  EXPECT_FALSE(lan->link_down());
}

// A 100% transient-loss storm behaves like an outage and then clears; a
// latency storm delays every frame by the configured extra.
TEST(FaultTest, LossAndLatencyStorms) {
  World world(QuietWorld(1, FastRetryMount(/*max_tries=*/3, /*hard=*/true)));
  DumpOnFailure dump_on_failure(world);
  Medium* lan = world.topology().path_media.front();
  FaultInjector injector(world.scheduler());
  ScheduleFault(injector, world, "loss_storm at=0s dur=3s mag=1");

  auto task = world.client().Create(world.client().root(), "stormy");
  auto fh_or = world.Run(task);
  ASSERT_TRUE(fh_or.ok()) << fh_or.status();
  EXPECT_GT(lan->stats().frames_dropped_loss, 0u);
  EXPECT_EQ(lan->transient_loss(), 0.0);

  ScheduleFault(injector, world, "latency_storm at=0s dur=30s extra=2s");
  world.scheduler().RunUntil(world.scheduler().now() + Milliseconds(1));
  const SimTime before = world.scheduler().now();
  auto slow = world.client().Create(world.client().root(), "stormy2");
  auto slow_or = world.Run(slow);
  ASSERT_TRUE(slow_or.ok()) << slow_or.status();
  // Request and reply each carried >= 2s of storm latency.
  EXPECT_GE(world.scheduler().now() - before, Seconds(4));
}

// Crash loses all volatile server state; stable storage and the listener
// survive into the next boot.
TEST(FaultTest, CrashLosesVolatileStateOnly) {
  World world(QuietWorld());
  DumpOnFailure dump_on_failure(world);
  // Seed a file in stable storage, then read it through the client so the
  // server's buffer cache fills from disk.
  uint8_t payload[512] = {42};
  auto ino = world.fs().Create(world.fs().root(), "durable", 0644);
  ASSERT_TRUE(ino.ok());
  ASSERT_TRUE(world.fs().Write(ino.value(), 0, payload, sizeof(payload)).ok());
  auto lookup = world.client().Lookup(world.client().root(), "durable");
  auto fh_or = world.Run(lookup);
  ASSERT_TRUE(fh_or.ok());
  auto open = world.client().Open(fh_or.value());
  ASSERT_TRUE(world.Run(open).ok());
  uint8_t readback[512];
  auto read = world.client().Read(fh_or.value(), 0, sizeof(readback), readback);
  auto n_or = world.Run(read);
  ASSERT_TRUE(n_or.ok());
  ASSERT_EQ(n_or.value(), sizeof(readback));

  EXPECT_GT(world.server().cache().size(), 0u);
  world.server().Crash();
  EXPECT_TRUE(world.server().crashed());
  EXPECT_EQ(world.server().cache().size(), 0u);
  world.server().Restart();
  EXPECT_FALSE(world.server().crashed());

  // Stable storage kept the acknowledged write.
  auto ino_or = world.fs().Lookup(world.fs().root(), "durable");
  ASSERT_TRUE(ino_or.ok());
  auto bytes_or = world.fs().Read(ino_or.value(), 0, sizeof(payload));
  ASSERT_TRUE(bytes_or.ok());
  EXPECT_EQ(bytes_or.value().size(), sizeof(payload));
  EXPECT_EQ(bytes_or.value()[0], 42);

  // And the rebooted (stateless) server answers new calls.
  auto again = world.client().Create(world.client().root(), "postboot");
  EXPECT_TRUE(world.Run(again).ok());
}

// A hard TCP mount reconnects after the crashed server's connections vanish
// and re-issues the in-flight calls on the new connection.
TEST(FaultTest, TcpHardMountReconnectsAfterCrash) {
  NfsMountOptions mount = NfsMountOptions::RenoTcp();
  mount.hard = true;
  World world(QuietWorld(1, mount));
  DumpOnFailure dump_on_failure(world);
  FaultInjector injector(world.scheduler());
  ScheduleFault(injector, world, "crash at=1s dur=8s");

  auto warm = world.client().Create(world.client().root(), "pre_crash");
  ASSERT_TRUE(world.Run(warm).ok());

  world.scheduler().RunUntil(Seconds(2));  // server is now down
  auto task = world.client().Create(world.client().root(), "post_crash");
  auto fh_or = world.Run(task);

  ASSERT_TRUE(fh_or.ok()) << fh_or.status();
  EXPECT_GE(world.client().recovery_stats().reconnects, 1u);
  EXPECT_GE(world.client().recovery_stats().reissued_calls, 1u);
  EXPECT_GE(world.client().recovery_stats().server_ok_events, 1u);
  EXPECT_TRUE(world.fs().Lookup(world.fs().root(), "post_crash").ok());
}

// Review regression: a soft TCP mount with tcp_soft_cycles == 1 expires
// every silent call on its first watchdog pass, emptying the pending table.
// The transport must still cycle the dead connection — otherwise every
// later call rides the dead stream and times out forever, even after the
// server restarts.
TEST(FaultTest, TcpSoftSingleCycleMountReconnectsAfterExpiry) {
  NfsMountOptions mount = NfsMountOptions::RenoTcp();
  mount.hard = false;
  mount.tcp_soft_cycles = 1;
  World world(QuietWorld(1, mount));
  DumpOnFailure dump_on_failure(world);
  world.server().Crash();

  auto task = world.client().Getattr(world.client().root());
  auto attr_or = world.Run(task);
  ASSERT_FALSE(attr_or.ok());
  EXPECT_EQ(attr_or.status().code(), ErrorCode::kTimeout);
  EXPECT_EQ(world.client().transport_stats().soft_timeouts, 1u);
  EXPECT_GE(world.client().recovery_stats().reconnects, 1u);

  world.server().Restart();
  auto again = world.client().Create(world.client().root(), "after_reboot");
  auto fh_or = world.Run(again);
  ASSERT_TRUE(fh_or.ok()) << fh_or.status();
  EXPECT_TRUE(world.fs().Lookup(world.fs().root(), "after_reboot").ok());
}

// Review regression: a crash landing while the server coroutine is suspended
// building the reply (after the dispatcher, before the Replier fires) must
// drop the reply, not touch the TcpConnection that died with the old kernel.
// The sweep steps the crash time at 100us across the call's server-side
// lifetime so some iteration lands in every await window, including the
// 250us reply-build slice; under ASan a leaked reply is a use-after-free.
TEST(FaultTest, CrashSweepNeverLeaksAReplyToADeadConnection) {
  NfsMountOptions mount = NfsMountOptions::RenoTcp();
  mount.hard = true;
  uint64_t dropped_total = 0;
  for (SimTime crash_at = Milliseconds(1); crash_at <= Milliseconds(15);
       crash_at += Microseconds(100)) {
    World world(QuietWorld(1, mount));
    DumpOnFailure dump_on_failure(world);
    FaultInjector injector(world.scheduler());
    ScheduleFault(injector, world, "crash at=" + FormatDuration(crash_at) + " dur=2s");

    auto task = world.client().Create(world.client().root(), "sweep");
    auto fh_or = world.Run(task);
    ASSERT_TRUE(fh_or.ok()) << fh_or.status() << " crash_at=" << crash_at;
    EXPECT_TRUE(world.fs().Lookup(world.fs().root(), "sweep").ok());
    dropped_total += world.server().rpc_stats().replies_dropped_crash;
  }
  // The sweep actually caught requests mid-flight on the server.
  EXPECT_GE(dropped_total, 1u);
}

CoTask<Status> CreateRemoveLoop(NfsClient& client, int iterations) {
  for (int i = 0; i < iterations; ++i) {
    const std::string name = "dup_reorder" + std::to_string(i);
    auto fh_or = co_await client.Create(client.root(), name);
    if (!fh_or.ok()) {
      co_return fh_or.status();
    }
    Status status = co_await client.Remove(client.root(), name);
    if (!status.ok()) {
      co_return status;
    }
  }
  co_return Status::Ok();
}

// Satellite regression: a *duplicated* (not retransmitted) non-idempotent
// CREATE straddling a reorder window. The medium delivers an immediate copy
// of every frame and holds the original back 150 ms, so the original CREATE
// arrives after the copy's reply went out — it must be answered from the
// duplicate cache, never re-executed into EEXIST.
TEST(FaultTest, DuplicatedCreateInReorderWindowIsAbsorbedUdp) {
  World world(QuietWorld(1, FastRetryMount(/*max_tries=*/3, /*hard=*/true)));
  DumpOnFailure dump_on_failure(world);
  Medium* lan = world.topology().path_media.front();
  CorruptionConfig config;
  config.duplicate = 1.0;
  config.reorder = 1.0;
  config.reorder_delay = Milliseconds(150);
  lan->SetCorruption(config);

  auto task = CreateRemoveLoop(world.client(), 8);
  Status status = world.Run(task);
  lan->SetCorruption(CorruptionConfig{});

  EXPECT_TRUE(status.ok()) << status;
  // Each CREATE executed exactly once; every duplicate was absorbed by the
  // cache (replayed if it arrived after the reply, dropped if mid-execution).
  EXPECT_EQ(world.server().stats().proc_counts[kNfsCreate], 8u);
  EXPECT_GE(world.server().rpc_stats().duplicate_cache_replays, 1u);
  EXPECT_GE(world.server().rpc_stats().duplicate_cache_replays +
                world.server().rpc_stats().duplicate_in_progress_drops,
            8u);
  EXPECT_EQ(world.client().stats().retry_errors_absorbed, 0u);
}

// The same storm over TCP: segment duplicates and reordering are absorbed by
// TCP sequence numbers before the RPC layer ever sees them, so the dup cache
// stays cold and the workload still sees exactly-once execution.
TEST(FaultTest, DuplicatedCreateInReorderWindowIsAbsorbedTcp) {
  NfsMountOptions mount = NfsMountOptions::RenoTcp();
  mount.hard = true;
  World world(QuietWorld(1, mount));
  DumpOnFailure dump_on_failure(world);
  Medium* lan = world.topology().path_media.front();
  CorruptionConfig config;
  config.duplicate = 1.0;
  config.reorder = 1.0;
  config.reorder_delay = Milliseconds(150);
  lan->SetCorruption(config);

  auto task = CreateRemoveLoop(world.client(), 8);
  Status status = world.Run(task);
  lan->SetCorruption(CorruptionConfig{});

  EXPECT_TRUE(status.ok()) << status;
  EXPECT_EQ(world.server().stats().proc_counts[kNfsCreate], 8u);
  EXPECT_EQ(world.server().rpc_stats().duplicate_cache_replays, 0u);
  EXPECT_EQ(world.client().stats().retry_errors_absorbed, 0u);
}

// The 4.3BSD retry-error heuristic, one instance per non-idempotent
// procedure the client absorbs it for. Replies are dropped for 4 s and the
// server reboots at 1 s, emptying its duplicate cache, so a retransmission
// after the reboot re-executes the op into EEXIST or ENOENT. The client must
// recognise the echo of its own earlier transmission, count it once, and
// report success.
struct AbsorbCase {
  uint32_t proc;
};

void PrintTo(const AbsorbCase& absorb, std::ostream* os) { *os << NfsProcName(absorb.proc); }

class RetryErrorAbsorptionTest : public ::testing::TestWithParam<AbsorbCase> {};

// Runs the case's op on names the test prepared: "victim" exists beforehand
// for REMOVE, RMDIR, RENAME and LINK (whose `file` it is), and "made" is what
// CREATE, MKDIR, RENAME, LINK and SYMLINK leave behind.
CoTask<Status> RunAbsorbedOp(NfsClient& client, uint32_t proc, NfsFh file) {
  const NfsFh root = client.root();
  switch (proc) {
    case kNfsCreate: {
      auto fh_or = co_await client.Create(root, "made");
      co_return fh_or.status();
    }
    case kNfsMkdir: {
      auto fh_or = co_await client.Mkdir(root, "made");
      co_return fh_or.status();
    }
    case kNfsRemove:
      co_return co_await client.Remove(root, "victim");
    case kNfsRmdir:
      co_return co_await client.Rmdir(root, "victim");
    case kNfsRename:
      co_return co_await client.Rename(root, "victim", root, "made");
    case kNfsLink:
      co_return co_await client.Link(file, root, "made");
    case kNfsSymlink:
      co_return co_await client.Symlink(root, "made", "victim");
    default:
      co_return InvalidArgumentError("no absorption case for this procedure");
  }
}

TEST_P(RetryErrorAbsorptionTest, RetriedOpEchoIsAbsorbedOnce) {
  const uint32_t proc = GetParam().proc;
  NfsMountOptions mount = NfsMountOptions::RenoUdpFixed();
  mount.timeo = Milliseconds(500);
  mount.hard = true;
  World world(QuietWorld(1, mount));
  DumpOnFailure dump_on_failure(world);
  LocalFs& fs = world.fs();
  NfsFh victim_fh;
  if (proc == kNfsRmdir) {
    ASSERT_TRUE(fs.Mkdir(fs.root(), "victim", 0755).ok());
  } else if (proc == kNfsRemove || proc == kNfsRename || proc == kNfsLink) {
    auto ino_or = fs.Create(fs.root(), "victim", 0644);
    ASSERT_TRUE(ino_or.ok()) << ino_or.status();
    victim_fh = NfsFh::Make(1, ino_or.value());
  }
  FaultInjector injector(world.scheduler());
  ScheduleFault(injector, world, "partition at=0s dur=4s inbound=true");
  ScheduleFault(injector, world, "crash at=1s dur=500ms");

  auto task = RunAbsorbedOp(world.client(), proc, victim_fh);
  Status status = world.Run(task);

  ASSERT_TRUE(status.ok()) << status;
  EXPECT_EQ(world.client().stats().retry_errors_absorbed, 1u);
  // Executed once before the reboot and again after it.
  EXPECT_GE(world.server().stats().proc_counts[proc], 2u);
  const bool made = proc != kNfsRemove && proc != kNfsRmdir;
  const bool victim_gone = proc == kNfsRemove || proc == kNfsRmdir || proc == kNfsRename;
  EXPECT_EQ(fs.Lookup(fs.root(), "made").ok(), made);
  if (victim_gone) {
    EXPECT_FALSE(fs.Lookup(fs.root(), "victim").ok());
  }
}

INSTANTIATE_TEST_SUITE_P(
    NonIdempotentProcs, RetryErrorAbsorptionTest,
    ::testing::Values(AbsorbCase{kNfsCreate}, AbsorbCase{kNfsMkdir}, AbsorbCase{kNfsRemove},
                      AbsorbCase{kNfsRmdir}, AbsorbCase{kNfsRename}, AbsorbCase{kNfsLink},
                      AbsorbCase{kNfsSymlink}),
    [](const ::testing::TestParamInfo<AbsorbCase>& param_info) {
      return std::string(NfsProcName(param_info.param.proc));
    });

// --- Page-loaning pin protocol (tentpole coverage, run under ASan) ---

std::vector<uint8_t> LoanPattern(size_t n, uint8_t seed = 1) {
  std::vector<uint8_t> out(n);
  for (size_t i = 0; i < n; ++i) {
    out[i] = static_cast<uint8_t>(seed + i * 7);
  }
  return out;
}

// A clean buffer whose clusters sit in a reply chain awaiting transmit must
// be passed over by the eviction scan, exactly like a dirty one; dropping
// the chain releases the loan and makes it a victim again.
TEST(FaultTest, LoanPinsBufferAgainstEviction) {
  BufCacheOptions options;
  options.capacity_blocks = 2;
  BufCache cache(options);

  Buf* a = cache.Create(/*file=*/1, /*block=*/0).value();
  Buf* b = cache.Create(/*file=*/1, /*block=*/1).value();
  (void)b;

  MbufChain reply;
  a->ShareInto(&reply, 0, kBufBlockSize);
  EXPECT_TRUE(a->loaned());
  EXPECT_EQ(cache.loaned_count(), 1u);

  // At capacity: the scan must skip loaned `a` (the LRU victim) and take `b`.
  ASSERT_TRUE(cache.Create(1, 2).ok());
  EXPECT_EQ(cache.stats().loan_pinned_skips, 1u);
  EXPECT_NE(cache.Find(1, 0), nullptr);  // a survived (and is now MRU)
  EXPECT_EQ(cache.Find(1, 1), nullptr);  // b was the victim

  // The reply "transmits" (the chain is destroyed): the loan drains and the
  // buffer is evictable again. Touch block 2 so `a` is back at the LRU tail.
  reply = MbufChain();
  EXPECT_FALSE(a->loaned());
  EXPECT_EQ(cache.loaned_count(), 0u);
  EXPECT_NE(cache.Find(1, 2), nullptr);
  ASSERT_TRUE(cache.Create(1, 3).ok());
  EXPECT_EQ(cache.stats().loan_pinned_skips, 1u);  // no skip this time
  EXPECT_EQ(cache.Find(1, 0), nullptr);  // a was evicted normally
}

// When every buffer is dirty or loaned, Create must fail with kNoSpace (the
// caller waits for replies to drain), never recycle pinned storage.
TEST(FaultTest, AllBuffersLoanedFailsCreateWithNoSpace) {
  BufCacheOptions options;
  options.capacity_blocks = 2;
  BufCache cache(options);
  Buf* a = cache.Create(1, 0).value();
  Buf* b = cache.Create(1, 1).value();

  MbufChain in_flight;
  a->ShareInto(&in_flight, 0, 512);
  b->ShareInto(&in_flight, 0, 512);

  auto result = cache.Create(1, 2);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), ErrorCode::kNoSpace);
  EXPECT_EQ(cache.stats().loan_pinned_skips, 2u);
}

// A WRITE landing on a block whose clusters are loaned to an un-transmitted
// reply must copy-on-write: the reply keeps the old bytes (they may already
// be committed to the wire), the cache gets the new ones.
TEST(FaultTest, WriteToLoanedBlockBreaksCopyOnWrite) {
  Buf buf(/*file=*/1, /*block=*/0, /*block_size=*/8192);
  const auto before = LoanPattern(8192, 1);
  EXPECT_EQ(buf.CopyIn(0, before.data(), before.size()), 0u);  // no loans yet

  MbufChain reply;
  EXPECT_EQ(buf.ShareInto(&reply, 0, 8192), 4u);  // 4 clusters per 8K block
  EXPECT_TRUE(buf.loaned());

  const auto after = LoanPattern(8192, 99);
  EXPECT_EQ(buf.CopyIn(0, after.data(), after.size()), 4u);  // all 4 CoW-broken
  EXPECT_FALSE(buf.loaned());  // private copies now; the loan moved on

  // The in-flight reply still carries the pre-write bytes...
  std::vector<uint8_t> wire(8192);
  ASSERT_TRUE(reply.CopyOut(0, wire.size(), wire.data()));
  EXPECT_EQ(std::memcmp(wire.data(), before.data(), wire.size()), 0);
  // ...and the cache carries the post-write bytes.
  std::vector<uint8_t> cached(8192);
  buf.CopyOut(0, cached.data(), cached.size());
  EXPECT_EQ(std::memcmp(cached.data(), after.data(), cached.size()), 0);
}

// Crash with loaned replies still in flight: Crash() drops the whole buffer
// cache while reply chains on the "wire" still reference its clusters. The
// refcounts must keep those clusters alive (ASan verifies no use-after-free)
// and the hard mount must recover to byte-identical data after restart.
TEST(FaultTest, ServerCrashWithLoanedRepliesInFlight) {
  World world(QuietWorld(/*clients=*/2, FastRetryMount(/*max_tries=*/3, /*hard=*/true)));
  DumpOnFailure dump_on_failure(world);
  const auto data = LoanPattern(64 * 1024);
  NfsFh fh;

  auto write_task = [](NfsClient& c, const std::vector<uint8_t>& bytes,
                       NfsFh* out) -> CoTask<Status> {
    auto fh_or = co_await c.Create(c.root(), "loaned.dat");
    if (!fh_or.ok()) co_return fh_or.status();
    *out = fh_or.value();
    Status s = co_await c.Write(fh_or.value(), 0, bytes.data(), bytes.size());
    if (!s.ok()) co_return s;
    co_return co_await c.FlushAll();
  }(world.client(0), data, &fh);
  ASSERT_TRUE(world.Run(write_task).ok());

  // Crash just after the reads start: READ replies built from loaned cache
  // clusters are crossing the LAN when the cache that loaned them vanishes.
  FaultInjector injector(world.scheduler());
  ScheduleFault(injector, world, "crash at=8ms dur=2s");

  auto read_task = [](NfsClient& c, NfsFh f, size_t len)
      -> CoTask<StatusOr<std::vector<uint8_t>>> {
    Status open_status = co_await c.Open(f);
    if (!open_status.ok()) co_return open_status;
    std::vector<uint8_t> bytes(len);
    auto n_or = co_await c.Read(f, 0, len, bytes.data());
    if (!n_or.ok()) co_return n_or.status();
    bytes.resize(n_or.value());
    co_return bytes;
  }(world.client(1), fh, data.size());
  auto bytes_or = world.Run(read_task);

  ASSERT_TRUE(bytes_or.ok()) << bytes_or.status();
  EXPECT_EQ(bytes_or.value(), data);
  EXPECT_EQ(world.server().crash_count(), 1u);
  EXPECT_GT(world.server().stats().loaned_replies, 0u);
  EXPECT_GT(world.server().stats().loaned_bytes, 0u);
}

// Zero-copy regression: the same cold-client read of a 64K file, loaning on
// vs off. With loaning the server moves the data bytes by reference
// (bytes_shared) and the global copy volume drops by at least the file size;
// with it off the reply path memcpys every data byte exactly as the paper's
// Section 3 baseline did.
TEST(FaultTest, ReadReplyLoansInsteadOfCopies) {
  constexpr size_t kFileBytes = 64 * 1024;
  uint64_t copied[2] = {0, 0};
  uint64_t shared[2] = {0, 0};
  for (int loaning = 0; loaning < 2; ++loaning) {
    NfsServerOptions server_options = NfsServerOptions::Reno();
    server_options.page_loaning = loaning == 1;
    World world(QuietWorld(/*clients=*/2, NfsMountOptions::Reno(), server_options));
    DumpOnFailure dump_on_failure(world);
    const auto data = LoanPattern(kFileBytes);
    NfsFh fh;
    auto write_task = [](NfsClient& c, const std::vector<uint8_t>& bytes,
                         NfsFh* out) -> CoTask<Status> {
      auto fh_or = co_await c.Create(c.root(), "zc.dat");
      if (!fh_or.ok()) co_return fh_or.status();
      *out = fh_or.value();
      Status s = co_await c.Write(fh_or.value(), 0, bytes.data(), bytes.size());
      if (!s.ok()) co_return s;
      co_return co_await c.FlushAll();
    }(world.client(0), data, &fh);
    ASSERT_TRUE(world.Run(write_task).ok());

    // Cold second client: every block is a READ RPC served from the server's
    // (warm) buffer cache. Measure only this read phase.
    MbufStats::Instance().Reset();
    auto read_task = [](NfsClient& c, NfsFh f, size_t len)
        -> CoTask<StatusOr<std::vector<uint8_t>>> {
      Status open_status = co_await c.Open(f);
      if (!open_status.ok()) co_return open_status;
      std::vector<uint8_t> bytes(len);
      auto n_or = co_await c.Read(f, 0, len, bytes.data());
      if (!n_or.ok()) co_return n_or.status();
      bytes.resize(n_or.value());
      co_return bytes;
    }(world.client(1), fh, kFileBytes);
    auto bytes_or = world.Run(read_task);
    ASSERT_TRUE(bytes_or.ok()) << bytes_or.status();
    EXPECT_EQ(bytes_or.value(), data);

    copied[loaning] = MbufStats::Instance().bytes_copied;
    shared[loaning] = MbufStats::Instance().bytes_shared;
    if (loaning == 1) {
      EXPECT_EQ(world.server().stats().loaned_bytes, kFileBytes);
      EXPECT_GT(world.server().stats().loaned_replies, 0u);
    } else {
      EXPECT_EQ(world.server().stats().loaned_bytes, 0u);
      EXPECT_EQ(world.server().stats().loaned_replies, 0u);
    }
  }
  // The server's data-byte memcpy is gone: total copy volume drops by at
  // least the file size, and at least that much now moves by reference.
  EXPECT_LE(copied[1] + kFileBytes, copied[0]);
  EXPECT_GE(shared[1], shared[0] + kFileBytes);
}

// --- NQNFS lease failure matrix (tentpole coverage, run under ASan) ---

NfsMountOptions LeaseMount(SimTime term = Seconds(5)) {
  NfsMountOptions mount = NfsMountOptions::Leases();
  mount.timeo = Milliseconds(500);
  mount.max_tries = 4;
  mount.hard = true;
  mount.lease_term = term;
  return mount;
}

NfsServerOptions LeaseServer(SimTime max_term = Seconds(30)) {
  NfsServerOptions options = NfsServerOptions::Reno();
  options.leases = true;
  options.lease.min_term = Seconds(1);
  options.lease.max_term = max_term;
  return options;
}

// create + open + write (+ optional flush) + close; under leases the close
// returns with the data still cached dirty and the write lease held.
CoTask<Status> WriteFileUnderLease(NfsClient& c, std::string name,
                                   const std::vector<uint8_t>& bytes, NfsFh* out,
                                   bool flush) {
  auto fh_or = co_await c.Create(c.root(), name);
  if (!fh_or.ok()) co_return fh_or.status();
  *out = fh_or.value();
  Status open_status = co_await c.Open(fh_or.value());
  if (!open_status.ok()) co_return open_status;
  Status written = co_await c.Write(fh_or.value(), 0, bytes.data(), bytes.size());
  if (!written.ok()) co_return written;
  if (flush) {
    Status flushed = co_await c.Flush(fh_or.value());
    if (!flushed.ok()) co_return flushed;
  }
  co_return co_await c.Close(fh_or.value());
}

// The file's bytes as stable storage sees them (server-side, no client cache).
std::vector<uint8_t> ServerBytes(World& world, const std::string& name) {
  auto ino_or = world.fs().Lookup(world.fs().root(), name);
  if (!ino_or.ok()) return {};
  auto attr_or = world.fs().Getattr(ino_or.value());
  if (!attr_or.ok()) return {};
  auto bytes_or = world.fs().Read(ino_or.value(), 0, attr_or->size);
  if (!bytes_or.ok()) return {};
  return bytes_or.value();
}

// Failure matrix 1 — expiry vs partition: a write-lease holder partitioned
// past its term must treat the cached dirty data as stale once the file has
// moved on, and discard rather than push [Gray89]. The surviving writer's
// bytes win, byte for byte.
TEST(FaultTest, LeasedWriterPartitionedPastTermDiscardsInsteadOfPushing) {
  World world(QuietWorld(2, LeaseMount(), LeaseServer()));
  DumpOnFailure dump_on_failure(world);
  const auto stale = LoanPattern(8192, 1);
  const auto fresh = LoanPattern(8192, 77);
  NfsFh fh0;
  auto setup =
      WriteFileUnderLease(world.client(0), "shared.dat", stale, &fh0, /*flush=*/false);
  ASSERT_TRUE(world.Run(setup).ok());
  // The close returned without pushing: the write lease caches the data.
  EXPECT_EQ(world.server().stats().proc_counts[kNfsWrite], 0u);

  // Client 0 falls off the network for four lease terms.
  const SimTime t0 = world.scheduler().now();
  FaultInjector injector(world.scheduler());
  ScheduleFault(injector, world, "partition at=0s dur=20s inbound=true");
  ScheduleFault(injector, world, "partition at=0s dur=20s inbound=false");

  // Client 1 wants the file: the server's recalls go unanswered, the holder
  // is evicted at the term deadline, and client 1 writes under its own lease.
  auto takeover = [](NfsClient& c,
                     const std::vector<uint8_t>& bytes) -> CoTask<Status> {
    auto fh_or = co_await c.Lookup(c.root(), "shared.dat");
    if (!fh_or.ok()) co_return fh_or.status();
    Status open_status = co_await c.Open(fh_or.value());
    if (!open_status.ok()) co_return open_status;
    Status written = co_await c.Write(fh_or.value(), 0, bytes.data(), bytes.size());
    if (!written.ok()) co_return written;
    Status flushed = co_await c.Flush(fh_or.value());
    if (!flushed.ok()) co_return flushed;
    co_return co_await c.Close(fh_or.value());
  }(world.client(1), fresh);
  ASSERT_TRUE(world.Run(takeover).ok());
  EXPECT_GE(world.server().lease_stats().evictions, 1u);

  // Partition heals; client 0 tries to flush. The re-acquired lease reply
  // shows the modify time moved — the stale bytes are discarded, not pushed.
  world.scheduler().RunUntil(t0 + Seconds(21));
  auto flush = world.client(0).Flush(fh0);
  EXPECT_TRUE(world.Run(flush).ok());
  EXPECT_GE(world.client(0).stats().lease_stale_discards, 1u);
  EXPECT_GE(world.client(0).stats().dirty_bufs_discarded, 1u);
  EXPECT_EQ(world.client(0).stats().stale_lease_writes, 0u);
  EXPECT_EQ(world.client(1).stats().stale_lease_writes, 0u);
  EXPECT_EQ(ServerBytes(world, "shared.dat"), fresh);

  // Quiesce: the renewal RPC the partition stranded is still retransmitting
  // at the hard mount's capped backoff (next attempt ~34 s in). Let it reach
  // the healed server so the detached renewal pass finishes instead of
  // leaking its coroutine frame at teardown.
  world.scheduler().RunUntil(t0 + Seconds(45));
}

// Failure matrix 2 — recall of a crashed/unreachable client: the recall
// datagrams go unanswered, the server retries with backoff and evicts the
// holder at the term deadline, and the blocked reader then proceeds.
TEST(FaultTest, ServerEvictsRecalledLeaseOfUnreachableClient) {
  World world(QuietWorld(2, LeaseMount(), LeaseServer()));
  DumpOnFailure dump_on_failure(world);
  const auto data = LoanPattern(16384, 9);
  NfsFh fh0;
  auto setup =
      WriteFileUnderLease(world.client(0), "evict.dat", data, &fh0, /*flush=*/true);
  ASSERT_TRUE(world.Run(setup).ok());

  FaultInjector injector(world.scheduler());
  ScheduleFault(injector, world, "partition at=0s dur=10s inbound=true");
  ScheduleFault(injector, world, "partition at=0s dur=10s inbound=false");

  auto read_task = [](NfsClient& c,
                      size_t len) -> CoTask<StatusOr<std::vector<uint8_t>>> {
    auto fh_or = co_await c.Lookup(c.root(), "evict.dat");
    if (!fh_or.ok()) co_return fh_or.status();
    Status open_status = co_await c.Open(fh_or.value());
    if (!open_status.ok()) co_return open_status;
    std::vector<uint8_t> bytes(len);
    auto n_or = co_await c.Read(fh_or.value(), 0, len, bytes.data());
    if (!n_or.ok()) co_return n_or.status();
    bytes.resize(n_or.value());
    co_return bytes;
  }(world.client(1), data.size());
  auto bytes_or = world.Run(read_task);
  ASSERT_TRUE(bytes_or.ok()) << bytes_or.status();
  EXPECT_EQ(bytes_or.value(), data);  // the holder had flushed before vanishing
  EXPECT_GE(world.server().lease_stats().recalls_sent, 2u);  // recall was retried
  EXPECT_GE(world.server().lease_stats().evictions, 1u);
}

// Failure matrix 3 — write-lease recall racing REMOVE: the unlink waits for
// the holder to push its dirty data and vacate, then runs. Exactly-once, no
// eviction, no stale write.
TEST(FaultTest, RecallOfDirtyWriteLeaseRacesRemove) {
  World world(QuietWorld(2, LeaseMount(), LeaseServer()));
  DumpOnFailure dump_on_failure(world);
  const auto data = LoanPattern(8192, 5);
  NfsFh fh0;
  auto setup =
      WriteFileUnderLease(world.client(0), "doomed.dat", data, &fh0, /*flush=*/false);
  ASSERT_TRUE(world.Run(setup).ok());
  EXPECT_EQ(world.server().stats().proc_counts[kNfsWrite], 0u);

  auto remove = world.client(1).Remove(world.client(1).root(), "doomed.dat");
  Status status = world.Run(remove);
  EXPECT_TRUE(status.ok()) << status;
  EXPECT_FALSE(world.fs().Lookup(world.fs().root(), "doomed.dat").ok());
  EXPECT_GE(world.client(0).stats().lease_recalls, 1u);
  EXPECT_GE(world.client(0).stats().lease_vacates, 1u);
  EXPECT_GE(world.server().lease_stats().recalled, 1u);
  EXPECT_GE(world.server().lease_stats().vacated, 1u);
  EXPECT_EQ(world.server().lease_stats().evictions, 0u);
  // Push-then-vacate: the dirty bytes reached the server before the unlink.
  EXPECT_GE(world.server().stats().proc_counts[kNfsWrite], 1u);
  EXPECT_EQ(world.client(0).stats().stale_lease_writes, 0u);
}

// Removing a file you hold the lease on must not recall yourself: the REMOVE
// is exempt from the requester's own lease and a voluntary vacate follows.
TEST(FaultTest, RemovingOwnLeasedFileVacatesWithoutRecall) {
  World world(QuietWorld(1, LeaseMount(), LeaseServer()));
  DumpOnFailure dump_on_failure(world);
  const auto data = LoanPattern(4096, 3);
  NfsFh fh;
  auto setup =
      WriteFileUnderLease(world.client(0), "mine.dat", data, &fh, /*flush=*/true);
  ASSERT_TRUE(world.Run(setup).ok());

  auto remove = world.client(0).Remove(world.client(0).root(), "mine.dat");
  ASSERT_TRUE(world.Run(remove).ok());
  world.scheduler().RunUntil(world.scheduler().now() + Seconds(1));
  EXPECT_EQ(world.client(0).stats().lease_recalls, 0u);
  EXPECT_GE(world.client(0).stats().lease_vacates, 1u);
  EXPECT_GE(world.server().lease_stats().vacated, 1u);
  EXPECT_EQ(world.server().lease_stats().recalls_sent, 0u);
}

// Failure matrix 4 — reboot with leases outstanding (and the client's xid
// sequence continuing across the reboot): the restarted server denies new
// leases for one grace term, the client detects the new boot verifier,
// reclaims its old write lease, and the post-reboot writes land intact.
TEST(FaultTest, LeaseReclaimAcrossServerRebootPreservesWrites) {
  World world(QuietWorld(1, LeaseMount(), LeaseServer(/*max_term=*/Seconds(10))));
  DumpOnFailure dump_on_failure(world);
  const auto first = LoanPattern(8192, 11);
  const auto second = LoanPattern(8192, 22);
  NfsFh fh_a;
  auto setup =
      WriteFileUnderLease(world.client(0), "reclaim.dat", first, &fh_a, /*flush=*/true);
  ASSERT_TRUE(world.Run(setup).ok());
  auto canary = world.client(0).Create(world.client(0).root(), "canary.dat");
  auto fh_b_or = world.Run(canary);
  ASSERT_TRUE(fh_b_or.ok());

  // The downtime outlives the client-side term, so the write lease lapses
  // during the outage; the restarted server opens a one-max-term grace window.
  const SimTime t0 = world.scheduler().now();
  FaultInjector injector(world.scheduler());
  ScheduleFault(injector, world, "crash at=100ms dur=6s");
  world.scheduler().RunUntil(t0 + Seconds(7));
  ASSERT_FALSE(world.server().crashed());
  EXPECT_TRUE(world.server().lease_table().InGrace());

  // Lease traffic now carries the new boot verifier: a canary GETATTR is
  // denied (grace) and marks every old-epoch lease stale on the client.
  auto probe = world.client(0).Getattr(fh_b_or.value());
  ASSERT_TRUE(world.Run(probe).ok());
  EXPECT_GE(world.server().lease_stats().grace_denials, 1u);
  EXPECT_GE(world.client(0).stats().lease_expirations, 1u);

  // New writes reclaim the old lease (allowed during grace because it was
  // held before the crash) and flush through to stable storage.
  auto rewrite = [](NfsClient& c, NfsFh fh,
                    const std::vector<uint8_t>& bytes) -> CoTask<Status> {
    Status written = co_await c.Write(fh, 0, bytes.data(), bytes.size());
    if (!written.ok()) co_return written;
    co_return co_await c.Flush(fh);
  }(world.client(0), fh_a, second);
  ASSERT_TRUE(world.Run(rewrite).ok());
  EXPECT_GE(world.server().lease_stats().reclaimed, 1u);
  EXPECT_EQ(world.client(0).stats().stale_lease_writes, 0u);
  EXPECT_EQ(world.server().crash_count(), 1u);
  EXPECT_EQ(ServerBytes(world, "reclaim.dat"), second);
}

// The §5 win leases pay for the machinery with: repeated attribute checks
// ride the lease for free, and writes stay cached past close until a flush
// or a recall.
TEST(FaultTest, LeaseServesCacheWithoutRpcsAndCachesWritesPastClose) {
  World world(QuietWorld(1, LeaseMount(Seconds(30)), LeaseServer()));
  DumpOnFailure dump_on_failure(world);
  const auto data = LoanPattern(8192, 2);
  auto create = world.client(0).Create(world.client(0).root(), "cached.dat");
  auto fh_or = world.Run(create);
  ASSERT_TRUE(fh_or.ok());
  const NfsFh fh = fh_or.value();

  // Past the attribute TTL: the first getattr takes a read lease (one RPC —
  // LEASE doubles as GETATTR), the rest are served from cache by the lease.
  for (int i = 0; i < 4; ++i) {
    world.scheduler().RunUntil(world.scheduler().now() + Seconds(6));
    auto attr = world.client(0).Getattr(fh);
    ASSERT_TRUE(world.Run(attr).ok());
  }
  EXPECT_GE(world.client(0).stats().leases_granted, 1u);
  EXPECT_GE(world.client(0).stats().lease_reads_saved, 3u);
  EXPECT_EQ(world.client(0).stats().rpc_counts[kNfsGetattr], 0u);

  auto writer = [](NfsClient& c, NfsFh f,
                   const std::vector<uint8_t>& bytes) -> CoTask<Status> {
    Status open_status = co_await c.Open(f);
    if (!open_status.ok()) co_return open_status;
    Status written = co_await c.Write(f, 0, bytes.data(), bytes.size());
    if (!written.ok()) co_return written;
    co_return co_await c.Close(f);
  }(world.client(0), fh, data);
  ASSERT_TRUE(world.Run(writer).ok());
  EXPECT_EQ(world.server().stats().proc_counts[kNfsWrite], 0u);

  auto flush = world.client(0).Flush(fh);
  ASSERT_TRUE(world.Run(flush).ok());
  EXPECT_GE(world.server().stats().proc_counts[kNfsWrite], 1u);
  EXPECT_EQ(ServerBytes(world, "cached.dat"), data);
}

// disk_slow inflates every op by the factor for the window, then restores
// nominal latency, firing trace entries at both edges.
TEST(FaultTest, DiskSlowInflatesAndRestoresLatency) {
  World world(QuietWorld());
  DumpOnFailure dump_on_failure(world);
  DiskModel& disk = world.topology().server->disk();
  const SimTime nominal = disk.OpLatency(8192);

  FaultInjector injector(world.scheduler());
  ScheduleFault(injector, world, "disk_slow at=1s dur=2s mag=4");

  world.scheduler().RunUntil(Milliseconds(1500));
  EXPECT_EQ(disk.slow_factor(), 4.0);
  EXPECT_EQ(disk.OpLatency(8192), nominal * 4);

  world.scheduler().RunUntil(Seconds(4));
  EXPECT_EQ(disk.slow_factor(), 1.0);
  EXPECT_EQ(disk.OpLatency(8192), nominal);

  ASSERT_EQ(injector.trace().size(), 2u);
  EXPECT_NE(injector.trace()[0].find("disk slow begin (x4.0)"), std::string::npos);
  EXPECT_NE(injector.trace()[1].find("disk slow end"), std::string::npos);
}

// The injector's trace is appended at fire time in event order and is
// deterministic for a fixed schedule.
TEST(FaultTest, TraceIsOrderedAndDeterministic) {
  std::vector<std::string> traces[2];
  for (int run = 0; run < 2; ++run) {
    World world(QuietWorld());
    DumpOnFailure dump_on_failure(world);
    FaultInjector injector(world.scheduler());
    ScheduleFault(injector, world, "crash at=1s dur=2s");
    ScheduleFault(injector, world, "link_flap at=4s count=2 dur=1s period=1s");
    world.scheduler().RunUntil(Seconds(10));
    traces[run] = injector.trace();
  }
  ASSERT_EQ(traces[0].size(), 6u);  // crash + restart + 2*(down + up)
  EXPECT_EQ(traces[0], traces[1]);
  EXPECT_NE(traces[0][0].find("server crash"), std::string::npos);
  EXPECT_NE(traces[0][1].find("server restart"), std::string::npos);
  EXPECT_NE(traces[0][2].find("link down"), std::string::npos);
}

// --- Fault-schedule edge cases ---

// One spec of every kind against one quiet World, and the whole fault trace
// line for line. The disk_restore and disk_error_burst specs share an
// instant, as do the loss storm's end and the latency storm's begin: ties
// fire in list order. garbage_datagrams writes no line; the server's
// garbage counter shows it fired.
TEST(FaultTest, EveryKindWritesItsExactTrace) {
  World world(QuietWorld());
  DumpOnFailure dump_on_failure(world);
  LocalFs& fs = world.fs();
  auto ino_or = fs.Create(fs.root(), "victim", 0644);
  ASSERT_TRUE(ino_or.ok()) << ino_or.status();
  const std::vector<uint8_t> payload = LoanPattern(16);
  ASSERT_TRUE(fs.Write(ino_or.value(), 0, payload.data(), payload.size()).ok());

  FaultInjector injector(world.scheduler());
  const char* const kSchedule[] = {
      "crash at=1s dur=2s",
      "link_down at=4s",
      "link_up at=5s",
      "link_flap at=6s count=2 dur=500ms period=250ms",
      "loss_storm at=8s dur=1s mag=0.5",
      "latency_storm at=9s dur=1s extra=100ms",
      "partition at=11s dur=1s inbound=false",
      "corruption_storm at=12s dur=1s flip=0.1 trunc=0 dup=0 reorder=0 rdelay=2ms",
      "disk_full at=14s blocks=3",
      "disk_restore at=15s",
      "disk_error_burst at=15s op=write code=nospace count=2",
      "disk_slow at=16s dur=1s mag=2.5",
      "sabotage at=18s file=victim offset=3",
      "garbage_datagrams at=19s dur=1s count=4",
  };
  SimTime horizon = 0;
  for (const char* line : kSchedule) {
    auto spec_or = FaultSpecFromString(line);
    ASSERT_TRUE(spec_or.ok()) << spec_or.status();
    injector.Schedule(spec_or.value(), WorldFaultTargets(world));
    horizon = std::max(horizon, spec_or.value().Horizon());
  }
  world.scheduler().RunUntil(horizon + Seconds(1));

  const std::vector<std::string> expected = {
      "[1.000s] server crash (server)",
      "[3.000s] server restart (server)",
      "[4.000s] link down (ether0)",
      "[5.000s] link up (ether0)",
      "[6.000s] link down (ether0)",
      "[6.500s] link up (ether0)",
      "[6.750s] link down (ether0)",
      "[7.250s] link up (ether0)",
      "[8.000s] loss storm begin (ether0)",
      "[9.000s] loss storm end (ether0)",
      "[9.000s] latency storm begin (ether0)",
      "[10.000s] latency storm end (ether0)",
      "[11.000s] partition out begin (client <-> host 2)",
      "[12.000s] partition out end (client <-> host 2)",
      "[12.000s] corruption storm begin (ether0)",
      "[13.000s] corruption storm end (ether0)",
      "[14.000s] disk full (budget 3 blocks)",
      "[15.000s] disk restored",
      "[15.000s] disk error burst (write x2 -> NOSPC)",
      "[16.000s] disk slow begin (x2.5)",
      "[17.000s] disk slow end",
      "[18.000s] sabotage (victim byte 3 rotted)",
  };
  EXPECT_EQ(injector.trace(), expected);
  EXPECT_EQ(world.MetricsNow().Value("server.rpc.garbage_requests"), 4u);
  auto bytes_or = fs.Read(ino_or.value(), 0, payload.size());
  ASSERT_TRUE(bytes_or.ok()) << bytes_or.status();
  EXPECT_EQ(bytes_or.value()[3], payload[3] ^ 0xff);
}

// Two storm windows overlapping on the same medium: both begin, both end,
// and the medium is fully restored afterwards — a schedule entry must not
// resurrect or clobber another entry's restore.
TEST(FaultTest, OverlappingStormSchedulesRestoreCleanly) {
  World world(QuietWorld(1, FastRetryMount(/*max_tries=*/3, /*hard=*/true)));
  DumpOnFailure dump_on_failure(world);
  Medium* lan = world.topology().path_media.front();
  FaultInjector injector(world.scheduler());
  ScheduleFault(injector, world, "loss_storm at=0s dur=3s mag=1");
  // Begins inside the loss storm, ends after it.
  ScheduleFault(injector, world, "latency_storm at=1s dur=4s extra=200ms");

  auto task = world.client().Create(world.client().root(), "overlap");
  auto fh_or = world.Run(task);
  ASSERT_TRUE(fh_or.ok()) << fh_or.status();

  world.scheduler().RunUntil(Seconds(6));
  EXPECT_EQ(lan->transient_loss(), 0.0);
  EXPECT_EQ(lan->extra_latency(), 0);
  ASSERT_EQ(injector.trace().size(), 4u);
  EXPECT_NE(injector.trace()[0].find("loss storm begin"), std::string::npos);
  EXPECT_NE(injector.trace()[1].find("latency storm begin"), std::string::npos);
  EXPECT_NE(injector.trace()[2].find("loss storm end"), std::string::npos);
  EXPECT_NE(injector.trace()[3].find("latency storm end"), std::string::npos);
}

// A spec at t=0 fires before the first RPC is even built: the crash must
// land, the trace must record it, and a hard mount's first call must still
// complete after the restart.
TEST(FaultTest, CrashSpecAtTimeZeroFiresBeforeFirstRpc) {
  World world(QuietWorld(1, FastRetryMount(/*max_tries=*/3, /*hard=*/true)));
  DumpOnFailure dump_on_failure(world);
  FaultInjector injector(world.scheduler());
  ScheduleFault(injector, world, "crash at=0s dur=5s");

  auto task = world.client().Create(world.client().root(), "epoch");
  auto fh_or = world.Run(task);

  ASSERT_TRUE(fh_or.ok()) << fh_or.status();
  EXPECT_EQ(world.server().crash_count(), 1u);
  EXPECT_GE(world.client().recovery_stats().not_responding_events, 1u);
  ASSERT_GE(injector.trace().size(), 2u);
  EXPECT_NE(injector.trace()[0].find("server crash"), std::string::npos);
  EXPECT_NE(injector.trace()[1].find("server restart"), std::string::npos);
}

// A second crash landing inside the first reboot's lease grace window: the
// grace clock restarts with the second boot, the client still reclaims its
// pre-crash write lease, and the rewritten bytes survive both outages.
TEST(FaultTest, CrashDuringLeaseGraceStillRecovers) {
  World world(QuietWorld(1, LeaseMount(), LeaseServer(/*max_term=*/Seconds(10))));
  DumpOnFailure dump_on_failure(world);
  const auto first = LoanPattern(8192, 11);
  const auto second = LoanPattern(8192, 22);
  NfsFh fh;
  auto setup =
      WriteFileUnderLease(world.client(0), "grace.dat", first, &fh, /*flush=*/true);
  ASSERT_TRUE(world.Run(setup).ok());
  auto canary = world.client(0).Create(world.client(0).root(), "canary.dat");
  auto canary_or = world.Run(canary);
  ASSERT_TRUE(canary_or.ok());

  const SimTime t0 = world.scheduler().now();
  FaultInjector injector(world.scheduler());
  // First reboot at ~t0+6.1s opens a one-max-term (10s) grace window; the
  // second crash lands squarely inside it.
  ScheduleFault(injector, world, "crash at=100ms dur=6s");
  ScheduleFault(injector, world, "crash at=8s dur=3s");
  world.scheduler().RunUntil(t0 + Seconds(12));
  ASSERT_FALSE(world.server().crashed());
  EXPECT_EQ(world.server().crash_count(), 2u);
  EXPECT_TRUE(world.server().lease_table().InGrace());

  // The canary GETATTR carries the second boot's verifier back and expires
  // the old-epoch leases client-side; the rewrite then reclaims in grace.
  auto probe = world.client(0).Getattr(canary_or.value());
  ASSERT_TRUE(world.Run(probe).ok());
  EXPECT_GE(world.client(0).stats().lease_expirations, 1u);

  auto rewrite = [](NfsClient& c, NfsFh f,
                    const std::vector<uint8_t>& bytes) -> CoTask<Status> {
    Status written = co_await c.Write(f, 0, bytes.data(), bytes.size());
    if (!written.ok()) co_return written;
    co_return co_await c.Flush(f);
  }(world.client(0), fh, second);
  ASSERT_TRUE(world.Run(rewrite).ok());
  EXPECT_EQ(world.client(0).stats().stale_lease_writes, 0u);
  EXPECT_EQ(ServerBytes(world, "grace.dat"), second);
}

// A disk error burst firing inside a disk-slow window: the injected EIO
// fails the push and surfaces on flush, the burst does not disturb the slow
// window's restore, and once both pass the same data commits clean.
TEST(FaultTest, DiskErrorBurstInsideDiskSlowWindow) {
  World world(QuietWorld(1, FastRetryMount(/*max_tries=*/3, /*hard=*/true)));
  DumpOnFailure dump_on_failure(world);
  DiskModel& disk = world.topology().server->disk();
  FaultInjector injector(world.scheduler());
  ScheduleFault(injector, world, "disk_slow at=0s dur=8s mag=4");
  ScheduleFault(injector, world, "disk_error_burst at=500ms op=write code=io count=1");
  world.scheduler().RunUntil(Seconds(1));  // both faults armed

  const auto data = LoanPattern(4096, 6);
  NfsFh fh;
  auto failing = [](NfsClient& c, const std::vector<uint8_t>& bytes,
                    NfsFh* out) -> CoTask<Status> {
    auto fh_or = co_await c.Create(c.root(), "burst.dat");
    if (!fh_or.ok()) co_return fh_or.status();
    *out = fh_or.value();
    Status open_status = co_await c.Open(fh_or.value());
    if (!open_status.ok()) co_return open_status;
    Status written = co_await c.Write(fh_or.value(), 0, bytes.data(), bytes.size());
    if (!written.ok()) co_return written;
    co_return co_await c.Flush(fh_or.value());
  }(world.client(), data, &fh);
  Status status = world.Run(failing);
  EXPECT_FALSE(status.ok());
  EXPECT_EQ(world.fs().fault_stats().injected_errors, 1u);
  EXPECT_EQ(disk.slow_factor(), 4.0);  // the burst did not end the window

  world.scheduler().RunUntil(Seconds(9));
  EXPECT_EQ(disk.slow_factor(), 1.0);
  auto rewrite = [](NfsClient& c, NfsFh f,
                    const std::vector<uint8_t>& bytes) -> CoTask<Status> {
    Status written = co_await c.Write(f, 0, bytes.data(), bytes.size());
    if (!written.ok()) co_return written;
    co_return co_await c.Flush(f);
  }(world.client(), fh, data);
  ASSERT_TRUE(world.Run(rewrite).ok());
  EXPECT_EQ(ServerBytes(world, "burst.dat"), data);
}

// Regression for the gather-window clamp: with the disk queue backlogged far
// into the future, a gather leader must not sleep out the unclamped
// `queue_clears_at() - now` before committing — one round waits at most
// kMaxGatherWindow (server.cc). Observable: the leader bumps gather_batches
// and queues its commit within seconds of the flush (the stat is counted at
// submit, before the disk await), while unclamped code would still be parked
// inside its first window round until the backlog horizon.
TEST(FaultTest, GatherWindowClampedUnderDiskBacklog) {
  World world(QuietWorld(1, FastRetryMount(/*max_tries=*/3, /*hard=*/true)));
  DumpOnFailure dump_on_failure(world);
  DiskModel& disk = world.topology().server->disk();

  auto create = world.client().Create(world.client().root(), "gather.dat");
  auto fh_or = world.Run(create);
  ASSERT_TRUE(fh_or.ok()) << fh_or.status();
  auto open = world.client().Open(fh_or.value());
  ASSERT_TRUE(world.Run(open).ok());

  // A deep FIFO backlog: one huge op on a much-slowed device pushes the
  // queue horizon ~a minute out.
  disk.set_slow_factor(140.0);
  disk.Submit(256 * 1024, [] {});
  const SimTime h0 = disk.queue_clears_at();
  ASSERT_GT(h0 - world.scheduler().now(), Seconds(30));

  // Three dirty blocks flushed concurrently: one WRITE commits direct, the
  // overlap makes the next a gather leader and the rest joiners.
  const auto data = LoanPattern(3 * 8192, 7);
  auto write = world.client().Write(fh_or.value(), 0, data.data(), data.size());
  ASSERT_TRUE(world.Run(write).ok());

  uint64_t batches_at_sample = 0;
  SimTime horizon_at_sample = 0;
  world.scheduler().Schedule(Seconds(5), [&]() {
    batches_at_sample = world.server().stats().gather_batches;
    horizon_at_sample = disk.queue_clears_at();
  });
  auto flush = world.client().Flush(fh_or.value());
  ASSERT_TRUE(world.Run(flush).ok());

  EXPECT_GE(world.server().stats().gathered_writes, 2u);
  // Clamped: the batch had committed to the queue by the 5s sample — at most
  // kGatherMaxRounds * kMaxGatherWindow = 2s of window waiting. Unclamped,
  // the leader would still be asleep and the batch not yet submitted.
  EXPECT_GE(batches_at_sample, 1u);
  EXPECT_GT(horizon_at_sample, h0);

  disk.set_slow_factor(1.0);  // quiesce the teardown drain at nominal speed
}

}  // namespace
}  // namespace renonfs
