// Runtime invariant auditor: cluster-ledger accounting, the end-of-World
// quiesce audit, and the violations it reports — including a regression that
// leaks one cluster on purpose and asserts the auditor names the owning
// layer (src/sim/audit.h).
#include <gtest/gtest.h>

#include <memory>
#include <set>
#include <string>
#include <vector>

#include "src/mbuf/mbuf.h"
#include "src/sim/audit.h"
#include "src/sim/disk.h"
#include "src/sim/scheduler.h"
#include "src/vfs/buf_cache.h"
#include "tests/nfs_test_util.h"

namespace renonfs {
namespace {

TEST(ClusterLedgerTest, TracksAllocFreeAndLiveAcrossCacheLifetime) {
  ClusterLedger& ledger = ClusterLedger::Instance();
  const uint64_t live_before = ledger.live();
  const uint64_t allocs_before = ledger.allocs();
  {
    BufCache cache;
    auto created = cache.Create(1, 0);
    ASSERT_TRUE(created.ok());
    const uint8_t bytes[16] = {};
    created.value()->CopyIn(0, bytes, sizeof(bytes));
    EXPECT_GT(ledger.live(), live_before);
    EXPECT_GT(ledger.allocs(), allocs_before);
    EXPECT_EQ(ledger.LiveOwnedBy(&cache), ledger.live() - live_before);
  }
  // Cache destroyed: its clusters must all be freed, and the cumulative
  // counters must agree with the live set.
  EXPECT_EQ(ledger.live(), live_before);
  EXPECT_EQ(ledger.allocs() - ledger.frees(), ledger.live());
}

// Each entry lives in its cluster's intrusive links: dropping a cluster
// from the head, the middle or the tail of the live list must leave the
// others listed with their owners and layers.
TEST(ClusterLedgerTest, FreesAnywhereInTheLiveListKeepTheRestListed) {
  ClusterLedger& ledger = ClusterLedger::Instance();
  const uint64_t live_before = ledger.live();
  int owner = 0;
  std::vector<std::shared_ptr<Cluster>> clusters;
  for (int i = 0; i < 5; ++i) {
    clusters.push_back(NewCluster(&owner, "ledger-test"));
  }
  auto listed = [&] {
    std::set<const Cluster*> out;
    ledger.ForEachLive([&](const Cluster* cluster, const ClusterLedger::Entry& entry) {
      if (entry.owner == &owner) {
        EXPECT_STREQ(entry.layer, "ledger-test");
        out.insert(cluster);
      }
    });
    return out;
  };
  EXPECT_EQ(ledger.LiveOwnedBy(&owner), 5u);
  clusters[4].reset();  // the newest: the head of the list
  clusters[2].reset();  // the middle
  clusters[0].reset();  // the oldest: the tail
  EXPECT_EQ(ledger.LiveOwnedBy(&owner), 2u);
  EXPECT_EQ(listed(), (std::set<const Cluster*>{clusters[1].get(), clusters[3].get()}));
  EXPECT_EQ(ledger.live(), live_before + 2);
  clusters.clear();
  EXPECT_EQ(ledger.LiveOwnedBy(&owner), 0u);
  EXPECT_EQ(ledger.live(), live_before);
  EXPECT_EQ(ledger.allocs() - ledger.frees(), ledger.live());
}

TEST(ClusterLedgerDeathTest, DoubleRegistrationAndUnregisteredFreeDie) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  ClusterLedger& ledger = ClusterLedger::Instance();
  std::shared_ptr<Cluster> cluster = NewCluster();
  EXPECT_DEATH(ledger.OnAlloc(cluster.get(), nullptr, "mbuf-chain"),
               "double registration of one cluster");
  EXPECT_DEATH(
      {
        ledger.OnFree(cluster.get());
        ledger.OnFree(cluster.get());
      },
      "free of unregistered cluster");
}

TEST(InvariantAuditorTest, CleanInstallationQuiesces) {
  World world(QuietWorld());
  auto task = [](World& w) -> CoTask<Status> {
    NfsClient& c = w.client();
    auto fh_or = co_await c.Create(c.root(), "audited");
    if (!fh_or.ok()) {
      co_return fh_or.status();
    }
    const NfsFh fh = fh_or.value();
    co_await c.Open(fh);
    uint8_t data[4096];
    for (size_t i = 0; i < sizeof(data); ++i) {
      data[i] = static_cast<uint8_t>(i);
    }
    Status status = co_await c.Write(fh, 0, data, sizeof(data));
    if (!status.ok()) {
      co_return status;
    }
    uint8_t back[4096];
    auto n_or = co_await c.Read(fh, 0, sizeof(back), back);
    if (!n_or.ok()) {
      co_return n_or.status();
    }
    co_return co_await c.Close(fh);
  }(world);
  ASSERT_TRUE(world.Run(task).ok());

  QuiesceReport report = world.auditor().DrainAndAudit(world.scheduler());
  EXPECT_TRUE(report.ok()) << report.Summary();
  EXPECT_EQ(report.Summary(), "quiesce audit: clean");
}

TEST(InvariantAuditorTest, LeakedLoanNamesTheOwningLayer) {
  Scheduler scheduler;
  BufCache cache;
  InvariantAuditor auditor;
  InvariantAuditor::CacheHooks hooks;
  hooks.name = "leaky";
  hooks.owner = &cache;
  hooks.loaned_count = [&cache] { return cache.loaned_count(); };
  hooks.collect = [&cache](std::unordered_set<const Cluster*>& out) {
    cache.CollectClusterIds(out);
  };
  auditor.RegisterCache(std::move(hooks));

  auto created = cache.Create(7, 3);
  ASSERT_TRUE(created.ok());
  const uint8_t bytes[512] = {};
  created.value()->CopyIn(0, bytes, sizeof(bytes));

  // Loan the page into a reply chain that (deliberately) never dies.
  MbufChain leaked_reply;
  ASSERT_GT(created.value()->ShareInto(&leaked_reply, 0, sizeof(bytes)), 0u);
  {
    QuiesceReport report = auditor.Audit(scheduler);
    ASSERT_FALSE(report.ok());
    EXPECT_NE(report.Summary().find("bufcache(leaky)"), std::string::npos)
        << report.Summary();
    EXPECT_NE(report.Summary().find("loaned"), std::string::npos) << report.Summary();
  }

  // Now drop the buffer while the chain still holds the cluster: the leak
  // shows up as a cache-owned cluster that outlived its cache entry, still
  // attributed to the owning layer by name.
  cache.Remove(7, 3);
  {
    QuiesceReport report = auditor.Audit(scheduler);
    ASSERT_FALSE(report.ok());
    EXPECT_NE(report.Summary().find("bufcache(leaky)"), std::string::npos)
        << report.Summary();
    EXPECT_NE(report.Summary().find("outlived"), std::string::npos) << report.Summary();
  }

  // Releasing the chain returns the installation to quiescence.
  leaked_reply = MbufChain();
  EXPECT_TRUE(auditor.Audit(scheduler).ok());
}

TEST(InvariantAuditorTest, PendingDiskQueueIsAViolationUntilDrained) {
  Scheduler scheduler;
  DiskModel disk(scheduler);
  InvariantAuditor auditor;
  auditor.RegisterDisk("server", &disk);

  bool done = false;
  disk.Submit(8192, [&done] { done = true; });
  QuiesceReport report = auditor.Audit(scheduler);
  ASSERT_FALSE(report.ok());
  EXPECT_NE(report.Summary().find("disk(server)"), std::string::npos)
      << report.Summary();

  QuiesceReport drained = auditor.DrainAndAudit(scheduler);
  EXPECT_TRUE(drained.ok()) << drained.Summary();
  EXPECT_TRUE(done);
}

}  // namespace
}  // namespace renonfs
