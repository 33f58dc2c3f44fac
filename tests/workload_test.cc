#include <gtest/gtest.h>

#include "src/workload/andrew.h"
#include "src/workload/create_delete.h"
#include "src/workload/nhfsstone.h"
#include "src/workload/world.h"
#include "tests/nfs_test_util.h"

namespace renonfs {
namespace {

std::unique_ptr<RpcClientTransport> MakeRawTransport(World& world) {
  UdpRpcOptions options = UdpRpcOptions::DynamicRto();
  return std::make_unique<UdpRpcTransport>(world.client_udp(0), 950,
                                           SockAddr{world.server_node()->id(), kNfsPort},
                                           options);
}

TEST(NhfsstoneTest, PureLookupAchievesModestLoad) {
  World world(QuietWorld());
  auto transport = MakeRawTransport(world);
  RawNfsCaller caller(transport.get());
  NhfsstoneOptions options;
  options.target_ops_per_sec = 10;
  options.mix = NhfsstoneMix::PureLookup();
  options.duration = Seconds(30);
  Nhfsstone bench(world, caller, options);
  bench.PreloadTree();
  NhfsstoneResult result = bench.Run();

  // At 10 ops/s a MicroVAXII server is far from saturation: the achieved
  // rate must track the offered rate and RTTs must be tens of ms at most.
  EXPECT_NEAR(result.achieved_ops_per_sec, 10.0, 2.5);
  EXPECT_GT(result.rtt_ms.count(), 200u);
  EXPECT_LT(result.rtt_ms.mean(), 60.0);
  EXPECT_GT(result.rtt_ms.mean(), 1.0);
  EXPECT_LT(result.server_cpu_utilization, 0.5);
  EXPECT_EQ(result.soft_timeouts, 0u);
}

TEST(NhfsstoneTest, ReadMixMovesRealData) {
  World world(QuietWorld());
  auto transport = MakeRawTransport(world);
  RawNfsCaller caller(transport.get());
  NhfsstoneOptions options;
  options.target_ops_per_sec = 8;
  options.mix = NhfsstoneMix::ReadLookup();
  options.duration = Seconds(30);
  Nhfsstone bench(world, caller, options);
  bench.PreloadTree();
  NhfsstoneResult result = bench.Run();
  EXPECT_GT(result.read_ops_per_sec, 1.0);
  // 8 KB reads cost the server real CPU: reads are much slower than lookups.
  EXPECT_GT(result.read_rtt_ms.mean(), result.lookup_rtt_ms.mean());
}

TEST(NhfsstoneTest, OverloadSaturatesAndRttClimbs) {
  World world(QuietWorld());
  auto low_transport = MakeRawTransport(world);
  RawNfsCaller low_caller(low_transport.get());
  NhfsstoneOptions options;
  options.target_ops_per_sec = 5;
  options.mix = NhfsstoneMix::PureLookup();
  options.duration = Seconds(20);
  Nhfsstone low_bench(world, low_caller, options);
  low_bench.PreloadTree();
  NhfsstoneResult low = low_bench.Run();

  options.target_ops_per_sec = 400;  // far beyond a ~0.9 MIPS server
  options.children = 16;
  options.seed = 2;
  Nhfsstone high_bench(world, low_caller, options);
  high_bench.PreloadTree();
  NhfsstoneResult high = high_bench.Run();

  EXPECT_LT(high.achieved_ops_per_sec, 320.0);  // cannot keep up
  EXPECT_GT(high.rtt_ms.mean(), 3 * low.rtt_ms.mean());
  EXPECT_GT(high.server_cpu_utilization, 0.85);
}

TEST(AndrewTest, RunsAllPhasesAndCountsRpcs) {
  World world(QuietWorld());
  AndrewOptions options;
  options.source_files = 30;  // trimmed tree for test speed
  options.directories = 5;
  AndrewBenchmark bench(world, options);
  bench.PreloadSource();
  AndrewResult result = bench.Run();

  for (double seconds : result.phase_seconds) {
    EXPECT_GT(seconds, 0.0);
  }
  // Compile dominates (the paper's phase V is ~8x phases I-IV).
  EXPECT_GT(result.phase_5_seconds, result.phases_1_to_4_seconds);
  EXPECT_GT(result.Rpcs(kNfsLookup), 0u);
  EXPECT_GT(result.Rpcs(kNfsRead), 0u);
  EXPECT_GT(result.Rpcs(kNfsWrite), 0u);
  EXPECT_GT(result.Rpcs(kNfsGetattr), 0u);
  EXPECT_GT(result.Rpcs(kNfsReaddir), 0u);
  // copies + objects + compiler temporaries + a.out
  EXPECT_EQ(result.Rpcs(kNfsCreate), 30u + 30u + 30u + 1u);
}

TEST(AndrewTest, UltrixIssuesMoreLookupsThanReno) {
  auto lookups_for = [](NfsMountOptions mount) {
    World world(QuietWorld(1, mount));
    AndrewOptions options;
    options.source_files = 30;
    options.directories = 5;
    AndrewBenchmark bench(world, options);
    bench.PreloadSource();
    return bench.Run();
  };
  const AndrewResult reno = lookups_for(NfsMountOptions::Reno());
  const AndrewResult ultrix = lookups_for(NfsMountOptions::UltrixLike());
  // The VFS name cache halves lookup RPCs (Table #3's headline difference).
  EXPECT_GT(ultrix.Rpcs(kNfsLookup), reno.Rpcs(kNfsLookup) * 3 / 2);
  // Reno's push-before-read re-reads its own writes: more read RPCs.
  EXPECT_GT(reno.Rpcs(kNfsRead), ultrix.Rpcs(kNfsRead));
}

TEST(AndrewTest, NoConsistCutsWrites) {
  // Full-size tree: with a trimmed tree the write difference (dominated by
  // discarded compiler temporaries) is within noise.
  auto run_with = [](NfsMountOptions mount) {
    World world(QuietWorld(1, mount));
    AndrewBenchmark bench(world, AndrewOptions{});
    bench.PreloadSource();
    return bench.Run();
  };
  const AndrewResult reno = run_with(NfsMountOptions::Reno());
  const AndrewResult noconsist = run_with(NfsMountOptions::RenoNoConsist());
  // Without push-on-close, delayed writes coalesce: fewer write RPCs.
  EXPECT_LT(noconsist.Rpcs(kNfsWrite), reno.Rpcs(kNfsWrite));
  // And reads stop re-fetching the client's own writes.
  EXPECT_LT(noconsist.Rpcs(kNfsRead), reno.Rpcs(kNfsRead));
}

TEST(CreateDeleteTest, NoConsistMuchFasterForLargeFiles) {
  CreateDeleteOptions options;
  options.iterations = 10;
  options.file_bytes = 100 * 1024;

  World consist(QuietWorld(1, NfsMountOptions::Reno()));
  const CreateDeleteResult with_consistency = RunCreateDeleteNfs(consist, options);

  World noconsist(QuietWorld(1, NfsMountOptions::RenoNoConsist()));
  const CreateDeleteResult without = RunCreateDeleteNfs(noconsist, options);

  // Table #5: ~2.2 s vs ~0.33 s per iteration at 100 KB.
  EXPECT_GT(with_consistency.ms_per_iteration, 3 * without.ms_per_iteration);
  EXPECT_GT(with_consistency.write_rpcs, 0u);
  EXPECT_EQ(without.write_rpcs, 0u);  // deleted before any push
}

TEST(CreateDeleteTest, WritePolicyMattersOnlyForData) {
  CreateDeleteOptions options;
  options.iterations = 10;
  options.file_bytes = 0;

  NfsMountOptions write_through = NfsMountOptions::Reno();
  write_through.biods = 0;
  World wt(QuietWorld(1, write_through));
  const double wt_empty = RunCreateDeleteNfs(wt, options).ms_per_iteration;

  World dl(QuietWorld(1, NfsMountOptions::Reno()));
  const double dl_empty = RunCreateDeleteNfs(dl, options).ms_per_iteration;

  // With no data there is nothing to push: policies are within noise.
  EXPECT_NEAR(wt_empty, dl_empty, 0.35 * std::max(wt_empty, dl_empty));
}

TEST(CreateDeleteTest, LocalBaselineFasterThanNfs) {
  CreateDeleteOptions options;
  options.iterations = 10;
  options.file_bytes = 10 * 1024;

  World world(QuietWorld());
  const CreateDeleteResult local = RunCreateDeleteLocal(world, options);
  World nfs_world(QuietWorld());
  const CreateDeleteResult nfs = RunCreateDeleteNfs(nfs_world, options);
  EXPECT_LT(local.ms_per_iteration, nfs.ms_per_iteration);
  EXPECT_GT(local.ms_per_iteration, 50.0);  // disk-bound, not free
}

}  // namespace
}  // namespace renonfs
