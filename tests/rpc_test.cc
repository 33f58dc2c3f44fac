#include <gtest/gtest.h>

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "src/net/network.h"
#include "src/net/udp.h"
#include "src/rpc/client.h"
#include "src/rpc/message.h"
#include "src/rpc/rto.h"
#include "src/rpc/server.h"
#include "src/tcp/tcp.h"

namespace renonfs {
namespace {

TEST(RpcMessageTest, CallHeaderRoundTrip) {
  RpcCallHeader in;
  in.xid = 0xabcd1234;
  in.prog = 100003;
  in.vers = 2;
  in.proc = 4;
  in.cred.stamp = 99;
  in.cred.machine_name = "uvax2";
  in.cred.uid = 101;
  in.cred.gid = 20;
  in.cred.gids = {20, 5, 31};

  MbufChain chain;
  XdrEncoder enc(&chain);
  EncodeCallHeader(enc, in);
  enc.PutUint32(0xfeedf00d);  // args follow the header

  XdrDecoder dec(&chain);
  auto out = DecodeCallHeader(dec);
  ASSERT_TRUE(out.ok()) << out.status();
  EXPECT_EQ(out->xid, in.xid);
  EXPECT_EQ(out->prog, in.prog);
  EXPECT_EQ(out->vers, in.vers);
  EXPECT_EQ(out->proc, in.proc);
  EXPECT_EQ(out->cred.machine_name, "uvax2");
  EXPECT_EQ(out->cred.uid, 101u);
  EXPECT_EQ(out->cred.gids, in.cred.gids);
  EXPECT_EQ(*dec.GetUint32(), 0xfeedf00du);  // args start exactly after header
}

TEST(RpcMessageTest, ReplyHeaderRoundTrip) {
  for (auto stat : {RpcAcceptStat::kSuccess, RpcAcceptStat::kGarbageArgs,
                    RpcAcceptStat::kProcUnavail, RpcAcceptStat::kSystemErr}) {
    MbufChain chain;
    XdrEncoder enc(&chain);
    EncodeReplyHeader(enc, RpcReplyHeader{77, stat});
    XdrDecoder dec(&chain);
    auto out = DecodeReplyHeader(dec);
    ASSERT_TRUE(out.ok());
    EXPECT_EQ(out->xid, 77u);
    EXPECT_EQ(out->stat, stat);
  }
}

TEST(RpcMessageTest, TruncatedCallRejected) {
  MbufChain chain = MbufChain::FromString("abcd");  // 4 bytes: just an xid
  XdrDecoder dec(&chain);
  EXPECT_FALSE(DecodeCallHeader(dec).ok());
}

TEST(RttEstimatorTest, ConvergesToConstantInput) {
  RttEstimator est;
  for (int i = 0; i < 200; ++i) {
    est.AddSample(Milliseconds(40));
  }
  EXPECT_NEAR(ToMilliseconds(est.smoothed_mean()), 40.0, 1.0);
  EXPECT_LT(ToMilliseconds(est.smoothed_deviation()), 2.0);
}

TEST(RttEstimatorTest, DeviationTracksVariance) {
  RttEstimator low_var;
  RttEstimator high_var;
  Rng rng(4);
  for (int i = 0; i < 500; ++i) {
    low_var.AddSample(Milliseconds(40 + static_cast<int64_t>(rng.UniformUint64(4))));
    high_var.AddSample(Milliseconds(20 + static_cast<int64_t>(rng.UniformUint64(120))));
  }
  EXPECT_GT(high_var.smoothed_deviation(), 3 * low_var.smoothed_deviation());
}

TEST(RtoPolicyTest, FixedPolicyIgnoresSamples) {
  RtoPolicyOptions options;
  options.constant_timeout = Seconds(1);
  options.dynamic = false;
  RtoPolicy policy(options);
  for (int i = 0; i < 50; ++i) {
    policy.AddSample(RpcTimerClass::kRead, Milliseconds(20));
  }
  EXPECT_EQ(policy.CurrentRto(RpcTimerClass::kRead), Seconds(1));
}

TEST(RtoPolicyTest, DynamicBigClassUsesAPlus4D) {
  RtoPolicyOptions options;
  options.dynamic = true;
  RtoPolicy policy(options);
  // Alternating 200/600 ms -> A ~400 ms, D ~200 ms (well above the RTO floor).
  for (int i = 0; i < 400; ++i) {
    const SimTime rtt = (i % 2 == 0) ? Milliseconds(200) : Milliseconds(600);
    policy.AddSample(RpcTimerClass::kRead, rtt);
    policy.AddSample(RpcTimerClass::kGetattr, rtt);
  }
  const SimTime big = policy.CurrentRto(RpcTimerClass::kRead);      // A + 4D
  const SimTime small = policy.CurrentRto(RpcTimerClass::kGetattr); // A + 2D
  EXPECT_GT(big, small);
  const double a = ToMilliseconds(policy.estimator(RpcTimerClass::kRead).smoothed_mean());
  const double d = ToMilliseconds(policy.estimator(RpcTimerClass::kRead).smoothed_deviation());
  EXPECT_NEAR(ToMilliseconds(big), a + 4 * d, 5.0);
  EXPECT_NEAR(ToMilliseconds(small), a + 2 * d, 5.0);
}

TEST(RtoPolicyTest, OtherClassAlwaysConstant) {
  RtoPolicyOptions options;
  options.dynamic = true;
  options.constant_timeout = Seconds(2);
  RtoPolicy policy(options);
  policy.AddSample(RpcTimerClass::kOther, Milliseconds(10));  // ignored
  EXPECT_EQ(policy.CurrentRto(RpcTimerClass::kOther), Seconds(2));
}

TEST(RtoPolicyTest, BackoffDoublesAndClamps) {
  RtoPolicyOptions options;
  options.constant_timeout = Seconds(1);
  options.max_rto = Seconds(8);
  RtoPolicy policy(options);
  EXPECT_EQ(policy.BackedOffRto(RpcTimerClass::kRead, 0), Seconds(1));
  EXPECT_EQ(policy.BackedOffRto(RpcTimerClass::kRead, 1), Seconds(2));
  EXPECT_EQ(policy.BackedOffRto(RpcTimerClass::kRead, 2), Seconds(4));
  EXPECT_EQ(policy.BackedOffRto(RpcTimerClass::kRead, 5), Seconds(8));
}

TEST(RpcCongestionWindowTest, DisabledAlwaysAllows) {
  RpcCongestionWindow cwnd({});
  EXPECT_TRUE(cwnd.CanSend(1000));
}

TEST(RpcCongestionWindowTest, GrowsLinearlyWithoutSlowStart) {
  RpcCongestionWindow::Options options;
  options.enabled = true;
  options.slow_start = false;
  RpcCongestionWindow cwnd(options);
  EXPECT_TRUE(cwnd.CanSend(0));
  EXPECT_FALSE(cwnd.CanSend(1));  // starts at one outstanding request
  // At window 1, one reply arrives per round trip and grows the window by 1.
  cwnd.OnReply();
  EXPECT_NEAR(cwnd.window(), 2.0, 0.01);
  // Simulated round trips: floor(window) replies each. Growth must stay
  // roughly +1 per RTT (linear), never doubling.
  double prev = cwnd.window();
  for (int rtt = 0; rtt < 6; ++rtt) {
    const int replies = static_cast<int>(prev);
    for (int i = 0; i < replies; ++i) {
      cwnd.OnReply();
    }
    const double grown = cwnd.window() - prev;
    EXPECT_GE(grown, 0.4) << "rtt " << rtt;
    EXPECT_LE(grown, 1.6) << "rtt " << rtt;
    prev = cwnd.window();
  }
}

TEST(RpcCongestionWindowTest, HalvesOnTimeout) {
  RpcCongestionWindow::Options options;
  options.enabled = true;
  RpcCongestionWindow cwnd(options);
  for (int i = 0; i < 200; ++i) {
    cwnd.OnReply();
  }
  const double before = cwnd.window();
  cwnd.OnTimeout();
  EXPECT_NEAR(cwnd.window(), before / 2, 0.3);
  // Never collapses below one request.
  for (int i = 0; i < 20; ++i) {
    cwnd.OnTimeout();
  }
  EXPECT_GE(cwnd.window(), 1.0);
}

TEST(RpcCongestionWindowTest, SlowStartGrowsExponentially) {
  RpcCongestionWindow::Options options;
  options.enabled = true;
  options.slow_start = true;
  RpcCongestionWindow cwnd(options);
  for (int i = 0; i < 8; ++i) {
    cwnd.OnReply();
  }
  EXPECT_GE(cwnd.window(), 8.0);  // +1 per reply, not per RTT
}

// --- end-to-end client/server fixtures --------------------------------------

constexpr uint32_t kEchoProc = 7;
constexpr uint32_t kSlowProc = 8;
constexpr uint32_t kCountProc = 9;

struct RpcFixture {
  explicit RpcFixture(TopologyKind kind, TopologyOptions topo_options,
                      RpcServerOptions server_options = RpcServerOptions{}) {
    topo = BuildTopology(kind, topo_options);
    udp_client = std::make_unique<UdpStack>(topo.client);
    udp_server = std::make_unique<UdpStack>(topo.server);
    tcp_client = std::make_unique<TcpStack>(topo.client);
    tcp_server = std::make_unique<TcpStack>(topo.server);

    server_options.non_idempotent_procs.insert(kCountProc);
    server = std::make_unique<RpcServer>(topo.server, server_options);
    server->set_dispatcher(
        [this](uint32_t proc, MbufChain args, SockAddr client) -> CoTask<StatusOr<MbufChain>> {
          (void)client;
          ++dispatch_count;
          if (proc == kEchoProc) {
            co_return args;
          }
          if (proc == kSlowProc) {
            co_await topo.scheduler().Delay(Milliseconds(1500));
            co_return args;
          }
          if (proc == kCountProc) {
            ++side_effect_count;
            MbufChain reply;
            XdrEncoder enc(&reply);
            enc.PutUint32(static_cast<uint32_t>(side_effect_count));
            co_return reply;
          }
          co_return ProcUnavailError("bad proc");
        });
    server->BindUdp(udp_server.get(), 2049);
    server->BindTcp(tcp_server.get(), 2049);
  }

  std::unique_ptr<RpcClientTransport> MakeUdpTransport(UdpRpcOptions options) {
    return std::make_unique<UdpRpcTransport>(udp_client.get(), 901,
                                             SockAddr{topo.server->id(), 2049}, options);
  }
  std::unique_ptr<RpcClientTransport> MakeTcpTransport() {
    TcpRpcOptions options;
    options.tcp.mss = 1460;
    return std::make_unique<TcpRpcTransport>(tcp_client.get(), 901,
                                             SockAddr{topo.server->id(), 2049}, options);
  }

  Topology topo;
  std::unique_ptr<UdpStack> udp_client;
  std::unique_ptr<UdpStack> udp_server;
  std::unique_ptr<TcpStack> tcp_client;
  std::unique_ptr<TcpStack> tcp_server;
  std::unique_ptr<RpcServer> server;
  int dispatch_count = 0;
  int side_effect_count = 0;
};

CoTask<void> CallEcho(RpcClientTransport& transport, MbufChain args,
                      std::optional<std::vector<uint8_t>>& out) {
  auto result = co_await transport.Call(kEchoProc, RpcTimerClass::kRead, std::move(args));
  if (result.ok()) {
    out = result.value().ContiguousCopy();
  }
}

std::vector<uint8_t> Pattern(size_t n, uint8_t seed = 3) {
  std::vector<uint8_t> out(n);
  for (size_t i = 0; i < n; ++i) {
    out[i] = static_cast<uint8_t>(seed + i * 17);
  }
  return out;
}

TEST(RpcEndToEndTest, UdpEchoSmall) {
  RpcFixture fix(TopologyKind::kSameLan, TopologyOptions::Quiet());
  auto transport = fix.MakeUdpTransport(UdpRpcOptions::FixedRto());
  const auto data = Pattern(200);
  std::optional<std::vector<uint8_t>> reply;
  auto task = CallEcho(*transport, MbufChain::FromBytes(data.data(), data.size()), reply);
  fix.topo.scheduler().RunUntil(Seconds(30));
  ASSERT_TRUE(reply.has_value());
  EXPECT_EQ(*reply, data);
  EXPECT_EQ(transport->stats().retransmits, 0u);
}

TEST(RpcEndToEndTest, UdpEcho8K) {
  RpcFixture fix(TopologyKind::kSameLan, TopologyOptions::Quiet());
  auto transport = fix.MakeUdpTransport(UdpRpcOptions::FixedRto());
  const auto data = Pattern(8192);
  std::optional<std::vector<uint8_t>> reply;
  auto task = CallEcho(*transport, MbufChain::FromBytes(data.data(), data.size()), reply);
  fix.topo.scheduler().RunUntil(Seconds(30));
  ASSERT_TRUE(reply.has_value());
  EXPECT_EQ(*reply, data);
}

TEST(RpcEndToEndTest, TcpEcho8K) {
  RpcFixture fix(TopologyKind::kSameLan, TopologyOptions::Quiet());
  auto transport = fix.MakeTcpTransport();
  const auto data = Pattern(8192);
  std::optional<std::vector<uint8_t>> reply;
  auto task = CallEcho(*transport, MbufChain::FromBytes(data.data(), data.size()), reply);
  fix.topo.scheduler().RunUntil(Seconds(30));
  ASSERT_TRUE(reply.has_value());
  EXPECT_EQ(*reply, data);
}

TEST(RpcEndToEndTest, UdpRetransmitsOnLossAndStillCompletes) {
  TopologyOptions options = TopologyOptions::Quiet();
  options.ethernet_loss = 0.15;
  options.seed = 9;
  RpcFixture fix(TopologyKind::kSameLan, options);
  auto transport = fix.MakeUdpTransport(UdpRpcOptions::FixedRto(Milliseconds(800)));
  int completed = 0;
  std::vector<CoTask<void>> tasks;
  for (int i = 0; i < 30; ++i) {
    tasks.push_back([](RpcClientTransport& t, Scheduler& sched, int delay_ms,
                       int& done) -> CoTask<void> {
      co_await sched.Delay(Milliseconds(delay_ms));
      MbufChain args;
      XdrEncoder enc(&args);
      enc.PutUint32(static_cast<uint32_t>(delay_ms));
      auto result = co_await t.Call(kEchoProc, RpcTimerClass::kRead, std::move(args));
      if (result.ok()) {
        ++done;
      }
    }(*transport, fix.topo.scheduler(), i * 50, completed));
  }
  fix.topo.scheduler().RunUntil(Seconds(120));
  EXPECT_EQ(completed, 30);
  EXPECT_GT(transport->stats().retransmits, 0u);
}

TEST(RpcEndToEndTest, DuplicateRequestCachePreventsReexecution) {
  // Force duplicates: an RTO shorter than the server's processing time makes
  // the client retransmit while the original request is still executing.
  RpcFixture fix(TopologyKind::kSameLan, TopologyOptions::Quiet());
  UdpRpcOptions options = UdpRpcOptions::FixedRto(Milliseconds(400));
  auto transport = fix.MakeUdpTransport(options);
  std::optional<uint32_t> counter_value;
  auto task = [](RpcClientTransport& t, std::optional<uint32_t>& out) -> CoTask<void> {
    auto result = co_await t.Call(kCountProc, RpcTimerClass::kOther, MbufChain());
    if (result.ok()) {
      XdrDecoder dec(&result.value());
      out = *dec.GetUint32();
    }
  }(*transport, counter_value);
  // kCountProc is not slow, so make the link slow instead: use kSlowProc via
  // a second call to hold an nfsd; simpler: retransmit by sending the call
  // twice through a 1.5 s-slow proc is covered below. Here we just verify a
  // single execution.
  fix.topo.scheduler().RunUntil(Seconds(30));
  ASSERT_TRUE(counter_value.has_value());
  EXPECT_EQ(fix.side_effect_count, 1);
}

TEST(RpcEndToEndTest, InProgressDuplicateDropped) {
  RpcFixture fix(TopologyKind::kSameLan, TopologyOptions::Quiet());
  // RTO 400 ms, server takes 1.5 s: several retransmissions arrive while the
  // first execution is still in progress — they must all be dropped.
  auto transport = fix.MakeUdpTransport(UdpRpcOptions::FixedRto(Milliseconds(400)));
  std::optional<std::vector<uint8_t>> reply;
  const auto data = Pattern(50);
  auto task = [](RpcClientTransport& t, std::vector<uint8_t> payload,
                 std::optional<std::vector<uint8_t>>& out) -> CoTask<void> {
    auto result = co_await t.Call(kSlowProc, RpcTimerClass::kOther,
                                  MbufChain::FromBytes(payload.data(), payload.size()));
    if (result.ok()) {
      out = result.value().ContiguousCopy();
    }
  }(*transport, data, reply);
  fix.topo.scheduler().RunUntil(Seconds(30));
  ASSERT_TRUE(reply.has_value());
  EXPECT_EQ(*reply, data);
  EXPECT_EQ(fix.dispatch_count, 1);
  EXPECT_GT(fix.server->stats().duplicate_in_progress_drops, 0u);
}

TEST(RpcEndToEndTest, NonIdempotentReplayedFromCache) {
  RpcFixture fix(TopologyKind::kSameLan, TopologyOptions::Quiet());
  // Drop the first reply by cutting the server->client direction briefly:
  // easiest deterministic approach is heavy loss with a fixed seed and many
  // calls; assert executions <= calls even when replies were lost.
  TopologyOptions options = TopologyOptions::Quiet();
  options.ethernet_loss = 0.3;
  options.seed = 17;
  RpcFixture lossy(TopologyKind::kSameLan, options);
  auto transport = lossy.MakeUdpTransport(UdpRpcOptions::FixedRto(Milliseconds(500)));
  int completed = 0;
  std::vector<CoTask<void>> tasks;
  for (int i = 0; i < 20; ++i) {
    tasks.push_back([](RpcClientTransport& t, Scheduler& sched, int idx,
                       int& done) -> CoTask<void> {
      co_await sched.Delay(Milliseconds(idx * 200));
      auto result = co_await t.Call(kCountProc, RpcTimerClass::kOther, MbufChain());
      if (result.ok()) {
        ++done;
      }
    }(*transport, lossy.topo.scheduler(), i, completed));
  }
  lossy.topo.scheduler().RunUntil(Seconds(180));
  EXPECT_EQ(completed, 20);
  // At-most-once execution: the counter equals the number of *calls*, not
  // calls + retransmissions.
  EXPECT_EQ(lossy.side_effect_count, 20);
  EXPECT_GT(lossy.server->stats().duplicate_cache_replays +
                lossy.server->stats().duplicate_in_progress_drops,
            0u);
}

// Satellite regression: completed dup-cache entries age out. A client xid is
// a sequence number that wraps (or restarts after a reboot), so the same
// (host, port, xid, proc) key can legitimately belong to a *new* call once
// enough time has passed. Before the max age the entry replays the cached
// reply; after it, the entry is re-primed in place and the call re-executes.
TEST(RpcEndToEndTest, DupCacheEntryAgesOutAndReexecutes) {
  RpcServerOptions server_options;
  server_options.dup_cache_max_age = Seconds(5);
  RpcFixture fix(TopologyKind::kSameLan, TopologyOptions::Quiet(), server_options);
  Scheduler& sched = fix.topo.scheduler();

  int replies_seen = 0;
  fix.udp_client->Bind(905, [&replies_seen](SockAddr, MbufChain) { ++replies_seen; });
  const SockAddr server_addr{fix.topo.server->id(), 2049};
  auto send_count_call = [&](uint32_t xid) {
    MbufChain message;
    XdrEncoder enc(&message);
    RpcCallHeader header;
    header.xid = xid;
    header.prog = kNfsProgram;
    header.vers = kNfsVersion;
    header.proc = kCountProc;
    EncodeCallHeader(enc, header);
    fix.udp_client->SendTo(905, server_addr, std::move(message));
  };

  constexpr uint32_t kReusedXid = 0x00c0ffee;
  sched.Schedule(Milliseconds(10), [&]() { send_count_call(kReusedXid); });
  // 1 s later — a plausible retransmission: replayed from the cache.
  sched.Schedule(Seconds(1), [&]() { send_count_call(kReusedXid); });
  // 10 s after that — past max age: must re-execute, not replay stale state.
  sched.Schedule(Seconds(11), [&]() { send_count_call(kReusedXid); });
  sched.RunUntil(Seconds(20));

  EXPECT_EQ(replies_seen, 3);
  EXPECT_EQ(fix.side_effect_count, 2);  // executed, replayed, aged+re-executed
  EXPECT_EQ(fix.server->stats().duplicate_cache_replays, 1u);
  EXPECT_EQ(fix.server->stats().duplicate_entries_aged, 1u);
}

TEST(RpcEndToEndTest, CongestionWindowLimitsOutstanding) {
  RpcFixture fix(TopologyKind::kSameLan, TopologyOptions::Quiet());
  auto transport_ptr = fix.MakeUdpTransport(UdpRpcOptions::DynamicRto());
  auto* transport = static_cast<UdpRpcTransport*>(transport_ptr.get());
  // Fire 10 calls at once: with an initial window of 1 they must trickle out.
  size_t max_outstanding = 0;
  int completed = 0;
  std::vector<CoTask<void>> tasks;
  for (int i = 0; i < 10; ++i) {
    tasks.push_back([](UdpRpcTransport& t, size_t& peak, int& done) -> CoTask<void> {
      auto result = co_await t.Call(kEchoProc, RpcTimerClass::kRead, MbufChain::FromString("x"));
      peak = std::max(peak, t.outstanding());
      if (result.ok()) {
        ++done;
      }
    }(*transport, max_outstanding, completed));
  }
  fix.topo.scheduler().RunUntil(Seconds(60));
  EXPECT_EQ(completed, 10);
  // Window starts at 1 and grows by ~1 per RTT; with only 10 calls it cannot
  // have reached 8.
  EXPECT_LE(max_outstanding, 4u);
}

TEST(RpcEndToEndTest, SoftTimeoutWhenServerUnreachable) {
  TopologyOptions options = TopologyOptions::Quiet();
  options.ethernet_loss = 1.0;  // nothing gets through
  RpcFixture fix(TopologyKind::kSameLan, options);
  UdpRpcOptions udp_options = UdpRpcOptions::FixedRto(Milliseconds(300));
  udp_options.max_tries = 3;
  auto transport = fix.MakeUdpTransport(udp_options);
  std::optional<Status> final_status;
  auto task = [](RpcClientTransport& t, std::optional<Status>& out) -> CoTask<void> {
    auto result = co_await t.Call(kEchoProc, RpcTimerClass::kRead, MbufChain::FromString("x"));
    out = result.status();
  }(*transport, final_status);
  fix.topo.scheduler().RunUntil(Seconds(60));
  ASSERT_TRUE(final_status.has_value());
  EXPECT_EQ(final_status->code(), ErrorCode::kTimeout);
  EXPECT_EQ(transport->stats().soft_timeouts, 1u);
}

TEST(RpcEndToEndTest, DynamicRtoRetransmitsFasterThanFixedAfterLearning) {
  // After learning a ~20 ms LAN RTT, the dynamic policy's RTO is far below
  // the 1 s constant; a lost datagram is retried much sooner.
  TopologyOptions options = TopologyOptions::Quiet();
  RpcFixture fix(TopologyKind::kSameLan, options);
  auto transport_ptr = fix.MakeUdpTransport(UdpRpcOptions::DynamicRto());
  auto* transport = static_cast<UdpRpcTransport*>(transport_ptr.get());
  int completed = 0;
  std::vector<CoTask<void>> tasks;
  for (int i = 0; i < 50; ++i) {
    tasks.push_back([](UdpRpcTransport& t, Scheduler& sched, int idx, int& done) -> CoTask<void> {
      co_await sched.Delay(Milliseconds(idx * 100));
      auto result = co_await t.Call(kEchoProc, RpcTimerClass::kLookup, MbufChain::FromString("y"));
      if (result.ok()) {
        ++done;
      }
    }(*transport, fix.topo.scheduler(), i, completed));
  }
  fix.topo.scheduler().RunUntil(Seconds(60));
  EXPECT_EQ(completed, 50);
  const auto& est = transport->rto_policy().estimator(RpcTimerClass::kLookup);
  ASSERT_TRUE(est.valid());
  // RTO should have collapsed well below the 1 s constant.
  EXPECT_LT(transport->rto_policy().CurrentRto(RpcTimerClass::kLookup), Milliseconds(500));
}

TEST(RpcEndToEndTest, TcpManyCallsOverOneConnection) {
  RpcFixture fix(TopologyKind::kSameLan, TopologyOptions::Quiet());
  auto transport = fix.MakeTcpTransport();
  int completed = 0;
  std::vector<CoTask<void>> tasks;
  for (int i = 0; i < 40; ++i) {
    tasks.push_back([](RpcClientTransport& t, Scheduler& sched, int idx, int& done) -> CoTask<void> {
      co_await sched.Delay(Milliseconds(idx * 20));
      MbufChain args;
      XdrEncoder enc(&args);
      enc.PutUint32(static_cast<uint32_t>(idx));
      auto result = co_await t.Call(kEchoProc, RpcTimerClass::kLookup, std::move(args));
      if (result.ok()) {
        XdrDecoder dec(&result.value());
        if (*dec.GetUint32() == static_cast<uint32_t>(idx)) {
          ++done;
        }
      }
    }(*transport, fix.topo.scheduler(), i, completed));
  }
  fix.topo.scheduler().RunUntil(Seconds(60));
  EXPECT_EQ(completed, 40);
  EXPECT_EQ(transport->stats().retransmits, 0u);  // TCP handles reliability
}

}  // namespace
}  // namespace renonfs
