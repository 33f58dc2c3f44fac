#include <gtest/gtest.h>

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "src/net/network.h"
#include "src/tcp/tcp.h"

namespace renonfs {
namespace {

std::vector<uint8_t> Pattern(size_t n, uint8_t seed = 1) {
  std::vector<uint8_t> out(n);
  for (size_t i = 0; i < n; ++i) {
    out[i] = static_cast<uint8_t>(seed + i * 31);
  }
  return out;
}

// A client/server pair over a configurable topology.
struct TcpFixture {
  explicit TcpFixture(TopologyKind kind = TopologyKind::kSameLan, TopologyOptions options = {}) {
    topo = BuildTopology(kind, options);
    TcpConfig config;
    config.mss = 1460;
    if (kind != TopologyKind::kSameLan) {
      config.mss = 966;  // below the 1006-byte serial MTU and the ring MTU
    }
    client_stack = std::make_unique<TcpStack>(topo.client, config);
    server_stack = std::make_unique<TcpStack>(topo.server, config);
  }

  // Starts a server that accumulates bytes into server_received.
  void ListenAndCollect(uint16_t port) {
    server_stack->Listen(port, [this](TcpConnection* connection) {
      server_conn = connection;
      connection->set_data_handler([this](MbufChain data) {
        auto bytes = data.ContiguousCopy();
        server_received.insert(server_received.end(), bytes.begin(), bytes.end());
      });
    });
  }

  TcpConnection* ConnectClient(uint16_t port) {
    client_conn = client_stack->Connect(
        10001, SockAddr{topo.server->id(), port}, [this]() { connected = true; });
    client_conn->set_data_handler([this](MbufChain data) {
      auto bytes = data.ContiguousCopy();
      client_received.insert(client_received.end(), bytes.begin(), bytes.end());
    });
    return client_conn;
  }

  Topology topo;
  std::unique_ptr<TcpStack> client_stack;
  std::unique_ptr<TcpStack> server_stack;
  TcpConnection* client_conn = nullptr;
  TcpConnection* server_conn = nullptr;
  bool connected = false;
  std::vector<uint8_t> server_received;
  std::vector<uint8_t> client_received;
};

// The ephemeral allocator hands out ports from [49152, 65535], skipping any
// port a listener or an existing connection on the node already holds, and
// advances deterministically (reconnecting transports depend on both).
TEST(TcpTest, EphemeralPortAllocatorSkipsBoundPorts) {
  TcpFixture fix(TopologyKind::kSameLan, TopologyOptions::Quiet());
  fix.ListenAndCollect(2049);
  fix.client_stack->Listen(49152, [](TcpConnection*) {});
  fix.client_stack->Connect(49153, SockAddr{fix.topo.server->id(), 2049}, []() {});

  EXPECT_EQ(fix.client_stack->AllocateEphemeralPort(), 49154);
  EXPECT_EQ(fix.client_stack->AllocateEphemeralPort(), 49155);
  // The server stack has its own counter and no ephemeral binds at all.
  EXPECT_EQ(fix.server_stack->AllocateEphemeralPort(), 49152);
}

TEST(TcpTest, HandshakeEstablishesBothEnds) {
  TcpFixture fix(TopologyKind::kSameLan, TopologyOptions::Quiet());
  fix.ListenAndCollect(2049);
  fix.ConnectClient(2049);
  fix.topo.scheduler().Run();
  EXPECT_TRUE(fix.connected);
  ASSERT_NE(fix.client_conn, nullptr);
  EXPECT_TRUE(fix.client_conn->established());
  ASSERT_NE(fix.server_conn, nullptr);
  EXPECT_TRUE(fix.server_conn->established());
}

TEST(TcpTest, SmallTransferExactBytes) {
  TcpFixture fix(TopologyKind::kSameLan, TopologyOptions::Quiet());
  fix.ListenAndCollect(2049);
  TcpConnection* conn = fix.ConnectClient(2049);
  const auto data = Pattern(500);
  conn->Send(MbufChain::FromBytes(data.data(), data.size()));
  fix.topo.scheduler().Run();
  EXPECT_EQ(fix.server_received, data);
}

TEST(TcpTest, BulkTransferSegmentsAndDelivers) {
  TcpFixture fix(TopologyKind::kSameLan, TopologyOptions::Quiet());
  fix.ListenAndCollect(2049);
  TcpConnection* conn = fix.ConnectClient(2049);
  const auto data = Pattern(100 * 1024);
  conn->Send(MbufChain::FromBytes(data.data(), data.size()));
  fix.topo.scheduler().Run();
  EXPECT_EQ(fix.server_received.size(), data.size());
  EXPECT_EQ(fix.server_received, data);
  EXPECT_GE(conn->stats().segments_sent, 100u * 1024 / 1460);
  EXPECT_EQ(conn->stats().retransmits, 0u);
}

TEST(TcpTest, BidirectionalTransfer) {
  TcpFixture fix(TopologyKind::kSameLan, TopologyOptions::Quiet());
  fix.ListenAndCollect(2049);
  TcpConnection* conn = fix.ConnectClient(2049);
  const auto to_server = Pattern(5000, 1);
  const auto to_client = Pattern(7000, 2);
  conn->Send(MbufChain::FromBytes(to_server.data(), to_server.size()));
  fix.topo.scheduler().Schedule(Milliseconds(50), [&]() {
    fix.server_conn->Send(MbufChain::FromBytes(to_client.data(), to_client.size()));
  });
  fix.topo.scheduler().Run();
  EXPECT_EQ(fix.server_received, to_server);
  EXPECT_EQ(fix.client_received, to_client);
}

TEST(TcpTest, RecoversFromHeavyLoss) {
  TopologyOptions options = TopologyOptions::Quiet();
  options.ethernet_loss = 0.05;  // 5% frame loss
  options.seed = 11;
  TcpFixture fix(TopologyKind::kSameLan, options);
  fix.ListenAndCollect(2049);
  TcpConnection* conn = fix.ConnectClient(2049);
  const auto data = Pattern(200 * 1024);
  conn->Send(MbufChain::FromBytes(data.data(), data.size()));
  fix.topo.scheduler().RunUntil(Seconds(600));
  ASSERT_EQ(fix.server_received.size(), data.size());
  EXPECT_EQ(fix.server_received, data);
  EXPECT_GT(conn->stats().retransmits, 0u);
}

TEST(TcpTest, MssAvoidsIpFragmentation) {
  TcpFixture fix(TopologyKind::kTokenRingPath, TopologyOptions::Quiet());
  fix.ListenAndCollect(2049);
  TcpConnection* conn = fix.ConnectClient(2049);
  const auto data = Pattern(64 * 1024);
  conn->Send(MbufChain::FromBytes(data.data(), data.size()));
  fix.topo.scheduler().Run();
  EXPECT_EQ(fix.server_received, data);
  // Every datagram fit the path MTU: the server never reassembled fragments.
  EXPECT_EQ(fix.topo.server->stats().reassembly_timeouts, 0u);
  EXPECT_EQ(fix.topo.server->stats().datagrams_delivered,
            fix.topo.server->stats().frames_received);
}

TEST(TcpTest, RttEstimateTracksPathDelay) {
  TcpFixture fix(TopologyKind::kSlowLinkPath, TopologyOptions::Quiet());
  fix.ListenAndCollect(2049);
  TcpConnection* conn = fix.ConnectClient(2049);
  const auto data = Pattern(20 * 1024);
  conn->Send(MbufChain::FromBytes(data.data(), data.size()));
  fix.topo.scheduler().RunUntil(Seconds(120));
  EXPECT_EQ(fix.server_received.size(), data.size());
  // A full segment over 56 Kbps takes ~140 ms serialization alone.
  EXPECT_GT(conn->srtt(), Milliseconds(100));
  EXPECT_GE(conn->rto(), conn->srtt());
}

TEST(TcpTest, CongestionWindowGrowsFromOneMss) {
  TcpFixture fix(TopologyKind::kSameLan, TopologyOptions::Quiet());
  fix.ListenAndCollect(2049);
  TcpConnection* conn = fix.ConnectClient(2049);
  EXPECT_EQ(conn->cwnd(), 1460u);
  const auto data = Pattern(50 * 1024);
  conn->Send(MbufChain::FromBytes(data.data(), data.size()));
  fix.topo.scheduler().Run();
  EXPECT_GT(conn->cwnd(), 4 * 1460u);  // slow start opened the window
}

TEST(TcpTest, FastRetransmitOnIsolatedLoss) {
  TopologyOptions options = TopologyOptions::Quiet();
  options.ethernet_loss = 0.01;
  options.seed = 5;
  TcpFixture fix(TopologyKind::kSameLan, options);
  fix.ListenAndCollect(2049);
  TcpConnection* conn = fix.ConnectClient(2049);
  const auto data = Pattern(300 * 1024);
  conn->Send(MbufChain::FromBytes(data.data(), data.size()));
  fix.topo.scheduler().RunUntil(Seconds(600));
  EXPECT_EQ(fix.server_received, data);
  EXPECT_GT(conn->stats().fast_retransmits, 0u);
}

// BSD's fixed timers, pinned by when segments leave: the receiver holds the
// ACK of a lone segment for 200 ms, acknowledges every second segment at
// once, and an unanswered SYN goes out again after the 3 s initial RTO.
TEST(TcpTest, DelayedAckAndInitialRtoArePinned) {
  TcpFixture fix(TopologyKind::kSameLan, TopologyOptions::Quiet());
  Scheduler& sched = fix.topo.scheduler();
  std::vector<SimTime> arrivals;          // each data segment reaching the server's TCP
  std::vector<uint64_t> sent_at_arrival;  // server segments sent by then, ACKs included
  fix.server_stack->Listen(2049, [&](TcpConnection* connection) {
    fix.server_conn = connection;
    connection->set_data_handler([&](MbufChain) {
      arrivals.push_back(sched.now());
      sent_at_arrival.push_back(fix.server_conn->stats().segments_sent);
    });
  });
  TcpConnection* conn = fix.ConnectClient(2049);
  sched.Run();
  ASSERT_TRUE(fix.connected);
  const uint64_t sent = fix.server_conn->stats().segments_sent;

  const auto lone = Pattern(100);
  conn->Send(MbufChain::FromBytes(lone.data(), lone.size()));
  sched.RunFor(Milliseconds(100));
  ASSERT_EQ(arrivals.size(), 1u);
  EXPECT_EQ(sent_at_arrival[0], sent);
  sched.RunUntil(arrivals[0] + Milliseconds(200) - 1);
  EXPECT_EQ(fix.server_conn->stats().segments_sent, sent);
  sched.RunUntil(arrivals[0] + Milliseconds(200));
  EXPECT_EQ(fix.server_conn->stats().segments_sent, sent + 1);
  sched.Run();

  // That ACK opened the window to two segments, so these go back to back.
  ASSERT_EQ(conn->cwnd(), 2 * 1460u);
  const auto pair = Pattern(2 * 1460);
  conn->Send(MbufChain::FromBytes(pair.data(), pair.size()));
  sched.Run();
  ASSERT_EQ(arrivals.size(), 3u);
  EXPECT_EQ(sent_at_arrival[1], sent + 1);
  EXPECT_EQ(sent_at_arrival[2], sent + 2);
  EXPECT_EQ(fix.server_conn->stats().segments_sent, sent + 2);

  // Nothing listens on port 7, so the SYN goes unanswered.
  TcpConnection* unanswered =
      fix.client_stack->Connect(10002, SockAddr{fix.topo.server->id(), 7}, []() {});
  const SimTime syn_at = sched.now();
  sched.RunUntil(syn_at + Seconds(3) - 1);
  EXPECT_EQ(unanswered->stats().segments_sent, 1u);
  sched.RunUntil(syn_at + Seconds(3));
  EXPECT_EQ(unanswered->stats().segments_sent, 2u);
  EXPECT_EQ(unanswered->stats().retransmits, 1u);
}

TEST(TcpTest, InterleavedSendsPreserveOrder) {
  TcpFixture fix(TopologyKind::kSameLan, TopologyOptions::Quiet());
  fix.ListenAndCollect(2049);
  TcpConnection* conn = fix.ConnectClient(2049);
  std::vector<uint8_t> expected;
  for (int i = 0; i < 50; ++i) {
    const auto chunk = Pattern(97 + i * 13, static_cast<uint8_t>(i));
    expected.insert(expected.end(), chunk.begin(), chunk.end());
    fix.topo.scheduler().Schedule(Milliseconds(i * 7), [conn, chunk]() {
      conn->Send(MbufChain::FromBytes(chunk.data(), chunk.size()));
    });
  }
  fix.topo.scheduler().Run();
  EXPECT_EQ(fix.server_received, expected);
}

// Loss sweep property: whatever the loss rate, TCP delivers the exact byte
// stream (eventually) — reliability is not statistical.
class TcpLossSweep : public ::testing::TestWithParam<int> {};

TEST_P(TcpLossSweep, ExactDeliveryUnderLoss) {
  TopologyOptions options = TopologyOptions::Quiet();
  options.ethernet_loss = GetParam() / 100.0;
  options.seed = 100 + GetParam();
  TcpFixture fix(TopologyKind::kSameLan, options);
  fix.ListenAndCollect(2049);
  TcpConnection* conn = fix.ConnectClient(2049);
  const auto data = Pattern(40 * 1024, static_cast<uint8_t>(GetParam()));
  conn->Send(MbufChain::FromBytes(data.data(), data.size()));
  fix.topo.scheduler().RunUntil(Seconds(3600));
  EXPECT_EQ(fix.server_received, data) << "loss=" << GetParam() << "%";
}

INSTANTIATE_TEST_SUITE_P(LossRates, TcpLossSweep, ::testing::Values(0, 1, 2, 5, 10, 15));

// --- ephemeral port allocator ----------------------------------------------

TEST(TcpEphemeralPortTest, RoundRobinSkipsListenersAndWrapsAround) {
  TcpFixture fix;
  TcpStack& stack = *fix.client_stack;
  const uint16_t reserved = static_cast<uint16_t>(TcpStack::kEphemeralFirst + 1);
  stack.Listen(reserved, [](TcpConnection*) {});

  // One full trip around the range: every port except the listener comes out
  // exactly once, in order, starting at kEphemeralFirst.
  uint16_t expected = static_cast<uint16_t>(TcpStack::kEphemeralFirst);
  for (uint32_t i = 0; i < TcpStack::kEphemeralCount - 1; ++i) {
    if (expected == reserved) {
      ++expected;
    }
    EXPECT_EQ(stack.AllocateEphemeralPort(), expected) << "allocation " << i;
    ++expected;
  }
  // The cursor wraps: the next draw restarts at the bottom of the range
  // rather than walking off the end of the 16-bit port space.
  EXPECT_EQ(stack.AllocateEphemeralPort(), TcpStack::kEphemeralFirst);
}

TEST(TcpEphemeralPortTest, SkipsPortsHeldByConnections) {
  TcpFixture fix;
  fix.ListenAndCollect(2049);
  const uint16_t first = static_cast<uint16_t>(TcpStack::kEphemeralFirst);
  fix.client_stack->Connect(first, SockAddr{fix.topo.server->id(), 2049}, [] {});
  // The live connection's local port must never be handed out again.
  for (int i = 0; i < 5; ++i) {
    EXPECT_NE(fix.client_stack->AllocateEphemeralPort(), first);
  }
}

TEST(TcpEphemeralPortDeathTest, ExhaustionDiesLoudly) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  TcpFixture fix;
  TcpStack& stack = *fix.client_stack;
  // Occupy the entire range with listeners; the allocator must refuse to
  // silently reuse a port (the 4.3BSD behavior this models panics too).
  for (uint32_t off = 0; off < TcpStack::kEphemeralCount; ++off) {
    stack.Listen(static_cast<uint16_t>(TcpStack::kEphemeralFirst + off),
                 [](TcpConnection*) {});
  }
  EXPECT_DEATH(stack.AllocateEphemeralPort(), "ephemeral ports exhausted");
}

}  // namespace
}  // namespace renonfs
