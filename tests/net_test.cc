#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "src/net/address.h"
#include "src/net/medium.h"
#include "src/net/network.h"
#include "src/net/node.h"
#include "src/net/udp.h"
#include "src/sim/cost_profile.h"

namespace renonfs {
namespace {

std::vector<uint8_t> Pattern(size_t n, uint8_t seed = 1) {
  std::vector<uint8_t> out(n);
  for (size_t i = 0; i < n; ++i) {
    out[i] = static_cast<uint8_t>(seed + i * 13);
  }
  return out;
}

class TwoHostLan : public ::testing::Test {
 protected:
  TwoHostLan() : net_(1) {
    a_ = net_.AddNode(CostProfile::MicroVax2(), "a");
    b_ = net_.AddNode(CostProfile::MicroVax2(), "b");
    lan_ = net_.AddMedium(MediumConfig::Ethernet10("lan"));
    a_->AttachMedium(lan_);
    b_->AttachMedium(lan_);
    a_->AddRoute(b_->id(), lan_, b_->id());
    b_->AddRoute(a_->id(), lan_, a_->id());
    udp_a_ = std::make_unique<UdpStack>(a_);
    udp_b_ = std::make_unique<UdpStack>(b_);
  }

  Network net_;
  Node* a_;
  Node* b_;
  Medium* lan_;
  std::unique_ptr<UdpStack> udp_a_;
  std::unique_ptr<UdpStack> udp_b_;
};

TEST_F(TwoHostLan, SmallDatagramDelivered) {
  std::optional<std::vector<uint8_t>> received;
  SockAddr from{};
  udp_b_->Bind(2049, [&](SockAddr src, MbufChain payload) {
    from = src;
    received = payload.ContiguousCopy();
  });
  const auto data = Pattern(100);
  udp_a_->SendTo(900, SockAddr{b_->id(), 2049}, MbufChain::FromBytes(data.data(), data.size()));
  net_.scheduler().Run();
  ASSERT_TRUE(received.has_value());
  EXPECT_EQ(*received, data);
  EXPECT_EQ(from.host, a_->id());
  EXPECT_EQ(from.port, 900);
}

TEST_F(TwoHostLan, LargeDatagramFragmentsAndReassembles) {
  std::optional<std::vector<uint8_t>> received;
  udp_b_->Bind(2049, [&](SockAddr, MbufChain payload) { received = payload.ContiguousCopy(); });
  // 8 KB + RPC-ish overhead: must fragment into ~6 Ethernet frames.
  const auto data = Pattern(8300);
  udp_a_->SendTo(900, SockAddr{b_->id(), 2049}, MbufChain::FromBytes(data.data(), data.size()));
  net_.scheduler().Run();
  ASSERT_TRUE(received.has_value());
  EXPECT_EQ(*received, data);
  EXPECT_GE(a_->stats().frames_sent, 6u);
  EXPECT_EQ(b_->stats().datagrams_delivered, 1u);
}

TEST_F(TwoHostLan, DeliveryTakesSerializationTime) {
  SimTime arrival = -1;
  udp_b_->Bind(2049, [&](SockAddr, MbufChain) { arrival = net_.scheduler().now(); });
  const auto data = Pattern(1000);
  udp_a_->SendTo(900, SockAddr{b_->id(), 2049}, MbufChain::FromBytes(data.data(), data.size()));
  net_.scheduler().Run();
  // ~1 KB at 10 Mbit/s is ~0.84 ms on the wire alone, plus CPU costs on a
  // 0.9 MIPS machine; must be well above zero and below 30 ms.
  EXPECT_GT(arrival, Microseconds(800));
  EXPECT_LT(arrival, Milliseconds(30));
}

TEST_F(TwoHostLan, UnboundPortDropsDatagram) {
  const auto data = Pattern(64);
  udp_a_->SendTo(900, SockAddr{b_->id(), 7777}, MbufChain::FromBytes(data.data(), data.size()));
  net_.scheduler().Run();
  EXPECT_EQ(udp_b_->stats().no_port_drops, 1u);
}

TEST_F(TwoHostLan, NoRouteCounted) {
  const auto data = Pattern(64);
  udp_a_->SendTo(900, SockAddr{999, 2049}, MbufChain::FromBytes(data.data(), data.size()));
  net_.scheduler().Run();
  EXPECT_EQ(a_->stats().send_drops_no_route, 1u);
}

TEST(MediumTest, QueueOverflowDropsFrames) {
  Scheduler sched;
  MediumConfig config = MediumConfig::Ethernet10("lan");
  config.queue_limit = 2;
  Medium medium(sched, config, Rng(1));
  medium.Attach(2, [](Frame) {});
  int accepted = 0;
  for (int i = 0; i < 5; ++i) {
    Frame f;
    f.src = 1;
    f.dst = 2;
    f.link_next_hop = 2;
    f.payload = MbufChain::FromString(std::string(1000, 'x'));
    accepted += medium.Transmit(std::move(f)) ? 1 : 0;
  }
  EXPECT_EQ(accepted, 2);
  EXPECT_EQ(medium.stats().frames_dropped_queue, 3u);
  sched.Run();
  EXPECT_EQ(medium.stats().frames_delivered, 2u);
}

TEST(MediumTest, RandomLossDropsFraction) {
  Scheduler sched;
  MediumConfig config = MediumConfig::Ethernet10("lossy");
  config.loss_probability = 0.3;
  config.queue_limit = 1000000;
  Medium medium(sched, config, Rng(7));
  int delivered = 0;
  medium.Attach(2, [&](Frame) { ++delivered; });
  const int total = 2000;
  for (int i = 0; i < total; ++i) {
    Frame f;
    f.src = 1;
    f.dst = 2;
    f.link_next_hop = 2;
    f.payload = MbufChain::FromString("ping");
    medium.Transmit(std::move(f));
  }
  sched.Run();
  EXPECT_NEAR(static_cast<double>(delivered) / total, 0.7, 0.04);
}

// Hands the medium one background train, as BackgroundTraffic does. A
// braced list of sizes does not convert to std::span; a vector does.
void InjectTrain(Medium& medium, const std::vector<size_t>& wire_bytes) {
  medium.InjectBurst(wire_bytes);
}

TEST(MediumTest, BackgroundTrafficOccupiesBandwidth) {
  Scheduler sched;
  Medium medium(sched, MediumConfig::Ethernet10("lan"), Rng(1));
  medium.Attach(2, [](Frame) {});
  InjectTrain(medium, {10000});  // 8 ms at 10 Mbit/s
  SimTime arrival = -1;
  medium.Attach(3, [&](Frame) { arrival = sched.now(); });
  Frame f;
  f.src = 1;
  f.dst = 3;
  f.link_next_hop = 3;
  f.payload = MbufChain::FromString("x");
  medium.Transmit(std::move(f));
  sched.Run();
  EXPECT_GT(arrival, Milliseconds(8));  // queued behind the background frame
}

// --- queue occupancy at shared instants ---------------------------------------
// A frame nobody receives (background, or lost on the wire) holds its queue
// slot until the instant it would have arrived. These cases pin which side of
// that instant an occupancy check at the very same nanosecond lands on.

// 8 Mbit/s puts one byte on the wire per microsecond, and that serialization
// time is exact in floating point, so frames sized in multiples of 50 bytes
// arrive on a 50 us grid.
constexpr SimTime kGrid = Microseconds(50);
constexpr size_t kGridFraming = 10;

MediumConfig GridConfig() {
  MediumConfig config;
  config.name = "grid";
  config.bits_per_sec = 8e6;
  config.propagation_delay = 2 * kGrid;
  config.framing_bytes = kGridFraming;
  return config;
}

Frame GridFrame(HostId to, uint32_t id, size_t wire_bytes) {
  Frame f;
  f.src = 1;
  f.dst = to;
  f.link_next_hop = to;
  f.datagram_id = id;
  f.payload = MbufChain::FromString(std::string(wire_bytes - kIpHeaderBytes - kGridFraming, 'x'));
  return f;
}

TEST(MediumTest, BackgroundFrameLeavesAfterEarlierSeqAtItsArrival) {
  Scheduler sched;
  MediumConfig config = GridConfig();
  config.queue_limit = 1;
  Medium medium(sched, config, Rng(1));
  int delivered = 0;
  medium.Attach(2, [&](Frame) { ++delivered; });
  const SimTime arrival = 20 * kGrid + config.propagation_delay;  // 1000 bytes
  std::optional<bool> before;
  std::optional<bool> after;
  // Same instant as the background frame's arrival, scheduled before it was
  // injected: the frame still holds the only slot.
  sched.Schedule(arrival, [&]() { before = medium.Transmit(GridFrame(2, 1, 50)); });
  InjectTrain(medium, {1000});
  // Same instant, scheduled after the injection: the slot is free again.
  sched.Schedule(arrival, [&]() { after = medium.Transmit(GridFrame(2, 2, 50)); });
  sched.Run();
  ASSERT_TRUE(before.has_value() && after.has_value());
  EXPECT_FALSE(*before);
  EXPECT_TRUE(*after);
  EXPECT_EQ(medium.stats().frames_dropped_queue, 1u);
  EXPECT_EQ(delivered, 1);
}

TEST(MediumTest, LatencyStormEndingLetsLaterBackgroundFramesLeaveFirst) {
  Scheduler sched;
  MediumConfig config = GridConfig();
  config.queue_limit = 2;
  Medium medium(sched, config, Rng(1));
  medium.Attach(2, [](Frame) {});
  medium.SetExtraLatency(Milliseconds(5));
  InjectTrain(medium, {1000});  // on the wire until 1 ms, arrives at 6.1 ms
  medium.SetExtraLatency(0);
  InjectTrain(medium, {1000});  // on the wire until 2 ms, arrives at 2.1 ms
  sched.RunUntil(Milliseconds(3));
  // The second frame has left; the storm-delayed first one still holds the
  // other slot.
  EXPECT_TRUE(medium.Transmit(GridFrame(2, 1, 50)));
  InjectTrain(medium, {50});
  EXPECT_EQ(medium.stats().frames_dropped_queue, 1u);
  sched.RunUntil(Milliseconds(7));
  EXPECT_TRUE(medium.Transmit(GridFrame(2, 2, 50)));
  EXPECT_TRUE(medium.Transmit(GridFrame(2, 3, 50)));
  sched.Run();
  EXPECT_EQ(medium.stats().frames_delivered, 3u);
  EXPECT_EQ(medium.stats().background_frames, 2u);
}

// One seeded script over a single medium, logged entry by entry: each
// Transmit's accept/drop, each one-frame burst's effect on the counters,
// each delivery's (host, frame, time), then the final MediumStats. Actions
// run both between RunFor calls and from scheduled events, all on the grid
// the frames arrive on, so actions and arrivals share instants in both seq
// orders. The queue is small and lossy, a latency storm rises and falls
// every 20 rounds while frames are queued, a corruption storm duplicates and
// reorders frames, and host 2 forwards every third frame to host 3, so
// transmits also happen inside delivery callbacks.
std::vector<std::array<uint64_t, 4>> RunMediumScript() {
  Scheduler sched;
  MediumConfig config = GridConfig();
  config.queue_limit = 4;
  config.loss_probability = 0.2;
  Medium medium(sched, config, Rng(5));
  Rng rng(11);
  std::vector<std::array<uint64_t, 4>> log;
  uint32_t next_id = 0;
  constexpr size_t kSizes[] = {50, 300, 1000};
  auto now = [&]() { return static_cast<uint64_t>(sched.now()); };
  auto transmit = [&](HostId to) {
    const uint32_t id = next_id++;
    const bool accepted = medium.Transmit(GridFrame(to, id, kSizes[rng.UniformUint64(3)]));
    log.push_back({1, id, accepted ? 1u : 0u, now()});
  };
  auto inject = [&]() {
    InjectTrain(medium, {kSizes[rng.UniformUint64(3)]});
    const MediumStats& stats = medium.stats();
    log.push_back({2, stats.background_frames, stats.frames_dropped_queue, now()});
  };
  medium.Attach(2, [&](Frame frame) {
    log.push_back({3, 2, frame.datagram_id, now()});
    if (frame.datagram_id % 3 == 0) {
      transmit(3);
    }
  });
  medium.Attach(3, [&](Frame frame) { log.push_back({3, 3, frame.datagram_id, now()}); });
  for (int round = 0; round < 300; ++round) {
    const uint64_t actions = 1 + rng.UniformUint64(3);
    for (uint64_t i = 0; i < actions; ++i) {
      const uint64_t pick = rng.UniformUint64(4);
      if (pick == 0) {
        inject();
      } else if (pick == 1) {
        transmit(2);
      } else {
        const SimTime delay = kGrid * static_cast<SimTime>(rng.UniformUint64(40));
        if (pick == 2) {
          sched.Schedule(delay, [&]() { inject(); });
        } else {
          sched.Schedule(delay, [&]() { transmit(2); });
        }
      }
    }
    if (round % 20 == 5) {
      medium.SetExtraLatency(Milliseconds(2));
    } else if (round % 20 == 10) {
      medium.SetExtraLatency(0);
    }
    if (round == 150) {
      medium.SetCorruption(CorruptionConfig{.duplicate = 0.2, .reorder = 0.2});
    } else if (round == 200) {
      medium.SetCorruption(CorruptionConfig{});
    }
    sched.RunFor(kGrid * static_cast<SimTime>(rng.UniformUint64(40)));
  }
  sched.Run();
  const MediumStats& s = medium.stats();
  log.push_back({4, s.frames_delivered, s.frames_dropped_queue, s.frames_dropped_loss});
  log.push_back({4, s.frames_damaged, s.frames_dropped_down, s.bytes_on_wire});
  log.push_back({4, s.background_frames, s.frames_bit_flipped, s.frames_truncated});
  log.push_back({4, s.frames_duplicated, s.frames_reordered, 0});
  return log;
}

TEST(MediumTest, SeededScriptMatchesPinnedLog) {
  // Pinned from the medium that scheduled one delivery event per frame,
  // background and wire-lost frames included: a frame nobody receives must
  // keep holding its queue slot and line time exactly that long.
  const auto log = RunMediumScript();
  uint64_t digest = 14695981039346656037ull;
  for (const auto& entry : log) {
    for (const uint64_t word : entry) {
      digest = (digest ^ word) * 1099511628211ull;
    }
  }
  std::set<uint64_t> arrivals;
  for (const auto& entry : log) {
    if (entry[0] == 3) {
      arrivals.insert(entry[3]);
    }
  }
  size_t shared_instants = 0;
  for (const auto& entry : log) {
    shared_instants += (entry[0] == 1 || entry[0] == 2) && arrivals.contains(entry[3]) ? 1 : 0;
  }
  EXPECT_GT(shared_instants, 0u);  // actions really do land on arrival instants
  const auto& stats = log[log.size() - 4];
  EXPECT_GT(stats[2], 0u);  // queue drops
  EXPECT_GT(stats[3], 0u);  // wire losses
  EXPECT_GT(log[log.size() - 3][1], 0u);  // collateral damage
  EXPECT_EQ(log.size(), 836u);
  EXPECT_EQ(digest, 0x2cb4d477c9bbff20ull);
}

// --- background bursts --------------------------------------------------------
// A train's frames share one reserved seq and leave one at a time, each at
// its own arrival; collateral damage can hit any of them.

TEST(MediumTest, BurstFrameLeavesAfterEarlierSeqAtItsArrival) {
  Scheduler sched;
  MediumConfig config = GridConfig();
  config.queue_limit = 4;
  Medium medium(sched, config, Rng(1));
  medium.Attach(2, [](Frame) {});
  // Four 1000-byte frames at t = 0 arrive at 1.1, 2.1, 3.1 and 4.1 ms.
  const SimTime second_arrival = 40 * kGrid + config.propagation_delay;
  std::optional<bool> before;
  std::optional<bool> after;
  // Scheduled before the burst fires: at the second frame's arrival it still
  // holds its slot.
  sched.Schedule(second_arrival, [&]() { before = medium.Transmit(GridFrame(2, 1, 50)); });
  sched.Schedule(0, [&]() {
    InjectTrain(medium, {1000, 1000, 1000, 1000});
    // Scheduled after the burst fired: at the same instant the slot is free.
    sched.Schedule(second_arrival, [&]() { after = medium.Transmit(GridFrame(2, 2, 50)); });
  });
  // The first frame has left by 1.5 ms; this one takes its slot, so the
  // queue is full again until the second frame leaves.
  sched.Schedule(30 * kGrid, [&]() { EXPECT_TRUE(medium.Transmit(GridFrame(2, 3, 50))); });
  sched.Run();
  ASSERT_TRUE(before.has_value() && after.has_value());
  EXPECT_FALSE(*before);
  EXPECT_TRUE(*after);
  EXPECT_EQ(medium.stats().frames_dropped_queue, 1u);
  EXPECT_EQ(medium.stats().frames_delivered, 2u);
  EXPECT_EQ(medium.stats().background_frames, 4u);
}

TEST(MediumTest, CollateralDamageCountsEachFrameOnce) {
  Scheduler sched;
  MediumConfig config = GridConfig();
  config.queue_limit = 6;
  Medium medium(sched, config, Rng(3));
  medium.Attach(2, [](Frame) {});
  // A burst fills the queue; 40 overflows at one instant can only hit the
  // four frames at its tail, whatever the draws.
  sched.Schedule(0, [&]() {
    InjectTrain(medium, {300, 300, 300, 300, 300, 300, 300, 300});
    for (uint32_t id = 0; id < 40; ++id) {
      EXPECT_FALSE(medium.Transmit(GridFrame(2, id, 50)));
    }
  });
  sched.Run();
  EXPECT_EQ(medium.stats().background_frames, 6u);
  EXPECT_EQ(medium.stats().frames_dropped_queue, 42u);
  EXPECT_GT(medium.stats().frames_damaged, 1u);
  EXPECT_LE(medium.stats().frames_damaged, 4u);
}

// One seeded script of background bursts and transmits over a single medium,
// logged entry by entry: each burst's effect on the counters, each
// Transmit's accept/drop and the damage count after it, each delivery's
// (host, frame, time), then the final MediumStats. Every burst fires from a
// scheduled callback, as BackgroundTraffic's do, with 1-24 frames of three
// sizes against a 10-frame queue, so bursts overflow it part way and
// overflowing transmits damage queued background frames, often the same
// ones again. Transmits run at top level, from scheduled events (four at
// one instant in a flood) and from delivery callbacks. The link goes down
// every 25 rounds, a latency storm rises and falls every 20 rounds while
// frames are queued, and a corruption storm duplicates and reorders frames.
std::vector<std::array<uint64_t, 5>> RunBurstScript() {
  Scheduler sched;
  MediumConfig config = GridConfig();
  config.queue_limit = 10;
  config.loss_probability = 0.15;
  Medium medium(sched, config, Rng(9));
  Rng rng(23);
  std::vector<std::array<uint64_t, 5>> log;
  uint32_t next_id = 0;
  constexpr size_t kSizes[] = {50, 300, 1000};
  auto now = [&]() { return static_cast<uint64_t>(sched.now()); };
  auto transmit = [&](HostId to) {
    const uint32_t id = next_id++;
    const bool down = medium.link_down();
    const bool accepted = medium.Transmit(GridFrame(to, id, kSizes[rng.UniformUint64(3)]));
    log.push_back({1, id, (accepted ? 1u : 0u) | (down ? 2u : 0u), medium.stats().frames_damaged,
                   now()});
  };
  auto burst = [&]() {
    std::vector<size_t> sizes(1 + rng.UniformUint64(24));
    for (size_t& bytes : sizes) {
      bytes = kSizes[rng.UniformUint64(3)];
    }
    InjectTrain(medium, sizes);
    const MediumStats& stats = medium.stats();
    log.push_back({2, stats.background_frames, stats.frames_dropped_queue,
                   stats.frames_dropped_down, now()});
  };
  medium.Attach(2, [&](Frame frame) {
    log.push_back({3, 2, frame.datagram_id, 0, now()});
    if (frame.datagram_id % 3 == 0) {
      transmit(3);
    }
  });
  medium.Attach(3, [&](Frame frame) { log.push_back({3, 3, frame.datagram_id, 0, now()}); });
  for (int round = 0; round < 300; ++round) {
    const uint64_t actions = 1 + rng.UniformUint64(4);
    for (uint64_t i = 0; i < actions; ++i) {
      const uint64_t pick = rng.UniformUint64(5);
      const SimTime delay = kGrid * static_cast<SimTime>(rng.UniformUint64(40));
      if (pick <= 1) {
        sched.Schedule(delay, [&]() { burst(); });
      } else if (pick == 2) {
        transmit(2);
      } else if (pick == 3) {
        sched.Schedule(delay, [&]() { transmit(2); });
      } else {
        sched.Schedule(delay, [&]() {
          for (int flood = 0; flood < 4; ++flood) {
            transmit(2);
          }
        });
      }
    }
    if (round % 20 == 5) {
      medium.SetExtraLatency(Milliseconds(2));
    } else if (round % 20 == 10) {
      medium.SetExtraLatency(0);
    }
    if (round % 25 == 12) {
      medium.SetLinkDown(true);
    } else if (round % 25 == 15) {
      medium.SetLinkDown(false);
    }
    if (round == 150) {
      medium.SetCorruption(CorruptionConfig{.duplicate = 0.1, .reorder = 0.3});
    } else if (round == 200) {
      medium.SetCorruption(CorruptionConfig{});
    }
    sched.RunFor(kGrid * static_cast<SimTime>(rng.UniformUint64(40)));
  }
  sched.Run();
  const MediumStats& s = medium.stats();
  log.push_back({4, s.frames_delivered, s.frames_dropped_queue, s.frames_dropped_loss,
                 s.frames_damaged});
  log.push_back({4, s.frames_dropped_down, s.bytes_on_wire, s.background_frames,
                 s.frames_duplicated});
  log.push_back({4, s.frames_reordered, s.frames_bit_flipped, s.frames_truncated, 0});
  return log;
}

TEST(MediumTest, SeededBurstScriptMatchesPinnedLog) {
  // Pinned from the medium that took a train one frame per call, each frame
  // with its own seq and its own sorted entry among the frames nobody
  // receives.
  const auto log = RunBurstScript();
  uint64_t digest = 14695981039346656037ull;
  for (const auto& entry : log) {
    for (const uint64_t word : entry) {
      digest = (digest ^ word) * 1099511628211ull;
    }
  }
  // The script reaches every case it names.
  uint64_t claimed = 0;  // transmits that took a slot (lost on the wire or not)
  uint64_t partial_bursts = 0;
  uint64_t prev_background = 0;
  uint64_t prev_dropped = 0;
  for (const auto& entry : log) {
    claimed += entry[0] == 1 && entry[2] == 1 ? 1 : 0;
    if (entry[0] == 2) {
      partial_bursts += entry[1] > prev_background && entry[2] > prev_dropped ? 1 : 0;
      prev_background = entry[1];
      prev_dropped = entry[2];
    }
  }
  std::set<uint64_t> arrivals;
  size_t delivered = 0;
  for (const auto& entry : log) {
    if (entry[0] == 3) {
      arrivals.insert(entry[4]);
      ++delivered;
    }
  }
  size_t shared_instants = 0;
  for (const auto& entry : log) {
    shared_instants += (entry[0] == 1 || entry[0] == 2) && arrivals.contains(entry[4]) ? 1 : 0;
  }
  const auto& totals = log[log.size() - 3];
  const auto& more = log[log.size() - 2];
  const auto& storm = log[log.size() - 1];
  EXPECT_GT(shared_instants, 0u);
  EXPECT_GT(partial_bursts, 0u);  // bursts that overflowed the queue part way
  EXPECT_GT(totals[2], 0u);       // queue drops
  EXPECT_GT(totals[3], 0u);       // wire losses
  EXPECT_GT(more[1], 0u);         // frames dropped on a down link
  EXPECT_GT(more[4], 0u);         // duplicates
  EXPECT_GT(storm[1], 0u);        // reorders
  EXPECT_EQ(delivered, totals[1]);
  // Every claimed frame someone receives is delivered unless damaged, so
  // the rest of the damage hit frames nobody receives: background frames
  // and frames lost on the wire.
  const uint64_t damaged_received = claimed - totals[3] + more[4] - delivered;
  EXPECT_GT(totals[4], damaged_received);
  EXPECT_EQ(log.size(), 1482u);
  EXPECT_EQ(digest, 0xa88694856fcdda00ull);
}

struct RoutedPath {
  explicit RoutedPath(TopologyKind kind, TopologyOptions options = TopologyOptions::Quiet()) {
    topo = BuildTopology(kind, options);
    udp_client = std::make_unique<UdpStack>(topo.client);
    udp_server = std::make_unique<UdpStack>(topo.server);
  }
  Topology topo;
  std::unique_ptr<UdpStack> udp_client;
  std::unique_ptr<UdpStack> udp_server;
};

class TopologyTest : public ::testing::TestWithParam<TopologyKind> {};

TEST_P(TopologyTest, RoundTripAcrossPath) {
  RoutedPath path(GetParam());
  auto& sched = path.topo.scheduler();

  // Server echoes; client records the reply.
  path.udp_server->Bind(2049, [&](SockAddr from, MbufChain payload) {
    path.udp_server->SendTo(2049, from, std::move(payload));
  });
  std::optional<std::vector<uint8_t>> reply;
  path.udp_client->Bind(901, [&](SockAddr, MbufChain payload) {
    reply = payload.ContiguousCopy();
  });

  const auto data = Pattern(1024);
  path.udp_client->SendTo(901, SockAddr{path.topo.server->id(), 2049},
                          MbufChain::FromBytes(data.data(), data.size()));
  sched.Run();
  ASSERT_TRUE(reply.has_value()) << TopologyKindName(GetParam());
  EXPECT_EQ(*reply, data);
}

INSTANTIATE_TEST_SUITE_P(AllTopologies, TopologyTest,
                         ::testing::Values(TopologyKind::kSameLan, TopologyKind::kTokenRingPath,
                                           TopologyKind::kSlowLinkPath));

TEST(TopologyTest, BackgroundTrafficSchedulesOnlyBurstTimers) {
  // Nobody receives a background frame, so it schedules no event; only the
  // burst timers do, and a burst averages 8 frames.
  Topology topo = BuildTopology(TopologyKind::kTokenRingPath);
  topo.scheduler().RunFor(Seconds(10));
  uint64_t background_frames = 0;
  for (const auto& medium : topo.network->media()) {
    background_frames += medium->stats().background_frames;
  }
  EXPECT_LT(topo.scheduler().events_executed() * 4, background_frames);
}

TEST(TopologyLatencyTest, SlowLinkMuchSlowerThanLan) {
  auto rtt_of = [](TopologyKind kind) {
    RoutedPath path(kind);
    auto& sched = path.topo.scheduler();
    path.udp_server->Bind(2049, [&](SockAddr from, MbufChain payload) {
      path.udp_server->SendTo(2049, from, std::move(payload));
    });
    SimTime rtt = -1;
    path.udp_client->Bind(901, [&](SockAddr, MbufChain) { rtt = sched.now(); });
    const auto data = Pattern(512);
    path.udp_client->SendTo(901, SockAddr{path.topo.server->id(), 2049},
                            MbufChain::FromBytes(data.data(), data.size()));
    sched.Run();
    return rtt;
  };
  const SimTime lan = rtt_of(TopologyKind::kSameLan);
  const SimTime ring = rtt_of(TopologyKind::kTokenRingPath);
  const SimTime slow = rtt_of(TopologyKind::kSlowLinkPath);
  EXPECT_GT(ring, lan);
  EXPECT_GT(slow, 2 * ring);
  // 512B + headers twice over 56 Kbps alone is ~160 ms.
  EXPECT_GT(slow, Milliseconds(150));
}

TEST(TopologyLatencyTest, FragmentLossKillsWholeDatagram) {
  TopologyOptions options = TopologyOptions::Quiet();
  options.ring_loss = 0.5;  // drop half the frames on the ring
  options.seed = 3;
  RoutedPath path(TopologyKind::kTokenRingPath, options);
  auto& sched = path.topo.scheduler();
  int delivered = 0;
  path.udp_server->Bind(2049, [&](SockAddr, MbufChain) { ++delivered; });
  // 8 KB datagrams need ~5 ring fragments; P(all survive) ~ 0.5^5 ~ 3%.
  const auto data = Pattern(8192);
  for (int i = 0; i < 40; ++i) {
    path.udp_client->SendTo(901, SockAddr{path.topo.server->id(), 2049},
                            MbufChain::FromBytes(data.data(), data.size()));
  }
  sched.Run();
  EXPECT_LT(delivered, 8);  // nearly all datagrams lost
  EXPECT_GT(path.topo.server->stats().reassembly_timeouts, 0u);
}

TEST(NicModelTest, TunedInterfaceUsesLessCpu) {
  auto cpu_for = [](NicConfig nic) {
    Network net(1);
    Node* a = net.AddNode(CostProfile::MicroVax2(), "a");
    Node* b = net.AddNode(CostProfile::MicroVax2(), "b");
    Medium* lan = net.AddMedium(MediumConfig::Ethernet10("lan"));
    a->AttachMedium(lan);
    b->AttachMedium(lan);
    a->AddRoute(b->id(), lan, b->id());
    a->set_nic_config(nic);
    UdpStack udp_a(a);
    UdpStack udp_b(b);
    udp_b.Bind(2049, [](SockAddr, MbufChain) {});
    const auto data = Pattern(8192);
    for (int i = 0; i < 50; ++i) {
      udp_a.SendTo(900, SockAddr{b->id(), 2049}, MbufChain::FromBytes(data.data(), data.size()));
    }
    net.scheduler().Run();
    return a->cpu().busy_accum();
  };
  const SimTime stock = cpu_for(NicConfig::Stock());
  const SimTime tuned = cpu_for(NicConfig::Tuned());
  EXPECT_LT(tuned, stock);
  // Mapped transmit + no tx interrupts should save a clearly visible slice.
  EXPECT_LT(static_cast<double>(tuned), 0.9 * static_cast<double>(stock));
}

}  // namespace
}  // namespace renonfs
