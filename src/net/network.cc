#include "src/net/network.h"

#include <array>
#include <span>
#include <utility>

#include "src/util/logging.h"

namespace renonfs {

Node* Network::AddNode(const CostProfile& profile, std::string name) {
  nodes_.push_back(std::make_unique<Node>(scheduler_, next_host_id_++, profile, std::move(name),
                                          node_rng_.Fork()));
  return nodes_.back().get();
}

Medium* Network::AddMedium(MediumConfig config) {
  media_.push_back(std::make_unique<Medium>(scheduler_, std::move(config), rng_.Fork()));
  return media_.back().get();
}

BackgroundTraffic::BackgroundTraffic(Scheduler& scheduler, Medium* medium, double utilization,
                                     Rng rng)
    : scheduler_(scheduler), medium_(medium), utilization_(utilization), rng_(rng) {}

void BackgroundTraffic::Start() {
  if (utilization_ <= 0.0 || running_) {
    return;
  }
  running_ = true;
  // Size mix inside a burst: interactive, mid-size, bulk. Mean ~ 700 bytes.
  const double mean_bytes = 0.30 * 80 + 0.30 * 576 + 0.40 * 1500;
  const double bytes_per_sec = utilization_ * medium_->config().bits_per_sec / 8.0;
  const double bursts_per_sec = bytes_per_sec / (mean_bytes * kMeanBurstFrames);
  mean_burst_gap_s_ = 1.0 / bursts_per_sec;
  ScheduleNext();
}

void BackgroundTraffic::ScheduleNext() {
  if (!running_) {
    return;
  }
  const double wait_s = rng_.Exponential(mean_burst_gap_s_);
  scheduler_.Schedule(static_cast<SimTime>(wait_s * 1e9), [this]() {
    // Geometric train length, injected back to back: this is what briefly
    // fills an output queue and tail-drops competing fragments. The medium
    // takes the whole train in one call.
    size_t frames = 1;
    while (rng_.UniformDouble() < 1.0 - 1.0 / kMeanBurstFrames && frames < kMaxBurstFrames) {
      ++frames;
    }
    std::array<size_t, kMaxBurstFrames> sizes;
    for (size_t i = 0; i < frames; ++i) {
      const double pick = rng_.UniformDouble();
      sizes[i] = pick < 0.30 ? 80 : (pick < 0.60 ? 576 : 1500);
    }
    medium_->InjectBurst(std::span<const size_t>(sizes.data(), frames));
    ScheduleNext();
  });
}

const char* TopologyKindName(TopologyKind kind) {
  switch (kind) {
    case TopologyKind::kSameLan:
      return "same-LAN";
    case TopologyKind::kTokenRingPath:
      return "token-ring+2-routers";
    case TopologyKind::kSlowLinkPath:
      return "token-ring+56Kbps+3-routers";
  }
  return "?";
}

namespace {

CostProfile RouterProfile() {
  CostProfile p = CostProfile::MicroVax2();
  p.cpu_speed_factor = 3.0;  // dedicated forwarding boxes, faster than a uVAXII
  return p;
}

void LinkPair(Node* a, Node* b, Medium* medium) {
  // Host-route both directions over this medium.
  a->AddRoute(b->id(), medium, b->id());
  b->AddRoute(a->id(), medium, a->id());
}

}  // namespace

TopologyOptions TopologyOptions::Quiet() {
  TopologyOptions options;
  options.ethernet_background = 0;
  options.ring_background = 0;
  options.ethernet_loss = 0;
  options.ring_loss = 0;
  options.serial_loss = 0;
  return options;
}

Topology BuildTopology(TopologyKind kind, const TopologyOptions& options) {
  Topology topo;
  topo.network = std::make_unique<Network>(options.seed);
  Network& net = *topo.network;

  auto make_ethernet = [&](const std::string& name) {
    MediumConfig config = MediumConfig::Ethernet10(name);
    config.loss_probability = options.ethernet_loss;
    return net.AddMedium(config);
  };

  Node* client = net.AddNode(options.host_profile, "client");
  Node* server =
      net.AddNode(options.server_profile.value_or(options.host_profile), "server");
  server->set_nic_config(options.server_nic);
  topo.client = client;
  topo.server = server;

  auto add_background = [&](Medium* medium, double utilization) {
    auto traffic = std::make_unique<BackgroundTraffic>(net.scheduler(), medium, utilization,
                                                       net.rng().Fork());
    traffic->Start();
    topo.background.push_back(std::move(traffic));
  };

  switch (kind) {
    case TopologyKind::kSameLan: {
      Medium* lan = make_ethernet("ether0");
      client->AttachMedium(lan);
      server->AttachMedium(lan);
      LinkPair(client, server, lan);
      topo.path_media = {lan};
      add_background(lan, options.ethernet_background);
      break;
    }

    case TopologyKind::kTokenRingPath: {
      Medium* eth_a = make_ethernet("ether-client");
      Medium* eth_b = make_ethernet("ether-server");
      MediumConfig ring_config = MediumConfig::TokenRing80("ring0");
      ring_config.loss_probability = options.ring_loss;
      Medium* ring = net.AddMedium(ring_config);

      Node* router_a = net.AddNode(RouterProfile(), "router-a");
      Node* router_b = net.AddNode(RouterProfile(), "router-b");
      router_a->set_forwarding(true);
      router_b->set_forwarding(true);

      client->AttachMedium(eth_a);
      router_a->AttachMedium(eth_a);
      router_a->AttachMedium(ring);
      router_b->AttachMedium(ring);
      router_b->AttachMedium(eth_b);
      server->AttachMedium(eth_b);

      client->SetDefaultRoute(eth_a, router_a->id());
      router_a->AddRoute(client->id(), eth_a, client->id());
      router_a->SetDefaultRoute(ring, router_b->id());
      router_b->AddRoute(server->id(), eth_b, server->id());
      router_b->SetDefaultRoute(ring, router_a->id());
      server->SetDefaultRoute(eth_b, router_b->id());

      topo.path_media = {eth_a, ring, eth_b};
      add_background(eth_a, options.ethernet_background);
      add_background(ring, options.ring_background);
      add_background(eth_b, options.ethernet_background);
      break;
    }

    case TopologyKind::kSlowLinkPath: {
      Medium* eth_a = make_ethernet("ether-client");
      Medium* eth_b = make_ethernet("ether-server");
      MediumConfig ring_config = MediumConfig::TokenRing80("ring0");
      ring_config.loss_probability = options.ring_loss;
      Medium* ring = net.AddMedium(ring_config);
      MediumConfig serial_config = MediumConfig::SerialLine56K("serial56k");
      serial_config.loss_probability = options.serial_loss;
      Medium* serial = net.AddMedium(serial_config);

      Node* router_a = net.AddNode(RouterProfile(), "router-a");
      Node* router_b = net.AddNode(RouterProfile(), "router-b");
      Node* router_c = net.AddNode(RouterProfile(), "router-c");
      for (Node* r : {router_a, router_b, router_c}) {
        r->set_forwarding(true);
      }

      client->AttachMedium(eth_a);
      router_a->AttachMedium(eth_a);
      router_a->AttachMedium(ring);
      router_b->AttachMedium(ring);
      router_b->AttachMedium(serial);
      router_c->AttachMedium(serial);
      router_c->AttachMedium(eth_b);
      server->AttachMedium(eth_b);

      client->SetDefaultRoute(eth_a, router_a->id());
      router_a->AddRoute(client->id(), eth_a, client->id());
      router_a->SetDefaultRoute(ring, router_b->id());
      router_b->AddRoute(client->id(), ring, router_a->id());
      router_b->SetDefaultRoute(serial, router_c->id());
      router_c->AddRoute(server->id(), eth_b, server->id());
      router_c->SetDefaultRoute(serial, router_b->id());
      server->SetDefaultRoute(eth_b, router_c->id());

      topo.path_media = {eth_a, ring, serial, eth_b};
      add_background(eth_a, options.ethernet_background);
      add_background(ring, options.ring_background);
      // "After hours involved almost no other loads": the serial line runs
      // no background traffic. The source is still made, because making it
      // forks the network RNG and every later stream depends on that.
      add_background(serial, 0.0);
      add_background(eth_b, options.ethernet_background);
      break;
    }
  }
  return topo;
}

}  // namespace renonfs
