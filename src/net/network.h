// Network container and the paper's three internetwork topologies.
#ifndef RENONFS_SRC_NET_NETWORK_H_
#define RENONFS_SRC_NET_NETWORK_H_

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "src/net/medium.h"
#include "src/net/node.h"
#include "src/sim/cost_profile.h"
#include "src/sim/scheduler.h"
#include "src/util/rng.h"

namespace renonfs {

// Owns the scheduler, all nodes and all media of one simulated internetwork.
class Network {
 public:
  // Node RNGs draw from a separate stream so that adding per-node
  // randomness (e.g. RPC retransmit jitter) does not perturb the media's
  // loss/latency sequences for a given seed.
  explicit Network(uint64_t seed) : rng_(seed), node_rng_(seed ^ 0x9e3779b97f4a7c15ull) {}
  Network(const Network&) = delete;
  Network& operator=(const Network&) = delete;

  Scheduler& scheduler() { return scheduler_; }
  Rng& rng() { return rng_; }

  Node* AddNode(const CostProfile& profile, std::string name);
  Medium* AddMedium(MediumConfig config);

  const std::vector<std::unique_ptr<Medium>>& media() const { return media_; }

 private:
  Scheduler scheduler_;
  Rng rng_;
  Rng node_rng_;
  HostId next_host_id_ = 1;
  std::vector<std::unique_ptr<Node>> nodes_;
  std::vector<std::unique_ptr<Medium>> media_;
};

// Bursty background cross-traffic on one medium. The paper's measurements
// ran across production campus networks during off-peak hours; the
// competing load there is not smooth — file transfers and pages arrive as
// back-to-back packet trains, and it is those trains filling a gateway's
// output queue that drop NFS fragments. Bursts arrive as a Poisson process;
// each burst is a geometric train of frames injected back to back, sized so
// the long-run utilization matches the target.
class BackgroundTraffic {
 public:
  BackgroundTraffic(Scheduler& scheduler, Medium* medium, double utilization, Rng rng);

  void Start();
  void Stop() { running_ = false; }

 private:
  static constexpr double kMeanBurstFrames = 8.0;
  static constexpr size_t kMaxBurstFrames = 24;

  void ScheduleNext();

  Scheduler& scheduler_;
  Medium* medium_;
  double utilization_;
  Rng rng_;
  bool running_ = false;
  double mean_burst_gap_s_ = 0;
};

// The three experimental configurations of Section 4.
enum class TopologyKind {
  kSameLan,        // client and server on one uncongested Ethernet
  kTokenRingPath,  // two Ethernets joined by the 80 Mbit ring, 2 IP routers
  kSlowLinkPath,   // same plus a 56 Kbps point-to-point hop, 3 IP routers
};

const char* TopologyKindName(TopologyKind kind);

struct TopologyOptions {
  uint64_t seed = 1;
  // Background utilization per segment class (0 disables).
  double ethernet_background = 0.10;
  double ring_background = 0.12;
  // Residual random frame loss (cabling, CRC) per segment class.
  double ethernet_loss = 1e-5;
  double ring_loss = 1.5e-2;
  double serial_loss = 1e-4;
  CostProfile host_profile = CostProfile::MicroVax2();
  // When set, the server node uses this profile instead of host_profile
  // (e.g. a DS3100 client against a MicroVAXII server, Table #4).
  std::optional<CostProfile> server_profile;
  NicConfig server_nic = NicConfig::Tuned();

  // No background traffic and no residual loss on any segment class: the
  // quiet installation tests build when they assert exact counts.
  static TopologyOptions Quiet();
};

// A built topology: client and server endpoints plus the infrastructure.
struct Topology {
  std::unique_ptr<Network> network;
  Node* client = nullptr;
  Node* server = nullptr;
  std::vector<Medium*> path_media;  // media on the client->server path, in order
  std::vector<std::unique_ptr<BackgroundTraffic>> background;

  Scheduler& scheduler() { return network->scheduler(); }
};

Topology BuildTopology(TopologyKind kind, const TopologyOptions& options = {});

}  // namespace renonfs

#endif  // RENONFS_SRC_NET_NETWORK_H_
