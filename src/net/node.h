// A network node: host or IP router.
//
// A Node owns a CPU (FIFO resource), a cost profile, the IP layer
// (fragmentation, reassembly, forwarding) and its network-interface cost
// model. Hosts additionally register transport protocol handlers (UDP/TCP)
// and may own a DiskModel (servers).
//
// The NIC model reproduces the Section 3 tuning knobs:
//   * mapped_transmit — "copy" mbuf clusters to the interface by page-table
//     -entry swaps instead of memory-to-memory copy;
//   * transmit_interrupts — when disabled, buffer release happens in the
//     transmit startup routine and the per-frame transmit interrupt cost
//     disappears [Jacobson89].
#ifndef RENONFS_SRC_NET_NODE_H_
#define RENONFS_SRC_NET_NODE_H_

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <unordered_set>

#include "src/net/frame.h"
#include "src/net/medium.h"
#include "src/sim/cost_profile.h"
#include "src/sim/cpu.h"
#include "src/sim/disk.h"
#include "src/sim/scheduler.h"
#include "src/util/rng.h"

namespace renonfs {

struct NicConfig {
  bool mapped_transmit = false;
  bool transmit_interrupts = true;

  // The Section 3 tuned interface: mapped clusters, no transmit interrupts.
  static NicConfig Tuned() { return NicConfig{true, false}; }
  static NicConfig Stock() { return NicConfig{}; }
};

struct NodeStats {
  uint64_t datagrams_delivered = 0;
  uint64_t frames_sent = 0;
  uint64_t frames_received = 0;
  uint64_t send_drops_no_route = 0;
  uint64_t reassembly_timeouts = 0;
};

class Node {
 public:
  Node(Scheduler& scheduler, HostId id, CostProfile profile, std::string name, Rng rng);
  Node(const Node&) = delete;
  Node& operator=(const Node&) = delete;

  HostId id() const { return id_; }
  const std::string& name() const { return name_; }
  Scheduler& scheduler() { return scheduler_; }
  CpuResource& cpu() { return cpu_; }
  DiskModel& disk() { return disk_; }
  const CostProfile& profile() const { return profile_; }
  NodeStats& stats() { return stats_; }

  // Per-node deterministic random stream, forked from the Network master RNG
  // at construction. Transports draw their seeds here so that every
  // node/transport gets an independent stream.
  Rng& rng() { return rng_; }

  void set_forwarding(bool enabled) { forwarding_ = enabled; }
  void set_nic_config(NicConfig config) { nic_config_ = config; }

  // Attaches this node to a medium; frames addressed to it at the link layer
  // are delivered through the receive path.
  void AttachMedium(Medium* medium);

  void AddRoute(HostId dst, Medium* medium, HostId next_hop);
  void SetDefaultRoute(Medium* medium, HostId next_hop);

  // Transport protocol demux (UDP/TCP layers register here).
  using ProtocolHandler = std::function<void(Datagram)>;
  void RegisterProtocol(uint8_t proto, ProtocolHandler handler);

  // IP output: charges protocol + NIC costs, fragments to the outgoing
  // medium's MTU, transmits. Fragment loss anywhere along the path loses the
  // whole datagram (reassembly never completes).
  void SendDatagram(Datagram datagram);

  // --- Fault injection (see src/fault/injector.h) ---

  // A powered-off node drops every inbound frame and outbound datagram.
  // Kernel state above the IP layer (sockets, caches) is torn down by the
  // owning subsystem (e.g. NfsServer::Crash), not here.
  void set_powered(bool on) { powered_ = on; }

  // One-way partitions: silently drop traffic from `src` (input) or towards
  // `dst` (output, including forwarded frames). Models a broken route or a
  // misbehaving gateway in one direction only.
  void SetInputBlocked(HostId src, bool blocked);
  void SetOutputBlocked(HostId dst, bool blocked);

 private:
  struct Route {
    Medium* medium;
    HostId next_hop;
  };
  struct ReassemblyKey {
    HostId src;
    uint8_t proto;
    uint32_t datagram_id;
    bool operator<(const ReassemblyKey& other) const {
      return std::tie(src, proto, datagram_id) <
             std::tie(other.src, other.proto, other.datagram_id);
    }
  };
  struct Reassembly {
    std::map<uint32_t, MbufChain> fragments;  // offset -> payload slice
    std::optional<uint32_t> total_len;
    SimTime deadline = 0;
  };

  const Route* LookupRoute(HostId dst) const;

  // Fragments and transmits one datagram-sized payload on a medium,
  // charging NIC transmit costs.
  void OutputFragments(Medium* medium, HostId next_hop, Frame whole);
  void TransmitFrame(Medium* medium, Frame frame);

  void OnFrameReceived(Medium* medium, Frame frame);
  void ProcessFrame(Frame frame);
  void ForwardFrame(Frame frame);
  void DeliverFragment(Frame frame);
  void ReapReassembly();

  Scheduler& scheduler_;
  HostId id_;
  CostProfile profile_;
  std::string name_;
  CpuResource cpu_;
  DiskModel disk_;
  NicConfig nic_config_;
  Rng rng_;
  bool forwarding_ = false;
  bool powered_ = true;
  uint32_t next_datagram_id_ = 1;
  std::unordered_set<HostId> blocked_in_;
  std::unordered_set<HostId> blocked_out_;

  std::unordered_map<HostId, Route> routes_;
  std::optional<Route> default_route_;
  std::unordered_map<uint8_t, ProtocolHandler> protocols_;
  std::map<ReassemblyKey, Reassembly> reassembly_;
  NodeStats stats_;

  static constexpr SimTime kReassemblyTimeout = Seconds(15);
};

}  // namespace renonfs

#endif  // RENONFS_SRC_NET_NODE_H_
