// A complete simulated NFS installation for benchmarks and examples:
// topology + server (LocalFs, caches) + one or more clients, with helpers to
// run coroutine workloads to completion and to sample server CPU.
#ifndef RENONFS_SRC_WORKLOAD_WORLD_H_
#define RENONFS_SRC_WORKLOAD_WORLD_H_

#include <memory>
#include <string>
#include <vector>

#include "src/fs/local_fs.h"
#include "src/net/network.h"
#include "src/net/udp.h"
#include "src/nfs/client.h"
#include "src/nfs/server.h"
#include "src/obs/flight.h"
#include "src/obs/metrics.h"
#include "src/obs/profiler.h"
#include "src/obs/span.h"
#include "src/obs/trace.h"
#include "src/sim/audit.h"
#include "src/tcp/tcp.h"
#include "src/util/logging.h"
#include "src/util/seed.h"

namespace renonfs {

struct WorldOptions {
  TopologyKind topology = TopologyKind::kSameLan;
  TopologyOptions topology_options;  // defaults include background traffic
  NfsMountOptions mount = NfsMountOptions::Reno();
  NfsServerOptions server = NfsServerOptions::Reno();
  size_t clients = 1;
  // Run the invariant auditor's quiesce check when the World is destroyed
  // (zero Buf loans, empty disk queue, no orphaned cache clusters). On by
  // default so every test installation is audited; see src/sim/audit.h.
  bool quiesce_audit = true;
  // Honor the RENONFS_SEED env override of topology_options.seed (the single
  // knob that re-seeds a whole installation, see src/util/seed.h). Replay
  // pins the recorded seed by turning this off — an exported RENONFS_SEED
  // must never divert a trace re-execution.
  bool seed_from_env = true;
};

class World {
 public:
  explicit World(WorldOptions options) : options_(std::move(options)) {
    if (options_.seed_from_env) {
      options_.topology_options.seed = EffectiveSeed(options_.topology_options.seed);
    }
    topo_ = BuildTopology(options_.topology, options_.topology_options);
    fs_ = std::make_unique<LocalFs>(scheduler());
    server_udp_ = std::make_unique<UdpStack>(topo_.server);
    server_tcp_ = std::make_unique<TcpStack>(topo_.server);
    server_ = std::make_unique<NfsServer>(topo_.server, fs_.get(), options_.server);
    server_->AttachUdp(server_udp_.get());
    server_->AttachTcp(server_tcp_.get());

    NfsMountOptions mount = options_.mount;
    if (options_.topology != TopologyKind::kSameLan) {
      mount.tcp.mss = 966;  // below the smallest path MTU (the 56K serial line)
    }

    std::vector<Node*> client_nodes;
    client_nodes.push_back(topo_.client);
    Medium* client_lan = topo_.path_media.front();
    for (size_t i = 1; i < options_.clients; ++i) {
      Node* extra = topo_.network->AddNode(options_.topology_options.host_profile,
                                           "client" + std::to_string(i));
      extra->AttachMedium(client_lan);
      CHECK(options_.topology == TopologyKind::kSameLan)
          << "multiple clients are only supported on the same-LAN topology";
      extra->AddRoute(topo_.server->id(), client_lan, topo_.server->id());
      topo_.server->AddRoute(extra->id(), client_lan, extra->id());
      client_nodes.push_back(extra);
    }
    for (size_t i = 0; i < options_.clients; ++i) {
      client_udp_.push_back(std::make_unique<UdpStack>(client_nodes[i]));
      client_tcp_.push_back(std::make_unique<TcpStack>(client_nodes[i]));
      clients_.push_back(std::make_unique<NfsClient>(
          client_nodes[i], client_udp_.back().get(), client_tcp_.back().get(),
          SockAddr{topo_.server->id(), kNfsPort}, server_->RootFh(), mount,
          static_cast<uint16_t>(890 + i)));
    }
    InitObservability();
    InitAuditor();
  }

  ~World() {
    if (!options_.quiesce_audit) {
      return;
    }
    QuiesceReport report = auditor_->DrainAndAudit(scheduler());
    CHECK(report.ok()) << report.Summary();
  }

  Scheduler& scheduler() { return topo_.scheduler(); }
  LocalFs& fs() { return *fs_; }
  NfsServer& server() { return *server_; }
  NfsClient& client(size_t i = 0) { return *clients_[i]; }
  size_t client_count() const { return clients_.size(); }
  Node* server_node() { return topo_.server; }
  Topology& topology() { return topo_; }
  const WorldOptions& options() const { return options_; }
  // The seed the installation actually runs with (after any RENONFS_SEED
  // override); failure artifacts record and print this.
  uint64_t seed() const { return options_.topology_options.seed; }

  // Extra transports (e.g. the Nhfsstone raw caller) bind through these.
  UdpStack* client_udp(size_t i = 0) { return client_udp_[i].get(); }
  TcpStack* client_tcp(size_t i = 0) { return client_tcp_[i].get(); }

  // Server-side stacks, for fault-injection telemetry (checksum drops etc).
  UdpStack* server_udp() { return server_udp_.get(); }
  TcpStack* server_tcp() { return server_tcp_.get(); }

  // Runs the scheduler until the task finishes.
  template <typename T>
  T Run(CoTask<T>& task, SimTime deadline_from_now = Seconds(24 * 3600)) {
    const SimTime deadline = scheduler().now() + deadline_from_now;
    while (!task.done() && scheduler().now() < deadline) {
      scheduler().RunUntil(scheduler().now() + Milliseconds(500));
    }
    CHECK(task.done()) << "workload did not finish before the deadline";
    if constexpr (!std::is_void_v<T>) {
      return task.Take();
    }
  }

  // Flat server CPU profile by cost category at the current sim time;
  // subtract two snapshots with CpuProfile::Delta for a window.
  CpuProfile ServerCpuProfile() {
    return CpuProfile::Capture(topo_.server->cpu(), topo_.scheduler().now());
  }

  // Per-RPC trace spans (every layer records into this) and the unified
  // metrics registry (every stats struct in the installation is registered).
  Tracer& tracer() { return *tracer_; }
  MetricsRegistry& metrics() { return *metrics_; }
  MetricsSnapshot MetricsNow() { return metrics_->Snapshot(topo_.scheduler().now()); }

  // Causal span collector, attached to the tracer: turns the per-RPC event
  // stream of every op into critical-path breakdowns (src/obs/span.h).
  SpanCollector& spans() { return *spans_; }
  // Time-series flight recorder over the metrics registry. Constructed but
  // not started — call flight().Start() (chaos/soak harnesses do) to begin
  // capturing periodic delta frames.
  FlightRecorder& flight() { return *flight_; }

  // Runtime invariant auditor over this installation's caches and disk; the
  // destructor runs DrainAndAudit() and CHECKs the report (see WorldOptions).
  InvariantAuditor& auditor() { return *auditor_; }

 private:
  // Builds the tracer + registry and wires them through the server, every
  // client, and every medium on the client->server path (world.cc).
  void InitObservability();
  // Registers the server/client buffer caches and the server disk with the
  // invariant auditor (world.cc).
  void InitAuditor();

  WorldOptions options_;
  Topology topo_;
  std::unique_ptr<LocalFs> fs_;
  std::unique_ptr<UdpStack> server_udp_;
  std::unique_ptr<TcpStack> server_tcp_;
  std::unique_ptr<NfsServer> server_;
  std::vector<std::unique_ptr<UdpStack>> client_udp_;
  std::vector<std::unique_ptr<TcpStack>> client_tcp_;
  std::vector<std::unique_ptr<NfsClient>> clients_;
  std::unique_ptr<Tracer> tracer_;
  std::unique_ptr<MetricsRegistry> metrics_;
  std::unique_ptr<SpanCollector> spans_;
  std::unique_ptr<FlightRecorder> flight_;
  std::unique_ptr<InvariantAuditor> auditor_;
};

}  // namespace renonfs

#endif  // RENONFS_SRC_WORKLOAD_WORLD_H_
