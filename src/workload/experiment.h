// Shared harness for the Section 4/5 experiments: builds a world for a
// (topology, transport) pair, runs an Nhfsstone point, and returns the
// measurements the paper's graphs and tables report.
#ifndef RENONFS_SRC_WORKLOAD_EXPERIMENT_H_
#define RENONFS_SRC_WORKLOAD_EXPERIMENT_H_

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "src/workload/nhfsstone.h"
#include "src/workload/world.h"

namespace renonfs {

// The old name of NfsTransportKind, kept only because perfbench/cells.cc
// still spells it; new code names NfsTransportKind.
using TransportChoice = NfsTransportKind;

// The column label the paper's graphs and tables give each transport.
const char* TransportKindName(NfsTransportKind kind);

struct ExperimentPoint {
  TopologyKind topology = TopologyKind::kSameLan;
  NfsTransportKind transport = NfsTransportKind::kUdpFixedRto;
  NhfsstoneMix mix = NhfsstoneMix::PureLookup();
  double load_ops_per_sec = 10;
  int children = 0;  // 0: choose from the load
  SimTime duration = Seconds(120);
  uint64_t seed = 1;
  NfsServerOptions server = NfsServerOptions::Reno();
  bool server_name_cache = true;  // Graph #8-9 ablation
  // Transport tuning ablations (Section 4).
  int big_rto_multiplier = 4;     // "A+4D" vs the original "A+2D"
  bool cwnd_slow_start = false;   // the removed slow start
  // Instrumentation hook: per completed RPC (class, rtt, rto).
  RpcClientTransport::RttProbe rtt_probe;
};

struct ExperimentMeasurement {
  NhfsstoneResult nhfsstone;
};

// Builds the world, preloads the Nhfsstone subtree, runs warmup+measurement.
ExperimentMeasurement RunNhfsstonePoint(const ExperimentPoint& point);

// Creates the raw RPC transport of a kind (used by RunNhfsstonePoint and
// directly by the trace benches).
std::unique_ptr<RpcClientTransport> MakeRawTransport(World& world, NfsTransportKind kind,
                                                     const ExperimentPoint& point);

}  // namespace renonfs

#endif  // RENONFS_SRC_WORKLOAD_EXPERIMENT_H_
