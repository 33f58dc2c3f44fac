#include "src/workload/experiment.h"

namespace renonfs {

const char* TransportChoiceName(TransportChoice choice) {
  switch (choice) {
    case TransportChoice::kUdpFixedRto:
      return "UDP rto=1s";
    case TransportChoice::kUdpDynamicRto:
      return "UDP rto=A+4D";
    case TransportChoice::kTcp:
      return "TCP";
  }
  return "?";
}

std::unique_ptr<RpcClientTransport> MakeRawTransport(World& world, TransportChoice choice,
                                                     const ExperimentPoint& point) {
  const SockAddr server{world.server_node()->id(), kNfsPort};
  switch (choice) {
    case TransportChoice::kUdpFixedRto: {
      UdpRpcOptions options = UdpRpcOptions::FixedRto(Seconds(1));
      return std::make_unique<UdpRpcTransport>(world.client_udp(0), 951, server, options);
    }
    case TransportChoice::kUdpDynamicRto: {
      UdpRpcOptions options = UdpRpcOptions::DynamicRto(Seconds(1));
      options.rto.big_deviation_multiplier = point.big_rto_multiplier;
      options.cwnd.slow_start = point.cwnd_slow_start;
      return std::make_unique<UdpRpcTransport>(world.client_udp(0), 951, server, options);
    }
    case TransportChoice::kTcp: {
      TcpRpcOptions options;
      options.tcp.mss = point.topology == TopologyKind::kSameLan ? 1460 : 966;
      return std::make_unique<TcpRpcTransport>(world.client_tcp(0), 951, server, options);
    }
  }
  return nullptr;
}

ExperimentMeasurement RunNhfsstonePoint(const ExperimentPoint& point) {
  WorldOptions world_options;
  world_options.topology = point.topology;
  world_options.topology_options.seed = point.seed;
  world_options.server = point.server;
  World world(world_options);
  world.server().set_server_name_cache_enabled(point.server_name_cache);

  auto transport = MakeRawTransport(world, point.transport, point);
  if (point.rtt_probe) {
    transport->set_rtt_probe(point.rtt_probe);
  }
  RawNfsCaller caller(transport.get());

  NhfsstoneOptions options;
  options.target_ops_per_sec = point.load_ops_per_sec;
  options.mix = point.mix;
  options.duration = point.duration;
  options.seed = point.seed;
  options.children = point.children > 0 ? point.children
                                        : (point.load_ops_per_sec > 30 ? 8 : 4);
  Nhfsstone bench(world, caller, options);
  bench.PreloadTree();

  ExperimentMeasurement measurement;
  measurement.nhfsstone = bench.Run();
  return measurement;
}

}  // namespace renonfs
