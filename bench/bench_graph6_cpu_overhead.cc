// Graph #6: server CPU overhead per RPC, UDP vs TCP, for an Nhfsstone read
// mix on the same LAN. The paper's headline: TCP costs ~7 ms more CPU per
// 8 KB read RPC on a MicroVAXII, about 20% over UDP overall, and ~1 ms more
// per lookup RPC.
//
// CPU accounting comes from CpuProfile snapshots over the measurement
// window (src/obs/profiler.h), which also attributes the TCP premium: the
// extra ms/op shows up almost entirely in the tcp + checksum + copy rows.
#include <cstdio>

#include "src/util/table.h"
#include "src/workload/experiment.h"

using namespace renonfs;

namespace {

ExperimentMeasurement Measure(TransportChoice transport, NhfsstoneMix mix, double load) {
  ExperimentPoint point;
  point.topology = TopologyKind::kSameLan;
  point.transport = transport;
  point.mix = mix;
  point.load_ops_per_sec = load;
  point.duration = Seconds(180);
  point.seed = 42;
  return RunNhfsstonePoint(point);
}

}  // namespace

int main() {
  TextTable table("Graph #6 — server CPU per RPC (ms), UDP vs TCP, same LAN");
  table.SetHeader({"mix", "load rpc/s", "UDP (ms/op)", "TCP (ms/op)", "TCP/UDP", "TCP-UDP (ms)",
                   "UDP proto %", "TCP proto %"});

  struct Row {
    const char* name;
    NhfsstoneMix mix;
    double load;
  };
  const Row rows[] = {
      {"read-heavy", NhfsstoneMix::ReadHeavy(), 6},
      {"read-heavy", NhfsstoneMix::ReadHeavy(), 12},
      {"50/50 read/lookup", NhfsstoneMix::ReadLookup(), 10},
      {"100% lookup", NhfsstoneMix::PureLookup(), 20},
  };
  // "proto %": share of busy server CPU below RPC — interface, IP, transport,
  // checksums and copies — i.e. what the transport choice can change.
  const std::initializer_list<CostCategory> kProtocol = {
      CostCategory::kCopy,    CostCategory::kChecksum, CostCategory::kIfInput,
      CostCategory::kIfOutput, CostCategory::kIp,      CostCategory::kUdp,
      CostCategory::kTcp};
  ExperimentMeasurement last_udp, last_tcp;
  for (const Row& row : rows) {
    const ExperimentMeasurement udp = Measure(TransportChoice::kUdpFixedRto, row.mix, row.load);
    const ExperimentMeasurement tcp = Measure(TransportChoice::kTcp, row.mix, row.load);
    const double udp_ms = udp.nhfsstone.server_cpu_ms_per_op;
    const double tcp_ms = tcp.nhfsstone.server_cpu_ms_per_op;
    table.AddRow({row.name, TextTable::Num(row.load, 0), TextTable::Num(udp_ms, 2),
                  TextTable::Num(tcp_ms, 2), TextTable::Num(tcp_ms / udp_ms, 2),
                  TextTable::Num(tcp_ms - udp_ms, 2),
                  TextTable::Num(100.0 * udp.nhfsstone.server_profile.BusyShare(kProtocol), 1),
                  TextTable::Num(100.0 * tcp.nhfsstone.server_profile.BusyShare(kProtocol), 1)});
    last_udp = udp;
    last_tcp = tcp;
  }
  std::printf("%s\n", table.Render().c_str());
  std::printf("%s\n", last_udp.nhfsstone.server_profile.FlatTable("100% lookup, UDP").c_str());
  std::printf("%s\n", last_tcp.nhfsstone.server_profile.FlatTable("100% lookup, TCP").c_str());
  std::printf("Paper: ~7 ms/RPC extra CPU for the read mix, ~1 ms for lookups;\n"
              "overall TCP CPU overhead about 20%% above UDP.\n");
  return 0;
}
