// Graphs #8-#9: server lookup performance, 4.3BSD Reno server vs the
// Ultrix-2.2-class reference port, with the Reno server's name cache on and
// off. The paper's finding: the Reno server is much faster, but disabling
// its name cache closes only a small fraction of the gap — the rest comes
// from vnode-chained buffer lists (cheap buffer-cache searches) versus the
// reference port's global linear scan, plus the layered XDR copies.
#include <cstdio>

#include "src/util/table.h"
#include "src/workload/experiment.h"

using namespace renonfs;

namespace {

struct ServerConfig {
  const char* name;
  NfsServerOptions options;
  bool name_cache;
};

}  // namespace

int main() {
  const ServerConfig configs[] = {
      {"Reno", NfsServerOptions::Reno(), true},
      {"Reno, no name cache", NfsServerOptions::Reno(), false},
      {"Ultrix-like (reference port)", NfsServerOptions::ReferencePort(), false},
  };
  const double loads[] = {10, 20, 30, 40, 55, 70};

  TextTable rtt_table("Graphs #8-9 — Nhfsstone 100% lookup mix, same LAN: avg RTT (ms)");
  TextTable cpu_table("Graphs #8-9 — server CPU per lookup RPC (ms)");
  std::vector<std::string> header = {"offered rpc/s"};
  for (const ServerConfig& config : configs) {
    header.push_back(config.name);
  }
  rtt_table.SetHeader(header);
  cpu_table.SetHeader(header);

  for (double load : loads) {
    std::vector<std::string> rtt_row = {TextTable::Num(load, 0)};
    std::vector<std::string> cpu_row = {TextTable::Num(load, 0)};
    for (const ServerConfig& config : configs) {
      ExperimentPoint point;
      point.topology = TopologyKind::kSameLan;
      point.transport = TransportChoice::kUdpFixedRto;
      point.mix = NhfsstoneMix::PureLookup();
      point.load_ops_per_sec = load;
      point.duration = Seconds(120);
      point.seed = static_cast<uint64_t>(load) * 31 + 5;
      point.server = config.options;
      point.server_name_cache = config.name_cache;
      ExperimentMeasurement m = RunNhfsstonePoint(point);
      rtt_row.push_back(TextTable::Num(m.nhfsstone.rtt_ms.mean(), 1));
      cpu_row.push_back(TextTable::Num(m.nhfsstone.server_cpu_ms_per_op, 2));
    }
    rtt_table.AddRow(rtt_row);
    cpu_table.AddRow(cpu_row);
    std::fflush(stdout);
  }
  std::printf("%s\n%s\n", rtt_table.Render().c_str(), cpu_table.Render().c_str());
  std::printf("Paper: Reno >> Ultrix on lookups; disabling the Reno name cache closes\n"
              "only a small fraction of the gap (vnode-chained buffer lists explain\n"
              "the rest). Note Nhfsstone's long names already defeat name caching\n"
              "(Appendix caveat 1), which is why the middle column barely moves.\n");
  return 0;
}
