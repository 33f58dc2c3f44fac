// Critical-path latency attribution under contrasting fault regimes.
//
// The span collector (src/obs/span.h) claims to answer "where did the
// latency go?" — this bench makes the claim falsifiable. Two cells run the
// same op-mix workload with opposite bottlenecks:
//
//   loss_storm  sustained 25% frame loss on the client→server LAN. Lost
//               calls and lost replies both burn RTO backoff on the client,
//               so attributed time must be dominated by backoff_wait (plus
//               network for the extra transmissions).
//   disk_slow   the server disk 12x slower for most of the run. Nothing is
//               lost; requests pile up behind the device queue and the nfsd
//               slots, so attribution must shift to the disk components
//               (disk_queue + disk_service) and server_queue.
//
// In --check mode the bench exits nonzero unless each cell's attribution is
// dominated by the regime that was injected, the conservation invariant held
// on every sampled op, and the collector never spilled to the heap.
//
// Flags:
//   --quick   shorter workload (scripts/check.sh runs `--quick --check`)
//   --check   assert the expectations above; exit 1 on violation
//   --out F   write the per-cell component shares as JSON (default
//             BENCH_breakdown.json in full mode, none in --quick)
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <string>
#include <utility>
#include <vector>

#include "src/util/table.h"
#include "src/workload/chaos.h"
#include "src/workload/world.h"

using namespace renonfs;

namespace {

bool g_quick = false;
int g_failures = 0;

void Check(bool ok, const std::string& what) {
  if (!ok) {
    std::fprintf(stderr, "CHECK FAILED: %s\n", what.c_str());
    ++g_failures;
  }
}

struct CellResult {
  std::string name;
  ChaosReport report;
  // Shares for the components the cell is expected to be dominated by and
  // the grand total share they cover.
  double expected_share = 0.0;
};

double ShareOf(const ChaosReport& report, const std::vector<std::string>& components) {
  double share = 0.0;
  for (const auto& [name, fraction] : report.top_components) {
    for (const std::string& want : components) {
      if (name == want) {
        share += fraction;
      }
    }
  }
  return share;
}

std::string TopComponentsString(const ChaosReport& report, size_t n) {
  std::string out;
  for (size_t i = 0; i < report.top_components.size() && i < n; ++i) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%s%s %.0f%%", i ? ", " : "",
                  report.top_components[i].first.c_str(),
                  report.top_components[i].second * 100.0);
    out += buf;
  }
  return out;
}

// Span-collector counters live in the run's registry snapshot as obs.span.*.
uint64_t SpanCounter(const ChaosReport& report, const std::string& name) {
  return report.metrics.Value("obs.span." + name);
}

ChaosReport RunCell(const std::string& name, const std::vector<FaultSpec>& faults) {
  WorldOptions options;
  options.mount.hard = true;
  World world(options);

  ChaosOptions chaos;
  chaos.workload = ChaosWorkload::kOpMix;
  chaos.opmix.operations = g_quick ? 120 : 400;
  chaos.schedule = faults;
  ChaosReport report = RunChaos(world, chaos);

  if (!report.integrity_ok || SpanCounter(report, "conservation_failures") > 0) {
    DumpObservability(world, std::cerr);
  }
  std::fprintf(stderr, "cell %-10s ops=%llu top: %s\n", name.c_str(),
               static_cast<unsigned long long>(SpanCounter(report, "ops_completed")),
               TopComponentsString(report, 4).c_str());
  return report;
}

void WriteJson(const std::string& path, const std::vector<CellResult>& cells) {
  std::ofstream out(path);
  if (!out) {
    std::fprintf(stderr, "bench_breakdown: cannot write %s\n", path.c_str());
    ++g_failures;
    return;
  }
  out << "{\n  \"bench\": \"bench_breakdown\",\n";
  out << "  \"mode\": \"" << (g_quick ? "quick" : "full") << "\",\n";
  out << "  \"cells\": [\n";
  for (size_t i = 0; i < cells.size(); ++i) {
    const CellResult& cell = cells[i];
    out << "    {\"name\": \"" << cell.name << "\", \"ops\": "
        << SpanCounter(cell.report, "ops_completed") << ", \"expected_share\": ";
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.4f", cell.expected_share);
    out << buf << ", \"top_components\": [";
    for (size_t c = 0; c < cell.report.top_components.size(); ++c) {
      std::snprintf(buf, sizeof(buf), "%.4f", cell.report.top_components[c].second);
      out << (c ? ", " : "") << "{\"component\": \""
          << cell.report.top_components[c].first << "\", \"share\": " << buf << "}";
    }
    out << "]}" << (i + 1 < cells.size() ? "," : "") << "\n";
  }
  out << "  ],\n";
  out << "  \"gate\": \"scripts/check.sh runs `bench_breakdown --quick --check`:"
         " the loss-storm cell must be backoff/network-dominated, the disk-slow"
         " cell disk/server-queue-dominated, conservation exact, zero pool"
         " spills\"\n}\n";
  std::printf("wrote %s (%zu cells)\n", path.c_str(), cells.size());
}

}  // namespace

int main(int argc, char** argv) {
  bool check = false;
  std::string out_path;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) {
      g_quick = true;
    } else if (std::strcmp(argv[i], "--check") == 0) {
      check = true;
    } else if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) {
      out_path = argv[++i];
    } else {
      std::fprintf(stderr, "usage: %s [--quick] [--check] [--out <json>]\n", argv[0]);
      return 2;
    }
  }
  if (out_path.empty() && !g_quick) {
    out_path = "BENCH_breakdown.json";
  }

  std::vector<CellResult> cells;

  {
    // Loss storm: 25% frame loss for nearly the whole run. Every lost call
    // or reply costs at least one RTO on the client.
    FaultSpec loss;
    loss.kind = FaultKind::kLossStorm;
    loss.at = Seconds(1);
    loss.duration = Seconds(g_quick ? 120 : 400);
    loss.magnitude = 0.25;
    CellResult cell;
    cell.name = "loss_storm";
    cell.report = RunCell(cell.name, {loss});
    cell.expected_share = ShareOf(cell.report, {"backoff_wait", "network"});
    cells.push_back(std::move(cell));
  }
  {
    // Slow disk: every disk op 12x slower. Requests succeed but queue behind
    // the device and the nfsd slots.
    FaultSpec slow;
    slow.kind = FaultKind::kDiskSlow;
    slow.at = Seconds(1);
    slow.duration = Seconds(g_quick ? 120 : 400);
    slow.magnitude = 12.0;
    CellResult cell;
    cell.name = "disk_slow";
    cell.report = RunCell(cell.name, {slow});
    cell.expected_share =
        ShareOf(cell.report, {"disk_queue", "disk_service", "server_queue"});
    cells.push_back(std::move(cell));
  }

  TextTable table("Latency attribution by fault regime");
  table.SetHeader({"cell", "ops", "conserved", "spills", "expected share", "top components"});
  for (const CellResult& cell : cells) {
    const uint64_t ops = SpanCounter(cell.report, "ops_completed");
    table.AddRow({cell.name, std::to_string(ops),
                  std::to_string(ops - SpanCounter(cell.report, "conservation_failures")) +
                      "/" + std::to_string(ops),
                  std::to_string(SpanCounter(cell.report, "pool_exhausted_drops")),
                  TextTable::Num(cell.expected_share * 100.0, 1) + "%",
                  TopComponentsString(cell.report, 3)});
  }
  std::printf("%s\n", table.Render().c_str());

  for (const CellResult& cell : cells) {
    Check(cell.report.workload_status.ok(), cell.name + ": workload failed");
    Check(cell.report.integrity_ok, cell.name + ": integrity audit failed");
    Check(SpanCounter(cell.report, "ops_completed") > 0, cell.name + ": no ops attributed");
    Check(SpanCounter(cell.report, "conservation_failures") == 0,
          cell.name + ": conservation invariant violated");
    Check(SpanCounter(cell.report, "pool_exhausted_drops") == 0,
          cell.name + ": span pool spilled");
    // The injected regime must own the majority of attributed time, and the
    // single dominant component must belong to it.
    Check(cell.expected_share > 0.5,
          cell.name + ": expected components cover only " +
              std::to_string(cell.expected_share * 100.0) + "% of attributed time");
  }
  if (cells.size() == 2) {
    // The two regimes must be distinguishable: the loss cell's backoff share
    // must beat the disk cell's, and vice versa for the disk components.
    Check(ShareOf(cells[0].report, {"backoff_wait"}) >
              ShareOf(cells[1].report, {"backoff_wait"}),
          "loss_storm is not more backoff-bound than disk_slow");
    Check(ShareOf(cells[1].report, {"disk_queue", "disk_service"}) >
              ShareOf(cells[0].report, {"disk_queue", "disk_service"}),
          "disk_slow is not more disk-bound than loss_storm");
  }

  if (!out_path.empty()) {
    WriteJson(out_path, cells);
  }

  if (check && g_failures > 0) {
    std::fprintf(stderr, "bench_breakdown: %d check(s) failed\n", g_failures);
    return 1;
  }
  if (check) {
    std::printf("bench_breakdown: attribution matches the injected regimes\n");
  }
  return 0;
}
