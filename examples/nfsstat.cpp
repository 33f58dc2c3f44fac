// nfsstat for the simulator: run a short built-in workload, then print the
// 4.3BSD-`nfsstat`-style report off the unified metrics registry — client
// and server RPC counts, retransmit/timeout stats, the server's dup-cache
// hit rate, per-procedure operation counts, and per-procedure RPC latency
// percentiles from the registry's log2 histograms.
//
//   ./build/examples/nfsstat [--json] [--trace FILE] [--breakdown]
//                            [--timeline FILE] [--chaos] [--seconds N]
//
//   --json       dump the full registry (counters + histograms) as JSON
//                instead of the formatted tables
//   --trace FILE also write the per-RPC trace ring as Chrome-trace JSON
//                (load in chrome://tracing or Perfetto)
//   --breakdown  also print the critical-path latency attribution table:
//                per-proc component shares ("p99 lookup = 71% backoff_wait,
//                18% disk_queue, ...") from the span collector
//   --timeline FILE  write the flight recorder's delta-frame timeline as
//                JSONL (one metrics-delta frame per line; .csv extension
//                switches to long-format CSV)
//   --chaos      crash the server mid-run so the retransmit/recovery rows
//                have something to show
//   --seconds N  approximate workload length (default 20)
#include <cstdio>
#include <algorithm>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include "src/workload/chaos.h"
#include "src/workload/world.h"

using namespace renonfs;

namespace {

// Prints counters nfsstat-style: rows of up to six columns, each column a
// name over its value (and percent of `total` when nonzero).
void PrintProcTable(const MetricsSnapshot& snap, const std::string& prefix) {
  uint64_t total = 0;
  std::vector<std::pair<const char*, uint64_t>> procs;
  for (uint32_t proc = 0; proc < kNfsProcCount; ++proc) {
    const uint64_t n = snap.Value(prefix + NfsProcName(proc));
    procs.emplace_back(NfsProcName(proc), n);
    total += n;
  }
  for (size_t base = 0; base < procs.size(); base += 6) {
    const size_t end = std::min(base + 6, procs.size());
    for (size_t i = base; i < end; ++i) {
      std::printf("%-12s", procs[i].first);
    }
    std::printf("\n");
    for (size_t i = base; i < end; ++i) {
      char cell[32];
      const double pct =
          total == 0 ? 0 : 100.0 * static_cast<double>(procs[i].second) / static_cast<double>(total);
      std::snprintf(cell, sizeof(cell), "%llu %.0f%%",
                    static_cast<unsigned long long>(procs[i].second), pct);
      std::printf("%-12s", cell);
    }
    std::printf("\n");
  }
}

void PrintLatencyTable(World& world) {
  std::printf("\nClient nfs latency (us):\n");
  std::printf("%-10s %8s %8s %8s %8s %8s\n", "proc", "count", "p50", "p95", "p99", "max");
  for (uint32_t proc = 0; proc < kNfsProcCount; ++proc) {
    const Log2Histogram* h =
        world.metrics().FindHistogram(std::string("client.nfs.lat_us.") + NfsProcName(proc));
    if (h == nullptr || h->count() == 0) {
      continue;
    }
    std::printf("%-10s %8llu %8llu %8llu %8llu %8llu\n", NfsProcName(proc),
                static_cast<unsigned long long>(h->count()),
                static_cast<unsigned long long>(h->Percentile(0.50)),
                static_cast<unsigned long long>(h->Percentile(0.95)),
                static_cast<unsigned long long>(h->Percentile(0.99)),
                static_cast<unsigned long long>(h->max()));
  }
}

}  // namespace

int main(int argc, char** argv) {
  bool json = false;
  bool chaos_mode = false;
  bool breakdown = false;
  std::string trace_file;
  std::string timeline_file;
  double seconds = 20;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--json") == 0) {
      json = true;
    } else if (std::strcmp(argv[i], "--chaos") == 0) {
      chaos_mode = true;
    } else if (std::strcmp(argv[i], "--breakdown") == 0) {
      breakdown = true;
    } else if (std::strcmp(argv[i], "--trace") == 0 && i + 1 < argc) {
      trace_file = argv[++i];
    } else if (std::strcmp(argv[i], "--timeline") == 0 && i + 1 < argc) {
      timeline_file = argv[++i];
    } else if (std::strcmp(argv[i], "--seconds") == 0 && i + 1 < argc) {
      seconds = std::atof(argv[++i]);
    } else {
      std::fprintf(stderr,
                   "usage: %s [--json] [--trace FILE] [--breakdown] [--timeline FILE] "
                   "[--chaos] [--seconds N]\n",
                   argv[0]);
      return 2;
    }
  }

  WorldOptions options;
  options.mount.hard = true;
  World world(options);

  // The built-in workload: an Andrew-style compile/copy/scan mix through the
  // full client cache + write-behind path, run under the chaos harness (with
  // every fault disabled unless --chaos) so we inherit its audit + drain.
  ChaosOptions chaos;
  chaos.workload = ChaosWorkload::kAndrew;
  chaos.andrew.directories = 3;
  chaos.andrew.source_files = std::max<size_t>(4, static_cast<size_t>(12 * seconds / 20.0));
  chaos.andrew.mean_file_bytes = 2000;
  if (chaos_mode) {
    chaos.schedule.push_back(FaultSpecFromString("crash at=3s dur=8s").value());
  }
  ChaosReport report = RunChaos(world, chaos);

  const SimTime now = world.scheduler().now();
  if (!trace_file.empty()) {
    std::ofstream out(trace_file);
    out << world.tracer().ToChromeJson();
    if (!out) {
      std::fprintf(stderr, "failed to write %s\n", trace_file.c_str());
      return 1;
    }
    std::fprintf(stderr, "wrote %zu trace events to %s\n", world.tracer().size(),
                 trace_file.c_str());
  }
  if (!timeline_file.empty()) {
    const bool csv = timeline_file.size() > 4 &&
                     timeline_file.compare(timeline_file.size() - 4, 4, ".csv") == 0;
    std::ofstream out(timeline_file);
    out << (csv ? world.flight().ToCsv() : world.flight().ToJsonl());
    if (!out) {
      std::fprintf(stderr, "failed to write %s\n", timeline_file.c_str());
      return 1;
    }
    std::fprintf(stderr, "wrote %zu timeline frames to %s\n", world.flight().size(),
                 timeline_file.c_str());
  }

  if (json) {
    std::printf("%s\n", world.metrics().DumpJson(now).c_str());
    return report.workload_status.ok() && report.integrity_ok ? 0 : 1;
  }

  MetricsSnapshot snap = world.metrics().Snapshot(now);
  const uint64_t calls = snap.Value("client.rpc.calls");
  const uint64_t requests = snap.Value("server.rpc.requests");
  const uint64_t replays = snap.Value("server.rpc.duplicate_cache_replays");
  const uint64_t in_progress = snap.Value("server.rpc.duplicate_in_progress_drops");

  std::printf("Client rpc:\n");
  std::printf("%-12s%-12s%-12s%-12s%-12s%-12s\n", "calls", "replies", "retrans", "timeout",
              "badxid", "badrecord");
  std::printf("%-12llu%-12llu%-12llu%-12llu%-12llu%-12llu\n",
              static_cast<unsigned long long>(calls),
              static_cast<unsigned long long>(snap.Value("client.rpc.replies")),
              static_cast<unsigned long long>(snap.Value("client.rpc.retransmits")),
              static_cast<unsigned long long>(snap.Value("client.rpc.soft_timeouts")),
              static_cast<unsigned long long>(snap.Value("client.rpc.stray_replies")),
              static_cast<unsigned long long>(snap.Value("client.rpc.corrupted_records")));
  std::printf("\nClient nfs:\n");
  PrintProcTable(snap, "client.nfs.proc.");

  std::printf("\nServer rpc:\n");
  std::printf("%-12s%-12s%-12s%-12s%-12s%-12s\n", "calls", "replies", "badcalls", "dupreqs",
              "inprogress", "slotwaits");
  std::printf("%-12llu%-12llu%-12llu%-12llu%-12llu%-12llu\n",
              static_cast<unsigned long long>(requests),
              static_cast<unsigned long long>(snap.Value("server.rpc.replies")),
              static_cast<unsigned long long>(snap.Value("server.rpc.garbage_requests")),
              static_cast<unsigned long long>(replays),
              static_cast<unsigned long long>(in_progress),
              static_cast<unsigned long long>(snap.Value("server.rpc.nfsd_slot_waits")));
  const double hit_rate =
      requests == 0 ? 0
                    : 100.0 * static_cast<double>(replays + in_progress) /
                          static_cast<double>(requests);
  std::printf("dup-cache hit rate: %.2f%% (%llu of %llu calls answered from the cache)\n",
              hit_rate, static_cast<unsigned long long>(replays + in_progress),
              static_cast<unsigned long long>(requests));
  std::printf("\nServer nfs:\n");
  PrintProcTable(snap, "server.nfs.proc.");

  PrintLatencyTable(world);

  if (breakdown) {
    std::printf("\nLatency attribution (%llu ops, conservation %llu/%llu):\n%s",
                static_cast<unsigned long long>(world.spans().stats().ops_completed),
                static_cast<unsigned long long>(world.spans().stats().conservation_checks -
                                                world.spans().stats().conservation_failures),
                static_cast<unsigned long long>(world.spans().stats().conservation_checks),
                world.spans().BreakdownTable().c_str());
  }

  std::printf("\nSim core pools:\n");
  std::printf("%-10s %10s %10s %10s %12s %12s\n", "pool", "total", "in_use", "highwater",
              "fresh", "recycled");
  std::printf("%-10s %10llu %10llu %10llu %12llu %12s\n", "event",
              static_cast<unsigned long long>(snap.Value("sim.pool.event.nodes_total")),
              static_cast<unsigned long long>(snap.Value("sim.pool.event.nodes_in_use")),
              static_cast<unsigned long long>(snap.Value("sim.pool.event.high_water")),
              static_cast<unsigned long long>(snap.Value("sim.pool.event.nodes_total")), "-");
  for (const char* pool : {"mbuf", "cluster"}) {
    const std::string prefix = std::string("sim.pool.") + pool + ".";
    std::printf("%-10s %10llu %10llu %10llu %12llu %12llu\n", pool,
                static_cast<unsigned long long>(snap.Value(prefix + "blocks_total")),
                static_cast<unsigned long long>(snap.Value(prefix + "in_use")),
                static_cast<unsigned long long>(snap.Value(prefix + "high_water")),
                static_cast<unsigned long long>(snap.Value(prefix + "fresh_allocs")),
                static_cast<unsigned long long>(snap.Value(prefix + "recycles")));
  }
  std::printf("event callables spilled to heap: %llu\n",
              static_cast<unsigned long long>(snap.Value("sim.pool.event.callable_heap_allocs")));

  std::printf("\nServer CPU:\n%s\n",
              world.ServerCpuProfile().FlatTable("whole run").c_str());
  std::printf("%s\n", report.SummaryLine().c_str());
  return report.workload_status.ok() && report.integrity_ok ? 0 : 1;
}
