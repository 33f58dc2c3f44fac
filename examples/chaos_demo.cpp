// Chaos demo: run a workload while the server crashes and reboots and a
// link flaps, then print the fault trace and the recovery report.
//
//   ./build/examples/chaos_demo [hard|soft|intr|tcp|lease|corrupt] [lan|ring|slow] [andrew|cd]
//   ./build/examples/chaos_demo scenario <file> [--trace <out>]
//   ./build/examples/chaos_demo --replay <trace>
//
// `scenario` runs a scenario-DSL file (src/scenario) under the chaos harness
// and evaluates its gates; a failing run writes a replayable trace artifact
// (default chaos_<name>.trace) and exits 1. `--replay` re-executes a recorded
// trace with the recorded seed pinned and asserts divergence-free
// re-execution — same fault events, op log, outcome, and metrics snapshot
// hash — exiting 1 on any divergence.
//
// hard (default) rides out the outage and must end byte-identical; soft
// surfaces ETIMEDOUT instead of hanging; intr interrupts the stuck calls
// three seconds into the outage; tcp runs a hard Reno-TCP mount whose
// transport must notice the dead connection, reconnect from a fresh
// ephemeral port and re-issue the in-flight calls; lease runs an NQNFS
// lease mount (DESIGN.md Section 12) through the same crash — the reboot
// bumps the boot verifier, the client's leases go stale, and the run must
// still end byte-identical with zero writes through a stale lease; corrupt
// replaces the
// crash with a wire-corruption storm (bit flips, truncation, duplication,
// reordering), a burst of garbage RPCs, and a disk-full window — the run
// must still end byte-identical, with every fault counted in the summary.
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "src/scenario/runner.h"
#include "src/workload/chaos.h"
#include "src/workload/world.h"

using namespace renonfs;

namespace {

void PrintReport(const ChaosReport& report) {
  std::printf("fault trace:\n");
  for (const std::string& line : report.fault_trace) {
    std::printf("  %s\n", line.c_str());
  }
  std::printf("workload: %s\n", report.workload_status.ok()
                                    ? "ok"
                                    : report.workload_status.ToString().c_str());
  std::printf("integrity: %s (%zu files compared)\n",
              report.integrity_ok ? "byte-identical" : report.integrity_error.c_str(),
              report.files_compared);
  std::printf("%s\n", report.SummaryLine().c_str());
}

int RunScenarioFile(const std::string& path, std::string trace_path) {
  std::ifstream in(path);
  if (!in) {
    std::fprintf(stderr, "chaos_demo: cannot read %s\n", path.c_str());
    return 2;
  }
  std::ostringstream text;
  text << in.rdbuf();
  auto scenario_or = Scenario::Parse(text.str());
  if (!scenario_or.ok()) {
    std::fprintf(stderr, "chaos_demo: %s: %s\n", path.c_str(),
                 scenario_or.status().ToString().c_str());
    return 2;
  }
  auto outcome_or = RunScenario(scenario_or.value());
  if (!outcome_or.ok()) {
    std::fprintf(stderr, "chaos_demo: %s\n", outcome_or.status().ToString().c_str());
    return 2;
  }
  const ScenarioOutcome& outcome = outcome_or.value();
  std::printf("scenario %s: seed=%llu\n", outcome.scenario.name.c_str(),
              static_cast<unsigned long long>(outcome.scenario.seed));
  PrintReport(outcome.report);
  if (outcome.passed()) {
    std::printf("gates: all passed\n");
    if (!trace_path.empty()) {
      // Record on demand even for a green run (e.g. to pin a baseline).
      Status written = WriteTraceFile(outcome.Trace(), trace_path);
      std::printf("trace: %s\n", written.ok() ? trace_path.c_str()
                                              : written.ToString().c_str());
    }
    return 0;
  }
  for (const std::string& violation : outcome.gate_violations) {
    std::printf("gate violated: %s\n", violation.c_str());
  }
  if (trace_path.empty()) {
    trace_path = "chaos_" + outcome.scenario.name + ".trace";
  }
  Status written = WriteTraceFile(outcome.Trace(), trace_path);
  if (written.ok()) {
    std::printf("replayable trace written to %s\n", trace_path.c_str());
    std::printf("reproduce with: chaos_demo --replay %s\n", trace_path.c_str());
  } else {
    std::fprintf(stderr, "chaos_demo: trace write failed: %s\n",
                 written.ToString().c_str());
  }
  return 1;
}

int ReplayTraceFile(const std::string& path) {
  auto record_or = ReadTraceFile(path);
  if (!record_or.ok()) {
    std::fprintf(stderr, "chaos_demo: %s: %s\n", path.c_str(),
                 record_or.status().ToString().c_str());
    return 2;
  }
  const TraceRecord& record = record_or.value();
  std::printf("replaying %s: scenario %s seed=%llu (RENONFS_SEED ignored)\n",
              path.c_str(), record.scenario.name.c_str(),
              static_cast<unsigned long long>(record.scenario.seed));
  auto replay_or = ReplayTrace(record);
  if (!replay_or.ok()) {
    std::fprintf(stderr, "chaos_demo: %s\n", replay_or.status().ToString().c_str());
    return 2;
  }
  const ReplayResult& replay = replay_or.value();
  PrintReport(replay.outcome.report);
  for (const std::string& violation : replay.outcome.gate_violations) {
    std::printf("gate violated (as recorded): %s\n", violation.c_str());
  }
  if (replay.diverged()) {
    for (const std::string& divergence : replay.divergences) {
      std::printf("DIVERGENCE: %s\n", divergence.c_str());
    }
    std::printf("replay DIVERGED (%zu difference(s))\n", replay.divergences.size());
    return 1;
  }
  std::printf("replay divergence-free: snapshot hash 0x%016llx matches the record\n",
              static_cast<unsigned long long>(replay.outcome.report.snapshot_hash));
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const std::string mode = argc > 1 ? argv[1] : "hard";
  if (mode == "scenario") {
    if (argc < 3) {
      std::fprintf(stderr, "usage: %s scenario <file> [--trace <out>]\n", argv[0]);
      return 2;
    }
    std::string trace_path;
    if (argc > 4 && std::strcmp(argv[3], "--trace") == 0) {
      trace_path = argv[4];
    }
    return RunScenarioFile(argv[2], trace_path);
  }
  if (mode == "--replay") {
    if (argc < 3) {
      std::fprintf(stderr, "usage: %s --replay <trace>\n", argv[0]);
      return 2;
    }
    return ReplayTraceFile(argv[2]);
  }
  const std::string topo = argc > 2 ? argv[2] : "slow";
  const std::string load = argc > 3 ? argv[3] : "cd";

  WorldOptions options;
  options.topology = topo == "lan"    ? TopologyKind::kSameLan
                     : topo == "ring" ? TopologyKind::kTokenRingPath
                                      : TopologyKind::kSlowLinkPath;
  if (mode == "tcp") {
    options.mount = NfsMountOptions::RenoTcp();
    options.mount.hard = true;
  } else if (mode == "lease") {
    options.mount = NfsMountOptions::Leases();
    options.mount.hard = true;
    options.server.leases = true;
  } else {
    options.mount.hard = mode != "soft";
    options.mount.intr = mode == "intr";
    options.mount.max_tries = 3;
  }
  World world(options);

  ChaosOptions chaos;
  chaos.workload = load == "andrew" ? ChaosWorkload::kAndrew : ChaosWorkload::kCreateDelete;
  chaos.andrew.directories = 3;
  chaos.andrew.source_files = 12;
  chaos.andrew.mean_file_bytes = 1500;
  chaos.iterations = 30;
  chaos.opmix.file_bytes = 10 * 1024;
  std::vector<const char*> faults = {"crash at=2s dur=12s",
                                     "link_flap at=20s count=1 dur=1s period=1s"};
  if (mode == "corrupt") {
    faults = {
        "corruption_storm at=1s dur=30s flip=0.1 trunc=0.03 dup=0.05 reorder=0.05 rdelay=30ms",
        "garbage_datagrams at=1s dur=30s count=25", "disk_full at=8s blocks=64",
        "disk_restore at=20s"};
  }
  for (const char* line : faults) {
    chaos.schedule.push_back(FaultSpecFromString(line).value());
  }

  if (options.mount.intr) {
    // Pull the plug on the stuck calls three seconds into the outage.
    world.scheduler().Schedule(chaos.schedule.front().at + Seconds(3), [&world]() {
      const size_t n = world.client().Interrupt();
      std::printf("interrupted %zu in-flight call(s)\n", n);
    });
  }

  ChaosReport report = RunChaos(world, chaos);

  std::printf("fault trace:\n");
  for (const std::string& line : report.fault_trace) {
    std::printf("  %s\n", line.c_str());
  }
  std::printf("workload: %s\n", report.workload_status.ok()
                                    ? "ok"
                                    : report.workload_status.ToString().c_str());
  std::printf("integrity: %s (%zu files compared)\n",
              report.integrity_ok ? "byte-identical" : report.integrity_error.c_str(),
              report.files_compared);
  std::printf("recovery: %llu not-responding / %llu ok events, longest outage %.1fs\n",
              static_cast<unsigned long long>(report.recovery.not_responding_events),
              static_cast<unsigned long long>(report.recovery.server_ok_events),
              ToSeconds(report.recovery.longest_outage));
  std::printf("absorbed retry errors: %llu   dup-cache replays: %llu   reconnects: %llu\n",
              static_cast<unsigned long long>(report.retry_errors_absorbed),
              static_cast<unsigned long long>(
                  report.metrics.Value("server.rpc.duplicate_cache_replays")),
              static_cast<unsigned long long>(report.recovery.reconnects));
  if (mode == "lease") {
    const NfsClientStats& s = world.client().stats();
    std::printf("leases: %llu granted, %llu renewed, %llu expired/stale, "
                "%llu recalls, %llu stale-lease writes (must be 0)\n",
                static_cast<unsigned long long>(s.leases_granted),
                static_cast<unsigned long long>(s.lease_renewals),
                static_cast<unsigned long long>(s.lease_expirations),
                static_cast<unsigned long long>(s.lease_recalls),
                static_cast<unsigned long long>(s.stale_lease_writes));
    if (s.stale_lease_writes != 0) { return 1; }
  }
  std::printf("%s\n", report.SummaryLine().c_str());
  return report.integrity_ok ? 0 : 1;
}
