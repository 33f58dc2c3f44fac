#include "src/scenario/runner.h"

#include <algorithm>
#include <cstdio>
#include <utility>

#include "src/util/logging.h"

namespace renonfs {
namespace {

// First mismatch between two ordered event logs, reported with its index and
// both lines (or "<absent>"): the line-level answer to "where did the replay
// fork off?".
void CompareLogs(const char* what, const std::vector<std::string>& recorded,
                 const std::vector<std::string>& replayed,
                 std::vector<std::string>* divergences) {
  const size_t n = std::max(recorded.size(), replayed.size());
  for (size_t i = 0; i < n; ++i) {
    const std::string& a = i < recorded.size() ? recorded[i] : "<absent>";
    const std::string& b = i < replayed.size() ? replayed[i] : "<absent>";
    if (a != b) {
      divergences->push_back(std::string(what) + "[" + std::to_string(i) +
                             "]: recorded '" + a + "' vs replayed '" + b + "'");
      return;  // later lines are noise once the logs fork
    }
  }
}

}  // namespace

StatusOr<ScenarioOutcome> RunScenario(const Scenario& scenario, bool seed_from_env) {
  auto world_options_or = scenario.ToWorldOptions(seed_from_env);
  if (!world_options_or.ok()) {
    return world_options_or.status();
  }
  ScenarioOutcome outcome;
  outcome.scenario = scenario;
  {
    World world(std::move(world_options_or).value());
    outcome.report = RunChaos(world, scenario.ToChaosOptions());
  }
  outcome.scenario.seed = outcome.report.seed;
  outcome.gate_violations = scenario.GateViolations(outcome.report);
  return outcome;
}

StatusOr<ReplayResult> ReplayTrace(const TraceRecord& recorded) {
  auto outcome_or = RunScenario(recorded.scenario, /*seed_from_env=*/false);
  if (!outcome_or.ok()) {
    return outcome_or.status();
  }
  ReplayResult result;
  result.outcome = std::move(outcome_or).value();

  const TraceRecord replayed = result.outcome.Trace();
  CompareLogs("fault_event", recorded.fault_events, replayed.fault_events,
              &result.divergences);
  CompareLogs("op", recorded.ops, replayed.ops, &result.divergences);
  if (recorded.workload_status != replayed.workload_status) {
    result.divergences.push_back("workload_status: recorded '" +
                                 recorded.workload_status + "' vs replayed '" +
                                 replayed.workload_status + "'");
  }
  if (recorded.integrity_ok != replayed.integrity_ok) {
    result.divergences.push_back(
        std::string("integrity_ok: recorded ") +
        (recorded.integrity_ok ? "true" : "false") + " vs replayed " +
        (replayed.integrity_ok ? "true" : "false"));
  }
  if (recorded.integrity_error != replayed.integrity_error) {
    result.divergences.push_back("integrity_error: recorded '" +
                                 recorded.integrity_error + "' vs replayed '" +
                                 replayed.integrity_error + "'");
  }
  if (recorded.snapshot_hash != replayed.snapshot_hash) {
    char line[96];
    std::snprintf(line, sizeof(line),
                  "snapshot_hash: recorded 0x%016llx vs replayed 0x%016llx",
                  static_cast<unsigned long long>(recorded.snapshot_hash),
                  static_cast<unsigned long long>(replayed.snapshot_hash));
    result.divergences.push_back(line);
  }
  return result;
}

namespace {

// Named fault schedules — the matrix's fourth axis.
std::vector<FaultSpec> FaultAxis(const std::string& fault) {
  std::vector<const char*> lines;
  if (fault == "crash") {
    lines = {"crash at=10s dur=8s"};
  } else if (fault == "disk") {
    // The burst overlaps the slow window on purpose. Its count of 0 makes
    // LocalFs::InjectOpError clear the write-error schedule, so as written
    // this cell fails no writes.
    lines = {"disk_slow at=4s dur=20s mag=6", "disk_error_burst at=8s op=write code=io count=0"};
  } else if (fault == "wire") {
    lines = {"loss_storm at=6s dur=6s mag=0.3", "link_flap at=16s count=3 dur=400ms period=2s"};
  } else if (fault == "corrupt") {
    lines = {"corruption_storm at=4s dur=10s flip=0.05"};
  } else {
    CHECK(fault == "none");
  }
  std::vector<FaultSpec> faults;
  for (const char* line : lines) {
    faults.push_back(FaultSpecFromString(line).value());
  }
  return faults;
}

// Workload personalities — the matrix's first axis.
void ApplyPersonality(const std::string& personality, Scenario* cell) {
  if (personality == "steady_uniform") {
    return;  // OpMixOptions defaults: steady arrivals, uniform popularity
  }
  if (personality == "burst_zipf") {
    cell->opmix.skew = OpMixOptions::Skew::kZipfian;
    cell->opmix.arrival = OpMixOptions::Arrival::kBurst;
    return;
  }
  if (personality == "meta_diurnal") {
    cell->opmix.metadata_heavy = true;
    cell->opmix.arrival = OpMixOptions::Arrival::kDiurnal;
    return;
  }
  if (personality == "shared_leases") {
    cell->opmix.shared_files = true;
    cell->clients = 3;
    cell->mount = "leases";
    return;
  }
  CHECK(personality == "create_delete");
  cell->workload = ChaosWorkload::kCreateDelete;
  cell->iterations = 40;
  cell->opmix.file_bytes = 10 * 1024;
}

Scenario MakeCell(const std::string& personality, const std::string& transport,
                  TopologyKind topology, const std::string& fault) {
  Scenario cell;
  cell.name = personality + "." + transport + "." + TopologyToken(topology) +
              "." + fault;
  cell.transport = transport;
  cell.topology = topology;
  ApplyPersonality(personality, &cell);
  cell.faults = FaultAxis(fault);

  // Gates, sized to the axes. Bounds carry ~3-4x headroom over measured
  // values (BENCH_scenarios.json has the actuals) — they are regression
  // tripwires, not SLOs. Latency soaks up whole fault windows under hard
  // mounts, so fault cells get outage-scale p99 bounds.
  const bool faulted = fault != "none";
  const bool slow_path = topology != TopologyKind::kSameLan;
  cell.gates.max_p99_us = faulted ? 60'000'000 : (slow_path ? 20'000'000 : 2'000'000);
  cell.gates.max_recovery_episodes = faulted ? 64 : 4;
  return cell;
}

}  // namespace

std::vector<Scenario> DefaultScenarioMatrix(bool quick) {
  std::vector<Scenario> cells;
  if (quick) {
    // One cell per transport; the udp_fixed cell carries the fault schedule
    // (fixed RTO is the paper's worst-behaved retransmit regime, so it is the
    // one to smoke-test under a crash). Shortened to stay cheap under ASan.
    for (const char* transport : {"udp", "tcp", "udp_fixed"}) {
      const bool faulted = std::string(transport) == "udp_fixed";
      Scenario cell = MakeCell("steady_uniform", transport,
                               TopologyKind::kSameLan, faulted ? "crash" : "none");
      cell.name = std::string("quick.") + cell.name;
      cell.opmix.operations = 120;
      if (faulted) {
        // Spread 120 ops across ~6s so the outage lands mid-workload.
        cell.opmix.mean_gap = Milliseconds(50);
        cell.faults[0].at = Seconds(2);
        cell.faults[0].duration = Seconds(4);
      }
      cells.push_back(cell);
    }
    return cells;
  }

  // Personality × transport sweep on the LAN, all under the crash schedule —
  // the paper's core question is how each retransmit/consistency personality
  // rides out a server outage.
  for (const char* personality :
       {"steady_uniform", "burst_zipf", "meta_diurnal", "shared_leases",
        "create_delete"}) {
    for (const char* transport : {"udp_fixed", "udp", "tcp"}) {
      cells.push_back(MakeCell(personality, transport, TopologyKind::kSameLan,
                               "crash"));
    }
  }
  // Topology axis: the steady mix over the congested-path worlds.
  for (TopologyKind topology :
       {TopologyKind::kTokenRingPath, TopologyKind::kSlowLinkPath}) {
    cells.push_back(MakeCell("steady_uniform", "udp", topology, "none"));
    cells.push_back(MakeCell("steady_uniform", "udp", topology, "crash"));
  }
  // Fault axis: the remaining schedules against the steady mix.
  cells.push_back(MakeCell("steady_uniform", "udp_fixed", TopologyKind::kSameLan,
                           "disk"));
  cells.push_back(MakeCell("steady_uniform", "udp_fixed", TopologyKind::kSameLan,
                           "wire"));
  cells.push_back(MakeCell("steady_uniform", "udp", TopologyKind::kSameLan,
                           "corrupt"));
  return cells;
}

}  // namespace renonfs
