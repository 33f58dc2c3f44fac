// Scenario DSL: one self-contained description of a soak cell.
//
// A Scenario names everything that determines a run — seed, workload
// personality (op mix, popularity skew, arrival shaping, metadata/shared
// modes), mount personality, transport, topology, client count, and a
// declarative fault schedule — plus the acceptance gates the run must meet.
// The text form is the line-oriented key=value format of src/util/config.h:
//
//   scenario = burst_zipf_tcp
//   seed = 42
//   workload = opmix              # opmix | andrew | create_delete
//   ops = 400
//   files = 16
//   file_bytes = 8192
//   skew = zipfian                # uniform | zipfian
//   arrival = burst               # steady | burst | diurnal
//   mount = leases                # reno | reno_udp_fixed | reno_tcp | nopush
//                                 #   | noconsist | ultrix | leases
//   hard = true                   # hard mount (default); false = soft
//   transport = tcp               # udp_fixed | udp | tcp (overrides mount)
//   topology = same_lan           # same_lan | token_ring | slow_link
//   clients = 3
//   fault = crash at=40s dur=20s
//   fault = disk_slow at=5s dur=60s mag=6
//   gate_max_p99_us = 500000
//
// `fault` lines repeat; each is one FaultSpec in the text form of
// src/fault/injector.h (FaultSpecFromString). Serialize() and Parse()
// round-trip, which is what makes a trace artifact re-runnable.
#ifndef RENONFS_SRC_SCENARIO_SCENARIO_H_
#define RENONFS_SRC_SCENARIO_SCENARIO_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/fault/injector.h"
#include "src/util/config.h"
#include "src/workload/chaos.h"
#include "src/workload/world.h"

namespace renonfs {

// Per-cell acceptance gates, evaluated against the ChaosReport. Integrity
// and zero stale-lease writes are unconditional — a scenario cannot opt out
// of "the bytes must be right". 0 disables a numeric bound.
struct ScenarioGates {
  uint64_t max_p99_us = 0;             // bound on every procedure's p99
  uint64_t max_recovery_episodes = 0;  // bound on "not responding" episodes
  bool allow_workload_errors = false;  // soft mounts may surface ETIMEDOUT
};

struct Scenario {
  std::string name = "default";
  uint64_t seed = 1;

  ChaosWorkload workload = ChaosWorkload::kOpMix;
  OpMixOptions opmix;      // kOpMix knobs (ops/files/skew/arrival/modes)
  size_t iterations = 40;  // kCreateDelete
  size_t file_bytes = 10 * 1024;

  std::string mount = "reno";  // personality token, see MountFromName
  // Soak mounts are hard unless the scenario opts out (`hard = false`,
  // usually with gate_allow_workload_errors for the resulting ETIMEDOUTs).
  bool hard = true;
  // Empty = the personality's own transport; else udp_fixed | udp | tcp.
  std::string transport;
  TopologyKind topology = TopologyKind::kSameLan;
  size_t clients = 1;

  std::vector<FaultSpec> faults;
  ScenarioGates gates;

  // `ignore_unknown` skips keys outside the scenario grammar instead of
  // failing — the trace-record parser reads its scenario out of a file that
  // also carries the event log and outcome keys.
  static StatusOr<Scenario> Parse(std::string_view text, bool ignore_unknown = false);
  std::string Serialize() const;

  // Installation and harness options this scenario resolves to. The world
  // seed is this scenario's seed; `seed_from_env` controls whether a
  // RENONFS_SEED override may replace it (record mode yes, replay no).
  StatusOr<WorldOptions> ToWorldOptions(bool seed_from_env) const;
  ChaosOptions ToChaosOptions() const;

  // Gate evaluation: one human-readable line per violated gate (empty =
  // cell passed). Unconditional gates first: integrity, stale-lease writes.
  std::vector<std::string> GateViolations(const ChaosReport& report) const;
};

// DSL token maps (shared with the matrix runner's axis definitions).
StatusOr<NfsMountOptions> MountFromName(const std::string& name);
bool TopologyFromName(const std::string& name, TopologyKind* out);
const char* TopologyToken(TopologyKind kind);
bool TransportFromName(const std::string& name, NfsTransportKind* out);
bool WorkloadFromName(const std::string& name, ChaosWorkload* out);
const char* WorkloadToken(ChaosWorkload workload);

}  // namespace renonfs

#endif  // RENONFS_SRC_SCENARIO_SCENARIO_H_
