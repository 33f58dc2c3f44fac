#include "src/scenario/scenario.h"

#include <set>
#include <utility>

namespace renonfs {
namespace {

Status BadField(const std::string& what) {
  return Status(ErrorCode::kInvalidArgument, "scenario: " + what);
}

}  // namespace

StatusOr<NfsMountOptions> MountFromName(const std::string& name) {
  if (name == "reno") return NfsMountOptions::Reno();
  if (name == "reno_udp_fixed") return NfsMountOptions::RenoUdpFixed();
  if (name == "reno_tcp") return NfsMountOptions::RenoTcp();
  if (name == "nopush") return NfsMountOptions::RenoNoPush();
  if (name == "noconsist") return NfsMountOptions::RenoNoConsist();
  if (name == "ultrix") return NfsMountOptions::UltrixLike();
  if (name == "leases") return NfsMountOptions::Leases();
  return BadField("unknown mount personality '" + name + "'");
}

bool TopologyFromName(const std::string& name, TopologyKind* out) {
  if (name == "same_lan") {
    *out = TopologyKind::kSameLan;
    return true;
  }
  if (name == "token_ring") {
    *out = TopologyKind::kTokenRingPath;
    return true;
  }
  if (name == "slow_link") {
    *out = TopologyKind::kSlowLinkPath;
    return true;
  }
  return false;
}

const char* TopologyToken(TopologyKind kind) {
  switch (kind) {
    case TopologyKind::kSameLan: return "same_lan";
    case TopologyKind::kTokenRingPath: return "token_ring";
    case TopologyKind::kSlowLinkPath: return "slow_link";
  }
  return "same_lan";
}

bool TransportFromName(const std::string& name, NfsTransportKind* out) {
  if (name == "udp_fixed") {
    *out = NfsTransportKind::kUdpFixedRto;
    return true;
  }
  if (name == "udp") {
    *out = NfsTransportKind::kUdpDynamicRto;
    return true;
  }
  if (name == "tcp") {
    *out = NfsTransportKind::kTcp;
    return true;
  }
  return false;
}

bool WorkloadFromName(const std::string& name, ChaosWorkload* out) {
  if (name == "andrew") {
    *out = ChaosWorkload::kAndrew;
    return true;
  }
  if (name == "create_delete") {
    *out = ChaosWorkload::kCreateDelete;
    return true;
  }
  if (name == "opmix") {
    *out = ChaosWorkload::kOpMix;
    return true;
  }
  return false;
}

const char* WorkloadToken(ChaosWorkload workload) {
  switch (workload) {
    case ChaosWorkload::kAndrew: return "andrew";
    case ChaosWorkload::kCreateDelete: return "create_delete";
    case ChaosWorkload::kOpMix: return "opmix";
  }
  return "opmix";
}

StatusOr<Scenario> Scenario::Parse(std::string_view text, bool ignore_unknown) {
  auto config_or = KvConfig::Parse(text);
  if (!config_or.ok()) {
    return config_or.status();
  }
  const KvConfig& config = config_or.value();

  static const std::set<std::string> kKnownKeys = {
      "scenario",      "seed",        "workload",       "ops",
      "files",         "file_bytes",  "skew",           "zipf_s",
      "arrival",       "mean_gap",    "burst_len",      "burst_gap",
      "diurnal_period", "metadata_heavy", "shared_files", "iterations",
      "mount",         "hard",        "transport",      "topology",
      "clients",       "fault",       "gate_max_p99_us",
      "gate_max_recovery_episodes", "gate_allow_workload_errors"};
  if (!ignore_unknown) {
    for (const auto& [key, value] : config.entries()) {
      if (kKnownKeys.find(key) == kKnownKeys.end()) {
        return BadField("unknown key '" + key + "'");
      }
    }
  }

  Scenario s;
#define SCENARIO_GET(expr, target)          \
  do {                                      \
    auto got_or_ = (expr);                  \
    if (!got_or_.ok()) {                    \
      return got_or_.status();              \
    }                                       \
    (target) = got_or_.value();             \
  } while (false)

  SCENARIO_GET(config.GetString("scenario", s.name), s.name);
  SCENARIO_GET(config.GetUint("seed", s.seed), s.seed);

  std::string token;
  SCENARIO_GET(config.GetString("workload", WorkloadToken(s.workload)), token);
  if (!WorkloadFromName(token, &s.workload)) {
    return BadField("unknown workload '" + token + "'");
  }
  SCENARIO_GET(config.GetUint("ops", s.opmix.operations), s.opmix.operations);
  SCENARIO_GET(config.GetUint("files", s.opmix.files), s.opmix.files);
  SCENARIO_GET(config.GetUint("file_bytes", s.file_bytes), s.file_bytes);
  s.opmix.file_bytes = s.file_bytes;
  SCENARIO_GET(config.GetString("skew", OpMixSkewName(s.opmix.skew)), token);
  if (!OpMixSkewFromName(token, &s.opmix.skew)) {
    return BadField("unknown skew '" + token + "'");
  }
  SCENARIO_GET(config.GetDouble("zipf_s", s.opmix.zipf_s), s.opmix.zipf_s);
  SCENARIO_GET(config.GetString("arrival", OpMixArrivalName(s.opmix.arrival)), token);
  if (!OpMixArrivalFromName(token, &s.opmix.arrival)) {
    return BadField("unknown arrival '" + token + "'");
  }
  SCENARIO_GET(config.GetDuration("mean_gap", s.opmix.mean_gap), s.opmix.mean_gap);
  SCENARIO_GET(config.GetUint("burst_len", s.opmix.burst_len), s.opmix.burst_len);
  SCENARIO_GET(config.GetDuration("burst_gap", s.opmix.burst_gap), s.opmix.burst_gap);
  SCENARIO_GET(config.GetDuration("diurnal_period", s.opmix.diurnal_period),
               s.opmix.diurnal_period);
  SCENARIO_GET(config.GetBool("metadata_heavy", s.opmix.metadata_heavy),
               s.opmix.metadata_heavy);
  SCENARIO_GET(config.GetBool("shared_files", s.opmix.shared_files),
               s.opmix.shared_files);
  SCENARIO_GET(config.GetUint("iterations", s.iterations), s.iterations);

  SCENARIO_GET(config.GetString("mount", s.mount), s.mount);
  auto mount_or = MountFromName(s.mount);
  if (!mount_or.ok()) {
    return mount_or.status();
  }
  SCENARIO_GET(config.GetBool("hard", s.hard), s.hard);
  SCENARIO_GET(config.GetString("transport", s.transport), s.transport);
  if (!s.transport.empty()) {
    NfsTransportKind kind;
    if (!TransportFromName(s.transport, &kind)) {
      return BadField("unknown transport '" + s.transport + "'");
    }
  }
  SCENARIO_GET(config.GetString("topology", TopologyToken(s.topology)), token);
  if (!TopologyFromName(token, &s.topology)) {
    return BadField("unknown topology '" + token + "'");
  }
  SCENARIO_GET(config.GetUint("clients", s.clients), s.clients);
  if (s.clients == 0) {
    return BadField("clients must be >= 1");
  }
  if (s.clients > 1 && s.topology != TopologyKind::kSameLan) {
    return BadField("multiple clients require topology = same_lan");
  }

  for (const std::string& line : config.Values("fault")) {
    auto spec_or = FaultSpecFromString(line);
    if (!spec_or.ok()) {
      return spec_or.status();
    }
    s.faults.push_back(std::move(spec_or).value());
  }

  SCENARIO_GET(config.GetUint("gate_max_p99_us", s.gates.max_p99_us),
               s.gates.max_p99_us);
  SCENARIO_GET(config.GetUint("gate_max_recovery_episodes",
                              s.gates.max_recovery_episodes),
               s.gates.max_recovery_episodes);
  SCENARIO_GET(config.GetBool("gate_allow_workload_errors",
                              s.gates.allow_workload_errors),
               s.gates.allow_workload_errors);
#undef SCENARIO_GET
  return s;
}

std::string Scenario::Serialize() const {
  KvConfig config;
  config.Add("scenario", name);
  config.AddUint("seed", seed);
  config.Add("workload", WorkloadToken(workload));
  config.AddUint("ops", opmix.operations);
  config.AddUint("files", opmix.files);
  config.AddUint("file_bytes", file_bytes);
  config.Add("skew", OpMixSkewName(opmix.skew));
  config.AddDouble("zipf_s", opmix.zipf_s);
  config.Add("arrival", OpMixArrivalName(opmix.arrival));
  config.AddDuration("mean_gap", opmix.mean_gap);
  config.AddUint("burst_len", opmix.burst_len);
  config.AddDuration("burst_gap", opmix.burst_gap);
  config.AddDuration("diurnal_period", opmix.diurnal_period);
  config.AddBool("metadata_heavy", opmix.metadata_heavy);
  config.AddBool("shared_files", opmix.shared_files);
  config.AddUint("iterations", iterations);
  config.Add("mount", mount);
  config.AddBool("hard", hard);
  if (!transport.empty()) {
    config.Add("transport", transport);
  }
  config.Add("topology", TopologyToken(topology));
  config.AddUint("clients", clients);
  for (const FaultSpec& spec : faults) {
    config.Add("fault", FaultSpecToString(spec));
  }
  config.AddUint("gate_max_p99_us", gates.max_p99_us);
  config.AddUint("gate_max_recovery_episodes", gates.max_recovery_episodes);
  config.AddBool("gate_allow_workload_errors", gates.allow_workload_errors);
  return config.Serialize();
}

StatusOr<WorldOptions> Scenario::ToWorldOptions(bool seed_from_env) const {
  auto mount_or = MountFromName(mount);
  if (!mount_or.ok()) {
    return mount_or.status();
  }
  WorldOptions options;
  options.mount = mount_or.value();
  // A lease mount without a lease-granting server silently degrades to
  // plain 4.3BSD rules; the personality implies the server side.
  options.server.leases = (mount == "leases");
  // Soaks default to hard mounts: the harness's premise is that a hard mount
  // rides out the fault schedule. A soft scenario says `hard = false` and
  // usually pairs it with gate_allow_workload_errors. This matters doubly on
  // TCP, where the soft default (tcp_soft_cycles = 0) is the historical
  // wait-forever mode — a crash mid-call would wedge the workload for good.
  options.mount.hard = hard;
  if (!transport.empty()) {
    NfsTransportKind kind;
    if (!TransportFromName(transport, &kind)) {
      return BadField("unknown transport '" + transport + "'");
    }
    options.mount.transport = kind;
  }
  options.topology = topology;
  options.topology_options.seed = seed;
  options.clients = clients;
  options.seed_from_env = seed_from_env;
  return options;
}

ChaosOptions Scenario::ToChaosOptions() const {
  ChaosOptions options;
  options.workload = workload;
  options.schedule = faults;
  options.iterations = iterations;
  options.file_bytes = file_bytes;
  options.opmix = opmix;
  return options;
}

std::vector<std::string> Scenario::GateViolations(const ChaosReport& report) const {
  std::vector<std::string> violations;
  if (!report.integrity_ok) {
    violations.push_back("integrity: " + (report.integrity_error.empty()
                                              ? std::string("audit failed")
                                              : report.integrity_error));
  }
  if (const uint64_t stale = report.metrics.Value("client.lease.stale_lease_writes");
      stale != 0) {
    violations.push_back("stale_lease_writes: " + std::to_string(stale) + " (must be 0)");
  }
  if (!gates.allow_workload_errors && !report.workload_status.ok()) {
    violations.push_back("workload: " + report.workload_status.ToString());
  }
  if (gates.max_p99_us != 0) {
    for (const ChaosReport::ProcLatency& lat : report.latencies) {
      if (lat.p99_us > gates.max_p99_us) {
        violations.push_back("p99[" + lat.proc + "]: " + std::to_string(lat.p99_us) +
                             "us > " + std::to_string(gates.max_p99_us) + "us");
      }
    }
  }
  if (gates.max_recovery_episodes != 0 &&
      report.recovery.not_responding_events > gates.max_recovery_episodes) {
    violations.push_back(
        "recovery_episodes: " + std::to_string(report.recovery.not_responding_events) +
        " > " + std::to_string(gates.max_recovery_episodes));
  }
  return violations;
}

}  // namespace renonfs
