// Scenario DSL, trace-record, and deterministic-replay tests.
//
// The replay contract under test: a TraceRecord written by a failing soak
// re-executes bit-for-bit — same fault trace, same op log, same outcome,
// same metrics snapshot hash — and any tampering (or nondeterminism) is
// reported as a divergence rather than silently absorbed.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <string>
#include <vector>

#include "src/obs/metrics.h"
#include "src/scenario/runner.h"
#include "src/scenario/scenario.h"
#include "src/scenario/trace.h"
#include "src/util/config.h"
#include "src/util/fuzz.h"
#include "src/util/seed.h"

namespace renonfs {
namespace {

// Restores RENONFS_SEED on scope exit so seed tests cannot leak into the
// rest of the suite (or inherit a soak operator's environment).
class ScopedSeedEnv {
 public:
  explicit ScopedSeedEnv(const char* value) {
    const char* old = std::getenv("RENONFS_SEED");
    had_old_ = old != nullptr;
    if (had_old_) {
      old_ = old;
    }
    if (value != nullptr) {
      ::setenv("RENONFS_SEED", value, 1);
    } else {
      ::unsetenv("RENONFS_SEED");
    }
  }
  ~ScopedSeedEnv() {
    if (had_old_) {
      ::setenv("RENONFS_SEED", old_.c_str(), 1);
    } else {
      ::unsetenv("RENONFS_SEED");
    }
  }

 private:
  bool had_old_ = false;
  std::string old_;
};

// --- KvConfig / duration grammar --------------------------------------------

TEST(KvConfigTest, ParsesCommentsRepeatsAndTypedGetters) {
  auto config_or = KvConfig::Parse(
      "# header comment\n"
      "name = demo\n"
      "\n"
      "count = 42\n"
      "ratio = 0.5\n"
      "flag = true\n"
      "gap = 8ms\n"
      "fault = crash at=1s\n"
      "fault = link_flap at=2s\n");
  ASSERT_TRUE(config_or.ok()) << config_or.status();
  const KvConfig& config = config_or.value();
  EXPECT_EQ(config.GetString("name", "").value(), "demo");
  EXPECT_EQ(config.GetUint("count", 0).value(), 42u);
  EXPECT_EQ(config.GetDouble("ratio", 0.0).value(), 0.5);
  EXPECT_TRUE(config.GetBool("flag", false).value());
  EXPECT_EQ(config.GetDuration("gap", 0).value(), Milliseconds(8));
  EXPECT_EQ(config.GetUint("absent", 7).value(), 7u);  // fallback
  const std::vector<std::string> faults = config.Values("fault");
  ASSERT_EQ(faults.size(), 2u);
  EXPECT_EQ(faults[0], "crash at=1s");
  EXPECT_EQ(faults[1], "link_flap at=2s");
}

TEST(KvConfigTest, RejectsMalformedLinesAndBadValues) {
  EXPECT_FALSE(KvConfig::Parse("no equals sign here\n").ok());
  EXPECT_FALSE(KvConfig::Parse("= empty key\n").ok());
  auto config = KvConfig::Parse("count = not_a_number\n").value();
  EXPECT_FALSE(config.GetUint("count", 0).ok());  // present but unparsable
}

TEST(KvConfigTest, SerializeRoundTrips) {
  KvConfig config;
  config.Add("name", "x");
  config.AddUint("n", 3);
  config.AddDuration("window", Milliseconds(250));
  auto reparsed = KvConfig::Parse(config.Serialize());
  ASSERT_TRUE(reparsed.ok());
  EXPECT_EQ(reparsed.value().Serialize(), config.Serialize());
}

TEST(DurationTest, ParseAndFormatAllUnits) {
  EXPECT_EQ(ParseDuration("250ns").value(), 250);
  EXPECT_EQ(ParseDuration("10us").value(), Microseconds(10));
  EXPECT_EQ(ParseDuration("8ms").value(), Milliseconds(8));
  EXPECT_EQ(ParseDuration("2s").value(), Seconds(2));
  EXPECT_EQ(ParseDuration("1234").value(), 1234);  // bare nanoseconds
  EXPECT_FALSE(ParseDuration("fast").ok());
  // The largest magnitude of each unit that fits an int64 nanosecond count
  // parses; one more is out of range rather than a wrapped value.
  EXPECT_EQ(ParseDuration("9223372036s").value(), Seconds(9223372036));
  EXPECT_EQ(ParseDuration("9223372036854ms").value(), Milliseconds(9223372036854));
  EXPECT_EQ(ParseDuration("9223372036854775807").value(), INT64_MAX);
  EXPECT_FALSE(ParseDuration("9223372037s").ok());
  EXPECT_FALSE(ParseDuration("9223372036855ms").ok());
  EXPECT_FALSE(ParseDuration("9223372036854776us").ok());
  EXPECT_FALSE(ParseDuration("-9223372037s").ok());
  // Canonical rendering re-parses to the same value.
  for (SimTime t : {SimTime{250}, Microseconds(10), Milliseconds(8), Seconds(2)}) {
    EXPECT_EQ(ParseDuration(FormatDuration(t)).value(), t);
  }
}

// --- scenario DSL ------------------------------------------------------------

constexpr const char* kSmallScenario =
    "scenario = unit_small\n"
    "seed = 7\n"
    "workload = opmix\n"
    "ops = 20\n"
    "files = 4\n"
    "file_bytes = 4096\n"
    "mean_gap = 10ms\n"
    "transport = udp\n";

TEST(ScenarioTest, SerializeParseRoundTrips) {
  auto parsed_or = Scenario::Parse(
      "scenario = round_trip\n"
      "seed = 99\n"
      "workload = opmix\n"
      "ops = 50\n"
      "files = 8\n"
      "skew = zipfian\n"
      "arrival = burst\n"
      "mount = leases\n"
      "hard = false\n"
      "transport = tcp\n"
      "topology = same_lan\n"  // the only topology that admits clients > 1
      "clients = 2\n"
      "fault = crash at=10s dur=5s\n"
      "fault = loss_storm at=2s dur=3s mag=0.25\n"
      "gate_max_p99_us = 1000000\n"
      "gate_allow_workload_errors = true\n");
  ASSERT_TRUE(parsed_or.ok()) << parsed_or.status();
  const Scenario& s = parsed_or.value();
  EXPECT_EQ(s.name, "round_trip");
  EXPECT_EQ(s.seed, 99u);
  EXPECT_FALSE(s.hard);
  EXPECT_EQ(s.clients, 2u);
  ASSERT_EQ(s.faults.size(), 2u);
  EXPECT_EQ(s.faults[0].kind, FaultKind::kCrash);
  EXPECT_EQ(s.faults[1].kind, FaultKind::kLossStorm);
  EXPECT_TRUE(s.gates.allow_workload_errors);
  // Serialize -> Parse -> Serialize is a fixed point.
  auto reparsed = Scenario::Parse(s.Serialize());
  ASSERT_TRUE(reparsed.ok()) << reparsed.status();
  EXPECT_EQ(reparsed.value().Serialize(), s.Serialize());
}

TEST(ScenarioTest, HardMountIsTheDefault) {
  auto s = Scenario::Parse(kSmallScenario);
  ASSERT_TRUE(s.ok());
  EXPECT_TRUE(s.value().hard);
  auto options_or = s.value().ToWorldOptions(/*seed_from_env=*/false);
  ASSERT_TRUE(options_or.ok());
  EXPECT_TRUE(options_or.value().mount.hard);
}

TEST(ScenarioTest, UnknownKeyRejectedUnlessIgnored) {
  const std::string text = std::string(kSmallScenario) + "mystery_knob = 1\n";
  EXPECT_FALSE(Scenario::Parse(text).ok());
  EXPECT_TRUE(Scenario::Parse(text, /*ignore_unknown=*/true).ok());
}

TEST(ScenarioTest, FaultSpecStringRoundTrips) {
  for (const char* line : {
           "crash at=40s dur=20s",
           "link_flap at=16s count=3 dur=400ms period=2s",
           "loss_storm at=6s dur=6s mag=0.3",
           "disk_slow at=4s dur=20s mag=6",
           "disk_error_burst at=8s op=write code=io count=3",
           "corruption_storm at=4s dur=10s flip=0.05 inbound=true",
           "sabotage at=16s file=mix_c0_15 offset=100",
           "garbage_datagrams at=1s dur=30s count=25",
       }) {
    auto spec_or = FaultSpecFromString(line);
    ASSERT_TRUE(spec_or.ok()) << line << ": " << spec_or.status();
    const std::string rendered = FaultSpecToString(spec_or.value());
    auto again_or = FaultSpecFromString(rendered);
    ASSERT_TRUE(again_or.ok()) << rendered << ": " << again_or.status();
    EXPECT_EQ(FaultSpecToString(again_or.value()), rendered) << "from: " << line;
  }
  EXPECT_FALSE(FaultSpecFromString("meteor_strike at=1s").ok());
  // A count that does not fit an int is a bad integer, not a wrapped one.
  EXPECT_FALSE(FaultSpecFromString("disk_error_burst at=8s count=4294967297").ok());
  EXPECT_FALSE(FaultSpecFromString("disk_error_burst at=8s count=2147483648").ok());
  EXPECT_FALSE(FaultSpecFromString("disk_error_burst at=8s count=-1").ok());
  EXPECT_FALSE(FaultSpecFromString("crash at=10000000000s dur=1s").ok());
}

TEST(ScenarioTest, DefaultMatrixShapesAndRoundTrips) {
  const std::vector<Scenario> quick = DefaultScenarioMatrix(/*quick=*/true);
  const std::vector<Scenario> full = DefaultScenarioMatrix(/*quick=*/false);
  EXPECT_EQ(quick.size(), 3u);
  EXPECT_GE(full.size(), 20u);
  for (const std::vector<Scenario>* matrix : {&quick, &full}) {
    std::vector<std::string> names;
    for (const Scenario& cell : *matrix) {
      names.push_back(cell.name);
      // Every cell is expressible in the DSL and survives the round trip —
      // that is what makes `scenario_matrix show <cell>` output re-runnable.
      auto reparsed = Scenario::Parse(cell.Serialize());
      ASSERT_TRUE(reparsed.ok()) << cell.name << ": " << reparsed.status();
      EXPECT_EQ(reparsed.value().Serialize(), cell.Serialize()) << cell.name;
    }
    std::vector<std::string> unique = names;
    std::sort(unique.begin(), unique.end());
    unique.erase(std::unique(unique.begin(), unique.end()), unique.end());
    EXPECT_EQ(unique.size(), names.size()) << "duplicate cell names";
  }
  for (const Scenario& cell : quick) {
    EXPECT_EQ(cell.name.rfind("quick.", 0), 0u) << cell.name;
  }
}

// Scenario and trace files are read from disk, so both parsers must survive
// damaged text: a mutant of a valid file is either rejected, or it parses to
// a value whose serialization is a fixed point of parse-then-serialize.
TEST(ScenarioTest, ParsersSurviveMutatedText) {
  std::vector<std::vector<uint8_t>> corpus;
  for (bool quick : {false, true}) {
    for (const Scenario& cell : DefaultScenarioMatrix(quick)) {
      TraceRecord record;
      record.scenario = cell;
      record.fault_events = {"[1.000s] server crash (server)",
                             "[3.000s] server restart (server)"};
      record.ops = {"opmix[c0] write mix_c0_1@0 = ok", "opmix[c1] read mix_c0_1 = STALE"};
      record.workload_status = "ok";
      record.integrity_ok = false;
      record.integrity_error = "chaos: mix_c0_1 differs: first divergence at byte 9";
      record.snapshot_hash = 0xdeadbeefcafef00dULL;
      record.summary = "chaos: seed=" + std::to_string(cell.seed) + " status=ok";
      for (const std::string& text : {cell.Serialize(), record.Serialize()}) {
        corpus.emplace_back(text.begin(), text.end());
      }
    }
  }
  ASSERT_EQ(corpus.size(), 50u);  // 22 full + 3 quick cells, each twice

  // Fixed default so a failure replays exactly; RENONFS_FUZZ_SEED explores.
  FuzzMutator mutator(EffectiveSeed("RENONFS_FUZZ_SEED", 0x5eed4f2c0ffeeULL));
  size_t scenarios_accepted = 0;
  size_t traces_accepted = 0;
  for (size_t i = 0; i < 10000; ++i) {
    const std::vector<uint8_t> bytes = mutator.Mutate(corpus[i % corpus.size()]);
    const std::string text(bytes.begin(), bytes.end());
    if (auto scenario_or = Scenario::Parse(text); scenario_or.ok()) {
      ++scenarios_accepted;
      const std::string once = scenario_or.value().Serialize();
      auto again_or = Scenario::Parse(once);
      ASSERT_TRUE(again_or.ok()) << "mutation " << i << ": " << again_or.status();
      ASSERT_EQ(again_or.value().Serialize(), once) << "mutation " << i;
    }
    if (auto trace_or = TraceRecord::Parse(text); trace_or.ok()) {
      ++traces_accepted;
      const std::string once = trace_or.value().Serialize();
      auto again_or = TraceRecord::Parse(once);
      ASSERT_TRUE(again_or.ok()) << "mutation " << i << ": " << again_or.status();
      ASSERT_EQ(again_or.value().Serialize(), once) << "mutation " << i;
    }
  }
  // Some mutants must survive, or the fixed-point check never ran.
  EXPECT_GT(scenarios_accepted, 0u);
  EXPECT_GT(traces_accepted, 0u);
}

// --- metrics snapshot hash ----------------------------------------------------

TEST(MetricsHashTest, HashCoversTimeNamesAndValues) {
  MetricsSnapshot a;
  a.at = Seconds(1);
  a.counters = {{"x", 1}, {"y", 2}};
  MetricsSnapshot b = a;
  EXPECT_EQ(a.Hash(), b.Hash());
  b.counters[1].second = 3;
  EXPECT_NE(a.Hash(), b.Hash());
  b = a;
  b.counters[0].first = "z";
  EXPECT_NE(a.Hash(), b.Hash());
  b = a;
  b.at = Seconds(2);
  EXPECT_NE(a.Hash(), b.Hash());
}

// --- trace record ------------------------------------------------------------

TEST(TraceRecordTest, SerializeParseRoundTrips) {
  TraceRecord record;
  record.scenario = Scenario::Parse(kSmallScenario).value();
  record.fault_events = {"[1.000s] server crash (server)",
                         "[3.000s] server restart (server)"};
  record.ops = {"opmix[c0] write mix_c0_1@0 = ok", "opmix[c0] read mix_c0_1 = ok"};
  record.workload_status = "ok";
  record.integrity_ok = false;
  record.integrity_error = "chaos: mix_c0_1 differs: first divergence at byte 9";
  record.snapshot_hash = 0xdeadbeefcafef00dULL;
  record.summary = "chaos: seed=7 status=ok integrity=FAILED";

  auto parsed_or = TraceRecord::Parse(record.Serialize());
  ASSERT_TRUE(parsed_or.ok()) << parsed_or.status();
  const TraceRecord& parsed = parsed_or.value();
  EXPECT_EQ(parsed.version, TraceRecord::kVersion);
  EXPECT_EQ(parsed.scenario.Serialize(), record.scenario.Serialize());
  EXPECT_EQ(parsed.fault_events, record.fault_events);
  EXPECT_EQ(parsed.ops, record.ops);
  EXPECT_EQ(parsed.workload_status, "ok");
  EXPECT_FALSE(parsed.integrity_ok);
  EXPECT_EQ(parsed.integrity_error, record.integrity_error);
  EXPECT_EQ(parsed.snapshot_hash, record.snapshot_hash);
  EXPECT_EQ(parsed.summary, record.summary);
}

TEST(TraceRecordTest, FileHelpersRoundTrip) {
  TraceRecord record;
  record.scenario = Scenario::Parse(kSmallScenario).value();
  record.workload_status = "ok";
  record.integrity_ok = true;
  record.snapshot_hash = 42;
  const std::string path = ::testing::TempDir() + "/scenario_test_roundtrip.trace";
  ASSERT_TRUE(WriteTraceFile(record, path).ok());
  auto read_or = ReadTraceFile(path);
  ASSERT_TRUE(read_or.ok()) << read_or.status();
  EXPECT_EQ(read_or.value().Serialize(), record.Serialize());
  EXPECT_FALSE(ReadTraceFile(path + ".does_not_exist").ok());
}

// --- runner determinism and replay -------------------------------------------

TEST(ScenarioRunnerTest, SameSeedReproducesTheSnapshotHash) {
  ScopedSeedEnv clean(nullptr);
  const Scenario scenario = Scenario::Parse(kSmallScenario).value();
  auto first = RunScenario(scenario, /*seed_from_env=*/false);
  auto second = RunScenario(scenario, /*seed_from_env=*/false);
  ASSERT_TRUE(first.ok()) << first.status();
  ASSERT_TRUE(second.ok()) << second.status();
  EXPECT_TRUE(first.value().passed());
  EXPECT_EQ(first.value().report.snapshot_hash, second.value().report.snapshot_hash);
  EXPECT_EQ(first.value().report.SummaryLine(), second.value().report.SummaryLine());
  EXPECT_EQ(first.value().report.op_log, second.value().report.op_log);
}

TEST(ScenarioRunnerTest, EnvSeedOverridesOnlyInRecordMode) {
  const Scenario scenario = Scenario::Parse(kSmallScenario).value();
  ScopedSeedEnv env("777");
  auto recorded = RunScenario(scenario, /*seed_from_env=*/true);
  ASSERT_TRUE(recorded.ok()) << recorded.status();
  // The effective seed lands in the outcome (and thus in any trace artifact).
  EXPECT_EQ(recorded.value().scenario.seed, 777u);

  auto replay_mode = RunScenario(scenario, /*seed_from_env=*/false);
  ASSERT_TRUE(replay_mode.ok()) << replay_mode.status();
  EXPECT_EQ(replay_mode.value().scenario.seed, scenario.seed);
}

// The acceptance path of DESIGN.md §13: a soak forced to fail by a seeded
// integrity fault (silent bit rot on the server's stable storage) writes a
// trace artifact, and replaying that artifact reproduces the identical
// failure — twice — with zero divergences, even under a conflicting
// RENONFS_SEED.
TEST(ScenarioRunnerTest, ForcedIntegrityFailureReplaysIdentically) {
  ScopedSeedEnv clean(nullptr);
  // Reno mount: the client's read-after-write leaves a clean cached copy
  // whose bytes the audit compares against storage. The sabotage fires late
  // in the workload, after the target file's last push, so nothing heals it.
  auto scenario_or = Scenario::Parse(
      "scenario = forced_rot\n"
      "seed = 1\n"
      "workload = opmix\n"
      "ops = 120\n"
      "files = 16\n"
      "file_bytes = 10240\n"
      "mean_gap = 25ms\n"
      "mount = reno\n"
      "transport = udp\n"
      "fault = sabotage at=16s file=mix_c0_15 offset=100\n"
      "gate_max_p99_us = 2000000\n");
  ASSERT_TRUE(scenario_or.ok()) << scenario_or.status();

  auto outcome_or = RunScenario(scenario_or.value(), /*seed_from_env=*/false);
  ASSERT_TRUE(outcome_or.ok()) << outcome_or.status();
  const ScenarioOutcome& outcome = outcome_or.value();
  ASSERT_FALSE(outcome.passed());
  ASSERT_FALSE(outcome.report.integrity_ok);
  EXPECT_NE(outcome.report.integrity_error.find("mix_c0_15"), std::string::npos)
      << outcome.report.integrity_error;

  // Round-trip the artifact through a file, as the harnesses do.
  const std::string path = ::testing::TempDir() + "/scenario_test_forced.trace";
  ASSERT_TRUE(WriteTraceFile(outcome.Trace(), path).ok());
  auto record_or = ReadTraceFile(path);
  ASSERT_TRUE(record_or.ok()) << record_or.status();

  ScopedSeedEnv conflicting("424242");  // replay must pin the recorded seed
  for (int attempt = 0; attempt < 2; ++attempt) {
    auto replay_or = ReplayTrace(record_or.value());
    ASSERT_TRUE(replay_or.ok()) << replay_or.status();
    const ReplayResult& replay = replay_or.value();
    EXPECT_FALSE(replay.diverged())
        << "attempt " << attempt << ": " << replay.divergences.front();
    EXPECT_EQ(replay.outcome.scenario.seed, 1u);
    EXPECT_FALSE(replay.outcome.report.integrity_ok);
    EXPECT_EQ(replay.outcome.report.integrity_error, outcome.report.integrity_error);
    EXPECT_EQ(replay.outcome.report.snapshot_hash, outcome.report.snapshot_hash);
  }
}

TEST(ScenarioRunnerTest, TamperedRecordReportsDivergence) {
  ScopedSeedEnv clean(nullptr);
  const Scenario scenario = Scenario::Parse(kSmallScenario).value();
  auto outcome_or = RunScenario(scenario, /*seed_from_env=*/false);
  ASSERT_TRUE(outcome_or.ok()) << outcome_or.status();
  ASSERT_TRUE(outcome_or.value().passed());
  const TraceRecord record = outcome_or.value().Trace();

  // A clean record replays clean.
  auto clean_replay = ReplayTrace(record);
  ASSERT_TRUE(clean_replay.ok()) << clean_replay.status();
  EXPECT_FALSE(clean_replay.value().diverged());

  // Tampered snapshot hash: the run itself still matches event-for-event,
  // but the fingerprint comparison must flag it.
  TraceRecord tampered = record;
  tampered.snapshot_hash ^= 1;
  auto hash_replay = ReplayTrace(tampered);
  ASSERT_TRUE(hash_replay.ok());
  ASSERT_TRUE(hash_replay.value().diverged());

  // Tampered op log: the first-divergence report names the mismatched line.
  tampered = record;
  ASSERT_FALSE(tampered.ops.empty());
  tampered.ops[0] = "opmix[c0] write ghost_file@0 = ok";
  auto op_replay = ReplayTrace(tampered);
  ASSERT_TRUE(op_replay.ok());
  ASSERT_TRUE(op_replay.value().diverged());
}

TEST(ScenarioRunnerTest, LegacyHeapTraceReplaysOnTimingWheel) {
  // Replay compatibility across the scheduler rebuild: this trace was
  // recorded on the original std::priority_queue scheduler, before that
  // backend was deleted (seed 7, an opmix run through a loss storm and a
  // server crash). It must replay divergence-free on the wheel — same op log,
  // same fault trace, same snapshot hash — so any later change that makes
  // the simulator drift from what the heap recorded fails here.
  auto record_or = ReadTraceFile(std::string(RENONFS_TESTDATA_DIR) + "/legacy_heap.trace");
  ASSERT_TRUE(record_or.ok()) << record_or.status();
  auto replay_or = ReplayTrace(record_or.value());
  ASSERT_TRUE(replay_or.ok()) << replay_or.status();
  EXPECT_FALSE(replay_or.value().diverged())
      << (replay_or.value().divergences.empty() ? ""
                                                : replay_or.value().divergences.front());
}

}  // namespace
}  // namespace renonfs
