// perfbench: the repository benchmark's driver binary.
//
//   perfbench --workload <ring_nhfsstone|andrew_quiet_lan|soak_matrix>
//             --seed <n> --seconds <s> --trace <0|1>
//             [--spans-out <path>] [--setup-only]
//
// Runs one untimed warm-up cell (the process-wide pools and ledgers fill on
// the first cell), prints "perfbench: ready", then runs cells back to back in
// a closed loop for --seconds on one thread. The loop stops on a workload
// cycle boundary, and never before the workload's fixed count of tallied
// cells: the simulated metrics and the digest come from those cells only, so
// they depend on the seed alone. Host-side metrics come from every cell.
//
// End-to-end host times are reported at a reference host speed. The speed of
// a shared machine for this kind of code drifts (by up to 1.9x, in phases of
// seconds to minutes), so between cells the loop times a fixed calibration
// round, about 5% of the run. Each cell's host time is scaled by
// kCalibrationRefMs over the median of the rounds nearest it: it reads as it
// would on a host where one round takes kCalibrationRefMs. The raw values
// are printed too. A --setup-only launch times three rounds after "ready"
// and prints their scale, with which run.py scales that launch's set-up time.
// The cell time quantiles are Harrell-Davis estimates (see HarrellDavis).
//
// --trace 0 prints the end-to-end metrics. --trace 1 runs half the time
// traced (host spans around every public call of a cell, written to
// --spans-out at exit), then the same cells untraced, and prints the
// per-layer metrics plus the tracing overhead between the two halves.
//
// The last stdout line is one JSON object: attempted, failed, correct,
// digest and metrics ({name: {value, unit}}).
#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <string>
#include <vector>

#include "perfbench/cells.h"
#include "src/nfs/wire.h"
#include "src/obs/span.h"
#include "src/sim/cpu.h"

namespace perfbench {
namespace {

using renonfs::kNfsProcCount;
using renonfs::kNumCostCategories;
using renonfs::kNumLatencyComponents;

struct Args {
  std::string workload_name;
  Workload workload = Workload::kRingNhfsstone;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  bool setup_only = false;
  std::string spans_out;
};

// Cells whose simulated results feed the tally, per workload: a whole number
// of cycles. A run never stops before them, so they also keep at least ten
// cells beyond cell_ms_p90 on the ring, the workload with the slowest cells.
size_t TalliedCells(Workload workload) {
  switch (workload) {
    case Workload::kRingNhfsstone:
      return 102;
    case Workload::kAndrewQuietLan:
      return 100;
    case Workload::kSoakMatrix:
      return 176;
  }
  return 1;
}

// Calibration rounds take this share of a loop's host time.
constexpr double kCalibrationShare = 0.05;
// A cell is scaled by the median of this many rounds on each side of it.
constexpr size_t kScaleWindow = 5;
// The round time the scaled host times are referred to: about a round's
// median on an unloaded 4-vCPU x86-64 VM.
constexpr double kCalibrationRefMs = 10.0;

// One calibration round: fixed work of the simulator's kind (a red-black tree
// under random inserts and erases, allocating through the global allocator,
// with a working set of a few MB). Frozen: it does not use the library, so a
// change to the library leaves it unchanged. Returns its host time in ms.
double CalibrationRoundMs() {
  const int64_t start = SpanRecorder::NowNs();
  std::map<uint64_t, uint64_t> tree;
  uint64_t x = 0x9e3779b97f4a7c15ull;  // xorshift64
  for (uint64_t i = 0; i < 40000; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    tree[x & 0xfffff] += i;
    if (i % 4 == 3) {
      tree.erase(tree.begin());
    }
  }
  uint64_t sum = 0;
  for (const auto& [key, value] : tree) {
    sum += key ^ value;
  }
  static volatile uint64_t sink;  // keeps the work from being optimized out
  sink = sum;
  return static_cast<double>(SpanRecorder::NowNs() - start) / 1e6;
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

struct LoopResult {
  std::vector<double> cell_ms;         // raw host time of each cell
  std::vector<double> cell_sim_s;      // simulated seconds of each cell
  std::vector<double> cell_rpcs;       // RPCs completed in each cell
  std::vector<size_t> cell_rounds;     // calibration rounds run before each cell ended
  std::vector<double> calibration_ms;  // host time of each calibration round
  size_t attempted = 0;
  size_t failed = 0;
  std::vector<std::string> failures;  // first few, for the report
};

// Runs cells 0, 1, ... until `seconds` have passed and at least `min_cells`
// have run, stopping on a cycle boundary; or exactly `exact_cells` when set.
LoopResult RunLoop(const Args& args, double seconds, size_t min_cells, size_t exact_cells,
                   SpanRecorder* spans, SimTally* tally) {
  LoopResult loop;
  const size_t cycle = CycleLength(args.workload);
  const int64_t start = SpanRecorder::NowNs();
  double cells_ms = 0, calibration_ms = 0;
  for (size_t i = 0;; ++i) {
    const double elapsed_s = static_cast<double>(SpanRecorder::NowNs() - start) / 1e9;
    const bool done = exact_cells > 0 ? i == exact_cells
                                      : i % cycle == 0 && i >= min_cells && elapsed_s >= seconds;
    if (done) {
      break;
    }
    CellContext context{args.seed, i, spans, i < min_cells ? tally : nullptr};
    const int64_t t0 = SpanRecorder::NowNs();
    const CellOutcome outcome = RunCell(args.workload, context);
    const int64_t t1 = SpanRecorder::NowNs();
    if (spans != nullptr) {
      spans->Add({i, "cell", t0, t1});
    }
    if (context.tally != nullptr) {
      ++tally->cells;
      tally->Add("host.cell_ns", static_cast<double>(t1 - t0));
    }
    loop.cell_ms.push_back(static_cast<double>(t1 - t0) / 1e6);
    loop.cell_sim_s.push_back(outcome.sim_s);
    loop.cell_rpcs.push_back(static_cast<double>(outcome.rpcs_completed));
    loop.cell_rounds.push_back(loop.calibration_ms.size());
    cells_ms += loop.cell_ms.back();
    while (calibration_ms < kCalibrationShare * cells_ms) {
      loop.calibration_ms.push_back(CalibrationRoundMs());
      calibration_ms += loop.calibration_ms.back();
    }
    ++loop.attempted;
    if (!outcome.failures.empty()) {
      ++loop.failed;
      for (const std::string& failure : outcome.failures) {
        if (loop.failures.size() < 8) {
          loop.failures.push_back("cell " + std::to_string(i) + ": " + failure);
        }
      }
    }
  }
  return loop;
}

// Linear interpolation between closest ranks; p in [0, 1].
double Percentile(std::vector<double> values, double p) {
  if (values.empty()) {
    return 0;
  }
  std::sort(values.begin(), values.end());
  const double pos = p * static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] + (values[hi] - values[lo]) * (pos - static_cast<double>(lo));
}

// Percentile of merged log2 buckets (bucket 0 holds 0, bucket i holds
// [2^(i-1), 2^i - 1]), interpolated linearly by rank inside the bucket.
double BucketPercentile(const std::array<uint64_t, renonfs::Log2Histogram::kNumBuckets>& buckets,
                        double p) {
  double total = 0;
  for (uint64_t count : buckets) {
    total += static_cast<double>(count);
  }
  if (total == 0) {
    return 0;
  }
  const double rank = p * total;
  double below = 0;
  for (size_t i = 0; i < buckets.size(); ++i) {
    const double count = static_cast<double>(buckets[i]);
    if (count > 0 && below + count >= rank) {
      if (i == 0) {
        return 0;
      }
      const double lo = static_cast<double>(renonfs::Log2Histogram::BucketLowerBound(i));
      const double hi = static_cast<double>(renonfs::Log2Histogram::BucketUpperBound(i)) + 1;
      return lo + (hi - lo) * (rank - below) / count;
    }
    below += count;
  }
  return 0;
}

// Continued fraction of the incomplete beta function (modified Lentz).
double BetaContinuedFraction(double a, double b, double x) {
  auto guard = [](double v) { return std::fabs(v) < 1e-300 ? 1e-300 : v; };
  double c = 1;
  double d = 1 / guard(1 - (a + b) * x / (a + 1));
  double h = d;
  for (int m = 1; m <= 1000; ++m) {
    const double m2 = 2.0 * m;
    double term = m * (b - m) * x / ((a - 1 + m2) * (a + m2));
    d = 1 / guard(1 + term * d);
    c = guard(1 + term / c);
    h *= d * c;
    term = -(a + m) * (a + b + m) * x / ((a + m2) * (a + 1 + m2));
    d = 1 / guard(1 + term * d);
    c = guard(1 + term / c);
    h *= d * c;
    if (std::fabs(d * c - 1) < 1e-15) {
      break;
    }
  }
  return h;
}

// Regularized incomplete beta function I_x(a, b).
double IncompleteBeta(double a, double b, double x) {
  if (x <= 0 || x >= 1) {
    return x <= 0 ? 0 : 1;
  }
  const double front = std::exp(std::lgamma(a + b) - std::lgamma(a) - std::lgamma(b) +
                                a * std::log(x) + b * std::log1p(-x));
  return x < (a + 1) / (a + b + 2) ? front * BetaContinuedFraction(a, b, x) / a
                                   : 1 - front * BetaContinuedFraction(b, a, 1 - x) / b;
}

// Harrell-Davis estimate of quantile p: the mean of all order statistics
// weighted by a Beta(p(n+1), (1-p)(n+1)) distribution of rank. A workload's
// cell times can have a gap at p (the soak matrix's two slowest cells are 2
// of its 22, just above p90), where the single order statistic Percentile
// picks jumps with which cell happens to rank there; this estimate does not.
double HarrellDavis(std::vector<double> values, double p) {
  std::sort(values.begin(), values.end());
  const double n = static_cast<double>(values.size());
  double estimate = 0, below = 0;
  for (size_t i = 0; i < values.size(); ++i) {
    const double upto = IncompleteBeta(p * (n + 1), (1 - p) * (n + 1), (i + 1) / n);
    estimate += (upto - below) * values[i];
    below = upto;
  }
  return estimate;
}

double Ratio(double num, double den) { return den == 0 ? 0 : num / den; }

// Factor that turns each cell's host time into a reference-speed host time:
// kCalibrationRefMs over the median of the kScaleWindow calibration rounds on
// each side of the cell. (The first cell is always followed by a round.)
std::vector<double> CellScales(const LoopResult& loop) {
  std::vector<double> scales;
  const auto rounds = loop.calibration_ms.begin();
  for (size_t before : loop.cell_rounds) {
    const size_t lo = before > kScaleWindow ? before - kScaleWindow : 0;
    const size_t hi = std::min(before + kScaleWindow, loop.calibration_ms.size());
    scales.push_back(kCalibrationRefMs / Percentile({rounds + lo, rounds + hi}, 0.5));
  }
  return scales;
}

// Host-side results of a loop, each cell's host time multiplied by its scale;
// the cell time quantiles are Harrell-Davis estimates.
struct HostTimes {
  double cell_ms_p50 = 0;
  double cell_ms_p90 = 0;
  // Simulated seconds and RPCs completed over the loop, per host second.
  double sim_s_per_wall_s = 0;
  double rpcs_per_wall_s = 0;
};

HostTimes Summarize(const LoopResult& loop, const std::vector<double>& scales) {
  std::vector<double> ms;
  double host_s = 0, sim_s = 0, rpcs = 0;
  for (size_t i = 0; i < loop.cell_ms.size(); ++i) {
    ms.push_back(loop.cell_ms[i] * scales[i]);
    host_s += ms.back() / 1e3;
    sim_s += loop.cell_sim_s[i];
    rpcs += loop.cell_rpcs[i];
  }
  return {HarrellDavis(ms, 0.50), HarrellDavis(ms, 0.90), Ratio(sim_s, host_s),
          Ratio(rpcs, host_s)};
}

// VmHWM, the high-water mark of this process image's resident set. (Linux
// carries getrusage's ru_maxrss across execve, so that would report the
// launching process's peak when it is larger.)
double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // reported in kB
    }
  }
  return 0;
}

std::vector<Metric> EndToEndMetrics(const Args& args, const HostTimes& host,
                                    const SimTally& tally, double peak_rss_mb) {
  const double cells = static_cast<double>(tally.cells);
  const bool exact = args.workload == Workload::kRingNhfsstone;
  return {
      {"cell_ms_p50", host.cell_ms_p50, "ms"},
      {"cell_ms_p90", host.cell_ms_p90, "ms"},
      {"sim_s_per_wall_s", host.sim_s_per_wall_s, "s/s"},
      {"rpcs_per_wall_s", host.rpcs_per_wall_s, "1/s"},
      {"peak_rss_mb", peak_rss_mb, "MB"},
      {"sim_op_ms_p50",
       exact ? Percentile(tally.op_ms, 0.50) : BucketPercentile(tally.op_us_buckets, 0.50) / 1e3,
       "ms"},
      {"sim_op_ms_p99",
       exact ? Percentile(tally.op_ms, 0.99) : BucketPercentile(tally.op_us_buckets, 0.99) / 1e3,
       "ms"},
      {"sim_read_rate", Ratio(tally.read_rpcs, tally.read_window_s), "1/s"},
      {"server_cpu_ms_per_op", Ratio(tally.server_cpu_ms, tally.server_ops), "ms"},
      {"cell_sim_s", Ratio(tally.makespan_s, cells), "s"},
      {"cell_rpcs", Ratio(tally.workload_rpcs, cells), "count"},
  };
}

// Median host time of one span name across cells; 0 when never recorded.
double SpanMedianMs(const std::vector<HostSpan>& spans, const char* name) {
  std::vector<double> ms;
  for (const HostSpan& span : spans) {
    if (std::strcmp(span.name, name) == 0) {
      ms.push_back(span.ms());
    }
  }
  return Percentile(ms, 0.5);
}

std::vector<Metric> PerLayerMetrics(const SimTally& tally, const std::vector<HostSpan>& spans,
                                    double untraced_p50, double traced_p50,
                                    double calibration_ms) {
  const double cells = static_cast<double>(tally.cells);
  auto mean = [&](const std::string& name) { return Ratio(tally.Get(name), cells); };
  std::vector<Metric> m;
  // sim
  m.push_back({"sim.events", mean("sim.events"), "count"});
  m.push_back({"sim.host_ns_per_event", Ratio(tally.Get("host.cell_ns"), tally.Get("sim.events")),
               "ns"});
  m.push_back({"sim.callable_heap_allocs", tally.Get("sim.callable_heap_allocs"), "count"});
  m.push_back({"sim.event_high_water", tally.Get("sim.event_high_water"), "count"});
  // net
  m.push_back({"net.background_frames", mean("net.background_frames"), "count"});
  m.push_back({"net.background_share",
               Ratio(tally.Get("net.background_frames"), tally.Get("sim.events")), "frac"});
  m.push_back({"net.background_share.udp_cells",
               Ratio(tally.Get("ring.udp_cells.background_frames"),
                     tally.Get("ring.udp_cells.events")),
               "frac"});
  for (const char* name :
       {"net.frames_delivered", "net.drops_queue", "net.frames_damaged", "net.drops_loss"}) {
    m.push_back({name, mean(name), "count"});
  }
  // tcp, rpc
  m.push_back({"tcp.segments_sent", mean("tcp.segments_sent"), "count"});
  m.push_back({"tcp.retransmits", mean("tcp.retransmits"), "count"});
  m.push_back({"rpc.calls", mean("rpc.calls"), "count"});
  m.push_back({"rpc.retransmits", mean("rpc.retransmits"), "count"});
  m.push_back({"rpc.retry_frac", Ratio(tally.Get("rpc.retransmits"), tally.Get("rpc.calls")),
               "frac"});
  m.push_back({"rpc.soft_timeouts", mean("rpc.soft_timeouts"), "count"});
  // mbuf
  m.push_back({"mbuf.bytes_copied", mean("mbuf.bytes_copied"), "bytes"});
  m.push_back({"mbuf.bytes_shared", mean("mbuf.bytes_shared"), "bytes"});
  m.push_back({"mbuf.cluster_allocs", mean("mbuf.cluster_allocs"), "count"});
  // nfs
  for (size_t c = 0; c < kNumCostCategories; ++c) {
    const std::string name = std::string("nfs.server.cpu_ms.") +
                             renonfs::CostCategoryName(static_cast<renonfs::CostCategory>(c));
    m.push_back({name, mean(name), "ms"});
  }
  m.push_back({"nfs.server.nfsd_slot_waits", mean("nfs.server.nfsd_slot_waits"), "count"});
  m.push_back({"nfs.server.gathered_writes", mean("nfs.server.gathered_writes"), "count"});
  m.push_back({"nfs.server.loaned_bytes", mean("nfs.server.loaned_bytes"), "bytes"});
  for (uint32_t proc = 0; proc < kNfsProcCount; ++proc) {
    const std::string name = std::string("nfs.client.rpcs.") + renonfs::NfsProcName(proc);
    m.push_back({name, mean(name), "count"});
  }
  m.push_back({"nfs.lease.granted", mean("nfs.lease.granted"), "count"});
  m.push_back({"nfs.lease.recalls_sent", mean("nfs.lease.recalls_sent"), "count"});
  m.push_back({"nfs.lease.stale_lease_writes", tally.Get("nfs.lease.stale_lease_writes"), "count"});
  // vfs (client side), each hit fraction with its base
  for (const char* cache : {"name_cache", "attr_cache", "buf_cache"}) {
    const std::string prefix = std::string("vfs.") + cache;
    m.push_back({prefix + ".hit_frac",
                 Ratio(tally.Get(prefix + ".hits"), tally.Get(prefix + ".lookups")), "frac"});
    m.push_back({prefix + ".lookups", mean(prefix + ".lookups"), "count"});
  }
  // fs
  m.push_back({"disk.ops", mean("disk.ops"), "count"});
  m.push_back({"disk.busy_ms", mean("disk.busy_ms"), "ms"});
  // obs
  for (size_t c = 0; c < kNumLatencyComponents; ++c) {
    const std::string comp =
        renonfs::LatencyComponentName(static_cast<renonfs::LatencyComponent>(c));
    m.push_back({"obs.latency." + comp + "_share",
                 Ratio(tally.Get("obs.latency." + comp + "_ns"), tally.Get("obs.latency.total_ns")),
                 "frac"});
  }
  m.push_back({"obs.snapshot_ms", SpanMedianMs(spans, "snapshot"), "ms"});
  m.push_back({"obs.flight.frames_captured", mean("obs.flight.frames_captured"), "count"});
  m.push_back({"obs.span.conservation_failures", tally.Get("obs.span.conservation_failures"),
               "count"});
  // fault, scenario
  m.push_back({"fault.events", mean("fault.events"), "count"});
  // A soak cell's run part is everything but its replay.
  std::map<uint64_t, double> cell_ms;
  for (const HostSpan& span : spans) {
    if (std::strcmp(span.name, "cell") == 0) {
      cell_ms[span.cell] = span.ms();
    }
  }
  std::vector<double> scenario_run_ms;
  for (const HostSpan& span : spans) {
    if (std::strcmp(span.name, "replay") == 0) {
      scenario_run_ms.push_back(cell_ms[span.cell] - span.ms());
    }
  }
  m.push_back({"scenario.run_ms", Percentile(scenario_run_ms, 0.5), "ms"});
  m.push_back({"scenario.replay_ms", SpanMedianMs(spans, "replay"), "ms"});
  // workload phases
  for (const char* phase : {"build", "preload", "run", "teardown"}) {
    m.push_back({std::string("workload.") + phase + "_ms", SpanMedianMs(spans, phase), "ms"});
  }
  // tracing overhead: traced half against the untraced half of this run
  m.push_back({"trace.cell_ms_p50", traced_p50, "ms"});
  m.push_back({"trace.untraced_cell_ms_p50", untraced_p50, "ms"});
  m.push_back({"trace.overhead_frac", Ratio(traced_p50, untraced_p50) - 1, "frac"});
  // host speed: the per-layer host times above are raw, not scaled
  m.push_back({"host.calibration_ms", calibration_ms, "ms"});
  return m;
}

void WriteSpans(const std::string& path, const std::vector<HostSpan>& spans) {
  std::ofstream out(path);
  if (!out) {
    std::fprintf(stderr, "perfbench: cannot write %s\n", path.c_str());
    return;
  }
  for (const HostSpan& span : spans) {
    const bool root = std::strcmp(span.name, "cell") == 0;
    out << "{\"cell\": " << span.cell << ", \"span\": \"" << span.name << "\", \"parent\": "
        << (root ? "null" : "\"cell\"") << ", \"start_ns\": " << span.start_ns
        << ", \"end_ns\": " << span.end_ns << "}\n";
  }
}

std::string Hex(uint64_t value) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "0x%016" PRIx64, value);
  return buf;
}

// A double with all its digits, for the JSON line.
std::string Number(double value) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  return buf;
}

bool ParseArgs(int argc, char** argv, Args* args) {
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--setup-only") {
      args->setup_only = true;
      continue;
    }
    if (i + 1 >= argc) {
      return false;
    }
    const std::string value = argv[++i];
    if (flag == "--workload") {
      args->workload_name = value;
      have_workload = WorkloadFromName(value, &args->workload);
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      args->seconds = std::strtod(value.c_str(), nullptr);
    } else if (flag == "--trace") {
      args->trace = value == "1";
    } else if (flag == "--spans-out") {
      args->spans_out = value;
    } else {
      return false;
    }
  }
  return have_workload && args->seconds > 0;
}

int Main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload <ring_nhfsstone|andrew_quiet_lan|soak_matrix> "
                 "--seed <n> --seconds <s> --trace <0|1> [--spans-out <path>] [--setup-only]\n");
    return 2;
  }
  // The seed is an argument: RunNhfsstonePoint (the equivalence check) would
  // otherwise honour an exported override.
  unsetenv("RENONFS_SEED");

  RunCell(args.workload, CellContext{args.seed, 0, nullptr, nullptr});  // warm-up
  std::printf("perfbench: ready\n");
  std::fflush(stdout);
  if (args.setup_only) {
    std::vector<double> rounds;
    for (int i = 0; i < 3; ++i) {
      rounds.push_back(CalibrationRoundMs());
    }
    std::printf("perfbench: host scale %.17g\n", kCalibrationRefMs / Percentile(rounds, 0.5));
    return 0;
  }

  const size_t tallied = TalliedCells(args.workload);
  SimTally tally;
  // Ring latency samples are kept exactly (about 4,100 per cell). Reserving
  // them up front keeps the vector's doubling growth from moving
  // peak_rss_mb with the seed.
  if (args.workload == Workload::kRingNhfsstone) {
    tally.op_ms.reserve(tallied * 4500);
  }
  SpanRecorder spans;
  LoopResult loop;
  double untraced_p50 = 0;
  if (args.trace) {
    // The untraced half reruns exactly the traced half's cells.
    loop = RunLoop(args, args.seconds / 2, tallied, 0, &spans, &tally);
    const LoopResult untraced = RunLoop(args, 0, 0, loop.attempted, nullptr, nullptr);
    untraced_p50 = Percentile(untraced.cell_ms, 0.5);
    loop.attempted += untraced.attempted;
    loop.failed += untraced.failed;
    loop.failures.insert(loop.failures.end(), untraced.failures.begin(), untraced.failures.end());
  } else {
    loop = RunLoop(args, args.seconds, tallied, 0, nullptr, &tally);
  }

  const double peak_rss_mb = PeakRssMb();  // before the equivalence check's ring worlds
  const std::vector<std::string> equivalence = CheckRingEquivalence(args.seed);
  const bool correct = loop.failed == 0 && equivalence.empty();

  std::printf("perfbench: workload=%s seed=%" PRIu64 " trace=%d cells=%zu tallied=%zu\n",
              args.workload_name.c_str(), args.seed, args.trace ? 1 : 0, loop.attempted,
              tally.cells);
  std::printf("perfbench: cell_fail_frac=%.6f (%zu of %zu cells failed)\n",
              Ratio(static_cast<double>(loop.failed), static_cast<double>(loop.attempted)),
              loop.failed, loop.attempted);
  for (const std::string& failure : loop.failures) {
    std::printf("perfbench: FAILED %s\n", failure.c_str());
  }
  std::printf("perfbench: equivalence with RunNhfsstonePoint: %s\n",
              equivalence.empty() ? "exact" : "MISMATCH");
  for (const std::string& diff : equivalence) {
    std::printf("perfbench: equivalence mismatch: %s\n", diff.c_str());
  }
  std::printf("perfbench: digest=%s over %zu cells\n", Hex(tally.digest).c_str(), tally.cells);
  for (const auto& [name, hash] : tally.snapshot_hashes) {
    std::printf("perfbench: snapshot_hash %s %s\n", name.c_str(), Hex(hash).c_str());
  }

  std::vector<Metric> metrics;
  if (args.trace) {
    metrics = PerLayerMetrics(tally, spans.spans(), untraced_p50, Percentile(loop.cell_ms, 0.5),
                              Percentile(loop.calibration_ms, 0.5));
    if (!args.spans_out.empty()) {
      WriteSpans(args.spans_out, spans.spans());
    }
  } else {
    const std::vector<double> scales = CellScales(loop);
    metrics = EndToEndMetrics(args, Summarize(loop, scales), tally, peak_rss_mb);
    // The p90 needs at least ten cells beyond it.
    std::printf("perfbench: cell_ms over %zu cells, %zu beyond p90\n", loop.cell_ms.size(),
                loop.cell_ms.size() / 10);
    std::printf("perfbench: %zu calibration rounds, median %.4f ms; cell scales %.4f to %.4f\n",
                loop.calibration_ms.size(), Percentile(loop.calibration_ms, 0.5),
                *std::min_element(scales.begin(), scales.end()),
                *std::max_element(scales.begin(), scales.end()));
    const HostTimes raw = Summarize(loop, std::vector<double>(scales.size(), 1.0));
    std::printf("perfbench: raw host times: cell_ms_p50 = %.6g ms, cell_ms_p90 = %.6g ms, "
                "sim_s_per_wall_s = %.6g s/s, rpcs_per_wall_s = %.6g 1/s\n",
                raw.cell_ms_p50, raw.cell_ms_p90, raw.sim_s_per_wall_s, raw.rpcs_per_wall_s);
  }
  for (const Metric& metric : metrics) {
    std::printf("perfbench: %s = %.6g %s\n", metric.name.c_str(), metric.value,
                metric.unit.c_str());
  }

  std::string json = "{\"attempted\": " + std::to_string(loop.attempted) +
                     ", \"failed\": " + std::to_string(loop.failed) +
                     ", \"correct\": " + (correct ? "true" : "false") + ", \"digest\": \"" +
                     Hex(tally.digest) + "\", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    json += (i ? ", \"" : "\"") + metrics[i].name + "\": {\"value\": " + Number(metrics[i].value) +
            ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
