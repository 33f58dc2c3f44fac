// Cells of the repository benchmark.
//
// A cell is one simulated installation, from World construction to the
// quiesce audit at its teardown, driven only through the library's public
// entry points. Three workloads each supply a cell:
//
//   ring_nhfsstone   — the Table 1 ring row assembled from the public parts of
//                      RunNhfsstonePoint (World, MakeRawTransport,
//                      RawNfsCaller, Nhfsstone); cells cycle UDP rto=1s,
//                      UDP A+4D and TCP.
//   andrew_quiet_lan — the Modified Andrew Benchmark on a Reno mount on one
//                      LAN with background traffic off.
//   soak_matrix      — one cell of DefaultScenarioMatrix(false), run under
//                      the chaos harness and then replayed from its own trace.
//
// Cell i of a run uses seed + i; every World is built with
// seed_from_env = false, so an exported RENONFS_SEED cannot change the input.
#ifndef RENONFS_PERFBENCH_CELLS_H_
#define RENONFS_PERFBENCH_CELLS_H_

#include <array>
#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "src/obs/metrics.h"

namespace perfbench {

enum class Workload { kRingNhfsstone, kAndrewQuietLan, kSoakMatrix };

// Parses a workload name; false when unknown.
bool WorkloadFromName(const std::string& name, Workload* out);

// Cells per workload cycle: a run only stops on a cycle boundary, so every
// run covers the same mix (3 ring transports, 22 matrix cells).
size_t CycleLength(Workload workload);

// Host-time spans around the public calls a cell makes. All spans of one
// cell share the cell's id; the "cell" span is the parent of the others.
// Kept in memory and written out at exit.
struct HostSpan {
  uint64_t cell = 0;
  const char* name = "";
  int64_t start_ns = 0;
  int64_t end_ns = 0;

  double ms() const { return static_cast<double>(end_ns - start_ns) / 1e6; }
};

class SpanRecorder {
 public:
  static int64_t NowNs() {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
  }

  // Records [construction, destruction) as one span; inert when the
  // recorder is null.
  class Scope {
   public:
    Scope(SpanRecorder* recorder, uint64_t cell, const char* name)
        : recorder_(recorder), cell_(cell), name_(name), start_(recorder ? NowNs() : 0) {}
    ~Scope() {
      if (recorder_ != nullptr) {
        recorder_->spans_.push_back({cell_, name_, start_, NowNs()});
      }
    }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    SpanRecorder* recorder_;
    uint64_t cell_;
    const char* name_;
    int64_t start_;
  };

  void Add(HostSpan span) { spans_.push_back(span); }
  const std::vector<HostSpan>& spans() const { return spans_; }

 private:
  std::vector<HostSpan> spans_;
};

// Deterministic simulated results, summed over the cells that report into
// it (the first cells of a run, a fixed count per workload).
struct SimTally {
  size_t cells = 0;
  // Per-RPC simulated latency: exact samples (ring, from the transport's
  // rtt_probe) or merged client.nfs.lat_us.* log2 buckets (andrew, soak).
  std::vector<double> op_ms;
  std::array<uint64_t, renonfs::Log2Histogram::kNumBuckets> op_us_buckets{};
  double makespan_s = 0;
  double workload_rpcs = 0;
  double read_rpcs = 0;
  double read_window_s = 0;
  double server_cpu_ms = 0;
  double server_ops = 0;
  // FNV-1a over every cell's simulated results, in cell order.
  uint64_t digest = 0xcbf29ce484222325ull;
  // Snapshot hash of each soak cell, in cell order.
  std::vector<std::pair<std::string, uint64_t>> snapshot_hashes;
  // Per-layer counts, summed over cells (maxima where noted at the caller).
  std::map<std::string, double> layer;

  void Mix(uint64_t word);
  void MixDouble(double value);
  void Add(const std::string& name, double value) { layer[name] += value; }
  void Max(const std::string& name, double value);
  double Get(const std::string& name) const;
};

// What every cell reports, whether or not it feeds a tally.
struct CellOutcome {
  std::vector<std::string> failures;  // empty: the cell passed every gate
  double sim_s = 0;                   // simulated seconds, all installations
  uint64_t rpcs_completed = 0;        // replies received, all installations
};

struct CellContext {
  uint64_t seed = 1;              // the run's seed; this cell uses seed + index
  size_t index = 0;
  SpanRecorder* spans = nullptr;  // null: untraced
  SimTally* tally = nullptr;      // null: host-side numbers only
};

CellOutcome RunCell(Workload workload, const CellContext& context);

// Equivalence check: the ring point assembled from public parts must
// reproduce RunNhfsstonePoint's NhfsstoneResult (and rtt_probe stream)
// exactly at the same seed. Returns one line per mismatching field.
std::vector<std::string> CheckRingEquivalence(uint64_t seed);

}  // namespace perfbench

#endif  // RENONFS_PERFBENCH_CELLS_H_
