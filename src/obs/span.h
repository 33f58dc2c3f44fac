// Causal span trees + critical-path latency attribution.
//
// The Tracer (trace.h) already records the full causal stream of every RPC:
// call start, each transmission, server receive, slot waits, disk queue
// enter/leave, gather joins, reply, completion. A SpanCollector attaches to
// the tracer as its SpanSink and folds that stream — online, O(1) per event,
// with zero heap allocation after construction — into a span tree per NFS
// op: the op is the root span, each RPC attempt a child (retransmit lineage
// kept as the attempt timestamps), and every wait the op experienced a leaf
// segment.
//
// The critical-path analyzer is the fold itself: the op's wall-clock life
// [call start, completion] is partitioned into exclusive latency components
// by a phase machine over the merged event stream. Each inter-event interval
// is attributed to exactly one component, so the components sum to the
// measured op latency *exactly* — a hard conservation invariant, checked on
// every completed op. When concurrent causes overlap (a retransmit's
// duplicate arriving while the first execution sits in the disk queue), the
// most recent causal signal wins; attribution stays a true partition.
//
// Components (see LatencyComponent):
//   send_wait    call start -> first transmission (cwnd / send-queue gate)
//   network      a frame (call or reply) in flight on the medium
//   backoff_wait client holding an RTO after a lost/unanswered transmission
//   server_queue waiting for an nfsd slot on the server
//   server_cpu   on-server execution (CPU charges, cache walks, dispatch)
//   disk_queue   disk op queued behind earlier I/O (FIFO wait, exact)
//   disk_service disk op being serviced
//   gather_wait  WRITE parked in a gather window / joined batch
//
// CPU charges are additionally annotated per CostCategory via OnCpuCharge —
// the tree records both *where the wall clock went* (the partition) and
// *what the server CPU did* for the op (the annotation).
//
// Sampling is deterministic head sampling: a seeded hash of the xid decides
// at kClientCallStart whether the op is tracked, so the same seed tracks the
// same ops in every run. Aggregates are per-proc per-component histograms
// plus an always-keep-top-K-slowest retention per proc. The collector is
// passive (never schedules, never allocates after construction), so enabling
// it cannot perturb simulated time.
#ifndef RENONFS_SRC_OBS_SPAN_H_
#define RENONFS_SRC_OBS_SPAN_H_

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "src/obs/metrics.h"
#include "src/obs/trace.h"
#include "src/sim/cpu.h"
#include "src/sim/time.h"

namespace renonfs {

enum class LatencyComponent : uint8_t {
  kSendWait = 0,
  kNetwork,
  kBackoffWait,
  kServerQueue,
  kServerCpu,
  kDiskQueue,
  kDiskService,
  kGatherWait,
};
inline constexpr size_t kNumLatencyComponents = 8;
// Short lower-case name ("backoff_wait", ...), for tables and JSON.
const char* LatencyComponentName(LatencyComponent component);

// Proc numbers are folded into this many aggregate slots (NFS v2 uses 0..17;
// anything larger lands in the last slot).
inline constexpr size_t kSpanProcSlots = 32;
// Retransmit lineage kept per op: timestamps of the first kMaxSpanAttempts
// transmissions (the attempt count itself is exact regardless).
inline constexpr size_t kMaxSpanAttempts = 8;
// Slowest completed ops retained per proc.
inline constexpr size_t kMaxSlowOps = 8;

// A completed, analyzed span tree in compact form: the root span's bounds,
// the child-attempt lineage, and the leaf segments (wall-clock partition +
// CPU annotation).
struct OpBreakdown {
  uint32_t xid = 0;
  uint32_t proc = 0;
  bool ok = false;
  uint8_t attempt_count = 0;  // timestamps kept (<= kMaxSpanAttempts)
  uint32_t attempts = 0;      // total transmissions, exact
  SimTime start = 0;
  SimTime end = 0;
  std::array<SimTime, kNumLatencyComponents> comp{};
  std::array<SimTime, kNumCostCategories> cpu{};
  std::array<SimTime, kMaxSpanAttempts> attempt_at{};

  SimTime total() const { return end - start; }
};

struct SpanOptions {
  uint64_t seed = 1;
  // Track xids whose seeded hash lands on 0 mod sample_period: 1 = every op,
  // N = 1/N head sampling, 0 = collector disabled (nothing tracked).
  uint32_t sample_period = 1;
};

struct SpanStats {
  uint64_t events_seen = 0;
  uint64_t ops_started = 0;
  uint64_t ops_completed = 0;
  uint64_t sampled_out = 0;           // ops skipped by head sampling
  uint64_t pool_exhausted_drops = 0;  // would-be heap spills; must stay 0
  uint64_t cpu_charges = 0;
  uint64_t live_high_water = 0;
  uint64_t conservation_checks = 0;
  uint64_t conservation_failures = 0;  // CHECK-fatal, but counted for tests
};

class SpanCollector : public SpanSink {
 public:
  explicit SpanCollector(SpanOptions options = {});
  SpanCollector(const SpanCollector&) = delete;
  SpanCollector& operator=(const SpanCollector&) = delete;

  // SpanSink: fed synchronously from Tracer::Record.
  void OnTraceEvent(const TraceEvent& event) override;
  void OnCpuCharge(uint32_t xid, uint8_t category, SimTime cost) override;

  // Deterministic head-sampling decision for an xid (same answer every run
  // with the same seed).
  bool Sampled(uint32_t xid) const;

  const SpanStats& stats() const { return stats_; }
  size_t live_ops() const { return live_; }
  const SpanOptions& options() const { return options_; }

  // Aggregate wall-clock partition for one proc slot (all completed ops).
  struct ProcBreakdown {
    uint64_t ops = 0;
    SimTime total = 0;
    std::array<SimTime, kNumLatencyComponents> comp{};
  };
  const ProcBreakdown& breakdown(uint32_t proc) const {
    return breakdown_[ProcSlot(proc)];
  }
  ProcBreakdown TotalBreakdown() const;  // summed across procs

  // Components of one proc's aggregate, largest share of total time first.
  struct ComponentShare {
    LatencyComponent component = LatencyComponent::kSendWait;
    double share = 0.0;  // fraction of the proc's total wall-clock time
  };
  std::vector<ComponentShare> TopComponents(uint32_t proc, size_t n) const;

  // Slowest retained ops for one proc (or all procs), slowest first.
  std::vector<OpBreakdown> SlowOps(uint32_t proc) const;
  std::vector<OpBreakdown> SlowOps() const;

  // Pretty proc numbers in tables (e.g. NfsProcName); optional.
  void set_proc_namer(const char* (*namer)(uint32_t)) { proc_namer_ = namer; }

  // Human-readable breakdown: per-proc component shares plus a tail
  // attribution line per proc ("p99 lookup = 71% backoff_wait, ...") built
  // from the retained op nearest that proc's p99 latency.
  std::string BreakdownTable() const;

 private:
  // A live (in-flight) op being folded. xid == 0 marks a free slot.
  struct OpRecord {
    uint32_t xid = 0;
    uint32_t proc = 0;
    uint32_t attempts = 0;
    uint8_t attempt_count = 0;
    LatencyComponent phase = LatencyComponent::kSendWait;
    SimTime start = 0;
    SimTime last_at = 0;
    SimTime pending_disk_wait = 0;
    std::array<SimTime, kNumLatencyComponents> comp{};
    std::array<SimTime, kNumCostCategories> cpu{};
    std::array<SimTime, kMaxSpanAttempts> attempt_at{};
  };

  static size_t ProcSlot(uint32_t proc) {
    return proc < kSpanProcSlots ? proc : kSpanProcSlots - 1;
  }
  std::string ProcName(uint32_t proc) const;

  OpRecord* Find(uint32_t xid);
  OpRecord* Begin(uint32_t xid, const TraceEvent& event);
  void Advance(OpRecord& rec, const TraceEvent& event);
  void Finish(OpRecord& rec, const TraceEvent& event);
  void Release(OpRecord& rec);
  void Retain(const OpRecord& rec, const TraceEvent& complete);

  // Open-addressed xid -> pool-slot index map (fixed capacity, tombstoned
  // deletes, periodic in-place rebuild — no allocation after construction).
  void TableInsert(uint32_t xid, uint32_t slot);
  void TableErase(uint32_t xid);
  void TableRebuild();

  SpanOptions options_;
  SpanStats stats_;
  const char* (*proc_namer_)(uint32_t) = nullptr;

  std::vector<OpRecord> pool_;
  std::vector<uint32_t> free_;  // free pool slots, LIFO
  size_t live_ = 0;
  std::vector<uint64_t> table_;  // packed (xid, slot+1); see span.cc
  size_t table_mask_ = 0;
  size_t tombstones_ = 0;

  std::array<ProcBreakdown, kSpanProcSlots> breakdown_{};
  std::array<Log2Histogram, kSpanProcSlots> lat_hist_{};
  std::array<std::array<OpBreakdown, kMaxSlowOps>, kSpanProcSlots> slow_{};
  std::array<uint32_t, kSpanProcSlots> slow_count_{};
};

}  // namespace renonfs

#endif  // RENONFS_SRC_OBS_SPAN_H_
