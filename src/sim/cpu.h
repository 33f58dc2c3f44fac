// CPU resource model.
//
// A host CPU is a FIFO-serialized resource: every piece of protocol work
// (interrupt service, checksum, copies, RPC dispatch, file system code)
// charges a cost and completes when the CPU has worked through everything
// queued ahead of it. This reproduces the paper's central server behaviour:
// NFS servers of the era were CPU bound, so response time rises as offered
// load approaches the CPU's service capacity.
//
// Costs are specified in nominal nanoseconds on the reference machine
// (a 0.9 MIPS MicroVAXII, cpu speed factor 1.0) and scaled down for faster
// processors (e.g. a DECstation 3100).
//
// Every charge carries a CostCategory so a CpuProfile (src/obs/profiler.h)
// can attribute busy time the way the paper's kernel profiles did — the
// Section 3 observation (">1/3 of server CPU in low-level network interface
// code", dominated by copies and checksums) is an assertion over these
// accumulators, not a guess.
#ifndef RENONFS_SRC_SIM_CPU_H_
#define RENONFS_SRC_SIM_CPU_H_

#include <algorithm>
#include <array>
#include <coroutine>
#include <cstddef>
#include <utility>

#include "src/sim/scheduler.h"
#include "src/sim/time.h"

namespace renonfs {

// Where a CPU charge came from. Mirrors the buckets of the paper's flat
// kernel profile; kOther collects workload-local compute (compiles, scans)
// that no protocol layer claims.
enum class CostCategory : uint8_t {
  kOther = 0,
  kCopy,       // memory-to-memory data movement, any layer
  kChecksum,   // Internet checksum, UDP or TCP
  kIfInput,    // NIC receive interrupt service
  kIfOutput,   // NIC transmit startup, PTE swaps, transmit interrupts
  kIp,         // IP input/output/forwarding/reassembly
  kUdp,        // UDP protocol processing + socket wakeups
  kTcp,        // TCP segment processing + socket wakeups
  kRpc,        // RPC header encode/decode, xid handling
  kXdr,        // layered XDR marshalling (reference-port personality)
  kNfsProc,    // NFS procedure work: vnode ops, caches, fattr, dir scans
  kDisk,       // disk driver CPU overhead (none modelled yet; reserved)
};
inline constexpr size_t kNumCostCategories = 12;

// Short lower-case name ("copy", "rpc_dispatch", ...), for profiles/metrics.
const char* CostCategoryName(CostCategory category);

class CpuResource {
 public:
  CpuResource(Scheduler& scheduler, double speed_factor = 1.0)
      : scheduler_(scheduler), speed_factor_(speed_factor) {}
  CpuResource(const CpuResource&) = delete;
  CpuResource& operator=(const CpuResource&) = delete;

  SimTime ScaledCost(SimTime nominal) const {
    return static_cast<SimTime>(static_cast<double>(nominal) / speed_factor_);
  }

  // Queues `nominal` worth of work; `done` runs when the work completes. The
  // completion callable forwards straight into the scheduler's pooled event
  // storage — no std::function type-erasure on this per-event path.
  template <typename F>
  void Charge(SimTime nominal, CostCategory category, F&& done) {
    const SimTime cost = ScaledCost(nominal);
    const SimTime start = std::max(busy_until_, scheduler_.now());
    busy_until_ = start + cost;
    Account(cost, category);
    scheduler_.Schedule(busy_until_ - scheduler_.now(), std::forward<F>(done));
  }
  template <typename F>
  void Charge(SimTime nominal, F&& done) {
    Charge(nominal, CostCategory::kOther, std::forward<F>(done));
  }

  // Fire-and-forget accounting: queues the work with no completion action.
  // Subsequent charges still queue behind it.
  void ChargeBackground(SimTime nominal, CostCategory category = CostCategory::kOther);

  // Awaitable version: co_await cpu.Use(cost, CostCategory::kNfsProc).
  struct UseAwaiter {
    CpuResource& cpu;
    SimTime nominal;
    CostCategory category;
    bool await_ready() const noexcept { return false; }
    void await_suspend(std::coroutine_handle<> handle) {
      cpu.Charge(nominal, category, [handle]() { handle.resume(); });
    }
    void await_resume() const noexcept {}
  };
  UseAwaiter Use(SimTime nominal, CostCategory category = CostCategory::kOther) {
    return UseAwaiter{*this, nominal, category};
  }

  // Total CPU-busy time accumulated so far; the difference of two samples
  // divided by elapsed simulated time is the utilization over that window
  // (the paper's patched idle-loop counter, inverted).
  SimTime busy_accum() const { return busy_accum_; }
  double speed_factor() const { return speed_factor_; }

  // Busy time attributed to one category; the categories always sum to
  // busy_accum() (every charge lands in exactly one bucket).
  SimTime category_accum(CostCategory category) const {
    return category_accum_[static_cast<size_t>(category)];
  }

 private:
  void Account(SimTime cost, CostCategory category) {
    busy_accum_ += cost;
    category_accum_[static_cast<size_t>(category)] += cost;
  }

  Scheduler& scheduler_;
  double speed_factor_;
  SimTime busy_until_ = 0;
  SimTime busy_accum_ = 0;
  std::array<SimTime, kNumCostCategories> category_accum_{};
};

}  // namespace renonfs

#endif  // RENONFS_SRC_SIM_CPU_H_
