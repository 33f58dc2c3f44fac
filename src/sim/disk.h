// Disk model: FIFO-serialized device with a fixed average access time
// (seek + rotational latency) plus a transfer time proportional to the
// request size. Default parameters approximate the RD53 drives on the
// paper's MicroVAXII servers.
#ifndef RENONFS_SRC_SIM_DISK_H_
#define RENONFS_SRC_SIM_DISK_H_

#include <algorithm>
#include <coroutine>
#include <cstdint>
#include <utility>

#include "src/sim/scheduler.h"
#include "src/sim/time.h"

namespace renonfs {

struct DiskProfile {
  SimTime avg_access = Milliseconds(33);        // seek + rotational latency
  double transfer_bytes_per_sec = 625.0 * 1024;  // ~5 Mbit/s media rate

  static DiskProfile Rd53() { return DiskProfile{}; }
};

class DiskModel {
 public:
  DiskModel(Scheduler& scheduler, DiskProfile profile = DiskProfile::Rd53())
      : scheduler_(scheduler), profile_(profile) {}
  DiskModel(const DiskModel&) = delete;
  DiskModel& operator=(const DiskModel&) = delete;

  SimTime OpLatency(uint64_t bytes) const {
    const SimTime nominal =
        profile_.avg_access +
        static_cast<SimTime>(static_cast<double>(bytes) / profile_.transfer_bytes_per_sec * 1e9);
    return static_cast<SimTime>(static_cast<double>(nominal) * slow_factor_);
  }

  // Fault injection: inflate every operation's latency by `factor` (>= 1).
  // Models a drive in recovery (thermal recalibration, bad-block sparing,
  // a saturating SCSI bus) rather than a dead one — requests still finish,
  // just slowly enough to pile nfsds up behind the queue.
  void set_slow_factor(double factor) { slow_factor_ = factor < 1.0 ? 1.0 : factor; }
  double slow_factor() const { return slow_factor_; }

  // Queues one I/O of `bytes`; `done` runs when it completes. Forwarded
  // straight into the scheduler's pooled event storage, like CpuResource.
  template <typename F>
  void Submit(uint64_t bytes, F&& done) {
    const SimTime latency = OpLatency(bytes);
    const SimTime start = std::max(busy_until_, scheduler_.now());
    busy_until_ = start + latency;
    busy_accum_ += latency;
    ++ops_;
    scheduler_.Schedule(busy_until_ - scheduler_.now(), std::forward<F>(done));
  }

  struct IoAwaiter {
    DiskModel& disk;
    uint64_t bytes;
    bool await_ready() const noexcept { return false; }
    void await_suspend(std::coroutine_handle<> handle) {
      disk.Submit(bytes, [handle]() { handle.resume(); });
    }
    void await_resume() const noexcept {}
  };
  IoAwaiter Io(uint64_t bytes) { return IoAwaiter{*this, bytes}; }

  uint64_t ops_completed() const { return ops_; }
  SimTime busy_accum() const { return busy_accum_; }

  // Absolute time at which everything currently queued has been serviced
  // (may be in the past when the device is idle). An I/O submitted before
  // this moment cannot start sooner — which is what lets the server's write
  // gathering hold its batch open for exactly as long as the queue ahead of
  // it would have made the commit wait anyway.
  SimTime queue_clears_at() const { return busy_until_; }

 private:
  Scheduler& scheduler_;
  DiskProfile profile_;
  double slow_factor_ = 1.0;
  SimTime busy_until_ = 0;
  SimTime busy_accum_ = 0;
  uint64_t ops_ = 0;
};

}  // namespace renonfs

#endif  // RENONFS_SRC_SIM_DISK_H_
