// Retransmit-timeout estimation for NFS RPCs over UDP (Section 4).
//
// The paper's tuned UDP transport keeps a separate round-trip estimator for
// each of the four most frequent RPCs — Read, Write, Getattr and Lookup —
// and uses the mount's constant timeout for everything else (the infrequent,
// mostly non-idempotent procedures, where a conservative RTO minimizes the
// risk of redoing the RPC [Juszczak89]).
//
// Two tuning decisions reported in the paper are reproduced exactly:
//   * the RTO for the *big* RPCs (Read/Write) is "A+4D" rather than "A+2D",
//     because trace data showed much larger RTT variance for big RPCs;
//   * the RTO is recomputed from the estimator on every NFS clock tick, not
//     snapshotted at transmission time, so the freshest A and D are used.
//
// The congestion window on outstanding RPCs follows TCP's: +1 per round trip
// on reply reception, halved on retransmit timeout. Slow start was found to
// hurt and removed; it remains available for the ablation benchmark.
#ifndef RENONFS_SRC_RPC_RTO_H_
#define RENONFS_SRC_RPC_RTO_H_

#include <array>
#include <cstddef>
#include <cstdint>

#include "src/sim/time.h"

namespace renonfs {

// Timer class for an RPC: which estimator times it and which deviation
// multiplier applies. kOther always uses the mount's constant timeout.
enum class RpcTimerClass : uint8_t { kRead = 0, kWrite = 1, kGetattr = 2, kLookup = 3, kOther = 4 };
inline constexpr size_t kNumTimedClasses = 4;

// Is this one of the paper's "big" RPC classes (high RTT variance)?
inline constexpr bool IsBigClass(RpcTimerClass cls) {
  return cls == RpcTimerClass::kRead || cls == RpcTimerClass::kWrite;
}

// Mean/deviation RTT estimator in the style of the 4.3BSD TCP code: A is the
// smoothed mean (gain 1/8), D the smoothed mean deviation (gain 1/4).
class RttEstimator {
 public:
  void AddSample(SimTime rtt);

  bool valid() const { return samples_ > 0; }
  SimTime smoothed_mean() const { return srtt_; }       // "A"
  SimTime smoothed_deviation() const { return sdev_; }  // "D"

  // A + k*D, clamped to [floor, ceiling].
  SimTime Rto(int deviation_multiplier, SimTime floor, SimTime ceiling) const;

 private:
  SimTime srtt_ = 0;
  SimTime sdev_ = 0;
  uint64_t samples_ = 0;
};

struct RtoPolicyOptions {
  SimTime constant_timeout = Seconds(1);  // the mount's "timeo"
  SimTime max_rto = Seconds(30);
  int big_deviation_multiplier = 4;  // A+4D (the paper's fix; ablation: 2)
  bool dynamic = false;              // false == the old fixed-RTO transport
};

// Per-class RTO policy for a mount.
class RtoPolicy {
 public:
  explicit RtoPolicy(RtoPolicyOptions options) : options_(options) {}

  // Records a clean (non-retransmitted, per Karn) RTT sample.
  void AddSample(RpcTimerClass cls, SimTime rtt);

  // Base RTO for a first transmission of this class, per current A and D.
  SimTime CurrentRto(RpcTimerClass cls) const;

  // RTO for a request on its `tries`-th transmission (exponential backoff).
  SimTime BackedOffRto(RpcTimerClass cls, int tries) const;

  // The estimator of a timed class; kOther has none (CHECK-fails).
  const RttEstimator& estimator(RpcTimerClass cls) const;
  const RtoPolicyOptions& options() const { return options_; }

 private:
  RtoPolicyOptions options_;
  std::array<RttEstimator, kNumTimedClasses> estimators_;
};

// Congestion window on outstanding RPC requests, in eighths of a request
// (fixed point, like the BSD implementation's NFS_CWNDSCALE arithmetic).
class RpcCongestionWindow {
 public:
  struct Options {
    bool enabled = false;
    bool slow_start = false;  // the paper removed this; ablation keeps it
  };

  explicit RpcCongestionWindow(Options options) : options_(options) {}

  // May another request be put on the wire given `outstanding` in flight?
  bool CanSend(size_t outstanding) const;

  void OnReply();
  void OnTimeout();

  double window() const { return static_cast<double>(cwnd_eighths_) / 8.0; }
  bool enabled() const { return options_.enabled; }

 private:
  Options options_;
  int64_t cwnd_eighths_ = 8;              // start at one outstanding request
  int64_t ssthresh_eighths_ = 8 * 1024;   // effectively "no threshold" initially
};

}  // namespace renonfs

#endif  // RENONFS_SRC_RPC_RTO_H_
