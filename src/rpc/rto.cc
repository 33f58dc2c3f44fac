#include "src/rpc/rto.h"

#include <algorithm>

namespace renonfs {

void RttEstimator::AddSample(SimTime rtt) {
  if (samples_ == 0) {
    srtt_ = rtt;
    sdev_ = rtt / 2;
  } else {
    const SimTime delta = rtt - srtt_;
    srtt_ += delta / 8;
    const SimTime abs_delta = delta < 0 ? -delta : delta;
    sdev_ += (abs_delta - sdev_) / 4;
  }
  ++samples_;
}

SimTime RttEstimator::Rto(int deviation_multiplier, SimTime floor, SimTime ceiling) const {
  const SimTime raw = srtt_ + deviation_multiplier * sdev_;
  return std::clamp(raw, floor, ceiling);
}

void RtoPolicy::AddSample(RpcTimerClass cls, SimTime rtt) {
  if (cls == RpcTimerClass::kOther) {
    return;
  }
  estimators_[static_cast<size_t>(cls)].AddSample(rtt);
}

SimTime RtoPolicy::CurrentRto(RpcTimerClass cls) const {
  if (!options_.dynamic || cls == RpcTimerClass::kOther) {
    return options_.constant_timeout;
  }
  const RttEstimator& est = estimators_[static_cast<size_t>(cls)];
  if (!est.valid()) {
    return options_.constant_timeout;
  }
  const int multiplier =
      IsBigClass(cls) ? options_.big_deviation_multiplier : options_.small_deviation_multiplier;
  return est.Rto(multiplier, options_.min_rto, options_.max_rto);
}

SimTime RtoPolicy::BackedOffRto(RpcTimerClass cls, int tries) const {
  SimTime rto = CurrentRto(cls);
  for (int i = 0; i < tries && rto < options_.max_rto; ++i) {
    rto *= 2;
  }
  return std::min(rto, options_.max_rto);
}

bool RpcCongestionWindow::CanSend(size_t outstanding) const {
  if (!options_.enabled) {
    return true;
  }
  return static_cast<int64_t>(outstanding) * 8 < cwnd_eighths_;
}

void RpcCongestionWindow::OnReply() {
  if (!options_.enabled) {
    return;
  }
  const int64_t max_eighths = static_cast<int64_t>(options_.max_window) * 8;
  if (options_.slow_start && cwnd_eighths_ < ssthresh_eighths_) {
    cwnd_eighths_ += 8;  // exponential: +1 request per reply
  } else {
    // +1 request per round trip: +1/cwnd per reply, in eighths.
    cwnd_eighths_ += std::max<int64_t>(1, (8 * 8) / cwnd_eighths_);
  }
  cwnd_eighths_ = std::min(cwnd_eighths_, max_eighths);
}

void RpcCongestionWindow::OnTimeout() {
  if (!options_.enabled) {
    return;
  }
  ssthresh_eighths_ = std::max<int64_t>(cwnd_eighths_ / 2, 8);
  cwnd_eighths_ = std::max<int64_t>(cwnd_eighths_ / 2, 8);
}

}  // namespace renonfs
