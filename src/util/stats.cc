#include "src/util/stats.h"

#include <algorithm>
#include <cmath>

namespace renonfs {

void RunningStat::Add(double sample) {
  if (count_ == 0) {
    min_ = sample;
    max_ = sample;
  } else {
    min_ = std::min(min_, sample);
    max_ = std::max(max_, sample);
  }
  ++count_;
  sum_ += sample;
  const double delta = sample - mean_;
  mean_ += delta / static_cast<double>(count_);
  m2_ += delta * (sample - mean_);
}

void RunningStat::Reset() { *this = RunningStat(); }

double RunningStat::mean() const { return count_ == 0 ? 0.0 : mean_; }

double RunningStat::variance() const {
  if (count_ < 2) {
    return 0.0;
  }
  return m2_ / static_cast<double>(count_ - 1);
}

double RunningStat::stddev() const { return std::sqrt(variance()); }

double RunningStat::min() const { return min_; }

double RunningStat::max() const { return max_; }

}  // namespace renonfs
