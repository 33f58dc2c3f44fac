// Streaming statistics used by the experiment harnesses.
#ifndef RENONFS_SRC_UTIL_STATS_H_
#define RENONFS_SRC_UTIL_STATS_H_

#include <cstddef>

namespace renonfs {

// Running mean / variance / min / max (Welford's algorithm).
class RunningStat {
 public:
  void Add(double sample);
  void Reset();

  size_t count() const { return count_; }
  double mean() const;
  double variance() const;
  double stddev() const;
  double min() const;
  double max() const;
  double sum() const { return sum_; }

 private:
  size_t count_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
  double sum_ = 0.0;
};

}  // namespace renonfs

#endif  // RENONFS_SRC_UTIL_STATS_H_
