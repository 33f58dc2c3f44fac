// Simulated time. All simulation timestamps and durations are SimTime
// (int64 nanoseconds); helpers construct durations from human units.
#ifndef RENONFS_SRC_SIM_TIME_H_
#define RENONFS_SRC_SIM_TIME_H_

#include <cstdint>

namespace renonfs {

using SimTime = int64_t;  // nanoseconds

constexpr SimTime Nanoseconds(int64_t n) { return n; }
constexpr SimTime Microseconds(int64_t us) { return us * 1000; }
constexpr SimTime Milliseconds(int64_t ms) { return ms * 1000 * 1000; }
constexpr SimTime Seconds(int64_t s) { return s * 1000 * 1000 * 1000; }

constexpr double ToMilliseconds(SimTime t) { return static_cast<double>(t) / 1e6; }
constexpr double ToSeconds(SimTime t) { return static_cast<double>(t) / 1e9; }

// Duration of `bytes` serialized at `bits_per_sec`.
constexpr SimTime TransmissionTime(uint64_t bytes, double bits_per_sec) {
  return static_cast<SimTime>(static_cast<double>(bytes) * 8.0 / bits_per_sec * 1e9);
}

}  // namespace renonfs

#endif  // RENONFS_SRC_SIM_TIME_H_
