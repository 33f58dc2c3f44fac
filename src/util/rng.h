// Deterministic pseudo-random number generation for reproducible experiments.
//
// Every stochastic component (loss models, background traffic, workload
// generators) takes an explicit Rng so that a seed fully determines a run.
#ifndef RENONFS_SRC_UTIL_RNG_H_
#define RENONFS_SRC_UTIL_RNG_H_

#include <array>
#include <bit>
#include <cstdint>

namespace renonfs {

// xoshiro256** by Blackman & Vigna, seeded through SplitMix64.
class Rng {
 public:
  explicit Rng(uint64_t seed);

  // Inline: a background burst makes about 16 draws.
  uint64_t NextUint64() {
    const uint64_t result = std::rotl(state_[1] * 5, 7) * 9;
    const uint64_t t = state_[1] << 17;
    state_[2] ^= state_[0];
    state_[3] ^= state_[1];
    state_[1] ^= state_[2];
    state_[0] ^= state_[3];
    state_[2] ^= t;
    state_[3] = std::rotl(state_[3], 45);
    return result;
  }

  // Uniform in [0, bound). bound must be > 0.
  uint64_t UniformUint64(uint64_t bound);

  // Uniform in [lo, hi] inclusive.
  int64_t UniformInt(int64_t lo, int64_t hi);

  // Uniform in [0, 1).
  double UniformDouble() { return static_cast<double>(NextUint64() >> 11) * 0x1.0p-53; }

  // True with the given probability (clamped to [0, 1]).
  bool Bernoulli(double probability);

  // Exponentially distributed with the given mean (> 0). Used for Poisson
  // arrival processes (background traffic, workload inter-arrival times).
  double Exponential(double mean);

  // Forks an independent stream; the child is seeded from this stream so
  // component seeds stay stable when unrelated components are added.
  Rng Fork();

 private:
  std::array<uint64_t, 4> state_;
};

}  // namespace renonfs

#endif  // RENONFS_SRC_UTIL_RNG_H_
