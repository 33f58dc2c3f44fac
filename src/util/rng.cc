#include "src/util/rng.h"

#include <cmath>

#include "src/util/logging.h"

namespace renonfs {

namespace {

uint64_t SplitMix64(uint64_t& x) {
  x += 0x9e3779b97f4a7c15ull;
  uint64_t z = x;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

}  // namespace

Rng::Rng(uint64_t seed) {
  uint64_t sm = seed;
  for (auto& word : state_) {
    word = SplitMix64(sm);
  }
}

uint64_t Rng::UniformUint64(uint64_t bound) {
  CHECK_GT(bound, 0u);
  // Rejection sampling to avoid modulo bias.
  const uint64_t threshold = -bound % bound;
  for (;;) {
    const uint64_t r = NextUint64();
    if (r >= threshold) {
      return r % bound;
    }
  }
}

int64_t Rng::UniformInt(int64_t lo, int64_t hi) {
  CHECK_LE(lo, hi);
  const uint64_t span = static_cast<uint64_t>(hi - lo) + 1;
  if (span == 0) {
    // Full 64-bit range.
    return static_cast<int64_t>(NextUint64());
  }
  return lo + static_cast<int64_t>(UniformUint64(span));
}

bool Rng::Bernoulli(double probability) {
  if (probability <= 0.0) {
    return false;
  }
  if (probability >= 1.0) {
    return true;
  }
  return UniformDouble() < probability;
}

double Rng::Exponential(double mean) {
  CHECK_GT(mean, 0.0);
  double u = UniformDouble();
  // Avoid log(0).
  if (u <= 0.0) {
    u = 0x1.0p-53;
  }
  return -mean * std::log(u);
}

Rng Rng::Fork() { return Rng(NextUint64()); }

}  // namespace renonfs
