// Deterministic pseudo-random number generation.
//
// All randomness in the simulators flows through Rng so that experiments are exactly
// reproducible from a seed. The generator is SplitMix64-seeded xoshiro256**, which is
// fast, has a tiny state, and is identical on every platform (unlike std::mt19937's
// distribution implementations, whose outputs vary across standard libraries).
#ifndef MONOTASKS_SRC_COMMON_RNG_H_
#define MONOTASKS_SRC_COMMON_RNG_H_

#include <cstdint>

namespace monoutil {

class Rng {
 public:
  explicit Rng(uint64_t seed) { Reseed(seed); }

  // Resets the generator state from `seed`.
  void Reseed(uint64_t seed);

  // Returns a uniformly distributed 64-bit value.
  uint64_t NextU64();

  // Returns a double uniformly distributed in [0, 1).
  double NextDouble();

  // Returns a double uniformly distributed in [lo, hi).
  double Uniform(double lo, double hi);

  // Returns an integer uniformly distributed in [0, n). Requires n > 0.
  uint64_t NextBelow(uint64_t n);

  // Returns a sample from an exponential distribution with the given mean (> 0).
  double Exponential(double mean);

  // Returns a sample from a normal distribution (Box-Muller; one value per call).
  double Normal(double mean, double stddev);

 private:
  uint64_t state_[4];
};

}  // namespace monoutil

#endif  // MONOTASKS_SRC_COMMON_RNG_H_
