// Reproducible random number generation for the whole library.
//
// Every stochastic component (weight init, data generation, crossbar noise,
// dataloader shuffling) takes an explicit Rng so experiments are replayable
// bit-for-bit from a single seed. We use xoshiro256** (public domain,
// Blackman & Vigna) rather than std::mt19937 because it is faster, has a
// tiny state that is cheap to fork, and gives identical streams across
// standard library implementations.
#pragma once

#include <array>
#include <cmath>
#include <cstddef>
#include <cstdint>

namespace gbo {

/// Deterministic, fork-able pseudo random number generator (xoshiro256**).
///
/// Satisfies std::uniform_random_bit_generator so it can be handed to
/// standard algorithms (e.g. std::shuffle).
class Rng {
 public:
  using result_type = std::uint64_t;

  /// Seeds the four 64-bit words of state via splitmix64, which guarantees
  /// well-mixed state even for small consecutive seeds.
  explicit Rng(std::uint64_t seed = 0x9E3779B97F4A7C15ull);

  static constexpr result_type min() { return 0; }
  static constexpr result_type max() { return ~result_type{0}; }

  /// Next 64 random bits.
  result_type operator()();

  /// Uniform double in [0, 1).
  double uniform();

  /// Uniform double in [lo, hi).
  double uniform(double lo, double hi);

  /// Uniform integer in [lo, hi] (inclusive), lo <= hi.
  std::int64_t uniform_int(std::int64_t lo, std::int64_t hi);

  /// Standard normal via Box-Muller (cached second value).
  double normal();

  /// Normal with given mean and standard deviation.
  double normal(double mean, double stddev);

  /// out[i] = float(normal(mean, stddev)) for i in [0, n): n sequential
  /// calls, so the values and the end state (cached second normal
  /// included) are bitwise theirs.
  void fill_normal(float* out, std::size_t n, double mean, double stddev);

  /// Bernoulli draw with probability p of returning true.
  bool bernoulli(double p);

  /// Derives an independent child generator. Forking the same parent with
  /// the same `stream` id always yields the same child, which lets modules
  /// own private streams without coupling their consumption order.
  Rng fork(std::uint64_t stream) const;

 private:
  std::array<std::uint64_t, 4> s_{};
  bool has_cached_normal_ = false;
  double cached_normal_ = 0.0;
};

}  // namespace gbo
