// Tests of Pulse Length Approximation (paper §III-B).
#include "encoding/pla.hpp"
#include "quant/act_quant.hpp"
#include "tensor/ops.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <thread>
#include <vector>

namespace gbo::enc {
namespace {

TEST(Pla, ScaledPulseCount) {
  // Paper's Ω = {0.5..2} with p = 8 yields {4, 6, 8, 10, 12, 14, 16}.
  const std::vector<double> omega{0.5, 0.75, 1.0, 1.25, 1.5, 1.75, 2.0};
  const std::vector<std::size_t> expected{4, 6, 8, 10, 12, 14, 16};
  for (std::size_t i = 0; i < omega.size(); ++i)
    EXPECT_EQ(scaled_pulse_count(omega[i], 8), expected[i]);
}

TEST(Pla, ScaledPulseCountNeverZero) {
  EXPECT_EQ(scaled_pulse_count(0.01, 8), 1u);
  EXPECT_EQ(scaled_pulse_count(0.0, 8), 1u);
}

TEST(Pla, ApproximateIsIdentityAtBasePulses) {
  // Values already on the 9-level grid are exactly representable at 8 pulses.
  Tensor x({9});
  for (std::size_t k = 0; k < 9; ++k) x[k] = static_cast<float>(k) * 0.25f - 1.0f;
  Tensor approx = pla_approximate(x, 8);
  EXPECT_TRUE(ops::allclose(approx, x, 0.0f, 1e-6f));
}

TEST(Pla, ExtremesAlwaysExact) {
  // ±1 are representable at every pulse count — the reason PLA works on
  // BN+Tanh activations that concentrate at ±1.
  Tensor x({2}, std::vector<float>{-1.0f, 1.0f});
  for (std::size_t n : {4u, 6u, 10u, 12u, 14u, 16u}) {
    Tensor approx = pla_approximate(x, n);
    EXPECT_FLOAT_EQ(approx[0], -1.0f) << n;
    EXPECT_FLOAT_EQ(approx[1], 1.0f) << n;
  }
}

TEST(Pla, ErrorBoundedByHalfStep) {
  Rng rng(3);
  Tensor x({512});
  ops::fill_uniform(x, rng, -1.0f, 1.0f);
  Tensor q = quant::quantize(x, 9);  // base 9-level activations
  for (std::size_t n : {4u, 6u, 10u, 12u, 14u, 16u}) {
    const auto stats = pla_error(q, n);
    EXPECT_LE(stats.max_abs_error, 1.0 / static_cast<double>(n) + 1e-6) << n;
    EXPECT_LE(stats.mean_abs_error, stats.max_abs_error);
    EXPECT_LE(stats.rms_error, stats.max_abs_error + 1e-12);
  }
}

TEST(Pla, ErrorShrinksWithMorePulses) {
  Rng rng(4);
  Tensor x({2048});
  ops::fill_uniform(x, rng, -1.0f, 1.0f);
  Tensor q = quant::quantize(x, 9);
  const auto e10 = pla_error(q, 10);
  const auto e14 = pla_error(q, 14);
  const auto e56 = pla_error(q, 56);  // LCM-ish large count: near zero error
  EXPECT_GE(e10.rms_error, e14.rms_error * 0.9);
  EXPECT_LT(e56.rms_error, 1e-6);
}

TEST(Pla, SaturatedActivationsHaveZeroError) {
  // A distribution concentrated on ±1 (deep-layer BN+Tanh regime, paper's
  // empirical justification) suffers no PLA error at any pulse count.
  Tensor x({100});
  for (std::size_t i = 0; i < 100; ++i) x[i] = i % 2 ? 1.0f : -1.0f;
  for (std::size_t n : {4u, 6u, 10u, 14u}) {
    const auto stats = pla_error(x, n);
    EXPECT_EQ(stats.max_abs_error, 0.0) << n;
  }
}

// The std::lround snap that the branch-free thermometer_level replaced,
// NaN mapped to level 0 as lround's out-of-range result was.
float lround_snap(float value, std::size_t num_pulses) {
  const float p = static_cast<float>(num_pulses);
  if (value != value) return -1.0f;
  value = value > 1.0f ? 1.0f : (value < -1.0f ? -1.0f : value);
  const long level = std::lround((value + 1.0f) * 0.5f * p);
  return (2.0f * static_cast<float>(level) - p) / p;
}

bool snap_matches(float x, std::size_t num_pulses) {
  return std::bit_cast<std::uint32_t>(thermometer_snap(x, num_pulses)) ==
         std::bit_cast<std::uint32_t>(lround_snap(x, num_pulses));
}

TEST(Pla, SnapEqualsLroundOnEveryFloatAtSixPulses) {
  // Exhaustive over all 2^32 bit patterns through the vectorized in-place
  // loop. Plain threads rather than the pool, so the check keeps its wall
  // time when the suite pins the pool to one thread.
  constexpr std::uint64_t kChunk = 1u << 16, kChunks = (1ull << 32) / kChunk;
  std::atomic<std::uint64_t> next{0}, mismatches{0};
  std::atomic<std::uint32_t> first_bad{0};
  const auto worker = [&] {
    Tensor x({kChunk});
    for (std::uint64_t c; (c = next.fetch_add(1)) < kChunks;) {
      float* p = x.data();
      for (std::uint64_t i = 0; i < kChunk; ++i)
        p[i] = std::bit_cast<float>(static_cast<std::uint32_t>(c * kChunk + i));
      pla_approximate_inplace(x, 6);
      const float* q = x.data();
      for (std::uint64_t i = 0; i < kChunk; ++i) {
        const auto bits = static_cast<std::uint32_t>(c * kChunk + i);
        if (std::bit_cast<std::uint32_t>(q[i]) !=
            std::bit_cast<std::uint32_t>(
                lround_snap(std::bit_cast<float>(bits), 6))) {
          mismatches.fetch_add(1);
          first_bad.store(bits);
        }
      }
    }
  };
  std::vector<std::thread> threads;
  for (unsigned t = 0; t < std::max(4u, std::thread::hardware_concurrency());
       ++t)
    threads.emplace_back(worker);
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(mismatches.load(), 0u)
      << "e.g. bits 0x" << std::hex << first_bad.load();
}

TEST(Pla, SnapEqualsLroundAtEveryPulseCount) {
  using L = std::numeric_limits<float>;
  Rng rng(17);
  std::vector<float> specials = {0.0f, -0.0f, L::infinity(), -L::infinity(),
                                 L::quiet_NaN(), -L::quiet_NaN(),
                                 L::denorm_min(), -L::denorm_min(),
                                 L::min() * 0.5f, -L::min() * 0.5f, L::max(),
                                 -L::max(), 1.0f, -1.0f};
  for (std::size_t p = 1; p <= 16; ++p) {
    // Every grid value, the rounding midpoints between them and their
    // float neighbours.
    std::vector<float> xs = specials;
    for (std::size_t k = 0; k <= 2 * p; ++k) {
      const float v = static_cast<float>(k) / static_cast<float>(p) - 1.0f;
      xs.insert(xs.end(), {v, std::nextafter(v, 2.0f), std::nextafter(v, -2.0f)});
    }
    std::size_t bad = 0;
    for (float x : xs) bad += !snap_matches(x, p);
    for (int i = 0; i < 10000000; ++i)
      bad += !snap_matches(
          std::bit_cast<float>(static_cast<std::uint32_t>(rng())), p);
    EXPECT_EQ(bad, 0u) << "pulses " << p;
    // The in-place loop gives the scalar snap's bits.
    Tensor t({xs.size()}, xs);
    pla_approximate_inplace(t, p);
    for (std::size_t i = 0; i < xs.size(); ++i)
      ASSERT_EQ(std::bit_cast<std::uint32_t>(t[i]),
                std::bit_cast<std::uint32_t>(lround_snap(xs[i], p)))
          << "pulses " << p << " x " << xs[i];
  }
}

TEST(Pla, EncodeDecodesToApproximation) {
  Rng rng(5);
  Tensor x({64});
  ops::fill_uniform(x, rng, -1.0f, 1.0f);
  for (std::size_t n : {6u, 10u, 14u}) {
    PulseTrain train = pla_encode(x, n);
    EXPECT_EQ(train.pulses.size(), n);
    Tensor decoded = train.decode();
    Tensor approx = pla_approximate(x, n);
    EXPECT_TRUE(ops::allclose(decoded, approx, 1e-5f, 1e-6f)) << n;
  }
}

}  // namespace
}  // namespace gbo::enc
