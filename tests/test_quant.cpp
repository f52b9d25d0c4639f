#include "quant/act_quant.hpp"
#include "nn/eval_context.hpp"
#include "quant/binary_weight.hpp"
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

namespace gbo::quant {
namespace {

TEST(BinaryWeight, SignWithUnitScale) {
  Tensor w({4}, std::vector<float>{0.3f, -0.7f, 0.0f, -0.1f});
  Tensor b = binarize(w, /*scaled=*/false);
  EXPECT_FLOAT_EQ(b[0], 1.0f);
  EXPECT_FLOAT_EQ(b[1], -1.0f);
  EXPECT_FLOAT_EQ(b[2], 1.0f);  // sign(0) -> +1 by convention
  EXPECT_FLOAT_EQ(b[3], -1.0f);
}

TEST(BinaryWeight, MeanAbsScale) {
  Tensor w({4}, std::vector<float>{0.4f, -0.8f, 0.2f, -0.6f});
  float scale = 0.0f;
  Tensor b = binarize(w, /*scaled=*/true, &scale);
  EXPECT_NEAR(scale, 0.5f, 1e-6f);
  EXPECT_FLOAT_EQ(b[0], 0.5f);
  EXPECT_FLOAT_EQ(b[1], -0.5f);
}

TEST(BinaryWeight, ZeroTensorFallsBackToUnitScale) {
  Tensor w({3});
  float scale = 0.0f;
  Tensor b = binarize(w, true, &scale);
  EXPECT_FLOAT_EQ(scale, 1.0f);
  EXPECT_FLOAT_EQ(b[0], 1.0f);
}

TEST(BinaryWeight, SteClipZeroesSaturatedGrads) {
  Tensor w({4}, std::vector<float>{0.5f, 1.5f, -1.5f, -0.5f});
  Tensor g({4}, 1.0f);
  ste_clip_grad(w, g);
  EXPECT_FLOAT_EQ(g[0], 1.0f);
  EXPECT_FLOAT_EQ(g[1], 0.0f);
  EXPECT_FLOAT_EQ(g[2], 0.0f);
  EXPECT_FLOAT_EQ(g[3], 1.0f);
}

TEST(BinaryWeight, ClampLatent) {
  Tensor w({3}, std::vector<float>{2.0f, -3.0f, 0.5f});
  clamp_latent(w);
  EXPECT_FLOAT_EQ(w[0], 1.0f);
  EXPECT_FLOAT_EQ(w[1], -1.0f);
  EXPECT_FLOAT_EQ(w[2], 0.5f);
}

TEST(ActQuant, NineLevelGrid) {
  // 9 levels over [-1,1]: step 0.25.
  EXPECT_FLOAT_EQ(quantize_value(0.0f, 9), 0.0f);
  EXPECT_FLOAT_EQ(quantize_value(0.1f, 9), 0.0f);
  EXPECT_FLOAT_EQ(quantize_value(0.13f, 9), 0.25f);
  EXPECT_FLOAT_EQ(quantize_value(-0.9f, 9), -1.0f);
  EXPECT_FLOAT_EQ(quantize_value(1.0f, 9), 1.0f);
}

TEST(ActQuant, ClampsOutOfRange) {
  EXPECT_FLOAT_EQ(quantize_value(5.0f, 9), 1.0f);
  EXPECT_FLOAT_EQ(quantize_value(-5.0f, 9), -1.0f);
}

TEST(ActQuant, TwoLevelIsSign) {
  EXPECT_FLOAT_EQ(quantize_value(0.3f, 2), 1.0f);
  EXPECT_FLOAT_EQ(quantize_value(-0.3f, 2), -1.0f);
}

TEST(ActQuant, RejectsDegenerateLevels) {
  EXPECT_THROW(quantize_value(0.0f, 1), std::invalid_argument);
  EXPECT_THROW(level_index(0.0f, 0), std::invalid_argument);
}

TEST(ActQuant, LevelIndexInverse) {
  // level k of L levels decodes to 2k/(L-1) - 1; level_index must invert it.
  for (std::size_t levels : {3u, 5u, 9u, 17u}) {
    for (std::size_t k = 0; k < levels; ++k) {
      const float v =
          2.0f * static_cast<float>(k) / static_cast<float>(levels - 1) - 1.0f;
      EXPECT_EQ(level_index(v, levels), k);
    }
  }
}

TEST(ActQuant, QuantizationErrorBounded) {
  Rng rng(44);
  Tensor x({1000});
  ops::fill_uniform(x, rng, -1.0f, 1.0f);
  for (std::size_t levels : {5u, 9u, 17u}) {
    Tensor q = quantize(x, levels);
    const float half_step = 1.0f / static_cast<float>(levels - 1);
    for (std::size_t i = 0; i < x.numel(); ++i)
      EXPECT_LE(std::fabs(q[i] - x[i]), half_step + 1e-6f);
  }
}

TEST(QuantTanh, OutputOnGridAndBounded) {
  QuantTanh act(9);
  Rng rng(45);
  Tensor x({500});
  ops::fill_normal(x, rng, 0.0f, 2.0f);
  Tensor y = act.forward(x);
  for (std::size_t i = 0; i < y.numel(); ++i) {
    EXPECT_GE(y[i], -1.0f);
    EXPECT_LE(y[i], 1.0f);
    const float scaled = (y[i] + 1.0f) * 4.0f;  // should be integral
    EXPECT_NEAR(scaled, std::round(scaled), 1e-5f);
  }
}

TEST(QuantTanh, BackwardIsTanhDerivative) {
  QuantTanh act(9);
  Tensor x({3}, std::vector<float>{-1.0f, 0.0f, 2.0f});
  act.forward(x);
  Tensor g({3}, 1.0f);
  Tensor gx = act.backward(g);
  for (std::size_t i = 0; i < 3; ++i) {
    const float t = std::tanh(x[i]);
    EXPECT_NEAR(gx[i], 1.0f - t * t, 1e-5f);
  }
}

/// Bits of f, with every NaN folded onto one pattern (a NaN result only has
/// to be a NaN, not carry a particular payload).
std::uint32_t canonical_bits(float f) {
  return f != f ? 0x7fc00000u : std::bit_cast<std::uint32_t>(f);
}

TEST(QuantTanh, ThresholdInferEqualsTanhQuantizeOnEveryFloat) {
  // Exhaustive over all 2^32 bit patterns (finite, ±0, ±inf, NaN): the
  // threshold infer path must return exactly quantize_value(tanh(x), 9).
  // Plain threads rather than the pool, so the check keeps its wall time
  // when the suite pins the pool to one thread.
  const QuantTanh act(9);
  constexpr std::uint64_t kChunk = 1u << 16, kChunks = (1ull << 32) / kChunk;
  std::atomic<std::uint64_t> next{0}, mismatches{0};
  std::atomic<std::uint32_t> first_bad{0};
  const auto worker = [&] {
    Tensor x({kChunk});
    nn::EvalContext ctx;
    for (std::uint64_t c; (c = next.fetch_add(1)) < kChunks;) {
      float* p = x.data();
      for (std::uint64_t i = 0; i < kChunk; ++i)
        p[i] = std::bit_cast<float>(static_cast<std::uint32_t>(c * kChunk + i));
      const Tensor y = act.infer(x, ctx);
      const float* q = y.data();
      for (std::uint64_t i = 0; i < kChunk; ++i) {
        const float ref = quantize_value(std::tanh(p[i]), 9);
        if (canonical_bits(q[i]) != canonical_bits(ref)) {
          mismatches.fetch_add(1);
          first_bad.store(static_cast<std::uint32_t>(c * kChunk + i));
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

TEST(QuantTanh, ThresholdInferMatchesForwardAtOtherLevelCounts) {
  Rng rng(46);
  Tensor x({20000});
  ops::fill_normal(x, rng, 0.0f, 1.5f);
  x[0] = std::numeric_limits<float>::quiet_NaN();
  x[1] = -std::numeric_limits<float>::infinity();
  x[2] = -0.0f;
  for (std::size_t levels : {2u, 3u, 5u, 7u, 17u}) {
    QuantTanh act(levels);
    nn::EvalContext ctx;
    const Tensor y = act.infer(x, ctx);
    const Tensor ref = act.forward(x);
    for (std::size_t i = 0; i < x.numel(); ++i)
      ASSERT_EQ(canonical_bits(y[i]), canonical_bits(ref[i]))
          << "levels=" << levels << " x=" << x[i];
  }
}

}  // namespace
}  // namespace gbo::quant
