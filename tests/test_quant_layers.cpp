#include "quant/quant_layers.hpp"

#include "common/thread_pool.hpp"
#include "crossbar/crossbar_layers.hpp"
#include "quant/act_quant.hpp"
#include "quant/binary_weight.hpp"
#include "tensor/ops.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstring>
#include <limits>
#include <memory>

namespace gbo::quant {
namespace {

/// Records hook invocations for contract testing.
class SpyHook : public MvmNoiseHook {
 public:
  void on_input(Tensor& x) override {
    ++input_calls;
    last_input_numel = x.numel();
  }
  void on_forward(Tensor& out) override {
    ++forward_calls;
    if (add_offset != 0.0f)
      for (std::size_t i = 0; i < out.numel(); ++i) out[i] += add_offset;
  }
  void on_backward(const Tensor& grad) override {
    ++backward_calls;
    last_grad_numel = grad.numel();
  }

  int input_calls = 0, forward_calls = 0, backward_calls = 0;
  std::size_t last_input_numel = 0, last_grad_numel = 0;
  float add_offset = 0.0f;
};

/// See tests/test_nn_layers.cpp: the frozen quant layer skips dW (and the
/// STE hook on it) and returns dX — scale epilogue included — bitwise
/// equal to the trainable run. A noise hook that sees the gradient is
/// attached, as during GBO.
template <typename Make>
void expect_frozen_weight_skips_dw(const Make& make, const Tensor& x) {
  auto trainable = make();
  auto frozen = make();
  SpyHook spy_t, spy_f;
  trainable->set_noise_hook(&spy_t);
  frozen->set_noise_hook(&spy_f);
  frozen->weight().requires_grad = false;
  frozen->weight().grad.fill(7.0f);
  const Tensor y = trainable->forward(x);
  (void)frozen->forward(x);
  Tensor g(y.shape());
  Rng rng(78);
  ops::fill_normal(g, rng, 0.0f, 1.0f);
  const Tensor dx = trainable->backward(g);
  const Tensor dx_frozen = frozen->backward(g);
  ASSERT_EQ(dx.shape(), dx_frozen.shape());
  EXPECT_EQ(std::memcmp(dx.data(), dx_frozen.data(), dx.numel() * sizeof(float)),
            0);
  const Tensor& gw = frozen->weight().grad;
  for (std::size_t i = 0; i < gw.numel(); ++i) ASSERT_EQ(gw[i], 7.0f) << i;
  EXPECT_GT(ops::max_abs(trainable->weight().grad), 0.0f);
  EXPECT_EQ(spy_f.backward_calls, 1);
}

TEST(QuantLinear, FrozenWeightSkipsWeightGradient) {
  Rng xr(5);
  Tensor x({6, 40});
  ops::fill_normal(x, xr, 0.0f, 1.0f);
  expect_frozen_weight_skips_dw(
      [] {
        Rng rng(4);
        return std::make_unique<QuantLinear>(40, 24, rng, /*scaled=*/true);
      },
      x);
}

TEST(QuantConv2d, FrozenWeightSkipsWeightGradient) {
  const ConvGeom g{.in_c = 3, .in_h = 8, .in_w = 8, .k = 3, .stride = 1, .pad = 1};
  Rng xr(6);
  Tensor x({2, 3, 8, 8});
  ops::fill_normal(x, xr, 0.0f, 1.0f);
  expect_frozen_weight_skips_dw(
      [&g] {
        Rng rng(4);
        return std::make_unique<QuantConv2d>(5, g, rng, /*scaled=*/true);
      },
      x);
}

/// Bits of f, with every NaN folded onto one pattern.
std::uint32_t canonical_bits(float f) {
  return f != f ? 0x7fc00000u : std::bit_cast<std::uint32_t>(f);
}

// The pooled QuantTanh::forward takes its levels from infer's threshold
// kernel: it must equal the reference quantize_value(tanh(x)) and infer
// bitwise, and its STE backward g·(1 − tanh²x) must be unchanged, at pool
// widths 1 and 4, with NaN, ±inf and −0 placed in different blocks.
TEST(QuantTanh, ForwardEqualsInferAndBackwardUnchanged) {
  const std::size_t saved = ThreadPool::instance().num_threads();
  Rng rng(47);
  Tensor x({3, 20001});
  ops::fill_normal(x, rng, 0.0f, 1.5f);
  const float inf = std::numeric_limits<float>::infinity();
  const float specials[] = {std::numeric_limits<float>::quiet_NaN(), inf,
                            -inf, -0.0f, 0.0f};
  for (std::size_t j = 0; j < 5; ++j) {
    x[j] = specials[j];
    x[17000 + 9001 * j] = specials[j];
    x[x.numel() - 1 - j] = specials[j];
  }
  Tensor g(x.shape());
  ops::fill_normal(g, rng, 0.0f, 1.0f);
  for (std::size_t width : {1u, 4u}) {
    ThreadPool::instance().set_num_threads(width);
    QuantTanh act(9);
    nn::EvalContext ctx;
    const Tensor y = act.forward(x);
    const Tensor yi = act.infer(x, ctx);
    const Tensor gx = act.backward(g);
    for (std::size_t i = 0; i < x.numel(); ++i) {
      const float t = std::tanh(x[i]);
      ASSERT_EQ(canonical_bits(y[i]), canonical_bits(quantize_value(t, 9)))
          << "width " << width << " x=" << x[i];
      ASSERT_EQ(canonical_bits(y[i]), canonical_bits(yi[i])) << x[i];
      ASSERT_EQ(canonical_bits(gx[i]), canonical_bits(g[i] * (1.0f - t * t)))
          << "width " << width << " x=" << x[i];
    }
  }
  ThreadPool::instance().set_num_threads(saved);
}

TEST(QuantLinear, ForwardUsesBinarizedWeight) {
  Rng rng(1);
  QuantLinear fc(4, 3, rng, /*scaled=*/true);
  Tensor x({2, 4});
  ops::fill_uniform(x, rng, -1.0f, 1.0f);
  Tensor y = fc.forward(x);
  // Scale-epilogue semantics (DESIGN.md §8): the MVM runs over the ±1 sign
  // matrix and the digital scale multiplies the output afterwards.
  Tensor expected = ops::matmul_bt(x, binarize(fc.weight().value, false));
  const float s = fc.weight_scale();
  for (std::size_t i = 0; i < expected.numel(); ++i) expected[i] *= s;
  EXPECT_TRUE(ops::allclose(y, expected, 1e-5f, 1e-6f));
  // Equivalent (up to rounding) to the folded ±scale product.
  Tensor folded = ops::matmul_bt(x, binarize(fc.weight().value, true));
  EXPECT_TRUE(ops::allclose(y, folded, 1e-5f, 1e-6f));
  // The stored binary weight is the ±1 sign matrix a crossbar cell holds;
  // the scale is reported separately.
  EXPECT_GT(s, 0.0f);
  for (std::size_t i = 0; i < fc.binary_weight().numel(); ++i)
    EXPECT_NEAR(std::fabs(fc.binary_weight()[i]), 1.0f, 1e-6f);
}

TEST(QuantLinear, InferRoutesOnGridInputThroughBinaryKernel) {
  Rng rng(21);
  QuantLinear fc(9, 5, rng, /*scaled=*/true);
  // Every value on the 9-level QuantTanh grid (multiples of 1/4 in [-1, 1]).
  Tensor x({3, 9});
  for (std::size_t i = 0; i < x.numel(); ++i)
    x[i] = static_cast<float>(static_cast<int>(i * 5 % 9) - 4) * 0.25f;
  Tensor ref = fc.forward(x);
  gbo::nn::EvalContext ctx;
  const std::uint64_t mvms_before = gemm::binary_mvm_count();
  Tensor y = fc.infer(x, ctx);
  EXPECT_EQ(gemm::binary_mvm_count(), mvms_before + 1);
  // The XNOR/popcount route must be bitwise equal to the float forward.
  ASSERT_EQ(y.shape(), ref.shape());
  for (std::size_t i = 0; i < y.numel(); ++i) EXPECT_EQ(y[i], ref[i]);
}

TEST(QuantLinear, InferFallsBackToFloatForOffGridInput) {
  Rng rng(22);
  QuantLinear fc(4, 3, rng, /*scaled=*/true);
  Tensor x({2, 4});
  ops::fill_uniform(x, rng, -1.0f, 1.0f);  // almost surely off-grid
  Tensor ref = fc.forward(x);
  gbo::nn::EvalContext ctx;
  const std::uint64_t mvms_before = gemm::binary_mvm_count();
  Tensor y = fc.infer(x, ctx);
  EXPECT_EQ(gemm::binary_mvm_count(), mvms_before);  // float route taken
  for (std::size_t i = 0; i < y.numel(); ++i) EXPECT_EQ(y[i], ref[i]);
}

TEST(QuantConv2d, InferRoutesOnGridInputThroughBinaryKernel) {
  Rng rng(23);
  ConvGeom g{.in_c = 2, .in_h = 5, .in_w = 5, .k = 3, .stride = 1, .pad = 1};
  QuantConv2d conv(4, g, rng, /*scaled=*/true);
  Tensor x({2, 2, 5, 5});
  for (std::size_t i = 0; i < x.numel(); ++i)
    x[i] = static_cast<float>(static_cast<int>(i * 3 % 9) - 4) * 0.25f;
  Tensor ref = conv.forward(x);
  gbo::nn::EvalContext ctx;
  const std::uint64_t mvms_before = gemm::binary_mvm_count();
  Tensor y = conv.infer(x, ctx);
  EXPECT_EQ(gemm::binary_mvm_count(), mvms_before + 1);
  ASSERT_EQ(y.shape(), ref.shape());
  for (std::size_t i = 0; i < y.numel(); ++i) EXPECT_EQ(y[i], ref[i]);
}

TEST(QuantConv2d, InferRejectsInputNotMatchingGeometry) {
  // A mismatched input skips the bit-plane route; the float fallback must
  // throw rather than read past the input.
  Rng rng(25);
  ConvGeom g{.in_c = 8, .in_h = 8, .in_w = 8, .k = 3, .stride = 1, .pad = 1};
  QuantConv2d conv(4, g, rng, /*scaled=*/true);
  gbo::nn::EvalContext ctx;
  EXPECT_THROW(conv.infer(Tensor({2, 4, 8, 8}), ctx), std::invalid_argument);
  EXPECT_THROW(conv.infer(Tensor({2, 8, 4, 4}), ctx), std::invalid_argument);
}

TEST(QuantConv2d, BitPlaneRouteRandomShapeSweep) {
  // Seeded sweep over the bit-plane route's geometry: channel counts below,
  // at and across the 64-bit word (taps straddling words, multi-word
  // pixels), kernels 1/3/5, strides, paddings, image sizes 1..9 and
  // batches 1..3, after nine hand-picked cases. The pixel-plane encode +
  // word gather must equal forward() bit for bit and take the binary route;
  // one off-grid value must take the float route with the same bits.
  struct Case {
    std::size_t c, out_c, h, w, k, stride, pad, batch;
  };
  std::vector<Case> cases = {
      {1, 6, 4, 5, 3, 1, 1, 2},   {3, 6, 6, 7, 3, 2, 1, 2},
      {16, 6, 5, 6, 3, 1, 1, 2},  {48, 6, 4, 5, 3, 1, 1, 2},
      {64, 6, 3, 4, 3, 1, 1, 2},  {100, 6, 3, 4, 3, 1, 0, 2},
      {5, 6, 7, 8, 5, 2, 2, 2},   {7, 6, 4, 5, 1, 1, 0, 2},
      {130, 6, 2, 3, 3, 1, 1, 2}};
  Rng rng(24);
  const std::size_t channels[] = {1, 7, 63, 64, 65, 130};
  const auto pick = [&](auto lo, auto hi) {
    return static_cast<std::size_t>(rng.uniform_int(lo, hi));
  };
  while (cases.size() < 256) {
    Case cs{channels[pick(0, 5)], channels[pick(0, 5)], pick(1, 9),
            pick(1, 9),           2 * pick(0, 2) + 1,   pick(1, 2),
            pick(0, 2),           pick(1, 3)};
    if (cs.h + 2 * cs.pad >= cs.k && cs.w + 2 * cs.pad >= cs.k)
      cases.push_back(cs);
  }
  for (const Case& cs : cases) {
    SCOPED_TRACE(::testing::Message()
                 << "c=" << cs.c << " out_c=" << cs.out_c << " h=" << cs.h
                 << " w=" << cs.w << " k=" << cs.k << " s=" << cs.stride
                 << " p=" << cs.pad << " n=" << cs.batch);
    ConvGeom g{.in_c = cs.c, .in_h = cs.h, .in_w = cs.w, .k = cs.k,
               .stride = cs.stride, .pad = cs.pad};
    QuantConv2d conv(cs.out_c, g, rng, /*scaled=*/true);
    Tensor x({cs.batch, cs.c, cs.h, cs.w});
    for (std::size_t i = 0; i < x.numel(); ++i)
      x[i] = static_cast<float>(rng.uniform_int(0, 8)) * 0.25f - 1.0f;
    Tensor ref = conv.forward(x);
    for (ScratchArena* arena : {static_cast<ScratchArena*>(nullptr),
                                new ScratchArena}) {
      gbo::nn::EvalContext ctx(Rng(1), arena);
      const std::uint64_t mvms_before = gemm::binary_mvm_count();
      Tensor y = conv.infer(x, ctx);
      EXPECT_EQ(gemm::binary_mvm_count(), mvms_before + 1);
      ASSERT_EQ(y.shape(), ref.shape());
      for (std::size_t i = 0; i < y.numel(); ++i) ASSERT_EQ(y[i], ref[i]);
      delete arena;
    }
    x[x.numel() / 2] = 0.3f;  // one off-grid value: float route, same bits
    ref = conv.forward(x);
    gbo::nn::EvalContext ctx;
    const std::uint64_t mvms_before = gemm::binary_mvm_count();
    Tensor y = conv.infer(x, ctx);
    EXPECT_EQ(gemm::binary_mvm_count(), mvms_before);
    for (std::size_t i = 0; i < y.numel(); ++i) ASSERT_EQ(y[i], ref[i]);
  }
}

TEST(QuantLinear, NoBiasParameter) {
  Rng rng(2);
  QuantLinear fc(4, 3, rng);
  EXPECT_EQ(fc.params().size(), 1u);  // crossbar layers are bias-free
}

TEST(QuantLinear, BackwardAppliesSte) {
  Rng rng(3);
  QuantLinear fc(2, 1, rng, /*scaled=*/false);
  // Saturate one latent weight beyond the STE window.
  fc.weight().value = Tensor({1, 2}, std::vector<float>{2.0f, 0.5f});
  Tensor x({1, 2}, std::vector<float>{1.0f, 1.0f});
  fc.forward(x);
  Tensor g({1, 1}, std::vector<float>{1.0f});
  fc.backward(g);
  EXPECT_FLOAT_EQ(fc.weight().grad[0], 0.0f);  // clipped (|w| > 1)
  EXPECT_FLOAT_EQ(fc.weight().grad[1], 1.0f);  // passes through
}

TEST(QuantLinear, HookLifecycle) {
  Rng rng(4);
  QuantLinear fc(4, 3, rng);
  SpyHook hook;
  fc.set_noise_hook(&hook);
  Tensor x({2, 4});
  Tensor y = fc.forward(x);
  Tensor g(y.shape());
  fc.backward(g);
  EXPECT_EQ(hook.input_calls, 1);
  EXPECT_EQ(hook.forward_calls, 1);
  EXPECT_EQ(hook.backward_calls, 1);
  EXPECT_EQ(hook.last_input_numel, x.numel());
  EXPECT_EQ(hook.last_grad_numel, y.numel());

  fc.set_noise_hook(nullptr);
  fc.forward(x);
  EXPECT_EQ(hook.input_calls, 1);  // detached hooks are not called
}

TEST(QuantLinear, HookOffsetIsAdditive) {
  Rng rng(5);
  QuantLinear fc(4, 3, rng);
  Tensor x({1, 4}, 0.5f);
  Tensor clean = fc.forward(x);
  SpyHook hook;
  hook.add_offset = 2.5f;
  fc.set_noise_hook(&hook);
  Tensor noisy = fc.forward(x);
  for (std::size_t i = 0; i < clean.numel(); ++i)
    EXPECT_NEAR(noisy[i] - clean[i], 2.5f, 1e-5f);
}

TEST(QuantConv2d, ForwardUsesBinarizedWeight) {
  Rng rng(6);
  ConvGeom g{.in_c = 2, .in_h = 4, .in_w = 4, .k = 3, .stride = 1, .pad = 1};
  QuantConv2d conv(3, g, rng);
  Tensor x({1, 2, 4, 4});
  ops::fill_uniform(x, rng, -1.0f, 1.0f);
  Tensor y = conv.forward(x);
  EXPECT_EQ(y.shape(), (std::vector<std::size_t>{1, 3, 4, 4}));
  // ±1 signs stored, digital scale separate (see the Linear test).
  const float s = conv.weight_scale();
  EXPECT_GT(s, 0.0f);
  for (std::size_t i = 0; i < conv.binary_weight().numel(); ++i)
    EXPECT_NEAR(std::fabs(conv.binary_weight()[i]), 1.0f, 1e-6f);
}

TEST(QuantConv2d, HookSeesMvmOutput) {
  Rng rng(7);
  ConvGeom g{.in_c = 1, .in_h = 4, .in_w = 4, .k = 3, .stride = 1, .pad = 1};
  QuantConv2d conv(2, g, rng);
  SpyHook hook;
  conv.set_noise_hook(&hook);
  Tensor x({3, 1, 4, 4});
  Tensor y = conv.forward(x);
  EXPECT_EQ(hook.forward_calls, 1);
  Tensor grad(y.shape());
  conv.backward(grad);
  EXPECT_EQ(hook.last_grad_numel, y.numel());
}

TEST(QuantConv2d, CrossbarDims) {
  Rng rng(8);
  ConvGeom g{.in_c = 3, .in_h = 8, .in_w = 8, .k = 3, .stride = 1, .pad = 1};
  QuantConv2d conv(16, g, rng);
  Hookable& h = conv;
  EXPECT_EQ(h.crossbar_rows(), 16u);
  EXPECT_EQ(h.crossbar_cols(), 27u);
  EXPECT_EQ(&h.latent_weight(), &conv.weight());
}

TEST(GaussianNoiseHook, AddsCorrectVariance) {
  Rng rng(9);
  xbar::GaussianNoiseHook hook(rng, /*sigma=*/2.0,
                               enc::EncodingSpec{enc::Scheme::kThermometer, 8},
                               /*base_pulses=*/8);
  Tensor out({20000});
  hook.on_forward(out);
  // Var should be σ²/p = 4/8 = 0.5.
  EXPECT_NEAR(ops::mean(out), 0.0f, 0.03f);
  EXPECT_NEAR(ops::variance(out), 0.5f, 0.03f);
}

TEST(GaussianNoiseHook, DisabledIsNoop) {
  Rng rng(10);
  xbar::GaussianNoiseHook hook(rng, 5.0,
                               enc::EncodingSpec{enc::Scheme::kThermometer, 8}, 8);
  hook.set_enabled(false);
  Tensor out({100}, 1.0f);
  hook.on_forward(out);
  for (std::size_t i = 0; i < out.numel(); ++i) EXPECT_FLOAT_EQ(out[i], 1.0f);
  Tensor x({10}, 0.37f);
  hook.on_input(x);
  EXPECT_FLOAT_EQ(x[0], 0.37f);
}

TEST(GaussianNoiseHook, PlaReencodesInputAtNonBasePulses) {
  Rng rng(11);
  xbar::GaussianNoiseHook hook(rng, 0.0,
                               enc::EncodingSpec{enc::Scheme::kThermometer, 10}, 8);
  // 0.25 is a 9-level value; at 10 pulses the nearest level is 0.2.
  Tensor x({1}, std::vector<float>{0.25f});
  hook.on_input(x);
  EXPECT_NEAR(x[0], 0.2f, 1e-6f);
}

TEST(GaussianNoiseHook, BasePulsesLeaveInputUntouched) {
  Rng rng(12);
  xbar::GaussianNoiseHook hook(rng, 0.0,
                               enc::EncodingSpec{enc::Scheme::kThermometer, 8}, 8);
  Tensor x({1}, std::vector<float>{0.25f});
  hook.on_input(x);
  EXPECT_FLOAT_EQ(x[0], 0.25f);
}

TEST(LayerNoiseController, ManagesPerLayerSpecs) {
  Rng rng(13);
  QuantLinear a(4, 4, rng), b(4, 4, rng), c(4, 4, rng);
  xbar::LayerNoiseController ctrl({&a, &b, &c}, 1.0, 8, rng);
  ctrl.attach();
  EXPECT_NE(a.noise_hook(), nullptr);
  ctrl.set_pulses({4, 8, 16});
  EXPECT_EQ(ctrl.pulses(), (std::vector<std::size_t>{4, 8, 16}));
  EXPECT_NEAR(ctrl.avg_pulses(), 28.0 / 3.0, 1e-9);
  ctrl.set_uniform_pulses(10);
  EXPECT_NEAR(ctrl.avg_pulses(), 10.0, 1e-9);
  EXPECT_THROW(ctrl.set_pulses({1, 2}), std::invalid_argument);
  ctrl.detach();
  EXPECT_EQ(a.noise_hook(), nullptr);
}

TEST(LayerNoiseController, IsolateLayerEnablesExactlyOne) {
  Rng rng(14);
  QuantLinear a(4, 4, rng), b(4, 4, rng);
  xbar::LayerNoiseController ctrl({&a, &b}, 1.0, 8, rng);
  ctrl.isolate_layer(1);
  EXPECT_FALSE(ctrl.hook(0).enabled());
  EXPECT_TRUE(ctrl.hook(1).enabled());
  EXPECT_THROW(ctrl.isolate_layer(5), std::out_of_range);
}

}  // namespace
}  // namespace gbo::quant
