#include "common/thread_pool.hpp"
#include "nn/activations.hpp"
#include "nn/batchnorm.hpp"
#include "nn/conv2d.hpp"
#include "nn/eval_context.hpp"
#include "nn/linear.hpp"
#include "nn/pooling.hpp"
#include "nn/sequential.hpp"
#include "tensor/arena.hpp"
#include "tensor/ops.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <memory>

namespace gbo::nn {
namespace {

TEST(Linear, ForwardMatchesManual) {
  Rng rng(1);
  Linear fc(3, 2, /*bias=*/true, rng);
  // Overwrite weights deterministically: W = [[1,0,2],[0,1,0]], b = [1,-1].
  fc.weight().value = Tensor({2, 3}, std::vector<float>{1, 0, 2, 0, 1, 0});
  fc.bias()->value = Tensor({2}, std::vector<float>{1, -1});

  Tensor x({1, 3}, std::vector<float>{1, 2, 3});
  Tensor y = fc.forward(x);
  EXPECT_FLOAT_EQ(y.at(0, 0), 1 + 6 + 1);
  EXPECT_FLOAT_EQ(y.at(0, 1), 2 - 1);
}

TEST(Linear, RejectsWrongInput) {
  Rng rng(1);
  Linear fc(3, 2, true, rng);
  Tensor bad({1, 4});
  EXPECT_THROW(fc.forward(bad), std::invalid_argument);
}

TEST(Linear, ParamsExposed) {
  Rng rng(1);
  Linear with_bias(3, 2, true, rng);
  EXPECT_EQ(with_bias.params().size(), 2u);
  Linear no_bias(3, 2, false, rng);
  EXPECT_EQ(no_bias.params().size(), 1u);
}

TEST(Conv2d, OutputShape) {
  Rng rng(2);
  ConvGeom g{.in_c = 3, .in_h = 8, .in_w = 8, .k = 3, .stride = 1, .pad = 1};
  Conv2d conv(16, g, true, rng);
  Tensor x({2, 3, 8, 8});
  Tensor y = conv.forward(x);
  EXPECT_EQ(y.shape(), (std::vector<std::size_t>{2, 16, 8, 8}));
}

/// Direct (quadruple-loop) convolution reference.
Tensor ref_conv(const Tensor& x, const Tensor& w, const ConvGeom& g,
                std::size_t out_c) {
  const std::size_t n = x.dim(0), oh = g.out_h(), ow = g.out_w();
  Tensor y({n, out_c, oh, ow});
  for (std::size_t b = 0; b < n; ++b)
    for (std::size_t oc = 0; oc < out_c; ++oc)
      for (std::size_t oy = 0; oy < oh; ++oy)
        for (std::size_t ox = 0; ox < ow; ++ox) {
          float acc = 0.0f;
          for (std::size_t ic = 0; ic < g.in_c; ++ic)
            for (std::size_t ky = 0; ky < g.k; ++ky)
              for (std::size_t kx = 0; kx < g.k; ++kx) {
                const std::ptrdiff_t iy = static_cast<std::ptrdiff_t>(oy * g.stride + ky) -
                                          static_cast<std::ptrdiff_t>(g.pad);
                const std::ptrdiff_t ix = static_cast<std::ptrdiff_t>(ox * g.stride + kx) -
                                          static_cast<std::ptrdiff_t>(g.pad);
                if (iy < 0 || ix < 0 || iy >= static_cast<std::ptrdiff_t>(g.in_h) ||
                    ix >= static_cast<std::ptrdiff_t>(g.in_w))
                  continue;
                acc += x.at(b, ic, static_cast<std::size_t>(iy),
                            static_cast<std::size_t>(ix)) *
                       w[(oc * g.in_c + ic) * g.k * g.k + ky * g.k + kx];
              }
          y.at(b, oc, oy, ox) = acc;
        }
  return y;
}

TEST(Conv2d, MatchesDirectConvolution) {
  Rng rng(3);
  ConvGeom g{.in_c = 2, .in_h = 5, .in_w = 5, .k = 3, .stride = 1, .pad = 1};
  Conv2d conv(4, g, /*bias=*/false, rng);
  Tensor x({2, 2, 5, 5});
  ops::fill_normal(x, rng, 0.0f, 1.0f);
  Tensor y = conv.forward(x);
  Tensor expected = ref_conv(x, conv.weight().value, g, 4);
  EXPECT_TRUE(ops::allclose(y, expected, 1e-4f, 1e-5f));
}

/// Conv2d infer (patch gather fused into the packed A panels) vs forward
/// (im2col lowering): the two feed the same panel values to the same packed
/// multiply, so they must agree bitwise for every geometry, at pool widths 1
/// and 4, with and without an arena (the serving configuration), and match
/// the reference convolution numerically.
TEST(Conv2d, InferMatchesForwardBitwiseAcrossGeometries) {
  struct Case {
    std::size_t in_c, hw, k, stride, pad, out_c, batch;
  };
  std::vector<Case> cases = {
      // VGG9 conv2/conv3 (width 16, 16×16 images) and ResNet block shapes
      // (width 32, 8×8 after the first downsample).
      {16, 16, 3, 1, 1, 16, 2}, {16, 16, 3, 1, 1, 32, 4},
      {32, 8, 3, 1, 1, 32, 8},  {3, 16, 3, 1, 1, 16, 3},
      // Stride 2, a 5×5 kernel, and pad 0 (the output grid shrinks).
      {4, 9, 3, 2, 1, 6, 2},    {4, 9, 5, 1, 2, 6, 2},
      {8, 12, 3, 1, 0, 16, 4},
  };
  // Fixed-seed random geometries: k ∈ {1, 3, 5}, stride ∈ {1, 2},
  // pad ∈ {0, 1, 2}.
  Rng pick(4242);
  for (int i = 0; i < 48; ++i) {
    Case c;
    c.k = static_cast<std::size_t>(2 * pick.uniform_int(0, 2) + 1);
    c.stride = static_cast<std::size_t>(pick.uniform_int(1, 2));
    c.pad = static_cast<std::size_t>(pick.uniform_int(0, 2));
    c.in_c = static_cast<std::size_t>(pick.uniform_int(1, 8));
    c.hw = static_cast<std::size_t>(pick.uniform_int(
        static_cast<std::int64_t>(c.k), 12));
    c.out_c = static_cast<std::size_t>(pick.uniform_int(1, 20));
    c.batch = static_cast<std::size_t>(pick.uniform_int(1, 3));
    cases.push_back(c);
  }

  ThreadPool& pool = ThreadPool::instance();
  const std::size_t restore = pool.num_threads();
  for (const Case& cs : cases) {
    SCOPED_TRACE(::testing::Message()
                 << "in_c=" << cs.in_c << " hw=" << cs.hw << " k=" << cs.k
                 << " stride=" << cs.stride << " pad=" << cs.pad
                 << " out_c=" << cs.out_c << " batch=" << cs.batch);
    ConvGeom g{.in_c = cs.in_c, .in_h = cs.hw, .in_w = cs.hw,
               .k = cs.k, .stride = cs.stride, .pad = cs.pad};
    Rng rng(7 + cs.in_c);
    Conv2d conv(cs.out_c, g, /*bias=*/true, rng);
    Tensor x({cs.batch, cs.in_c, cs.hw, cs.hw});
    ops::fill_normal(x, rng, 0.0f, 1.0f);

    Tensor results[2];
    int idx = 0;
    for (std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
      pool.set_num_threads(threads);
      const Tensor y_fwd = conv.forward(x);
      EvalContext plain;
      Tensor y_inf = conv.infer(x, plain);
      ASSERT_EQ(y_inf.shape(), y_fwd.shape());
      EXPECT_EQ(0, std::memcmp(y_inf.data(), y_fwd.data(),
                               y_inf.numel() * sizeof(float)))
          << "infer vs forward mismatch at " << threads << " threads";
      ScratchArena arena;
      EvalContext with_arena(Rng(1), &arena);
      const Tensor y_arena = conv.infer(x, with_arena);
      EXPECT_EQ(0, std::memcmp(y_arena.data(), y_fwd.data(),
                               y_arena.numel() * sizeof(float)))
          << "arena-backed infer diverged at " << threads << " threads";
      results[idx++] = std::move(y_inf);
    }
    EXPECT_EQ(0, std::memcmp(results[0].data(), results[1].data(),
                             results[0].numel() * sizeof(float)))
        << "infer not thread-count reproducible";
    // The bias is zero-initialized, so the bias-free reference applies.
    const Tensor expected = ref_conv(x, conv.weight().value, g, cs.out_c);
    EXPECT_TRUE(ops::allclose(results[0], expected, 1e-4f, 1e-4f));
  }
  pool.set_num_threads(restore);
}

TEST(Conv2d, InferRejectsInputNotMatchingGeometry) {
  // A wrong channel count or spatial size must throw, not read past the
  // input.
  Rng rng(5);
  ConvGeom g{.in_c = 8, .in_h = 8, .in_w = 8, .k = 3, .stride = 1, .pad = 1};
  Conv2d conv(4, g, /*bias=*/true, rng);
  EvalContext ctx;
  EXPECT_THROW(conv.infer(Tensor({2, 4, 8, 8}), ctx), std::invalid_argument);
  EXPECT_THROW(conv.infer(Tensor({2, 8, 4, 4}), ctx), std::invalid_argument);
  EXPECT_THROW(conv.infer(Tensor({2, 8, 8}), ctx), std::invalid_argument);
  EXPECT_NO_THROW(conv.infer(Tensor({2, 8, 8, 8}), ctx));
}

/// Forward + backward over a trainable and a frozen (!requires_grad) copy
/// of one layer: the frozen run skips dW — weight.grad keeps its sentinel —
/// and returns dX bitwise equal to the trainable run.
template <typename Make>
void expect_frozen_weight_skips_dw(const Make& make, const Tensor& x) {
  auto trainable = make();
  auto frozen = make();
  frozen->weight().requires_grad = false;
  frozen->weight().grad.fill(7.0f);
  const Tensor y = trainable->forward(x);
  (void)frozen->forward(x);
  Tensor g(y.shape());
  Rng rng(77);
  ops::fill_normal(g, rng, 0.0f, 1.0f);
  const Tensor dx = trainable->backward(g);
  const Tensor dx_frozen = frozen->backward(g);
  ASSERT_EQ(dx.shape(), dx_frozen.shape());
  EXPECT_EQ(std::memcmp(dx.data(), dx_frozen.data(), dx.numel() * sizeof(float)),
            0);
  const Tensor& gw = frozen->weight().grad;
  for (std::size_t i = 0; i < gw.numel(); ++i) ASSERT_EQ(gw[i], 7.0f) << i;
  EXPECT_GT(ops::max_abs(trainable->weight().grad), 0.0f);
}

TEST(Linear, FrozenWeightSkipsWeightGradient) {
  Rng xr(5);
  Tensor x({6, 40});
  ops::fill_normal(x, xr, 0.0f, 1.0f);
  expect_frozen_weight_skips_dw(
      [] {
        Rng rng(4);
        return std::make_unique<Linear>(40, 24, /*bias=*/true, rng);
      },
      x);
}

TEST(Conv2d, FrozenWeightSkipsWeightGradient) {
  const ConvGeom g{.in_c = 3, .in_h = 8, .in_w = 8, .k = 3, .stride = 1, .pad = 1};
  Rng xr(6);
  Tensor x({2, 3, 8, 8});
  ops::fill_normal(x, xr, 0.0f, 1.0f);
  expect_frozen_weight_skips_dw(
      [&g] {
        Rng rng(4);
        return std::make_unique<Conv2d>(5, g, /*bias=*/true, rng);
      },
      x);
}

TEST(BatchNorm2d, NormalizesPerChannel) {
  BatchNorm2d bn(2);
  bn.set_training(true);
  Rng rng(4);
  Tensor x({8, 2, 4, 4});
  ops::fill_normal(x, rng, 3.0f, 2.0f);
  Tensor y = bn.forward(x);
  // Each channel of the output should be ~N(0,1) over (N,H,W).
  for (std::size_t c = 0; c < 2; ++c) {
    double sum = 0.0, sum_sq = 0.0;
    std::size_t count = 0;
    for (std::size_t n = 0; n < 8; ++n)
      for (std::size_t h = 0; h < 4; ++h)
        for (std::size_t w = 0; w < 4; ++w) {
          const double v = y.at(n, c, h, w);
          sum += v;
          sum_sq += v * v;
          ++count;
        }
    const double mean = sum / count;
    EXPECT_NEAR(mean, 0.0, 1e-4);
    EXPECT_NEAR(sum_sq / count - mean * mean, 1.0, 1e-3);
  }
}

TEST(BatchNorm2d, EvalUsesRunningStats) {
  BatchNorm2d bn(1);
  bn.set_training(true);
  Rng rng(5);
  // Feed several batches so running stats converge toward (3, 4).
  for (int i = 0; i < 200; ++i) {
    Tensor x({16, 1, 2, 2});
    ops::fill_normal(x, rng, 3.0f, 2.0f);
    bn.forward(x);
  }
  bn.set_training(false);
  Tensor probe({1, 1, 1, 1}, std::vector<float>{3.0f});
  // Reshape to a valid spatial input.
  Tensor x({1, 1, 1, 1}, std::vector<float>{3.0f});
  Tensor y = bn.forward(x);
  EXPECT_NEAR(y[0], 0.0f, 0.1f);  // input at the running mean -> ~0
}

TEST(BatchNorm1d, ShapeValidation) {
  BatchNorm1d bn(4);
  Tensor bad({2, 5});
  EXPECT_THROW(bn.forward(bad), std::invalid_argument);
}

TEST(Activations, TanhBoundsAndValues) {
  Tanh act;
  Tensor x({3}, std::vector<float>{-10.0f, 0.0f, 10.0f});
  Tensor y = act.forward(x);
  EXPECT_NEAR(y[0], -1.0f, 1e-4f);
  EXPECT_FLOAT_EQ(y[1], 0.0f);
  EXPECT_NEAR(y[2], 1.0f, 1e-4f);
}

TEST(Activations, ReLUZeroesNegatives) {
  ReLU act;
  Tensor x({3}, std::vector<float>{-1.0f, 0.0f, 2.0f});
  Tensor y = act.forward(x);
  EXPECT_FLOAT_EQ(y[0], 0.0f);
  EXPECT_FLOAT_EQ(y[2], 2.0f);
  Tensor g({3}, 1.0f);
  Tensor gx = act.backward(g);
  EXPECT_FLOAT_EQ(gx[0], 0.0f);
  EXPECT_FLOAT_EQ(gx[2], 1.0f);
}

TEST(Activations, HardTanhClampsAndMasksGrad) {
  HardTanh act;
  Tensor x({3}, std::vector<float>{-2.0f, 0.5f, 2.0f});
  Tensor y = act.forward(x);
  EXPECT_FLOAT_EQ(y[0], -1.0f);
  EXPECT_FLOAT_EQ(y[1], 0.5f);
  EXPECT_FLOAT_EQ(y[2], 1.0f);
  Tensor g({3}, 1.0f);
  Tensor gx = act.backward(g);
  EXPECT_FLOAT_EQ(gx[0], 0.0f);
  EXPECT_FLOAT_EQ(gx[1], 1.0f);
  EXPECT_FLOAT_EQ(gx[2], 0.0f);
}

TEST(Pooling, MaxPoolSelectsMaxAndRoutesGrad) {
  MaxPool2d pool(2);
  Tensor x({1, 1, 2, 2}, std::vector<float>{1, 5, 3, 2});
  Tensor y = pool.forward(x);
  ASSERT_EQ(y.numel(), 1u);
  EXPECT_FLOAT_EQ(y[0], 5.0f);
  Tensor g({1, 1, 1, 1}, std::vector<float>{2.0f});
  Tensor gx = pool.backward(g);
  EXPECT_FLOAT_EQ(gx[1], 2.0f);  // gradient lands on the max position
  EXPECT_FLOAT_EQ(gx[0], 0.0f);
}

TEST(Pooling, AvgPoolAverages) {
  AvgPool2d pool(2);
  Tensor x({1, 1, 2, 2}, std::vector<float>{1, 2, 3, 6});
  Tensor y = pool.forward(x);
  EXPECT_FLOAT_EQ(y[0], 3.0f);
  Tensor g({1, 1, 1, 1}, std::vector<float>{4.0f});
  Tensor gx = pool.backward(g);
  for (std::size_t i = 0; i < 4; ++i) EXPECT_FLOAT_EQ(gx[i], 1.0f);
}

TEST(Pooling, RejectsIndivisibleSize) {
  MaxPool2d pool(2);
  Tensor x({1, 1, 3, 3});
  EXPECT_THROW(pool.forward(x), std::invalid_argument);
}

TEST(Pooling, RejectsZeroWindow) {
  EXPECT_THROW(MaxPool2d(0), std::invalid_argument);
  EXPECT_THROW(AvgPool2d(0), std::invalid_argument);
}

TEST(Pooling, BackwardRejectsGradNotMatchingForward) {
  // A gradient of any other shape than the pooled forward output (or one
  // before any forward) would index past the argmax cache / the gradient.
  MaxPool2d maxp(2);
  AvgPool2d avgp(2);
  EXPECT_THROW(maxp.backward(Tensor({1, 1, 1, 1})), std::invalid_argument);
  EXPECT_THROW(avgp.backward(Tensor({1, 1, 1, 1})), std::invalid_argument);
  const Tensor x({1, 2, 4, 4});
  (void)maxp.forward(x);
  (void)avgp.forward(x);
  for (const Tensor& g : {Tensor({1, 2, 4, 4}), Tensor({2, 2, 2, 2}),
                          Tensor({1, 1, 2, 2}), Tensor({8})}) {
    EXPECT_THROW(maxp.backward(g), std::invalid_argument) << g.shape_str();
    EXPECT_THROW(avgp.backward(g), std::invalid_argument) << g.shape_str();
  }
  EXPECT_EQ(maxp.backward(Tensor({1, 2, 2, 2})).shape(), x.shape());
  EXPECT_EQ(avgp.backward(Tensor({1, 2, 2, 2})).shape(), x.shape());
}

TEST(BatchNorm1d, BackwardRejectsGradNotMatchingForward) {
  BatchNorm1d bn(4);
  (void)bn.forward(Tensor({2, 4}));
  EXPECT_THROW(bn.backward(Tensor({3, 4})), std::invalid_argument);
  EXPECT_THROW(bn.backward(Tensor({2, 5})), std::invalid_argument);
  EXPECT_THROW(bn.backward(Tensor({8})), std::invalid_argument);
  EXPECT_EQ(bn.backward(Tensor({2, 4})).shape(),
            (std::vector<std::size_t>{2, 4}));
}

TEST(Flatten, RoundTrip) {
  Flatten flat;
  Tensor x({2, 3, 4, 4});
  Tensor y = flat.forward(x);
  EXPECT_EQ(y.shape(), (std::vector<std::size_t>{2, 48}));
  Tensor back = flat.backward(y);
  EXPECT_EQ(back.shape(), x.shape());
}

TEST(Sequential, ChainsAndCollectsParams) {
  Rng rng(6);
  Sequential seq;
  seq.emplace<Linear>(4, 8, true, rng);
  seq.emplace<Tanh>();
  seq.emplace<Linear>(8, 2, true, rng);
  EXPECT_EQ(seq.size(), 3u);
  EXPECT_EQ(seq.params().size(), 4u);

  Tensor x({5, 4});
  Tensor y = seq.forward(x);
  EXPECT_EQ(y.shape(), (std::vector<std::size_t>{5, 2}));
}

TEST(Sequential, PrefixSuffixSplitEqualsFull) {
  Rng rng(7);
  Sequential seq;
  seq.emplace<Linear>(4, 4, true, rng);
  seq.emplace<Tanh>();
  seq.emplace<Linear>(4, 3, true, rng);
  Tensor x({2, 4});
  ops::fill_normal(x, rng, 0.0f, 1.0f);
  Tensor full = seq.forward(x);
  Tensor mid = seq.forward_prefix(x, 2);
  Tensor split = seq.forward_suffix(mid, 2);
  EXPECT_TRUE(ops::allclose(split, full, 1e-6f, 1e-7f));
}

TEST(Sequential, TrainingFlagPropagates) {
  Rng rng(8);
  Sequential seq;
  auto* bn = seq.emplace<BatchNorm1d>(4);
  seq.set_training(false);
  EXPECT_FALSE(bn->training());
  seq.set_training(true);
  EXPECT_TRUE(bn->training());
}

}  // namespace
}  // namespace gbo::nn
