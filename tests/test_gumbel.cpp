// Unit and behavioural tests of the Gumbel-softmax GBO variant (gbo/gumbel).
#include "gbo/gumbel.hpp"

#include "common/thread_pool.hpp"
#include "models/mlp.hpp"
#include "nn/loss.hpp"
#include "tensor/ops.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <numeric>

namespace gbo::opt {
namespace {

GumbelConfig small_cfg() {
  GumbelConfig cfg;
  cfg.base.sigma = 1.0;
  cfg.base.gamma = 0.0;
  cfg.base.epochs = 2;
  cfg.base.batch_size = 8;
  return cfg;
}

TEST(GumbelLayerState, AlphaUniformAtInit) {
  GumbelLayerState st(small_cfg(), Rng(1));
  const auto a = st.alpha();
  ASSERT_EQ(a.size(), 7u);
  for (double v : a) EXPECT_NEAR(v, 1.0 / 7.0, 1e-12);
}

TEST(GumbelLayerState, InvalidConfigThrows) {
  GumbelConfig cfg = small_cfg();
  cfg.tau_start = 0.0;
  EXPECT_THROW(GumbelLayerState(cfg, Rng(1)), std::invalid_argument);
  GumbelConfig cfg2 = small_cfg();
  cfg2.base.scale_set.clear();
  EXPECT_THROW(GumbelLayerState(cfg2, Rng(1)), std::invalid_argument);
  GumbelLayerState ok(small_cfg(), Rng(1));
  EXPECT_THROW(ok.set_temperature(-1.0), std::invalid_argument);
}

TEST(GumbelLayerState, SampleIsValidDistribution) {
  GumbelLayerState st(small_cfg(), Rng(2));
  Tensor out({64});
  st.on_forward(out);
  const auto& y = st.last_sample();
  ASSERT_EQ(y.size(), 7u);
  double sum = 0.0;
  for (double v : y) {
    EXPECT_GE(v, 0.0);
    sum += v;
  }
  EXPECT_NEAR(sum, 1.0, 1e-9);
}

TEST(GumbelLayerState, LowTemperatureSamplesNearlyOneHot) {
  GumbelLayerState st(small_cfg(), Rng(3));
  st.set_temperature(0.01);
  Tensor out({16});
  st.on_forward(out);
  const auto& y = st.last_sample();
  double mx = 0.0;
  for (double v : y) mx = std::max(mx, v);
  EXPECT_GT(mx, 0.99);
}

TEST(GumbelLayerState, HighTemperatureSamplesNearUniform) {
  GumbelLayerState st(small_cfg(), Rng(4));
  st.set_temperature(1e4);
  Tensor out({16});
  st.on_forward(out);
  for (double v : st.last_sample()) EXPECT_NEAR(v, 1.0 / 7.0, 0.01);
}

TEST(GumbelLayerState, SamplingFollowsLambda) {
  // With λ_3 huge, low-temperature samples select scheme 3 almost surely.
  GumbelLayerState st(small_cfg(), Rng(5));
  st.lambda().value[3] = 50.0f;
  st.set_temperature(0.5);
  Tensor out({4});
  std::size_t hits = 0;
  for (int i = 0; i < 50; ++i) {
    st.on_forward(out);
    const auto& y = st.last_sample();
    std::size_t j = 0;
    for (std::size_t k = 1; k < y.size(); ++k)
      if (y[k] > y[j]) j = k;
    if (j == 3) ++hits;
  }
  EXPECT_GE(hits, 48u);
  EXPECT_EQ(st.selected_scheme(), 3u);
  EXPECT_EQ(st.selected_pulses(), 10u);
}

TEST(GumbelLayerState, HardForwardAddsSingleSchemeNoise) {
  // With λ pinned to scheme k, hard-mode output variance must match that
  // scheme's σ²/n_k — not the mixture variance.
  GumbelConfig cfg = small_cfg();
  cfg.hard = true;
  GumbelLayerState st(cfg, Rng(6));
  st.lambda().value[0] = 100.0f;  // scheme 0: 4 pulses
  st.set_temperature(0.1);
  Tensor out({50000});
  st.on_forward(out);
  const double expected = 1.0 / 4.0;  // σ²/n with σ=1, n=4
  EXPECT_NEAR(ops::variance(out), expected, 0.1 * expected);
}

TEST(GumbelLayerState, SoftForwardAddsMixtureNoise) {
  GumbelConfig cfg = small_cfg();
  cfg.hard = false;
  GumbelLayerState st(cfg, Rng(7));
  st.set_temperature(1e5);  // y ≈ uniform regardless of Gumbel draws
  Tensor out({50000});
  st.on_forward(out);
  // Var = Σ y_k² σ²/n_k with y uniform over the 7 schemes.
  double expected = 0.0;
  const auto pulses = cfg.base.pulse_lengths();
  for (std::size_t p : pulses)
    expected += (1.0 / 49.0) / static_cast<double>(p);
  EXPECT_NEAR(ops::variance(out), expected, 0.15 * expected + 1e-3);
}

TEST(GumbelLayerState, BackwardRequiresForward) {
  GumbelLayerState st(small_cfg(), Rng(8));
  Tensor g({10});
  EXPECT_THROW(st.on_backward(g), std::logic_error);
}

TEST(GumbelLayerState, BackwardGradSumsToZero) {
  // The softmax jacobian annihilates constants, so Σ_j ∂L/∂λ_j == 0.
  GumbelLayerState st(small_cfg(), Rng(9));
  Tensor out({256});
  st.on_forward(out);
  Tensor g({256});
  Rng rng(10);
  ops::fill_normal(g, rng, 0.0f, 1.0f);
  st.on_backward(g);
  float total = 0.0f;
  for (std::size_t k = 0; k < 7; ++k) total += st.lambda().grad[k];
  EXPECT_NEAR(total, 0.0f, 1e-4f);
}

TEST(GumbelLayerState, LatencyGradSumsToZero) {
  GumbelConfig cfg = small_cfg();
  cfg.base.gamma = 1.0;
  GumbelLayerState st(cfg, Rng(11));
  Tensor out({16});
  st.on_forward(out);
  st.accumulate_latency_grad();
  float total = 0.0f;
  for (std::size_t k = 0; k < 7; ++k) total += st.lambda().grad[k];
  EXPECT_NEAR(total, 0.0f, 1e-5f);
}

TEST(GumbelLayerState, TemperatureScalesGradient) {
  // ∂L/∂λ ∝ 1/τ: halving τ doubles the gradient for the same draws.
  auto grad_norm_at = [](double tau) {
    GumbelLayerState st(small_cfg(), Rng(12));  // same seed -> same draws
    st.set_temperature(tau);
    Tensor out({128});
    st.on_forward(out);
    Tensor g({128}, 1.0f);
    st.on_backward(g);
    double norm = 0.0;
    for (std::size_t k = 0; k < 7; ++k)
      norm += std::fabs(st.lambda().grad[k]);
    return norm;
  };
  const double at_high_tau = grad_norm_at(1e6);
  const double at_low_tau = grad_norm_at(1e6 / 2.0);
  // At extreme τ the sample y is uniform for both, isolating the 1/τ factor.
  EXPECT_NEAR(at_low_tau, 2.0 * at_high_tau, 0.05 * at_low_tau);
}

// ---- trainer-level behaviour ----------------------------------------------

struct TinySetup {
  models::Mlp model;
  data::Dataset train;
};

TinySetup make_tiny() {
  models::MlpConfig mcfg;
  mcfg.in_features = 16;
  mcfg.hidden = {24, 24, 24};
  mcfg.num_classes = 4;
  models::Mlp model = build_mlp(mcfg);

  Rng rng(9);
  const std::size_t n = 128;
  data::Dataset ds;
  ds.images = Tensor({n, 16});
  ds.labels.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t k = i % 4;
    ds.labels[i] = k;
    for (std::size_t j = 0; j < 16; ++j)
      ds.images[i * 16 + j] = static_cast<float>(
          0.2 * rng.normal() + (j / 4 == k ? 0.9 : -0.9));
  }
  return {std::move(model), std::move(ds)};
}

void pretrain_tiny(TinySetup& setup, std::size_t epochs = 30) {
  nn::SGD opt(setup.model.net->params(), 0.05f, 0.9f, 0.0f);
  data::DataLoader loader(setup.train, 16, true, Rng(10));
  setup.model.net->set_training(true);
  for (std::size_t e = 0; e < epochs; ++e) {
    loader.reset();
    data::Batch batch;
    while (loader.next(batch)) {
      opt.zero_grad();
      Tensor logits = setup.model.net->forward(batch.images);
      Tensor grad;
      nn::CrossEntropy::forward_backward(logits, batch.labels, grad);
      setup.model.net->backward(grad);
      opt.step();
    }
  }
  setup.model.net->set_training(false);
}

TEST(GumbelGboTrainer, TemperatureScheduleEndpoints) {
  TinySetup setup = make_tiny();
  GumbelConfig cfg = small_cfg();
  cfg.base.epochs = 10;
  cfg.tau_start = 5.0;
  cfg.tau_end = 0.5;
  GumbelGboTrainer trainer(*setup.model.net, setup.model.encoded, cfg);
  EXPECT_NEAR(trainer.temperature_at(0), 5.0, 1e-12);
  EXPECT_NEAR(trainer.temperature_at(9), 0.5, 1e-12);
  // Monotone decreasing in between.
  for (std::size_t e = 1; e < 10; ++e)
    EXPECT_LT(trainer.temperature_at(e), trainer.temperature_at(e - 1));
}

TEST(GumbelGboTrainer, FreezesWeightsAndRestoresOnDestruction) {
  TinySetup setup = make_tiny();
  pretrain_tiny(setup, 5);
  const Tensor before = setup.model.net->params()[0]->value;
  {
    GumbelConfig cfg = small_cfg();
    cfg.base.epochs = 1;
    GumbelGboTrainer trainer(*setup.model.net, setup.model.encoded, cfg);
    trainer.train(setup.train);
    EXPECT_TRUE(ops::allclose(setup.model.net->params()[0]->value, before,
                              0.0f, 0.0f));
  }
  for (nn::Param* p : setup.model.net->params())
    EXPECT_TRUE(p->requires_grad);
  for (auto* layer : setup.model.encoded)
    EXPECT_EQ(layer->noise_hook(), nullptr);
}

TEST(GumbelGboTrainer, HighGammaSelectsShortSchedules) {
  TinySetup setup = make_tiny();
  pretrain_tiny(setup);
  GumbelConfig cfg;
  cfg.base.sigma = 0.1;
  cfg.base.gamma = 10.0;
  cfg.base.epochs = 8;
  cfg.base.lr = 0.05f;
  cfg.base.batch_size = 32;
  GumbelGboTrainer trainer(*setup.model.net, setup.model.encoded, cfg);
  trainer.train(setup.train);
  for (std::size_t p : trainer.selected_pulses()) EXPECT_LE(p, 6u);
}

TEST(GumbelGboTrainer, HighNoiseSelectsLongSchedules) {
  // Soft relaxation: every forward mixes all schemes, so c_k = <g, ε_k>
  // carries each scheme's noise cost and long schedules win clearly. The
  // hard (straight-through) estimator only sees the sampled scheme's noise
  // and averages ~10 pulses over seeds — the uniform-choice mean — so a
  // single-seed threshold on it tests seed luck, not the property; hard
  // mode stays covered by HighGammaSelectsShortSchedules and the pool-width
  // test below. The mean over fixed seeds keeps this check stable across
  // noise-stream changes.
  TinySetup setup = make_tiny();
  pretrain_tiny(setup);
  GumbelConfig cfg;
  cfg.base.sigma = 12.0;
  cfg.base.gamma = 0.0;
  cfg.base.epochs = 8;
  cfg.base.lr = 0.05f;
  cfg.base.batch_size = 32;
  cfg.hard = false;
  double sum = 0.0;
  constexpr std::uint64_t kSeeds = 8;
  for (std::uint64_t seed = 1; seed <= kSeeds; ++seed) {
    cfg.base.seed = seed;
    GumbelGboTrainer trainer(*setup.model.net, setup.model.encoded, cfg);
    trainer.train(setup.train);
    sum += trainer.avg_selected_pulses();
  }
  EXPECT_GE(sum / kSeeds, 12.0);
}

TEST(GumbelGboTrainer, EmptyDatasetReturnsZeroedStats) {
  TinySetup setup = make_tiny();
  GumbelGboTrainer trainer(*setup.model.net, setup.model.encoded, small_cfg());
  data::Dataset empty;
  empty.images = Tensor({0, 16});
  const auto history = trainer.train(empty);
  ASSERT_EQ(history.size(), small_cfg().base.epochs);
  for (const GboEpochStats& s : history) {
    EXPECT_EQ(s.loss_ce, 0.0f);
    EXPECT_EQ(s.train_accuracy, 0.0f);
  }
}

TEST(GumbelGboTrainer, ZeroBatchSizeThrows) {
  TinySetup setup = make_tiny();
  GumbelConfig cfg = small_cfg();
  cfg.base.batch_size = 0;
  EXPECT_THROW(GumbelGboTrainer(*setup.model.net, setup.model.encoded, cfg),
               std::invalid_argument);
}

struct ThreadGuard {
  std::size_t saved = ThreadPool::instance().num_threads();
  ~ThreadGuard() { ThreadPool::instance().set_num_threads(saved); }
};

// λ after N steps, hard (one-scheme add) and soft (pooled mixture add), on
// layers wide enough to split every pooled stage into several blocks.
TEST(GumbelGboTrainer, LambdaBitwiseEqualAtPoolWidthsOneAndFour) {
  ThreadGuard guard;
  TinySetup tiny = make_tiny();
  for (bool hard : {true, false}) {
    const auto run = [&](std::size_t width) {
      ThreadPool::instance().set_num_threads(width);
      models::MlpConfig mcfg;
      mcfg.in_features = 16;
      mcfg.hidden = {64, 1024, 1024};
      mcfg.num_classes = 4;
      models::Mlp model = build_mlp(mcfg);
      GumbelConfig cfg = small_cfg();
      cfg.hard = hard;
      cfg.base.batch_size = 32;
      cfg.base.lr = 0.05f;
      cfg.base.gamma = 1e-3;
      GumbelGboTrainer trainer(*model.net, model.encoded, cfg);
      trainer.train(tiny.train);
      std::vector<float> lambdas;
      for (std::size_t i = 0; i < trainer.num_layers(); ++i) {
        const Tensor& l = trainer.layer_state(i).lambda().value;
        lambdas.insert(lambdas.end(), l.data(), l.data() + l.numel());
      }
      return lambdas;
    };
    const std::vector<float> one = run(1), four = run(4);
    ASSERT_EQ(one.size(), four.size());
    EXPECT_EQ(
        std::memcmp(one.data(), four.data(), one.size() * sizeof(float)), 0)
        << "hard " << hard;
    EXPECT_NE(one[0], 0.0f);
  }
}

}  // namespace
}  // namespace gbo::opt
