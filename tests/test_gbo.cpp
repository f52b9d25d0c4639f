// Unit and behavioural tests of the GBO optimizer (paper §III-A).
#include "gbo/gbo.hpp"

#include "common/keyed_normal.hpp"
#include "common/thread_pool.hpp"
#include "gbo/pla_schedule.hpp"
#include "models/mlp.hpp"
#include "nn/loss.hpp"
#include "tensor/ops.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <numeric>

namespace gbo::opt {
namespace {

GboConfig small_cfg() {
  GboConfig cfg;
  cfg.sigma = 1.0;
  cfg.gamma = 0.0;
  cfg.epochs = 2;
  cfg.batch_size = 8;
  return cfg;
}

TEST(GboConfig, PulseLengthsMatchPaper) {
  GboConfig cfg;
  EXPECT_EQ(cfg.pulse_lengths(),
            (std::vector<std::size_t>{4, 6, 8, 10, 12, 14, 16}));
}

TEST(GboLayerState, AlphaIsValidDistribution) {
  GboLayerState st(small_cfg(), Rng(1));
  auto a = st.alpha();
  EXPECT_EQ(a.size(), 7u);
  double sum = 0.0;
  for (double v : a) {
    EXPECT_GT(v, 0.0);
    sum += v;
  }
  EXPECT_NEAR(sum, 1.0, 1e-12);
  // Uniform init -> uniform alpha.
  for (double v : a) EXPECT_NEAR(v, 1.0 / 7.0, 1e-12);
}

TEST(GboLayerState, AlphaTracksLambda) {
  GboLayerState st(small_cfg(), Rng(2));
  st.lambda().value[3] = 5.0f;
  const auto a = st.alpha();
  for (std::size_t k = 0; k < 7; ++k) {
    if (k != 3) {
      EXPECT_LT(a[k], a[3]);
    }
  }
  EXPECT_EQ(st.selected_scheme(), 3u);
  EXPECT_EQ(st.selected_pulses(), 10u);
}

TEST(GboLayerState, ForwardAddsMixtureNoise) {
  GboLayerState st(small_cfg(), Rng(3));
  Tensor out({50000});
  st.on_forward(out);
  EXPECT_NEAR(ops::mean(out), 0.0f, 0.02f);
  // Independent per-scheme draws: Var = Σ α_k² σ²/n_k with uniform α.
  double expected = 0.0;
  const auto pulses = small_cfg().pulse_lengths();
  for (std::size_t k = 0; k < pulses.size(); ++k)
    expected += (1.0 / 49.0) * 1.0 / static_cast<double>(pulses[k]);
  EXPECT_NEAR(ops::variance(out), expected, 0.1 * expected + 0.001);
}

TEST(GboLayerState, BackwardRequiresForward) {
  GboLayerState st(small_cfg(), Rng(4));
  Tensor g({10});
  EXPECT_THROW(st.on_backward(g), std::logic_error);
}

TEST(GboLayerState, BackwardGradSumsToZero) {
  // Softmax jacobian rows sum to zero, so Σ_j ∂L/∂λ_j == 0 for the CE term.
  GboLayerState st(small_cfg(), Rng(5));
  Tensor out({256});
  st.on_forward(out);
  Tensor g({256});
  Rng rng(6);
  ops::fill_normal(g, rng, 0.0f, 1.0f);
  st.on_backward(g);
  float total = 0.0f;
  for (std::size_t k = 0; k < 7; ++k) total += st.lambda().grad[k];
  EXPECT_NEAR(total, 0.0f, 1e-4f);
}

TEST(GboLayerState, LatencyGradPushesTowardFewerPulses) {
  GboConfig cfg = small_cfg();
  cfg.gamma = 1.0;
  GboLayerState st(cfg, Rng(7));
  st.accumulate_latency_grad();
  // Gradient ascent direction: schemes with more pulses than the mean get
  // positive gradient (penalized); fewer pulses get negative (favored).
  const auto pulses = cfg.pulse_lengths();
  const double mean =
      std::accumulate(pulses.begin(), pulses.end(), 0.0) / pulses.size();
  for (std::size_t k = 0; k < pulses.size(); ++k) {
    if (static_cast<double>(pulses[k]) > mean + 1e-9) {
      EXPECT_GT(st.lambda().grad[k], 0.0f) << k;
    }
    if (static_cast<double>(pulses[k]) < mean - 1e-9) {
      EXPECT_LT(st.lambda().grad[k], 0.0f) << k;
    }
  }
}

TEST(GboLayerState, ExpectedPulsesUniformInit) {
  GboLayerState st(small_cfg(), Rng(8));
  const auto pulses = small_cfg().pulse_lengths();
  const double mean =
      std::accumulate(pulses.begin(), pulses.end(), 0.0) / pulses.size();
  EXPECT_NEAR(st.expected_pulses(), mean, 1e-9);
}

struct ThreadGuard {
  std::size_t saved = ThreadPool::instance().num_threads();
  ~ThreadGuard() { ThreadPool::instance().set_num_threads(saved); }
};

bool same_bits(const Tensor& a, const Tensor& b) {
  return a.shape() == b.shape() &&
         std::memcmp(a.data(), b.data(), a.numel() * sizeof(float)) == 0;
}

// Serial reference of the Eq. 5/7 hook, the bitwise oracle for the pooled
// GboLayerState: one key per forward, ε_k drawn by the serial keyed_normal
// entry over the whole tensor (stream k), a serial axpy per scheme, serial
// dot products.
struct SerialGboOracle {
  SerialGboOracle(const GboConfig& c, Rng r, std::vector<float> l)
      : cfg(c), rng(r), lambda(std::move(l)) {}

  GboConfig cfg;
  std::vector<std::size_t> pulses = cfg.pulse_lengths();
  Rng rng;
  std::vector<float> lambda;
  std::vector<float> grad = std::vector<float>(pulses.size(), 0.0f);
  std::vector<Tensor> cached_noise;
  std::vector<double> cached_alpha;

  std::vector<double> alpha() const {
    const std::size_t m = pulses.size();
    std::vector<double> a(m);
    double mx = lambda[0];
    for (std::size_t k = 1; k < m; ++k)
      mx = std::max(mx, static_cast<double>(lambda[k]));
    double denom = 0.0;
    for (std::size_t k = 0; k < m; ++k) {
      a[k] = std::exp(static_cast<double>(lambda[k]) - mx);
      denom += a[k];
    }
    for (double& v : a) v /= denom;
    return a;
  }

  void on_forward(Tensor& out) {
    const std::size_t m = pulses.size();
    cached_alpha = alpha();
    cached_noise.assign(m, Tensor());
    const std::uint64_t key = rng();
    for (std::size_t k = 0; k < m; ++k) {
      const double std = cfg.sigma / std::sqrt(static_cast<double>(pulses[k]));
      Tensor eps(out.shape());
      float* e = eps.data();
      keyed_normal(key, 0, e, eps.numel(), static_cast<float>(std),
                   static_cast<std::uint32_t>(k));
      const float s = static_cast<float>(cached_alpha[k]);
      float* p = out.data();
      for (std::size_t i = 0; i < out.numel(); ++i) p[i] += s * e[i];
      cached_noise[k] = std::move(eps);
    }
  }

  void on_backward(const Tensor& grad_out) {
    const std::size_t m = pulses.size();
    std::vector<double> c(m, 0.0);
    for (std::size_t k = 0; k < m; ++k) {
      const float* g = grad_out.data();
      const float* e = cached_noise[k].data();
      double acc = 0.0;
      for (std::size_t i = 0; i < grad_out.numel(); ++i)
        acc += static_cast<double>(g[i]) * e[i];
      c[k] = acc;
    }
    double mean_c = 0.0;
    for (std::size_t k = 0; k < m; ++k) mean_c += cached_alpha[k] * c[k];
    for (std::size_t j = 0; j < m; ++j)
      grad[j] += static_cast<float>(cached_alpha[j] * (c[j] - mean_c));
  }
};

Tensor random_tensor(std::vector<std::size_t> shape, std::uint64_t seed) {
  Tensor t(std::move(shape));
  Rng rng(seed);
  for (std::size_t i = 0; i < t.numel(); ++i)
    t[i] = static_cast<float>(rng.uniform(-2.0, 2.0));
  return t;
}

TEST(GboLayerState, ForwardAndBackwardBitwiseEqualSerialOracle) {
  ThreadGuard guard;
  // Shapes straddle the mixture and keyed-normal block grains (odd sizes,
  // partial Philox blocks) and change mid-run, so the reused ε buffers are
  // both kept and reallocated.
  const std::vector<std::vector<std::size_t>> shapes = {
      {3, 5001}, {3, 5001}, {7, 11}, {2, 8193}, {2, 8193}, {3, 16385}};
  for (std::size_t width : {1u, 4u}) {
    ThreadPool::instance().set_num_threads(width);
    GboConfig cfg = small_cfg();
    cfg.sigma = 0.7;
    GboLayerState st(cfg, Rng(41));
    for (std::size_t k = 0; k < 7; ++k)
      st.lambda().value[k] = 0.3f * static_cast<float>(k) - 0.8f;
    const Tensor& l = st.lambda().value;
    SerialGboOracle ref(cfg, Rng(41),
                        std::vector<float>(l.data(), l.data() + l.numel()));
    for (std::size_t step = 0; step < shapes.size(); ++step) {
      SCOPED_TRACE(::testing::Message() << "width " << width << " step "
                                        << step);
      Tensor out = random_tensor(shapes[step], 100 + step);
      Tensor want = out;
      st.on_forward(out);
      ref.on_forward(want);
      ASSERT_TRUE(same_bits(out, want));
      const Tensor g = random_tensor(shapes[step], 200 + step);
      st.on_backward(g);
      ref.on_backward(g);
      ASSERT_EQ(std::memcmp(st.lambda().grad.data(), ref.grad.data(),
                            7 * sizeof(float)),
                0);
    }
  }
}

TEST(PulseSchedule, Formatting) {
  PulseSchedule sched{{10, 10, 8, 10, 10, 4, 6}};
  EXPECT_EQ(sched.to_string(), "[10, 10, 8, 10, 10, 4, 6]");
  EXPECT_NEAR(sched.average(), 58.0 / 7.0, 1e-9);
  EXPECT_EQ(sched.total(), 58u);
  EXPECT_EQ(sched.max_pulses(), 10u);
}

TEST(PulseSchedule, Uniform) {
  const auto sched = uniform_schedule(7, 8);
  EXPECT_EQ(sched.per_layer.size(), 7u);
  EXPECT_NEAR(sched.average(), 8.0, 1e-12);
}

// ---- end-to-end behaviour on a tiny model ---------------------------------

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

  // Easy separable data: class k has feature k block high.
  Rng rng(9);
  const std::size_t n = 128;
  data::Dataset ds;
  ds.images = Tensor({n, 16});  // treated as flat features by the MLP
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
      // The MLP consumes [N, features] directly.
      Tensor logits = setup.model.net->forward(batch.images);
      Tensor grad;
      nn::CrossEntropy::forward_backward(logits, batch.labels, grad);
      setup.model.net->backward(grad);
      opt.step();
    }
  }
  setup.model.net->set_training(false);
}

TEST(GboTrainer, FreezesWeightsAndRestoresOnDestruction) {
  TinySetup setup = make_tiny();
  pretrain_tiny(setup, 5);
  const Tensor before = setup.model.net->params()[0]->value;
  {
    GboConfig cfg = small_cfg();
    cfg.epochs = 1;
    GboTrainer trainer(*setup.model.net, setup.model.encoded, cfg);
    trainer.train(setup.train);
    EXPECT_TRUE(
        ops::allclose(setup.model.net->params()[0]->value, before, 0.0f, 0.0f));
    for (nn::Param* p : setup.model.net->params())
      EXPECT_FALSE(p->requires_grad);
  }
  for (nn::Param* p : setup.model.net->params())
    EXPECT_TRUE(p->requires_grad);
  for (auto* layer : setup.model.encoded)
    EXPECT_EQ(layer->noise_hook(), nullptr);
}

TEST(GboTrainer, HighGammaSelectsShortSchedules) {
  TinySetup setup = make_tiny();
  pretrain_tiny(setup);
  GboConfig cfg;
  cfg.sigma = 0.1;    // negligible noise pressure
  cfg.gamma = 10.0;   // overwhelming latency pressure
  cfg.epochs = 8;
  cfg.lr = 0.05f;
  cfg.batch_size = 32;
  GboTrainer trainer(*setup.model.net, setup.model.encoded, cfg);
  trainer.train(setup.train);
  for (std::size_t p : trainer.selected_pulses()) EXPECT_EQ(p, 4u);
}

TEST(GboTrainer, HighNoiseSelectsLongSchedules) {
  TinySetup setup = make_tiny();
  pretrain_tiny(setup);
  GboConfig cfg;
  cfg.sigma = 12.0;  // strong noise pressure
  cfg.gamma = 0.0;   // no latency pressure
  cfg.epochs = 8;
  cfg.lr = 0.05f;
  cfg.batch_size = 32;
  GboTrainer trainer(*setup.model.net, setup.model.encoded, cfg);
  trainer.train(setup.train);
  // With zero latency cost the optimizer should push pulse counts up.
  EXPECT_GE(trainer.avg_selected_pulses(), 10.0);
}

TEST(GboTrainer, GammaTradesLatencyForAccuracy) {
  TinySetup setup = make_tiny();
  pretrain_tiny(setup);
  auto run = [&](double gamma) {
    GboConfig cfg;
    cfg.sigma = 6.0;
    cfg.gamma = gamma;
    cfg.epochs = 6;
    cfg.lr = 0.05f;
    cfg.batch_size = 32;
    GboTrainer trainer(*setup.model.net, setup.model.encoded, cfg);
    trainer.train(setup.train);
    return trainer.avg_selected_pulses();
  };
  const double cheap = run(5.0);
  const double rich = run(0.0);
  EXPECT_LE(cheap, rich);
}

TEST(GboTrainer, EmptyDatasetReturnsZeroedStats) {
  TinySetup setup = make_tiny();
  GboTrainer trainer(*setup.model.net, setup.model.encoded, small_cfg());
  data::Dataset empty;
  empty.images = Tensor({0, 16});
  const auto history = trainer.train(empty);
  ASSERT_EQ(history.size(), small_cfg().epochs);
  for (const GboEpochStats& s : history) {
    EXPECT_EQ(s.loss_ce, 0.0f);
    EXPECT_EQ(s.train_accuracy, 0.0f);
    EXPECT_EQ(s.loss_latency, 0.0f);
    EXPECT_EQ(s.avg_expected_pulses, 0.0);
  }
}

TEST(GboTrainer, ZeroBatchSizeThrows) {
  TinySetup setup = make_tiny();
  GboConfig cfg = small_cfg();
  cfg.batch_size = 0;
  EXPECT_THROW(GboTrainer(*setup.model.net, setup.model.encoded, cfg),
               std::invalid_argument);
  // The failed construction left no hook behind.
  for (auto* layer : setup.model.encoded)
    EXPECT_EQ(layer->noise_hook(), nullptr);
}

// λ after N steps on a model wide enough that every pooled stage (bulk
// normals, mixture add, QuantTanh forward, per-scheme dot products) splits
// into several blocks must not depend on the pool width.
TEST(GboTrainer, LambdaBitwiseEqualAtPoolWidthsOneAndFour) {
  ThreadGuard guard;
  const auto run = [](std::size_t width) {
    ThreadPool::instance().set_num_threads(width);
    models::MlpConfig mcfg;
    mcfg.in_features = 16;
    mcfg.hidden = {64, 1024, 1024};
    mcfg.num_classes = 4;
    models::Mlp model = build_mlp(mcfg);
    TinySetup tiny = make_tiny();
    GboConfig cfg = small_cfg();
    cfg.epochs = 1;
    cfg.batch_size = 32;  // 4 steps over 128 samples
    cfg.lr = 0.05f;
    cfg.gamma = 1e-3;
    GboTrainer trainer(*model.net, model.encoded, cfg);
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
  EXPECT_EQ(std::memcmp(one.data(), four.data(), one.size() * sizeof(float)),
            0);
  // The steps moved λ off its uniform start.
  EXPECT_NE(one[0], 0.0f);
}

}  // namespace
}  // namespace gbo::opt
