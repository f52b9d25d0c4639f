// Tests of the joint scheme × pulse-length search (gbo/scheme_search).
#include "gbo/scheme_search.hpp"

#include "common/thread_pool.hpp"
#include "encoding/noise_analysis.hpp"
#include "models/mlp.hpp"
#include "nn/loss.hpp"
#include "tensor/ops.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>

namespace gbo::opt {
namespace {

MixedGboConfig small_cfg() {
  MixedGboConfig cfg;
  cfg.candidates = default_mixed_candidates(8);
  cfg.sigma = 1.0;
  cfg.gamma = 0.0;
  cfg.epochs = 2;
  cfg.batch_size = 8;
  return cfg;
}

TEST(SchemeCandidate, NamesAndFactors) {
  SchemeCandidate tc;
  tc.spec.scheme = enc::Scheme::kThermometer;
  tc.spec.num_pulses = 8;
  EXPECT_EQ(tc.name(), "TC-8");
  EXPECT_NEAR(tc.variance_factor(), 1.0 / 8.0, 1e-12);

  SchemeCandidate bs;
  bs.spec.scheme = enc::Scheme::kBitSlicing;
  bs.spec.num_pulses = 3;
  EXPECT_EQ(bs.name(), "BS-3");
  EXPECT_NEAR(bs.variance_factor(), enc::bit_slicing_variance_factor(3),
              1e-12);
}

TEST(SchemeCandidate, BitSlicingCheaperButNoisier) {
  // BS-3 carries 8 levels in 3 pulses; TC-8 carries 9 levels in 8 pulses.
  // The mixed space exists because BS is cheaper AND noisier.
  SchemeCandidate tc;
  tc.spec = {enc::Scheme::kThermometer, 8};
  SchemeCandidate bs;
  bs.spec = {enc::Scheme::kBitSlicing, 3};
  EXPECT_LT(bs.pulses(), tc.pulses());
  EXPECT_GT(bs.variance_factor(), tc.variance_factor());
}

TEST(DefaultMixedCandidates, ContainsBothSchemes) {
  const auto cands = default_mixed_candidates(8);
  ASSERT_EQ(cands.size(), 9u);  // 7 TC + 2 BS
  std::size_t tc = 0, bs = 0;
  for (const auto& c : cands) {
    if (c.spec.scheme == enc::Scheme::kThermometer) {
      ++tc;
    } else {
      ++bs;
    }
  }
  EXPECT_EQ(tc, 7u);
  EXPECT_EQ(bs, 2u);
  // Thermometer lengths are the paper's PLA set.
  EXPECT_EQ(cands[0].pulses(), 4u);
  EXPECT_EQ(cands[6].pulses(), 16u);
}

TEST(MixedLayerState, EmptyCandidatesThrow) {
  MixedGboConfig cfg = small_cfg();
  cfg.candidates.clear();
  EXPECT_THROW(MixedLayerState(cfg, Rng(1)), std::invalid_argument);
}

TEST(MixedLayerState, AlphaUniformAtInit) {
  MixedLayerState st(small_cfg(), Rng(1));
  const auto a = st.alpha();
  ASSERT_EQ(a.size(), 9u);
  for (double v : a) EXPECT_NEAR(v, 1.0 / 9.0, 1e-12);
}

TEST(MixedLayerState, ForwardVarianceMatchesMixture) {
  MixedGboConfig cfg = small_cfg();
  MixedLayerState st(cfg, Rng(2));
  Tensor out({50000});
  st.on_forward(out);
  double expected = 0.0;
  const double m = static_cast<double>(cfg.candidates.size());
  for (const auto& c : cfg.candidates)
    expected += (1.0 / (m * m)) * c.variance_factor();
  EXPECT_NEAR(ops::variance(out), expected, 0.15 * expected + 1e-3);
}

TEST(MixedLayerState, BackwardRequiresForward) {
  MixedLayerState st(small_cfg(), Rng(3));
  Tensor g({4});
  EXPECT_THROW(st.on_backward(g), std::logic_error);
}

TEST(MixedLayerState, BackwardGradSumsToZero) {
  MixedLayerState st(small_cfg(), Rng(4));
  Tensor out({256});
  st.on_forward(out);
  Tensor g({256});
  Rng rng(5);
  ops::fill_normal(g, rng, 0.0f, 1.0f);
  st.on_backward(g);
  float total = 0.0f;
  for (std::size_t k = 0; k < 9; ++k) total += st.lambda().grad[k];
  EXPECT_NEAR(total, 0.0f, 1e-4f);
}

TEST(MixedLayerState, LatencyGradFavorsShortCandidates) {
  MixedGboConfig cfg = small_cfg();
  cfg.gamma = 1.0;
  MixedLayerState st(cfg, Rng(6));
  st.accumulate_latency_grad();
  // The shortest candidate (BS-3) must receive the most negative gradient
  // (i.e. be favored by the latency term).
  std::size_t shortest = 0;
  for (std::size_t k = 1; k < cfg.candidates.size(); ++k)
    if (cfg.candidates[k].pulses() < cfg.candidates[shortest].pulses())
      shortest = k;
  for (std::size_t k = 0; k < cfg.candidates.size(); ++k) {
    if (k != shortest)
      EXPECT_LE(st.lambda().grad[shortest], st.lambda().grad[k]);
  }
}

TEST(MixedLayerState, SelectionTracksLambda) {
  MixedLayerState st(small_cfg(), Rng(7));
  st.lambda().value[8] = 3.0f;  // BS-4
  EXPECT_EQ(st.selected_scheme(), 8u);
  EXPECT_EQ(st.selected().name(), "BS-4");
  EXPECT_EQ(st.selected().pulses(), 4u);
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

TEST(MixedGboTrainer, RestoresNetworkState) {
  TinySetup setup = make_tiny();
  pretrain_tiny(setup, 5);
  const Tensor before = setup.model.net->params()[0]->value;
  {
    MixedGboConfig cfg = small_cfg();
    cfg.epochs = 1;
    MixedGboTrainer trainer(*setup.model.net, setup.model.encoded, cfg);
    trainer.train(setup.train);
    EXPECT_TRUE(ops::allclose(setup.model.net->params()[0]->value, before,
                              0.0f, 0.0f));
  }
  for (nn::Param* p : setup.model.net->params())
    EXPECT_TRUE(p->requires_grad);
  for (auto* layer : setup.model.encoded)
    EXPECT_EQ(layer->noise_hook(), nullptr);
}

TEST(MixedGboTrainer, HighGammaPicksCheapBitSlicing) {
  // With negligible noise and a dominant latency term, the cheapest
  // candidate wins — and in the mixed space that is BS-3 (3 pulses),
  // beating every thermometer option. This is exactly the trade the
  // thermometer-only search cannot express.
  TinySetup setup = make_tiny();
  pretrain_tiny(setup);
  MixedGboConfig cfg;
  cfg.candidates = default_mixed_candidates(8);
  cfg.sigma = 0.1;
  cfg.gamma = 10.0;
  cfg.epochs = 8;
  cfg.lr = 0.05f;
  cfg.batch_size = 32;
  MixedGboTrainer trainer(*setup.model.net, setup.model.encoded, cfg);
  trainer.train(setup.train);
  for (const auto& sel : trainer.selected()) {
    EXPECT_EQ(sel.spec.scheme, enc::Scheme::kBitSlicing);
    EXPECT_EQ(sel.pulses(), 3u);
  }
}

TEST(MixedGboTrainer, HighNoisePicksRobustThermometer) {
  TinySetup setup = make_tiny();
  pretrain_tiny(setup);
  MixedGboConfig cfg;
  cfg.candidates = default_mixed_candidates(8);
  cfg.sigma = 12.0;
  cfg.gamma = 0.0;
  cfg.epochs = 8;
  cfg.lr = 0.05f;
  cfg.batch_size = 32;
  MixedGboTrainer trainer(*setup.model.net, setup.model.encoded, cfg);
  trainer.train(setup.train);
  // Zero latency pressure: the lowest-variance candidates (long
  // thermometer codes) must dominate the selection.
  for (const auto& sel : trainer.selected())
    EXPECT_EQ(sel.spec.scheme, enc::Scheme::kThermometer);
  EXPECT_GE(trainer.avg_selected_pulses(), 10.0);
}

TEST(MixedGboTrainer, SelectionStringFormat) {
  TinySetup setup = make_tiny();
  MixedGboConfig cfg = small_cfg();
  MixedGboTrainer trainer(*setup.model.net, setup.model.encoded, cfg);
  const std::string s = trainer.selection_string();
  EXPECT_EQ(s.front(), '[');
  EXPECT_EQ(s.back(), ']');
  EXPECT_NE(s.find("TC-"), std::string::npos);
}

TEST(MixedGboTrainer, EmptyDatasetReturnsZeroedStats) {
  TinySetup setup = make_tiny();
  MixedGboTrainer trainer(*setup.model.net, setup.model.encoded, small_cfg());
  data::Dataset empty;
  empty.images = Tensor({0, 16});
  const auto history = trainer.train(empty);
  ASSERT_EQ(history.size(), small_cfg().epochs);
  for (const GboEpochStats& s : history) {
    EXPECT_EQ(s.loss_ce, 0.0f);
    EXPECT_EQ(s.train_accuracy, 0.0f);
  }
}

TEST(MixedGboTrainer, ZeroBatchSizeThrows) {
  TinySetup setup = make_tiny();
  MixedGboConfig cfg = small_cfg();
  cfg.batch_size = 0;
  EXPECT_THROW(MixedGboTrainer(*setup.model.net, setup.model.encoded, cfg),
               std::invalid_argument);
}

struct ThreadGuard {
  std::size_t saved = ThreadPool::instance().num_threads();
  ~ThreadGuard() { ThreadPool::instance().set_num_threads(saved); }
};

// λ after N steps on layers wide enough to split every pooled stage into
// several blocks must not depend on the pool width.
TEST(MixedGboTrainer, LambdaBitwiseEqualAtPoolWidthsOneAndFour) {
  ThreadGuard guard;
  TinySetup tiny = make_tiny();
  const auto run = [&](std::size_t width) {
    ThreadPool::instance().set_num_threads(width);
    models::MlpConfig mcfg;
    mcfg.in_features = 16;
    mcfg.hidden = {64, 1024, 1024};
    mcfg.num_classes = 4;
    models::Mlp model = build_mlp(mcfg);
    MixedGboConfig cfg = small_cfg();
    cfg.epochs = 1;
    cfg.batch_size = 32;
    cfg.lr = 0.05f;
    cfg.gamma = 1e-3;
    MixedGboTrainer trainer(*model.net, model.encoded, cfg);
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
  EXPECT_NE(one[0], 0.0f);
}

}  // namespace
}  // namespace gbo::opt
