// Level-domain binary chain (DESIGN.md §8): Sequential::infer runs
// [QuantConv2d, BatchNorm2d, QuantTanh(9), MaxPool2d?] runs on pixel planes
// (threshold epilogue, OR-pool, one decode). The oracle is the unfused
// module-by-module loop over Sequential::at(i).infer; logits and the
// binary-MVM count must equal it bit for bit in every configuration, and
// every configuration the chain must not cover (hooks, other level counts,
// residual blocks, NaN statistics) must leave the route untouched.
#include "quant/level_chain.hpp"

#include "common/thread_pool.hpp"
#include "crossbar/noise_model.hpp"
#include "models/resnet.hpp"
#include "models/vgg9.hpp"
#include "nn/pooling.hpp"
#include "quant/quant_layers.hpp"
#include "tensor/ops.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <latch>
#include <memory>
#include <thread>
#include <vector>

namespace gbo {
namespace {

struct ThreadGuard {
  std::size_t saved = ThreadPool::instance().num_threads();
  ~ThreadGuard() { ThreadPool::instance().set_num_threads(saved); }
};

/// The unfused oracle: every module's own infer, one at a time.
Tensor oracle(const nn::Sequential& net, const Tensor& x,
              nn::EvalContext& ctx) {
  Tensor cur = x;
  for (std::size_t i = 0; i < net.size(); ++i) cur = net.at(i).infer(cur, ctx);
  return cur;
}

Tensor random_images(std::size_t batch, std::size_t size, std::uint64_t seed) {
  Rng rng(seed);
  Tensor t({batch, 3, size, size});
  ops::fill_uniform(t, rng, -1.0f, 1.0f);
  return t;
}

void expect_bitwise(const Tensor& got, const Tensor& want) {
  ASSERT_EQ(got.shape(), want.shape());
  for (std::size_t i = 0; i < got.numel(); ++i)
    ASSERT_EQ(std::bit_cast<std::uint32_t>(got[i]),
              std::bit_cast<std::uint32_t>(want[i]))
        << "i=" << i;
}

/// Counters around one call: binary MVMs dispatched and chains run.
struct Counts {
  std::uint64_t mvms, chains;
};
Counts counts() {
  return {gemm::binary_mvm_count(), quant::level_chain_count()};
}

/// Runs net.infer and the oracle on x (fresh contexts with the same rng,
/// optionally each with its own arena); checks the logits and the MVM
/// count bitwise and returns how many chains net.infer ran.
std::uint64_t check_against_oracle(const nn::Sequential& net, const Tensor& x,
                                   bool with_arena) {
  ScratchArena a1, a2;
  nn::EvalContext fused(Rng(5), with_arena ? &a1 : nullptr);
  nn::EvalContext ref(Rng(5), with_arena ? &a2 : nullptr);
  const Counts c0 = counts();
  const Tensor want = oracle(net, x, ref);
  const Counts c1 = counts();
  const Tensor got = net.infer(x, fused);
  const Counts c2 = counts();
  expect_bitwise(got, want);
  EXPECT_EQ(c2.mvms - c1.mvms, c1.mvms - c0.mvms);
  EXPECT_EQ(c1.chains, c0.chains);  // the oracle never chains
  return c2.chains - c1.chains;
}

/// Random eval statistics for every BatchNorm2d: negative and zero γ,
/// β that pins channels to level 0 or 8, and spread running stats.
void randomize_bn(nn::Sequential& net, std::uint64_t seed) {
  Rng rng(seed);
  for (std::size_t i = 0; i < net.size(); ++i) {
    auto* bn = dynamic_cast<nn::BatchNorm2d*>(&net.at(i));
    if (!bn) continue;
    const std::size_t c = bn->num_features();
    float* g = bn->gamma().value.data();
    float* b = bn->beta().value.data();
    float* rm = bn->buffers()[0]->value.data();
    float* rv = bn->buffers()[1]->value.data();
    for (std::size_t ch = 0; ch < c; ++ch) {
      g[ch] = static_cast<float>(rng.uniform(-2.0, 2.0));
      b[ch] = static_cast<float>(rng.uniform(-1.0, 1.0));
      rm[ch] = static_cast<float>(rng.uniform(-0.5, 0.5));
      rv[ch] = static_cast<float>(rng.uniform(0.01, 2.0));
      switch (ch % 7) {
        case 1: g[ch] = 0.0f; break;      // constant level
        case 2: b[ch] = 50.0f; break;     // saturates to level 8
        case 3: b[ch] = -50.0f; break;    // saturates to level 0
        case 4: g[ch] = -std::abs(g[ch]) - 0.1f; break;  // falling
        default: break;
      }
    }
  }
}

TEST(LevelChain, Vgg9LogitsBitwiseEqualModuleByModuleOracle) {
  ThreadGuard guard;
  for (std::size_t width : {8u, 16u}) {
    models::Vgg9Config cfg;
    cfg.width = width;
    models::Vgg9 vgg = models::build_vgg9(cfg);
    vgg.net->set_training(false);
    for (bool random_stats : {false, true}) {
      if (random_stats) randomize_bn(*vgg.net, 40 + width);
      for (std::size_t threads : {1u, 4u}) {
        ThreadPool::instance().set_num_threads(threads);
        for (std::size_t batch : {1u, 3u, 8u})
          for (bool arena : {false, true}) {
            SCOPED_TRACE(::testing::Message()
                         << "w=" << width << " random_bn=" << random_stats
                         << " threads=" << threads << " batch=" << batch
                         << " arena=" << arena);
            const Tensor x = random_images(batch, cfg.image_size, batch);
            // conv1 reads raw images and declines; conv2..conv7 chain.
            EXPECT_EQ(check_against_oracle(*vgg.net, x, arena), 1u);
          }
      }
    }
  }
}

TEST(LevelChain, NegativeRunningVarDeclinesAndNanPositionsMatch) {
  models::Vgg9Config cfg;
  cfg.width = 8;
  models::Vgg9 vgg = models::build_vgg9(cfg);
  vgg.net->set_training(false);
  // conv2's BN is module 4: one channel with running_var + eps < 0 makes
  // that block's table invalid (NaN levels), so conv2 cannot head a chain,
  // and its NaN/−inf outputs push conv3 onto the float route too.
  auto* bn = dynamic_cast<nn::BatchNorm2d*>(&vgg.net->at(4));
  ASSERT_NE(bn, nullptr);
  bn->buffers()[1]->value.data()[0] = -1.0f;
  const Tensor x = random_images(3, cfg.image_size, 9);
  EXPECT_EQ(check_against_oracle(*vgg.net, x, /*with_arena=*/true), 0u);
  ScratchArena arena;
  nn::EvalContext ctx(Rng(5), &arena);
  const Tensor mid = [&] {
    Tensor cur = x;
    for (std::size_t i = 0; i < 6; ++i) cur = vgg.net->at(i).infer(cur, ctx);
    return cur;
  }();
  bool any_nan = false;
  for (std::size_t i = 0; i < mid.numel(); ++i) any_nan |= std::isnan(mid[i]);
  EXPECT_TRUE(any_nan);  // the configuration really produces NaNs
}

TEST(LevelChain, ResNetAndFiveLevelsAndHooksKeepTheirRoute) {
  {
    models::ResNetConfig cfg;
    cfg.width = 8;
    models::ResNet net = models::build_resnet(cfg);
    net.net->set_training(false);
    const Tensor x = random_images(2, cfg.image_size, 3);
    EXPECT_EQ(check_against_oracle(*net.net, x, true), 0u);
  }
  {
    models::Vgg9Config cfg;
    cfg.width = 8;
    cfg.act_levels = 5;
    models::Vgg9 vgg = models::build_vgg9(cfg);
    vgg.net->set_training(false);
    const Tensor x = random_images(2, cfg.image_size, 4);
    EXPECT_EQ(check_against_oracle(*vgg.net, x, true), 0u);
  }
  {
    // A noise hook on conv4 splits the run: conv2..conv3 and conv5..conv7
    // still chain, and the hook's keyed noise (drawn from the context in
    // network order) lands on the same bits as in the oracle.
    models::Vgg9Config cfg;
    cfg.width = 8;
    models::Vgg9 vgg = models::build_vgg9(cfg);
    vgg.net->set_training(false);
    xbar::GaussianNoiseHook hook(Rng(1), 0.3, enc::EncodingSpec{});
    vgg.encoded[2]->set_noise_hook(&hook);
    const Tensor x = random_images(2, cfg.image_size, 5);
    EXPECT_EQ(check_against_oracle(*vgg.net, x, true), 2u);
    for (auto* layer : vgg.encoded) layer->set_noise_hook(&hook);
    EXPECT_EQ(check_against_oracle(*vgg.net, x, true), 0u);
  }
}

TEST(LevelChain, MutationAfterWarmupIsSeenByTheNextCall) {
  models::Vgg9Config cfg;
  cfg.width = 8;
  models::Vgg9 vgg = models::build_vgg9(cfg);
  vgg.net->set_training(false);
  randomize_bn(*vgg.net, 77);
  const Tensor x = random_images(3, cfg.image_size, 6);
  EXPECT_EQ(check_against_oracle(*vgg.net, x, true), 1u);  // warm caches
  auto* bn = dynamic_cast<nn::BatchNorm2d*>(&vgg.net->at(8));  // conv3's BN
  ASSERT_NE(bn, nullptr);
  float* rm = bn->buffers()[0]->value.data();
  for (std::size_t ch = 0; ch < bn->num_features(); ++ch) rm[ch] += 0.75f;
  EXPECT_EQ(check_against_oracle(*vgg.net, x, true), 1u);
  float* w = vgg.encoded[3]->latent_weight().value.data();  // conv5
  for (std::size_t i = 0; i < 40; ++i) w[i] = -w[i] * 3.0f;
  EXPECT_EQ(check_against_oracle(*vgg.net, x, true), 1u);
  bn->gamma().value.data()[1] = -4.0f;
  EXPECT_EQ(check_against_oracle(*vgg.net, x, true), 1u);
}

TEST(LevelChain, ThresholdsReproduceTheLayersAtEveryXnorValue) {
  // Every attainable XNOR output of a k-tap conv, run through the table
  // and the epilogue, gives the level BatchNorm2d::infer + QuantTanh::infer
  // give — both directions, scaled and unscaled.
  const std::size_t k = 20, c = 70;
  nn::BatchNorm2d bn(c);
  quant::QuantTanh act(9);
  Rng rng(8);
  for (std::size_t ch = 0; ch < c; ++ch) {
    bn.gamma().value.data()[ch] =
        ch % 5 == 0 ? 0.0f : static_cast<float>(rng.uniform(-3.0, 3.0));
    bn.beta().value.data()[ch] = static_cast<float>(rng.uniform(-1.0, 1.0));
    bn.buffers()[0]->value.data()[ch] =
        static_cast<float>(rng.uniform(-1.0, 1.0));
  }
  for (bool scaled : {false, true}) {
    SCOPED_TRACE(::testing::Message() << "scaled=" << scaled);
    const float scale = 0.3711f;
    const quant::LevelThresholds table =
        quant::build_level_thresholds(k, scaled, scale, bn, act);
    ASSERT_TRUE(table.valid);
    const std::size_t s_count = 8 * k + 1;
    std::vector<float> rows(s_count * c);
    Tensor y({s_count, c, 1, 1});
    for (std::size_t s = 0; s < s_count; ++s)
      for (std::size_t ch = 0; ch < c; ++ch) {
        const float u =
            static_cast<float>(static_cast<int>(2 * s) - static_cast<int>(8 * k)) *
            0.125f;
        rows[s * c + ch] = u;
        y.data()[s * c + ch] = scaled ? u * scale : u;
      }
    nn::EvalContext ctx;
    const Tensor q = act.infer(bn.infer(y, ctx), ctx);
    std::vector<std::uint64_t> planes(
        gemm::packed_binary_pixel_words(s_count, c));
    gemm::binary_kernel().threshold_rows(
        rows.data(), s_count, c, table.flip.data(), table.thr.data(),
        gemm::threshold_stride(c), planes.data());
    std::vector<float> decoded(s_count * c);
    gemm::decode_planes(planes.data(), 1, c, s_count, decoded.data());
    for (std::size_t s = 0; s < s_count; ++s)
      for (std::size_t ch = 0; ch < c; ++ch)
        ASSERT_EQ(std::bit_cast<std::uint32_t>(decoded[ch * s_count + s]),
                  std::bit_cast<std::uint32_t>(q[s * c + ch]))
            << "s=" << s << " ch=" << ch;
  }
  // Another level count has no table.
  quant::QuantTanh act5(5);
  EXPECT_FALSE(quant::build_level_thresholds(k, false, 1.0f, bn, act5).valid);
}

TEST(LevelChain, RandomChainShapesMatchOracle) {
  // Seeded sweep over hand-built chains: channel counts across word
  // boundaries, kernels 1/3/5, strides, paddings, optional 2×2 pools.
  Rng rng(2024);
  const std::size_t channels[] = {1, 7, 63, 64, 65, 130};
  std::size_t chained = 0;
  for (int trial = 0; trial < 24; ++trial) {
    nn::Sequential net;
    std::size_t c = channels[rng.uniform_int(0, 5)];
    std::size_t h = static_cast<std::size_t>(rng.uniform_int(2, 9));
    std::size_t w = static_cast<std::size_t>(rng.uniform_int(2, 9));
    const std::size_t in_c = c, in_h = h, in_w = w;
    const int blocks = static_cast<int>(rng.uniform_int(2, 3));
    for (int b = 0; b < blocks; ++b) {
      ConvGeom g;
      g.in_c = c;
      g.in_h = h;
      g.in_w = w;
      g.k = static_cast<std::size_t>(2 * rng.uniform_int(0, 2) + 1);
      g.stride = static_cast<std::size_t>(rng.uniform_int(1, 2));
      g.pad = static_cast<std::size_t>(rng.uniform_int(0, 2));
      if (h + 2 * g.pad < g.k || w + 2 * g.pad < g.k) g.pad = g.k / 2;
      const std::size_t out_c = channels[rng.uniform_int(0, 5)];
      const bool scaled = rng.uniform_int(0, 1) == 1;
      net.emplace<quant::QuantConv2d>(out_c, g, rng, scaled);
      net.emplace<nn::BatchNorm2d>(out_c);
      net.emplace<quant::QuantTanh>(9);
      c = out_c;
      h = g.out_h();
      w = g.out_w();
      if (h % 2 == 0 && w % 2 == 0 && rng.uniform_int(0, 1)) {
        net.emplace<nn::MaxPool2d>(2);
        h /= 2;
        w /= 2;
      }
    }
    net.set_training(false);
    randomize_bn(net, 500 + static_cast<std::uint64_t>(trial));
    const std::size_t batch = static_cast<std::size_t>(rng.uniform_int(1, 3));
    Tensor x({batch, in_c, in_h, in_w});
    for (std::size_t i = 0; i < x.numel(); ++i)
      x[i] = static_cast<float>(rng.uniform_int(0, 8)) * 0.25f - 1.0f;
    SCOPED_TRACE(::testing::Message() << "trial=" << trial);
    const std::uint64_t runs = check_against_oracle(net, x, trial % 2 == 0);
    EXPECT_EQ(runs, 1u);
    chained += runs;
  }
  EXPECT_EQ(chained, 24u);
}

TEST(LevelChain, ColdCacheConcurrentInferMatchesOracle) {
  // Four contexts hit a freshly built network at once, so the threshold
  // tables' (and panel caches') VersionGate fills race; every output must
  // still equal the oracle. Run under TSan in CI.
  ThreadGuard guard;
  ThreadPool::instance().set_num_threads(4);
  models::Vgg9Config cfg;
  cfg.width = 8;
  const Tensor x = random_images(3, cfg.image_size, 12);
  Tensor want;
  {
    models::Vgg9 ref = models::build_vgg9(cfg);
    ref.net->set_training(false);
    nn::EvalContext ctx;
    want = oracle(*ref.net, x, ctx);
  }
  models::Vgg9 vgg = models::build_vgg9(cfg);
  vgg.net->set_training(false);
  constexpr int kContexts = 4;
  std::vector<Tensor> got(kContexts);
  std::latch start(kContexts);
  std::vector<std::thread> threads;
  for (int t = 0; t < kContexts; ++t)
    threads.emplace_back([&, t] {
      ScratchArena arena;
      nn::EvalContext ctx(Rng(1), &arena);
      start.arrive_and_wait();
      got[static_cast<std::size_t>(t)] = vgg.net->infer(x, ctx);
    });
  for (std::thread& th : threads) th.join();
  for (const Tensor& g : got) expect_bitwise(g, want);
}

}  // namespace
}  // namespace gbo
