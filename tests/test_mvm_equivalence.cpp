// The paper's Eq. 2–4 as an executable property: the analytic noise model
// (single Gaussian with closed-form accumulated variance) must match the
// pulse-level simulation (one noisy crossbar read per pulse) in both mean
// and variance, for both encodings, across pulse counts and noise levels.
#include "crossbar/mvm_engine.hpp"

#include "common/thread_pool.hpp"
#include "pulse_oracle.hpp"
#include "tensor/ops.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <tuple>

namespace gbo::xbar {
namespace {

Tensor random_binary_weight(std::size_t out, std::size_t in, std::uint64_t seed) {
  Rng rng(seed);
  Tensor w({out, in});
  for (std::size_t i = 0; i < w.numel(); ++i)
    w[i] = rng.bernoulli(0.5) ? 1.0f : -1.0f;
  return w;
}

Tensor random_activations(std::size_t n, std::size_t in, std::uint64_t seed) {
  Rng rng(seed);
  Tensor x({n, in});
  ops::fill_uniform(x, rng, -1.0f, 1.0f);
  return x;
}

TEST(MvmEngine, NoiselessPulseLevelEqualsIdeal) {
  const Tensor w = random_binary_weight(8, 24, 1);
  for (auto scheme : {enc::Scheme::kThermometer, enc::Scheme::kBitSlicing}) {
    MvmConfig cfg;
    cfg.spec = enc::EncodingSpec{scheme, scheme == enc::Scheme::kThermometer
                                             ? std::size_t{8}
                                             : std::size_t{4}};
    cfg.sigma = 0.0;
    MvmEngine engine(w, cfg, Rng(2));
    const Tensor x = random_activations(4, 24, 3);
    Tensor pulse = engine.run_pulse_level(x);
    Tensor ideal = engine.run_ideal(x);
    EXPECT_TRUE(ops::allclose(pulse, ideal, 1e-4f, 1e-4f))
        << enc::scheme_name(scheme);
  }
}

TEST(MvmEngine, AnalyticNoiselessEqualsIdeal) {
  const Tensor w = random_binary_weight(8, 24, 4);
  MvmConfig cfg;
  cfg.spec = enc::EncodingSpec{enc::Scheme::kThermometer, 8};
  cfg.sigma = 0.0;
  MvmEngine engine(w, cfg, Rng(5));
  const Tensor x = random_activations(4, 24, 6);
  EXPECT_TRUE(ops::allclose(engine.run_analytic(x), engine.run_ideal(x), 1e-5f,
                            1e-5f));
}

struct EquivCase {
  enc::Scheme scheme;
  std::size_t pulses;
  double sigma;
};

class MvmEquivalence : public ::testing::TestWithParam<EquivCase> {};

TEST_P(MvmEquivalence, PulseAndAnalyticAgreeInMeanAndVariance) {
  const auto param = GetParam();
  const Tensor w = random_binary_weight(4, 16, 7);
  MvmConfig cfg;
  cfg.spec = enc::EncodingSpec{param.scheme, param.pulses};
  cfg.sigma = param.sigma;
  const Tensor x = random_activations(1, 16, 8);

  MvmEngine engine(w, cfg, Rng(9));
  const Tensor ideal = engine.run_ideal(x);

  const int trials = 2000;
  auto collect = [&](bool pulse_mode) {
    // mean/variance of the first output element's noise across trials
    std::vector<double> mean(4, 0.0), m2(4, 0.0);
    for (int t = 0; t < trials; ++t) {
      Tensor y = pulse_mode ? engine.run_pulse_level(x) : engine.run_analytic(x);
      for (std::size_t o = 0; o < 4; ++o) {
        const double d = y.at(0, o) - ideal.at(0, o);
        const double delta = d - mean[o];
        mean[o] += delta / (t + 1);
        m2[o] += delta * (d - mean[o]);
      }
    }
    for (auto& v : m2) v /= trials - 1;
    return std::make_pair(mean, m2);
  };

  const auto [pulse_mean, pulse_var] = collect(true);
  const auto [ana_mean, ana_var] = collect(false);
  const double expected_var =
      param.sigma * param.sigma * cfg.spec.noise_variance_factor();

  for (std::size_t o = 0; o < 4; ++o) {
    const double se = std::sqrt(expected_var / trials);
    EXPECT_NEAR(pulse_mean[o], 0.0, 6.0 * se) << "pulse mean, o=" << o;
    EXPECT_NEAR(ana_mean[o], 0.0, 6.0 * se) << "analytic mean, o=" << o;
    // Sample variance of a Gaussian: rel. std-error ≈ sqrt(2/(n-1)) ≈ 3.2%.
    EXPECT_NEAR(pulse_var[o] / expected_var, 1.0, 0.2) << "pulse var, o=" << o;
    EXPECT_NEAR(ana_var[o] / expected_var, 1.0, 0.2) << "analytic var, o=" << o;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, MvmEquivalence,
    ::testing::Values(
        EquivCase{enc::Scheme::kThermometer, 4, 1.0},
        EquivCase{enc::Scheme::kThermometer, 8, 1.0},
        EquivCase{enc::Scheme::kThermometer, 8, 4.0},
        EquivCase{enc::Scheme::kThermometer, 16, 2.0},
        EquivCase{enc::Scheme::kBitSlicing, 2, 1.0},
        EquivCase{enc::Scheme::kBitSlicing, 3, 2.0},
        EquivCase{enc::Scheme::kBitSlicing, 4, 1.0}));

TEST(MvmEngine, ThermometerBeatsBitSlicingAtEqualBits) {
  // End-to-end validation of Fig. 1b on the simulator: 3-bit information,
  // same σ — thermometer (7 pulses) must show lower output noise variance
  // than bit slicing (3 pulses).
  const Tensor w = random_binary_weight(4, 16, 10);
  const Tensor x = random_activations(1, 16, 11);
  auto noise_var = [&](enc::Scheme scheme, std::size_t pulses) {
    MvmConfig cfg;
    cfg.spec = enc::EncodingSpec{scheme, pulses};
    cfg.sigma = 2.0;
    MvmEngine engine(w, cfg, Rng(12));
    const Tensor ideal = engine.run_ideal(x);
    double acc = 0.0;
    const int trials = 1500;
    for (int t = 0; t < trials; ++t) {
      Tensor y = engine.run_pulse_level(x);
      const double d = y.at(0, 0) - ideal.at(0, 0);
      acc += d * d;
    }
    return acc / trials;
  };
  const double tc = noise_var(enc::Scheme::kThermometer, 7);
  const double bs = noise_var(enc::Scheme::kBitSlicing, 3);
  EXPECT_LT(tc, bs * 0.6);  // theory predicts ratio (1/7)/(21/49) ≈ 0.33
}

// ---- fused vs. reference pulse-level path --------------------------------
//
// run_pulse_level is the fused batch-major sweep; pulse_level_reference
// (tests/oracles) is the scalar path through the public API, one crossbar
// read per pulse. For the same rng they take the same key and must agree
// BITWISE — across encodings, device models, ragged tiling, and any thread
// count.

Tensor run_with_threads(const Tensor& w, const MvmConfig& cfg, const Tensor& x,
                        std::size_t threads, bool fused) {
  ThreadPool& pool = ThreadPool::instance();
  const std::size_t restore = pool.num_threads();
  pool.set_num_threads(threads);
  const MvmEngine engine(w, cfg, Rng(42));
  Rng rng(43);
  Tensor y = fused ? engine.run_pulse_level(x, rng)
                   : pulse_level_reference(engine, x, rng);
  pool.set_num_threads(restore);
  return y;
}

struct FusedCase {
  const char* name;
  enc::Scheme scheme;
  std::size_t pulses;
  double sigma;
  DeviceConfig device;
};

std::vector<FusedCase> fused_cases() {
  std::vector<FusedCase> cases;
  cases.push_back({"ideal_thermo", enc::Scheme::kThermometer, 8, 1.5, {}});
  cases.push_back({"ideal_bits", enc::Scheme::kBitSlicing, 4, 2.0, {}});
  {
    // Read noise + ADC + programming variation on ragged tiles.
    DeviceConfig d;
    d.program_variation = 0.1;
    d.read_noise_sigma = 0.05;
    d.adc_bits = 8;
    cases.push_back({"noisy_adc", enc::Scheme::kThermometer, 8, 1.0, d});
  }
  {
    DeviceConfig d;
    d.mapping = WeightMapping::kOffset;
    d.g_on = 1.0;
    d.g_off = 0.1;
    d.read_noise_sigma = 0.02;
    d.adc_bits = 10;
    cases.push_back({"offset_noisy", enc::Scheme::kBitSlicing, 3, 0.5, d});
  }
  return cases;
}

TEST(MvmEngine, FusedPulsePathMatchesReferenceBitwiseAtAnyThreadCount) {
  const Tensor w = random_binary_weight(9, 37, 21);  // ragged against tile_cols
  const Tensor x = random_activations(5, 37, 22);
  for (const FusedCase& c : fused_cases()) {
    MvmConfig cfg;
    cfg.spec = enc::EncodingSpec{c.scheme, c.pulses};
    cfg.sigma = c.sigma;
    cfg.device = c.device;
    cfg.tile_cols = 16;  // 37 inputs -> tiles of 16, 16, 5

    const Tensor ref = run_with_threads(w, cfg, x, 1, /*fused=*/false);
    for (std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
      const Tensor fused = run_with_threads(w, cfg, x, threads, /*fused=*/true);
      ASSERT_TRUE(fused.same_shape(ref)) << c.name;
      EXPECT_EQ(0, std::memcmp(fused.data(), ref.data(),
                               ref.numel() * sizeof(float)))
          << c.name << " diverges at " << threads << " thread(s)";
    }
  }
}

TEST(MvmEngine, RowIdsMatchPerRequestGroupsBitwise) {
  // The row-id contract with group > 1 (DESIGN.md §3) — the fused conv
  // serving case, where each sample's oh·ow patch rows share one request
  // id: group s of a fused batch must be bitwise equal to running its rows
  // alone with {row_ids[s]} under the same context stream, for every
  // stochastic term (read noise, ADC, Eq. 1 output noise) and at any thread
  // count.
  const Tensor w = random_binary_weight(9, 37, 31);
  MvmConfig cfg;
  cfg.spec = enc::EncodingSpec{enc::Scheme::kThermometer, 6};
  cfg.sigma = 0.8;
  cfg.device.read_noise_sigma = 0.05;
  cfg.device.adc_bits = 8;
  cfg.tile_cols = 16;
  const std::size_t group = 3, in = 37;
  const std::vector<std::uint64_t> ids{7, 0, 123456789, 8};
  const Tensor x = random_activations(group * ids.size(), in, 32);
  ThreadPool& pool = ThreadPool::instance();
  const std::size_t restore = pool.num_threads();
  const MvmEngine engine(w, cfg, Rng(33));

  for (std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
    pool.set_num_threads(threads);
    Rng rng(39);
    const Tensor fused = engine.run_pulse_level(x, rng, nullptr, ids);
    ASSERT_EQ(fused.dim(0), group * ids.size());
    const std::size_t out = fused.dim(1);
    for (std::size_t s = 0; s < ids.size(); ++s) {
      Tensor xs({group, in});
      std::copy(x.data() + s * group * in, x.data() + (s + 1) * group * in,
                xs.data());
      Rng r(39);
      const std::uint64_t id[] = {ids[s]};
      const Tensor alone = engine.run_pulse_level(xs, r, nullptr, id);
      EXPECT_EQ(0, std::memcmp(alone.data(), fused.data() + s * group * out,
                               group * out * sizeof(float)))
          << "group " << s << " at " << threads << " thread(s)";
    }
  }
  pool.set_num_threads(restore);

  // Distinct ids draw distinct noise for the same rows.
  const Tensor x0(std::vector<std::size_t>{group, in},
                  std::vector<float>(x.data(), x.data() + group * in));
  Rng ra(39), rb(39);
  const std::uint64_t id_a[] = {7}, id_b[] = {8};
  const Tensor ya = engine.run_pulse_level(x0, ra, nullptr, id_a);
  const Tensor yb = engine.run_pulse_level(x0, rb, nullptr, id_b);
  EXPECT_NE(0, std::memcmp(ya.data(), yb.data(), ya.numel() * sizeof(float)));

  // Degenerate-id guards: more ids than rows, and an id count that does
  // not divide the batch.
  Rng r(1);
  const std::vector<std::uint64_t> too_many(group * ids.size() + 1, 0);
  const std::vector<std::uint64_t> ragged(5, 0);
  EXPECT_THROW(engine.run_pulse_level(x, r, nullptr, too_many),
               std::invalid_argument);
  EXPECT_THROW(engine.run_pulse_level(x, r, nullptr, ragged),
               std::invalid_argument);
}

TEST(MvmEngine, ZeroRowBatchWorksEvenWithReadNoise) {
  // Regression: the fused path must not reject an empty batch just because
  // read noise is enabled (zero draws are needed for zero rows).
  const Tensor w = random_binary_weight(5, 8, 31);
  MvmConfig cfg;
  cfg.spec = enc::EncodingSpec{enc::Scheme::kThermometer, 4};
  cfg.sigma = 1.0;
  cfg.device.read_noise_sigma = 0.1;
  MvmEngine engine(w, cfg, Rng(32));
  const Tensor x({0, 8});
  const Tensor y = engine.run_pulse_level(x);
  ASSERT_EQ(y.ndim(), 2u);
  EXPECT_EQ(y.dim(0), 0u);
  EXPECT_EQ(y.dim(1), 5u);
}

TEST(MvmEngine, EmptyPulseTrainYieldsZeroFilledResult) {
  const Tensor w = random_binary_weight(6, 12, 23);
  MvmConfig cfg;
  cfg.spec = enc::EncodingSpec{enc::Scheme::kThermometer, 0};
  cfg.sigma = 1.0;
  MvmEngine engine(w, cfg, Rng(24));
  const Tensor x = random_activations(3, 12, 25);
  const Tensor y = engine.run_pulse_level(x);
  ASSERT_EQ(y.ndim(), 2u);
  EXPECT_EQ(y.dim(0), 3u);
  EXPECT_EQ(y.dim(1), 6u);
  for (std::size_t i = 0; i < y.numel(); ++i) EXPECT_EQ(y[i], 0.0f);
}

TEST(MvmEngine, DeviceVariationIsSharedBetweenModes) {
  // With frozen programming variation and σ = 0, analytic mode must
  // reproduce the *same* corrupted weights as pulse-level mode.
  const Tensor w = random_binary_weight(6, 12, 13);
  MvmConfig cfg;
  cfg.spec = enc::EncodingSpec{enc::Scheme::kThermometer, 8};
  cfg.sigma = 0.0;
  cfg.device.program_variation = 0.3;
  MvmEngine engine(w, cfg, Rng(14));
  const Tensor x = random_activations(2, 12, 15);
  EXPECT_TRUE(ops::allclose(engine.run_pulse_level(x), engine.run_analytic(x),
                            1e-4f, 1e-4f));
}

}  // namespace
}  // namespace gbo::xbar
