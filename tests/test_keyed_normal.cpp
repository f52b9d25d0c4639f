// Keyed Gaussian sampler: bitwise invariance of the value at each index
// (offsets, lengths, block splits, pool widths) and statistical gates on
// the draws. Bits are only defined within one build, so nothing here pins
// a golden value.
#include "common/keyed_normal.hpp"

#include "common/thread_pool.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <stdexcept>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <vector>

namespace gbo {
namespace {

constexpr std::uint64_t kKey = 0x243F6A8885A308D3ull;

struct ThreadGuard {
  std::size_t saved = ThreadPool::instance().num_threads();
  ~ThreadGuard() { ThreadPool::instance().set_num_threads(saved); }
};

bool same_bits(const float* a, const float* b, std::size_t n) {
  return n == 0 || std::memcmp(a, b, n * sizeof(float)) == 0;
}

std::vector<float> draw(std::uint64_t key, std::uint64_t first, std::size_t n,
                        std::uint32_t stream = 0) {
  std::vector<float> v(n);
  keyed_normal(key, first, v.data(), n, 1.0f, stream);
  return v;
}

// Distinct, nonzero bases: x + z is then compared bitwise, -0 included.
std::vector<float> base_values(std::size_t n) {
  std::vector<float> v(n);
  for (std::size_t i = 0; i < n; ++i)
    v[i] = 0.25f + static_cast<float>(i % 97) * 0.125f;
  return v;
}

TEST(KeyedNormal, ValueDependsOnlyOnIndex) {
  const std::size_t total = 3 * kKeyedNormalGrain + 300;
  const std::vector<float> ref = draw(kKey, 0, total);
  const std::size_t g = kKeyedNormalGrain;
  for (std::size_t first :
       {std::size_t{0}, std::size_t{1}, std::size_t{2}, std::size_t{3},
        std::size_t{4}, std::size_t{5}, std::size_t{127}, std::size_t{128},
        std::size_t{129}, g - 1, g, g + 1, 2 * g + 3}) {
    std::vector<std::size_t> lengths = {0, 1, 2, 3, 4, 5, 6, 7, 8, 9,
                                        g - 1, g, g + 1};
    for (std::size_t n : lengths) {
      SCOPED_TRACE(::testing::Message() << "first " << first << " n " << n);
      const std::vector<float> got = draw(kKey, first, n);
      ASSERT_TRUE(same_bits(got.data(), ref.data() + first, n));
    }
  }
}

TEST(KeyedNormal, AddEqualsBasePlusScaledDraw) {
  const std::size_t n = 1000;
  const float stddev = 0.37f;
  const std::vector<float> z = draw(kKey, 11, n, 5);
  std::vector<float> want = base_values(n), got = base_values(n);
  for (std::size_t i = 0; i < n; ++i) want[i] += stddev * z[i];
  add_keyed_normal(kKey, 11, got.data(), n, stddev, 5);
  EXPECT_TRUE(same_bits(got.data(), want.data(), n));
  std::vector<float> scaled(n);
  keyed_normal(kKey, 11, scaled.data(), n, stddev, 5);
  for (std::size_t i = 0; i < n; ++i) ASSERT_EQ(scaled[i], stddev * z[i]);
}

TEST(KeyedNormal, SplitCallsEqualOneCall) {
  // Any partition of the range — the pool's blocks are one — gives the
  // bits of a single call.
  const std::size_t total = 2 * kKeyedNormalGrain + 77;
  std::vector<float> want = base_values(total);
  add_keyed_normal(kKey, 9, want.data(), total, 1.5f);
  for (std::size_t piece : {std::size_t{1}, std::size_t{3}, std::size_t{127},
                            std::size_t{128}, std::size_t{129},
                            std::size_t{4096}, kKeyedNormalGrain + 1}) {
    SCOPED_TRACE(::testing::Message() << "piece " << piece);
    std::vector<float> got = base_values(total);
    for (std::size_t lo = 0; lo < total; lo += piece)
      add_keyed_normal(kKey, 9 + lo, got.data() + lo,
                       std::min(piece, total - lo), 1.5f);
    ASSERT_TRUE(same_bits(got.data(), want.data(), total));
  }
}

TEST(KeyedNormal, PoolEntryEqualsSerialAtAnyWidth) {
  ThreadGuard guard;
  for (std::size_t n : {std::size_t{0}, std::size_t{7}, kKeyedNormalGrain - 1,
                        kKeyedNormalGrain, kKeyedNormalGrain + 1,
                        5 * kKeyedNormalGrain + 13}) {
    std::vector<float> want = base_values(n);
    add_keyed_normal(kKey, 0, want.data(), n, 0.8f, 2);
    for (std::size_t width : {1u, 4u}) {
      SCOPED_TRACE(::testing::Message() << "n " << n << " width " << width);
      ThreadPool::instance().set_num_threads(width);
      std::vector<float> got = base_values(n);
      add_keyed_normal_rows(kKey, {}, got.data(), n, 0.8f, 2);
      ASSERT_TRUE(same_bits(got.data(), want.data(), n));
    }
  }
}

TEST(KeyedNormal, RowGroupsAreKeyedByRowId) {
  // Group j of a row-grouped draw is the draw of row_key(key, row_ids[j])
  // from index 0, whatever the other ids are.
  const std::size_t len = kKeyedNormalGrain + 300;
  const std::uint64_t ids[] = {3, 9, 3};
  std::vector<float> got(3 * len);
  keyed_normal_rows(kKey, ids, got.data(), got.size(), 1.0f, 4);
  for (std::size_t j = 0; j < 3; ++j) {
    const std::vector<float> want = draw(row_key(kKey, ids[j]), 0, len, 4);
    ASSERT_TRUE(same_bits(got.data() + j * len, want.data(), len)) << j;
  }
  EXPECT_NE(row_key(kKey, 3), row_key(kKey, 9));
  EXPECT_NE(row_key(kKey, 3), row_key(kKey + 1, 3));
  EXPECT_THROW(keyed_normal_rows(kKey, ids, got.data(), got.size() - 1, 1.0f),
               std::invalid_argument);
}

TEST(KeyedNormal, KeysAndStreamsGiveDifferentDraws) {
  const std::vector<float> a = draw(kKey, 0, 64);
  const std::vector<float> b = draw(kKey + 1, 0, 64);
  const std::vector<float> c = draw(kKey, 0, 64, 1);
  std::size_t same_ab = 0, same_ac = 0;
  for (std::size_t i = 0; i < 64; ++i) {
    same_ab += a[i] == b[i];
    same_ac += a[i] == c[i];
  }
  EXPECT_EQ(same_ab, 0u);
  EXPECT_EQ(same_ac, 0u);
}

// ---- statistical gates over 10^6 draws -------------------------------------

constexpr std::size_t kN = 1000000;

TEST(KeyedNormalStats, MomentsMatchStandardNormal) {
  const std::vector<float> z = draw(kKey, 0, kN);
  double m1 = 0.0;
  for (float v : z) m1 += v;
  m1 /= kN;
  double m2 = 0.0, m3 = 0.0, m4 = 0.0;
  for (float v : z) {
    const double d = v - m1, d2 = d * d;
    m2 += d2;
    m3 += d2 * d;
    m4 += d2 * d2;
  }
  m2 /= kN;
  m3 /= kN;
  m4 /= kN;
  // Five standard errors of each sample moment under N(0, 1).
  const double n = static_cast<double>(kN);
  EXPECT_NEAR(m1, 0.0, 5.0 / std::sqrt(n));
  EXPECT_NEAR(m2, 1.0, 5.0 * std::sqrt(2.0 / n));
  EXPECT_NEAR(m3 / std::pow(m2, 1.5), 0.0, 5.0 * std::sqrt(6.0 / n));
  EXPECT_NEAR(m4 / (m2 * m2), 3.0, 5.0 * std::sqrt(24.0 / n));
}

TEST(KeyedNormalStats, KolmogorovSmirnovAgainstStandardNormal) {
  std::vector<float> z = draw(kKey ^ 0x5555, 0, kN);
  std::sort(z.begin(), z.end());
  double d = 0.0;
  for (std::size_t i = 0; i < kN; ++i) {
    const double cdf = 0.5 * std::erfc(-z[i] / std::sqrt(2.0));
    d = std::max({d, cdf - static_cast<double>(i) / kN,
                  static_cast<double>(i + 1) / kN - cdf});
  }
  // The 1% critical value of D for large n.
  EXPECT_LT(d, 1.63 / std::sqrt(static_cast<double>(kN)));
}

TEST(KeyedNormalStats, TailFrequenciesMatchStandardNormal) {
  const std::vector<float> z = draw(kKey, 7 * kN, kN, 3);
  for (double t : {2.0, 3.0, 4.0}) {
    const double p = std::erfc(t / std::sqrt(2.0));  // P(|Z| > t)
    std::size_t hits = 0;
    for (float v : z) hits += std::fabs(v) > t;
    const double expect = p * kN, sd = std::sqrt(kN * p * (1.0 - p));
    EXPECT_NEAR(static_cast<double>(hits), expect, 5.0 * sd) << "t " << t;
  }
}

double correlation(const std::vector<float>& a, const std::vector<float>& b) {
  double ma = 0.0, mb = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    ma += a[i];
    mb += b[i];
  }
  ma /= a.size();
  mb /= b.size();
  double sab = 0.0, saa = 0.0, sbb = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    sab += (a[i] - ma) * (b[i] - mb);
    saa += (a[i] - ma) * (a[i] - ma);
    sbb += (b[i] - mb) * (b[i] - mb);
  }
  return sab / std::sqrt(saa * sbb);
}

TEST(KeyedNormalStats, AdjacentKeysIndicesAndStreamsUncorrelated) {
  const double bound = 5.0 / std::sqrt(static_cast<double>(kN));
  const std::vector<float> z = draw(kKey, 0, kN + 1);
  const std::vector<float> lo(z.begin(), z.end() - 1), hi(z.begin() + 1, z.end());
  EXPECT_LT(std::fabs(correlation(lo, hi)), bound) << "adjacent indices";
  // Keys are xoshiro draws, so adjacent integer keys are a stress case: a
  // weak key schedule would show here first.
  for (std::uint64_t key : {std::uint64_t{0}, kKey}) {
    const std::vector<float> a = draw(key, 0, kN), b = draw(key + 1, 0, kN);
    EXPECT_LT(std::fabs(correlation(a, b)), bound) << "key " << key;
  }
  const std::vector<float> s0 = draw(kKey, 0, kN, 0), s1 = draw(kKey, 0, kN, 1);
  EXPECT_LT(std::fabs(correlation(s0, s1)), bound) << "adjacent streams";
}

}  // namespace
}  // namespace gbo
