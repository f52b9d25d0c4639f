#include "common/rng.hpp"

#include "common/thread_pool.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <vector>

namespace gbo {
namespace {

TEST(Rng, DeterministicForSameSeed) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a(), b());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int equal = 0;
  for (int i = 0; i < 100; ++i)
    if (a() == b()) ++equal;
  EXPECT_LT(equal, 2);
}

TEST(Rng, UniformInUnitInterval) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Rng, UniformRangeRespected) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    const double u = rng.uniform(-3.0, 5.0);
    EXPECT_GE(u, -3.0);
    EXPECT_LT(u, 5.0);
  }
}

TEST(Rng, UniformMeanApproximatelyHalf) {
  Rng rng(11);
  double acc = 0.0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) acc += rng.uniform();
  EXPECT_NEAR(acc / n, 0.5, 0.01);
}

TEST(Rng, UniformIntCoversRangeInclusive) {
  Rng rng(3);
  bool saw_lo = false, saw_hi = false;
  for (int i = 0; i < 10000; ++i) {
    const auto v = rng.uniform_int(2, 5);
    EXPECT_GE(v, 2);
    EXPECT_LE(v, 5);
    saw_lo |= v == 2;
    saw_hi |= v == 5;
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(Rng, NormalMomentsMatch) {
  Rng rng(13);
  const int n = 200000;
  double sum = 0.0, sum_sq = 0.0;
  for (int i = 0; i < n; ++i) {
    const double z = rng.normal();
    sum += z;
    sum_sq += z * z;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.02);
  EXPECT_NEAR(sum_sq / n, 1.0, 0.03);
}

TEST(Rng, NormalScaleAndShift) {
  Rng rng(17);
  const int n = 100000;
  double sum = 0.0;
  for (int i = 0; i < n; ++i) sum += rng.normal(3.0, 0.5);
  EXPECT_NEAR(sum / n, 3.0, 0.02);
}

TEST(Rng, BernoulliFrequency) {
  Rng rng(19);
  int hits = 0;
  const int n = 100000;
  for (int i = 0; i < n; ++i)
    if (rng.bernoulli(0.3)) ++hits;
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.01);
}

TEST(Rng, ForkIsDeterministic) {
  Rng parent(5);
  Rng a = parent.fork(1);
  Rng b = parent.fork(1);
  for (int i = 0; i < 50; ++i) EXPECT_EQ(a(), b());
}

TEST(Rng, ForkStreamsIndependent) {
  Rng parent(5);
  Rng a = parent.fork(1);
  Rng b = parent.fork(2);
  int equal = 0;
  for (int i = 0; i < 100; ++i)
    if (a() == b()) ++equal;
  EXPECT_LT(equal, 2);
}

TEST(Rng, ForkDoesNotAdvanceParent) {
  Rng p1(5), p2(5);
  (void)p1.fork(9);
  for (int i = 0; i < 20; ++i) EXPECT_EQ(p1(), p2());
}

struct ThreadGuard {
  std::size_t saved = ThreadPool::instance().num_threads();
  ~ThreadGuard() { ThreadPool::instance().set_num_threads(saved); }
};

bool same_bits(double a, double b) { return std::memcmp(&a, &b, sizeof a) == 0; }

// fill_normal's contract: bitwise the values and the end state of n
// sequential normal(mean, stddev) calls, at any pool width. Sizes cover the
// odd tail and lengths around 8192; `cached` starts the fill with a pending
// second normal.
TEST(Rng, FillNormalBitwiseEqualsSequentialNormals) {
  ThreadGuard guard;
  const std::size_t sizes[] = {0,    1,    2,    3,      8190,  8191,
                               8192, 8193, 8194, 100000, 100001};
  for (std::size_t width : {1u, 4u}) {
    ThreadPool::instance().set_num_threads(width);
    for (bool cached : {false, true}) {
      for (std::size_t n : sizes) {
        SCOPED_TRACE(::testing::Message() << "width " << width << " n " << n
                                          << " cached " << cached);
        Rng bulk(1234 + n), seq(1234 + n);
        if (cached) {
          ASSERT_TRUE(same_bits(bulk.normal(), seq.normal()));
        }
        std::vector<float> got(n), want(n);
        bulk.fill_normal(got.data(), n, 0.25, 1.5);
        for (float& v : want) v = static_cast<float>(seq.normal(0.25, 1.5));
        ASSERT_TRUE(n == 0 || std::memcmp(got.data(), want.data(),
                                          n * sizeof(float)) == 0);
        // The end state matches too: the cached second normal first, then
        // the raw stream.
        EXPECT_TRUE(same_bits(bulk.normal(), seq.normal()));
        EXPECT_TRUE(same_bits(bulk.normal(), seq.normal()));
        EXPECT_EQ(bulk(), seq());
      }
    }
  }
}

}  // namespace
}  // namespace gbo
