// The packed-panel GEMM layer (tensor/gemm.hpp) against the retained naive
// reference kernels: agreement across odd, rectangular, and edge shapes
// (k = 0, 1×N, N×1, exact-tile, cross-tile) plus a seeded random-shape
// sweep, accumulate semantics, bitwise equality between the entry points
// that share the packed kernel, row stability across batch sizes, and
// bitwise reproducibility across thread counts.
#include "tensor/gemm.hpp"

#include "common/rng.hpp"
#include "common/thread_pool.hpp"
#include "gemm_oracles.hpp"
#include "tensor/ops.hpp"
#include "tensor/tensor.hpp"

#include <gtest/gtest.h>

#include <cstring>
#include <utility>
#include <vector>

namespace gbo {
namespace {

Tensor random_tensor(std::vector<std::size_t> shape, std::uint64_t seed) {
  Rng rng(seed);
  Tensor t(std::move(shape));
  ops::fill_normal(t, rng, 0.0f, 1.0f);
  return t;
}

// Shapes chosen to hit every tile case: tiny problems, lone rows/columns,
// exact MR×NR multiples, ragged tile edges, and blocks that span multiple
// KC/NC panels.
struct Shape {
  std::size_t m, n, k;
};
// Blocked and naive kernels associate the k-sum differently, so the
// absolute error of a cancellation-prone dot product grows with the
// magnitude of its k intermediate terms (N(0,1) draws here), not with the
// result. Scale atol accordingly.
float atol_for(std::size_t k) { return 1e-5f + 1e-6f * static_cast<float>(k); }

const std::vector<Shape> kShapes = {
    {1, 1, 1},   {1, 9, 4},    {9, 1, 4},    {4, 9, 1},    {7, 5, 3},
    {6, 16, 8},  {12, 32, 16}, {13, 33, 17}, {64, 64, 64}, {65, 67, 63},
    {3, 300, 5}, {300, 3, 5},  {90, 110, 70}, {130, 150, 300},
    {16, 200, 400},
};

TEST(Gemm, NnMatchesNaiveAcrossShapes) {
  for (const Shape& s : kShapes) {
    const Tensor a = random_tensor({s.m, s.k}, 11 + s.m);
    const Tensor b = random_tensor({s.k, s.n}, 23 + s.n);
    Tensor c({s.m, s.n}), ref({s.m, s.n});
    gemm::gemm_nn(s.m, s.n, s.k, a.data(), s.k, b.data(), s.n, c.data(), s.n,
                  /*accumulate=*/false);
    gemm::naive_gemm_nn_acc(s.m, s.n, s.k, a.data(), b.data(), ref.data());
    EXPECT_TRUE(ops::allclose(c, ref, 1e-4f, atol_for(s.k)))
        << "nn mismatch at m=" << s.m << " n=" << s.n << " k=" << s.k;
  }
}

TEST(Gemm, NtMatchesNaiveAcrossShapes) {
  for (const Shape& s : kShapes) {
    const Tensor a = random_tensor({s.m, s.k}, 31 + s.m);
    const Tensor b = random_tensor({s.n, s.k}, 41 + s.n);
    Tensor c({s.m, s.n}), ref({s.m, s.n});
    gemm::gemm_nt(s.m, s.n, s.k, a.data(), s.k, b.data(), s.k, c.data(), s.n);
    gemm::naive_gemm_nt(s.m, s.n, s.k, a.data(), b.data(), ref.data());
    EXPECT_TRUE(ops::allclose(c, ref, 1e-4f, atol_for(s.k)))
        << "nt mismatch at m=" << s.m << " n=" << s.n << " k=" << s.k;
  }
}

TEST(Gemm, TnAccMatchesNaiveAcrossShapes) {
  for (const Shape& s : kShapes) {
    const Tensor a = random_tensor({s.k, s.m}, 51 + s.m);
    const Tensor b = random_tensor({s.k, s.n}, 61 + s.n);
    Tensor c({s.m, s.n}), ref({s.m, s.n});
    gemm::gemm_tn_acc(s.m, s.n, s.k, a.data(), s.m, b.data(), s.n, c.data(),
                      s.n);
    gemm::naive_gemm_tn_acc(s.m, s.n, s.k, a.data(), b.data(), ref.data());
    EXPECT_TRUE(ops::allclose(c, ref, 1e-4f, atol_for(s.k)))
        << "tn mismatch at m=" << s.m << " n=" << s.n << " k=" << s.k;
  }
}

TEST(Gemm, KZeroYieldsZeroProduct) {
  Tensor c({3, 4}, 7.0f);
  gemm::gemm_nn(3, 4, 0, nullptr, 0, nullptr, 4, c.data(), 4,
                /*accumulate=*/false);
  for (std::size_t i = 0; i < c.numel(); ++i) EXPECT_EQ(c[i], 0.0f);

  Tensor d({3, 4}, 7.0f);
  gemm::gemm_nt(3, 4, 0, nullptr, 0, nullptr, 0, d.data(), 4);
  for (std::size_t i = 0; i < d.numel(); ++i) EXPECT_EQ(d[i], 0.0f);
}

TEST(Gemm, KZeroAccumulateLeavesCUntouched) {
  Tensor c({2, 2}, 3.0f);
  gemm::gemm_nn(2, 2, 0, nullptr, 0, nullptr, 2, c.data(), 2,
                /*accumulate=*/true);
  for (std::size_t i = 0; i < c.numel(); ++i) EXPECT_EQ(c[i], 3.0f);
  gemm::gemm_tn_acc(2, 2, 0, nullptr, 2, nullptr, 2, c.data(), 2);
  for (std::size_t i = 0; i < c.numel(); ++i) EXPECT_EQ(c[i], 3.0f);
}

TEST(Gemm, NnAccumulatesOntoExistingC) {
  const std::size_t m = 33, n = 29, k = 17;
  const Tensor a = random_tensor({m, k}, 71);
  const Tensor b = random_tensor({k, n}, 72);
  Tensor c({m, n}, 1.5f), ref({m, n}, 1.5f);
  gemm::gemm_nn(m, n, k, a.data(), k, b.data(), n, c.data(), n,
                /*accumulate=*/true);
  gemm::naive_gemm_nn_acc(m, n, k, a.data(), b.data(), ref.data());
  EXPECT_TRUE(ops::allclose(c, ref, 1e-4f, atol_for(k)));
}

TEST(Gemm, BitwiseReproducibleAcrossThreadCounts) {
  // Both shapes span several MC/KC blocks; the second is ragged in every
  // dimension.
  for (const Shape& s : {Shape{150, 130, 270}, Shape{131, 149, 263}}) {
    const std::size_t m = s.m, n = s.n, k = s.k;
    const Tensor a = random_tensor({m, k}, 81);
    const Tensor b = random_tensor({k, n}, 82);
    const Tensor bt = ops::transpose(b);  // [n, k]
    const Tensor at = ops::transpose(a);  // [k, m]

    ThreadPool& pool = ThreadPool::instance();
    const std::size_t restore = pool.num_threads();
    std::vector<Tensor> nn_results, nt_results, tn_results;
    for (std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
      pool.set_num_threads(threads);
      Tensor c_nn({m, n});
      gemm::gemm_nn(m, n, k, a.data(), k, b.data(), n, c_nn.data(), n, false);
      nn_results.push_back(std::move(c_nn));
      Tensor c_nt({m, n});
      gemm::gemm_nt(m, n, k, a.data(), k, bt.data(), k, c_nt.data(), n);
      nt_results.push_back(std::move(c_nt));
      Tensor c_tn({m, n});
      gemm::gemm_tn_acc(m, n, k, at.data(), m, b.data(), n, c_tn.data(), n);
      tn_results.push_back(std::move(c_tn));
    }
    pool.set_num_threads(restore);

    const std::size_t bytes = m * n * sizeof(float);
    EXPECT_EQ(0, std::memcmp(nn_results[0].data(), nn_results[1].data(), bytes))
        << "nn at m=" << m;
    EXPECT_EQ(0, std::memcmp(nt_results[0].data(), nt_results[1].data(), bytes))
        << "nt at m=" << m;
    EXPECT_EQ(0, std::memcmp(tn_results[0].data(), tn_results[1].data(), bytes))
        << "tn at m=" << m;
  }
}

// Ragged shapes chosen so the packed path has to mask edges everywhere:
// non-multiples of MR/NR/KC, tall/skinny and short/wide extremes, and the
// degenerate k = 1 (a single outer product, every strip one float deep).
const std::vector<Shape> kRaggedShapes = {
    {7, 5, 3},      {13, 33, 17},  {65, 67, 63},   {90, 110, 70},
    {130, 150, 300}, {300, 3, 5},  {1000, 17, 29}, {5, 900, 333},
    {257, 31, 1},   {6, 16, 8},    {64, 64, 64},   {61, 257, 129},
};

TEST(Gemm, NtMatchesNnOverTransposeBitwise) {
  // gemm_nt packs B straight from transposed storage; it must agree bitwise
  // with gemm_nn over the materialized transpose on every shape.
  for (const Shape& s : kRaggedShapes) {
    const Tensor a = random_tensor({s.m, s.k}, 131 + s.m);
    const Tensor bt = random_tensor({s.n, s.k}, 132 + s.n);  // B stored [n, k]
    Tensor c_nt({s.m, s.n}), c_nn({s.m, s.n});
    gemm::gemm_nt(s.m, s.n, s.k, a.data(), s.k, bt.data(), s.k, c_nt.data(),
                  s.n);
    const Tensor b = ops::transpose(bt);  // [k, n]
    gemm::gemm_nn(s.m, s.n, s.k, a.data(), s.k, b.data(), s.n, c_nn.data(),
                  s.n, /*accumulate=*/false);
    EXPECT_EQ(0, std::memcmp(c_nt.data(), c_nn.data(),
                             s.m * s.n * sizeof(float)))
        << "nt/nn bitwise mismatch at m=" << s.m << " n=" << s.n
        << " k=" << s.k;
  }
}

/// B[k, n] (ldb = n) packed into a caller-owned panel buffer.
std::vector<float> packed(std::size_t k, std::size_t n, const Tensor& b) {
  std::vector<float> p(gemm::packed_b_floats(n, k));
  gemm::pack_b(k, n, b.data(), n, p.data());
  return p;
}

/// B stored transposed as [n, k] (ldb = k) packed into a caller-owned
/// panel buffer.
std::vector<float> packed_t(std::size_t n, std::size_t k, const Tensor& bt) {
  std::vector<float> p(gemm::packed_b_floats(n, k));
  gemm::pack_b_t(n, k, bt.data(), k, p.data());
  return p;
}

TEST(Gemm, PrepackedMatchesFreshPackBitwise) {
  // The cross-request panel cache contract (DESIGN.md §6): running the
  // packed kernel over panels packed once must equal the fresh-pack entry
  // points bitwise on every shape, ragged edges included.
  for (const Shape& s : kRaggedShapes) {
    const Tensor a = random_tensor({s.m, s.k}, 151 + s.m);
    const Tensor b = random_tensor({s.k, s.n}, 153 + s.n);
    Tensor c_fresh({s.m, s.n}), c_pre({s.m, s.n});
    gemm::gemm_nn(s.m, s.n, s.k, a.data(), s.k, b.data(), s.n,
                  c_fresh.data(), s.n, /*accumulate=*/false);
    gemm::gemm_prepacked(s.m, s.n, s.k, a.data(), s.k,
                         packed(s.k, s.n, b).data(), c_pre.data(), s.n);
    EXPECT_EQ(0, std::memcmp(c_fresh.data(), c_pre.data(),
                             s.m * s.n * sizeof(float)))
        << "prepacked nn mismatch at m=" << s.m << " n=" << s.n
        << " k=" << s.k;

    // Transposed-weight orientation against gemm_nt.
    const Tensor bt = random_tensor({s.n, s.k}, 155 + s.n);
    Tensor c_nt({s.m, s.n}), c_pre_t({s.m, s.n});
    gemm::gemm_nt(s.m, s.n, s.k, a.data(), s.k, bt.data(), s.k, c_nt.data(),
                  s.n);
    gemm::gemm_prepacked(s.m, s.n, s.k, a.data(), s.k,
                         packed_t(s.n, s.k, bt).data(), c_pre_t.data(), s.n);
    EXPECT_EQ(0, std::memcmp(c_nt.data(), c_pre_t.data(),
                             s.m * s.n * sizeof(float)))
        << "prepacked nt mismatch at m=" << s.m << " n=" << s.n
        << " k=" << s.k;
  }
}

TEST(Gemm, PrepackedAcceptsUnalignedPanels) {
  // The kernels use unaligned loads, so a caller's panel buffer only needs
  // the documented float count: a deliberately misaligned copy must give
  // the same bits as the fresh-pack entry point.
  const std::size_t m = 130, n = 150, k = 300;
  const Tensor a = random_tensor({m, k}, 121);
  const Tensor b = random_tensor({k, n}, 122);
  Tensor c_fresh({m, n}), c_unaligned({m, n});
  gemm::gemm_nn(m, n, k, a.data(), k, b.data(), n, c_fresh.data(), n,
                /*accumulate=*/false);
  std::vector<float> panels(gemm::packed_b_floats(n, k) + 1);
  gemm::pack_b(k, n, b.data(), n, panels.data() + 1);
  gemm::gemm_prepacked(m, n, k, a.data(), k, panels.data() + 1,
                       c_unaligned.data(), n);
  EXPECT_EQ(0, std::memcmp(c_fresh.data(), c_unaligned.data(),
                           m * n * sizeof(float)));
}

TEST(Gemm, PrepackedBitwiseReproducibleAcrossThreadCounts) {
  const std::size_t m = 131, n = 149, k = 263;  // ragged in every dimension
  const Tensor a = random_tensor({m, k}, 161);
  const Tensor bt = random_tensor({n, k}, 162);
  const std::vector<float> pb = packed_t(n, k, bt);
  ThreadPool& pool = ThreadPool::instance();
  const std::size_t restore = pool.num_threads();
  std::vector<Tensor> results;
  for (std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
    pool.set_num_threads(threads);
    Tensor c({m, n});
    gemm::gemm_prepacked(m, n, k, a.data(), k, pb.data(), c.data(), n);
    results.push_back(std::move(c));
  }
  pool.set_num_threads(restore);
  EXPECT_EQ(0, std::memcmp(results[0].data(), results[1].data(),
                           m * n * sizeof(float)));
}

TEST(Gemm, PrepackGuardsDegenerateShapes) {
  // k == 0 (and n == 0) packs to an empty panel buffer, and the kernel must
  // treat it as a zero contribution instead of reading the missing panels.
  EXPECT_EQ(0u, gemm::packed_b_floats(5, 0));
  EXPECT_EQ(0u, gemm::packed_b_floats(0, 5));
  const std::vector<float> kzero = packed(0, 5, Tensor({0, 5}));
  Tensor c({3, 5}, 0.5f);
  gemm::gemm_prepacked(3, 5, 0, nullptr, 0, kzero.data(), c.data(), 5);
  for (std::size_t i = 0; i < c.numel(); ++i) EXPECT_EQ(c[i], 0.0f);
}

TEST(Gemm, PackedWeightCacheRepacksOncePerVersion) {
  const std::size_t n = 40, k = 30;
  Tensor w = random_tensor({n, k}, 171);
  gemm::PackedWeightCache cache;
  const std::uint64_t v0 = w.version();
  const float* p0 = cache.get(std::as_const(w).data(), k, n, k, v0);
  const float* p1 = cache.get(std::as_const(w).data(), k, n, k, v0);
  EXPECT_EQ(p0, p1);
  EXPECT_EQ(cache.packs(), 1u);
  // Cached panels equal a fresh pack bitwise.
  const std::vector<float> fresh = packed_t(n, k, std::as_const(w));
  EXPECT_EQ(0, std::memcmp(p0, fresh.data(), fresh.size() * sizeof(float)));
  // Mutation through any non-const accessor bumps the version => repack.
  w.data()[0] += 2.0f;
  EXPECT_NE(w.version(), v0);
  (void)cache.get(std::as_const(w).data(), k, n, k, w.version());
  EXPECT_EQ(cache.packs(), 2u);
  // Unchanged version afterwards: still no further packs.
  (void)cache.get(std::as_const(w).data(), k, n, k, w.version());
  EXPECT_EQ(cache.packs(), 2u);
}

TEST(Gemm, NtRowwiseIsRowStableAcrossBatchSizes) {
  // The layers' non-panel route: row i of any batch must be bitwise equal
  // to computing row i alone — the property that lets stochastic serving
  // fuse micro-batches (DESIGN.md §6).
  const std::size_t n = 24, k = 16;
  for (std::size_t m : {std::size_t{1}, std::size_t{3}, std::size_t{8},
                        std::size_t{65}}) {
    const Tensor a = random_tensor({m, k}, 181 + m);
    const Tensor bt = random_tensor({n, k}, 183);
    Tensor c({m, n});
    gemm::gemm_nt_rowwise(m, n, k, a.data(), k, bt.data(), k, c.data(), n);
    for (std::size_t i = 0; i < m; ++i) {
      Tensor row({1, n});
      gemm::gemm_nt_rowwise(1, n, k, a.data() + i * k, k, bt.data(), k,
                            row.data(), n);
      EXPECT_EQ(0, std::memcmp(row.data(), c.data() + i * n,
                               n * sizeof(float)))
          << "row " << i << " of m=" << m << " not row-stable";
    }
    // And it agrees with the naive reference numerically.
    Tensor ref({m, n});
    gemm::naive_gemm_nt(m, n, k, a.data(), bt.data(), ref.data());
    EXPECT_TRUE(ops::allclose(c, ref, 1e-4f, atol_for(k)));
  }
}

TEST(Gemm, MatmulBtIsRowStableAcrossBatchSizes) {
  // ops::matmul_bt has one route (fresh pack_b_t + packed kernel), so row i
  // of any batch must be bitwise equal to the same row computed as a unit
  // batch — for weights on both sides of the layers' panel floor.
  struct Weight {
    std::size_t n, k;
    bool panels;  // side of gemm::panels_for_weight
  };
  for (const Weight& w : {Weight{24, 16, false}, Weight{130, 300, true}}) {
    ASSERT_EQ(w.panels, gemm::panels_for_weight(w.n, w.k));
    const Tensor bt = random_tensor({w.n, w.k}, 191 + w.n);
    for (std::size_t m : {std::size_t{1}, std::size_t{5}, std::size_t{63},
                          std::size_t{64}, std::size_t{100}}) {
      const Tensor a = random_tensor({m, w.k}, 193 + m);
      const Tensor c = ops::matmul_bt(a, bt);
      for (std::size_t i = 0; i < m; ++i) {
        Tensor row({1, w.k});
        std::memcpy(row.data(), a.data() + i * w.k, w.k * sizeof(float));
        const Tensor unit = ops::matmul_bt(row, bt);
        ASSERT_EQ(0, std::memcmp(unit.data(), c.data() + i * w.n,
                                 w.n * sizeof(float)))
            << "row " << i << " of m=" << m << " n=" << w.n << " k=" << w.k
            << " not row-stable";
      }
    }
  }
}

TEST(Gemm, RandomShapeSweepMatchesOracles) {
  // Fixed-seed sweep over shapes that include 0 and 1 dimensions and
  // ragged sizes across the KC and NC blocks: every entry point
  // against its naive oracle with the tolerances above. C starts non-zero
  // so the overwrite (nn, nt) and accumulate (tn) semantics are checked too.
  Rng rng(20240);
  auto dim = [&rng](std::size_t big) -> std::size_t {
    switch (rng.uniform_int(0, 5)) {
      case 0: return 0;
      case 1: return 1;
      case 2: return static_cast<std::size_t>(rng.uniform_int(2, 17));
      default: return static_cast<std::size_t>(rng.uniform_int(18, big));
    }
  };
  for (int trial = 0; trial < 150; ++trial) {
    const Shape s{dim(130), dim(300), dim(300)};
    SCOPED_TRACE(::testing::Message() << "trial " << trial << " m=" << s.m
                                      << " n=" << s.n << " k=" << s.k);
    const std::uint64_t seed = 1000 + static_cast<std::uint64_t>(trial);
    const Tensor a = random_tensor({s.m, s.k}, seed);
    const Tensor b = random_tensor({s.k, s.n}, seed + 1);
    const Tensor bt = random_tensor({s.n, s.k}, seed + 2);
    const Tensor at = random_tensor({s.k, s.m}, seed + 3);
    const float atol = atol_for(s.k);

    Tensor c({s.m, s.n}, 7.0f), ref({s.m, s.n});
    gemm::gemm_nn(s.m, s.n, s.k, a.data(), s.k, b.data(), s.n, c.data(), s.n,
                  /*accumulate=*/false);
    gemm::naive_gemm_nn_acc(s.m, s.n, s.k, a.data(), b.data(), ref.data());
    EXPECT_TRUE(ops::allclose(c, ref, 1e-4f, atol)) << "nn";

    Tensor c_nt({s.m, s.n}, 7.0f), ref_nt({s.m, s.n});
    gemm::gemm_nt(s.m, s.n, s.k, a.data(), s.k, bt.data(), s.k, c_nt.data(),
                  s.n);
    gemm::naive_gemm_nt(s.m, s.n, s.k, a.data(), bt.data(), ref_nt.data());
    EXPECT_TRUE(ops::allclose(c_nt, ref_nt, 1e-4f, atol)) << "nt";

    Tensor c_tn({s.m, s.n}, 0.5f), ref_tn({s.m, s.n}, 0.5f);
    gemm::gemm_tn_acc(s.m, s.n, s.k, at.data(), s.m, b.data(), s.n,
                      c_tn.data(), s.n);
    gemm::naive_gemm_tn_acc(s.m, s.n, s.k, at.data(), b.data(), ref_tn.data());
    EXPECT_TRUE(ops::allclose(c_tn, ref_tn, 1e-4f, atol)) << "tn";
  }
}

TEST(Gemm, OpsWrappersDispatchToBlockedKernels) {
  // ops::matmul* route through the blocked layer; cross-check one odd shape
  // per variant against the naive kernels.
  const std::size_t m = 37, n = 41, k = 29;
  const Tensor a = random_tensor({m, k}, 91);
  const Tensor b = random_tensor({k, n}, 92);

  Tensor ref({m, n});
  gemm::naive_gemm_nn_acc(m, n, k, a.data(), b.data(), ref.data());
  EXPECT_TRUE(ops::allclose(ops::matmul(a, b), ref, 1e-4f, 1e-5f));
  EXPECT_TRUE(
      ops::allclose(ops::matmul_bt(a, ops::transpose(b)), ref, 1e-4f, 1e-5f));
  EXPECT_TRUE(
      ops::allclose(ops::matmul_at(ops::transpose(a), b), ref, 1e-4f, 1e-5f));
}

}  // namespace
}  // namespace gbo
