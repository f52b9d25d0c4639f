// The blocked/threaded GEMM layer (tensor/gemm.hpp) against the retained
// naive reference kernels: agreement across odd, rectangular, and edge
// shapes (k = 0, 1×N, N×1, exact-tile, cross-tile), accumulate semantics,
// and bitwise reproducibility across thread counts.
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

// Shapes chosen to hit every dispatch path: the small-problem cutoff, lone
// rows/columns, exact MR×NR multiples, ragged tile edges, and blocks that
// span multiple KC/NC panels.
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
    {16, 200, 400},  // small-m direct A·Bᵀ path (below the transpose cutoff)
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
  const std::size_t m = 150, n = 130, k = 270;  // spans several MC/KC/NC blocks
  const Tensor a = random_tensor({m, k}, 81);
  const Tensor b = random_tensor({k, n}, 82);
  const Tensor bt = ops::transpose(b);  // [n, k]

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
    const Tensor at = ops::transpose(a);  // [k, m]
    Tensor c_tn({m, n});
    gemm::gemm_tn_acc(m, n, k, at.data(), m, b.data(), n, c_tn.data(), n);
    tn_results.push_back(std::move(c_tn));
  }
  pool.set_num_threads(restore);

  EXPECT_EQ(0, std::memcmp(nn_results[0].data(), nn_results[1].data(),
                           m * n * sizeof(float)));
  EXPECT_EQ(0, std::memcmp(nt_results[0].data(), nt_results[1].data(),
                           m * n * sizeof(float)));
  EXPECT_EQ(0, std::memcmp(tn_results[0].data(), tn_results[1].data(),
                           m * n * sizeof(float)));
}

// Ragged shapes chosen so the packed path has to mask edges everywhere:
// non-multiples of MR/NR/KC, tall/skinny and short/wide extremes, and the
// degenerate k = 1 (a single outer product, every strip one float deep).
const std::vector<Shape> kRaggedShapes = {
    {7, 5, 3},      {13, 33, 17},  {65, 67, 63},   {90, 110, 70},
    {130, 150, 300}, {300, 3, 5},  {1000, 17, 29}, {5, 900, 333},
    {257, 31, 1},   {6, 16, 8},    {64, 64, 64},   {61, 257, 129},
};

TEST(Gemm, PackedMatchesUnpackedBitwiseOnRaggedShapes) {
  for (const Shape& s : kRaggedShapes) {
    const Tensor a = random_tensor({s.m, s.k}, 101 + s.m);
    const Tensor b = random_tensor({s.k, s.n}, 103 + s.n);
    Tensor c_packed({s.m, s.n}), c_unpacked({s.m, s.n});
    gemm::gemm_nn_packed(s.m, s.n, s.k, a.data(), s.k, b.data(), s.n,
                         c_packed.data(), s.n, /*accumulate=*/false);
    gemm::gemm_nn_unpacked(s.m, s.n, s.k, a.data(), s.k, b.data(), s.n,
                           c_unpacked.data(), s.n, /*accumulate=*/false);
    EXPECT_EQ(0, std::memcmp(c_packed.data(), c_unpacked.data(),
                             s.m * s.n * sizeof(float)))
        << "packed/unpacked bitwise mismatch at m=" << s.m << " n=" << s.n
        << " k=" << s.k;
  }
}

TEST(Gemm, PackedAccumulateMatchesUnpackedBitwise) {
  const std::size_t m = 65, n = 67, k = 63;
  const Tensor a = random_tensor({m, k}, 111);
  const Tensor b = random_tensor({k, n}, 112);
  Tensor c_packed({m, n}, 0.75f), c_unpacked({m, n}, 0.75f);
  gemm::gemm_nn_packed(m, n, k, a.data(), k, b.data(), n, c_packed.data(), n,
                       /*accumulate=*/true);
  gemm::gemm_nn_unpacked(m, n, k, a.data(), k, b.data(), n, c_unpacked.data(),
                         n, /*accumulate=*/true);
  EXPECT_EQ(0, std::memcmp(c_packed.data(), c_unpacked.data(),
                           m * n * sizeof(float)));
}

TEST(Gemm, PackedExternalScratchMatchesOwnAllocation) {
  const std::size_t m = 130, n = 150, k = 300;
  const Tensor a = random_tensor({m, k}, 121);
  const Tensor b = random_tensor({k, n}, 122);
  Tensor c_own({m, n}), c_scratch({m, n});
  gemm::gemm_nn_packed(m, n, k, a.data(), k, b.data(), n, c_own.data(), n,
                       false, nullptr);
  // Deliberately unaligned caller buffer: the packed kernels use unaligned
  // loads, so external scratch only needs the documented float count.
  std::vector<float> scratch(gemm::packed_b_floats(n, k) + 1);
  gemm::gemm_nn_packed(m, n, k, a.data(), k, b.data(), n, c_scratch.data(), n,
                       false, scratch.data() + 1);
  EXPECT_EQ(0,
            std::memcmp(c_own.data(), c_scratch.data(), m * n * sizeof(float)));
}

TEST(Gemm, PackedNtMatchesPackedNnBitwise) {
  // gemm_nt's packed path packs B straight from transposed storage; it must
  // agree bitwise with gemm_nn over the materialized transpose.
  const std::size_t m = 150, n = 130, k = 270;
  const Tensor a = random_tensor({m, k}, 131);
  const Tensor bt = random_tensor({n, k}, 132);  // B stored [n, k]
  ASSERT_TRUE(gemm::gemm_nt_packs_b(m, n, k));
  Tensor c_nt({m, n}), c_nn({m, n});
  gemm::gemm_nt(m, n, k, a.data(), k, bt.data(), k, c_nt.data(), n);
  const Tensor b = ops::transpose(bt);  // [k, n]
  gemm::gemm_nn_packed(m, n, k, a.data(), k, b.data(), n, c_nn.data(), n,
                       false);
  EXPECT_EQ(0, std::memcmp(c_nt.data(), c_nn.data(), m * n * sizeof(float)));
}

TEST(Gemm, PackedBitwiseReproducibleAcrossThreadCounts) {
  const std::size_t m = 131, n = 149, k = 263;  // ragged in every dimension
  const Tensor a = random_tensor({m, k}, 141);
  const Tensor b = random_tensor({k, n}, 142);
  ThreadPool& pool = ThreadPool::instance();
  const std::size_t restore = pool.num_threads();
  std::vector<Tensor> results;
  for (std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
    pool.set_num_threads(threads);
    Tensor c({m, n});
    gemm::gemm_nn_packed(m, n, k, a.data(), k, b.data(), n, c.data(), n,
                         false);
    results.push_back(std::move(c));
  }
  pool.set_num_threads(restore);
  EXPECT_EQ(0, std::memcmp(results[0].data(), results[1].data(),
                           m * n * sizeof(float)));
}

TEST(Gemm, NtScratchFloatsCoversPackedPathOnly) {
  // Small problems and small-m direct dots need no scratch; the packed
  // path reports the packed-B footprint (n rounded up to whole strips).
  EXPECT_EQ(0u, gemm::gemm_nt_scratch_floats(2, 3, 4));
  EXPECT_EQ(0u, gemm::gemm_nt_scratch_floats(16, 200, 400));  // nt_direct
  const std::size_t m = 150, n = 130, k = 270;
  ASSERT_TRUE(gemm::gemm_nt_packs_b(m, n, k));
  EXPECT_EQ(gemm::packed_b_floats(n, k), gemm::gemm_nt_scratch_floats(m, n, k));
  EXPECT_GE(gemm::packed_b_floats(n, k), n * k);
}

TEST(Gemm, PrepackedMatchesFreshPackBitwise) {
  // The cross-request panel cache contract (DESIGN.md §6): running the
  // packed kernel over a reusable PackedB must equal the fresh-pack paths
  // bitwise on every shape, ragged edges included.
  for (const Shape& s : kRaggedShapes) {
    const Tensor a = random_tensor({s.m, s.k}, 151 + s.m);
    const Tensor b = random_tensor({s.k, s.n}, 153 + s.n);
    Tensor c_fresh({s.m, s.n}), c_pre({s.m, s.n});
    gemm::gemm_nn_packed(s.m, s.n, s.k, a.data(), s.k, b.data(), s.n,
                         c_fresh.data(), s.n, /*accumulate=*/false);
    const gemm::PackedB pb = gemm::prepack_b(s.k, s.n, b.data(), s.n);
    gemm::gemm_prepacked(s.m, s.n, s.k, a.data(), s.k, pb.panels.data(),
                         c_pre.data(), s.n);
    EXPECT_EQ(0, std::memcmp(c_fresh.data(), c_pre.data(),
                             s.m * s.n * sizeof(float)))
        << "prepacked nn mismatch at m=" << s.m << " n=" << s.n
        << " k=" << s.k;

    // Transposed-weight orientation against gemm_nt's packing path.
    const Tensor bt = random_tensor({s.n, s.k}, 155 + s.n);
    if (gemm::gemm_nt_packs_b(s.m, s.n, s.k)) {
      Tensor c_nt({s.m, s.n}), c_pre_t({s.m, s.n});
      gemm::gemm_nt(s.m, s.n, s.k, a.data(), s.k, bt.data(), s.k,
                    c_nt.data(), s.n);
      const gemm::PackedB pbt = gemm::prepack_b_t(s.n, s.k, bt.data(), s.k);
      gemm::gemm_prepacked(s.m, s.n, s.k, a.data(), s.k, pbt.panels.data(),
                           c_pre_t.data(), s.n);
      EXPECT_EQ(0, std::memcmp(c_nt.data(), c_pre_t.data(),
                               s.m * s.n * sizeof(float)))
          << "prepacked nt mismatch at m=" << s.m << " n=" << s.n
          << " k=" << s.k;
    }
  }
}

TEST(Gemm, PrepackedBitwiseReproducibleAcrossThreadCounts) {
  const std::size_t m = 131, n = 149, k = 263;  // ragged in every dimension
  const Tensor a = random_tensor({m, k}, 161);
  const Tensor bt = random_tensor({n, k}, 162);
  const gemm::PackedB pb = gemm::prepack_b_t(n, k, bt.data(), k);
  ThreadPool& pool = ThreadPool::instance();
  const std::size_t restore = pool.num_threads();
  std::vector<Tensor> results;
  for (std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
    pool.set_num_threads(threads);
    Tensor c({m, n});
    gemm::gemm_prepacked(m, n, k, a.data(), k, pb.panels.data(), c.data(), n);
    results.push_back(std::move(c));
  }
  pool.set_num_threads(restore);
  EXPECT_EQ(0, std::memcmp(results[0].data(), results[1].data(),
                           m * n * sizeof(float)));
}

TEST(Gemm, PrepackGuardsDegenerateShapes) {
  // k == 0 (and n == 0) must yield an empty handle, and the kernel must
  // treat it as a zero contribution instead of reading the missing panels.
  const gemm::PackedB kzero = gemm::prepack_b(0, 5, nullptr, 5);
  EXPECT_TRUE(kzero.empty());
  const gemm::PackedB nzero = gemm::prepack_b_t(0, 5, nullptr, 5);
  EXPECT_TRUE(nzero.empty());
  Tensor c({3, 5}, 0.5f);
  gemm::gemm_prepacked(3, 5, 0, nullptr, 0, kzero.panels.data(), c.data(), 5);
  for (std::size_t i = 0; i < c.numel(); ++i) EXPECT_EQ(c[i], 0.0f);
  Tensor acc({3, 5}, 0.5f);
  gemm::gemm_prepacked(3, 5, 0, nullptr, 0, kzero.panels.data(), acc.data(),
                       5, /*accumulate=*/true);
  for (std::size_t i = 0; i < acc.numel(); ++i) EXPECT_EQ(acc[i], 0.5f);
}

TEST(Gemm, PackedWeightCacheRepacksOncePerVersion) {
  const std::size_t n = 40, k = 30;
  Tensor w = random_tensor({n, k}, 171);
  gemm::PackedWeightCache cache;
  const std::uint64_t v0 = w.version();
  const float* p0 = cache.get(std::as_const(w).data(), k, n, k,
                              /*transposed=*/true, v0);
  const float* p1 = cache.get(std::as_const(w).data(), k, n, k, true, v0);
  EXPECT_EQ(p0, p1);
  EXPECT_EQ(cache.packs(), 1u);
  // Cached panels equal a fresh pack bitwise.
  const gemm::PackedB fresh = gemm::prepack_b_t(n, k, std::as_const(w).data(), k);
  EXPECT_EQ(0, std::memcmp(p0, fresh.panels.data(),
                           fresh.panels.size() * sizeof(float)));
  // Mutation through any non-const accessor bumps the version => repack.
  w.data()[0] += 2.0f;
  EXPECT_NE(w.version(), v0);
  (void)cache.get(std::as_const(w).data(), k, n, k, true, w.version());
  EXPECT_EQ(cache.packs(), 2u);
  // Unchanged version afterwards: still no further packs.
  (void)cache.get(std::as_const(w).data(), k, n, k, true, w.version());
  EXPECT_EQ(cache.packs(), 2u);
}

TEST(Gemm, NtRowwiseIsRowStableAcrossBatchSizes) {
  // The layers' non-panel route: row i of any batch must be bitwise equal
  // to computing row i alone — the property that lets stochastic serving
  // fuse micro-batches (DESIGN.md §6). gemm_nt itself has m-dependent
  // dispatch, so this is gated on the rowwise entry point specifically.
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
