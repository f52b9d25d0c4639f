// Bitwise contract of the bit-packed XNOR/popcount path (DESIGN.md §8):
// over ±1 weights and on-grid 9-level activations, gemm_binary must equal
// the float A·Bᵀ kernels bit for bit — every shape, every thread count,
// every registry micro-kernel.
#include "tensor/gemm_binary.hpp"

#include "common/rng.hpp"
#include "common/thread_pool.hpp"
#include "gemm_oracles.hpp"
#include "quant/binary_weight.hpp"
#include "quant/quant_layers.hpp"
#include "tensor/gemm.hpp"
#include "tensor/tensor.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

namespace gbo::gemm {
namespace {

/// Deterministic ±1 sign matrix (what quant::binarize produces).
std::vector<float> make_signs(std::size_t n, std::size_t k) {
  std::vector<float> b(n * k);
  for (std::size_t i = 0; i < b.size(); ++i)
    b[i] = ((i * 2654435761u) >> 7) & 1 ? 1.0f : -1.0f;
  return b;
}

/// Deterministic on-grid activations: levels 0..8 map to (2l - 8) / 8.
std::vector<float> make_grid(std::size_t m, std::size_t k) {
  std::vector<float> a(m * k);
  for (std::size_t i = 0; i < a.size(); ++i) {
    const int level = static_cast<int>((i * 40503u) >> 3) % 9;
    a[i] = static_cast<float>(level) * 0.25f - 1.0f;
  }
  return a;
}

/// Runs the packed path for one shape and checks it bitwise against three
/// independent float oracles (naive, row-stable, packed-panel).
void check_shape(std::size_t m, std::size_t n, std::size_t k) {
  SCOPED_TRACE(::testing::Message() << "m=" << m << " n=" << n << " k=" << k);
  const std::vector<float> A = make_grid(m, k);
  const std::vector<float> B = make_signs(n, k);

  PackedBinaryB pb = prepack_binary_b_t(n, k, B.data(), k);
  ASSERT_FALSE(pb.empty());
  std::vector<std::uint64_t> pa(packed_binary_a_words(m, k));
  ASSERT_TRUE(pack_binary_a(m, k, A.data(), k, pa.data()));
  std::vector<float> c_bin(m * n, -1.0f);
  gemm_binary(m, n, k, pa.data(), pb, c_bin.data(), n);

  std::vector<float> c_naive(m * n);
  naive_gemm_nt(m, n, k, A.data(), B.data(), c_naive.data());
  std::vector<float> c_row(m * n);
  gemm_nt_rowwise(m, n, k, A.data(), k, B.data(), k, c_row.data(), n);
  std::vector<float> fb(packed_b_floats(n, k));
  pack_b_t(n, k, B.data(), k, fb.data());
  std::vector<float> c_panel(m * n);
  gemm_prepacked(m, n, k, A.data(), k, fb.data(), c_panel.data(), n);

  for (std::size_t i = 0; i < m * n; ++i) {
    EXPECT_EQ(c_bin[i], c_naive[i]) << "i=" << i;
    EXPECT_EQ(c_bin[i], c_row[i]) << "i=" << i;
    EXPECT_EQ(c_bin[i], c_panel[i]) << "i=" << i;
  }
}

TEST(GemmBinary, BitwiseEqualToFloatOraclesAcrossShapes) {
  check_shape(1, 1, 1);      // minimal
  check_shape(1, 16, 64);    // one word exactly, unit batch (skinny tile)
  check_shape(3, 5, 65);     // one bit past a word boundary
  check_shape(2, 3, 1);      // k = 1: 63 padding bits per word
  check_shape(7, 33, 63);    // ragged everywhere
  check_shape(129, 33, 257); // tall + ragged, crosses every blocking edge
  check_shape(5, 16, 576);   // conv-like fan-in (64·3·3), multiple words
  check_shape(16, 512, 512); // n > kChunk (256 rows): the multi-chunk j0 loop
}

TEST(GemmBinary, BitwiseAcrossThreadCounts) {
  const std::size_t m = 67, n = 29, k = 193;
  const std::vector<float> A = make_grid(m, k);
  const std::vector<float> B = make_signs(n, k);
  PackedBinaryB pb = prepack_binary_b_t(n, k, B.data(), k);
  std::vector<std::uint64_t> pa(packed_binary_a_words(m, k));
  ASSERT_TRUE(pack_binary_a(m, k, A.data(), k, pa.data()));

  ThreadPool& pool = ThreadPool::instance();
  const std::size_t restore = pool.num_threads();
  pool.set_num_threads(1);
  std::vector<float> c1(m * n);
  gemm_binary(m, n, k, pa.data(), pb, c1.data(), n);
  pool.set_num_threads(4);
  std::vector<float> c4(m * n);
  gemm_binary(m, n, k, pa.data(), pb, c4.data(), n);
  pool.set_num_threads(restore);

  for (std::size_t i = 0; i < m * n; ++i) EXPECT_EQ(c1[i], c4[i]);
}

TEST(GemmBinary, EveryRegistryKernelMatchesScalar) {
  // The dispatch can never change an output bit: the best-ISA kernel the
  // CPUID probe selected must agree with the scalar reference exactly.
  // (The CI fallback leg runs the whole suite under
  // GBO_FORCE_SCALAR_KERNELS=1, which makes binary_kernel() itself scalar.)
  const std::size_t m = 13, n = 21, k = 517;  // kw = 9: exercises edge masks
  const std::vector<float> A = make_grid(m, k);
  const std::vector<float> B = make_signs(n, k);
  PackedBinaryB pb = prepack_binary_b_t(n, k, B.data(), k);
  std::vector<std::uint64_t> pa(packed_binary_a_words(m, k));
  ASSERT_TRUE(pack_binary_a(m, k, A.data(), k, pa.data()));

  std::vector<float> c_scalar(m * n), c_best(m * n);
  gemm_binary_with(binary_kernel_scalar(), m, n, k, pa.data(), pb,
                   c_scalar.data(), n);
  gemm_binary_with(binary_kernel(), m, n, k, pa.data(), pb, c_best.data(), n);
  for (std::size_t i = 0; i < m * n; ++i) EXPECT_EQ(c_scalar[i], c_best[i]);
  for (const BinaryKernel* kern : binary_kernels_supported()) {
    std::vector<float> c_k(m * n);
    gemm_binary_with(*kern, m, n, k, pa.data(), pb, c_k.data(), n);
    for (std::size_t i = 0; i < m * n; ++i)
      ASSERT_EQ(c_scalar[i], c_k[i]) << kern->name << " i=" << i;
  }
  EXPECT_EQ(binary_kernels_supported().front(), &binary_kernel_scalar());

  EXPECT_STREQ(binary_kernel_scalar().name, "scalar");
  EXPECT_NE(binary_kernel_name(), nullptr);
  EXPECT_FALSE(cpu_features().empty());
}

/// Random threshold-epilogue operands over c channels: rows of m values
/// drawn from a small set that includes ±0 and every threshold exactly
/// (ties), thresholds including ±0 and ±inf, and both flip directions.
struct EpilogueCase {
  std::vector<float> v, thr;
  std::vector<std::uint32_t> flip;
};

EpilogueCase make_epilogue_case(std::size_t m, std::size_t c,
                                std::uint64_t seed) {
  Rng rng(seed);
  const float inf = std::numeric_limits<float>::infinity();
  const float pool[] = {0.0f, -0.0f, 0.25f, -0.25f, 1.5f, -3.75f, inf, -inf};
  const auto pick = [&] {
    return pool[rng.uniform_int(0, static_cast<int>(std::size(pool)) - 1)];
  };
  const std::size_t stride = threshold_stride(c);
  EpilogueCase e;
  e.thr.assign(kBinaryPlanes * stride, inf);
  e.flip.assign(stride, 0);
  for (std::size_t j = 0; j < c; ++j) {
    e.flip[j] = rng.uniform_int(0, 1) ? 0x80000000u : 0u;
    for (std::size_t t = 0; t < kBinaryPlanes; ++t)
      e.thr[t * stride + j] = pick();
  }
  e.v.resize(m * c);
  for (std::size_t i = 0; i < m * c; ++i) {
    const std::size_t j = i % c;
    switch (rng.uniform_int(0, 2)) {
      case 0:  // a tie with one of this channel's thresholds, either sign
        e.v[i] = e.thr[static_cast<std::size_t>(rng.uniform_int(0, 7)) *
                           stride + j] *
                 (e.flip[j] ? -1.0f : 1.0f);
        break;
      case 1:
        e.v[i] = pick();
        break;
      default:
        e.v[i] = static_cast<float>(rng.uniform_int(-40, 40)) * 0.125f;
    }
  }
  return e;
}

TEST(GemmBinary, ThresholdEpilogueScalarMatchesDefinition) {
  const std::size_t m = 9;
  for (std::size_t c : {1u, 7u, 16u, 63u, 64u, 65u, 130u}) {
    SCOPED_TRACE(::testing::Message() << "c=" << c);
    const EpilogueCase e = make_epilogue_case(m, c, 100 + c);
    const std::size_t cw = binary_words(c), stride = threshold_stride(c);
    std::vector<std::uint64_t> planes(m * cw * kBinaryPlanes, ~0ull);
    binary_kernel_scalar().threshold_rows(e.v.data(), m, c, e.flip.data(),
                                          e.thr.data(), stride, planes.data());
    for (std::size_t i = 0; i < m; ++i)
      for (std::size_t w = 0; w < cw; ++w)
        for (std::size_t t = 0; t < kBinaryPlanes; ++t)
          for (std::size_t b = 0; b < 64; ++b) {
            const std::size_t j = w * 64 + b;
            bool want = false;
            if (j < c) {
              const float v = e.v[i * c + j];
              const float key = e.flip[j] ? -v : v;
              want = key >= e.thr[t * stride + j];
            }
            ASSERT_EQ((planes[(i * cw + w) * kBinaryPlanes + t] >> b) & 1u,
                      want ? 1u : 0u)
                << "i=" << i << " j=" << j << " t=" << t;
          }
  }
}

TEST(GemmBinary, ThresholdEpilogueEveryRegistryKernelMatchesScalar) {
  const std::size_t m = 37;
  for (std::size_t c : {1u, 7u, 16u, 63u, 64u, 65u, 130u}) {
    const EpilogueCase e = make_epilogue_case(m, c, 200 + c);
    const std::size_t words = m * binary_words(c) * kBinaryPlanes;
    std::vector<std::uint64_t> ref(words);
    const std::size_t stride = threshold_stride(c);
    binary_kernel_scalar().threshold_rows(e.v.data(), m, c, e.flip.data(),
                                          e.thr.data(), stride, ref.data());
    for (const BinaryKernel* kern : binary_kernels_supported()) {
      SCOPED_TRACE(::testing::Message() << "c=" << c << " " << kern->name);
      std::vector<std::uint64_t> got(words, 0x5555555555555555ull);
      kern->threshold_rows(e.v.data(), m, c, e.flip.data(), e.thr.data(),
                           stride, got.data());
      EXPECT_EQ(got, ref);
    }
  }
}

TEST(GemmBinary, FusedThresholdEqualsGemmThenEpilogue) {
  // The fused row loop hands threshold_rows one 256-channel chunk at a
  // time: multi-chunk widths and ragged tails must give the planes of the
  // unfused pair, for every registry kernel.
  for (const auto [m, n, k] : {std::array<std::size_t, 3>{5, 16, 144},
                               {7, 65, 30}, {3, 300, 77}, {4, 520, 9}}) {
    const std::vector<float> A = make_grid(m, k);
    const std::vector<float> B = make_signs(n, k);
    PackedBinaryB pb = prepack_binary_b_t(n, k, B.data(), k);
    std::vector<std::uint64_t> pa(packed_binary_a_words(m, k));
    ASSERT_TRUE(pack_binary_a(m, k, A.data(), k, pa.data()));
    std::vector<float> c(m * n);
    gemm_binary_with(binary_kernel_scalar(), m, n, k, pa.data(), pb, c.data(),
                     n);
    // Thresholds straddling the outputs: ties, flips and never/always cuts.
    const EpilogueCase e = make_epilogue_case(1, n, 300 + n);
    std::vector<float> thr = e.thr;
    for (std::size_t j = 0; j < n; ++j)
      thr[(j % kBinaryPlanes) * threshold_stride(n) + j] =
          c[(j % m) * n + j] * (e.flip[j] ? -1.0f : 1.0f);
    const std::size_t words = m * binary_words(n) * kBinaryPlanes;
    std::vector<std::uint64_t> ref(words);
    binary_kernel_scalar().threshold_rows(c.data(), m, n, e.flip.data(),
                                          thr.data(), threshold_stride(n),
                                          ref.data());
    for (const BinaryKernel* kern : binary_kernels_supported()) {
      SCOPED_TRACE(::testing::Message() << "m=" << m << " n=" << n << " k="
                                        << k << " " << kern->name);
      std::vector<std::uint64_t> got(words, ~0ull);
      const std::uint64_t mvms = binary_mvm_count();
      gemm_binary_threshold_with(*kern, m, n, k, pa.data(), pb, e.flip.data(),
                                 thr.data(), got.data());
      EXPECT_EQ(binary_mvm_count(), mvms + 1);
      EXPECT_EQ(got, ref);
    }
  }
}

TEST(GemmBinary, OrPoolAndDecodeMatchFloatMaxPool) {
  // Planes of an on-grid NCHW activation, OR-pooled and decoded, equal the
  // float max-pool of the activation bit for bit; decode alone inverts
  // the pack.
  for (std::size_t c : {3u, 64u, 70u}) {
    SCOPED_TRACE(::testing::Message() << "c=" << c);
    const std::size_t batch = 2, h = 6, w = 4, window = 2;
    const std::vector<float> x = make_grid(batch * c, h * w);
    std::vector<std::uint64_t> pix(packed_binary_pixel_words(batch * h * w, c));
    ASSERT_TRUE(pack_binary_pixels(x.data(), batch, c, h * w, pix.data()));
    std::vector<float> back(x.size());
    decode_planes(pix.data(), batch, c, h * w, back.data());
    for (std::size_t i = 0; i < x.size(); ++i)
      ASSERT_EQ(std::bit_cast<std::uint32_t>(back[i]),
                std::bit_cast<std::uint32_t>(x[i]));

    const std::size_t oh = h / window, ow = w / window;
    std::vector<std::uint64_t> pooled(
        packed_binary_pixel_words(batch * oh * ow, c));
    or_pool_planes(pix.data(), batch, h, w, c, window, pooled.data());
    std::vector<float> got(batch * c * oh * ow);
    decode_planes(pooled.data(), batch, c, oh * ow, got.data());
    for (std::size_t n = 0; n < batch; ++n)
      for (std::size_t ch = 0; ch < c; ++ch)
        for (std::size_t oy = 0; oy < oh; ++oy)
          for (std::size_t ox = 0; ox < ow; ++ox) {
            float best = -std::numeric_limits<float>::infinity();
            for (std::size_t dy = 0; dy < window; ++dy)
              for (std::size_t dx = 0; dx < window; ++dx)
                best = std::max(best, x[((n * c + ch) * h + oy * window + dy) *
                                            w + ox * window + dx]);
            ASSERT_EQ(got[((n * c + ch) * oh + oy) * ow + ox], best);
          }
  }
}

TEST(GemmBinary, OffGridInputAbortsPack) {
  std::vector<float> a = {0.25f, -0.5f, 0.3f, 1.0f};  // 0.3 is off-grid
  std::vector<std::uint64_t> dst(packed_binary_a_words(1, 4));
  EXPECT_FALSE(pack_binary_a(1, 4, a.data(), 4, dst.data()));
  a[2] = 0.75f;
  EXPECT_TRUE(pack_binary_a(1, 4, a.data(), 4, dst.data()));
}

TEST(GemmBinary, PixelPlanesArePackedChannelRows) {
  // pack_binary_pixels over NCHW == pack_binary_a over the [pixel, channel]
  // matrix, word for word — for channel counts inside one word, exactly
  // one word, and across words, with a ragged pixel block.
  for (std::size_t c : {3u, 64u, 70u}) {
    SCOPED_TRACE(::testing::Message() << "c=" << c);
    const std::size_t batch = 2, hw = 67;
    const std::vector<float> x = make_grid(batch * c, hw);  // NCHW
    std::vector<float> rows(batch * hw * c);                // [N·HW, C]
    for (std::size_t n = 0; n < batch; ++n)
      for (std::size_t ch = 0; ch < c; ++ch)
        for (std::size_t p = 0; p < hw; ++p)
          rows[(n * hw + p) * c + ch] = x[(n * c + ch) * hw + p];
    std::vector<std::uint64_t> pix(packed_binary_pixel_words(batch * hw, c));
    std::vector<std::uint64_t> ref(packed_binary_a_words(batch * hw, c));
    ASSERT_TRUE(pack_binary_pixels(x.data(), batch, c, hw, pix.data()));
    ASSERT_TRUE(pack_binary_a(batch * hw, c, rows.data(), c, ref.data()));
    EXPECT_EQ(pix, ref);
    std::vector<float> bad = x;
    bad[bad.size() - 1] = 0.3f;
    EXPECT_FALSE(pack_binary_pixels(bad.data(), batch, c, hw, pix.data()));
  }
}

TEST(GemmBinary, GridCheckAcceptsExactlyTheNineLevels) {
  for (int l = 0; l <= 8; ++l) {
    const float v = static_cast<float>(l) * 0.25f - 1.0f;
    EXPECT_TRUE(binary_grid_check(&v, 1)) << v;
  }
  const float bad[] = {1.25f, -1.25f, 0.1f, 1e-8f,
                       std::numeric_limits<float>::quiet_NaN()};
  for (float v : bad) EXPECT_FALSE(binary_grid_check(&v, 1)) << v;
}

TEST(GemmBinary, ZeroDotProducesPositiveZero) {
  // The float path's accumulators start at +0.0 and never produce -0.0 for
  // on-grid operands; the recombination (8k - 2P)·0.125 must match, or the
  // "bitwise" contract silently breaks on exact cancellation.
  const std::vector<float> A = {1.0f, -1.0f};  // levels 8 and 0
  const std::vector<float> B = {1.0f, 1.0f};
  PackedBinaryB pb = prepack_binary_b_t(1, 2, B.data(), 2);
  std::vector<std::uint64_t> pa(packed_binary_a_words(1, 2));
  ASSERT_TRUE(pack_binary_a(1, 2, A.data(), 2, pa.data()));
  float c = -7.0f;
  gemm_binary(1, 1, 2, pa.data(), pb, &c, 1);
  EXPECT_EQ(c, 0.0f);
  EXPECT_FALSE(std::signbit(c));
}

TEST(GemmBinary, DegenerateShapesYieldEmptyHandle) {
  const float one = 1.0f;
  EXPECT_TRUE(prepack_binary_b_t(0, 4, &one, 4).empty());
  EXPECT_TRUE(prepack_binary_b_t(4, 0, &one, 0).empty());
}

TEST(GemmBinary, PrepackCountsOnePackPerCall) {
  const std::vector<float> B = make_signs(3, 40);
  const std::uint64_t before = binary_pack_count();
  PackedBinaryB pb = prepack_binary_b_t(3, 40, B.data(), 40);
  EXPECT_EQ(binary_pack_count(), before + 1);
  EXPECT_EQ(pb.n, 3u);
  EXPECT_EQ(pb.kw, 1u);
}

TEST(BinaryPanelCache, RepacksExactlyOncePerWeightVersion) {
  Tensor latent({4, 24});
  for (std::size_t i = 0; i < latent.numel(); ++i)
    latent[i] = (i % 3 == 0) ? -0.4f : 0.7f;

  quant::BinaryPanelCache cache;
  const float* bw;
  const float* panels;
  const PackedBinaryB* pb;
  float scale;
  const std::uint64_t packs0 = binary_pack_count();
  cache.get(latent, /*scaled=*/true, 4, 24, /*want_panels=*/false, &bw,
            &panels, &pb, &scale);
  EXPECT_EQ(cache.rebuilds(), 1u);
  cache.get(latent, true, 4, 24, false, &bw, &panels, &pb, &scale);
  cache.get(latent, true, 4, 24, false, &bw, &panels, &pb, &scale);
  EXPECT_EQ(cache.rebuilds(), 1u);  // steady state: zero re-packs
  EXPECT_EQ(binary_pack_count(), packs0 + 1);

  latent[0] = 0.9f;  // non-const access bumps the version
  cache.get(latent, true, 4, 24, false, &bw, &panels, &pb, &scale);
  EXPECT_EQ(cache.rebuilds(), 2u);
  EXPECT_EQ(binary_pack_count(), packs0 + 2);
  EXPECT_FLOAT_EQ(scale, quant::binarize_scale(latent));
}

TEST(BinaryPanelCache, CopiesStartCold) {
  // Regression for the copy ctor/assignment: a copied cache must NOT adopt
  // the source's version stamp or buffers (it may belong to a layer whose
  // weights diverge), so it re-binarizes and re-packs on first use.
  Tensor latent({2, 8});
  for (std::size_t i = 0; i < latent.numel(); ++i)
    latent[i] = (i & 1) ? 0.5f : -0.25f;
  quant::BinaryPanelCache cache;
  const float* bw;
  const float* panels;
  const PackedBinaryB* pb;
  float scale;
  cache.get(latent, true, 2, 8, false, &bw, &panels, &pb, &scale);
  ASSERT_EQ(cache.rebuilds(), 1u);

  quant::BinaryPanelCache copied(cache);
  EXPECT_EQ(copied.rebuilds(), 0u);  // cold: nothing adopted
  copied.get(latent, true, 2, 8, false, &bw, &panels, &pb, &scale);
  EXPECT_EQ(copied.rebuilds(), 1u);  // refilled fresh, and usable
  EXPECT_EQ(pb->n, 2u);

  quant::BinaryPanelCache assigned;
  assigned.get(latent, true, 2, 8, false, &bw, &panels, &pb, &scale);
  ASSERT_EQ(assigned.rebuilds(), 1u);
  assigned = cache;
  EXPECT_EQ(assigned.rebuilds(), 1u);  // assignment adopts nothing either
}

}  // namespace
}  // namespace gbo::gemm
