#include "quant/level_chain.hpp"

#include "common/thread_pool.hpp"

#include <algorithm>
#include <atomic>
#include <bit>
#include <limits>
#include <utility>

namespace gbo::quant {
namespace {

std::atomic<std::uint64_t> g_chains{0};

/// Grid indices of n QuantTanh(9) outputs into lv; false when any q is
/// not bitwise a grid value l·0.25f − 1.0f (NaN included). Branch-free, so
/// the loop vectorizes.
bool grid_levels(const float* q, std::size_t n, std::uint8_t* lv) {
  unsigned bad = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const float f = (q[i] + 1.0f) * 4.0f;
    const float fc = f >= 0.0f ? (f <= 8.0f ? f : 8.0f) : 0.0f;  // NaN: 0
    const int l = static_cast<int>(fc);
    bad |= std::bit_cast<std::uint32_t>(static_cast<float>(l) * 0.25f - 1.0f) !=
                   std::bit_cast<std::uint32_t>(q[i])
               ? 1u
               : 0u;
    lv[i] = static_cast<std::uint8_t>(l);
  }
  return bad == 0;
}

/// u_s = (2s − 8k)·0.125f, s = 0..8k: gemm_binary's unscaled output for
/// popcount P = 8k − s, in ascending order.
float xnor_value(std::size_t s, std::size_t k) {
  return static_cast<float>(static_cast<std::int64_t>(2 * s) -
                            static_cast<std::int64_t>(8 * k)) *
         0.125f;
}

}  // namespace

LevelThresholds build_level_thresholds(std::size_t k, bool scaled, float scale,
                                       const nn::BatchNorm2d& bn,
                                       const QuantTanh& act) {
  LevelThresholds table;
  if (act.levels() != gemm::kBinaryPlanes + 1 || k == 0) return table;
  const std::size_t c = bn.num_features();
  const std::size_t s_count = 8 * k + 1;
  // Levels of every (channel, value) pair through the layers' own infer,
  // in chunks of values, at most four tasks; an arena per task recycles
  // the chunk tensors.
  std::vector<std::uint8_t> level(c * s_count);
  constexpr std::size_t kChunk = 512;
  const std::size_t chunks = (s_count + kChunk - 1) / kChunk;
  std::atomic<bool> ok{true};
  parallel_for(0, chunks, (chunks + 3) / 4,
               [&](std::size_t lo, std::size_t hi) {
    ScratchArena arena;
    nn::EvalContext ctx(Rng(0), &arena);
    for (std::size_t b = lo; b < hi; ++b) {
      const std::size_t s0 = b * kChunk;
      const std::size_t ns = std::min(kChunk, s_count - s0);
      Tensor y = ctx.make({1, c, ns, 1});
      float* py = y.data();
      for (std::size_t s = 0; s < ns; ++s) {
        const float u = xnor_value(s0 + s, k);
        py[s] = scaled ? u * scale : u;  // the scale epilogue
      }
      for (std::size_t ch = 1; ch < c; ++ch)
        std::copy(py, py + ns, py + ch * ns);
      Tensor z = bn.infer(y, ctx);
      Tensor q = act.infer(z, ctx);
      const float* pq = std::as_const(q).data();
      for (std::size_t ch = 0; ch < c; ++ch)
        if (!grid_levels(pq + ch * ns, ns, &level[ch * s_count + s0]))
          ok.store(false, std::memory_order_relaxed);
      ctx.recycle(std::move(y));
      ctx.recycle(std::move(z));
      ctx.recycle(std::move(q));
    }
  });
  if (!ok.load(std::memory_order_relaxed)) return table;

  const std::size_t stride = gemm::threshold_stride(c);
  table.flip.assign(stride, 0);
  table.thr.assign(gemm::kBinaryPlanes * stride,
                   std::numeric_limits<float>::infinity());
  for (std::size_t ch = 0; ch < c; ++ch) {
    const std::uint8_t* lv = level.data() + ch * s_count;
    unsigned up = 1, down = 1;
    for (std::size_t s = 1; s < s_count; ++s) {
      up &= lv[s] >= lv[s - 1] ? 1u : 0u;
      down &= lv[s] <= lv[s - 1] ? 1u : 0u;
    }
    if (!up && !down) return LevelThresholds{};
    const bool rising = up != 0;
    // Plane t is set iff level > t. Rising: that holds from the least such
    // u upward. Falling: up to the greatest such u, i.e. −u >= −u_s. One
    // walk in key order meets the planes' cut points in plane order.
    if (!rising) table.flip[ch] = 0x80000000u;
    std::size_t t = 0;
    for (std::size_t i = 0; i < s_count && t < gemm::kBinaryPlanes; ++i) {
      const std::size_t s = rising ? i : s_count - 1 - i;
      for (; t < gemm::kBinaryPlanes && lv[s] > t; ++t)
        table.thr[t * stride + ch] =
            rising ? xnor_value(s, k) : -xnor_value(s, k);
    }
  }
  table.valid = true;
  return table;
}

const LevelThresholds* ThresholdCache::get(const Tensor& latent,
                                           std::size_t k, bool scaled,
                                           float scale,
                                           const nn::BatchNorm2d& bn,
                                           const QuantTanh& act) const {
  const std::uint64_t stamp =
      latent.version() + bn.gamma().value.version() +
      bn.beta().value.version() + bn.running_mean().version() +
      bn.running_var().version();
  gate_.ensure(stamp, [&] {
    table_ = build_level_thresholds(k, scaled, scale, bn, act);
  });
  return table_.valid ? &table_ : nullptr;
}

bool run_level_chain(std::span<const ChainMember> members, const Tensor& x,
                     nn::EvalContext& ctx, Tensor& out) {
  const ConvGeom& g0 = *members.front().geom;
  if (x.ndim() != 4 || x.dim(0) == 0 || x.dim(1) != g0.in_c ||
      x.dim(2) != g0.in_h || x.dim(3) != g0.in_w)
    return false;
  const std::size_t batch = x.dim(0);
  // Scratch for the largest member: two pixel-plane buffers (a member reads
  // one and writes the other; a pool ORs back into the one it read) and
  // the packed patch rows.
  std::size_t plane_words =
      gemm::packed_binary_pixel_words(batch * g0.in_h * g0.in_w, g0.in_c);
  std::size_t pa_words = 0;
  for (const ChainMember& mb : members) {
    const std::size_t m = batch * mb.geom->out_h() * mb.geom->out_w();
    plane_words =
        std::max(plane_words, gemm::packed_binary_pixel_words(m, mb.out_c));
    pa_words = std::max(pa_words,
                        gemm::packed_binary_a_words(m, mb.geom->patch_len()));
  }
  ArenaFrame frame(ctx.arena);
  std::vector<std::uint64_t> in_own, other_own, pa_own;
  std::uint64_t* in = nn::scratch(ctx, plane_words, in_own);
  if (!gemm::pack_binary_pixels(x.data(), batch, g0.in_c, g0.in_h * g0.in_w,
                                in))
    return false;
  std::uint64_t* other = nn::scratch(ctx, plane_words, other_own);
  std::uint64_t* pa = nn::scratch(ctx, pa_words, pa_own);
  std::size_t h = g0.in_h, w = g0.in_w;
  for (const ChainMember& mb : members) {
    const ConvGeom& g = *mb.geom;
    const std::size_t oh = g.out_h(), ow = g.out_w();
    const std::size_t m = batch * oh * ow;
    im2col_binary(in, batch, g, pa);
    gemm::gemm_binary_threshold(m, mb.out_c, g.patch_len(), pa, *mb.bwords,
                                mb.thresholds->flip.data(),
                                mb.thresholds->thr.data(), other);
    if (mb.window > 1)
      gemm::or_pool_planes(other, batch, oh, ow, mb.out_c, mb.window, in);
    else
      std::swap(in, other);
    h = oh / mb.window;
    w = ow / mb.window;
  }
  const std::size_t c = members.back().out_c;
  out = ctx.make({batch, c, h, w});
  gemm::decode_planes(in, batch, c, h * w, out.data());
  g_chains.fetch_add(1, std::memory_order_relaxed);
  return true;
}

std::uint64_t level_chain_count() {
  return g_chains.load(std::memory_order_relaxed);
}

}  // namespace gbo::quant
