#include "nn/conv2d.hpp"

#include "nn/init.hpp"
#include "tensor/gemm.hpp"
#include "tensor/ops.hpp"

#include <string>
#include <utility>
#include <vector>

namespace gbo::nn {
namespace {

/// [N*oh*ow, out_c] (GEMM result) -> [N, out_c, oh, ow]
Tensor rows_to_nchw(const Tensor& rows, std::size_t batch, std::size_t out_c,
                    std::size_t oh, std::size_t ow) {
  Tensor out({batch, out_c, oh, ow});
  rows_to_nchw_into(rows.data(), batch, out_c, oh, ow, out.data());
  return out;
}

/// A-panel packer for conv infer: gathers the receptive-field patches for
/// output rows [i0, i1) and patch columns [pc, pc + kc) straight from the
/// NCHW input into gemm's packed MR-strip layout — exactly the values
/// im2col would have written to those cells, for any kernel size, stride
/// and padding, so the packed multiply is bitwise identical to forward's
/// im2col lowering.
struct DirectConvPacker {
  const float* src;  // NCHW input
  ConvGeom g;
  std::size_t oh, ow;

  void operator()(std::size_t i0, std::size_t i1, std::size_t pc,
                  std::size_t kc, float* dst) const {
    const std::size_t H = g.in_h, W = g.in_w;
    const std::size_t kk = g.k;
    const std::size_t ohw = oh * ow;
    const std::ptrdiff_t pad = static_cast<std::ptrdiff_t>(g.pad);
    for (std::size_t i = i0; i < i1; i += gemm::kMR) {
      const std::size_t mr = i + gemm::kMR < i1 ? gemm::kMR : i1 - i;
      float* strip = dst + ((i - i0) / gemm::kMR) * gemm::kMR * kc;
      for (std::size_t r = 0; r < mr; ++r) {
        const std::size_t row = i + r;
        const std::size_t img = row / ohw, rem = row % ohw;
        const std::ptrdiff_t iy0 =
            static_cast<std::ptrdiff_t>((rem / ow) * g.stride) - pad;
        const std::ptrdiff_t ix0 =
            static_cast<std::ptrdiff_t>((rem % ow) * g.stride) - pad;
        const float* base = src + img * g.in_c * H * W;
        // Walk patch columns [pc, pc+kc) with incremental (c, ky, kx)
        // counters instead of a div/mod per element.
        std::size_t c = pc / (kk * kk);
        std::size_t ky = (pc / kk) % kk;
        std::size_t kx = pc % kk;
        const float* plane = base + c * H * W;
        for (std::size_t p = 0; p < kc; ++p) {
          const std::ptrdiff_t iy = iy0 + static_cast<std::ptrdiff_t>(ky);
          const std::ptrdiff_t ix = ix0 + static_cast<std::ptrdiff_t>(kx);
          const bool in =
              iy >= 0 && ix >= 0 && iy < static_cast<std::ptrdiff_t>(H) &&
              ix < static_cast<std::ptrdiff_t>(W);
          strip[p * gemm::kMR + r] = in ? plane[iy * W + ix] : 0.0f;
          if (++kx == kk) {
            kx = 0;
            if (++ky == kk) {
              ky = 0;
              plane += H * W;
            }
          }
        }
      }
      for (std::size_t r = mr; r < gemm::kMR; ++r)
        for (std::size_t p = 0; p < kc; ++p)
          strip[p * gemm::kMR + r] = 0.0f;
    }
  }
};

/// [N, out_c, oh, ow] -> [N*oh*ow, out_c]
Tensor nchw_to_rows(const Tensor& x) {
  const std::size_t batch = x.dim(0), c = x.dim(1), h = x.dim(2), w = x.dim(3);
  Tensor rows({batch * h * w, c});
  const float* src = x.data();
  float* dst = rows.data();
  for (std::size_t n = 0; n < batch; ++n)
    for (std::size_t ch = 0; ch < c; ++ch)
      for (std::size_t y = 0; y < h; ++y)
        for (std::size_t xx = 0; xx < w; ++xx)
          dst[((n * h + y) * w + xx) * c + ch] =
              src[((n * c + ch) * h + y) * w + xx];
  return rows;
}

}  // namespace

Conv2d::Conv2d(std::size_t out_channels, ConvGeom geom, bool bias, Rng& rng)
    : out_c_(out_channels), geom_(geom), has_bias_(bias) {
  Tensor w({out_c_, geom_.patch_len()});
  xavier_uniform(w, geom_.patch_len(), out_c_, rng);
  weight_ = Param("weight", std::move(w));
  if (has_bias_) bias_ = Param("bias", Tensor({out_c_}));
}

const Tensor& Conv2d::effective_weight() { return weight_.value; }

const float* Conv2d::cached_panels() const {
  const std::size_t k = geom_.patch_len();
  return wpanels_.get(std::as_const(weight_.value).data(), k, out_c_, k,
                      weight_.value.version());
}

Tensor Conv2d::infer_with_weight(const Tensor& x, const float* w,
                                 bool with_bias, EvalContext* ctx,
                                 const float* panels) const {
  if (x.ndim() != 4 || x.dim(1) != geom_.in_c || x.dim(2) != geom_.in_h ||
      x.dim(3) != geom_.in_w)
    throw std::invalid_argument(
        "Conv2d: expected NCHW input [N, " + std::to_string(geom_.in_c) +
        ", " + std::to_string(geom_.in_h) + ", " +
        std::to_string(geom_.in_w) + "], got " + x.shape_str());
  const std::size_t batch = x.dim(0);
  const std::size_t oh = geom_.out_h(), ow = geom_.out_w();
  const std::size_t m = batch * oh * ow;
  const std::size_t k = geom_.patch_len();
  ScratchArena* arena = ctx ? ctx->arena : nullptr;
  ArenaFrame frame(arena);
  Tensor rows_own;  // fallback owner without an arena
  std::vector<float> pack_own;
  float* rows;
  if (arena) {
    rows = arena->alloc_floats(m * out_c_);
  } else {
    rows_own = Tensor({m, out_c_});
    rows = rows_own.data();
  }
  if (panels == nullptr)
    // Uncached caller (a subclass forward over a transient effective
    // weight): pack fresh, off the heap when an arena is attached.
    panels = gemm::pack_fresh_b_t(out_c_, k, w, k, arena, &pack_own);
  gemm::gemm_prepacked_b(m, out_c_, k,
                         DirectConvPacker{x.data(), geom_, oh, ow}, panels,
                         rows, out_c_, /*accumulate=*/false);
  if (with_bias) {
    const float* b = bias_.value.data();
    for (std::size_t r = 0; r < m; ++r)
      for (std::size_t c = 0; c < out_c_; ++c) rows[r * out_c_ + c] += b[c];
  }
  Tensor out = ctx ? ctx->make({batch, out_c_, oh, ow})
                   : Tensor({batch, out_c_, oh, ow});
  rows_to_nchw_into(rows, batch, out_c_, oh, ow, out.data());
  return out;
}

Tensor Conv2d::forward(const Tensor& x) {
  cached_batch_ = x.dim(0);
  cached_cols_ = im2col(x, geom_);
  cached_eff_weight_ = &effective_weight();
  const std::size_t m = cached_cols_.dim(0);
  const std::size_t k = geom_.patch_len();
  // The training path runs the same packed kernel as infer (so
  // infer == forward stays bitwise), reusing the cached panels whenever the
  // effective weight is weight_.value itself; a substituted effective
  // weight (fresh binarization per forward) packs fresh.
  std::vector<float> pack_own;
  const float* panels =
      cached_eff_weight_ == &weight_.value
          ? cached_panels()
          : gemm::pack_fresh_b_t(out_c_, k, cached_eff_weight_->data(), k,
                                 nullptr, &pack_own);
  Tensor rows({cached_cols_.dim(0), out_c_});
  gemm::gemm_prepacked(m, out_c_, k, cached_cols_.data(), k, panels,
                       rows.data(), out_c_);
  if (has_bias_) {
    float* p = rows.data();
    const float* b = bias_.value.data();
    for (std::size_t r = 0; r < rows.dim(0); ++r)
      for (std::size_t c = 0; c < out_c_; ++c) p[r * out_c_ + c] += b[c];
  }
  return rows_to_nchw(rows, cached_batch_, out_c_, geom_.out_h(), geom_.out_w());
}

Tensor Conv2d::infer(const Tensor& x, EvalContext& ctx) const {
  return infer_with_weight(x, std::as_const(weight_.value).data(), has_bias_,
                           &ctx, cached_panels());
}

Tensor Conv2d::backward(const Tensor& grad_out) {
  if (grad_out.ndim() != 4 || grad_out.dim(1) != out_c_)
    throw std::invalid_argument("Conv2d::backward: bad grad shape " +
                                grad_out.shape_str());
  Tensor grad_rows = nchw_to_rows(grad_out);  // [N*oh*ow, out_c]

  // dW = grad_rows^T @ cols -> [out_c, patch_len]; a frozen weight (GBO's
  // λ-only phase) skips the GEMM and the subclass hook entirely.
  if (weight_.requires_grad) {
    Tensor grad_w = ops::matmul_at(grad_rows, cached_cols_);
    on_weight_grad(grad_w);
    ops::add_inplace(weight_.grad, grad_w);
  }

  if (has_bias_ && bias_.requires_grad) {
    float* gb = bias_.grad.data();
    const float* g = grad_rows.data();
    for (std::size_t r = 0; r < grad_rows.dim(0); ++r)
      for (std::size_t c = 0; c < out_c_; ++c) gb[c] += g[r * out_c_ + c];
  }

  // dCols = grad_rows @ W -> [N*oh*ow, patch_len]; then scatter to input.
  Tensor grad_cols = ops::matmul(grad_rows, *cached_eff_weight_);
  return col2im(grad_cols, cached_batch_, geom_);
}

std::vector<Param*> Conv2d::params() {
  std::vector<Param*> out{&weight_};
  if (has_bias_) out.push_back(&bias_);
  return out;
}

}  // namespace gbo::nn
