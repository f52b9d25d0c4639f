#include "quant/quant_layers.hpp"

#include "nn/pooling.hpp"
#include "quant/binary_weight.hpp"
#include "tensor/gemm.hpp"
#include "tensor/gemm_binary.hpp"

#include <algorithm>
#include <array>
#include <cassert>
#include <stdexcept>
#include <vector>

namespace gbo::quant {
namespace {

using gbo::nn::scratch;

/// The digital-scale epilogue (DESIGN.md §8): one elementwise multiply after
/// the unscaled ±1 MVM. Shared verbatim by forward and infer — the multiply
/// is per-element, so the two paths (and the binary/float MVM routes
/// beneath them) stay bitwise equal.
void scale_output(Tensor& out, bool scaled, float scale) {
  if (!scaled) return;
  float* p = out.data();
  for (std::size_t i = 0; i < out.numel(); ++i) p[i] *= scale;
}

}  // namespace

void MvmNoiseHook::infer_output(Tensor& /*out*/, Rng& /*rng*/,
                                std::span<const std::uint64_t> /*row_ids*/) const {
  throw std::logic_error(
      "MvmNoiseHook: this hook does not support stateless inference");
}

void BinaryPanelCache::get(const Tensor& latent, bool scaled, std::size_t n,
                           std::size_t k, bool want_panels, const float** bw,
                           const float** panels,
                           const gbo::gemm::PackedBinaryB** bwords,
                           float* scale, const ConvGeom* tap_major) const {
  gate_.ensure(latent.version(), [&] {
    bw_.resize(latent.numel());
    // Unscaled ±1 signs: the MVM runs over these (float panels and binary
    // words alike) and the digital scale is applied as an epilogue, so the
    // XNOR/popcount route stays bitwise equal to the float route.
    binarize_into(latent, /*scaled=*/false, bw_.data());
    scale_ = scaled ? binarize_scale(latent) : 1.0f;
    if (want_panels) {
      panels_.resize(gemm::packed_b_floats(n, k));
      gemm::pack_b_t(n, k, bw_.data(), k, panels_.data());
    }
    if (tap_major) {
      std::vector<float> tm(bw_.size());
      to_tap_major(bw_.data(), n, *tap_major, tm.data());
      bwords_ = gemm::prepack_binary_b_t(n, k, tm.data(), k);
    } else {
      bwords_ = gemm::prepack_binary_b_t(n, k, bw_.data(), k);
    }
    rebuilds_.fetch_add(1, std::memory_order_relaxed);
  });
  *bw = bw_.data();
  *panels = want_panels ? panels_.data() : nullptr;
  *bwords = &bwords_;
  *scale = scale_;
}

QuantConv2d::QuantConv2d(std::size_t out_channels, gbo::ConvGeom geom, Rng& rng,
                         bool scaled)
    : Conv2d(out_channels, geom, /*bias=*/false, rng), scaled_(scaled) {}

const Tensor& QuantConv2d::effective_weight() {
  weight_scale_ = scaled_ ? binarize_scale(weight_.value) : 1.0f;
  binary_weight_ = binarize(weight_.value, /*scaled=*/false);
  return binary_weight_;
}

void QuantConv2d::on_weight_grad(Tensor& grad_w) {
  ste_clip_grad(weight_.value, grad_w);
}

Tensor QuantConv2d::forward(const Tensor& x) {
  Tensor out;
  if (hook_) {
    Tensor xin = x;
    hook_->on_input(xin);
    out = Conv2d::forward(xin);
    scale_output(out, scaled_, weight_scale_);
    hook_->on_forward(out);
  } else {
    out = Conv2d::forward(x);
    scale_output(out, scaled_, weight_scale_);
  }
  return out;
}

Tensor QuantConv2d::backward(const Tensor& grad_out) {
  if (hook_) hook_->on_backward(grad_out);
  // Base backward computes dW from the raw grad (the STE convention: the
  // latent weight's gradient is taken w.r.t. the stored ±1 matrix, exactly
  // as when the scale was folded into the effective weight) and dX over the
  // ±1 signs; the epilogue's scale factor then lands on dX.
  Tensor dx = Conv2d::backward(grad_out);
  scale_output(dx, scaled_, weight_scale_);
  return dx;
}

Tensor QuantConv2d::infer_mvm(const Tensor& x, gbo::nn::EvalContext& ctx,
                              const float* bw, const float* panels,
                              const gbo::gemm::PackedBinaryB& bwords) const {
  // Bit-plane route (DESIGN.md §8): every patch value is either an input
  // element or zero padding (on-grid), so the NCHW input is validated and
  // thermometer-encoded once per element, and each patch is gathered from
  // those pixel planes as words — no float patch matrix, no per-patch
  // encode. Off-grid inputs (the raw-image stem, PLA-requantized
  // activations) abort the encode and take the float panel route — bitwise
  // equal for on-grid data, so the dispatch can never change an output bit.
  if (x.ndim() == 4 && !bwords.empty() && x.dim(1) == geom_.in_c &&
      x.dim(2) == geom_.in_h && x.dim(3) == geom_.in_w) {
    const std::size_t batch = x.dim(0);
    const std::size_t hw = geom_.in_h * geom_.in_w;
    const std::size_t oh = geom_.out_h(), ow = geom_.out_w();
    const std::size_t m = batch * oh * ow;
    const std::size_t k = geom_.patch_len();
    gbo::ArenaFrame frame(ctx.arena);
    std::vector<std::uint64_t> pix_own, pa_own;
    std::vector<float> rows_own;
    std::uint64_t* pix = scratch(
        ctx, gemm::packed_binary_pixel_words(batch * hw, geom_.in_c), pix_own);
    if (gemm::pack_binary_pixels(x.data(), batch, geom_.in_c, hw, pix)) {
      std::uint64_t* pa =
          scratch(ctx, gemm::packed_binary_a_words(m, k), pa_own);
      float* rows = scratch(ctx, m * out_c_, rows_own);
      im2col_binary(pix, batch, geom_, pa);
      gemm::gemm_binary(m, out_c_, k, pa, bwords, rows, out_c_);
      Tensor out = ctx.make({batch, out_c_, oh, ow});
      gbo::rows_to_nchw_into(rows, batch, out_c_, oh, ow, out.data());
      return out;
    }
  }
  return infer_with_weight(x, bw, /*with_bias=*/false, &ctx, panels);
}

Tensor QuantConv2d::infer(const Tensor& x, gbo::nn::EvalContext& ctx) const {
  // Frozen-weight cache (DESIGN.md §6): the binarized copy, its packed
  // float panels, and its packed binary sign words are rebuilt only when
  // the latent weight's version moves, so steady-state serving neither
  // re-binarizes nor re-packs. Binarization and packing are deterministic,
  // so a cache hit is bitwise identical to the fresh path (and to
  // forward()).
  const float* bw;
  const float* panels;
  const gemm::PackedBinaryB* bwords;
  float scale;
  cache_.get(weight_.value, scaled_, out_c_, geom_.patch_len(),
             /*want_panels=*/true, &bw, &panels, &bwords, &scale, &geom_);
  if (!hook_) {
    Tensor out = infer_mvm(x, ctx, bw, panels, *bwords);
    scale_output(out, scaled_, scale);
    return out;
  }
  gbo::ArenaFrame frame(ctx.arena);
  Tensor xin = ctx.make(x.shape());
  std::copy(x.data(), x.data() + x.numel(), xin.data());
  hook_->infer_input(xin, ctx.rng);
  Tensor out = infer_mvm(xin, ctx, bw, panels, *bwords);
  ctx.recycle(std::move(xin));
  scale_output(out, scaled_, scale);
  hook_->infer_output(out, ctx.rng, ctx.row_ids);
  return out;
}

bool QuantConv2d::chain_member(const gbo::nn::BatchNorm2d& bn,
                               const QuantTanh& act, std::size_t window,
                               ChainMember* member) const {
  if (hook_ || bn.num_features() != out_c_) return false;
  const std::size_t oh = geom_.out_h(), ow = geom_.out_w();
  if (oh % window != 0 || ow % window != 0) return false;
  const float* bw;
  const float* panels;
  const gemm::PackedBinaryB* bwords;
  float scale;
  cache_.get(weight_.value, scaled_, out_c_, geom_.patch_len(),
             /*want_panels=*/true, &bw, &panels, &bwords, &scale, &geom_);
  if (bwords->empty()) return false;
  const LevelThresholds* thr = thresholds_.get(
      weight_.value, geom_.patch_len(), scaled_, scale, bn, act);
  if (thr == nullptr) return false;
  *member = ChainMember{&geom_, out_c_, bwords, thr, window};
  return true;
}

std::size_t QuantConv2d::infer_run(std::span<const gbo::nn::ModulePtr> run,
                                   const Tensor& x, gbo::nn::EvalContext& ctx,
                                   Tensor& out) const {
  // Collect the chain: each block must start where the previous one ended
  // and read exactly the previous block's output shape. Longer runs split
  // into consecutive chains (each exact, so the split changes no bit).
  constexpr std::size_t kMaxMembers = 16;
  std::array<ChainMember, kMaxMembers> members;
  std::size_t n = 0, used = 0;
  std::size_t c = geom_.in_c, h = geom_.in_h, w = geom_.in_w;
  assert(!run.empty() && run[0].get() == this);
  while (n < kMaxMembers && used + 3 <= run.size()) {
    using gbo::nn::BatchNorm2d, gbo::nn::MaxPool2d;
    const auto* conv = dynamic_cast<const QuantConv2d*>(run[used].get());
    const auto* bn = dynamic_cast<const BatchNorm2d*>(run[used + 1].get());
    const auto* act = dynamic_cast<const QuantTanh*>(run[used + 2].get());
    if (!conv || !bn || !act || conv->geom_.in_c != c ||
        conv->geom_.in_h != h || conv->geom_.in_w != w)
      break;
    const auto* pool =
        used + 3 < run.size()
            ? dynamic_cast<const MaxPool2d*>(run[used + 3].get())
            : nullptr;
    const std::size_t window = pool ? pool->window() : 1;
    if (!conv->chain_member(*bn, *act, window, &members[n])) break;
    ++n;
    used += pool ? 4 : 3;
    c = conv->out_c_;
    h = conv->geom_.out_h() / window;
    w = conv->geom_.out_w() / window;
  }
  if (n >= 2 && run_level_chain({members.data(), n}, x, ctx, out))
    return used;
  out = infer(x, ctx);
  return 1;
}

QuantLinear::QuantLinear(std::size_t in_features, std::size_t out_features,
                         Rng& rng, bool scaled)
    : Linear(in_features, out_features, /*bias=*/false, rng), scaled_(scaled) {}

const Tensor& QuantLinear::effective_weight() {
  weight_scale_ = scaled_ ? binarize_scale(weight_.value) : 1.0f;
  binary_weight_ = binarize(weight_.value, /*scaled=*/false);
  return binary_weight_;
}

void QuantLinear::on_weight_grad(Tensor& grad_w) {
  ste_clip_grad(weight_.value, grad_w);
}

Tensor QuantLinear::forward(const Tensor& x) {
  Tensor out;
  if (hook_) {
    Tensor xin = x;
    hook_->on_input(xin);
    out = Linear::forward(xin);
    scale_output(out, scaled_, weight_scale_);
    hook_->on_forward(out);
  } else {
    out = Linear::forward(x);
    scale_output(out, scaled_, weight_scale_);
  }
  return out;
}

Tensor QuantLinear::backward(const Tensor& grad_out) {
  if (hook_) hook_->on_backward(grad_out);
  // dW stays unscaled (STE over the stored signs, see QuantConv2d); the
  // epilogue's scale lands on dX.
  Tensor dx = Linear::backward(grad_out);
  scale_output(dx, scaled_, weight_scale_);
  return dx;
}

Tensor QuantLinear::infer_mvm(const Tensor& x, gbo::nn::EvalContext& ctx,
                              const float* bw, const float* panels,
                              const gbo::gemm::PackedBinaryB& bwords) const {
  // XNOR/popcount route (DESIGN.md §8): the activation matrix IS the A
  // operand, so the on-grid check is fused into the bit-plane encode; an
  // off-grid value aborts the encode and falls back to the float route.
  if (x.ndim() == 2 && x.dim(1) == in_ && !bwords.empty()) {
    const std::size_t batch = x.dim(0);
    gbo::ArenaFrame frame(ctx.arena);
    std::vector<std::uint64_t> pa_own;
    std::uint64_t* pa =
        scratch(ctx, gemm::packed_binary_a_words(batch, in_), pa_own);
    if (gemm::pack_binary_a(batch, in_, x.data(), in_, pa)) {
      Tensor y = ctx.make({batch, out_});
      gemm::gemm_binary(batch, out_, in_, pa, bwords, y.data(), out_);
      return y;
    }
  }
  return infer_with_weight(x, bw, /*with_bias=*/false, &ctx, panels);
}

Tensor QuantLinear::infer(const Tensor& x, gbo::nn::EvalContext& ctx) const {
  // Same frozen-weight cache as QuantConv2d::infer; float panels only for
  // the shapes the layer's dispatch rule would pack.
  const float* bw;
  const float* panels;
  const gemm::PackedBinaryB* bwords;
  float scale;
  cache_.get(weight_.value, scaled_, out_, in_,
             gemm::panels_for_weight(out_, in_), &bw, &panels, &bwords,
             &scale);
  if (!hook_) {
    Tensor out = infer_mvm(x, ctx, bw, panels, *bwords);
    scale_output(out, scaled_, scale);
    return out;
  }
  gbo::ArenaFrame frame(ctx.arena);
  Tensor xin = ctx.make(x.shape());
  std::copy(x.data(), x.data() + x.numel(), xin.data());
  hook_->infer_input(xin, ctx.rng);
  Tensor out = infer_mvm(xin, ctx, bw, panels, *bwords);
  ctx.recycle(std::move(xin));
  scale_output(out, scaled_, scale);
  hook_->infer_output(out, ctx.rng, ctx.row_ids);
  return out;
}

}  // namespace gbo::quant
