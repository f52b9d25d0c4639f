#include "nn/linear.hpp"

#include "nn/init.hpp"
#include "tensor/gemm.hpp"
#include "tensor/ops.hpp"

#include <utility>
#include <vector>

namespace gbo::nn {

Linear::Linear(std::size_t in_features, std::size_t out_features, bool bias,
               Rng& rng)
    : in_(in_features), out_(out_features), has_bias_(bias) {
  Tensor w({out_, in_});
  xavier_uniform(w, in_, out_, rng);
  weight_ = Param("weight", std::move(w));
  if (has_bias_) bias_ = Param("bias", Tensor({out_}));
}

const Tensor& Linear::effective_weight() { return weight_.value; }

Tensor Linear::infer_with_weight(const Tensor& x, const float* w,
                                 bool with_bias, EvalContext* ctx,
                                 const float* panels) const {
  if (x.ndim() != 2 || x.dim(1) != in_)
    throw std::invalid_argument("Linear: bad input shape " + x.shape_str());
  const std::size_t batch = x.dim(0);
  ScratchArena* arena = ctx ? ctx->arena : nullptr;
  ArenaFrame frame(arena);
  Tensor y = ctx ? ctx->make({batch, out_}) : Tensor({batch, out_});
  if (gemm::panels_for_weight(out_, in_)) {
    std::vector<float> own;
    if (panels == nullptr)
      // Uncached caller (a subclass forward over a transient effective
      // weight): pack fresh, off the heap when an arena is attached.
      panels = gemm::pack_fresh_b_t(out_, in_, w, in_, arena, &own);
    gemm::gemm_prepacked(batch, out_, in_, x.data(), in_, panels, y.data(),
                         out_);
  } else {
    gemm::gemm_nt_rowwise(batch, out_, in_, x.data(), in_, w, in_, y.data(),
                          out_);
  }
  if (with_bias) {
    float* p = y.data();
    const float* b = bias_.value.data();
    for (std::size_t n = 0; n < batch; ++n)
      for (std::size_t o = 0; o < out_; ++o) p[n * out_ + o] += b[o];
  }
  return y;
}

const float* Linear::cached_panels() const {
  if (!gemm::panels_for_weight(out_, in_)) return nullptr;
  return wpanels_.get(std::as_const(weight_.value).data(), in_, out_, in_,
                      weight_.value.version());
}

Tensor Linear::forward(const Tensor& x) {
  cached_input_ = x;
  cached_eff_weight_ = &effective_weight();
  // The cache only ever holds panels of weight_.value; a subclass's
  // substituted effective weight (fresh binarization per forward) packs
  // fresh inside the body instead of poisoning the stamp timeline.
  const bool own_weight = cached_eff_weight_ == &weight_.value;
  return infer_with_weight(x, cached_eff_weight_->data(), has_bias_, nullptr,
                           own_weight ? cached_panels() : nullptr);
}

Tensor Linear::infer(const Tensor& x, EvalContext& ctx) const {
  return infer_with_weight(x, std::as_const(weight_.value).data(), has_bias_,
                           &ctx, cached_panels());
}

Tensor Linear::backward(const Tensor& grad_out) {
  const std::size_t batch = cached_input_.dim(0);
  if (grad_out.ndim() != 2 || grad_out.dim(0) != batch || grad_out.dim(1) != out_)
    throw std::invalid_argument("Linear::backward: bad grad shape");

  // dW = grad_out^T @ x  -> [out, in]; skipped for a frozen weight.
  if (weight_.requires_grad) {
    Tensor grad_w = ops::matmul_at(grad_out, cached_input_);
    on_weight_grad(grad_w);
    ops::add_inplace(weight_.grad, grad_w);
  }

  if (has_bias_ && bias_.requires_grad) {
    float* gb = bias_.grad.data();
    const float* g = grad_out.data();
    for (std::size_t n = 0; n < batch; ++n)
      for (std::size_t o = 0; o < out_; ++o) gb[o] += g[n * out_ + o];
  }

  // dX = grad_out @ W  -> [N, in]
  return ops::matmul(grad_out, *cached_eff_weight_);
}

std::vector<Param*> Linear::params() {
  std::vector<Param*> out{&weight_};
  if (has_bias_) out.push_back(&bias_);
  return out;
}

}  // namespace gbo::nn
