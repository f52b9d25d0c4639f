// Fully connected layer: y = x W^T + b, x: [N, in], W: [out, in].
//
// One kernel route per weight shape (DESIGN.md §6), fixed at construction:
// weights above the panel floor (gemm::panels_for_weight) run the
// packed-panel kernel over panels cached across calls
// (gemm::PackedWeightCache, stamped with the weight's version counter —
// steady-state serving packs nothing); smaller weights run the row-stable
// dot kernel (gemm::gemm_nt_rowwise). The route never depends on the batch,
// so every batch row's bit pattern is independent of how requests were
// fused, and forward and infer share the same body.
#pragma once

#include "common/rng.hpp"
#include "nn/module.hpp"
#include "tensor/gemm.hpp"

namespace gbo::nn {

class Linear : public Module {
 public:
  Linear(std::size_t in_features, std::size_t out_features, bool bias,
         Rng& rng);

  Tensor forward(const Tensor& x) override;
  Tensor backward(const Tensor& grad_out) override;
  Tensor infer(const Tensor& x, EvalContext& ctx) const override;
  std::vector<Param*> params() override;
  std::string kind() const override { return "Linear"; }

  std::size_t in_features() const { return in_; }
  std::size_t out_features() const { return out_; }

  Param& weight() { return weight_; }
  Param* bias() { return has_bias_ ? &bias_ : nullptr; }

 protected:
  /// Hook for subclasses (quantized layer) to substitute the effective
  /// weight used in forward/backward. Default: the raw weight.
  virtual const Tensor& effective_weight();
  /// Hook to transform the raw weight gradient (e.g. STE clipping); not
  /// called when the weight is frozen (!requires_grad).
  virtual void on_weight_grad(Tensor& /*grad_w*/) {}

  /// Shared const forward body over a raw [out, in] weight: y = x wᵀ
  /// (+ bias when `with_bias`). Routes the output through ctx->make when a
  /// context is given. `panels`, when non-null, is the weight's packed
  /// panel set (a cache hit or a caller-owned fresh pack); when null and
  /// the shape takes the panel route, the body packs fresh — bitwise
  /// identical either way, since packing is deterministic data movement.
  Tensor infer_with_weight(const Tensor& x, const float* w, bool with_bias,
                           EvalContext* ctx, const float* panels) const;

  /// wpanels_ lookup for weight_.value (nullptr on the non-panel route).
  const float* cached_panels() const;

  /// Cached panels of weight_.value for the panel-route shapes, reused
  /// across requests and stamped with weight_.value.version() (DESIGN.md
  /// §6). Only ever fed from weight_.value — subclasses that substitute an
  /// effective weight (the quant layers) bring their own cache.
  mutable gemm::PackedWeightCache wpanels_;

  std::size_t in_ = 0, out_ = 0;
  bool has_bias_ = true;
  Param weight_;  // [out, in]
  Param bias_;    // [out]
  Tensor cached_input_;  // [N, in]
  // Weight used in the last forward, borrowed from persistent layer storage
  // (weight_.value, or the subclass's binarized copy) — valid until the next
  // forward, which is exactly backward's lifetime requirement. A pointer so
  // pure evaluation never copies the matrix.
  const Tensor* cached_eff_weight_ = nullptr;
};

}  // namespace gbo::nn
