// 2D convolution (square kernel) over the packed-panel GEMM.
//
// Weight layout: [out_c, in_c * k * k], i.e. already flattened to the MVM
// matrix a crossbar tile would store.
//
// Every conv MVM runs the packed-panel kernel over weight panels cached
// across requests and stamped with the weight's version counter
// (gemm::PackedWeightCache, DESIGN.md §6), so steady-state serving packs no
// conv weights. `infer` has one route for every geometry: the im2col patch
// gather is fused into the packed GEMM's A-panel packer, so each receptive
// field is read straight from the NCHW input into a cache-resident panel
// and no column matrix is materialized. `forward` lowers through im2col
// instead, because `backward` needs the columns; it feeds the same panel
// values to the same packed multiply, so `infer` equals `forward` bitwise
// at any GBO_NUM_THREADS (tests/test_nn_layers.cpp). Nothing depends on the
// batch, so fused serving batches stay bitwise row-equal to unit batches.
#pragma once

#include "common/rng.hpp"
#include "nn/module.hpp"
#include "tensor/gemm.hpp"
#include "tensor/im2col.hpp"

namespace gbo::nn {

class Conv2d : public Module {
 public:
  /// Geometry: square kernel `k`, stride, zero padding. Spatial input size
  /// (in_h/in_w of `geom`) is fixed at construction; this matches the fixed
  /// crossbar mapping of a deployed network.
  Conv2d(std::size_t out_channels, ConvGeom geom, bool bias, Rng& rng);

  Tensor forward(const Tensor& x) override;
  Tensor backward(const Tensor& grad_out) override;
  Tensor infer(const Tensor& x, EvalContext& ctx) const override;
  std::vector<Param*> params() override;
  std::string kind() const override { return "Conv2d"; }

  const ConvGeom& geom() const { return geom_; }
  std::size_t out_channels() const { return out_c_; }
  Param& weight() { return weight_; }

 protected:
  /// Hooks mirroring Linear's, so the quantized subclass reuses this body.
  virtual const Tensor& effective_weight();
  virtual void on_weight_grad(Tensor& /*grad_w*/) {}

  /// Shared const forward body over a raw [out_c, patch_len] weight: fused
  /// patch gather → packed GEMM → NCHW (+ bias when `with_bias`). Throws
  /// std::invalid_argument unless x is [N, in_c, in_h, in_w] of `geom`.
  /// `panels` is the weight's packed panel set (cache hit or caller-owned);
  /// nullptr packs fresh — bitwise identical either way.
  /// With a context carrying a scratch arena, all scratch is bump-allocated
  /// and the output tensor is recycled; the conv infer path then performs
  /// no heap allocation.
  Tensor infer_with_weight(const Tensor& x, const float* w, bool with_bias,
                           EvalContext* ctx, const float* panels) const;

  /// wpanels_ lookup for weight_.value.
  const float* cached_panels() const;

  /// Cached packed panels of weight_.value, stamped with its version
  /// counter (DESIGN.md §6). Subclasses substituting an effective weight
  /// bring their own cache.
  mutable gemm::PackedWeightCache wpanels_;

  std::size_t out_c_ = 0;
  ConvGeom geom_;
  bool has_bias_ = true;
  Param weight_;  // [out_c, in_c*k*k]
  Param bias_;    // [out_c]
  Tensor cached_cols_;        // [N*oh*ow, in_c*k*k]
  // Borrowed from persistent layer storage (see Linear::cached_eff_weight_).
  const Tensor* cached_eff_weight_ = nullptr;
  std::size_t cached_batch_ = 0;
};

}  // namespace gbo::nn
