// Batch normalization (Ioffe & Szegedy, 2015).
//
// BatchNorm2d normalizes over (N, H, W) per channel; BatchNorm1d over N per
// feature. Running statistics are kept as buffers for eval mode. The paper's
// PLA rests on BN + Tanh pushing deep-layer activations toward ±1, so BN
// fidelity matters for reproducing Table I.
//
// Both variants share one implementation that views the input as [N, C, S]
// with S the per-channel spatial size (S = H*W for 2d, S = 1 for 1d).
#pragma once

#include "nn/module.hpp"

namespace gbo::nn {

class BatchNormBase : public Module {
 public:
  BatchNormBase(std::size_t num_features, float eps, float momentum);

  std::vector<Param*> params() override;
  std::vector<Param*> buffers() override;

  Param& gamma() { return gamma_; }
  Param& beta() { return beta_; }
  const Param& gamma() const { return gamma_; }
  const Param& beta() const { return beta_; }
  const Tensor& running_mean() const { return running_mean_.value; }
  const Tensor& running_var() const { return running_var_.value; }
  std::size_t num_features() const { return features_; }

 protected:
  /// x viewed as [N, C, S]; returns normalized output of the same layout.
  Tensor forward_ncs(const Tensor& x, std::size_t n, std::size_t s);
  /// grad viewed as [N, C, S]; returns input gradient of the same layout.
  Tensor backward_ncs(const Tensor& grad_out, std::size_t n, std::size_t s);
  /// Stateless eval-mode body: the running-stats affine map, with exactly
  /// the per-element arithmetic of forward_ncs in eval mode (bitwise equal)
  /// but no cache writes.
  Tensor infer_ncs(const Tensor& x, std::size_t n, std::size_t s,
                   EvalContext& ctx) const;

  std::size_t features_;
  float eps_;
  float momentum_;
  Param gamma_, beta_;
  Param running_mean_, running_var_;

  // backward caches
  Tensor cached_xhat_;
  std::vector<float> cached_invstd_;
};

class BatchNorm2d : public BatchNormBase {
 public:
  explicit BatchNorm2d(std::size_t channels, float eps = 1e-5f,
                       float momentum = 0.1f)
      : BatchNormBase(channels, eps, momentum) {}

  Tensor forward(const Tensor& x) override;
  Tensor backward(const Tensor& grad_out) override;
  Tensor infer(const Tensor& x, EvalContext& ctx) const override;
  std::string kind() const override { return "BatchNorm2d"; }

 private:
  std::vector<std::size_t> cached_shape_;
};

class BatchNorm1d : public BatchNormBase {
 public:
  explicit BatchNorm1d(std::size_t features, float eps = 1e-5f,
                       float momentum = 0.1f)
      : BatchNormBase(features, eps, momentum) {}

  Tensor forward(const Tensor& x) override;
  Tensor backward(const Tensor& grad_out) override;
  Tensor infer(const Tensor& x, EvalContext& ctx) const override;
  std::string kind() const override { return "BatchNorm1d"; }
};

}  // namespace gbo::nn
