// Spatial pooling layers (square window, stride == window).
#pragma once

#include "nn/module.hpp"

namespace gbo::nn {

class MaxPool2d : public Module {
 public:
  /// Throws std::invalid_argument for a zero window.
  explicit MaxPool2d(std::size_t window);

  Tensor forward(const Tensor& x) override;
  Tensor backward(const Tensor& grad_out) override;
  Tensor infer(const Tensor& x, EvalContext& ctx) const override;
  std::string kind() const override { return "MaxPool2d"; }

  std::size_t window() const { return window_; }

 private:
  /// Shared forward body; records per-cell argmax when `argmax` is non-null
  /// (the training path needs it for backward, the stateless path does not).
  /// A context routes the output through the worker arena when present.
  Tensor pool(const Tensor& x, std::vector<std::size_t>* argmax,
              EvalContext* ctx) const;

  std::size_t window_;
  std::vector<std::size_t> cached_shape_;
  std::vector<std::size_t> cached_argmax_;  // flat input index per output cell
};

class AvgPool2d : public Module {
 public:
  /// Throws std::invalid_argument for a zero window.
  explicit AvgPool2d(std::size_t window);

  Tensor forward(const Tensor& x) override;
  Tensor backward(const Tensor& grad_out) override;
  Tensor infer(const Tensor& x, EvalContext& ctx) const override;
  std::string kind() const override { return "AvgPool2d"; }

 private:
  Tensor pool(const Tensor& x, EvalContext* ctx) const;

  std::size_t window_;
  std::vector<std::size_t> cached_shape_;
};

}  // namespace gbo::nn
