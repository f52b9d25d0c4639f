// Multi-level activation quantization for temporal binary bit encoding.
//
// The paper (§IV-A) quantizes Tanh activations to 9 levels so they map onto
// 8-pulse thermometer codes: level k of a (p+1)-level quantizer over [-1, 1]
// corresponds to k positive pulses out of p, giving value (2k - p) / p.
//
// QuantTanh is the fused module used by the BWNN: tanh followed by the
// uniform quantizer, with a straight-through estimator for the quantizer
// (gradient of tanh only).
#pragma once

#include "nn/module.hpp"

namespace gbo::quant {

/// Uniform symmetric quantizer over [-1, 1] with `levels` levels
/// (levels >= 2). Values outside [-1, 1] are clamped first.
float quantize_value(float x, std::size_t levels);

/// Elementwise quantization of a whole tensor.
Tensor quantize(const Tensor& x, std::size_t levels);

/// The discrete level index in [0, levels-1] for a value in [-1, 1].
std::size_t level_index(float x, std::size_t levels);

/// Tanh + uniform quantization with STE.
///
/// infer() never evaluates tanh: the level of quantize_value(tanh(x)) is a
/// non-decreasing step function of x, so it is the count of `levels - 1`
/// precomputed input thresholds that x reaches, found once at construction
/// by bisection over the ordered float line. Bitwise equal to
/// quantize_value(tanh(x)) for every float input (tests/test_quant.cpp
/// checks all 2^32 bit patterns); NaN inputs take the reference path.
/// forward() takes its levels from the same kernel, in fixed pool blocks,
/// and evaluates tanh only for the STE cache of backward().
class QuantTanh : public gbo::nn::Module {
 public:
  explicit QuantTanh(std::size_t levels = 9);

  Tensor forward(const Tensor& x) override;
  Tensor backward(const Tensor& grad_out) override;
  Tensor infer(const Tensor& x, gbo::nn::EvalContext& ctx) const override;
  std::string kind() const override { return "QuantTanh"; }

  std::size_t levels() const { return levels_; }

 private:
  /// q[i] = quantize_value(tanh(x[i])) for every non-NaN x[i], via the
  /// thresholds; returns true if any x[i] is NaN (left for the caller).
  bool quantize_levels(const float* x, std::size_t n, float* q) const;

  std::size_t levels_;
  // thresholds_[l - 1]: the least float whose quantized tanh reaches level l.
  std::vector<float> thresholds_;
  Tensor cached_tanh_;
};

}  // namespace gbo::quant
