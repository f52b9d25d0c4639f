// Gumbel-softmax variant of GBO (optimizer ablation).
//
// The paper's GBO (Eq. 5) propagates the *expectation* over encoding
// schemes: every forward pass adds the full α-weighted mixture of the m
// per-scheme noise samples. The standard alternative from differentiable
// architecture search is to *sample* one scheme per forward pass with the
// Gumbel-softmax reparameterization:
//     y = softmax((λ + g) / τ),  g_k ~ Gumbel(0, 1),
// annealing the temperature τ so y moves from near-uniform mixing to
// near-one-hot selection. With `hard = true` (straight-through), the forward
// pass adds only the argmax scheme's noise — exactly what inference will do
// — while the backward pass differentiates through the soft y.
//
// The ablation question (bench_ablation_optimizer): does the extra variance
// of sampling buy a better schedule than the paper's smooth mixture, at
// equal epochs? This mirrors the softmax-vs-Gumbel choice every
// DARTS-family method has to make.
#pragma once

#include "gbo/gbo.hpp"

namespace gbo::opt {

struct GumbelConfig {
  GboConfig base;          // shared search space / loss parameters
  double tau_start = 5.0;  // initial temperature (smooth)
  double tau_end = 0.5;    // final temperature (nearly one-hot)
  bool hard = true;        // straight-through: forward uses argmax sample
};

/// Per-layer Gumbel-softmax state; drop-in replacement for GboLayerState.
class GumbelLayerState : public SchemeMixtureState {
 public:
  GumbelLayerState(const GumbelConfig& cfg, Rng rng);

  /// Adds the sampled-scheme noise (hard) or the y-weighted mixture (soft).
  void on_forward(Tensor& out) override;

  /// Accumulates ∂L_ce/∂λ through the Gumbel-softmax relaxation.
  void on_backward(const Tensor& grad_out) override;

  /// Latency-regularizer gradient, using the last forward's sampled y.
  void accumulate_latency_grad() override;

  void set_temperature(double tau);
  double temperature() const { return tau_; }

  /// The relaxed sample y of the most recent forward (tests).
  const std::vector<double>& last_sample() const { return cached_y_; }

 private:
  bool hard_;
  double tau_;
  std::vector<double> cached_y_;
};

/// λ-only training with Gumbel-softmax sampling and temperature annealing.
/// Interface mirrors GboTrainer so benches can swap optimizers.
class GumbelGboTrainer : public LambdaTrainer {
 public:
  GumbelGboTrainer(nn::Sequential& net,
                   std::vector<quant::Hookable*> encoded_layers,
                   const GumbelConfig& cfg);

  /// Exponential annealing schedule τ(e) = τ0 · (τ1/τ0)^(e/(E-1)).
  double temperature_at(std::size_t epoch) const;

  GumbelLayerState& layer_state(std::size_t i) {
    return static_cast<GumbelLayerState&>(*states_.at(i));
  }

 protected:
  void begin_epoch(std::size_t epoch) override;

 private:
  GumbelConfig cfg_;
};

}  // namespace gbo::opt
