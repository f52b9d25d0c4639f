// Gradient-based Bit encoding Optimization (GBO) — the paper's core
// contribution (§III-A).
//
// Each crossbar-mapped layer l owns a pulse-scaling set Ω (paper default
// {0.5, 0.75, 1, 1.25, 1.5, 1.75, 2}, realizable at non-integer multiples
// thanks to PLA) and learnable logits λ^l_k. During the GBO phase the
// network weights are frozen; forward passes add the α-weighted mixture of
// per-scheme crossbar noise (Eq. 5):
//     o_l = W o_{l-1} + Σ_k α^l_k ε_k ,  ε_k ~ N(0, σ²/n_k p),
// with α = softmax(λ). The objective (Eq. 6) is
//     L = L_ce + γ Σ_l Σ_k α^l_k · (n_k p),
// whose second term is the differentiable expected-latency regularizer.
// Gradients reach λ through the sampled noise (Eq. 7): schemes whose noise
// hurts the CE loss are pushed down, cheap-but-noisy schemes are traded
// against expensive-but-clean ones, and the optimizer finds the saddle
// point. At inference each layer uses argmax_k λ^l_k.
#pragma once

#include "encoding/pla.hpp"
#include "gbo/mixture.hpp"

#include <vector>

namespace gbo::opt {

struct GboConfig : LambdaLoopConfig {
  /// Pulse scaling set Ω (multiples of the base pulse count).
  std::vector<double> scale_set = {0.5, 0.75, 1.0, 1.25, 1.5, 1.75, 2.0};
  std::size_t base_pulses = 8;   // p
  double sigma = 1.0;            // per-pulse crossbar noise std during training
  // LambdaLoopConfig: gamma 1e-3 (Eq. 6), 10 epochs of λ-only training with
  // ADAM at lr 1e-4 (paper), batch 32, seed 21.

  /// The realizable pulse lengths round(scale * p) for each scheme.
  std::vector<std::size_t> pulse_lengths() const;

  /// Per-scheme noise std σ/√(n_k p): the thermometer variance factor at
  /// n_k p realized pulses (Eq. 4).
  std::vector<double> noise_stddevs() const;
};

/// Per-layer GBO state: the λ logits and the Eq. 5 noise-mixture hook.
///
/// ε cache: on_forward redraws the m ε_k tensors in place (k order, from
/// the state's one stream) and keeps them for on_backward's
/// c_k = <grad_out, ε_k>. They are reallocated only when the MVM output
/// shape changes, so a λ loop at a fixed batch size allocates no noise
/// buffers after its first step (SchemeMixtureState).
class GboLayerState : public SchemeMixtureState {
 public:
  GboLayerState(const GboConfig& cfg, Rng rng);
};

/// Runs the GBO phase on a pre-trained network: freezes all network
/// parameters, attaches one GboLayerState per encoded layer, and optimizes
/// the λ logits with ADAM against Eq. 6.
class GboTrainer : public LambdaTrainer {
 public:
  GboTrainer(nn::Sequential& net, std::vector<quant::Hookable*> encoded_layers,
             const GboConfig& cfg);

  GboLayerState& layer_state(std::size_t i) {
    return static_cast<GboLayerState&>(*states_.at(i));
  }
};

}  // namespace gbo::opt
