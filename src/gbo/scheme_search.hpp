// Joint (encoding scheme × pulse length) search — 2-D extension of GBO.
//
// The paper fixes Thermometer coding and searches only the pulse *length*
// per layer. But its own Eq. 2/3 analysis prices every (scheme, pulses)
// pair: a candidate's accumulated noise variance is σ² · Σw_i²/(Σw_i)²,
// and its latency is its pulse count. Nothing in the λ/softmax machinery
// requires candidates to share a scheme, so this module generalizes the
// search space to arbitrary mixed candidate lists, e.g.
//     {TC-4, TC-8, TC-16, BS-4, BS-8}
// and lets gradient descent decide per layer whether a cheaper bit-sliced
// code (fewer pulses for the same levels, but a worse variance factor)
// beats a longer thermometer code. The per-candidate variance factor comes
// from EncodingSpec::noise_variance_factor(), so the same code path prices
// any future encoding that defines pulse weights.
//
// This implements the paper's future-work direction implicitly raised by
// Fig. 1b (why not pick the encoding per layer too?) and powers
// bench_ext_scheme.
#pragma once

#include "common/rng.hpp"
#include "crossbar/crossbar_layers.hpp"
#include "encoding/pulse_train.hpp"
#include "gbo/mixture.hpp"

#include <string>
#include <vector>

namespace gbo::opt {

/// One point of the mixed search space.
struct SchemeCandidate {
  enc::EncodingSpec spec;

  /// Accumulated noise variance as a multiple of σ² (Eq. 2/3).
  double variance_factor() const { return spec.noise_variance_factor(); }
  std::size_t pulses() const { return spec.num_pulses; }
  std::string name() const;

  bool operator==(const SchemeCandidate&) const = default;
};

/// The default mixed candidate set: thermometer at the paper's PLA lengths
/// plus bit-sliced codes carrying comparable level counts.
std::vector<SchemeCandidate> default_mixed_candidates(
    std::size_t base_pulses = 8);

/// Applies a per-layer (scheme × pulse-length) selection to `ctrl`'s hooks
/// and returns the mean noisy accuracy over `trials` independent draws, the
/// trials dispatched concurrently onto the shared thread pool under the
/// (seed, trial_id) contract of core::evaluate_noisy (bitwise identical at
/// any GBO_NUM_THREADS). `ctrl` must already be attached with σ configured;
/// its per-layer specs are left at `selection` on return.
float evaluate_selection(const nn::Sequential& net,
                         xbar::LayerNoiseController& ctrl,
                         const std::vector<SchemeCandidate>& selection,
                         const data::Dataset& test, std::size_t trials = 3,
                         std::size_t batch_size = 64);

struct MixedGboConfig : LambdaLoopConfig {
  std::vector<SchemeCandidate> candidates;
  double sigma = 1.0;
};

/// Per-layer λ logits over mixed candidates; Eq. 5 noise mixture with
/// per-candidate variance factors (candidate k's noise has std
/// σ·√variance_factor_k).
class MixedLayerState : public SchemeMixtureState {
 public:
  MixedLayerState(const MixedGboConfig& cfg, Rng rng);

  const SchemeCandidate& selected() const {
    return candidates_[selected_scheme()];
  }
  const std::vector<SchemeCandidate>& candidates() const {
    return candidates_;
  }

 private:
  std::vector<SchemeCandidate> candidates_;
};

/// λ-only trainer over the mixed space; mirrors GboTrainer.
class MixedGboTrainer : public LambdaTrainer {
 public:
  MixedGboTrainer(nn::Sequential& net,
                  std::vector<quant::Hookable*> encoded_layers,
                  const MixedGboConfig& cfg);

  /// Per-layer selections after training.
  std::vector<SchemeCandidate> selected() const;
  /// Human-readable per-layer selection like "[TC-8, BS-4, TC-16]".
  std::string selection_string() const;

  MixedLayerState& layer_state(std::size_t i) {
    return static_cast<MixedLayerState&>(*states_.at(i));
  }
};

}  // namespace gbo::opt
