// The λ-over-schemes machinery shared by every GBO variant.
//
// GboLayerState (thermometer schemes) and MixedLayerState (mixed scheme ×
// pulse-length candidates) differ only in their per-scheme pulse counts and
// noise stds; GumbelLayerState also mixes with a sampled relaxation instead
// of α. Everything else lives here once:
//   * SchemeMixtureState — λ logits, softmax α, the per-scheme ε_k draws
//     (kept across steps), the pool-parallel mixture add, and the
//     softmax-Jacobian λ gradients of Eq. 6/7;
//   * LambdaTrainer — freezing the network, attaching one state per
//     encoded layer, and the λ-only ADAM loop.
//
// Bit-identity contract: every step is bitwise identical at any
// GBO_NUM_THREADS. Each forward takes one 64-bit key from rng_, and
// ε_k[i] is the keyed normal at (key, stream k, index i)
// (common/keyed_normal.hpp, DESIGN.md §3) — a pure function, so the pool
// blocks that draw it cannot change its bits; the mixture add and the
// gradient dot products run in fixed pool blocks, each element summing
// its k terms in ascending order and each c_k keeping one sequential
// double accumulation.
#pragma once

#include "common/rng.hpp"
#include "data/dataloader.hpp"
#include "nn/optim.hpp"
#include "nn/sequential.hpp"
#include "quant/quant_layers.hpp"

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

namespace gbo::opt {

/// softmax(z) in double precision, shifted by max(z).
std::vector<double> softmax(const std::vector<double>& z);

/// λ logits over m encoding schemes plus the per-scheme crossbar noise
/// ε_k ~ N(0, stddev_k²) a GBO layer state mixes into an MVM output.
///
/// The ε_k tensors of the last forward are cached for the backward pass
/// (c_k = <grad_out, ε_k>) and reused by the next forward: they are
/// reallocated only when the MVM output shape changes, so a steady λ loop
/// draws into the same buffers every step.
class SchemeMixtureState : public quant::MvmNoiseHook {
 public:
  /// Eq. 5: adds Σ_k α_k ε_k to the MVM output; caches α and the ε_k.
  void on_forward(Tensor& out) override;

  /// Eq. 7: accumulates ∂L_ce/∂λ_j = α_j (c_j − Σ_k α_k c_k) from the
  /// incoming output gradient.
  void on_backward(const Tensor& grad_out) override;

  /// softmax(λ) — the selection distribution at inference time.
  std::vector<double> alpha() const;

  /// Expected latency Σ_k α_k n_k in pulses.
  double expected_pulses() const;

  /// argmax_k λ_k (lowest k on ties) — the scheme selected for inference.
  std::size_t selected_scheme() const;
  std::size_t selected_pulses() const { return pulses_[selected_scheme()]; }

  /// Adds the latency-regularizer gradient γ·∂(Σ α_k n_k)/∂λ (Eq. 6). Call
  /// once per optimization step (it is data independent).
  virtual void accumulate_latency_grad();

  nn::Param& lambda() { return lambda_; }
  const std::vector<std::size_t>& pulses() const { return pulses_; }

 protected:
  /// Scheme k costs pulses[k] pulses and draws noise of std stddevs[k];
  /// `who` prefixes the exceptions. Throws std::invalid_argument on an
  /// empty scheme set.
  SchemeMixtureState(std::vector<std::size_t> pulses,
                     const std::vector<double>& stddevs, double gamma, Rng rng,
                     const char* who);

  /// Draws ε_0 .. ε_{m-1}, each of out's shape: one key from rng_, ε_k the
  /// keyed stream k scaled by stddev_k, on the pool.
  void draw_noise(const Tensor& out);

  /// out[i] += Σ_k float(w_k) ε_k[i], k ascending per element, in one
  /// pool pass.
  void add_noise(Tensor& out, const std::vector<double>& w) const;

  const Tensor& noise(std::size_t k) const { return noise_[k]; }

  /// Eq. 7 through y = softmax(z / τ): with c_k = <grad_out, ε_k>,
  ///   λ.grad_j += w_j (c_j − Σ_k w_k c_k) / τ,
  /// where w is the y of the last forward. The m dot products run one per
  /// pool block. Throws std::logic_error before the first forward.
  void accumulate_noise_grad(const Tensor& grad_out,
                             const std::vector<double>& w, double tau);

  /// λ.grad_j += γ w_j (n_j − Σ_k w_k n_k) / τ.
  void accumulate_pulse_grad(const std::vector<double>& w, double tau);

  Rng rng_;

 private:
  std::vector<std::size_t> pulses_;
  std::vector<float> stddevs_;
  double gamma_;
  const char* who_;
  nn::Param lambda_;          // [m]
  std::vector<Tensor> noise_;  // ε_k of the last forward, reused
  std::vector<float*> noise_data_;  // noise_[k].data(), taken per draw
  std::vector<double> cached_alpha_;  // α of the last Eq. 5 forward
};

struct GboEpochStats {
  float loss_ce = 0.0f;
  float loss_latency = 0.0f;
  float train_accuracy = 0.0f;
  double avg_expected_pulses = 0.0;
};

/// The knobs of the λ-only loop that every GBO variant shares.
struct LambdaLoopConfig {
  double gamma = 1e-3;
  std::size_t epochs = 10;
  float lr = 1e-4f;
  std::size_t batch_size = 32;
  std::uint64_t seed = 21;
};

/// Runs a λ-only search on a pre-trained network: freezes every network
/// parameter (and BN statistics), attaches one state per encoded layer,
/// and optimizes the λ logits with ADAM against Eq. 6. The destructor
/// detaches the hooks and restores requires_grad.
class LambdaTrainer {
 public:
  virtual ~LambdaTrainer();
  LambdaTrainer(const LambdaTrainer&) = delete;
  LambdaTrainer& operator=(const LambdaTrainer&) = delete;

  /// One full optimization run over `train`; returns per-epoch stats. An
  /// empty dataset logs a warning and returns zeroed stats.
  std::vector<GboEpochStats> train(const data::Dataset& train);

  /// Per-layer pulse counts selected by argmax λ.
  std::vector<std::size_t> selected_pulses() const;
  double avg_selected_pulses() const;

  std::size_t num_layers() const { return states_.size(); }

 protected:
  /// `make_state(i)` builds layer i's state from its forked stream. Throws
  /// std::invalid_argument when batch_size == 0.
  LambdaTrainer(
      nn::Sequential& net, std::vector<quant::Hookable*> encoded_layers,
      const LambdaLoopConfig& loop, const char* name,
      const std::function<std::unique_ptr<SchemeMixtureState>(Rng)>&
          make_state);

  /// Called before each epoch (the Gumbel temperature schedule).
  virtual void begin_epoch(std::size_t /*epoch*/) {}

  std::vector<std::unique_ptr<SchemeMixtureState>> states_;

 private:
  nn::Sequential& net_;
  std::vector<quant::Hookable*> layers_;
  LambdaLoopConfig loop_;
  const char* name_;
  std::vector<bool> saved_requires_grad_;
};

}  // namespace gbo::opt
