#include "gbo/gumbel.hpp"

#include "common/logging.hpp"
#include "tensor/ops.hpp"

#include <cmath>
#include <stdexcept>

namespace gbo::opt {

namespace {

/// Gumbel(0, 1) sample: -log(-log U), U ~ Uniform(0, 1).
double sample_gumbel(Rng& rng) {
  // Guard the log against U == 0 (uniform() is in [0, 1)).
  double u = rng.uniform();
  if (u < 1e-300) u = 1e-300;
  return -std::log(-std::log(u));
}

}  // namespace

GumbelLayerState::GumbelLayerState(const GumbelConfig& cfg, Rng rng)
    : SchemeMixtureState(cfg.base.pulse_lengths(), cfg.base.noise_stddevs(),
                         cfg.base.gamma, rng, "GumbelLayerState"),
      hard_(cfg.hard), tau_(cfg.tau_start) {
  if (cfg.tau_start <= 0.0 || cfg.tau_end <= 0.0)
    throw std::invalid_argument("GumbelGbo: temperatures must be positive");
}

void GumbelLayerState::set_temperature(double tau) {
  if (tau <= 0.0)
    throw std::invalid_argument("GumbelGbo: temperature must be positive");
  tau_ = tau;
}

void GumbelLayerState::on_forward(Tensor& out) {
  const std::size_t m = pulses().size();
  // Relaxed one-hot sample y = softmax((λ + g)/τ).
  std::vector<double> logits(m);
  for (std::size_t k = 0; k < m; ++k)
    logits[k] =
        (static_cast<double>(lambda().value[k]) + sample_gumbel(rng_)) / tau_;
  cached_y_ = softmax(logits);

  // Per-scheme noise samples (needed for the backward pass either way).
  draw_noise(out);
  if (hard_) {
    // Straight-through: the forward pass adds exactly one scheme's noise
    // (what inference does); gradients pretend the soft mixture was used.
    std::size_t j = 0;
    for (std::size_t k = 1; k < m; ++k)
      if (cached_y_[k] > cached_y_[j]) j = k;
    ops::axpy_inplace(out, 1.0f, noise(j));
  } else {
    add_noise(out, cached_y_);
  }
}

void GumbelLayerState::on_backward(const Tensor& grad_out) {
  // Through the relaxation, out = Σ y_k ε_k with y = softmax(z/τ),
  // z = λ + g:  ∂L/∂λ_j = (1/τ) · y_j (c_j - Σ_k y_k c_k).
  accumulate_noise_grad(grad_out, cached_y_, tau_);
}

void GumbelLayerState::accumulate_latency_grad() {
  if (cached_y_.size() != pulses().size()) return;  // no forward yet
  accumulate_pulse_grad(cached_y_, tau_);
}

GumbelGboTrainer::GumbelGboTrainer(nn::Sequential& net,
                                   std::vector<quant::Hookable*> encoded_layers,
                                   const GumbelConfig& cfg)
    : LambdaTrainer(net, std::move(encoded_layers), cfg.base, "GumbelGBO",
                    [&cfg](Rng rng) {
                      return std::make_unique<GumbelLayerState>(cfg, rng);
                    }),
      cfg_(cfg) {}

double GumbelGboTrainer::temperature_at(std::size_t epoch) const {
  const std::size_t total = cfg_.base.epochs;
  if (total <= 1) return cfg_.tau_end;
  const double frac =
      static_cast<double>(epoch) / static_cast<double>(total - 1);
  return cfg_.tau_start *
         std::pow(cfg_.tau_end / cfg_.tau_start, frac);
}

void GumbelGboTrainer::begin_epoch(std::size_t epoch) {
  const double tau = temperature_at(epoch);
  log_info("GumbelGBO epoch ", epoch + 1, "/", cfg_.base.epochs, " tau=", tau);
  for (std::size_t i = 0; i < num_layers(); ++i)
    layer_state(i).set_temperature(tau);
}

}  // namespace gbo::opt
