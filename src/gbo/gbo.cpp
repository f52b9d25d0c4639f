#include "gbo/gbo.hpp"

#include <cmath>

namespace gbo::opt {

std::vector<std::size_t> GboConfig::pulse_lengths() const {
  std::vector<std::size_t> out;
  out.reserve(scale_set.size());
  for (double s : scale_set)
    out.push_back(enc::scaled_pulse_count(s, base_pulses));
  return out;
}

std::vector<double> GboConfig::noise_stddevs() const {
  std::vector<double> out;
  for (std::size_t n : pulse_lengths())
    out.push_back(sigma / std::sqrt(static_cast<double>(n)));
  return out;
}

GboLayerState::GboLayerState(const GboConfig& cfg, Rng rng)
    : SchemeMixtureState(cfg.pulse_lengths(), cfg.noise_stddevs(),
                         cfg.gamma, rng, "GboLayerState") {}

GboTrainer::GboTrainer(nn::Sequential& net,
                       std::vector<quant::Hookable*> encoded_layers,
                       const GboConfig& cfg)
    : LambdaTrainer(net, std::move(encoded_layers), cfg, "GBO",
                    [&cfg](Rng rng) {
                      return std::make_unique<GboLayerState>(cfg, rng);
                    }) {}

}  // namespace gbo::opt
