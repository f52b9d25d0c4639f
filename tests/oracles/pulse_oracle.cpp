#include "pulse_oracle.hpp"

#include "common/keyed_normal.hpp"
#include "tensor/ops.hpp"

#include <vector>

namespace gbo::xbar {

Tensor pulse_level_reference(const MvmEngine& engine, const Tensor& activations,
                             Rng& rng) {
  const MvmConfig& cfg = engine.config();
  const CrossbarArray& array = engine.array();
  const enc::PulseTrain train =
      cfg.spec.scheme == enc::Scheme::kThermometer
          ? enc::thermometer_encode(activations, cfg.spec.num_pulses)
          : enc::bit_slicing_encode(activations, cfg.spec.num_pulses);
  const std::uint64_t key = rng();
  const std::size_t batch = activations.dim(0);
  if (train.pulses.empty()) return Tensor({batch, array.rows()});

  const auto weights = cfg.spec.pulse_weights();
  double wsum = 0.0;
  for (double w : weights) wsum += w;

  const std::size_t read_len = array.read_noise_draws(batch);
  const std::size_t out_len = batch * array.rows();
  std::vector<float> noise(out_len);
  Tensor out;
  for (std::size_t i = 0; i < train.pulses.size(); ++i) {
    // One crossbar read per pulse, in sign-current domain.
    Tensor y = array.mvm_pulse(train.pulses[i], key, i * read_len);
    // Peripheral scaling back to the weight domain, then the Eq. 1 noise.
    ops::scale_inplace(y, array.weight_scale());
    if (cfg.sigma > 0.0) {
      keyed_normal(key, i * out_len, noise.data(), out_len,
                   static_cast<float>(cfg.sigma), MvmEngine::kOutputNoiseStream);
      float* p = y.data();
      for (std::size_t j = 0; j < out_len; ++j) p[j] += noise[j];
    }
    const float w = static_cast<float>(weights[i] / wsum);
    if (i == 0) {
      out = ops::scale(y, w);
    } else {
      ops::axpy_inplace(out, w, y);
    }
  }
  return out;
}

}  // namespace gbo::xbar
