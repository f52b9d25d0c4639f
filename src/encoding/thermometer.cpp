#include "encoding/thermometer.hpp"

namespace gbo::enc {

PulseTrain thermometer_encode(const Tensor& activations, std::size_t num_pulses) {
  PulseTrain train;
  train.spec = EncodingSpec{Scheme::kThermometer, num_pulses};
  train.pulses.assign(num_pulses, Tensor(activations.shape()));
  thermometer_encode_into(activations, num_pulses, train.pulses);
  return train;
}

void thermometer_encode_into(const Tensor& activations, std::size_t num_pulses,
                             std::vector<Tensor>& pulses) {
  const float* a = activations.data();
  for (std::size_t j = 0; j < activations.numel(); ++j) {
    const std::size_t level = thermometer_level(a[j], num_pulses);
    // Pulses [0, level) fire +1; the rest fire -1.
    for (std::size_t i = 0; i < num_pulses; ++i)
      pulses[i][j] = i < level ? 1.0f : -1.0f;
  }
}

}  // namespace gbo::enc
