// Thermometer coding (Soliman et al., IEDM'20): the number of +1 pulses is
// proportional to the representation level. p pulses represent p+1 levels;
// level k decodes to (2k - p) / p.
#pragma once

#include "encoding/pulse_train.hpp"

#include <cstdint>

namespace gbo::enc {

/// Level index (count of +1 pulses) for a value in [-1, 1] under p pulses:
/// x = (value + 1)/2 · p clamped to [0, p] and rounded half away from zero,
/// exactly as std::lround would, but branch-free (t = trunc(x), plus one
/// when the exact fraction x − t is >= ½) so snapping loops vectorize.
/// NaN maps to level 0.
inline std::size_t thermometer_level(float value, std::size_t num_pulses) {
  const float p = static_cast<float>(num_pulses);
  float x = (value + 1.0f) * 0.5f * p;
  x = x > 0.0f ? x : 0.0f;  // negative or NaN -> 0
  x = x < p ? x : p;
  const std::int32_t t = static_cast<std::int32_t>(x);
  return static_cast<std::size_t>(t + (x - static_cast<float>(t) >= 0.5f));
}

/// Encodes a tensor of activations in [-1, 1]. Values are snapped to the
/// nearest representable level first (identical to the 9-level activation
/// quantizer when num_pulses == 8).
PulseTrain thermometer_encode(const Tensor& activations, std::size_t num_pulses);

/// Same encoding into caller-provided pulse tensors: `pulses` must already
/// hold `num_pulses` tensors shaped like `activations` (recycled from a
/// ScratchArena on the serving hot path); every element is overwritten.
/// Bitwise identical to thermometer_encode.
void thermometer_encode_into(const Tensor& activations, std::size_t num_pulses,
                             std::vector<Tensor>& pulses);

/// The exact value a thermometer train of p pulses can represent closest to
/// `value` — used to quantify PLA approximation error.
inline float thermometer_snap(float value, std::size_t num_pulses) {
  const float p = static_cast<float>(num_pulses);
  const auto level =
      static_cast<std::int32_t>(thermometer_level(value, num_pulses));
  return (2.0f * static_cast<float>(level) - p) / p;
}

}  // namespace gbo::enc
