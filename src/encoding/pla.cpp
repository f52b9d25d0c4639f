#include "encoding/pla.hpp"

#include <cmath>

namespace gbo::enc {

PulseTrain pla_encode(const Tensor& activations, std::size_t target_pulses) {
  // Thermometer encoding already snaps to the nearest representable level,
  // which is exactly the PLA approximation.
  return thermometer_encode(activations, target_pulses);
}

Tensor pla_approximate(const Tensor& activations, std::size_t target_pulses) {
  Tensor out(activations.shape());
  const float* a = activations.data();
  float* o = out.data();
  for (std::size_t i = 0; i < activations.numel(); ++i)
    o[i] = thermometer_snap(a[i], target_pulses);
  return out;
}

void pla_approximate_inplace(Tensor& activations, std::size_t target_pulses) {
  float* a = activations.data();
  const std::size_t n = activations.numel();
  for (std::size_t i = 0; i < n; ++i)
    a[i] = thermometer_snap(a[i], target_pulses);
}

PlaErrorStats pla_error(const Tensor& activations, std::size_t target_pulses) {
  PlaErrorStats st;
  const float* a = activations.data();
  double sum_abs = 0.0, sum_sq = 0.0;
  for (std::size_t i = 0; i < activations.numel(); ++i) {
    const double e = std::fabs(thermometer_snap(a[i], target_pulses) - a[i]);
    sum_abs += e;
    sum_sq += e * e;
    st.max_abs_error = std::max(st.max_abs_error, e);
  }
  const double n = static_cast<double>(activations.numel());
  if (n > 0) {
    st.mean_abs_error = sum_abs / n;
    st.rms_error = std::sqrt(sum_sq / n);
  }
  return st;
}

std::size_t scaled_pulse_count(double scale, std::size_t base_pulses) {
  const long n = std::lround(scale * static_cast<double>(base_pulses));
  return n < 1 ? 1 : static_cast<std::size_t>(n);
}

}  // namespace gbo::enc
