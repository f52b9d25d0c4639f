#include "crossbar/noise_model.hpp"

#include "common/keyed_normal.hpp"

namespace gbo::xbar {

void GaussianNoiseHook::snap_input(Tensor& x) const {
  if (spec_.scheme == enc::Scheme::kThermometer) {
    // PLA re-encoding: activations were quantized for base_pulses_ levels;
    // a different pulse count can only realize its own level grid. Snapped
    // in place — the last per-request temporary on the serving hot path.
    if (spec_.num_pulses != base_pulses_)
      enc::pla_approximate_inplace(x, spec_.num_pulses);
  } else {
    // Bit slicing realizes a 2^p-level grid, which does not contain the
    // thermometer training grid exactly; snap to the nearest code.
    float* p = x.data();
    for (std::size_t i = 0; i < x.numel(); ++i)
      p[i] = enc::bit_slicing_snap(p[i], spec_.num_pulses);
  }
}

void GaussianNoiseHook::add_output_noise(
    Tensor& out, Rng& rng, std::span<const std::uint64_t> row_ids) const {
  if (sigma_ <= 0.0) return;
  add_keyed_normal_rows(rng(), row_ids, out.data(), out.numel(), noise_std());
}

float GaussianNoiseHook::noise_std() const {
  return static_cast<float>(sigma_ * std::sqrt(spec_.noise_variance_factor()));
}

void GaussianNoiseHook::on_input(Tensor& x) {
  if (!enabled_) return;
  snap_input(x);
}

void GaussianNoiseHook::on_forward(Tensor& out) {
  if (!enabled_) return;
  add_output_noise(out, rng_, {});
}

void GaussianNoiseHook::infer_input(Tensor& x, Rng& /*rng*/) const {
  if (!enabled_) return;
  snap_input(x);
}

void GaussianNoiseHook::infer_output(
    Tensor& out, Rng& rng, std::span<const std::uint64_t> row_ids) const {
  if (!enabled_) return;
  add_output_noise(out, rng, row_ids);
}

}  // namespace gbo::xbar
