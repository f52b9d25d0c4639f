#include "quant/act_quant.hpp"

#include "common/thread_pool.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <stdexcept>

namespace gbo::quant {

float quantize_value(float x, std::size_t levels) {
  if (levels < 2) throw std::invalid_argument("quantize: levels must be >= 2");
  x = x > 1.0f ? 1.0f : (x < -1.0f ? -1.0f : x);
  const float steps = static_cast<float>(levels - 1);
  const float idx = std::round((x + 1.0f) * 0.5f * steps);
  return idx / steps * 2.0f - 1.0f;
}

std::size_t level_index(float x, std::size_t levels) {
  if (levels < 2) throw std::invalid_argument("level_index: levels must be >= 2");
  x = x > 1.0f ? 1.0f : (x < -1.0f ? -1.0f : x);
  const float steps = static_cast<float>(levels - 1);
  return static_cast<std::size_t>(std::round((x + 1.0f) * 0.5f * steps));
}

Tensor quantize(const Tensor& x, std::size_t levels) {
  Tensor out(x.shape());
  const float* p = x.data();
  float* q = out.data();
  for (std::size_t i = 0; i < x.numel(); ++i) q[i] = quantize_value(p[i], levels);
  return out;
}

namespace {

// Elements per parallel_for block of QuantTanh::forward.
constexpr std::size_t kForwardGrain = 16384;

/// Order-preserving map of floats onto unsigned keys (-inf < ... < -0 <
/// +0 < ... < +inf; NaNs fall outside [key(-inf), key(+inf)]).
std::uint32_t order_key(float x) {
  const auto b = std::bit_cast<std::uint32_t>(x);
  return (b & 0x80000000u) ? ~b : b | 0x80000000u;
}

float from_key(std::uint32_t k) {
  return std::bit_cast<float>((k & 0x80000000u) ? k & 0x7fffffffu : ~k);
}

/// q[i] = the quantized level value of the number of thresholds x[i]
/// reaches — quantize_value's own epilogue over the level, so the value
/// is bitwise what quantize_value returns. N > 0 fixes the threshold count
/// at compile time so the element loop vectorizes. Returns true if any
/// input was NaN (those entries need the reference path).
template <std::size_t N>
bool quantize_by_thresholds(const float* x, std::size_t n,
                            const std::vector<float>& thr, float steps,
                            float* q) {
  const std::size_t count = N > 0 ? N : thr.size();
  float t[N > 0 ? N : 1];
  if constexpr (N > 0) std::copy(thr.begin(), thr.end(), t);
  unsigned nan = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const float v = x[i];
    int level = 0;
    for (std::size_t j = 0; j < count; ++j)
      level += (N > 0 ? v >= t[j] : v >= thr[j]) ? 1 : 0;
    q[i] = static_cast<float>(level) / steps * 2.0f - 1.0f;
    nan |= static_cast<unsigned>(v != v);
  }
  return nan != 0;
}

}  // namespace

QuantTanh::QuantTanh(std::size_t levels) : levels_(levels) {
  if (levels < 2) throw std::invalid_argument("QuantTanh: levels must be >= 2");
  // Bisection per level over the ordered keys of [-inf, +inf], keeping
  // level(lo) < l <= level(hi); tanh saturates to ±1 at the ends.
  const float inf = std::numeric_limits<float>::infinity();
  for (std::size_t l = 1; l < levels; ++l) {
    std::uint32_t lo = order_key(-inf), hi = order_key(inf);
    while (hi - lo > 1) {
      const std::uint32_t mid = lo + (hi - lo) / 2;
      (level_index(std::tanh(from_key(mid)), levels) >= l ? hi : lo) = mid;
    }
    thresholds_.push_back(from_key(hi));
  }
}

bool QuantTanh::quantize_levels(const float* x, std::size_t n,
                                float* q) const {
  const float steps = static_cast<float>(levels_ - 1);
  return thresholds_.size() == 8
             ? quantize_by_thresholds<8>(x, n, thresholds_, steps, q)
             : quantize_by_thresholds<0>(x, n, thresholds_, steps, q);
}

Tensor QuantTanh::forward(const Tensor& x) {
  Tensor out(x.shape());
  if (cached_tanh_.shape() != x.shape()) cached_tanh_ = Tensor(x.shape());
  const float* p = x.data();
  float* t = cached_tanh_.data();
  float* q = out.data();
  // The levels come from infer's threshold kernel; tanh is evaluated only
  // for the STE cache (and for NaN inputs, which take the reference path).
  parallel_for(0, x.numel(), kForwardGrain, [&](std::size_t lo, std::size_t hi) {
    const bool nan = quantize_levels(p + lo, hi - lo, q + lo);
    for (std::size_t i = lo; i < hi; ++i) t[i] = std::tanh(p[i]);
    if (nan)
      for (std::size_t i = lo; i < hi; ++i)
        if (p[i] != p[i]) q[i] = quantize_value(t[i], levels_);
  });
  return out;
}

Tensor QuantTanh::infer(const Tensor& x, gbo::nn::EvalContext& ctx) const {
  Tensor out = ctx.make(x.shape());
  const float* p = x.data();
  float* q = out.data();
  const std::size_t n = x.numel();
  if (quantize_levels(p, n, q))
    for (std::size_t i = 0; i < n; ++i)
      if (p[i] != p[i]) q[i] = quantize_value(std::tanh(p[i]), levels_);
  return out;
}

Tensor QuantTanh::backward(const Tensor& grad_out) {
  Tensor::check_same_shape(grad_out, cached_tanh_, "QuantTanh::backward");
  // STE through the quantizer; exact derivative of tanh.
  Tensor grad(grad_out.shape());
  const float* g = grad_out.data();
  const float* y = cached_tanh_.data();
  float* o = grad.data();
  for (std::size_t i = 0; i < grad.numel(); ++i)
    o[i] = g[i] * (1.0f - y[i] * y[i]);
  return grad;
}

}  // namespace gbo::quant
