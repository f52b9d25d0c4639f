#include "nn/init.hpp"

#include "tensor/ops.hpp"

#include <cmath>

namespace gbo::nn {

void xavier_uniform(Tensor& w, std::size_t fan_in, std::size_t fan_out, Rng& rng) {
  const float a = std::sqrt(6.0f / static_cast<float>(fan_in + fan_out));
  ops::fill_uniform(w, rng, -a, a);
}

}  // namespace gbo::nn
