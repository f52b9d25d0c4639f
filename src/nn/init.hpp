// Weight initialization schemes.
#pragma once

#include "common/rng.hpp"
#include "tensor/tensor.hpp"

namespace gbo::nn {

/// Xavier/Glorot uniform init: U(-a, a) with a = sqrt(6 / (fan_in+fan_out)).
/// Appropriate for Tanh networks (used by the paper's BWNN).
void xavier_uniform(Tensor& w, std::size_t fan_in, std::size_t fan_out, Rng& rng);

}  // namespace gbo::nn
