// Scalar pulse-level reference for MvmEngine::run_pulse_level: one crossbar
// read per pulse through the engine's public API. Test-only; nothing in
// the library links it.
#pragma once

#include "crossbar/mvm_engine.hpp"

namespace gbo::xbar {

/// What engine.run_pulse_level(activations, rng) returns, computed one
/// pulse at a time: the same key (one draw of `rng`), pulse p's read noise
/// and Eq. 1 noise at p · len + i of their streams, and the same float
/// operations in the same order.
Tensor pulse_level_reference(const MvmEngine& engine, const Tensor& activations,
                             Rng& rng);

}  // namespace gbo::xbar
