// Two-mode crossbar MVM engine.
//
// Pulse-level mode is the ground-truth simulation: activations are encoded
// into bipolar pulse trains, one crossbar read is issued per pulse with
// fresh N(0, σ²) output noise, and the weighted pulse results are decoded.
// Analytic mode computes the identical expected result (MVM of the snapped
// activations, scaled by the digital weight scale) plus one Gaussian sample
// with the closed-form accumulated variance — the distribution the paper
// derives in Eq. 2–4. test_mvm_equivalence.cpp verifies the two modes agree
// in mean and variance for both encodings across pulse counts.
#pragma once

#include "crossbar/crossbar_array.hpp"
#include "crossbar/noise_model.hpp"
#include "encoding/bit_slicing.hpp"
#include "encoding/thermometer.hpp"
#include "tensor/arena.hpp"

#include <cstdint>
#include <span>

namespace gbo::xbar {

struct MvmConfig {
  enc::EncodingSpec spec;         // encoding for streaming the activations
  double sigma = 0.0;             // per-pulse output noise std (Eq. 1)
  DeviceConfig device;            // device non-idealities (default ideal)
  std::size_t tile_cols = 128;    // crossbar tile width
  /// Output-axis (bit-line) shard width for the pulse path: layers wider
  /// than this run as a fixed ascending sequence of column shards (one per
  /// mapper column-tile, xbar::column_shards), each a range-restricted
  /// crossbar sweep writing its disjoint output slice. Bitwise identical to
  /// the unsharded sweep — every element's arithmetic and noise lookup is
  /// keyed by global coordinates. 0 disables sharding.
  std::size_t shard_cols = 0;
};

class MvmEngine {
 public:
  /// Programs a crossbar from the binary weight [out, in] (entries ±s).
  /// `rng` seeds both programming-time variation and read-time noise.
  MvmEngine(const Tensor& binary_weight, MvmConfig cfg, Rng rng);

  /// The Eq. 1 output noise and run_analytic's accumulated noise are the
  /// normals of a call's key on this stream (the read noise uses
  /// CrossbarArray::kReadNoiseStream of the same key).
  static constexpr std::uint32_t kOutputNoiseStream = 0;

  /// Ground truth: pulse-level execution. activations: [N, in] values in
  /// [-1, 1]; returns [N, out] decoded currents scaled back to the weight
  /// domain (times s), fused batch-major (one weight-matrix sweep per batch
  /// row for the whole pulse train) at any thread count. An empty pulse
  /// train yields an explicit zero [N, out] result.
  ///
  /// Keyed noise (DESIGN.md §3): each call takes one key from `rng`. With
  /// empty `row_ids` the batch is one group under that key; otherwise it
  /// splits into row_ids.size() equal row groups (a conv layer's per-sample
  /// patch rows), group j keyed by row_key(key, row_ids[j]), so a group's
  /// result is bitwise that of running it alone with {row_ids[j]}. Within
  /// a group, pulse p's read noise and Eq. 1 noise are the normals at
  /// p · len + i of their stream, len being the group's per-pulse count,
  /// so tests/oracles/pulse_oracle.cpp replays the call one crossbar read
  /// per pulse through the public API. Throws std::invalid_argument when
  /// the ids do not split the batch evenly.
  ///
  /// Const and shared-safe: the frozen device state is read-only, so
  /// distinct generators may run concurrently over one programmed array.
  /// The noise buffers and the output recycle through `arena` when given
  /// (bitwise identical with and without one). The mutable overload draws
  /// its key from the engine-owned stream.
  Tensor run_pulse_level(const Tensor& activations);
  Tensor run_pulse_level(const Tensor& activations, Rng& rng,
                         ScratchArena* arena = nullptr,
                         std::span<const std::uint64_t> row_ids = {}) const;

  /// Fast path: exact expected MVM plus the accumulated Gaussian noise,
  /// keyed by one draw of `rng`.
  Tensor run_analytic(const Tensor& activations);
  Tensor run_analytic(const Tensor& activations, Rng& rng) const;

  /// Noise-free reference (snapped activations, ideal weights).
  Tensor run_ideal(const Tensor& activations) const;

  const MvmConfig& config() const { return cfg_; }
  const CrossbarArray& array() const { return array_; }

 private:
  Tensor encode_and_snap(const Tensor& activations) const;
  /// Validates [N, in] shape and encodes per the configured scheme. With an
  /// arena, the pulse tensors are recycled through its pool (run_pulse_level
  /// puts them back after the fused sweep) — the encode buffers were the
  /// pulse path's last per-request tensor allocations (DESIGN.md §4).
  enc::PulseTrain encode_train(const Tensor& activations,
                               ScratchArena* arena = nullptr) const;
  /// Per-pulse decode weights w_i / Σ w_i as float.
  std::vector<float> normalized_pulse_weights() const;

  MvmConfig cfg_;
  Tensor binary_weight_;  // ±s as given
  float scale_ = 1.0f;
  CrossbarArray array_;
  Rng rng_;
  // Decode weights cached at construction (cfg_ is frozen after): the
  // pulse hot path must not re-derive them per request.
  std::vector<float> norm_weights_;
};

}  // namespace gbo::xbar
