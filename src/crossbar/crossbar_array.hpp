// Tiled binary memristive crossbar array.
//
// A weight matrix W ∈ {-s, +s}^{out × in} is mapped onto differential
// conductance pairs: weight +s -> (G+ = g_on, G- = g_off), weight -s ->
// (G+ = g_off, G- = g_on). The column current for input voltage vector v is
// I_out = Σ_j (G+_{oj} - G-_{oj}) · v_j, so with ideal devices the array
// computes sign(W)·v exactly; the digital scale s and any decode
// normalization are applied by the peripheral (this class reports raw
// sign-domain currents).
//
// Arrays wider than `tile_cols` are split into column tiles whose partial
// currents are summed digitally after the per-tile ADC — the standard
// bit-partitioned mapping (ISAAC, PRIME).
#pragma once

#include "crossbar/device_model.hpp"
#include "tensor/tensor.hpp"

#include <cstdint>
#include <functional>
#include <span>

namespace gbo::xbar {

class CrossbarArray {
 public:
  /// Programs the array from a binary weight matrix [out, in]; entries must
  /// be ±s for a single s (validated). Device non-idealities are sampled
  /// once at programming time (device-to-device variation is frozen, as on
  /// real hardware).
  CrossbarArray(const Tensor& binary_weight, DeviceConfig cfg,
                std::size_t tile_cols, Rng rng);

  std::size_t rows() const { return out_; }   // output lines
  std::size_t cols() const { return in_; }    // input lines
  std::size_t num_tiles() const { return num_tiles_; }

  /// Read noise is keyed (common/keyed_normal.hpp): the normals of a key
  /// on stream kReadNoiseStream, one per (row, output, tile) for
  /// differential mapping and one per (row, tile) reference read plus one
  /// per (row, tile, output) for offset mapping, in that order.
  static constexpr std::uint32_t kReadNoiseStream = 1;

  /// Computes output currents for a batch of bipolar input vectors
  /// x: [N, in], entries in {-1, +1} (one pulse). Applies read noise and
  /// per-tile ADC per the device config; the read noise is normals
  /// [first, first + read_noise_draws(N)) of `key`. This is the scalar
  /// reference path; the fused mvm_pulse_train below is the fast path and
  /// must stay bitwise equivalent to it (tests/test_mvm_equivalence.cpp).
  Tensor mvm_pulse(const Tensor& x, std::uint64_t key,
                   std::uint64_t first = 0) const;
  /// mvm_pulse keyed by one draw of `rng`.
  Tensor mvm_pulse(const Tensor& x, Rng& rng) const;

  /// Number of read-noise normals mvm_pulse uses for one pulse of a batch
  /// of `batch` rows (0 when read noise is disabled).
  std::size_t read_noise_draws(std::size_t batch) const;

  /// Fills buf[0 .. pulses · read_noise_draws(batch)) with the read noise
  /// of a `pulses`-long train, split into row_ids.size() equal row groups
  /// (one group when empty, DESIGN.md §3): group j's slice is keyed by
  /// row_key(key, row_ids[j]) and laid out pulse-major, pulse p's draws for
  /// the group's rows at p · read_noise_draws(rows) in mvm_pulse's order.
  /// For one group, pulse p's slice is what mvm_pulse(x, key, p ·
  /// read_noise_draws(batch)) draws.
  void fill_read_noise(std::uint64_t key, std::span<const std::uint64_t> row_ids,
                       std::size_t batch, std::size_t pulses, float* buf) const;

  /// Per-element consumer for mvm_pulse_train: `idx` = n * rows() + o, and
  /// `per_pulse[p]` is exactly the value mvm_pulse(pulses[p], ...) would
  /// store at that element. May be invoked concurrently for distinct idx.
  using PulseSink =
      std::function<void(std::size_t idx, const float* per_pulse)>;

  /// Fused multi-pulse MVM over output lines [o_begin, o_end): computes
  /// mvm_pulse for every pulse tensor in `pulses` (each [N, in]) in a
  /// single batch-major sweep of the weight matrix — each weight tile is
  /// loaded once and accumulated against all pulses while register/cache
  /// resident, instead of once per pulse — and streams each element's
  /// per-pulse results to `sink` (global element indices) instead of
  /// materializing pulses.size() output tensors. `read_noise` must be null
  /// when read noise is disabled, else hold fill_read_noise's buffer for
  /// `num_groups` row groups. Every element's computation and noise lookup
  /// is keyed by its global coordinates, so a sharded sweep (ascending
  /// disjoint ranges, see xbar::column_shards) is bitwise identical to the
  /// full range, and the values handed to the sink are bitwise those of
  /// mvm_pulse with the same noise, at any thread count.
  void mvm_pulse_train(const std::vector<Tensor>& pulses,
                       const float* read_noise, std::size_t num_groups,
                       const PulseSink& sink, std::size_t o_begin,
                       std::size_t o_end) const;

  /// The effective (post-programming) weight the array realizes in the
  /// sign domain: (G+ − G−) for differential mapping, (G − G_ref) ·
  /// 2/(g_on − g_off) for offset mapping, with IR-drop folded in. Equals
  /// sign(W) for ideal devices under either mapping.
  const Tensor& effective_weight() const { return eff_weight_; }

  /// The digital scale s recovered from the programmed matrix.
  float weight_scale() const { return scale_; }

  WeightMapping mapping() const { return cfg_.mapping; }

 private:
  std::size_t out_ = 0, in_ = 0;
  std::size_t tile_cols_ = 0, num_tiles_ = 0;
  DeviceConfig cfg_;
  float scale_ = 1.0f;
  Tensor eff_weight_;  // [out, in] sign-domain equivalent weight
  // Offset mapping only: raw programmed conductances and the per-tile
  // shared reference cells (one mid-level cell per input line).
  Tensor raw_g_;       // [out, in]
  Tensor ref_g_;       // [in]
};

}  // namespace gbo::xbar
