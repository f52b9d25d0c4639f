// Level-domain binary chain for clean inference (DESIGN.md §8).
//
// In the paper's networks a binary conv's output goes through BatchNorm and
// a 9-level QuantTanh whose result is the next conv's thermometer-coded
// input. With no noise hook attached, the value that enters BN is one of
// the 8k + 1 values scale·(8k − 2P)·0.125f (P: the XNOR popcount), so
// BN + QuantTanh is a per-channel step function over a finite set: 8
// thresholds per channel on the unscaled XNOR output decide the 8 planes
// of the output level. A max-pool over thermometer codes is the bitwise OR
// of the codes. A run of [QuantConv2d, BatchNorm2d, QuantTanh(9),
// MaxPool2d?] blocks therefore runs entirely on pixel planes: XNOR rows ->
// threshold epilogue -> (OR-pool) -> next conv's patch gather, with one
// decode to float NCHW after the last member.
//
// Exact by construction: the threshold table is built by running the
// layers' own BatchNorm2d::infer and QuantTanh::infer over every one of
// the 8k + 1 values, and a channel whose levels are not monotone (or are
// NaN, e.g. running_var + eps < 0) invalidates the table, so the block runs
// module by module instead.
#pragma once

#include "nn/batchnorm.hpp"
#include "quant/act_quant.hpp"
#include "tensor/gemm.hpp"
#include "tensor/gemm_binary.hpp"
#include "tensor/im2col.hpp"

#include <cstdint>
#include <span>
#include <vector>

namespace gbo::quant {

/// One member's fused BN + QuantTanh(9) as gemm::gemm_binary_threshold
/// operands:
/// plane t of channel c is set iff key(u) >= thr[t·stride + c], where u is
/// the unscaled XNOR output (8k − 2P)·0.125f and key flips u's sign bit by
/// flip[c] (set for a channel whose level falls as u grows, e.g. γ < 0).
/// stride = gemm::threshold_stride(C).
struct LevelThresholds {
  std::vector<std::uint32_t> flip;
  std::vector<float> thr;
  bool valid = false;  // false: some channel is non-monotone or NaN
};

/// Exhaustive construction over a conv of patch length k whose outputs are
/// scaled by `scale` when `scaled` (the layer's digital epilogue), then fed
/// to `bn` and `act`. Invalid unless act has 9 levels and every channel's
/// level is a monotone, non-NaN function of u.
LevelThresholds build_level_thresholds(std::size_t k, bool scaled, float scale,
                                       const nn::BatchNorm2d& bn,
                                       const QuantTanh& act);

/// A QuantConv2d's cached threshold table (DESIGN.md §6): rebuilt only when
/// the stamp — the sum of the versions of the conv's latent weight and of
/// BN's γ, β, running mean and running var — moves. Versions only grow, so
/// any mutation of any of the five moves the sum. Thread-safe lazy fill via
/// gemm::VersionGate; copies start cold like BinaryPanelCache.
class ThresholdCache {
 public:
  ThresholdCache() = default;
  ThresholdCache(const ThresholdCache&) {}
  ThresholdCache& operator=(const ThresholdCache&) { return *this; }

  /// The table for (latent, bn, act); nullptr when it is not valid.
  const LevelThresholds* get(const Tensor& latent, std::size_t k, bool scaled,
                             float scale, const nn::BatchNorm2d& bn,
                             const QuantTanh& act) const;

 private:
  gemm::VersionGate gate_;
  mutable LevelThresholds table_;
};

/// One block of a chain: its conv geometry and output channels, the conv's
/// packed sign words (tap-major), its threshold table, and the following
/// max-pool window (1: no pool).
struct ChainMember {
  const ConvGeom* geom = nullptr;
  std::size_t out_c = 0;
  const gemm::PackedBinaryB* bwords = nullptr;
  const LevelThresholds* thresholds = nullptr;
  std::size_t window = 1;
};

/// Runs the members on pixel planes and decodes the last member's planes
/// into `out` (NCHW, from ctx). Every member's output shape must be the next
/// member's input geometry. Returns false, leaving `out` alone, when x does
/// not match the first member's geometry, is an empty batch, or is off the
/// 9-level grid (gemm::pack_binary_pixels) — the caller then runs the
/// modules one at a time.
bool run_level_chain(std::span<const ChainMember> members, const Tensor& x,
                     nn::EvalContext& ctx, Tensor& out);

/// Process-wide count of chains run (run_level_chain returning true);
/// tests diff it to prove a network took, or did not take, the chain.
std::uint64_t level_chain_count();

}  // namespace gbo::quant
