#include "crossbar/mvm_engine.hpp"

#include "common/keyed_normal.hpp"
#include "crossbar/mapper.hpp"
#include "obs/trace.hpp"
#include "tensor/ops.hpp"

namespace gbo::xbar {

MvmEngine::MvmEngine(const Tensor& binary_weight, MvmConfig cfg, Rng rng)
    : cfg_(cfg),
      binary_weight_(binary_weight),
      array_(binary_weight, cfg.device, cfg.tile_cols, rng.fork(1)),
      rng_(rng.fork(2)) {
  scale_ = array_.weight_scale();
  norm_weights_ = normalized_pulse_weights();
}

Tensor MvmEngine::encode_and_snap(const Tensor& activations) const {
  Tensor snapped(activations.shape());
  const float* a = activations.data();
  float* s = snapped.data();
  const std::size_t n = activations.numel();
  const std::size_t pulses = cfg_.spec.num_pulses;
  // Scheme branch hoisted out of the element loop so each arm is a tight,
  // inlinable kernel over the batch.
  if (cfg_.spec.scheme == enc::Scheme::kThermometer) {
    for (std::size_t i = 0; i < n; ++i) s[i] = enc::thermometer_snap(a[i], pulses);
  } else {
    for (std::size_t i = 0; i < n; ++i) s[i] = enc::bit_slicing_snap(a[i], pulses);
  }
  return snapped;
}

enc::PulseTrain MvmEngine::encode_train(const Tensor& activations,
                                        ScratchArena* arena) const {
  if (activations.ndim() != 2)
    throw std::invalid_argument("MvmEngine: expected [N, in] activations, got " +
                                activations.shape_str());
  const std::size_t num_pulses = cfg_.spec.num_pulses;
  GBO_TRACE_SPAN(obs::EventType::kPulseEncode, activations.dim(0),
                 static_cast<std::uint16_t>(num_pulses),
                 num_pulses * activations.numel());
  enc::PulseTrain train;
  train.spec = cfg_.spec;
  train.pulses.reserve(num_pulses);
  for (std::size_t i = 0; i < num_pulses; ++i)
    train.pulses.push_back(arena ? arena->take(activations.shape())
                                 : Tensor(activations.shape()));
  if (cfg_.spec.scheme == enc::Scheme::kThermometer)
    enc::thermometer_encode_into(activations, num_pulses, train.pulses);
  else
    enc::bit_slicing_encode_into(activations, num_pulses, train.pulses);
  return train;
}

std::vector<float> MvmEngine::normalized_pulse_weights() const {
  const auto weights = cfg_.spec.pulse_weights();
  double wsum = 0.0;
  for (double w : weights) wsum += w;
  std::vector<float> w(weights.size());
  for (std::size_t i = 0; i < weights.size(); ++i)
    w[i] = static_cast<float>(weights[i] / wsum);
  return w;
}

Tensor MvmEngine::run_pulse_level(const Tensor& activations) {
  return run_pulse_level(activations, rng_);
}

Tensor MvmEngine::run_pulse_level(const Tensor& activations, Rng& rng,
                                  ScratchArena* arena,
                                  std::span<const std::uint64_t> row_ids) const {
  enc::PulseTrain train = encode_train(activations, arena);
  const std::uint64_t key = rng();
  const std::size_t batch = activations.dim(0);
  const std::size_t groups = row_ids.empty() ? 1 : row_ids.size();
  if (batch % groups != 0)
    throw std::invalid_argument(
        "MvmEngine: row ids do not split the batch evenly");
  const std::size_t out_n = array_.rows();
  // An empty pulse train (num_pulses == 0) contributes no current: the
  // decoded result is exactly zero, not a default-constructed tensor.
  if (train.pulses.empty()) {
    Tensor zero = arena ? arena->take({batch, out_n}) : Tensor({batch, out_n});
    if (arena) zero.fill(0.0f);
    return zero;
  }

  const std::size_t num_pulses = train.pulses.size();
  const std::size_t bn = batch * out_n;
  const bool has_sigma = cfg_.sigma > 0.0;

  // Keyed noise for the whole train, one call per kind, group-major and
  // pulse-major within a group (DESIGN.md §3); with an arena the buffers
  // are bump scratch instead of per-call vectors.
  const std::size_t read_n = num_pulses * array_.read_noise_draws(batch);
  const std::size_t out_noise_n = has_sigma ? num_pulses * bn : 0;
  ArenaFrame frame(arena);
  std::vector<float> read_noise_own, out_noise_own;
  float* read_noise;
  float* out_noise;
  if (arena) {
    read_noise = arena->alloc_floats(read_n);
    out_noise = arena->alloc_floats(out_noise_n);
  } else {
    read_noise_own.resize(read_n);
    out_noise_own.resize(out_noise_n);
    read_noise = read_noise_own.data();
    out_noise = out_noise_own.data();
  }
  if (read_n > 0)
    array_.fill_read_noise(key, row_ids, batch, num_pulses, read_noise);
  if (has_sigma)
    keyed_normal_rows(key, row_ids, out_noise, out_noise_n,
                      static_cast<float>(cfg_.sigma), kOutputNoiseStream);

  const std::vector<float>& w = norm_weights_;

  // One fused batch-major sweep of the weight matrix for all pulses; the
  // sink decodes each element in place (peripheral scale, Eq. 1 noise,
  // weighted pulse sum), so no per-pulse output tensors are ever
  // materialized. Element idx of group g takes pulse p's Eq. 1 noise at
  // g · num_pulses · group_bn + p · group_bn + (idx − g · group_bn).
  Tensor out = arena ? arena->take({batch, out_n}) : Tensor({batch, out_n});
  float* po = out.data();
  const std::size_t group_bn = bn / groups;
  const CrossbarArray::PulseSink decode =
      [&](std::size_t idx, const float* per_pulse) {
        const std::size_t g = idx / group_bn;
        const float* on =
            out_noise + g * (num_pulses - 1) * group_bn + idx;
        float acc = 0.0f;
        for (std::size_t p = 0; p < num_pulses; ++p) {
          float y = per_pulse[p];
          y *= scale_;
          if (has_sigma) y += on[p * group_bn];
          if (p == 0) {
            acc = y * w[0];
          } else {
            acc += w[p] * y;
          }
        }
        po[idx] = acc;
      };
  const float* rn = read_n > 0 ? read_noise : nullptr;
  if (cfg_.shard_cols == 0 || cfg_.shard_cols >= out_n) {
    array_.mvm_pulse_train(train.pulses, rn, groups, decode, 0, out_n);
  } else {
    // Column-sharded execution (DESIGN.md §10): the mapper fixes the shard
    // geometry, each shard is a range-restricted sweep of the same
    // programmed array, and the reduce is the ascending concatenation of
    // disjoint output slices — bitwise equal to the single sweep above.
    TileShape tile;
    tile.cols = cfg_.shard_cols;
    for (const auto& shard : column_shards(out_n, tile))
      array_.mvm_pulse_train(train.pulses, rn, groups, decode, shard.first,
                             shard.second);
  }
  // Return the encode buffers to the worker's pool: after a warm-up
  // request, the pulse path's tensors — encode buffers, noise buffers,
  // output — come entirely from the arena; the only remaining per-request
  // heap touch is the few-byte pulse-handle vector header (DESIGN.md §4).
  if (arena)
    for (Tensor& p : train.pulses) arena->put(std::move(p));
  return out;
}

Tensor MvmEngine::run_analytic(const Tensor& activations) {
  return run_analytic(activations, rng_);
}

Tensor MvmEngine::run_analytic(const Tensor& activations, Rng& rng) const {
  Tensor snapped = encode_and_snap(activations);
  const std::uint64_t key = rng();
  // Expected MVM uses the *effective* (post-programming) weights so the
  // analytic mode reproduces frozen device variation too, then adds the
  // closed-form accumulated Gaussian noise (Eq. 2 / Eq. 3).
  Tensor out = ops::matmul_bt(snapped, array_.effective_weight());
  ops::scale_inplace(out, scale_);
  if (cfg_.sigma > 0.0) {
    const double std = cfg_.sigma * std::sqrt(cfg_.spec.noise_variance_factor());
    add_keyed_normal_rows(key, {}, out.data(), out.numel(),
                          static_cast<float>(std), kOutputNoiseStream);
  }
  return out;
}

Tensor MvmEngine::run_ideal(const Tensor& activations) const {
  return ops::matmul_bt(encode_and_snap(activations), binary_weight_);
}

}  // namespace gbo::xbar
