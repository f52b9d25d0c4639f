#include "crossbar/crossbar_array.hpp"

#include "common/keyed_normal.hpp"
#include "common/thread_pool.hpp"
#include "crossbar/ir_solver.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace gbo::xbar {

CrossbarArray::CrossbarArray(const Tensor& binary_weight, DeviceConfig cfg,
                             std::size_t tile_cols, Rng rng)
    : cfg_(cfg) {
  if (binary_weight.ndim() != 2)
    throw std::invalid_argument("CrossbarArray: weight must be 2D");
  out_ = binary_weight.dim(0);
  in_ = binary_weight.dim(1);
  tile_cols_ = tile_cols == 0 ? in_ : tile_cols;
  num_tiles_ = (in_ + tile_cols_ - 1) / tile_cols_;

  // Recover and validate the binary scale: all entries must be ±s.
  scale_ = std::fabs(binary_weight[0]);
  if (scale_ == 0.0f)
    throw std::invalid_argument("CrossbarArray: weight entries must be nonzero");
  for (std::size_t i = 0; i < binary_weight.numel(); ++i) {
    const float a = std::fabs(binary_weight[i]);
    if (std::fabs(a - scale_) > 1e-6f * scale_)
      throw std::invalid_argument("CrossbarArray: weight is not binary (±s)");
  }

  eff_weight_ = Tensor({out_, in_});

  if (cfg_.mapping == WeightMapping::kOffset) {
    if (cfg_.g_on <= cfg_.g_off)
      throw std::invalid_argument(
          "CrossbarArray: offset mapping requires g_on > g_off");
    if (cfg_.wire_resistance > 0.0)
      throw std::invalid_argument(
          "CrossbarArray: the nodal IR solver supports differential mapping "
          "only; use ir_drop_alpha with offset mapping");
    // One cell per weight plus one shared mid-conductance reference cell
    // per input line (the tile's reference column). Draw order: main array
    // row-major, then the reference cells — pinned so seeds reproduce.
    raw_g_ = Tensor({out_, in_});
    ref_g_ = Tensor({in_});
    for (std::size_t o = 0; o < out_; ++o) {
      for (std::size_t j = 0; j < in_; ++j) {
        const bool positive = binary_weight.at(o, j) >= 0.0f;
        raw_g_.at(o, j) = static_cast<float>(
            program_cell(cfg_, positive ? cfg_.g_on : cfg_.g_off, rng));
      }
    }
    const double g_mid = 0.5 * (cfg_.g_on + cfg_.g_off);
    for (std::size_t j = 0; j < in_; ++j)
      ref_g_[j] = static_cast<float>(program_cell(cfg_, g_mid, rng));

    // Fold wire parasitics into the programmed conductances. The offset
    // path uses the per-cell attenuation model for both knobs (the nodal
    // solver's superposition trick extracts a *differential* equivalent
    // weight; for a single-polarity array the first-order per-cell factor
    // is the appropriate granularity).
    for (std::size_t j = 0; j < in_; ++j) {
      const double ir = ir_drop_factor(cfg_, j % tile_cols_, tile_cols_);
      ref_g_[j] = static_cast<float>(ref_g_[j] * ir);
      for (std::size_t o = 0; o < out_; ++o)
        raw_g_.at(o, j) = static_cast<float>(raw_g_.at(o, j) * ir);
    }

    // Sign-domain equivalent weight: (G − G_ref) · 2/(g_on − g_off).
    const double k = 2.0 / (cfg_.g_on - cfg_.g_off);
    for (std::size_t o = 0; o < out_; ++o)
      for (std::size_t j = 0; j < in_; ++j)
        eff_weight_.at(o, j) = static_cast<float>(
            (static_cast<double>(raw_g_.at(o, j)) - ref_g_[j]) * k);
    return;
  }

  // Differential mapping: program both polarity arrays cell-by-cell
  // (device-to-device variation, faults, drift are frozen here, as on real
  // hardware).
  Tensor g_plus({out_, in_}), g_minus({out_, in_});
  for (std::size_t o = 0; o < out_; ++o) {
    for (std::size_t j = 0; j < in_; ++j) {
      const bool positive = binary_weight.at(o, j) >= 0.0f;
      g_plus.at(o, j) = static_cast<float>(
          program_cell(cfg_, positive ? cfg_.g_on : cfg_.g_off, rng));
      g_minus.at(o, j) = static_cast<float>(
          program_cell(cfg_, positive ? cfg_.g_off : cfg_.g_on, rng));
    }
  }

  if (cfg_.wire_resistance > 0.0) {
    // Exact wire-parasitic model: solve the resistive network per tile and
    // fold the result into the equivalent weight (see crossbar/ir_solver).
    IrSolverConfig ir_cfg;
    ir_cfg.r_wire = cfg_.wire_resistance;
    for (std::size_t t = 0; t < num_tiles_; ++t) {
      const std::size_t j0 = t * tile_cols_;
      const std::size_t j1 = std::min(j0 + tile_cols_, in_);
      const std::size_t width = j1 - j0;
      // Physical layout: driven word lines = the fan-in slice (rows of the
      // solver), collecting bit lines = the outputs (cols of the solver).
      Tensor gp({width, out_}), gm({width, out_});
      for (std::size_t j = j0; j < j1; ++j) {
        for (std::size_t o = 0; o < out_; ++o) {
          gp.at(j - j0, o) = g_plus.at(o, j);
          gm.at(j - j0, o) = g_minus.at(o, j);
        }
      }
      const Tensor eff_tile = ir_equivalent_weight(gp, gm, ir_cfg);  // [out, width]
      for (std::size_t o = 0; o < out_; ++o)
        for (std::size_t j = j0; j < j1; ++j)
          eff_weight_.at(o, j) = eff_tile.at(o, j - j0);
    }
  } else {
    for (std::size_t o = 0; o < out_; ++o) {
      for (std::size_t j = 0; j < in_; ++j) {
        const double ir = ir_drop_factor(cfg_, j % tile_cols_, tile_cols_);
        eff_weight_.at(o, j) = static_cast<float>(
            (static_cast<double>(g_plus.at(o, j)) - g_minus.at(o, j)) * ir);
      }
    }
  }
}

Tensor CrossbarArray::mvm_pulse(const Tensor& x, Rng& rng) const {
  return mvm_pulse(x, rng(), 0);
}

Tensor CrossbarArray::mvm_pulse(const Tensor& x, std::uint64_t key,
                                std::uint64_t first) const {
  if (x.ndim() != 2 || x.dim(1) != in_)
    throw std::invalid_argument("CrossbarArray::mvm_pulse: bad input " +
                                x.shape_str());
  const std::size_t batch = x.dim(0);
  Tensor out({batch, out_});
  std::vector<float> noise(read_noise_draws(batch));
  keyed_normal(key, first, noise.data(), noise.size(),
               static_cast<float>(cfg_.read_noise_sigma), kReadNoiseStream);
  const float* rn = noise.data();

  if (cfg_.mapping == WeightMapping::kOffset) {
    // Offset read-out: per tile, one reference-column read shared by every
    // output line (its noise/ADC error is common-mode across the tile's
    // outputs), one read per output column, digital subtraction, then the
    // 2/(g_on − g_off) decode that doubles every periphery error relative
    // to the differential mapping's full-swing read.
    const double k = 2.0 / (cfg_.g_on - cfg_.g_off);
    const double auto_fs = static_cast<double>(tile_cols_) * cfg_.g_on;
    for (std::size_t n = 0; n < batch; ++n) {
      const float* xv = x.data() + n * in_;
      float* ov = out.data() + n * out_;
      for (std::size_t o = 0; o < out_; ++o) ov[o] = 0.0f;
      for (std::size_t t = 0; t < num_tiles_; ++t) {
        const std::size_t j0 = t * tile_cols_;
        const std::size_t j1 = std::min(j0 + tile_cols_, in_);
        double ref_current = 0.0;
        for (std::size_t j = j0; j < j1; ++j)
          ref_current += static_cast<double>(ref_g_[j]) * xv[j];
        if (cfg_.read_noise_sigma > 0.0) ref_current += *rn++;
        ref_current = adc_quantize(cfg_, ref_current, auto_fs);
        for (std::size_t o = 0; o < out_; ++o) {
          const float* grow = raw_g_.data() + o * in_;
          double current = 0.0;
          for (std::size_t j = j0; j < j1; ++j)
            current += static_cast<double>(grow[j]) * xv[j];
          if (cfg_.read_noise_sigma > 0.0) current += *rn++;
          current = adc_quantize(cfg_, current, auto_fs);
          ov[o] += static_cast<float>((current - ref_current) * k);
        }
      }
    }
    return out;
  }

  // ADC full scale defaults to the tile's worst-case current (all cells on).
  const double auto_fs = static_cast<double>(tile_cols_) * (cfg_.g_on - cfg_.g_off);

  for (std::size_t n = 0; n < batch; ++n) {
    const float* xv = x.data() + n * in_;
    float* ov = out.data() + n * out_;
    for (std::size_t o = 0; o < out_; ++o) {
      const float* wrow = eff_weight_.data() + o * in_;
      double total = 0.0;
      for (std::size_t t = 0; t < num_tiles_; ++t) {
        const std::size_t j0 = t * tile_cols_;
        const std::size_t j1 = std::min(j0 + tile_cols_, in_);
        double current = 0.0;
        for (std::size_t j = j0; j < j1; ++j)
          current += static_cast<double>(wrow[j]) * xv[j];
        if (cfg_.read_noise_sigma > 0.0) current += *rn++;
        total += adc_quantize(cfg_, current, auto_fs);
      }
      ov[o] = static_cast<float>(total);
    }
  }
  return out;
}

std::size_t CrossbarArray::read_noise_draws(std::size_t batch) const {
  if (cfg_.read_noise_sigma <= 0.0) return 0;
  // Differential: one normal per (row, output, tile); offset: one per
  // (row, tile) for the reference column plus one per (row, tile, output).
  return cfg_.mapping == WeightMapping::kOffset
             ? batch * num_tiles_ * (1 + out_)
             : batch * out_ * num_tiles_;
}

void CrossbarArray::fill_read_noise(std::uint64_t key,
                                    std::span<const std::uint64_t> row_ids,
                                    std::size_t batch, std::size_t pulses,
                                    float* buf) const {
  keyed_normal_rows(key, row_ids, buf, pulses * read_noise_draws(batch),
                    static_cast<float>(cfg_.read_noise_sigma),
                    kReadNoiseStream);
}

void CrossbarArray::mvm_pulse_train(const std::vector<Tensor>& pulses,
                                    const float* read_noise,
                                    std::size_t num_groups,
                                    const PulseSink& sink, std::size_t o_begin,
                                    std::size_t o_end) const {
  if (o_begin >= o_end || o_end > out_)
    throw std::invalid_argument(
        "CrossbarArray::mvm_pulse_train: bad output range");
  const std::size_t span = o_end - o_begin;
  const std::size_t num_pulses = pulses.size();
  if (num_pulses == 0) return;
  const std::size_t batch = pulses[0].ndim() == 2 ? pulses[0].dim(0) : 0;
  for (const Tensor& x : pulses)
    if (x.ndim() != 2 || x.dim(1) != in_ || x.dim(0) != batch)
      throw std::invalid_argument("CrossbarArray::mvm_pulse_train: bad pulse " +
                                  x.shape_str());
  if (batch == 0) return;
  if (num_groups == 0 || batch % num_groups != 0)
    throw std::invalid_argument(
        "CrossbarArray::mvm_pulse_train: bad row group count");
  const bool noisy = cfg_.read_noise_sigma > 0.0;
  if (noisy && read_noise == nullptr)
    throw std::invalid_argument(
        "CrossbarArray::mvm_pulse_train: read noise enabled but no draws "
        "provided");

  std::vector<const float*> xs(num_pulses);
  for (std::size_t p = 0; p < num_pulses; ++p) xs[p] = pulses[p].data();
  // Row n's read noise for pulse p sits at row_noise(n) + p · stride
  // (fill_read_noise's group-major layout).
  const std::size_t group_rows = batch / num_groups;
  const std::size_t per_row = read_noise_draws(1);
  const std::size_t stride = group_rows * per_row;  // draws per group pulse
  auto row_noise = [&](std::size_t n) {
    const std::size_t g = n / group_rows;
    return read_noise + g * num_pulses * stride + (n - g * group_rows) * per_row;
  };

  if (cfg_.mapping == WeightMapping::kOffset) {
    // Batch-major fusion of the offset read-out: per row, walk the raw
    // conductance matrix once and read every pulse against the resident
    // tile. Arithmetic per (pulse, row, output, tile) is ordered exactly as
    // in mvm_pulse, so the values streamed to the sink match it bitwise.
    const double k = 2.0 / (cfg_.g_on - cfg_.g_off);
    const double auto_fs = static_cast<double>(tile_cols_) * cfg_.g_on;
    parallel_for(0, batch, 1, [&](std::size_t lo, std::size_t hi) {
      std::vector<double> ref_current(num_pulses);
      // Per-row float accumulators [span][num_pulses]: the reference path
      // accumulates each output in float across tiles, so the scratch must
      // too for bitwise agreement. A shard recomputes the tile's shared
      // reference read (same inputs, same noise slot) rather than sharing
      // it across shards — identical values either way.
      std::vector<float> row_acc(span * num_pulses);
      for (std::size_t n = lo; n < hi; ++n) {
        std::fill(row_acc.begin(), row_acc.end(), 0.0f);
        const float* rn = noisy ? row_noise(n) : nullptr;
        for (std::size_t t = 0; t < num_tiles_; ++t) {
          const std::size_t j0 = t * tile_cols_;
          const std::size_t j1 = std::min(j0 + tile_cols_, in_);
          const std::size_t noise_base =
              t * (1 + out_);  // [ref, out0, out1, ...]
          for (std::size_t p = 0; p < num_pulses; ++p) {
            const float* xv = xs[p] + n * in_;
            double rc = 0.0;
            for (std::size_t j = j0; j < j1; ++j)
              rc += static_cast<double>(ref_g_[j]) * xv[j];
            if (noisy) rc += rn[p * stride + noise_base];
            ref_current[p] = adc_quantize(cfg_, rc, auto_fs);
          }
          for (std::size_t o = o_begin; o < o_end; ++o) {
            const float* grow = raw_g_.data() + o * in_;
            for (std::size_t p = 0; p < num_pulses; ++p) {
              const float* xv = xs[p] + n * in_;
              double current = 0.0;
              for (std::size_t j = j0; j < j1; ++j)
                current += static_cast<double>(grow[j]) * xv[j];
              if (noisy) current += rn[p * stride + noise_base + 1 + o];
              current = adc_quantize(cfg_, current, auto_fs);
              row_acc[(o - o_begin) * num_pulses + p] +=
                  static_cast<float>((current - ref_current[p]) * k);
            }
          }
        }
        for (std::size_t o = o_begin; o < o_end; ++o)
          sink(n * out_ + o, row_acc.data() + (o - o_begin) * num_pulses);
      }
    });
    return;
  }

  // Differential mapping: every (row, output) pair is independent, so the
  // flattened index space threads freely; per pair, each weight-row tile is
  // loaded once (L1-resident) and dotted against every pulse before moving
  // on — one weight-matrix sweep per row instead of one per (row, pulse).
  const double auto_fs =
      static_cast<double>(tile_cols_) * (cfg_.g_on - cfg_.g_off);
  const std::size_t work = in_ * num_pulses;  // flops per (row, output) pair
  const std::size_t grain = std::max<std::size_t>(1, 16384 / std::max<std::size_t>(work, 1));
  parallel_for(0, batch * span, grain, [&](std::size_t lo, std::size_t hi) {
    std::vector<double> total(num_pulses);
    std::vector<float> element(num_pulses);
    for (std::size_t i = lo; i < hi; ++i) {
      const std::size_t n = i / span;
      const std::size_t o = o_begin + i % span;
      const std::size_t idx = n * out_ + o;
      const float* wrow = eff_weight_.data() + o * in_;
      const float* rn = noisy ? row_noise(n) + o * num_tiles_ : nullptr;
      std::fill(total.begin(), total.end(), 0.0);
      for (std::size_t t = 0; t < num_tiles_; ++t) {
        const std::size_t j0 = t * tile_cols_;
        const std::size_t j1 = std::min(j0 + tile_cols_, in_);
        for (std::size_t p = 0; p < num_pulses; ++p) {
          const float* xv = xs[p] + n * in_;
          double current = 0.0;
          for (std::size_t j = j0; j < j1; ++j)
            current += static_cast<double>(wrow[j]) * xv[j];
          if (noisy) current += rn[p * stride + t];
          total[p] += adc_quantize(cfg_, current, auto_fs);
        }
      }
      for (std::size_t p = 0; p < num_pulses; ++p)
        element[p] = static_cast<float>(total[p]);
      sink(idx, element.data());
    }
  });
}

}  // namespace gbo::xbar
