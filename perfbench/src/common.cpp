#include "common.hpp"

#include "data/synth_cifar.hpp"
#include "tensor/ops.hpp"

#include <algorithm>
#include <cmath>

namespace perfbench {

using namespace gbo;

double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(v.size())));
  return v[std::clamp<std::size_t>(rank, 1, v.size()) - 1];
}

bool bitwise_equal(const Tensor& a, const Tensor& b) {
  if (a.shape() != b.shape()) return false;
  for (std::size_t i = 0; i < a.numel(); ++i)
    if (a[i] != b[i]) return false;
  return true;
}

bool rows_equal(const Tensor& a, std::size_t ra, const Tensor& b,
                std::size_t rb) {
  const std::size_t cols = a.dim(1);
  if (b.dim(1) != cols) return false;
  for (std::size_t c = 0; c < cols; ++c)
    if (a[ra * cols + c] != b[rb * cols + c]) return false;
  return true;
}

Tensor random_tensor(std::vector<std::size_t> shape, std::uint64_t seed) {
  Rng rng(seed);
  Tensor t(std::move(shape));
  ops::fill_uniform(t, rng, -1.0f, 1.0f);
  return t;
}

data::Dataset synth_images(std::size_t n, std::uint64_t seed) {
  data::SynthCifarConfig cfg;
  cfg.seed = seed;
  return data::make_synth_cifar(cfg, n, /*stream=*/seed);
}

data::Dataset slice(const data::Dataset& ds, std::size_t first,
                    std::size_t n) {
  data::Dataset out;
  std::vector<std::size_t> shape = ds.images.shape();
  shape[0] = n;
  out.images = Tensor(shape);
  const std::size_t per = ds.sample_numel();
  std::copy(ds.images.data() + first * per,
            ds.images.data() + (first + n) * per, out.images.data());
  out.labels.assign(ds.labels.begin() + static_cast<std::ptrdiff_t>(first),
                    ds.labels.begin() + static_cast<std::ptrdiff_t>(first + n));
  return out;
}

std::vector<serve::Arrival> saturated(std::vector<serve::Arrival> trace) {
  for (auto& a : trace) a.t_us = 0;
  return trace;
}

models::Vgg9 build_vgg9() {
  models::Vgg9 vgg = models::build_vgg9(models::Vgg9Config{});
  vgg.net->set_training(false);
  return vgg;
}

FleetModel build_fleet_model() {
  models::MlpConfig cfg;
  cfg.in_features = 24;
  cfg.hidden = {32, 32};  // fc2 crossbar-encoded: real pulse execution
  cfg.num_classes = 10;
  cfg.seed = 21;
  FleetModel m{models::build_mlp(cfg), nullptr};
  m.mlp.net->set_training(false);
  xbar::HwDeployConfig hw;
  hw.sigma = 0.5;
  hw.device.read_noise_sigma = 0.05;
  hw.device.adc_bits = 8;
  hw.device.program_variation = 0.05;
  hw.shard_cols = 16;
  m.hw = std::make_unique<xbar::HardwareNetwork>(*m.mlp.net, m.mlp.encoded,
                                                 hw);
  return m;
}

data::Dataset fleet_dataset(std::uint64_t seed) {
  data::Dataset ds;
  ds.images = random_tensor({128, 24}, seed);
  ds.labels.assign(128, 0);
  return ds;
}

serve::BatchPolicy batch_policy() {
  serve::BatchPolicy p;
  p.max_batch = 8;
  p.max_wait_us = 200;
  return p;
}

std::vector<serve::Arrival> poisson_trace(std::size_t n, double rps,
                                          std::size_t ds_size,
                                          std::uint64_t seed) {
  serve::TrafficConfig t;
  t.num_requests = n;
  t.rate_rps = rps;
  t.seed = seed;
  return serve::make_trace(t, ds_size);
}

std::vector<serve::Arrival> flash_trace(std::size_t n, std::size_t ds_size,
                                        std::uint64_t seed) {
  serve::TrafficConfig t;
  t.num_requests = n;
  t.rate_rps = 1500.0;
  t.shape = serve::TraceShape::kFlashCrowd;
  t.flash_factor = 14.0;
  t.flash_start_s = 1.0;
  // A short spike (about 5% of the requests): the tail past p95 is the
  // spike's backlog, while p50/p90 stay in base traffic.
  t.flash_ramp_s = 0.005;
  t.flash_hold_s = 0.01;
  t.high_fraction = 0.2;
  t.low_fraction = 0.3;
  t.seed = seed;
  return serve::make_trace(t, ds_size);
}

serve::ServeConfig fleet_config() {
  serve::ServeConfig cfg;
  cfg.batch = batch_policy();
  cfg.num_workers = 1;  // per replica: 3 replicas = 3 serving workers
  cfg.seed = 29;
  cfg.slo.enabled = true;
  cfg.slo.deadline_us = kFleetDeadlineUs;
  // The cost model is sized so the planner degrades under the spike but
  // never sheds: every request is served (primary or analytic fallback),
  // and the deadline is judged on the real clock by slo_ok_share.
  cfg.slo.cost.batch_fixed_us = 20;
  cfg.slo.cost.primary_us = 60;
  cfg.slo.cost.degraded_us = 15;
  cfg.slo.cost.retry_penalty_us = 0;
  cfg.slo.completion_headroom_us = 1000;  // >= worst batch 20 + 8 * 60
  cfg.slo.ladder.degrade_depth = 16;
  cfg.slo.ladder.shed_depth = std::size_t{1} << 30;
  cfg.slo.ladder.recover_depth = 4;
  return cfg;
}

serve::RouterPolicy fleet_router() {
  serve::RouterPolicy r;
  r.strategy = serve::RouterPolicy::Strategy::kHash;
  r.seed = 71;
  r.min_replicas = kFleetReplicas;
  // Replica 1 is down for the whole run (fault id == replica index).
  r.fault.enabled = true;
  r.fault.outage_start_id = 1;
  r.fault.outage_len = 1;
  return r;
}

}  // namespace perfbench
