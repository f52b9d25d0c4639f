// Serving runtime: traffic determinism, micro-batcher flush rules, the
// end-to-end (seed, trace) payload determinism contract at any worker count
// and batching boundary (both backends, including an independent
// straight-line oracle), steady-state arena accounting, and the degenerate
// -input guards.
#include "common/thread_pool.hpp"
#include "crossbar/crossbar_layers.hpp"
#include "crossbar/hw_deploy.hpp"
#include "models/mlp.hpp"
#include "models/vgg9.hpp"
#include "serve/server.hpp"
#include "tensor/ops.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>

namespace gbo {
namespace {

struct ThreadGuard {
  std::size_t saved = ThreadPool::instance().num_threads();
  ~ThreadGuard() { ThreadPool::instance().set_num_threads(saved); }
};

Tensor random_tensor(std::vector<std::size_t> shape, std::uint64_t seed) {
  Rng rng(seed);
  Tensor t(std::move(shape));
  ops::fill_uniform(t, rng, -1.0f, 1.0f);
  return t;
}

data::Dataset random_dataset(std::size_t n, std::size_t features,
                             std::uint64_t seed) {
  data::Dataset ds;
  ds.images = random_tensor({n, features}, seed);
  ds.labels.assign(n, 0);
  return ds;
}

void expect_bitwise_equal(const Tensor& a, const Tensor& b) {
  ASSERT_EQ(a.shape(), b.shape());
  for (std::size_t i = 0; i < a.numel(); ++i) ASSERT_EQ(a[i], b[i]) << "i=" << i;
}

// ---- traffic generator ----------------------------------------------------

TEST(ServeTraffic, TraceIsDeterministicAndMonotone) {
  serve::TrafficConfig cfg;
  cfg.num_requests = 200;
  cfg.rate_rps = 5000.0;
  cfg.seed = 3;
  const auto a = serve::make_trace(cfg, 64);
  const auto b = serve::make_trace(cfg, 64);
  ASSERT_EQ(a.size(), 200u);
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].t_us, b[i].t_us);
    EXPECT_EQ(a[i].sample, b[i].sample);
    EXPECT_LT(a[i].sample, 64u);
    if (i > 0) {
      EXPECT_GE(a[i].t_us, a[i - 1].t_us);
    }
  }
  cfg.seed = 4;
  const auto c = serve::make_trace(cfg, 64);
  bool differs = false;
  for (std::size_t i = 0; i < a.size(); ++i)
    differs = differs || a[i].t_us != c[i].t_us;
  EXPECT_TRUE(differs);
}

TEST(ServeTraffic, BurstsCompressTheTrace) {
  serve::TrafficConfig cfg;
  cfg.num_requests = 500;
  cfg.rate_rps = 2000.0;
  cfg.seed = 5;
  const auto steady = serve::make_trace(cfg, 16);
  cfg.burst_factor = 4.0;
  cfg.burst_duty = 0.5;
  cfg.burst_period_s = 0.02;
  const auto bursty = serve::make_trace(cfg, 16);
  // Half the time at 4x rate => the same request count lands sooner.
  EXPECT_LT(bursty.back().t_us, steady.back().t_us);
}

TEST(ServeTraffic, DegenerateConfigsYieldEmptyTraces) {
  serve::TrafficConfig cfg;
  cfg.num_requests = 0;
  EXPECT_TRUE(serve::make_trace(cfg, 16).empty());
  cfg.num_requests = 10;
  EXPECT_TRUE(serve::make_trace(cfg, 0).empty());
  cfg.rate_rps = 0.0;
  EXPECT_TRUE(serve::make_trace(cfg, 16).empty());
}

// ---- queue / micro-batcher ------------------------------------------------

TEST(ServeQueue, GreedyFlushRespectsMaxBatch) {
  serve::RequestQueue q;
  for (std::uint64_t i = 0; i < 10; ++i) {
    serve::Request r;
    r.id = i;
    q.push(r);
  }
  q.close();
  serve::BatchPolicy policy;
  policy.max_batch = 4;
  std::vector<serve::Request> batch;
  std::vector<std::size_t> sizes;
  std::uint64_t next_id = 0;
  while (q.pop_batch(policy, batch)) {
    sizes.push_back(batch.size());
    for (const auto& r : batch) EXPECT_EQ(r.id, next_id++);  // FIFO order
  }
  ASSERT_EQ(sizes.size(), 3u);
  EXPECT_EQ(sizes[0], 4u);
  EXPECT_EQ(sizes[1], 4u);
  EXPECT_EQ(sizes[2], 2u);
  EXPECT_EQ(q.depth_stats().pushes, 10u);
  EXPECT_GE(q.depth_stats().max_depth, 10u);
}

// The work-conserving batcher: a free worker takes whatever is queued at
// once. max_wait_us has no effect — no window holds a partial batch for
// company, and no close() is needed to release it.
TEST(ServeQueue, PartialBatchNeverWaitsForCompany) {
  struct Case {
    std::uint64_t max_wait_us;
    std::size_t queued;
  };
  for (const Case c : {Case{10'000'000, 1}, Case{0, 3}}) {
    serve::RequestQueue q;
    for (std::uint64_t i = 0; i < c.queued; ++i) {
      serve::Request r;
      r.id = i;
      q.push(r);
    }
    serve::BatchPolicy policy;
    policy.max_batch = 8;  // more than queued
    policy.max_wait_us = c.max_wait_us;
    std::vector<serve::Request> batch;
    const auto start = std::chrono::steady_clock::now();
    ASSERT_TRUE(q.pop_batch(policy, batch));
    const auto elapsed = std::chrono::steady_clock::now() - start;
    EXPECT_EQ(batch.size(), c.queued) << c.max_wait_us;
    EXPECT_LT(std::chrono::duration_cast<std::chrono::milliseconds>(elapsed)
                  .count(),
              1000)
        << c.max_wait_us;
    q.close();
    EXPECT_FALSE(q.pop_batch(policy, batch));  // closed and drained
  }
}

// ---- end-to-end determinism ----------------------------------------------

constexpr std::uint64_t kServeSeed = 17;

models::Mlp serve_model() {
  models::MlpConfig cfg;
  cfg.in_features = 16;
  cfg.hidden = {24, 24};
  cfg.num_classes = 4;
  models::Mlp m = models::build_mlp(cfg);
  m.net->set_training(false);
  return m;
}

std::vector<serve::Arrival> serve_trace(std::size_t n, std::size_t ds_size) {
  serve::TrafficConfig cfg;
  cfg.num_requests = n;
  cfg.rate_rps = 20000.0;
  cfg.burst_factor = 3.0;
  cfg.burst_duty = 0.3;
  cfg.burst_period_s = 0.002;
  cfg.seed = 13;
  return serve::make_trace(cfg, ds_size);
}

serve::ServeReport run_server(const serve::Backend& backend,
                              const data::Dataset& ds,
                              const std::vector<serve::Arrival>& trace,
                              std::size_t workers, std::size_t max_batch) {
  serve::ServeConfig cfg;
  cfg.batch.max_batch = max_batch;
  cfg.num_workers = workers;
  cfg.seed = kServeSeed;
  serve::InferenceServer server(
      serve::ServerSpec{}.primary(backend).dataset(ds).config(cfg));
  return server.run(trace);
}

/// The straight-line payload oracle: request `id`, serving dataset sample
/// `sample`, is one stateless inference of that sample as a unit batch
/// under the server's batch stream with row ids {id}.
template <typename Infer>
Tensor unit_oracle(const Infer& infer, const data::Dataset& ds,
                   std::size_t sample, std::uint64_t id) {
  const std::size_t len = ds.sample_numel();
  std::vector<std::size_t> shape = ds.images.shape();
  shape[0] = 1;
  Tensor x(shape);
  std::copy(ds.images.data() + sample * len,
            ds.images.data() + (sample + 1) * len, x.data());
  nn::EvalContext ctx(serve::InferenceServer::noise_rng(kServeSeed));
  ctx.row_ids = {id};
  return infer(x, ctx);
}

TEST(ServeRuntime, NoisyAnalyticPayloadsMatchWorkerCountsAndOracle) {
  ThreadGuard guard;
  models::Mlp m = serve_model();
  data::Dataset ds = random_dataset(32, 16, 19);
  const auto trace = serve_trace(80, ds.size());

  Rng crng(77);
  xbar::LayerNoiseController ctrl(m.encoded, /*sigma=*/1.5, m.base_pulses(),
                                  crng);
  ctrl.attach();
  ctrl.set_enabled_all(true);
  serve::AnalyticBackend noisy(*m.net, /*stochastic=*/true);

  ThreadPool::instance().set_num_threads(1);
  const auto rep1 = run_server(noisy, ds, trace, 1, 8);
  ThreadPool::instance().set_num_threads(4);
  const auto rep4 = run_server(noisy, ds, trace, 4, 8);
  const auto rep4_unit = run_server(noisy, ds, trace, 4, 1);

  EXPECT_EQ(rep1.completed, trace.size());
  EXPECT_EQ(rep4.completed, trace.size());
  // Every queue batch of the noisy config ran as one fused call.
  std::size_t batches = 0;
  for (std::size_t c : rep4.batch_hist) batches += c;
  EXPECT_EQ(rep4.exec_calls, batches);
  expect_bitwise_equal(rep1.outputs, rep4.outputs);        // worker count
  expect_bitwise_equal(rep1.outputs, rep4_unit.outputs);   // batch boundary

  // Straight-line oracle: request r's payload is exactly one stateless
  // inference of its sample as a unit batch with row id r.
  for (std::size_t r = 0; r < trace.size(); ++r) {
    const Tensor want = unit_oracle(
        [&](const Tensor& x, nn::EvalContext& ctx) {
          return m.net->infer(x, ctx);
        },
        ds, trace[r].sample, r);
    for (std::size_t j = 0; j < want.numel(); ++j)
      ASSERT_EQ(want[j], rep1.outputs.at(r, j)) << "request " << r;
  }
  ctrl.detach();
}

TEST(ServeRuntime, CleanFusedBatchingIsBoundaryInvariant) {
  ThreadGuard guard;
  ThreadPool::instance().set_num_threads(4);
  models::Mlp m = serve_model();
  data::Dataset ds = random_dataset(32, 16, 23);
  const auto trace = serve_trace(80, ds.size());
  serve::AnalyticBackend clean(*m.net, /*stochastic=*/false);

  const auto fused = run_server(clean, ds, trace, 4, 8);
  const auto unit = run_server(clean, ds, trace, 4, 1);
  const auto one = run_server(clean, ds, trace, 1, 8);
  expect_bitwise_equal(fused.outputs, unit.outputs);
  expect_bitwise_equal(fused.outputs, one.outputs);
  EXPECT_GT(fused.mean_batch, 0.0);
}

TEST(ServeRuntime, PulseBackendPayloadsMatchWorkerCounts) {
  ThreadGuard guard;
  models::MlpConfig cfg;
  cfg.in_features = 12;
  cfg.hidden = {16};
  cfg.num_classes = 4;
  models::Mlp m = models::build_mlp(cfg);
  m.net->set_training(false);
  data::Dataset ds = random_dataset(16, 12, 29);
  const auto trace = serve_trace(40, ds.size());

  xbar::HwDeployConfig hw_cfg;
  hw_cfg.sigma = 0.5;
  hw_cfg.device.read_noise_sigma = 0.05;
  hw_cfg.device.adc_bits = 8;
  xbar::HardwareNetwork hw(*m.net, m.encoded, hw_cfg);
  serve::PulseBackend pulse(hw);
  EXPECT_FALSE(pulse.deterministic());

  ThreadPool::instance().set_num_threads(1);
  const auto rep1 = run_server(pulse, ds, trace, 1, 8);
  ThreadPool::instance().set_num_threads(4);
  const auto rep4 = run_server(pulse, ds, trace, 4, 8);
  expect_bitwise_equal(rep1.outputs, rep4.outputs);

  // Deterministic device config => fused batching allowed and still
  // boundary-invariant at pulse level.
  xbar::HwDeployConfig det_cfg;
  det_cfg.device.adc_bits = 8;
  det_cfg.device.program_variation = 0.05;
  xbar::HardwareNetwork det_hw(*m.net, m.encoded, det_cfg);
  serve::PulseBackend det(det_hw);
  EXPECT_TRUE(det.deterministic());
  const auto det_fused = run_server(det, ds, trace, 4, 8);
  const auto det_unit = run_server(det, ds, trace, 4, 1);
  expect_bitwise_equal(det_fused.outputs, det_unit.outputs);
}

TEST(ServeRuntime, PulseNoisyFusedMatchesPerRequestOracle) {
  // A deployed network with live read/output noise: the server fuses
  // micro-batches, and every request's payload must still equal one
  // stateless pulse-level forward of its sample as a unit batch.
  ThreadGuard guard;
  models::MlpConfig cfg;
  cfg.in_features = 12;
  cfg.hidden = {16, 16};  // fc2 is crossbar-encoded
  cfg.num_classes = 4;
  models::Mlp m = models::build_mlp(cfg);
  m.net->set_training(false);
  data::Dataset ds = random_dataset(16, 12, 43);
  const auto trace = serve_trace(48, ds.size());

  xbar::HwDeployConfig hw_cfg;
  hw_cfg.sigma = 0.5;
  hw_cfg.device.read_noise_sigma = 0.05;
  hw_cfg.device.adc_bits = 8;
  xbar::HardwareNetwork hw(*m.net, m.encoded, hw_cfg);
  ASSERT_GT(hw.num_crossbar_layers(), 0u);
  serve::PulseBackend pulse(hw);
  EXPECT_FALSE(pulse.deterministic());

  ThreadPool::instance().set_num_threads(4);
  const auto fused = run_server(pulse, ds, trace, 4, 8);
  const auto unit = run_server(pulse, ds, trace, 4, 1);
  expect_bitwise_equal(fused.outputs, unit.outputs);

  for (std::size_t r = 0; r < trace.size(); ++r) {
    const Tensor want = unit_oracle(
        [&](const Tensor& x, nn::EvalContext& ctx) { return hw.forward(x, ctx); },
        ds, trace[r].sample, r);
    for (std::size_t j = 0; j < want.numel(); ++j)
      ASSERT_EQ(want[j], fused.outputs.at(r, j)) << "request " << r;
  }
}

TEST(ServeRuntime, PulseNoisyConvFusedMatchesUnitBatchesAndOracle) {
  // The one path where a request id spans many engine rows: a deployed
  // conv network's im2col feeds each sample's oh·ow patch rows through the
  // engine as one row group. Fused == unit batch == oracle, at 1 and 4
  // workers.
  ThreadGuard guard;
  models::Vgg9Config vcfg;
  vcfg.in_channels = 3;
  vcfg.image_size = 8;
  vcfg.width = 4;
  vcfg.num_classes = 4;
  models::Vgg9 v = models::build_vgg9(vcfg);
  v.net->set_training(false);
  data::Dataset ds;
  ds.images = random_tensor({6, 3, 8, 8}, 47);
  ds.labels.assign(6, 0);
  const auto trace = serve_trace(24, ds.size());

  xbar::HwDeployConfig hw_cfg;
  hw_cfg.sigma = 0.5;
  hw_cfg.device.read_noise_sigma = 0.05;
  hw_cfg.device.adc_bits = 8;
  xbar::HardwareNetwork hw(*v.net, v.encoded, hw_cfg);
  serve::PulseBackend pulse(hw);
  ASSERT_FALSE(pulse.deterministic());

  ThreadPool::instance().set_num_threads(4);
  const auto one = run_server(pulse, ds, trace, 1, 8);
  const auto fused = run_server(pulse, ds, trace, 4, 8);
  const auto unit = run_server(pulse, ds, trace, 4, 1);
  EXPECT_EQ(fused.completed, trace.size());
  expect_bitwise_equal(one.outputs, fused.outputs);
  expect_bitwise_equal(fused.outputs, unit.outputs);

  for (std::size_t r = 0; r < trace.size(); ++r) {
    const Tensor want = unit_oracle(
        [&](const Tensor& x, nn::EvalContext& ctx) { return hw.forward(x, ctx); },
        ds, trace[r].sample, r);
    for (std::size_t j = 0; j < want.numel(); ++j)
      ASSERT_EQ(want[j], fused.outputs.at(r, j)) << "request " << r;
  }
}

TEST(ServeRuntime, SteadyStateRunsDoNotGrowArenas) {
  ThreadGuard guard;
  ThreadPool::instance().set_num_threads(4);
  models::Mlp m = serve_model();
  data::Dataset ds = random_dataset(32, 16, 31);
  const auto trace = serve_trace(60, ds.size());

  Rng crng(78);
  xbar::LayerNoiseController ctrl(m.encoded, 1.0, m.base_pulses(), crng);
  ctrl.attach();
  ctrl.set_enabled_all(true);
  serve::AnalyticBackend noisy(*m.net, /*stochastic=*/true);

  serve::ServeConfig cfg;
  cfg.batch.max_batch = 8;
  cfg.num_workers = 2;
  cfg.seed = kServeSeed;
  serve::InferenceServer server(
      serve::ServerSpec{}.primary(noisy).dataset(ds).config(cfg));
  server.warmup();
  const auto warm = server.run(trace);
  const auto steady = server.run(trace);
  expect_bitwise_equal(warm.outputs, steady.outputs);  // replay == replay
  EXPECT_EQ(steady.arena.steady_allocs, 0u);
  // The MLP's per-request binarized copies now come from the frozen-weight
  // caches (DESIGN.md §6), so the bump region may stay untouched; the
  // tensor recycler must still hold the pooled intermediates.
  EXPECT_GT(steady.arena.reserved_bytes, 0u);
  ctrl.detach();
}

// ---- degenerate inputs ----------------------------------------------------

TEST(ServeRuntime, DegenerateInputsReturnCleanly) {
  models::Mlp m = serve_model();
  data::Dataset ds = random_dataset(8, 16, 37);
  serve::AnalyticBackend clean(*m.net, /*stochastic=*/false);

  serve::ServeConfig cfg;
  cfg.num_workers = 0;   // clamped to 1 with a warning
  cfg.batch.max_batch = 0;  // clamped to 1 with a warning
  serve::InferenceServer server(
      serve::ServerSpec{}.primary(clean).dataset(ds).config(cfg));
  const auto empty = server.run({});
  EXPECT_EQ(empty.requests, 0u);
  EXPECT_EQ(empty.completed, 0u);

  const auto tiny = server.run(serve_trace(5, ds.size()));
  EXPECT_EQ(tiny.completed, 5u);

  data::Dataset none;
  serve::InferenceServer no_data(
      serve::ServerSpec{}.primary(clean).dataset(none).config(cfg));
  EXPECT_EQ(no_data.run(serve_trace(5, 8)).completed, 0u);
}

TEST(ServeRuntime, HardwareEvaluateGuards) {
  models::MlpConfig cfg;
  cfg.in_features = 12;
  cfg.hidden = {16};
  models::Mlp m = models::build_mlp(cfg);
  m.net->set_training(false);
  xbar::HwDeployConfig hw_cfg;
  xbar::HardwareNetwork hw(*m.net, m.encoded, hw_cfg);

  data::Dataset empty;
  EXPECT_EQ(hw.evaluate(empty), 0.0f);
  data::Dataset ds = random_dataset(8, 12, 41);
  EXPECT_EQ(hw.evaluate(ds, 0), 0.0f);
  EXPECT_GE(hw.evaluate(ds, 4), 0.0f);
}

}  // namespace
}  // namespace gbo
