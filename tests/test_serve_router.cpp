// Sharded multi-replica serving (DESIGN.md §10): the deterministic routing
// function, route_plan()'s autoscale/outage ledger, the 1-vs-N-worker
// routing fingerprint contract of ReplicaGroup::run, column-sharded
// crossbar execution bitwise equal to the unsharded sweep, the ServerSpec
// builder (validation in one pass, equivalence with the deprecated
// constructors), the replica-outage reroute built on the fault injector,
// and a seeded property test of the one serving executor over
// randomized traces, SLO policies and server shapes.
#include "common/thread_pool.hpp"
#include "crossbar/hw_deploy.hpp"
#include "crossbar/mapper.hpp"
#include "crossbar/mvm_engine.hpp"
#include "models/mlp.hpp"
#include "obs/trace.hpp"
#include "serve/policy.hpp"
#include "serve/router.hpp"
#include "serve/server.hpp"
#include "tensor/ops.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <stdexcept>
#include <string>

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
  for (std::size_t i = 0; i < a.numel(); ++i)
    ASSERT_EQ(a[i], b[i]) << "i=" << i;
}

// ---- column sharding ------------------------------------------------------

TEST(CrossbarSharding, ColumnShardsCoverAscendingDisjoint) {
  xbar::TileShape tile;
  tile.cols = 16;
  const auto shards = xbar::column_shards(40, tile);
  ASSERT_EQ(shards.size(), 3u);
  EXPECT_EQ(shards[0], (std::pair<std::size_t, std::size_t>{0, 16}));
  EXPECT_EQ(shards[1], (std::pair<std::size_t, std::size_t>{16, 32}));
  EXPECT_EQ(shards[2], (std::pair<std::size_t, std::size_t>{32, 40}));

  // tile.cols == 0 or >= fan_out: a single shard, no split.
  tile.cols = 0;
  EXPECT_EQ(xbar::column_shards(40, tile).size(), 1u);
  tile.cols = 64;
  EXPECT_EQ(xbar::column_shards(40, tile).size(), 1u);
  EXPECT_THROW(xbar::column_shards(0, tile), std::invalid_argument);
}

xbar::MvmConfig noisy_mvm_config(enc::Scheme scheme) {
  xbar::MvmConfig cfg;
  cfg.spec = enc::EncodingSpec{scheme, 8};
  cfg.sigma = 0.5;
  cfg.device.read_noise_sigma = 0.05;
  cfg.device.adc_bits = 8;
  cfg.device.program_variation = 0.05;
  return cfg;
}

TEST(CrossbarSharding, ShardedPulseSweepBitwiseEqualsUnsharded) {
  Tensor w = random_tensor({40, 24}, 61);
  for (std::size_t i = 0; i < w.numel(); ++i)
    w.data()[i] = w.data()[i] >= 0.0f ? 0.5f : -0.5f;
  const Tensor x = random_tensor({6, 24}, 63);
  for (const auto scheme : {enc::Scheme::kThermometer, enc::Scheme::kBitSlicing}) {
    const xbar::MvmConfig base = noisy_mvm_config(scheme);
    xbar::MvmEngine plain(w, base, Rng(77));
    // Shard widths that divide, straddle, and exceed the fan-out: every
    // geometry must reproduce the unsharded bits (the read-noise indexing
    // is keyed by global coordinates, so a range-restricted sweep draws
    // the identical values).
    for (const std::size_t shard : {8u, 16u, 17u, 40u, 64u}) {
      xbar::MvmConfig scfg = base;
      scfg.shard_cols = shard;
      xbar::MvmEngine sharded(w, scfg, Rng(77));
      Rng r1(5), r2(5);
      const Tensor a = plain.run_pulse_level(x, r1);
      const Tensor b = sharded.run_pulse_level(x, r2);
      expect_bitwise_equal(a, b);
    }
  }
}

TEST(CrossbarSharding, ShardedDeployedNetworkBitwiseEqualsUnsharded) {
  models::MlpConfig mcfg;
  mcfg.in_features = 24;
  mcfg.hidden = {32, 32};
  mcfg.num_classes = 10;
  mcfg.seed = 21;
  models::Mlp net_a = models::build_mlp(mcfg);
  net_a.net->set_training(false);
  models::Mlp net_b = models::build_mlp(mcfg);
  net_b.net->set_training(false);

  xbar::HwDeployConfig hcfg;
  hcfg.sigma = 0.5;
  hcfg.device.read_noise_sigma = 0.05;
  hcfg.device.adc_bits = 8;
  hcfg.device.program_variation = 0.05;
  xbar::HardwareNetwork plain(*net_a.net, net_a.encoded, hcfg);
  xbar::HwDeployConfig scfg = hcfg;
  scfg.shard_cols = 16;
  xbar::HardwareNetwork sharded(*net_b.net, net_b.encoded, scfg);

  const Tensor batch = random_tensor({8, mcfg.in_features}, 65);
  nn::EvalContext ctx_a(Rng(9)), ctx_b(Rng(9));
  expect_bitwise_equal(plain.forward(batch, ctx_a),
                       sharded.forward(batch, ctx_b));
}

// ---- the routing function -------------------------------------------------

TEST(ServeRouter, RouteReplicaIsPureAndCoversActiveSet) {
  const std::vector<std::uint8_t> active = {0, 2, 3};
  serve::RouterPolicy rr;
  rr.strategy = serve::RouterPolicy::Strategy::kRoundRobin;
  for (std::uint64_t id = 0; id < 9; ++id)
    EXPECT_EQ(serve::route_replica(rr, id, active), active[id % 3]);

  serve::RouterPolicy hp;
  hp.strategy = serve::RouterPolicy::Strategy::kHash;
  hp.seed = 71;
  std::vector<std::size_t> hits(4, 0);
  for (std::uint64_t id = 0; id < 256; ++id) {
    const std::uint8_t r = serve::route_replica(hp, id, active);
    // Purity: the same (seed, id, active set) always routes identically.
    EXPECT_EQ(serve::route_replica(hp, id, active), r);
    EXPECT_NE(std::find(active.begin(), active.end(), r), active.end());
    ++hits[r];
  }
  EXPECT_EQ(hits[1], 0u);  // inactive replica receives nothing
  for (const std::uint8_t r : active)
    EXPECT_GT(hits[r], 0u);  // seeded hash spreads over every active replica
}

// ---- end-to-end fleet fixtures --------------------------------------------

constexpr std::uint64_t kServeSeed = 29;

serve::TrafficConfig flash_traffic() {
  serve::TrafficConfig cfg;
  cfg.num_requests = 220;
  cfg.rate_rps = 1600.0;
  cfg.shape = serve::TraceShape::kFlashCrowd;
  cfg.flash_factor = 14.0;
  cfg.flash_start_s = 0.05;
  cfg.flash_ramp_s = 0.005;
  cfg.flash_hold_s = 0.02;
  cfg.high_fraction = 0.2;
  cfg.low_fraction = 0.3;
  cfg.seed = 101;
  return cfg;
}

serve::ServeConfig fleet_config() {
  serve::ServeConfig cfg;
  cfg.batch.max_batch = 8;
  cfg.seed = kServeSeed;
  cfg.slo.enabled = true;
  cfg.slo.deadline_us = 15000;
  cfg.slo.completion_headroom_us = 9000;
  cfg.slo.queue.capacity = 64;
  cfg.slo.queue.on_full = serve::QueuePolicy::OnFull::kDropOldest;
  cfg.slo.cost.batch_fixed_us = 50;
  cfg.slo.cost.primary_us = 800;
  cfg.slo.cost.degraded_us = 100;
  cfg.slo.ladder.degrade_depth = 8;
  cfg.slo.ladder.shed_depth = 30;
  cfg.slo.ladder.recover_depth = 2;
  cfg.slo.ladder.shed_floor = serve::Priority::kNormal;
  return cfg;
}

serve::RouterPolicy outage_router() {
  serve::RouterPolicy router;
  router.strategy = serve::RouterPolicy::Strategy::kRoundRobin;
  router.min_replicas = 1;
  router.scale_depth = 24;
  router.fault.enabled = true;
  router.fault.outage_start_id = 1;  // replica 1 down (fault id == replica)
  router.fault.outage_len = 1;
  return router;
}

struct FleetFixture {
  models::Mlp primary_model;
  models::Mlp degraded_model;
  data::Dataset ds;
  serve::AnalyticBackend primary;
  serve::AnalyticBackend degraded;

  FleetFixture()
      : primary_model(make_model({24, 24}, 31)),
        degraded_model(make_model({12}, 32)),
        ds(random_dataset(32, 16, 61)),
        primary(*primary_model.net, /*stochastic=*/false),
        degraded(*degraded_model.net, /*stochastic=*/false) {}

  static models::Mlp make_model(std::vector<std::size_t> hidden,
                                std::uint64_t seed) {
    models::MlpConfig cfg;
    cfg.in_features = 16;
    cfg.hidden = std::move(hidden);
    cfg.num_classes = 4;
    cfg.seed = seed;
    models::Mlp m = models::build_mlp(cfg);
    m.net->set_training(false);
    return m;
  }

  serve::ServerSpec spec(const serve::ServeConfig& cfg, std::size_t replicas,
                         const serve::RouterPolicy& router) const {
    return serve::ServerSpec{}
        .primary(primary)
        .degraded(degraded)
        .dataset(ds)
        .config(cfg)
        .replicas(replicas)
        .router(router);
  }
};

TEST(ServeRouter, RoutePlanRespectsOutageAutoscaleAndHashes) {
  const FleetFixture f;
  const auto trace = serve::make_trace(flash_traffic(), f.ds.size());
  const serve::ServeConfig cfg = fleet_config();
  const serve::RouterPolicy router = outage_router();

  const serve::RouterPlan rp =
      serve::route_plan(trace, cfg.slo, cfg.batch, router, 4);
  ASSERT_EQ(rp.total_replicas, 4u);
  ASSERT_EQ(rp.alive.size(), 4u);
  EXPECT_EQ(rp.alive[1], 0u);  // the outage window covers replica 1
  EXPECT_EQ(rp.alive[0], 1u);
  // The active set is a subset of the alive set within policy bounds.
  EXPECT_GE(rp.active_replicas, router.min_replicas);
  EXPECT_LE(rp.active_replicas, 3u);
  for (const std::uint8_t r : rp.active) EXPECT_TRUE(rp.alive[r]);
  // Every request routes to an active replica; none to the downed one.
  ASSERT_EQ(rp.assignment.size(), trace.size());
  for (std::size_t i = 0; i < trace.size(); ++i) {
    EXPECT_NE(rp.assignment[i], 1u);
    EXPECT_EQ(rp.assignment[i], serve::route_replica(router, i, rp.active));
  }
  // Replaying the plan reproduces it bit for bit (purity).
  const serve::RouterPlan again =
      serve::route_plan(trace, cfg.slo, cfg.batch, router, 4);
  EXPECT_EQ(again.routing_hash, rp.routing_hash);
  EXPECT_EQ(again.shed_set_hash, rp.shed_set_hash);
  EXPECT_EQ(serve::expected_causal_fingerprint(again),
            serve::expected_causal_fingerprint(rp));
}

TEST(ServeRouter, FleetPayloadsAndFingerprintsMatchAcrossWorkerCounts) {
  ThreadGuard guard;
  const FleetFixture f;
  const auto trace = serve::make_trace(flash_traffic(), f.ds.size());
  serve::ServeConfig cfg = fleet_config();
  const serve::RouterPolicy router = outage_router();

  serve::ReplicaGroup probe(f.spec(cfg, 3, router));
  const serve::RouterPlan rp = probe.plan_trace(trace);

  ThreadPool::instance().set_num_threads(1);
  cfg.num_workers = 1;
  serve::ReplicaGroup g1(f.spec(cfg, 3, router));
  const serve::RouterReport r1 = g1.run(trace);
  ThreadPool::instance().set_num_threads(4);
  cfg.num_workers = 4;
  serve::ReplicaGroup g4(f.spec(cfg, 3, router));
  const serve::RouterReport r4 = g4.run(trace);

  // The §10 contract: payloads, the routing assignment, and every
  // per-replica shed set are bitwise identical at any worker count and
  // equal to the plan oracle.
  expect_bitwise_equal(r1.serve.outputs, r4.serve.outputs);
  EXPECT_EQ(r1.routing_hash, rp.routing_hash);
  EXPECT_EQ(r4.routing_hash, rp.routing_hash);
  ASSERT_EQ(r1.replicas.size(), 3u);
  ASSERT_EQ(r4.replicas.size(), 3u);
  for (std::size_t r = 0; r < 3; ++r) {
    EXPECT_EQ(r1.replicas[r].exec_shed_set_hash,
              rp.per_replica[r].shed_set_hash);
    EXPECT_EQ(r4.replicas[r].exec_shed_set_hash,
              rp.per_replica[r].shed_set_hash);
    EXPECT_EQ(r1.replicas[r].assigned, r4.replicas[r].assigned);
    EXPECT_EQ(r1.replicas[r].delivered, r4.replicas[r].delivered);
  }
  EXPECT_EQ(r1.serve.slo.exec_shed_set_hash, rp.shed_set_hash);
  EXPECT_EQ(r4.serve.slo.exec_shed_set_hash, rp.shed_set_hash);
  EXPECT_EQ(r1.serve.completed, rp.counters.served);
  EXPECT_EQ(r4.serve.completed, rp.counters.served);
  // The flash crowd actually exercised the shed machinery fleet-wide.
  EXPECT_GT(r4.serve.slo.exec_shed, 0u);
}

TEST(ServeRouter, OutageRerouteKeepsDeliveredPayloadBits) {
  ThreadGuard guard;
  ThreadPool::instance().set_num_threads(2);
  const FleetFixture f;
  const auto trace = serve::make_trace(flash_traffic(), f.ds.size());
  serve::ServeConfig cfg = fleet_config();
  cfg.num_workers = 2;

  serve::RouterPolicy healthy = outage_router();
  healthy.fault = serve::FaultConfig{};  // all replicas alive
  serve::ReplicaGroup gh(f.spec(cfg, 3, healthy));
  const serve::RouterPlan ph = gh.plan_trace(trace);
  const serve::RouterReport rh = gh.run(trace);

  serve::ReplicaGroup go(f.spec(cfg, 3, outage_router()));
  const serve::RouterPlan po = go.plan_trace(trace);
  const serve::RouterReport ro = go.run(trace);

  // The outage reroutes every request that would have hit replica 1.
  EXPECT_EQ(ro.replicas[1].assigned, 0u);
  EXPECT_GT(rh.replicas[1].assigned, 0u);
  EXPECT_LT(ro.active_replicas, rh.active_replicas);
  // Payload purity across the reroute: payloads depend only on
  // (seed, request id, served mode), so a request served at primary
  // fidelity in BOTH runs carries the identical bits even though the
  // outage moved it between replicas (the ladder may legitimately degrade
  // different requests under the redistributed load).
  const std::size_t out_dim = rh.serve.outputs.shape()[1];
  std::size_t both = 0;
  for (std::size_t i = 0; i < trace.size(); ++i) {
    if (!ph.decisions[i].served() || !po.decisions[i].served()) continue;
    if (ph.decisions[i].mode != serve::ServeMode::kPrimary ||
        po.decisions[i].mode != serve::ServeMode::kPrimary)
      continue;
    ++both;
    for (std::size_t j = 0; j < out_dim; ++j)
      ASSERT_EQ(rh.serve.outputs.at(i, j), ro.serve.outputs.at(i, j))
          << "request " << i;
  }
  EXPECT_GT(both, 0u);
}

// ---- seeded property test of the serving executor ------------------------

// One randomized serving scenario drawn from a seed: trace shape, rate and
// priority mix; SloPolicy on or off with its deadline, queue bound, ladder,
// costs and faults; and the server — an InferenceServer, or a ReplicaGroup
// of 1-4 replicas (exactly one when the SLO is off) under round-robin or
// hash routing with an optional replica outage.
struct ExecutorCase {
  std::vector<serve::Arrival> trace;
  serve::ServeConfig cfg;
  bool group = false;
  std::size_t replicas = 1;
  serve::RouterPolicy router;
  bool headroom_covers_worst_batch = false;
};

ExecutorCase draw_case(std::uint64_t seed, std::size_t ds_size) {
  Rng rng(seed);
  const auto pick = [&rng](std::size_t lo, std::size_t hi) {
    return static_cast<std::size_t>(rng.uniform_int(
        static_cast<std::int64_t>(lo), static_cast<std::int64_t>(hi)));
  };
  ExecutorCase c;
  // Rates and shape windows keep every trace under ~30 ms of replay.
  serve::TrafficConfig t;
  t.num_requests = pick(40, 160);
  t.rate_rps = rng.uniform(5000.0, 40000.0);
  t.shape = static_cast<serve::TraceShape>(pick(0, 2));
  t.burst_factor = rng.uniform(1.0, 6.0);
  t.burst_duty = rng.uniform(0.0, 0.5);
  t.burst_period_s = 0.004;
  t.diurnal_period_s = 0.01;
  t.flash_factor = rng.uniform(2.0, 12.0);
  t.flash_start_s = 0.001;
  t.flash_ramp_s = 0.001;
  t.flash_hold_s = 0.003;
  if (rng.bernoulli(0.6)) {
    t.high_fraction = rng.uniform(0.0, 0.4);
    t.low_fraction = rng.uniform(0.0, 0.4);
  }
  t.seed = seed;
  c.trace = serve::make_trace(t, ds_size);

  serve::ServeConfig& cfg = c.cfg;
  cfg.batch.max_batch = pick(1, 8);
  cfg.seed = seed;
  serve::SloPolicy& slo = cfg.slo;
  slo.enabled = rng.bernoulli(0.7);
  slo.cost.batch_fixed_us = pick(10, 60);
  slo.cost.primary_us = pick(50, 800);
  slo.cost.degraded_us = pick(10, 100);
  slo.cost.retry_penalty_us = pick(0, 100);
  slo.virtual_lanes = pick(1, 3);
  slo.retry.max_attempts = pick(1, 3);
  slo.retry.backoff_us = pick(0, 20);
  // The costliest batch the planner can form: every row pays the dearer
  // mode plus every allowed failed attempt.
  const std::uint64_t worst_batch =
      slo.cost.batch_fixed_us +
      cfg.batch.max_batch *
          (std::max(slo.cost.primary_us, slo.cost.degraded_us) +
           slo.retry.max_attempts * slo.cost.retry_penalty_us);
  c.headroom_covers_worst_batch = rng.bernoulli(0.5);
  slo.completion_headroom_us = c.headroom_covers_worst_batch
                                   ? worst_batch + pick(0, 500)
                                   : pick(0, worst_batch);
  slo.deadline_us = rng.bernoulli(0.8) ? pick(1000, 20000) : 0;
  if (rng.bernoulli(0.5)) {
    slo.queue.capacity = pick(8, 64);
    slo.queue.on_full = rng.bernoulli(0.5)
                            ? serve::QueuePolicy::OnFull::kRejectNew
                            : serve::QueuePolicy::OnFull::kDropOldest;
  }
  slo.ladder.degrade_depth = pick(4, 48);
  slo.ladder.shed_depth = slo.ladder.degrade_depth + pick(2, 32);
  slo.ladder.recover_depth = pick(0, 2);
  slo.ladder.shed_floor = static_cast<serve::Priority>(pick(0, 2));
  slo.breaker.failure_threshold = pick(2, 5);
  slo.breaker.cooldown_us = pick(1000, 20000);
  // Drawn for SLO-off cases too: normalized_config() must drop them there.
  if (rng.bernoulli(0.6)) {
    slo.fault.enabled = true;
    slo.fault.seed = seed + 1;
    slo.fault.transient_rate = rng.uniform(0.05, 0.3);
    slo.fault.outage_start_id = pick(0, t.num_requests);
    slo.fault.outage_len = pick(0, 12);
    slo.fault.stall_rate = rng.uniform(0.0, 0.05);
    slo.fault.stall_us = pick(0, 20);
  }

  c.group = rng.bernoulli(0.6);
  c.replicas = c.group && slo.enabled ? pick(1, 4) : 1;
  c.router.strategy = rng.bernoulli(0.5)
                          ? serve::RouterPolicy::Strategy::kRoundRobin
                          : serve::RouterPolicy::Strategy::kHash;
  c.router.seed = seed + 2;
  c.router.scale_depth = rng.bernoulli(0.5) ? 0 : pick(4, 32);
  c.router.min_replicas = pick(1, 2);
  if (rng.bernoulli(0.3)) {
    c.router.fault.enabled = true;
    c.router.fault.outage_start_id = pick(0, c.replicas - 1);
    c.router.fault.outage_len = 1;
  }
  return c;
}

// What one execution of a case produced, next to the plan it executed.
struct CaseRun {
  serve::RouterPlan plan;
  serve::ServeReport rep;
  obs::TraceSnapshot snap;
};

CaseRun run_case(const FleetFixture& f, const ExecutorCase& c,
                 std::size_t pool_width, std::size_t workers) {
  ThreadPool::instance().set_num_threads(pool_width);
  serve::ServeConfig cfg = c.cfg;
  cfg.num_workers = workers;
  CaseRun out;
  if (c.group) {
    serve::ReplicaGroup g(f.spec(cfg, c.replicas, c.router));
    out.plan = g.plan_trace(c.trace);
    obs::begin_session();
    out.rep = g.run(c.trace).serve;
  } else {
    serve::InferenceServer s(f.spec(cfg, 1, serve::RouterPolicy{}));
    out.plan = s.plan_trace(c.trace);
    obs::begin_session();
    out.rep = s.run(c.trace);
  }
  out.snap = obs::end_session();
  return out;
}

TEST(ServeExecutor, SeededPropertiesHoldAtPoolWidthsOneAndFour) {
  ThreadGuard guard;
  const FleetFixture f;
  std::size_t slo_off = 0, fleets = 0, covered = 0, shedding = 0,
              retrying = 0;
  for (std::uint64_t seed = 1; seed <= 48; ++seed) {
    const ExecutorCase c = draw_case(seed, f.ds.size());
    SCOPED_TRACE("seed " + std::to_string(seed));
    slo_off += c.cfg.slo.enabled ? 0 : 1;
    fleets += c.replicas > 1 ? 1 : 0;
    covered += c.headroom_covers_worst_batch ? 1 : 0;
    const std::size_t n = c.trace.size();
    const CaseRun one = run_case(f, c, 1, 1);
    const CaseRun four = run_case(f, c, 4, 1 + seed % 3);
    for (const CaseRun* r : {&one, &four}) {
      const serve::SloSummary& s = r->rep.slo;
      const serve::PlanCounters& pc = r->plan.counters;
      EXPECT_EQ(s.exec_delivered + s.exec_shed, n);
      EXPECT_EQ(s.exec_delivered, pc.served);
      EXPECT_EQ(s.exec_shed_set_hash, r->plan.shed_set_hash);
      EXPECT_EQ(s.exec_retried, pc.retried_requests);
      EXPECT_EQ(s.exec_faults, pc.faults_injected);
      if (c.headroom_covers_worst_batch) {
        EXPECT_EQ(pc.late, 0u);
      }
      if (obs::runtime_enabled()) {
        EXPECT_EQ(r->snap.dropped, 0u);
        EXPECT_EQ(obs::causal_fingerprint(r->snap.events),
                  serve::expected_causal_fingerprint(r->plan));
      }
    }
    expect_bitwise_equal(one.rep.outputs, four.rep.outputs);
    shedding += one.rep.slo.exec_shed > 0 ? 1 : 0;
    retrying += one.rep.slo.exec_retried > 0 ? 1 : 0;
  }
  // The seed set reaches every class of case the property is stated over.
  EXPECT_GT(slo_off, 0u);
  EXPECT_GT(fleets, 0u);
  EXPECT_GT(covered, 0u);
  EXPECT_GT(shedding, 0u);
  EXPECT_GT(retrying, 0u);
}

// ---- ServerSpec builder ---------------------------------------------------

TEST(ServerSpecBuilder, SingleReplicaSpecIsReproducible) {
  ThreadGuard guard;
  ThreadPool::instance().set_num_threads(2);
  const FleetFixture f;
  const auto trace = serve::make_trace(flash_traffic(), f.ds.size());
  serve::ServeConfig cfg = fleet_config();
  cfg.num_workers = 2;

  // ServerSpec::validate() is the only construction path (the deprecated
  // pre-spec constructor shims are gone): two servers built from the same
  // spec must be byte-for-byte equivalent — identical payloads and shed
  // fingerprints — and spec evaluation order must not matter.
  serve::InferenceServer first(serve::ServerSpec{}
                                   .primary(f.primary)
                                   .degraded(f.degraded)
                                   .dataset(f.ds)
                                   .config(cfg));
  serve::InferenceServer second(serve::ServerSpec{}
                                    .config(cfg)
                                    .dataset(f.ds)
                                    .degraded(f.degraded)
                                    .primary(f.primary));
  const serve::ServeReport a = first.run(trace);
  const serve::ServeReport b = second.run(trace);
  expect_bitwise_equal(a.outputs, b.outputs);
  EXPECT_EQ(a.slo.exec_shed_set_hash, b.slo.exec_shed_set_hash);
  EXPECT_EQ(a.completed, b.completed);

  serve::ServeConfig plain;
  plain.batch.max_batch = 8;
  plain.num_workers = 2;
  plain.seed = kServeSeed;
  serve::TrafficConfig tcfg;
  tcfg.num_requests = 60;
  tcfg.rate_rps = 20000.0;
  tcfg.seed = 13;
  const auto ptrace = serve::make_trace(tcfg, f.ds.size());
  serve::InferenceServer plain0(
      serve::ServerSpec{}.primary(f.primary).dataset(f.ds).config(plain));
  serve::InferenceServer plain1(
      serve::ServerSpec{}.primary(f.primary).dataset(f.ds).config(plain));
  expect_bitwise_equal(plain0.run(ptrace).outputs,
                       plain1.run(ptrace).outputs);
}

TEST(ServerSpecBuilder, ValidateReportsEveryProblemAtOnce) {
  // An empty spec has no primary and no dataset: both errors must surface
  // in ONE validation pass, not one-at-a-time.
  const serve::ServerSpec empty;
  const auto v = empty.validate();
  EXPECT_FALSE(v.ok());
  ASSERT_GE(v.errors.size(), 2u);

  // Warnings collect the legacy clamp-with-warning behaviour in the same
  // pass: zero workers, zero max_batch, zero replicas, floor above count.
  const FleetFixture f;
  serve::ServeConfig cfg = fleet_config();
  cfg.num_workers = 0;
  cfg.batch.max_batch = 0;
  serve::RouterPolicy router;
  router.min_replicas = 9;
  const serve::ServerSpec clamped = f.spec(cfg, 0, router);
  const auto vc = clamped.validate();
  EXPECT_TRUE(vc.ok());
  EXPECT_GE(vc.warnings.size(), 3u);
  const serve::ServeConfig norm = clamped.normalized_config();
  EXPECT_EQ(norm.num_workers, 1u);
  EXPECT_EQ(norm.batch.max_batch, 1u);
  EXPECT_EQ(clamped.normalized_replicas(), 1u);

  // The routing assignment is one byte per request, so more than 255
  // replicas is an error of the same validation pass.
  const auto v256 = f.spec(fleet_config(), 256, router).validate();
  EXPECT_FALSE(v256.ok());
  EXPECT_TRUE(std::any_of(
      v256.errors.begin(), v256.errors.end(), [](const std::string& e) {
        return e.find("255") != std::string::npos;
      }));
  EXPECT_TRUE(f.spec(fleet_config(), 255, router).validate().ok());

  // The throwing constructor reports every error in one message.
  serve::ServeConfig no_slo = fleet_config();
  no_slo.slo.enabled = false;
  const serve::ServerSpec bad =
      serve::ServerSpec{}.config(no_slo).replicas(4);
  try {
    serve::InferenceServer server(bad);
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("primary"), std::string::npos) << what;
    EXPECT_NE(what.find("dataset"), std::string::npos) << what;
  }
}

}  // namespace
}  // namespace gbo
