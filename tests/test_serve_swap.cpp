// Zero-downtime weight hot-swap (DESIGN.md §11): the ModelRegistry's
// immutable refcounted snapshots, apply_swap()'s pure canary/rollback
// overlay on the routed ledger (pin-at-admission windows, version-blind
// costs, kCanary mode rewrite), the breaker-gated rollback on a seeded
// faulty candidate, and the end-to-end contract — payload provenance
// bitwise equal to pinned single-version runs at any worker count, with
// the kSwap/kCanary causal trajectory matching the planner oracle.
#include "common/thread_pool.hpp"
#include "models/mlp.hpp"
#include "obs/trace.hpp"
#include "serve/policy.hpp"
#include "serve/router.hpp"
#include "serve/server.hpp"
#include "serve/swap.hpp"
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

serve::SwapPolicy mid_trace_swap(std::uint32_t from, std::uint32_t to) {
  serve::SwapPolicy sp;
  sp.enabled = true;
  sp.from_version = from;
  sp.to_version = to;
  sp.start_us = 30000;  // mid-trace, before the flash crowd hits
  sp.canary_replica = 0;
  sp.canary_requests = 8;
  sp.breaker.failure_threshold = 3;
  sp.breaker.cooldown_us = 5000;
  return sp;
}

// Two incumbent/candidate models with identical topology but different
// seeds: same response shape, different weights, so a payload row proves
// which version produced it.
struct SwapFixture {
  models::Mlp incumbent_model;
  models::Mlp candidate_model;
  models::Mlp degraded_model;
  data::Dataset ds;
  serve::AnalyticBackend incumbent;
  serve::AnalyticBackend candidate;
  serve::AnalyticBackend degraded;
  serve::ModelRegistry registry;
  std::uint32_t v1 = 0;
  std::uint32_t v2 = 0;

  SwapFixture()
      : incumbent_model(make_model({24, 24}, 31)),
        candidate_model(make_model({24, 24}, 77)),
        degraded_model(make_model({12}, 32)),
        ds(random_dataset(32, 16, 61)),
        incumbent(*incumbent_model.net, /*stochastic=*/false),
        candidate(*candidate_model.net, /*stochastic=*/false),
        degraded(*degraded_model.net, /*stochastic=*/false) {
    v1 = registry.register_model(incumbent, "incumbent");
    v2 = registry.register_model(candidate, "candidate");
  }

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
                         const serve::SwapPolicy* sp) const {
    serve::RouterPolicy router;
    router.strategy = serve::RouterPolicy::Strategy::kRoundRobin;
    serve::ServerSpec s = serve::ServerSpec{}
                              .primary(incumbent)
                              .degraded(degraded)
                              .dataset(ds)
                              .config(cfg)
                              .replicas(replicas)
                              .router(router)
                              .registry(registry);
    if (sp != nullptr) s.swap(*sp);
    return s;
  }
};

// ---- the registry ---------------------------------------------------------

TEST(ModelRegistry, VersionsAreDenseAndSnapshotsPin) {
  SwapFixture f;
  EXPECT_EQ(f.v1, 1u);
  EXPECT_EQ(f.v2, 2u);
  EXPECT_EQ(f.registry.latest(), 2u);
  EXPECT_EQ(f.registry.size(), 2u);
  EXPECT_TRUE(f.registry.has(1));
  EXPECT_TRUE(f.registry.has(2));
  EXPECT_FALSE(f.registry.has(0));
  EXPECT_FALSE(f.registry.has(3));

  const auto snap = f.registry.snapshot(f.v2);
  ASSERT_NE(snap, nullptr);
  EXPECT_EQ(snap->version, 2u);
  EXPECT_EQ(snap->backend, &f.candidate);
  EXPECT_EQ(snap->label, "candidate");
  // The shared_ptr is the pin: at least the registry and this handle.
  EXPECT_GE(snap.use_count(), 2);
  EXPECT_EQ(f.registry.snapshot(99), nullptr);
}

TEST(ModelRegistry, RejectsMoreThan255Versions) {
  SwapFixture f;
  serve::ModelRegistry reg;
  for (std::uint32_t v = 1; v <= 255; ++v)
    EXPECT_EQ(reg.register_model(f.incumbent, "v"), v);
  // The causal trace folds the version into one byte; version 256 would
  // alias version 0 (the "no registry" sentinel).
  EXPECT_THROW(reg.register_model(f.incumbent, "overflow"),
               std::invalid_argument);
}

// ---- spec validation ------------------------------------------------------

TEST(SwapSpec, ValidationCatchesEveryMisconfiguration) {
  SwapFixture f;
  const serve::ServeConfig cfg = fleet_config();
  serve::SwapPolicy sp = mid_trace_swap(1, 1);  // from == to
  sp.canary_replica = 9;                        // out of range -> warning
  serve::ServerSpec bad = f.spec(cfg, 3, &sp);
  const auto v = bad.validate();
  EXPECT_FALSE(v.ok());
  EXPECT_GE(v.warnings.size(), 1u);

  serve::SwapPolicy unreg = mid_trace_swap(1, 7);  // 7 never registered
  EXPECT_FALSE(f.spec(cfg, 3, &unreg).validate().ok());

  serve::SwapPolicy no_reg = mid_trace_swap(1, 2);
  serve::ServerSpec no_registry = serve::ServerSpec{}
                                      .primary(f.incumbent)
                                      .dataset(f.ds)
                                      .config(cfg)
                                      .replicas(3)
                                      .swap(no_reg);
  EXPECT_FALSE(no_registry.validate().ok());

  // A hot swap needs a replica boundary to canary on: the single-replica
  // InferenceServer rejects it outright.
  serve::SwapPolicy ok = mid_trace_swap(1, 2);
  serve::ServerSpec single = f.spec(cfg, 1, &ok);
  EXPECT_THROW(serve::InferenceServer{single}, std::invalid_argument);

  // The same policy on a fleet builds cleanly.
  serve::ServerSpec fleet = f.spec(cfg, 3, &ok);
  EXPECT_TRUE(fleet.validate().ok());
}

// ---- the pure overlay -----------------------------------------------------

TEST(ApplySwap, OverlayIsPureVersionBlindAndPinsByAdmission) {
  SwapFixture f;
  const auto trace = serve::make_trace(flash_traffic(), f.ds.size());
  const serve::ServeConfig cfg = fleet_config();
  serve::RouterPolicy router;
  const serve::SwapPolicy sp = mid_trace_swap(1, 2);

  const serve::RouterPlan base =
      serve::route_plan(trace, cfg.slo, cfg.batch, router, 3);
  serve::RouterPlan a = base;
  serve::RouterPlan b = base;
  const serve::SwapPlan swa = serve::apply_swap(a, trace, sp);
  const serve::SwapPlan swb = serve::apply_swap(b, trace, sp);

  // Purity: identical trajectory both times.
  EXPECT_EQ(swa.verdict_us, swb.verdict_us);
  EXPECT_EQ(swa.rolled_back, swb.rolled_back);
  EXPECT_EQ(swa.version_hash, swb.version_hash);
  EXPECT_EQ(swa.version_of, swb.version_of);

  // A clean candidate promotes, and the promotion cuts every non-canary
  // active replica over at the verdict.
  EXPECT_FALSE(swa.rolled_back);
  EXPECT_EQ(swa.canary_served, sp.canary_requests);
  EXPECT_EQ(swa.canary_faults, 0u);
  ASSERT_EQ(swa.cutovers.size(), base.active.size());
  EXPECT_EQ(swa.cutovers[0].at_us, sp.start_us);
  EXPECT_EQ(swa.cutovers[0].replica, sp.canary_replica);
  EXPECT_EQ(swa.cutovers[0].version, 2u);
  EXPECT_GT(swa.verdict_us, swa.start_us);

  // Version-blind overlay: outcomes, virtual times, shed/routing hashes
  // are untouched — a swap cannot change who was admitted, shed, or where
  // anything routed.
  EXPECT_EQ(a.shed_set_hash, base.shed_set_hash);
  EXPECT_EQ(a.routing_hash, base.routing_hash);
  ASSERT_EQ(a.decisions.size(), base.decisions.size());
  std::size_t canaried = 0;
  for (std::size_t i = 0; i < trace.size(); ++i) {
    EXPECT_EQ(a.decisions[i].outcome, base.decisions[i].outcome);
    EXPECT_EQ(a.decisions[i].v_done_us, base.decisions[i].v_done_us);

    // The pin-at-admission rule, request by request.
    const std::uint64_t t = trace[i].t_us;
    const bool canary = base.assignment[i] == swa.canary_replica;
    std::uint32_t want;
    if (t < swa.start_us)
      want = 1;
    else if (t < swa.verdict_us)
      want = canary ? 2 : 1;
    else
      want = 2;
    EXPECT_EQ(swa.version_of[i], want) << "request " << i;
    EXPECT_EQ(a.decisions[i].version, want);

    // The canary rewrite: primary-served canary-window requests on the
    // canary replica — and only those — become ServeMode::kCanary.
    const bool in_window = canary && t >= swa.start_us && t < swa.verdict_us;
    if (in_window && base.decisions[i].served() &&
        base.decisions[i].mode == serve::ServeMode::kPrimary) {
      EXPECT_EQ(a.decisions[i].mode, serve::ServeMode::kCanary);
      ++canaried;
    } else {
      EXPECT_EQ(a.decisions[i].mode, base.decisions[i].mode);
    }
  }
  EXPECT_GE(canaried, swa.canary_served);
  EXPECT_EQ(a.counters.served_canary, canaried);
  EXPECT_EQ(a.counters.served_primary + canaried,
            base.counters.served_primary);
  EXPECT_EQ(a.counters.served, base.counters.served);

  // The swap trajectory is part of the causal oracle: a swapped plan must
  // not fingerprint like an unswapped one.
  EXPECT_NE(serve::expected_causal_fingerprint(a),
            serve::expected_causal_fingerprint(base));
  EXPECT_EQ(serve::expected_causal_event_count(a),
            serve::expected_causal_event_count(base) + swa.cutovers.size() +
                1);
}

TEST(ApplySwap, SeededFaultyCandidateRollsBackThroughBreaker) {
  SwapFixture f;
  const auto trace = serve::make_trace(flash_traffic(), f.ds.size());
  const serve::ServeConfig cfg = fleet_config();
  serve::RouterPolicy router;
  serve::SwapPolicy sp = mid_trace_swap(1, 2);
  sp.candidate_fault.enabled = true;
  sp.candidate_fault.transient_rate = 1.0;  // candidate fails every request

  serve::RouterPlan rp = serve::route_plan(trace, cfg.slo, cfg.batch, router, 3);
  const serve::SwapPlan sw = serve::apply_swap(rp, trace, sp);

  EXPECT_TRUE(sw.rolled_back);
  EXPECT_GE(sw.breaker_opens, 1u);
  // The breaker opens at failure_threshold and cuts the evaluation short.
  EXPECT_EQ(sw.canary_served, sp.breaker.failure_threshold);
  EXPECT_EQ(sw.canary_faults, sp.breaker.failure_threshold);
  // Rollback: exactly two cutovers — canary forward, canary back.
  ASSERT_EQ(sw.cutovers.size(), 2u);
  EXPECT_EQ(sw.cutovers[1].replica, sw.canary_replica);
  EXPECT_EQ(sw.cutovers[1].version, 1u);
  EXPECT_EQ(sw.cutovers[1].at_us, sw.verdict_us);

  // Post-verdict admissions pin to the incumbent; only the canary window
  // on the canary replica ever saw the candidate.
  for (std::size_t i = 0; i < trace.size(); ++i) {
    if (trace[i].t_us >= sw.verdict_us) EXPECT_EQ(sw.version_of[i], 1u);
    if (sw.version_of[i] == 2u) {
      EXPECT_EQ(rp.assignment[i], sw.canary_replica);
      EXPECT_GE(trace[i].t_us, sw.start_us);
      EXPECT_LT(trace[i].t_us, sw.verdict_us);
    }
  }
}

// ---- end to end -----------------------------------------------------------

// The "zero mixed-version payloads" gate: a swap run's output tensor must
// be row-for-row bitwise equal to a composite of two pinned single-version
// runs — every request's payload attributable to exactly the version the
// plan pinned it to, at any worker count.
TEST(SwapRun, PayloadProvenanceBitwiseEqualsPinnedRunsAtAnyWorkerCount) {
  ThreadGuard guard;
  SwapFixture f;
  const auto trace = serve::make_trace(flash_traffic(), f.ds.size());
  serve::ServeConfig cfg = fleet_config();
  const serve::SwapPolicy sp = mid_trace_swap(f.v1, f.v2);

  ThreadPool::instance().set_num_threads(1);
  cfg.num_workers = 1;
  serve::ReplicaGroup g1(f.spec(cfg, 3, &sp));
  const serve::RouterPlan rp = g1.plan_trace(trace);
  ASSERT_TRUE(rp.swap.enabled);
  ASSERT_FALSE(rp.swap.rolled_back);
  const serve::RouterReport r1 = g1.run(trace);

  ThreadPool::instance().set_num_threads(4);
  cfg.num_workers = 2;
  serve::ReplicaGroup g4(f.spec(cfg, 3, &sp));
  const serve::RouterReport r4 = g4.run(trace);

  // Worker-count invariance of payloads, provenance, and the swap ledger.
  expect_bitwise_equal(r1.serve.outputs, r4.serve.outputs);
  EXPECT_EQ(r1.serve.versions, r4.serve.versions);
  EXPECT_EQ(r1.serve.swap.version_hash, r4.serve.swap.version_hash);
  EXPECT_EQ(r1.serve.slo.exec_shed_set_hash, r4.serve.slo.exec_shed_set_hash);
  EXPECT_EQ(r1.serve.versions, rp.swap.version_of);
  EXPECT_EQ(r1.serve.swap.verdict_us, rp.swap.verdict_us);
  EXPECT_GT(r1.serve.slo.served_canary, 0u);

  // Pinned reference runs: the same fleet serving the whole trace on one
  // version. The swap is version-blind, so all three plans share outcomes
  // and the composite row comparison is exact.
  ThreadPool::instance().set_num_threads(4);
  serve::ReplicaGroup pin1(f.spec(cfg, 3, nullptr));  // primary = incumbent
  const serve::RouterReport rv1 = pin1.run(trace);
  serve::RouterPolicy router;
  serve::ReplicaGroup pin2(serve::ServerSpec{}
                               .primary(f.candidate)
                               .degraded(f.degraded)
                               .dataset(f.ds)
                               .config(cfg)
                               .replicas(3)
                               .router(router));
  const serve::RouterReport rv2 = pin2.run(trace);
  EXPECT_EQ(rv1.serve.slo.exec_shed_set_hash,
            r1.serve.slo.exec_shed_set_hash);  // "zero dropped by the swap"

  const std::size_t out_dim = r1.serve.outputs.shape()[1];
  std::size_t v2_rows = 0;
  for (std::size_t i = 0; i < trace.size(); ++i) {
    const Tensor& want_src =
        rp.swap.version_of[i] == f.v2 ? rv2.serve.outputs : rv1.serve.outputs;
    if (rp.swap.version_of[i] == f.v2 && rp.decisions[i].served() &&
        (rp.decisions[i].mode == serve::ServeMode::kPrimary ||
         rp.decisions[i].mode == serve::ServeMode::kCanary))
      ++v2_rows;
    for (std::size_t j = 0; j < out_dim; ++j)
      ASSERT_EQ(r1.serve.outputs.at(i, j), want_src.at(i, j))
          << "request " << i << " version " << rp.swap.version_of[i];
  }
  EXPECT_GT(v2_rows, 0u);  // the swap actually moved payloads to v2

  // Provenance accounting closes: per-version served counts sum to the
  // delivered total.
  std::size_t by_version = 0;
  for (const auto& e : r1.serve.swap.served_by_version) by_version += e.second;
  EXPECT_EQ(by_version, r1.serve.completed);
  EXPECT_EQ(r1.serve.swap.served_by_version.size(), 2u);
}

#if GBO_TRACE
TEST(SwapRun, CausalFingerprintMatchesOracleAcrossWorkerCounts) {
  ThreadGuard guard;
  SwapFixture f;
  const auto trace = serve::make_trace(flash_traffic(), f.ds.size());
  serve::ServeConfig cfg = fleet_config();
  serve::SwapPolicy sp = mid_trace_swap(f.v1, f.v2);
  sp.candidate_fault.enabled = true;
  sp.candidate_fault.transient_rate = 1.0;  // exercise the rollback leg too

  ThreadPool::instance().set_num_threads(1);
  cfg.num_workers = 1;
  serve::ReplicaGroup g1(f.spec(cfg, 3, &sp));
  const serve::RouterPlan rp = g1.plan_trace(trace);
  ASSERT_TRUE(rp.swap.rolled_back);
  obs::begin_session();
  (void)g1.run(trace);
  const obs::TraceSnapshot snap1 = obs::end_session();

  ThreadPool::instance().set_num_threads(4);
  cfg.num_workers = 2;
  serve::ReplicaGroup g4(f.spec(cfg, 3, &sp));
  obs::begin_session();
  (void)g4.run(trace);
  const obs::TraceSnapshot snap4 = obs::end_session();

  EXPECT_EQ(snap1.dropped, 0u);
  EXPECT_EQ(snap4.dropped, 0u);
  const std::uint64_t fp1 = obs::causal_fingerprint(snap1.events);
  const std::uint64_t fp4 = obs::causal_fingerprint(snap4.events);
  EXPECT_EQ(fp1, fp4);
  EXPECT_EQ(fp1, serve::expected_causal_fingerprint(rp));
  EXPECT_EQ(obs::causal_event_count(snap1.events),
            serve::expected_causal_event_count(rp));

  // The swap/canary events the runtime emitted are exactly the planned
  // cutovers plus one verdict.
  std::size_t swaps = 0, canaries = 0;
  for (const obs::Event& e : snap1.events) {
    if (e.type == static_cast<std::uint8_t>(obs::EventType::kSwap)) ++swaps;
    if (e.type == static_cast<std::uint8_t>(obs::EventType::kCanary))
      ++canaries;
  }
  EXPECT_EQ(swaps, rp.swap.cutovers.size());
  EXPECT_EQ(canaries, 1u);
}
#endif  // GBO_TRACE

}  // namespace
}  // namespace gbo
