// Tracing/observability (DESIGN.md §9): causal fingerprint order-invariance
// and sensitivity, the causal/timing split (timing fields and timing-class
// events never reach the hash), TraceRing fill-and-drop accounting, the
// session protocol, pool worker-id stamping, the Chrome trace exporter, and
// the headline end-to-end contract: the causal event stream of a serving
// run hashes identically at 1 and 4 workers and equals the planner-derived
// oracle — including a full SLO flash-crowd run.
#include "common/thread_pool.hpp"
#include "models/mlp.hpp"
#include "obs/export.hpp"
#include "obs/trace.hpp"
#include "serve/policy.hpp"
#include "serve/router.hpp"
#include "serve/server.hpp"
#include "tensor/ops.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

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

obs::Event make_event(obs::EventType type, std::uint64_t id, std::uint16_t a,
                      std::uint64_t arg, std::uint64_t t_us = 0,
                      std::uint8_t tid = 0) {
  obs::Event e;
  e.type = static_cast<std::uint8_t>(type);
  e.id = id;
  e.a = a;
  e.arg = arg;
  e.t_us = t_us;
  e.tid = tid;
  return e;
}

// ---- pure fingerprint math (independent of GBO_TRACE) ---------------------

TEST(CausalFingerprint, InvariantUnderPermutation) {
  std::vector<obs::CausalTuple> tuples = {
      {7, 0, 0, 15000}, {3, 3, 1, 900}, {7, 3, 0, 1200}, {0, 4, 2, 333}};
  std::vector<obs::CausalTuple> shuffled = {tuples[2], tuples[0], tuples[3],
                                            tuples[1]};
  EXPECT_EQ(obs::fingerprint_tuples(tuples),
            obs::fingerprint_tuples(shuffled));
}

TEST(CausalFingerprint, SensitiveToEveryField) {
  const std::vector<obs::CausalTuple> base = {{7, 0, 0, 15000}, {3, 3, 1, 9}};
  const std::uint64_t fp = obs::fingerprint_tuples(base);
  auto mutate = [&](auto&& f) {
    std::vector<obs::CausalTuple> m = base;
    f(m);
    return obs::fingerprint_tuples(m);
  };
  EXPECT_NE(fp, mutate([](auto& m) { m[0].id = 8; }));
  EXPECT_NE(fp, mutate([](auto& m) { m[0].type = 1; }));
  EXPECT_NE(fp, mutate([](auto& m) { m[1].a = 2; }));
  EXPECT_NE(fp, mutate([](auto& m) { m[1].arg = 10; }));
  EXPECT_NE(fp, mutate([](auto& m) { m.pop_back(); }));
  EXPECT_NE(fp, mutate([](auto& m) { m.push_back({9, 5, 1, 0}); }));
}

TEST(CausalFingerprint, IgnoresTimingFieldsAndTimingEvents) {
  std::vector<obs::Event> a = {
      make_event(obs::EventType::kAdmit, 1, 0, 500, /*t_us=*/10, /*tid=*/0),
      make_event(obs::EventType::kDeliver, 1, 0, 900, 20, 0)};
  // Same causal content, different wall clock + thread tracks + extra
  // timing-class events interleaved.
  std::vector<obs::Event> b = {
      make_event(obs::EventType::kBatch, 0, 0, 8, 1, 3),
      make_event(obs::EventType::kDeliver, 1, 0, 900, 7777, 2),
      make_event(obs::EventType::kGemm, 64, 10, 1 << 20, 42, 1),
      make_event(obs::EventType::kAdmit, 1, 0, 500, 9999, 1)};
  EXPECT_EQ(obs::causal_fingerprint(a), obs::causal_fingerprint(b));
  EXPECT_EQ(obs::causal_event_count(a), 2u);
  EXPECT_EQ(obs::causal_event_count(b), 2u);
  // ...but a causal difference shows.
  b[3].arg = 501;
  EXPECT_NE(obs::causal_fingerprint(a), obs::causal_fingerprint(b));
}

TEST(CausalFingerprint, CausalTimingPartitionMatchesEventVocabulary) {
  using obs::EventType;
  for (auto t : {EventType::kAdmit, EventType::kShed, EventType::kRetry,
                 EventType::kDeliver, EventType::kLadder, EventType::kBreaker,
                 EventType::kRoute})
    EXPECT_TRUE(obs::is_causal(t)) << obs::event_name(t);
  for (auto t : {EventType::kBatch, EventType::kBatchMember,
                 EventType::kQueuePop, EventType::kStall, EventType::kGemm,
                 EventType::kBinaryMvm, EventType::kPulseEncode,
                 EventType::kArenaAlloc})
    EXPECT_FALSE(obs::is_causal(t)) << obs::event_name(t);
}

TEST(TraceRing, FillsThenDropsAndCounts) {
  obs::TraceRing ring(3);
  for (std::uint64_t i = 0; i < 5; ++i)
    ring.emit(make_event(obs::EventType::kAdmit, i, 0, 0));
  EXPECT_EQ(ring.size(), 3u);
  EXPECT_EQ(ring.dropped(), 2u);
  // The oldest events are kept (fill-and-drop, not wraparound): a truncated
  // trace is detectable via dropped() instead of silently losing the head.
  EXPECT_EQ(ring.data()[0].id, 0u);
  EXPECT_EQ(ring.data()[2].id, 2u);
  ring.rewind();
  EXPECT_EQ(ring.size(), 0u);
  EXPECT_EQ(ring.dropped(), 0u);
}

// ---- runtime (compiled out alongside the hooks) ---------------------------
#if GBO_TRACE

struct TraceGuard {
  TraceGuard() { obs::set_runtime_enabled(true); }
  ~TraceGuard() { obs::set_runtime_enabled(true); }
};

TEST(TraceRuntime, SessionCapturesEmissionsAndRewinds) {
  TraceGuard tg;
  obs::begin_session();
  GBO_TRACE_EVENT(obs::EventType::kAdmit, 11, 0, 400);
  { GBO_TRACE_SPAN(obs::EventType::kGemm, 8, 8, 1024); }
  const obs::TraceSnapshot snap = obs::end_session();
  ASSERT_GE(snap.events.size(), 2u);
  EXPECT_EQ(snap.dropped, 0u);
  std::size_t admits = 0, gemms = 0;
  for (const obs::Event& e : snap.events) {
    if (e.type == static_cast<std::uint8_t>(obs::EventType::kAdmit) &&
        e.id == 11)
      ++admits;
    if (e.type == static_cast<std::uint8_t>(obs::EventType::kGemm)) ++gemms;
  }
  EXPECT_EQ(admits, 1u);
  EXPECT_GE(gemms, 1u);

  // A new session must not see the previous session's events.
  obs::begin_session();
  const obs::TraceSnapshot empty = obs::end_session();
  EXPECT_EQ(empty.events.size(), 0u);
}

TEST(TraceRuntime, RuntimeKillSwitchSuppressesEmission) {
  TraceGuard tg;
  obs::begin_session();
  obs::set_runtime_enabled(false);
  GBO_TRACE_EVENT(obs::EventType::kAdmit, 1, 0, 0);
  { GBO_TRACE_SPAN(obs::EventType::kGemm, 4, 4, 64); }
  obs::set_runtime_enabled(true);
  const obs::TraceSnapshot snap = obs::end_session();
  EXPECT_EQ(snap.events.size(), 0u);
}

TEST(TraceRuntime, WorkerIdsAreStableAndStamped) {
  TraceGuard tg;
  ThreadGuard guard;
  ThreadPool& pool = ThreadPool::instance();
  pool.set_num_threads(4);
  EXPECT_EQ(ThreadPool::current_worker_id(), 0u);  // caller is worker 0

  obs::begin_session();
  std::vector<unsigned> block_worker(8, 999);
  pool.parallel_for(0, 8, 1, [&](std::size_t lo, std::size_t hi) {
    for (std::size_t b = lo; b < hi; ++b) {
      block_worker[b] = ThreadPool::current_worker_id();
      GBO_TRACE_EVENT(obs::EventType::kAdmit, b, 0, 0);
    }
  });
  const obs::TraceSnapshot snap = obs::end_session();
  for (std::size_t b = 0; b < block_worker.size(); ++b)
    EXPECT_LT(block_worker[b], 4u) << b;
  EXPECT_EQ(ThreadPool::current_worker_id(), 0u);  // unchanged on the caller
  // The emitting thread's id is stamped on each event's track.
  std::size_t found = 0;
  for (const obs::Event& e : snap.events)
    if (e.type == static_cast<std::uint8_t>(obs::EventType::kAdmit)) {
      EXPECT_EQ(e.tid, block_worker[e.id]) << e.id;
      ++found;
    }
  EXPECT_EQ(found, 8u);
}

TEST(TraceRuntime, ChromeExportAndSummaryAreWellFormed) {
  TraceGuard tg;
  obs::begin_session();
  GBO_TRACE_EVENT(obs::EventType::kAdmit, 5, 0, 123);
  { GBO_TRACE_SPAN(obs::EventType::kBinaryMvm, 16, 16, 4096); }
  const obs::TraceSnapshot snap = obs::end_session();

  const Json doc = obs::chrome_trace(snap, "test");
  ASSERT_TRUE(doc.contains("traceEvents"));
  const Json& evs = doc.at("traceEvents");
  // process_name metadata + >=1 thread_name metadata + the events.
  ASSERT_GE(evs.size(), 2u + snap.events.size());
  EXPECT_EQ(evs.at(std::size_t{0}).at("ph").as_string(), "M");
  EXPECT_EQ(doc.at("displayTimeUnit").as_string(), "ms");
  EXPECT_EQ(doc.at("dropped_events").as_number(), 0.0);
  bool saw_span = false, saw_instant = false;
  for (std::size_t i = 0; i < evs.size(); ++i) {
    const std::string& ph = evs.at(i).at("ph").as_string();
    if (ph == "X") saw_span = true;
    if (ph == "i") saw_instant = true;
  }
  EXPECT_TRUE(saw_span);
  EXPECT_TRUE(saw_instant);

  const Json sum = obs::trace_summary(snap);
  EXPECT_EQ(sum.at("causal_events").as_number(), 1.0);
  EXPECT_EQ(sum.at("causal_fingerprint").as_string(),
            serve::hex64(obs::causal_fingerprint(snap.events)));
  ASSERT_TRUE(sum.contains("kernels"));
  EXPECT_TRUE(sum.at("kernels").contains("binary_mvm"));
  EXPECT_TRUE(
      sum.at("kernels").at("binary_mvm").contains("kernel"));
}

// ---- end-to-end: serving runs hash identically across worker counts ------

// kBatch spans of a snapshot whose route tag (a) equals `route`.
std::size_t batch_spans_on_route(const obs::TraceSnapshot& snap,
                                 std::uint16_t route) {
  return static_cast<std::size_t>(std::count_if(
      snap.events.begin(), snap.events.end(), [route](const obs::Event& e) {
        return e.type == static_cast<std::uint8_t>(obs::EventType::kBatch) &&
               e.a == route;
      }));
}

TEST(TraceServe, SloOffRunFingerprintMatchesAcrossWorkersAndOracle) {
  TraceGuard tg;
  ThreadGuard guard;
  models::MlpConfig mcfg;
  mcfg.in_features = 16;
  mcfg.hidden = {24};
  mcfg.num_classes = 4;
  models::Mlp model = models::build_mlp(mcfg);
  model.net->set_training(false);
  data::Dataset ds = random_dataset(32, 16, 61);
  serve::AnalyticBackend backend(*model.net, /*stochastic=*/false);

  serve::TrafficConfig tcfg;
  tcfg.num_requests = 80;
  tcfg.rate_rps = 4000.0;
  tcfg.seed = 5;
  const auto trace = serve::make_trace(tcfg, ds.size());

  serve::ServeConfig cfg;
  cfg.batch.max_batch = 8;
  cfg.seed = 17;

  ThreadPool::instance().set_num_threads(1);
  cfg.num_workers = 1;
  serve::InferenceServer s1(
      serve::ServerSpec{}.primary(backend).dataset(ds).config(cfg));
  obs::begin_session();
  (void)s1.run(trace);
  const obs::TraceSnapshot snap1 = obs::end_session();

  ThreadPool::instance().set_num_threads(4);
  cfg.num_workers = 4;
  serve::InferenceServer s4(
      serve::ServerSpec{}.primary(backend).dataset(ds).config(cfg));
  obs::begin_session();
  (void)s4.run(trace);
  const obs::TraceSnapshot snap4 = obs::end_session();

  EXPECT_EQ(snap1.dropped, 0u);
  EXPECT_EQ(snap4.dropped, 0u);
  const std::uint64_t fp1 = obs::causal_fingerprint(snap1.events);
  const std::uint64_t fp4 = obs::causal_fingerprint(snap4.events);
  EXPECT_EQ(fp1, fp4);
  // SLO-off runs execute the always-serve ledger through the same executor,
  // so the one RouterPlan oracle covers them too.
  const serve::RouterPlan plan = s1.plan_trace(trace);
  EXPECT_EQ(fp1, serve::expected_causal_fingerprint(plan));
  EXPECT_EQ(obs::causal_event_count(snap1.events),
            serve::expected_causal_event_count(plan));
  // Every batch ran on the primary route: no kBatch span carries the
  // degraded tag.
  EXPECT_GT(batch_spans_on_route(snap1, 0), 0u);
  EXPECT_EQ(batch_spans_on_route(snap1, 1), 0u);
  EXPECT_EQ(batch_spans_on_route(snap4, 1), 0u);
}

TEST(TraceServe, SloRunFingerprintMatchesPlanOracle) {
  TraceGuard tg;
  ThreadGuard guard;
  models::MlpConfig pcfg;
  pcfg.in_features = 16;
  pcfg.hidden = {24, 24};
  pcfg.num_classes = 4;
  models::Mlp primary_m = models::build_mlp(pcfg);
  primary_m.net->set_training(false);
  models::MlpConfig dcfg = pcfg;
  dcfg.hidden = {12};
  models::Mlp degraded_m = models::build_mlp(dcfg);
  degraded_m.net->set_training(false);
  data::Dataset ds = random_dataset(32, 16, 61);
  serve::AnalyticBackend pb(*primary_m.net, /*stochastic=*/false);
  serve::AnalyticBackend db(*degraded_m.net, /*stochastic=*/false);

  serve::TrafficConfig tcfg;
  tcfg.num_requests = 220;
  tcfg.rate_rps = 900.0;
  tcfg.shape = serve::TraceShape::kFlashCrowd;
  tcfg.flash_factor = 14.0;
  tcfg.flash_start_s = 0.05;
  tcfg.flash_ramp_s = 0.005;
  tcfg.flash_hold_s = 0.02;
  tcfg.high_fraction = 0.2;
  tcfg.low_fraction = 0.3;
  tcfg.seed = 101;
  const auto trace = serve::make_trace(tcfg, ds.size());

  serve::ServeConfig cfg;
  cfg.batch.max_batch = 8;
  cfg.seed = 29;
  cfg.slo.enabled = true;
  cfg.slo.deadline_us = 15000;
  cfg.slo.completion_headroom_us = 9000;
  cfg.slo.queue.capacity = 64;
  cfg.slo.queue.on_full = serve::QueuePolicy::OnFull::kDropOldest;
  cfg.slo.cost.batch_fixed_us = 50;
  cfg.slo.cost.primary_us = 800;
  cfg.slo.cost.degraded_us = 100;
  cfg.slo.cost.retry_penalty_us = 100;
  cfg.slo.ladder.degrade_depth = 8;
  cfg.slo.ladder.shed_depth = 30;
  cfg.slo.ladder.recover_depth = 2;
  cfg.slo.ladder.shed_floor = serve::Priority::kNormal;
  cfg.slo.retry.max_attempts = 2;
  cfg.slo.retry.backoff_us = 50;
  cfg.slo.breaker.failure_threshold = 3;
  cfg.slo.breaker.cooldown_us = 30000;
  cfg.slo.fault.enabled = true;
  cfg.slo.fault.seed = 555;
  cfg.slo.fault.transient_rate = 0.08;
  cfg.slo.fault.outage_start_id = 30;
  cfg.slo.fault.outage_len = 12;

  ThreadPool::instance().set_num_threads(1);
  cfg.num_workers = 1;
  serve::InferenceServer s1(serve::ServerSpec{}
                                .primary(pb)
                                .degraded(db)
                                .dataset(ds)
                                .config(cfg));
  const serve::RouterPlan plan = s1.plan_trace(trace);
  // The scenario must actually exercise sheds + transitions or this test
  // proves nothing about the richer causal vocabulary.
  ASSERT_GT(plan.counters.shed_expired + plan.counters.shed_overload, 0u);
  ASSERT_GT(plan.counters.ladder_transitions, 0u);
  ASSERT_GT(plan.counters.retried_requests, 0u);
  ASSERT_GT(plan.counters.degraded_ladder, 0u);

  obs::begin_session();
  (void)s1.run(trace);
  const obs::TraceSnapshot snap1 = obs::end_session();

  ThreadPool::instance().set_num_threads(4);
  cfg.num_workers = 4;
  serve::InferenceServer s4(serve::ServerSpec{}
                                .primary(pb)
                                .degraded(db)
                                .dataset(ds)
                                .config(cfg));
  obs::begin_session();
  (void)s4.run(trace);
  const obs::TraceSnapshot snap4 = obs::end_session();

  EXPECT_EQ(snap1.dropped, 0u);
  EXPECT_EQ(snap4.dropped, 0u);
  const std::uint64_t fp1 = obs::causal_fingerprint(snap1.events);
  const std::uint64_t fp4 = obs::causal_fingerprint(snap4.events);
  EXPECT_EQ(fp1, fp4);
  EXPECT_EQ(fp1, serve::expected_causal_fingerprint(plan));
  EXPECT_EQ(obs::causal_event_count(snap1.events),
            serve::expected_causal_event_count(plan));
  EXPECT_EQ(obs::causal_event_count(snap4.events),
            serve::expected_causal_event_count(plan));
  // The ladder degraded work, so some batch ran on the degraded route.
  EXPECT_GT(batch_spans_on_route(snap1, 1), 0u);
  EXPECT_GT(batch_spans_on_route(snap4, 1), 0u);
}

TEST(TraceServe, SteadyStateEmissionDoesNotMintRings) {
  TraceGuard tg;
  ThreadGuard guard;
  models::MlpConfig mcfg;
  mcfg.in_features = 16;
  mcfg.hidden = {24};
  mcfg.num_classes = 4;
  models::Mlp model = models::build_mlp(mcfg);
  model.net->set_training(false);
  data::Dataset ds = random_dataset(32, 16, 61);
  serve::AnalyticBackend backend(*model.net, /*stochastic=*/false);

  serve::TrafficConfig tcfg;
  tcfg.num_requests = 40;
  tcfg.rate_rps = 4000.0;
  tcfg.seed = 5;
  const auto trace = serve::make_trace(tcfg, ds.size());

  serve::ServeConfig cfg;
  cfg.batch.max_batch = 8;
  cfg.seed = 17;
  cfg.num_workers = 4;
  ThreadPool::instance().set_num_threads(4);
  serve::InferenceServer server(
      serve::ServerSpec{}.primary(backend).dataset(ds).config(cfg));
  (void)server.run(trace);  // warm run mints every worker's ring
  const std::uint64_t rings0 = obs::ring_allocs();
  obs::begin_session();
  (void)server.run(trace);
  (void)obs::end_session();
  EXPECT_EQ(obs::ring_allocs(), rings0);
}

#endif  // GBO_TRACE

}  // namespace
}  // namespace gbo
