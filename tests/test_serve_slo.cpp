// SLO control plane (DESIGN.md §7): bounded-queue admission (reject-new /
// drop-oldest with the priority guard), priority-ordered pops, deadline and
// overload shedding at pop time, the planner's work-conserving flush rule,
// shutdown/drain under producer/consumer load, deterministic fault
// injection and the circuit breaker, the diurnal / flash-crowd trace
// shapes, the virtual-time planner's invariants, and the end-to-end
// plan-vs-execution determinism contract at 1 vs 4 workers.
#include "common/thread_pool.hpp"
#include "models/mlp.hpp"
#include "serve/fault.hpp"
#include "serve/policy.hpp"
#include "serve/server.hpp"
#include "tensor/ops.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <thread>

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

serve::Request make_request(std::uint64_t id,
                            serve::Priority pri = serve::Priority::kNormal,
                            std::uint64_t enqueue_us = 0) {
  serve::Request r;
  r.id = id;
  r.priority = pri;
  r.enqueue_us = enqueue_us;
  return r;
}

// ---- bounded queue --------------------------------------------------------

TEST(ServeSloQueue, RejectNewBouncesAtCapacity) {
  serve::QueuePolicy qp;
  qp.capacity = 2;
  qp.on_full = serve::QueuePolicy::OnFull::kRejectNew;
  serve::RequestQueue q(qp);
  EXPECT_EQ(q.push(make_request(0)), serve::RequestQueue::PushResult::kAccepted);
  EXPECT_EQ(q.push(make_request(1)), serve::RequestQueue::PushResult::kAccepted);
  EXPECT_EQ(q.push(make_request(2)),
            serve::RequestQueue::PushResult::kRejectedFull);
  EXPECT_EQ(q.size(), 2u);
  EXPECT_EQ(q.depth_stats().rejected, 1u);
  EXPECT_EQ(q.depth_stats().pushes, 2u);
}

TEST(ServeSloQueue, DropOldestEvictsLeastImportantNeverBetter) {
  serve::QueuePolicy qp;
  qp.capacity = 2;
  qp.on_full = serve::QueuePolicy::OnFull::kDropOldest;
  serve::RequestQueue q(qp);
  q.push(make_request(0, serve::Priority::kLow));
  q.push(make_request(1, serve::Priority::kNormal));
  // Normal arrival at capacity: the oldest kLow request is the victim.
  serve::Request victim;
  EXPECT_EQ(q.push(make_request(2, serve::Priority::kNormal), &victim),
            serve::RequestQueue::PushResult::kAcceptedEvicted);
  EXPECT_EQ(victim.id, 0u);
  // A kLow arrival must not evict the queued kNormal work: bounced instead.
  EXPECT_EQ(q.push(make_request(3, serve::Priority::kLow)),
            serve::RequestQueue::PushResult::kRejectedFull);
  EXPECT_EQ(q.depth_stats().evicted, 1u);
  EXPECT_EQ(q.depth_stats().rejected, 1u);
}

TEST(ServeSloQueue, PopsDrainHigherPriorityClassesFirst) {
  serve::RequestQueue q;
  q.push(make_request(0, serve::Priority::kLow));
  q.push(make_request(1, serve::Priority::kNormal));
  q.push(make_request(2, serve::Priority::kHigh));
  q.push(make_request(3, serve::Priority::kNormal));
  q.close();
  serve::BatchPolicy policy;
  policy.max_batch = 8;
  std::vector<serve::Request> batch;
  ASSERT_TRUE(q.pop_batch(policy, batch));
  ASSERT_EQ(batch.size(), 4u);
  EXPECT_EQ(batch[0].id, 2u);  // kHigh first
  EXPECT_EQ(batch[1].id, 1u);  // then kNormal in FIFO order
  EXPECT_EQ(batch[2].id, 3u);
  EXPECT_EQ(batch[3].id, 0u);  // kLow last
}

TEST(ServeSloQueue, TryPopShedsExpiredAndBelowFloor) {
  serve::RequestQueue q;
  serve::Request expired = make_request(0);
  expired.deadline_us = 100;
  q.push(expired);
  serve::Request low = make_request(1, serve::Priority::kLow);
  q.push(low);
  serve::Request live = make_request(2, serve::Priority::kNormal);
  live.deadline_us = 10000;
  q.push(live);
  serve::BatchPolicy policy;
  policy.max_batch = 8;
  std::vector<serve::Request> out, shed;
  // now = 500 expires id 0; floor kNormal sheds the kLow id 1.
  ASSERT_TRUE(q.try_pop_batch(policy, 500, serve::Priority::kNormal, out, shed));
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].id, 2u);
  ASSERT_EQ(shed.size(), 2u);
  for (const auto& s : shed) {
    EXPECT_TRUE(s.shed);
    if (s.id == 0)
      EXPECT_EQ(s.reason, serve::ShedReason::kExpired);
    else
      EXPECT_EQ(s.reason, serve::ShedReason::kOverload);
  }
  EXPECT_EQ(q.depth_stats().sheds, 2u);
  EXPECT_EQ(q.size(), 0u);
}

TEST(ServeSloQueue, MarkedRequestsAreDivertedByBlockingPop) {
  serve::RequestQueue q;
  serve::Request marked = make_request(0);
  marked.shed = true;
  marked.reason = serve::ShedReason::kExpired;  // control-plane mark kept
  q.push(marked);
  serve::BatchPolicy policy;
  policy.max_batch = 4;
  std::vector<serve::Request> batch, shed;
  // A pure-shed flush still returns true with an empty batch.
  ASSERT_TRUE(q.pop_batch(policy, batch, &shed));
  EXPECT_TRUE(batch.empty());
  ASSERT_EQ(shed.size(), 1u);
  EXPECT_EQ(shed[0].reason, serve::ShedReason::kExpired);
  q.close();
  EXPECT_FALSE(q.pop_batch(policy, batch, &shed));
}

// Shutdown / drain under load (satellite): concurrent producers + consumers,
// close() mid-stream, every accepted request is either batched or shed
// (none lost, no deadlock), and the shed accounting is exact.
TEST(ServeSloQueue, ShutdownDrainsWithoutLosingAcceptedRequests) {
  constexpr std::size_t kTotal = 600;
  constexpr std::size_t kConsumers = 3;
  serve::RequestQueue q;
  std::atomic<std::size_t> popped{0}, shed_seen{0};
  serve::BatchPolicy policy;
  policy.max_batch = 4;

  std::vector<std::thread> consumers;
  for (std::size_t c = 0; c < kConsumers; ++c) {
    consumers.emplace_back([&] {
      std::vector<serve::Request> batch, shed;
      while (q.pop_batch(policy, batch, &shed)) {
        popped += batch.size();
        shed_seen += shed.size();
      }
    });
  }
  std::size_t marked = 0;
  for (std::size_t i = 0; i < kTotal; ++i) {
    serve::Request r = make_request(i);
    if (i % 5 == 0) {  // every fifth request carries a control-plane mark
      r.shed = true;
      r.reason = serve::ShedReason::kOverload;
      ++marked;
    }
    ASSERT_EQ(q.push(r), serve::RequestQueue::PushResult::kAccepted);
    if (i % 97 == 0) std::this_thread::yield();
  }
  q.close();
  for (auto& t : consumers) t.join();

  EXPECT_EQ(popped.load() + shed_seen.load(), kTotal);
  EXPECT_EQ(shed_seen.load(), marked);
  EXPECT_EQ(q.size(), 0u);
  EXPECT_EQ(q.depth_stats().sheds, marked);
  // A pop after shutdown still returns false immediately.
  std::vector<serve::Request> batch;
  EXPECT_FALSE(q.pop_batch(policy, batch));
}

// ---- fault injection ------------------------------------------------------

TEST(ServeSloFault, InjectorIsPureInSeedIdAttempt) {
  serve::FaultConfig cfg;
  cfg.enabled = true;
  cfg.seed = 99;
  cfg.transient_rate = 0.3;
  const serve::FaultInjector a(cfg), b(cfg);
  std::size_t fails = 0;
  for (std::uint64_t id = 0; id < 200; ++id) {
    for (std::size_t att = 0; att < 3; ++att) {
      EXPECT_EQ(a.fails(id, att), b.fails(id, att));
      if (a.fails(id, att)) ++fails;
    }
    // attempts_to_success agrees with the per-attempt oracle.
    const std::size_t s = a.attempts_to_success(id, 3);
    for (std::size_t att = 0; att < std::min<std::size_t>(s, 3); ++att)
      EXPECT_TRUE(a.fails(id, att));
    if (s < 3) {
      EXPECT_FALSE(a.fails(id, s));
    }
    EXPECT_EQ(a.stall_us(id), b.stall_us(id));
  }
  // ~30% of 600 attempts fail; a generous band guards the wiring, not the
  // RNG quality.
  EXPECT_GT(fails, 100u);
  EXPECT_LT(fails, 300u);
  serve::FaultConfig off = cfg;
  off.enabled = false;
  const serve::FaultInjector none(off);
  for (std::uint64_t id = 0; id < 50; ++id)
    EXPECT_EQ(none.attempts_to_success(id, 3), 0u);
}

TEST(ServeSloFault, OutageWindowFailsEveryAttempt) {
  serve::FaultConfig cfg;
  cfg.enabled = true;
  cfg.transient_rate = 0.0;
  cfg.outage_start_id = 10;
  cfg.outage_len = 5;
  const serve::FaultInjector inj(cfg);
  for (std::uint64_t id = 0; id < 20; ++id) {
    const bool in = id >= 10 && id < 15;
    EXPECT_EQ(inj.in_outage(id), in);
    EXPECT_EQ(inj.attempts_to_success(id, 4), in ? 4u : 0u);
  }
}

TEST(ServeSloFault, CircuitBreakerLifecycle) {
  serve::BreakerPolicy bp;
  bp.failure_threshold = 3;
  bp.cooldown_us = 1000;
  serve::CircuitBreaker cb(bp);
  EXPECT_TRUE(cb.allow(0));
  cb.record_failure(0);
  cb.record_failure(1);
  EXPECT_EQ(cb.state(), serve::CircuitBreaker::State::kClosed);
  cb.record_failure(2);  // threshold: opens
  EXPECT_EQ(cb.state(), serve::CircuitBreaker::State::kOpen);
  EXPECT_EQ(cb.opens(), 1u);
  EXPECT_FALSE(cb.allow(500));  // cooling down
  EXPECT_TRUE(cb.allow(1002));  // half-open probe admitted
  EXPECT_EQ(cb.state(), serve::CircuitBreaker::State::kHalfOpen);
  EXPECT_FALSE(cb.allow(1003));  // single probe at a time
  cb.record_failure(1004);       // probe failed: straight back to open
  EXPECT_EQ(cb.state(), serve::CircuitBreaker::State::kOpen);
  EXPECT_EQ(cb.opens(), 2u);
  EXPECT_TRUE(cb.allow(2005));  // second probe after the new cooldown
  cb.record_success(2006);      // probe succeeded: closed again
  EXPECT_EQ(cb.state(), serve::CircuitBreaker::State::kClosed);
  EXPECT_TRUE(cb.allow(2007));
  // A success resets the consecutive-failure count.
  cb.record_failure(2008);
  cb.record_failure(2009);
  cb.record_success(2010);
  cb.record_failure(2011);
  cb.record_failure(2012);
  EXPECT_EQ(cb.state(), serve::CircuitBreaker::State::kClosed);
}

// ---- trace shapes ---------------------------------------------------------

TEST(ServeSloTraffic, DiurnalRateMatchesClosedFormAndIsReproducible) {
  serve::TrafficConfig cfg;
  cfg.shape = serve::TraceShape::kDiurnal;
  cfg.rate_rps = 1000.0;
  cfg.diurnal_amp = 0.8;
  cfg.diurnal_period_s = 0.2;
  cfg.num_requests = 400;
  cfg.seed = 7;
  for (double t : {0.0, 0.03, 0.1, 0.15, 0.21}) {
    const double want =
        std::max(1000.0 * (1.0 + 0.8 * std::sin(2.0 * 3.14159265358979323846 *
                                                t / 0.2)),
                 10.0);
    EXPECT_NEAR(serve::rate_at(cfg, t), want, 1e-6) << "t=" << t;
  }
  const auto a = serve::make_trace(cfg, 32);
  const auto b = serve::make_trace(cfg, 32);
  ASSERT_EQ(a.size(), 400u);
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].t_us, b[i].t_us);
    EXPECT_EQ(a[i].sample, b[i].sample);
  }
  // A full-amplitude trough must not stall the sampler: the trace ends.
  serve::TrafficConfig deep = cfg;
  deep.diurnal_amp = 1.0;
  EXPECT_EQ(serve::make_trace(deep, 32).size(), 400u);
}

TEST(ServeSloTraffic, FlashCrowdConcentratesArrivalsInTheSpike) {
  serve::TrafficConfig cfg;
  cfg.shape = serve::TraceShape::kFlashCrowd;
  cfg.rate_rps = 1000.0;
  cfg.flash_factor = 10.0;
  cfg.flash_start_s = 0.05;
  cfg.flash_ramp_s = 0.01;
  cfg.flash_hold_s = 0.03;
  cfg.num_requests = 400;
  cfg.seed = 11;
  EXPECT_NEAR(serve::rate_at(cfg, 0.01), 1000.0, 1e-9);   // before
  EXPECT_NEAR(serve::rate_at(cfg, 0.07), 10000.0, 1e-9);  // mid-hold
  EXPECT_NEAR(serve::rate_at(cfg, 0.2), 1000.0, 1e-9);    // after
  const auto trace = serve::make_trace(cfg, 32);
  ASSERT_EQ(trace.size(), 400u);
  // The spike window [50ms, 90ms] must hold far more arrivals than the
  // equal-length window before it.
  std::size_t before = 0, spike = 0;
  for (const auto& a : trace) {
    if (a.t_us >= 10000 && a.t_us < 50000) ++before;
    if (a.t_us >= 50000 && a.t_us < 90000) ++spike;
  }
  EXPECT_GT(spike, 4 * before);
}

TEST(ServeSloTraffic, PriorityMixIsSeededAndRoughlyProportional) {
  serve::TrafficConfig cfg;
  cfg.num_requests = 2000;
  cfg.rate_rps = 5000.0;
  cfg.high_fraction = 0.25;
  cfg.low_fraction = 0.25;
  cfg.seed = 21;
  const auto a = serve::make_trace(cfg, 16);
  const auto b = serve::make_trace(cfg, 16);
  std::size_t high = 0, low = 0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    ASSERT_EQ(a[i].priority, b[i].priority);
    if (a[i].priority == serve::Priority::kHigh) ++high;
    if (a[i].priority == serve::Priority::kLow) ++low;
  }
  EXPECT_GT(high, 350u);
  EXPECT_LT(high, 650u);
  EXPECT_GT(low, 350u);
  EXPECT_LT(low, 650u);
}

// ---- the virtual-time planner ---------------------------------------------

serve::TrafficConfig flash_traffic() {
  serve::TrafficConfig cfg;
  cfg.num_requests = 220;
  cfg.rate_rps = 900.0;
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

serve::SloPolicy overload_policy() {
  serve::SloPolicy slo;
  slo.enabled = true;
  slo.deadline_us = 15000;
  // Worst batch cost: 50 + 8 * (800 + 1 * 100) = 7250 < 9000, so nothing
  // that survives the pop-time shed can finish late.
  slo.completion_headroom_us = 9000;
  slo.queue.capacity = 64;
  slo.queue.on_full = serve::QueuePolicy::OnFull::kDropOldest;
  slo.cost.batch_fixed_us = 50;
  slo.cost.primary_us = 800;
  slo.cost.degraded_us = 100;
  slo.cost.retry_penalty_us = 100;
  slo.ladder.degrade_depth = 8;
  slo.ladder.shed_depth = 30;
  slo.ladder.recover_depth = 2;
  slo.ladder.shed_floor = serve::Priority::kNormal;  // level 2 sheds kLow
  slo.retry.max_attempts = 2;
  slo.retry.backoff_us = 50;
  slo.breaker.failure_threshold = 3;
  slo.breaker.cooldown_us = 30000;
  slo.fault.enabled = true;
  slo.fault.seed = 555;
  slo.fault.transient_rate = 0.08;
  slo.fault.outage_start_id = 30;  // pre-flash ids: hits the level-0 path
  slo.fault.outage_len = 12;
  return slo;
}

TEST(ServeSloPlanner, PlanIsDeterministicCompleteAndPolicySensitive) {
  const auto trace = serve::make_trace(flash_traffic(), 32);
  const serve::SloPolicy slo = overload_policy();
  serve::BatchPolicy batch;
  batch.max_batch = 8;

  const serve::Plan a = serve::plan(trace, slo, batch);
  const serve::Plan b = serve::plan(trace, slo, batch);
  ASSERT_EQ(a.decisions.size(), trace.size());
  EXPECT_EQ(a.shed_set_hash, b.shed_set_hash);
  for (std::size_t i = 0; i < trace.size(); ++i) {
    EXPECT_EQ(a.decisions[i].outcome, b.decisions[i].outcome) << i;
    EXPECT_EQ(a.decisions[i].mode, b.decisions[i].mode) << i;
    EXPECT_EQ(a.decisions[i].v_done_us, b.decisions[i].v_done_us) << i;
  }

  // Conservation: every request has exactly one outcome.
  const serve::PlanCounters& c = a.counters;
  EXPECT_EQ(c.served + c.shed_expired + c.shed_overload + c.rejected +
                c.evicted,
            trace.size());
  EXPECT_EQ(c.served,
            c.served_primary + c.degraded_ladder + c.degraded_breaker +
                c.degraded_fallback);
  // The flash crowd must actually exercise the overload machinery...
  EXPECT_GT(c.shed_expired + c.shed_overload, 0u);
  EXPECT_GT(c.degraded_ladder, 0u);
  EXPECT_GE(c.max_ladder_level, 2);
  EXPECT_GT(c.max_virtual_depth, slo.ladder.shed_depth);
  // ...the fault machinery (transients retried, the outage exhausts
  // retries and trips the breaker)...
  EXPECT_GT(c.retried_requests, 0u);
  EXPECT_GT(c.degraded_fallback, 0u);
  EXPECT_GE(c.breaker_opens, 1u);
  EXPECT_GT(c.faults_injected, 0u);
  // ...and still recover to full fidelity once the burst passes, with
  // zero late completions (headroom covers the worst batch cost).
  EXPECT_EQ(c.final_ladder_level, 0);
  EXPECT_EQ(c.late, 0u);
  EXPECT_GT(a.virtual_latency.p99_us, 0.0);

  // Served requests never carry a shed outcome and vice versa; the hash
  // covers exactly the non-served set.
  std::vector<std::pair<std::uint64_t, std::uint8_t>> shed_set;
  for (std::size_t i = 0; i < a.decisions.size(); ++i)
    if (!a.decisions[i].served())
      shed_set.emplace_back(i,
                            static_cast<std::uint8_t>(a.decisions[i].outcome));
  EXPECT_EQ(serve::shed_set_fingerprint(shed_set), a.shed_set_hash);

  // A different policy must change the ledger (the hash is a real
  // fingerprint, not a constant).
  serve::SloPolicy other = slo;
  other.queue.capacity = 16;
  const serve::Plan b2 = serve::plan(trace, other, batch);
  EXPECT_NE(b2.shed_set_hash, a.shed_set_hash);
}

TEST(ServeSloPlanner, UnstressedPlanServesEverythingAtFullFidelity) {
  serve::TrafficConfig cfg;
  cfg.num_requests = 60;
  cfg.rate_rps = 300.0;  // far below virtual capacity
  cfg.seed = 31;
  const auto trace = serve::make_trace(cfg, 32);
  serve::SloPolicy slo = overload_policy();
  slo.fault.enabled = false;
  serve::BatchPolicy batch;
  batch.max_batch = 8;
  const serve::Plan p = serve::plan(trace, slo, batch);
  EXPECT_EQ(p.counters.served, trace.size());
  EXPECT_EQ(p.counters.served_primary, trace.size());
  EXPECT_EQ(p.counters.shed_expired + p.counters.shed_overload +
                p.counters.rejected + p.counters.evicted,
            0u);
  EXPECT_EQ(p.counters.late, 0u);
  EXPECT_EQ(p.counters.max_ladder_level, 0);
}

// The planner's flush rule is the queue's: the soonest-free lane takes
// whatever is queued the moment both exist. With arrivals spaced well
// beyond the worst batch cost every lane is idle at each arrival, so each
// request is popped at its own arrival instant — never held for company.
TEST(ServeSloPlanner, IdleLaneFlushesAtArrival) {
  std::vector<serve::Arrival> trace(40);
  for (std::size_t i = 0; i < trace.size(); ++i) {
    trace[i].t_us = 1000 + 20000 * i;  // worst batch cost is 7250
    trace[i].sample = i % 32;
  }
  serve::SloPolicy slo = overload_policy();
  slo.fault.enabled = false;
  serve::BatchPolicy batch;
  batch.max_batch = 8;
  const serve::Plan p = serve::plan(trace, slo, batch);
  ASSERT_EQ(p.counters.served, trace.size());
  EXPECT_EQ(p.counters.virtual_batches, trace.size());
  for (std::size_t i = 0; i < trace.size(); ++i)
    EXPECT_EQ(p.decisions[i].v_pop_us, trace[i].t_us) << i;
}

// Batches form only from backlog: a burst of 3 * max_batch simultaneous
// arrivals on one lane is served as full batches, back to back — each pop
// lands the instant the lane frees.
TEST(ServeSloPlanner, BacklogFormsFullBatchesBackToBack) {
  constexpr std::size_t kMaxBatch = 8;
  std::vector<serve::Arrival> trace(3 * kMaxBatch);
  for (std::size_t i = 0; i < trace.size(); ++i) trace[i].sample = i;
  serve::SloPolicy slo = overload_policy();
  slo.fault.enabled = false;
  slo.virtual_lanes = 1;
  serve::BatchPolicy batch;
  batch.max_batch = kMaxBatch;
  const serve::Plan p = serve::plan(trace, slo, batch);
  ASSERT_EQ(p.counters.served, trace.size());
  ASSERT_EQ(p.counters.virtual_batches, 3u);
  std::uint64_t lane_free = 0;
  for (std::size_t g = 0; g < 3; ++g) {
    const serve::Decision& first = p.decisions[g * kMaxBatch];
    EXPECT_EQ(first.v_pop_us, lane_free) << g;
    for (std::size_t k = 1; k < kMaxBatch; ++k) {
      const serve::Decision& d = p.decisions[g * kMaxBatch + k];
      EXPECT_EQ(d.v_pop_us, first.v_pop_us) << g << "," << k;
      EXPECT_EQ(d.v_done_us, first.v_done_us) << g << "," << k;
    }
    EXPECT_GT(first.v_done_us, first.v_pop_us) << g;
    lane_free = first.v_done_us;
  }
}

// ---- end-to-end: the plan is what the server executes ---------------------

constexpr std::uint64_t kServeSeed = 17;

models::Mlp primary_model() {
  models::MlpConfig cfg;
  cfg.in_features = 16;
  cfg.hidden = {24, 24};
  cfg.num_classes = 4;
  models::Mlp m = models::build_mlp(cfg);
  m.net->set_training(false);
  return m;
}

models::Mlp degraded_model() {
  models::MlpConfig cfg;
  cfg.in_features = 16;
  cfg.hidden = {12};  // cheaper net, same interface: a real fidelity step
  cfg.num_classes = 4;
  models::Mlp m = models::build_mlp(cfg);
  m.net->set_training(false);
  return m;
}

TEST(ServeSloRuntime, ShedSetAndPayloadsAreBitwiseIdenticalAcrossWorkers) {
  ThreadGuard guard;
  models::Mlp primary = primary_model();
  models::Mlp degraded = degraded_model();
  data::Dataset ds = random_dataset(32, 16, 61);
  const auto trace = serve::make_trace(flash_traffic(), ds.size());
  serve::AnalyticBackend pb(*primary.net, /*stochastic=*/false);
  serve::AnalyticBackend db(*degraded.net, /*stochastic=*/false);

  serve::ServeConfig cfg;
  cfg.batch.max_batch = 8;
  cfg.seed = kServeSeed;
  cfg.slo = overload_policy();

  const serve::Plan p = serve::plan(trace, cfg.slo, cfg.batch);

  ThreadPool::instance().set_num_threads(1);
  cfg.num_workers = 1;
  serve::InferenceServer s1(serve::ServerSpec{}
                                .primary(pb)
                                .degraded(db)
                                .dataset(ds)
                                .config(cfg));
  const auto rep1 = s1.run(trace);
  ThreadPool::instance().set_num_threads(4);
  cfg.num_workers = 4;
  serve::InferenceServer s4(serve::ServerSpec{}
                                .primary(pb)
                                .degraded(db)
                                .dataset(ds)
                                .config(cfg));
  const auto rep4 = s4.run(trace);

  // The tentpole contract: at fixed (seed, trace, policy) the shed set and
  // every delivered payload are bitwise identical at any worker count, and
  // the runtime's own accounting reproduces the plan's fingerprint.
  ASSERT_TRUE(rep1.slo.enabled);
  EXPECT_EQ(rep1.slo.shed_set_hash, p.shed_set_hash);
  EXPECT_EQ(rep1.slo.exec_shed_set_hash, p.shed_set_hash);
  EXPECT_EQ(rep4.slo.exec_shed_set_hash, p.shed_set_hash);
  EXPECT_EQ(rep1.slo.exec_shed_set_hash, rep4.slo.exec_shed_set_hash);
  ASSERT_EQ(rep1.outputs.shape(), rep4.outputs.shape());
  for (std::size_t i = 0; i < rep1.outputs.numel(); ++i)
    ASSERT_EQ(rep1.outputs[i], rep4.outputs[i]) << "i=" << i;

  // Execution-side accounting mirrors the plan exactly.
  const serve::PlanCounters& c = p.counters;
  for (const auto* rep : {&rep1, &rep4}) {
    EXPECT_EQ(rep->completed, c.served);
    EXPECT_EQ(rep->slo.exec_delivered, c.served);
    EXPECT_EQ(rep->slo.exec_shed, c.shed_expired + c.shed_overload +
                                      c.rejected + c.evicted);
    EXPECT_EQ(rep->slo.exec_retried, c.retried_requests);
    EXPECT_EQ(rep->slo.exec_fallbacks, c.degraded_fallback);
    EXPECT_EQ(rep->slo.exec_degraded, c.degraded_ladder + c.degraded_breaker +
                                          c.degraded_fallback);
    EXPECT_EQ(rep->slo.exec_faults, c.faults_injected);
    EXPECT_EQ(rep->slo.late_virtual, 0u);
  }

  // Payload oracle: a served request's row is exactly one stateless
  // inference on the backend its planned mode routed it to; shed requests
  // produce all-zero rows.
  const std::size_t len = ds.sample_numel();
  const std::size_t out_dim = rep1.outputs.shape()[1];
  for (std::size_t r = 0; r < trace.size(); ++r) {
    const serve::Decision& d = p.decisions[r];
    if (!d.served()) {
      for (std::size_t j = 0; j < out_dim; ++j)
        ASSERT_EQ(rep1.outputs.at(r, j), 0.0f) << "shed request " << r;
      continue;
    }
    Tensor x({1, len});
    std::copy(ds.images.data() + trace[r].sample * len,
              ds.images.data() + (trace[r].sample + 1) * len, x.data());
    nn::EvalContext ctx(serve::InferenceServer::noise_rng(kServeSeed));
    ctx.row_ids = {r};
    const nn::Sequential& net = d.mode == serve::ServeMode::kPrimary
                                    ? *primary.net
                                    : *degraded.net;
    const Tensor want = net.infer(x, ctx);
    for (std::size_t j = 0; j < out_dim; ++j)
      ASSERT_EQ(want[j], rep1.outputs.at(r, j)) << "request " << r;
  }
}

TEST(ServeSloRuntime, DisabledSloPreservesLegacyBehaviour) {
  ThreadGuard guard;
  ThreadPool::instance().set_num_threads(2);
  models::Mlp m = primary_model();
  data::Dataset ds = random_dataset(16, 16, 71);
  serve::TrafficConfig tcfg;
  tcfg.num_requests = 40;
  tcfg.rate_rps = 20000.0;
  tcfg.seed = 13;
  const auto trace = serve::make_trace(tcfg, ds.size());
  serve::AnalyticBackend clean(*m.net, /*stochastic=*/false);

  serve::ServeConfig cfg;
  cfg.batch.max_batch = 8;
  cfg.num_workers = 2;
  cfg.seed = kServeSeed;
  // slo.enabled defaults to false: every request is served, no report slo.
  serve::InferenceServer server(
      serve::ServerSpec{}.primary(clean).dataset(ds).config(cfg));
  const auto rep = server.run(trace);
  EXPECT_EQ(rep.completed, trace.size());
  EXPECT_FALSE(rep.slo.enabled);
  EXPECT_EQ(rep.queue.sheds, 0u);
  EXPECT_EQ(rep.queue.rejected, 0u);
}

}  // namespace
}  // namespace gbo
