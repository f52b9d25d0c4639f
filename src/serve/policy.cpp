#include "serve/policy.hpp"

#include "obs/trace.hpp"

#include <algorithm>

namespace gbo::serve {
namespace {

/// Ladder update at a flush instant, with hysteresis: level 2 persists
/// until depth drops below degrade_depth (then level 1), level 1 persists
/// until depth recovers to recover_depth (then level 0).
int ladder_step(const LadderPolicy& ladder, int level, std::size_t depth) {
  if (ladder.shed_depth != 0 && depth >= ladder.shed_depth) return 2;
  if (ladder.degrade_depth != 0 && depth >= ladder.degrade_depth)
    return std::max(level, 1);
  if (depth <= ladder.recover_depth) return 0;
  return level == 2 ? 1 : level;  // mid-band: step 2 -> 1, else hold
}

}  // namespace

ShedReason shed_reason(Decision::Outcome outcome) {
  switch (outcome) {
    case Decision::Outcome::kRejected: return ShedReason::kCapacity;
    case Decision::Outcome::kEvicted: return ShedReason::kEvicted;
    case Decision::Outcome::kShedExpired: return ShedReason::kExpired;
    case Decision::Outcome::kShedOverload: return ShedReason::kOverload;
    case Decision::Outcome::kServed: break;
  }
  return ShedReason::kNone;
}

std::uint64_t shed_set_fingerprint(
    const std::vector<std::pair<std::uint64_t, std::uint8_t>>& shed) {
  // FNV-1a 64 over (id bytes little-endian, outcome code) in input order;
  // callers pass ascending ids so the fingerprint is order-canonical.
  std::uint64_t h = 1469598103934665603ull;
  const auto mix = [&h](std::uint8_t byte) {
    h ^= byte;
    h *= 1099511628211ull;
  };
  for (const auto& [id, code] : shed) {
    for (int b = 0; b < 8; ++b)
      mix(static_cast<std::uint8_t>((id >> (8 * b)) & 0xFF));
    mix(code);
  }
  return h;
}

Plan plan(const std::vector<Arrival>& trace, const SloPolicy& slo,
          const BatchPolicy& batch) {
  return plan(trace, slo, batch, {});
}

Plan plan(const std::vector<Arrival>& trace, const SloPolicy& slo,
          const BatchPolicy& batch,
          std::vector<std::uint64_t> request_ids) {
  Plan p;
  p.decisions.resize(trace.size());
  p.request_ids = std::move(request_ids);
  if (trace.empty() || !slo.enabled) {
    // The always-serve ledger: SLO-off is data for the one executor, not a
    // second execution path. Decision defaults already read kServed on the
    // primary backend with no deadline and no virtual clock.
    for (std::size_t i = 0; i < trace.size(); ++i)
      p.decisions[i].priority = trace[i].priority;
    p.counters.served = p.counters.served_primary = trace.size();
    p.shed_set_hash = shed_set_fingerprint({});
    return p;
  }
  // Requests travel the queue under their global id; decisions are indexed
  // by sub-trace position. Global ids are strictly ascending, so the
  // inverse map is a binary search.
  const auto local = [&p](std::uint64_t gid) -> std::size_t {
    if (p.request_ids.empty()) return static_cast<std::size_t>(gid);
    return static_cast<std::size_t>(
        std::lower_bound(p.request_ids.begin(), p.request_ids.end(), gid) -
        p.request_ids.begin());
  };

  RequestQueue vq(slo.queue);
  const FaultInjector injector(slo.fault);
  CircuitBreaker breaker(slo.breaker);
  const std::size_t n_lanes = std::max<std::size_t>(1, slo.virtual_lanes);
  std::vector<std::uint64_t> lanes(n_lanes, 0);  // lane free-at times
  int level = 0;
  std::size_t logged_opens = 0;  // breaker opens already in the transition log

  PlanCounters& c = p.counters;

  const auto ingest = [&](std::size_t i) {
    const Arrival& a = trace[i];
    Request r;
    r.id = p.id_of(i);
    r.sample = a.sample;
    r.enqueue_us = a.t_us;  // virtual clock: enqueue == arrival
    r.priority = a.priority;
    r.deadline_us = slo.deadline_us != 0 ? a.t_us + slo.deadline_us : 0;
    Decision& d = p.decisions[i];
    d.priority = a.priority;
    d.deadline_us = r.deadline_us;
    Request victim;
    switch (vq.push(r, &victim)) {
      case RequestQueue::PushResult::kAccepted:
        break;
      case RequestQueue::PushResult::kRejectedFull:
        d.outcome = Decision::Outcome::kRejected;
        d.v_pop_us = a.t_us;
        ++c.rejected;
        break;
      case RequestQueue::PushResult::kAcceptedEvicted: {
        Decision& ev = p.decisions[local(victim.id)];
        ev.outcome = Decision::Outcome::kEvicted;
        ev.v_pop_us = a.t_us;
        ++c.evicted;
        break;
      }
    }
    c.max_virtual_depth = std::max(c.max_virtual_depth, vq.size());
  };

  std::vector<Request> out, shed;
  std::size_t i = 0;
  while (i < trace.size() || vq.size() > 0) {
    if (vq.size() == 0) {
      ingest(i++);
      continue;
    }
    // Next virtual flush: the soonest-free lane takes whatever is queued the
    // moment both it and a request exist — exactly the real micro-batcher's
    // work-conserving rule; a batch never waits for company.
    const std::size_t lane = static_cast<std::size_t>(
        std::min_element(lanes.begin(), lanes.end()) - lanes.begin());
    const std::uint64_t flush_t =
        std::max(lanes[lane], vq.oldest_enqueue_us());
    // Arrivals at or before the flush instant are ingested first so the
    // planner's batch composition matches what a worker popping at flush_t
    // would have seen (ties break toward ingestion).
    if (i < trace.size() && trace[i].t_us <= flush_t) {
      ingest(i++);
      continue;
    }

    const std::uint64_t vnow = flush_t;
    const int prev_level = level;
    level = ladder_step(slo.ladder, level, vq.size());
    if (level != prev_level) {
      ++c.ladder_transitions;
      p.transitions.push_back(
          {ControlTransition::Kind::kLadder, level, vnow});
    }
    c.max_ladder_level = std::max(c.max_ladder_level, level);

    const Priority floor = level >= 2 ? slo.ladder.shed_floor : Priority::kLow;
    // Shed-at-pop horizon: anything whose deadline falls before
    // vnow + headroom cannot finish in time and is dropped unexecuted.
    const std::uint64_t horizon = vnow + slo.completion_headroom_us;
    out.clear();
    shed.clear();
    vq.try_pop_batch(batch, horizon, floor, out, shed);

    for (const Request& r : shed) {
      Decision& d = p.decisions[local(r.id)];
      d.outcome = r.reason == ShedReason::kOverload
                      ? Decision::Outcome::kShedOverload
                      : Decision::Outcome::kShedExpired;
      d.v_pop_us = vnow;
      if (d.outcome == Decision::Outcome::kShedOverload)
        ++c.shed_overload;
      else
        ++c.shed_expired;
    }
    if (out.empty()) continue;  // pure-shed flush: no batch, lane unchanged

    std::uint64_t cost = slo.cost.batch_fixed_us;
    for (const Request& r : out) {
      Decision& d = p.decisions[local(r.id)];
      d.outcome = Decision::Outcome::kServed;
      d.v_pop_us = vnow;
      if (level >= 1) {
        d.mode = ServeMode::kDegradedLadder;
        cost += slo.cost.degraded_us;
        ++c.degraded_ladder;
      } else if (!breaker.allow(vnow)) {
        d.mode = ServeMode::kDegradedBreaker;
        cost += slo.cost.degraded_us;
        ++c.degraded_breaker;
      } else {
        const std::size_t a =
            injector.attempts_to_success(r.id, slo.retry.max_attempts);
        d.attempts = static_cast<std::uint8_t>(a);
        cost += a * slo.cost.retry_penalty_us;
        if (a < slo.retry.max_attempts) {
          d.mode = ServeMode::kPrimary;
          cost += slo.cost.primary_us;
          breaker.record_success(vnow);
          ++c.served_primary;
          if (a > 0) {
            ++c.retried_requests;
            c.faults_injected += a;
          }
        } else {
          d.mode = ServeMode::kDegradedFallback;
          cost += slo.cost.degraded_us;
          breaker.record_failure(vnow);
          if (breaker.opens() > logged_opens) {
            ++logged_opens;
            p.transitions.push_back(
                {ControlTransition::Kind::kBreakerOpen, 0, vnow});
          }
          ++c.degraded_fallback;
          c.faults_injected += a;
        }
      }
    }
    const std::uint64_t v_done = vnow + cost;
    for (const Request& r : out) {
      Decision& d = p.decisions[local(r.id)];
      d.v_done_us = v_done;
      if (d.deadline_us != 0 && v_done > d.deadline_us) {
        d.late = true;
        ++c.late;
      }
    }
    c.served += out.size();
    ++c.virtual_batches;
    lanes[lane] = v_done;
  }
  // One final control tick at drain: the ladder is evaluated on queue
  // depth, and a fully drained queue (depth 0) is the definition of
  // recovery — without this tick the level would freeze at whatever the
  // last mid-drain flush saw.
  const int drained = ladder_step(slo.ladder, level, 0);
  if (drained != level) {
    ++c.ladder_transitions;
    p.transitions.push_back({ControlTransition::Kind::kLadder, drained,
                             *std::max_element(lanes.begin(), lanes.end())});
  }
  level = drained;
  c.breaker_opens = breaker.opens();
  c.final_ladder_level = level;

  // Virtual latency (arrival -> virtual completion) over served requests.
  std::vector<std::uint64_t> all;
  std::array<std::vector<std::uint64_t>, kNumPriorities> by_pri;
  all.reserve(c.served);
  std::vector<std::pair<std::uint64_t, std::uint8_t>> shed_set;
  for (std::size_t id = 0; id < p.decisions.size(); ++id) {
    const Decision& d = p.decisions[id];
    if (d.served()) {
      const std::uint64_t lat = d.v_done_us - trace[id].t_us;
      all.push_back(lat);
      by_pri[static_cast<std::size_t>(d.priority)].push_back(lat);
    } else {
      shed_set.emplace_back(p.id_of(id), static_cast<std::uint8_t>(d.outcome));
    }
  }
  p.virtual_latency = LatencyStats::compute(std::move(all));
  for (std::size_t k = 0; k < kNumPriorities; ++k)
    p.virtual_by_priority[k] = LatencyStats::compute(std::move(by_pri[k]));
  p.shed_set_hash = shed_set_fingerprint(shed_set);
  return p;
}

// The causal events the runtime emits while executing a plan, rebuilt from
// the decision ledger. Must mirror the serving executor
// (InferenceServer::execute and its worker drain) exactly: admit
// verdict per request (with deadline), pop-time shed per non-served
// decision, one retry record per served request with failed primary
// attempts, delivery (mode, virtual completion) per served request, and
// the control-transition log. Decision tuples are keyed by the global id
// (Plan::id_of) so per-replica sub-plans compose into a fleet oracle.
void append_causal_decision_tuples(const Plan& p,
                                   std::vector<obs::CausalTuple>& tuples) {
  using obs::EventType;
  tuples.reserve(tuples.size() + 2 * p.decisions.size());
  for (std::size_t i = 0; i < p.decisions.size(); ++i) {
    const Decision& d = p.decisions[i];
    const std::uint64_t id = p.id_of(i);
    const bool bounced = d.outcome == Decision::Outcome::kRejected ||
                         d.outcome == Decision::Outcome::kEvicted;
    tuples.push_back({id, static_cast<std::uint8_t>(EventType::kAdmit),
                      bounced ? static_cast<std::uint16_t>(d.outcome)
                              : std::uint16_t{0},
                      d.deadline_us});
    if (d.served()) {
      if (d.attempts > 0)
        tuples.push_back({id, static_cast<std::uint8_t>(EventType::kRetry),
                          d.attempts, 0});
      // The delivery tuple folds the pinned model version into the high
      // byte of `a` (DESIGN.md §11): version 0 — every non-swap run —
      // reproduces the historical tuple bit for bit, and a swap run's
      // fingerprint attributes every payload to exactly one version.
      tuples.push_back(
          {id, static_cast<std::uint8_t>(EventType::kDeliver),
           static_cast<std::uint16_t>(
               static_cast<std::uint16_t>(d.mode) |
               static_cast<std::uint16_t>((d.version & 0xff) << 8)),
           d.v_done_us});
    } else if (!bounced) {
      tuples.push_back({id, static_cast<std::uint8_t>(EventType::kShed),
                        static_cast<std::uint16_t>(d.outcome), 0});
    }
  }
}

void append_causal_transition_tuples(const Plan& p, std::size_t seq_offset,
                                     std::vector<obs::CausalTuple>& tuples) {
  using obs::EventType;
  for (std::size_t seq = 0; seq < p.transitions.size(); ++seq) {
    const ControlTransition& t = p.transitions[seq];
    const std::uint64_t gseq = seq_offset + seq;
    if (t.kind == ControlTransition::Kind::kLadder)
      tuples.push_back({gseq, static_cast<std::uint8_t>(EventType::kLadder),
                        static_cast<std::uint16_t>(t.level), t.v_us});
    else
      tuples.push_back({gseq, static_cast<std::uint8_t>(EventType::kBreaker),
                        1, t.v_us});
  }
}

}  // namespace gbo::serve
