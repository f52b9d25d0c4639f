#include "serve/router.hpp"

#include "common/logging.hpp"
#include "common/rng.hpp"
#include "obs/trace.hpp"

#include <algorithm>
#include <array>

namespace gbo::serve {
namespace {

// Liveness under the outage model: replica r is down when the router's
// fault injector places r inside its outage window. A fleet with every
// replica down cannot route at all; replica 0 is kept up with a warning so
// the plan stays total (the SLO ladder still sheds what one replica cannot
// absorb).
std::vector<std::uint8_t> alive_mask(const RouterPolicy& router,
                                     std::size_t n) {
  std::vector<std::uint8_t> alive(n, 1);
  const FaultInjector injector(router.fault);
  bool any = false;
  for (std::size_t r = 0; r < n; ++r) {
    alive[r] = injector.in_outage(r) ? 0 : 1;
    any = any || alive[r] != 0;
  }
  if (!any) {
    log_warn("serve: router outage model downs every replica; keeping "
             "replica 0 up");
    alive[0] = 1;
  }
  return alive;
}

}  // namespace

std::uint8_t route_replica(const RouterPolicy& router, std::uint64_t id,
                           const std::vector<std::uint8_t>& active) {
  const std::size_t k = active.size();
  if (router.strategy == RouterPolicy::Strategy::kRoundRobin)
    return active[static_cast<std::size_t>(id % k)];
  // Seeded hash routing on the counter-fork contract (DESIGN.md §3): the
  // stream depends only on (router seed, request id), never on arrival
  // order or the worker observing it.
  Rng h = Rng(router.seed).fork(id);
  return active[static_cast<std::size_t>(h() % k)];
}

RouterPlan route_plan(const std::vector<Arrival>& trace, const SloPolicy& slo,
                      const BatchPolicy& batch, const RouterPolicy& router,
                      std::size_t replicas) {
  RouterPlan rp;
  rp.total_replicas = std::max<std::size_t>(1, replicas);
  rp.alive = alive_mask(router, rp.total_replicas);

  std::vector<std::uint8_t> alive_list;
  for (std::size_t r = 0; r < rp.total_replicas; ++r)
    if (rp.alive[r] != 0) alive_list.push_back(static_cast<std::uint8_t>(r));
  const std::size_t n_alive = alive_list.size();
  const std::size_t min_k =
      std::min(std::max<std::size_t>(1, router.min_replicas), n_alive);

  // Queue-depth autoscaling off the planner's own metrics: activate the
  // smallest replica count whose planned per-replica max_virtual_depth
  // stays within scale_depth and whose ladder never reaches the shed
  // level. scale_depth == 0 disables scaling (all alive replicas active).
  // Candidates grow the active set as a prefix of the alive list, so the
  // chosen assignment is reproducible from (trace, policy) alone.
  for (std::size_t k = router.scale_depth == 0 ? n_alive : min_k;; ++k) {
    rp.active.assign(alive_list.begin(),
                     alive_list.begin() + static_cast<std::ptrdiff_t>(k));
    rp.active_replicas = k;

    rp.assignment.resize(trace.size());
    std::vector<std::vector<Arrival>> sub(rp.total_replicas);
    std::vector<std::vector<std::uint64_t>> ids(rp.total_replicas);
    for (std::size_t i = 0; i < trace.size(); ++i) {
      const std::uint8_t r = route_replica(router, i, rp.active);
      rp.assignment[i] = r;
      sub[r].push_back(trace[i]);
      ids[r].push_back(i);
    }
    rp.per_replica.clear();
    rp.per_replica.reserve(rp.total_replicas);
    bool fits = true;
    for (std::size_t r = 0; r < rp.total_replicas; ++r) {
      rp.per_replica.push_back(plan(sub[r], slo, batch, std::move(ids[r])));
      const PlanCounters& c = rp.per_replica.back().counters;
      fits = fits && c.max_virtual_depth <= router.scale_depth &&
             c.max_ladder_level < 2;
    }
    if (router.scale_depth == 0 || fits || k == n_alive) break;
  }

  // Merge the per-replica ledgers back into global-id order.
  rp.decisions.resize(trace.size());
  rp.counters = PlanCounters{};
  std::vector<std::pair<std::uint64_t, std::uint8_t>> routing, shed_set;
  routing.reserve(trace.size());
  for (std::size_t r = 0; r < rp.per_replica.size(); ++r) {
    const Plan& p = rp.per_replica[r];
    for (std::size_t j = 0; j < p.decisions.size(); ++j)
      rp.decisions[p.id_of(j)] = p.decisions[j];
    const PlanCounters& c = p.counters;
    rp.counters.served += c.served;
    rp.counters.served_primary += c.served_primary;
    rp.counters.served_canary += c.served_canary;
    rp.counters.degraded_ladder += c.degraded_ladder;
    rp.counters.degraded_breaker += c.degraded_breaker;
    rp.counters.degraded_fallback += c.degraded_fallback;
    rp.counters.shed_expired += c.shed_expired;
    rp.counters.shed_overload += c.shed_overload;
    rp.counters.rejected += c.rejected;
    rp.counters.evicted += c.evicted;
    rp.counters.retried_requests += c.retried_requests;
    rp.counters.faults_injected += c.faults_injected;
    rp.counters.late += c.late;
    rp.counters.breaker_opens += c.breaker_opens;
    rp.counters.ladder_transitions += c.ladder_transitions;
    rp.counters.virtual_batches += c.virtual_batches;
    rp.counters.final_ladder_level =
        std::max(rp.counters.final_ladder_level, c.final_ladder_level);
    rp.counters.max_ladder_level =
        std::max(rp.counters.max_ladder_level, c.max_ladder_level);
    rp.counters.max_virtual_depth =
        std::max(rp.counters.max_virtual_depth, c.max_virtual_depth);
  }
  std::vector<std::uint64_t> vlat;
  std::array<std::vector<std::uint64_t>, kNumPriorities> by_pri;
  vlat.reserve(rp.counters.served);
  for (std::size_t i = 0; i < trace.size(); ++i) {
    routing.emplace_back(i, rp.assignment[i]);
    const Decision& d = rp.decisions[i];
    if (d.served()) {
      if (!slo.enabled) continue;  // the always-serve ledger has no v-clock
      const std::uint64_t lat = d.v_done_us - trace[i].t_us;
      vlat.push_back(lat);
      by_pri[static_cast<std::size_t>(d.priority)].push_back(lat);
    } else {
      shed_set.emplace_back(i, static_cast<std::uint8_t>(d.outcome));
    }
  }
  rp.virtual_latency = LatencyStats::compute(std::move(vlat));
  for (std::size_t k = 0; k < kNumPriorities; ++k)
    rp.virtual_by_priority[k] = LatencyStats::compute(std::move(by_pri[k]));
  rp.routing_hash = shed_set_fingerprint(routing);
  rp.shed_set_hash = shed_set_fingerprint(shed_set);
  return rp;
}

namespace {

std::vector<obs::CausalTuple> router_causal_tuples(const RouterPlan& rp) {
  using obs::EventType;
  std::vector<obs::CausalTuple> tuples;
  tuples.reserve(3 * rp.assignment.size());
  for (std::size_t i = 0; i < rp.assignment.size(); ++i)
    tuples.push_back({i, static_cast<std::uint8_t>(EventType::kRoute),
                      rp.assignment[i], rp.active_replicas});
  // Control transitions are renumbered replica-major, so two replicas'
  // ladder logs cannot collide on (seq, level, v_us).
  std::size_t seq_base = 0;
  for (const Plan& p : rp.per_replica) {
    append_causal_decision_tuples(p, tuples);
    append_causal_transition_tuples(p, seq_base, tuples);
    seq_base += p.transitions.size();
  }
  append_causal_swap_tuples(rp.swap, tuples);  // no-op when no swap planned
  return tuples;
}

}  // namespace

std::uint64_t expected_causal_fingerprint(const RouterPlan& rp) {
  return obs::fingerprint_tuples(router_causal_tuples(rp));
}

std::size_t expected_causal_event_count(const RouterPlan& rp) {
  return router_causal_tuples(rp).size();
}

ReplicaGroup::ReplicaGroup(const ServerSpec& spec)
    : dataset_(*InferenceServer::checked_spec(spec, /*single_replica=*/false)
                    .dataset_ref()),
      cfg_(spec.normalized_config()),
      router_(spec.router_policy()),
      registry_(spec.model_registry()),
      swap_(spec.swap_policy()) {
  const std::size_t n = spec.normalized_replicas();
  replicas_.reserve(n);
  for (std::size_t r = 0; r < n; ++r) {
    ServerSpec one;
    one.primary(*spec.primary_backend()).dataset(dataset_).config(cfg_);
    if (spec.degraded_backend() != nullptr)
      one.degraded(*spec.degraded_backend());
    // Each replica pins the whole registry (not the swap policy — the
    // rollout is fleet-level): every version is warmed before traffic, so
    // a cutover is a pointer hop, never a pack or an allocation.
    if (registry_ != nullptr) one.registry(*registry_);
    replicas_.push_back(std::make_unique<InferenceServer>(one));
  }
}

void ReplicaGroup::warmup() {
  for (auto& s : replicas_) s->warmup();
}

RouterPlan ReplicaGroup::plan_trace(const std::vector<Arrival>& trace) const {
  RouterPlan rp =
      route_plan(trace, cfg_.slo, cfg_.batch, router_, replicas_.size());
  // The hot-swap overlay (DESIGN.md §11) stamps pinned versions and the
  // canary rewrite onto the routed ledger. Pure like route_plan itself.
  if (swap_.enabled) apply_swap(rp, trace, swap_);
  return rp;
}

RouterReport ReplicaGroup::run(const std::vector<Arrival>& trace) {
  std::vector<InferenceServer*> servers;
  servers.reserve(replicas_.size());
  for (auto& s : replicas_) servers.push_back(s.get());
  return InferenceServer::execute(servers, plan_trace(trace), trace);
}

Json RouterReport::to_json() const {
  Json j = Json::object();
  j.set("total_replicas", total_replicas);
  j.set("active_replicas", active_replicas);
  j.set("routing_hash", hex64(routing_hash));
  Json reps = Json::array();
  for (const ReplicaStats& r : replicas) {
    Json jr = Json::object();
    jr.set("alive", r.alive);
    jr.set("active", r.active);
    jr.set("assigned", r.assigned);
    jr.set("delivered", r.delivered);
    jr.set("shed", r.shed);
    jr.set("plan_shed_set_hash", hex64(r.plan_shed_set_hash));
    jr.set("exec_shed_set_hash", hex64(r.exec_shed_set_hash));
    jr.set("max_virtual_depth", r.max_virtual_depth);
    jr.set("max_ladder_level", r.max_ladder_level);
    jr.set("steady_allocs", r.steady_allocs);
    reps.push_back(jr);
  }
  j.set("replicas", reps);
  j.set("serve", serve.to_json());
  return j;
}

}  // namespace gbo::serve
