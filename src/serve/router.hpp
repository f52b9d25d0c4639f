// Sharded multi-replica serving behind a deterministic router (DESIGN.md
// §10).
//
// A ReplicaGroup places N replicas of a deployed backend pair — each
// replica is its own InferenceServer with its own RequestQueue and worker
// set — behind a router. Scale-out never buys back the determinism the
// single-replica runtime guarantees, because every routing decision is
// planned on the virtual clock before a wall-clock microsecond elapses:
//
//   * the routing function is pure in (seed, request id, policy, active
//     set) — round-robin striping or seeded hashing over the active
//     replicas (serve/policy.hpp RouterPolicy);
//   * replica liveness comes from the PR 6 fault injector with the replica
//     index as the fault id, so an outage window deterministically removes
//     a replica from the active set and the reroute it forces is part of
//     the plan, not a runtime race;
//   * each replica is a virtual lane of the SLO planner: route_plan()
//     splits the trace into per-replica sub-traces (carrying global
//     request ids) and runs the §7 virtual-clock simulation per replica,
//     so per-replica shed sets, ladder trajectories, and fault routing are
//     bitwise identical at any worker count;
//   * queue-depth autoscaling is driven by the planner's own metrics: the
//     router activates the smallest replica count whose planned
//     per-replica max_virtual_depth stays within RouterPolicy::scale_depth
//     (and whose ladder never reaches the shed level) — replicas admit
//     work only when the planner says so;
//   * all replicas share the payload seed, and payloads depend only on
//     (seed, request id) — so a reroute (outage, autoscale step) can move
//     a request between replicas without changing a single output bit;
//   * the causal trace (DESIGN.md §9) carries one kRoute event per request
//     (id, replica, active count); the fleet-wide fingerprint composes the
//     per-replica decision ledgers with replica-major renumbered control
//     transitions and is gated against the runtime's emitted events.
//
// A RouterPlan is also what a single InferenceServer executes: its
// plan_trace() is route_plan() over one replica, and both run() entry
// points hand their plan to the same executor (InferenceServer::execute) —
// one producer replay, one worker drain, one report aggregation.
#pragma once

#include "serve/server.hpp"
#include "serve/swap.hpp"

#include <array>
#include <cstdint>
#include <memory>
#include <vector>

namespace gbo::serve {

/// The routing + per-replica decision ledger for one trace. Pure in
/// (trace, slo, batch, router, replicas): same inputs, identical plan.
struct RouterPlan {
  std::size_t total_replicas = 0;   // deployed replicas
  std::size_t active_replicas = 0;  // activated by the autoscaler
  /// Per-replica liveness under the outage model (index = replica).
  std::vector<std::uint8_t> alive;
  /// Replica indices receiving traffic, ascending (the active set).
  std::vector<std::uint8_t> active;
  /// assignment[id] = replica serving request id (every request routes,
  /// including ones its replica then bounces at admission).
  std::vector<std::uint8_t> assignment;
  /// FNV-1a over (id, replica) pairs in id order — the routing
  /// fingerprint the determinism gates compare (same shape as the §7
  /// shed-set fingerprint).
  std::uint64_t routing_hash = 0;
  /// Per-replica §7 sub-plans (index = replica; inactive replicas hold
  /// empty plans). Each carries its sub-trace's global request ids, so
  /// its shed_set_hash is keyed the same way as the fleet union below.
  std::vector<Plan> per_replica;
  /// Merged ledger, indexed by global request id.
  std::vector<Decision> decisions;
  /// Union shed set over all replicas, global ids ascending.
  std::uint64_t shed_set_hash = 0;
  /// Merged counters: sums, with max_virtual_depth / ladder levels maxed.
  PlanCounters counters;
  /// Fleet virtual latency (arrival -> virtual completion) over served
  /// requests, recomputed across the merged ledger.
  LatencyStats virtual_latency;
  std::array<LatencyStats, kNumPriorities> virtual_by_priority;
  /// Hot-swap overlay (DESIGN.md §11): disabled unless the group carries a
  /// SwapPolicy, in which case apply_swap() stamped the ledger above.
  SwapPlan swap;
};

/// The deterministic routing function: which member of `active` (ascending
/// replica indices) serves request `id`.
std::uint8_t route_replica(const RouterPolicy& router, std::uint64_t id,
                           const std::vector<std::uint8_t>& active);

/// Plans routing, autoscale, and every per-replica control decision for
/// the trace. Pure; the group's run() executes exactly this.
RouterPlan route_plan(const std::vector<Arrival>& trace, const SloPolicy& slo,
                      const BatchPolicy& batch, const RouterPolicy& router,
                      std::size_t replicas);

/// The causal-trace oracle (DESIGN.md §9/§10) of every serving run, single
/// replica or fleet: kRoute per request + per-replica decision tuples +
/// replica-major renumbered transitions + the swap trajectory.
std::uint64_t expected_causal_fingerprint(const RouterPlan& rp);
std::size_t expected_causal_event_count(const RouterPlan& rp);

/// Per-replica accounting of a router run; plan-side fields come from the
/// sub-plan, exec-side fields from what the replica's workers actually did.
struct ReplicaStats {
  bool alive = true;
  bool active = false;
  std::size_t assigned = 0;        // requests routed here (plan)
  std::size_t delivered = 0;       // payload rows written (exec)
  std::size_t shed = 0;            // exec shed entries (admission + pop)
  std::uint64_t plan_shed_set_hash = 0;
  std::uint64_t exec_shed_set_hash = 0;  // must equal plan_shed_set_hash
  std::size_t max_virtual_depth = 0;
  int max_ladder_level = 0;
  std::size_t steady_allocs = 0;   // arena growth across the replica's run
};

/// Everything one ReplicaGroup::run produced: the aggregate ServeReport
/// (outputs indexed by global request id, fleet SloSummary) plus the
/// routing ledger and per-replica stats.
struct RouterReport {
  ServeReport serve;
  std::size_t total_replicas = 0;
  std::size_t active_replicas = 0;
  std::uint64_t routing_hash = 0;  // == RouterPlan::routing_hash
  std::vector<ReplicaStats> replicas;

  Json to_json() const;
};

/// N single-replica InferenceServers behind per-replica queues and worker
/// sets, executed by one flat worker pool (1 producer block + N *
/// num_workers worker blocks — the pool does not nest). Constructed from
/// the same ServerSpec as the single-replica path:
///
///   ReplicaGroup group(ServerSpec{}.primary(b).degraded(d).dataset(ds)
///                          .config(cfg).replicas(4).router(policy));
///
/// More than one replica requires cfg.slo.enabled (routing decisions live
/// on the virtual clock); a one-replica SLO-off group runs the always-serve
/// ledger.
class ReplicaGroup {
 public:
  explicit ReplicaGroup(const ServerSpec& spec);

  std::size_t num_replicas() const { return replicas_.size(); }

  /// Warms every replica (arena sizing, cache prepack, mode freeze).
  void warmup();

  /// The plan run() would execute for this trace (pure; exposed so tests
  /// and benches can compare the execution against its oracle).
  RouterPlan plan_trace(const std::vector<Arrival>& trace) const;

  /// Routes and serves the trace to completion. Payloads, per-replica shed
  /// sets, and the routing assignment are bitwise identical at any worker
  /// count and equal to plan_trace()'s ledger.
  RouterReport run(const std::vector<Arrival>& trace);

 private:
  const data::Dataset& dataset_;
  ServeConfig cfg_;
  RouterPolicy router_;
  const ModelRegistry* registry_ = nullptr;  // borrowed from the spec
  SwapPolicy swap_;
  std::vector<std::unique_ptr<InferenceServer>> replicas_;
};

}  // namespace gbo::serve
