// The SLO control plane: admission control, deadlines, priority shedding,
// a fidelity ladder, and fault routing — decided on a virtual clock so the
// decision ledger is a pure function of (trace, policy), independent of
// worker count, pool size, and wall-clock jitter (DESIGN.md §7).
//
// Why a virtual clock: the serving determinism contract (DESIGN.md §4)
// promises bitwise-identical payloads at any worker count, and this PR
// extends it to *which requests were shed or degraded*. Wall-clock shedding
// can never satisfy that — a 1-worker drain and a 4-worker race see
// completely different clocks. Instead, `plan()` runs a deterministic
// discrete-event simulation of the serving loop over the arrival trace:
// virtual executors ("lanes") with a configured per-mode cost model stand
// in for the worker pool, and every control decision — bounded-queue
// admission, deadline shedding, ladder transitions, retry accounting, and
// circuit-breaker routing — is taken at virtual flush times. The simulation
// drives the *real* RequestQueue implementation (try_pop_batch under an
// explicit now), so planner decisions and runtime queue mechanics share one
// code path. The real server then executes the plan: planned-shed requests
// are still pushed and diverted at pop time (exercising the shed mechanism),
// planned-rejected requests are bounced at admission, and fault/retry
// outcomes are re-derived live from the same seeded FaultInjector — by
// construction they agree with the plan.
//
// The fidelity ladder: level 0 serves every request on the primary backend
// (e.g. pulse-level hardware); level 1 (queue depth >= degrade_depth) steps
// every batch down to the degraded backend (e.g. the analytic model);
// level 2 (depth >= shed_depth) additionally sheds everything below the
// priority floor at pop time. The ladder steps back down to level 0 when
// depth recovers to recover_depth (hysteresis, so it cannot flap on every
// batch). Mode is recorded per request.
//
// Deadline semantics: a request's deadline is arrival + deadline_us on the
// virtual clock. At pop time the planner sheds requests whose deadline
// falls inside `completion_headroom_us` of the flush instant — requests
// that could not finish in time are dropped *before* wasting backend work,
// which is what makes "zero late successes" a policy guarantee rather than
// an aspiration. Any request that still completes past its deadline
// (headroom configured too small) is counted late and not reported as an
// in-SLO success.
#pragma once

#include "obs/trace.hpp"
#include "serve/fault.hpp"
#include "serve/metrics.hpp"
#include "serve/queue.hpp"
#include "serve/request.hpp"

#include <array>
#include <cstdint>
#include <vector>

namespace gbo::serve {

/// Virtual service-cost model (microseconds on the virtual clock). A batch
/// of n requests in mode m costs batch_fixed_us + n * per-request cost of
/// m, plus retry_penalty_us per failed primary attempt.
struct CostModel {
  std::uint64_t batch_fixed_us = 50;
  std::uint64_t primary_us = 400;
  std::uint64_t degraded_us = 80;
  std::uint64_t retry_penalty_us = 100;
};

/// Fidelity-ladder thresholds on virtual queue depth, with hysteresis.
struct LadderPolicy {
  std::size_t degrade_depth = 16;  // level >= 1 when depth reaches this
  std::size_t shed_depth = 64;     // level 2 when depth reaches this
  std::size_t recover_depth = 4;   // back to level 0 at or below this
  /// Lowest priority still served at ladder level 2 (everything below the
  /// floor is shed as kOverload).
  Priority shed_floor = Priority::kHigh;
};

/// Bounded retry against transient primary faults. backoff_us is real wall
/// time slept by the worker between attempts; the virtual clock charges
/// retry_penalty_us per failed attempt instead.
struct RetryPolicy {
  std::size_t max_attempts = 3;
  std::uint64_t backoff_us = 100;
};

struct SloPolicy {
  /// Off: plan() returns the always-serve ledger (every request served on
  /// the primary backend, no deadline, no virtual clock, no transitions),
  /// which the same executor runs as an SLO-enabled plan.
  bool enabled = false;
  /// Per-request deadline (virtual us after arrival); 0 disables deadlines.
  std::uint64_t deadline_us = 0;
  /// Shed-at-pop horizon: a request is shed when its deadline is within
  /// this margin of the virtual flush instant. Set it to at least the worst
  /// batch cost to guarantee zero late successes.
  std::uint64_t completion_headroom_us = 0;
  QueuePolicy queue;          // admission bound (0 = unbounded)
  std::size_t virtual_lanes = 1;  // virtual executors (NOT the worker count)
  CostModel cost;
  LadderPolicy ladder;
  RetryPolicy retry;
  BreakerPolicy breaker;
  FaultConfig fault;
};

/// Deterministic replica routing (DESIGN.md §10). The routing function is
/// pure in (seed, request id, policy, active-replica set): kRoundRobin
/// striping or seeded hashing over the active replicas. Replica liveness
/// comes from the PR 6 fault injector with the replica index as the fault
/// id, so outages — and the reroute they force — are part of the plan, not
/// a runtime race.
struct RouterPolicy {
  enum class Strategy : std::uint8_t { kRoundRobin = 0, kHash = 1 };
  Strategy strategy = Strategy::kRoundRobin;
  /// Autoscale floor: never activate fewer than this many replicas.
  std::size_t min_replicas = 1;
  /// Queue-depth autoscale target: the router activates the smallest
  /// replica count whose planned per-replica max_virtual_depth stays at or
  /// below this (and whose ladder never sheds). 0 disables autoscaling —
  /// every alive replica stays active.
  std::size_t scale_depth = 0;
  /// Seed of the kHash routing stream (independent of the payload seed).
  std::uint64_t seed = 1;
  /// Replica-outage model: replica r is down when
  /// FaultInjector(fault).in_outage(r). Disabled by default.
  FaultConfig fault;
};

/// One request's planned outcome.
struct Decision {
  enum class Outcome : std::uint8_t {
    kServed = 0,
    kRejected = 1,      // admission bound, kRejectNew (or outranked arrival)
    kEvicted = 2,       // admission bound, kDropOldest victim
    kShedExpired = 3,   // deadline (un)meetable at pop
    kShedOverload = 4,  // ladder level 2, below the priority floor
  };
  Outcome outcome = Outcome::kServed;
  ServeMode mode = ServeMode::kPrimary;  // meaningful when served
  Priority priority = Priority::kNormal;
  std::uint8_t attempts = 0;   // failed primary attempts before the outcome
  bool late = false;           // served but past its deadline (counted, not
                               // an in-SLO success)
  std::uint64_t v_pop_us = 0;  // virtual flush instant
  std::uint64_t v_done_us = 0; // virtual completion
  std::uint64_t deadline_us = 0;
  /// Model version pinned at admission (DESIGN.md §11). plan() always
  /// leaves 0 (the primary backend); the hot-swap overlay
  /// (serve/swap.hpp) stamps registry versions after the fact.
  std::uint32_t version = 0;

  bool served() const { return outcome == Outcome::kServed; }
  bool shed() const { return !served(); }
};

/// Aggregates over a plan; every field is deterministic in (trace, policy).
struct PlanCounters {
  std::size_t served = 0;
  std::size_t served_primary = 0;
  std::size_t served_canary = 0;  // full fidelity on a swap candidate version
  std::size_t degraded_ladder = 0;
  std::size_t degraded_breaker = 0;
  std::size_t degraded_fallback = 0;
  std::size_t shed_expired = 0;
  std::size_t shed_overload = 0;
  std::size_t rejected = 0;
  std::size_t evicted = 0;
  std::size_t retried_requests = 0;  // served after >= 1 failed attempt
  std::size_t faults_injected = 0;   // total failed primary attempts
  std::size_t late = 0;              // served past deadline
  std::size_t breaker_opens = 0;
  std::size_t ladder_transitions = 0;
  int final_ladder_level = 0;
  int max_ladder_level = 0;
  std::size_t max_virtual_depth = 0;
  std::size_t virtual_batches = 0;
};

/// One control-plane state change on the virtual clock, in occurrence
/// order. The runtime replays these as causal trace events (DESIGN.md §9)
/// and the trajectory is part of the plan's decision ledger.
struct ControlTransition {
  enum class Kind : std::uint8_t { kLadder = 0, kBreakerOpen = 1 };
  Kind kind = Kind::kLadder;
  int level = 0;          // new ladder level (kLadder only)
  std::uint64_t v_us = 0; // virtual instant of the transition
};

struct Plan {
  std::vector<Decision> decisions;  // index = trace index
  /// Global request id per trace index. Empty means id == index (the
  /// single-replica case); the router passes each replica's sub-trace with
  /// the original trace indices so fault streams, payload RNG forks, and
  /// shed-set fingerprints stay keyed by the global id (DESIGN.md §10).
  std::vector<std::uint64_t> request_ids;
  PlanCounters counters;
  /// Ladder level changes and breaker opens in virtual-time order;
  /// counters.ladder_transitions / breaker_opens are its per-kind sizes.
  std::vector<ControlTransition> transitions;
  LatencyStats virtual_latency;     // served requests, virtual clock
  std::array<LatencyStats, kNumPriorities> virtual_by_priority;
  /// FNV-1a over the (id, outcome) pairs of every non-served request in id
  /// order — the shed-set fingerprint the determinism gates compare.
  std::uint64_t shed_set_hash = 0;

  /// Global id of trace index i (identity when request_ids is empty).
  std::uint64_t id_of(std::size_t i) const {
    return request_ids.empty() ? i : request_ids[i];
  }
};

/// Runs the virtual-time control-plane simulation. Pure: same
/// (trace, slo, batch) always yields the identical plan. A disabled policy
/// yields the always-serve ledger: every request kServed / kPrimary at its
/// trace priority, with deadline_us, v_done_us and attempts all 0 and no
/// transitions.
Plan plan(const std::vector<Arrival>& trace, const SloPolicy& slo,
          const BatchPolicy& batch);

/// Same simulation over a sub-trace carrying global request ids (strictly
/// ascending, one per arrival). Decisions stay indexed by sub-trace
/// position, but every id-keyed effect — fault injection, the shed-set
/// fingerprint, the causal oracle — uses the global id, so a replica's
/// sub-plan composes with its siblings (DESIGN.md §10).
Plan plan(const std::vector<Arrival>& trace, const SloPolicy& slo,
          const BatchPolicy& batch,
          std::vector<std::uint64_t> request_ids);

/// FNV-1a fingerprint of a shed set given as (id, outcome-code) pairs in
/// ascending id order; shared by the planner and the runtime's
/// execution-side accounting.
std::uint64_t shed_set_fingerprint(
    const std::vector<std::pair<std::uint64_t, std::uint8_t>>& shed);

/// ShedReason a non-served planned outcome maps to (kNone for kServed);
/// the server stamps it on the requests it pre-marks for pop-time shedding.
ShedReason shed_reason(Decision::Outcome outcome);

/// Building blocks of the causal-trace oracle (DESIGN.md §9), from which
/// expected_causal_fingerprint(const RouterPlan&) composes the fleet-wide
/// fingerprint out of per-replica sub-plans (DESIGN.md §10). The tuples are
/// derived from the decision ledger alone — admission verdicts, pop-time
/// sheds, retry attempts, delivery modes with virtual completion times, and
/// the control-transition log — never from anything the workers did, which
/// is what gives the trace gate independent teeth. Per-decision tuples are
/// keyed by Plan::id_of, and each replica's control transitions are
/// renumbered with a sequence offset so the fleet-wide transition log stays
/// collision-free.
void append_causal_decision_tuples(const Plan& p,
                                   std::vector<obs::CausalTuple>& tuples);
void append_causal_transition_tuples(const Plan& p, std::size_t seq_offset,
                                     std::vector<obs::CausalTuple>& tuples);

}  // namespace gbo::serve
