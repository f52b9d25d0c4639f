// Core value types of the online-serving runtime.
//
// The serving subsystem simulates production inference traffic against the
// repository's networks: a seeded traffic generator produces an arrival
// trace over a dataset, requests flow through a thread-safe queue into a
// dynamic micro-batcher, and a worker pool executes them against either the
// analytic or the pulse-level backend (serve/backend.hpp). An optional SLO
// control plane (serve/policy.hpp) adds admission control, per-request
// deadlines, priority classes, a fidelity ladder, and fault routing.
//
// Determinism contract (DESIGN.md §4, §7): a request's payload output
// depends only on (server seed, request id, execution mode) — never on
// which worker executes it, how the micro-batcher grouped it, or how many
// workers exist — and every control-plane decision (admit / shed / degrade)
// is a pure function of (trace, policy), decided on a virtual clock. Timing
// (latency, batch composition) is real and therefore run-to-run variable;
// payloads and the shed set are bitwise reproducible.
#pragma once

#include <cstddef>
#include <cstdint>

namespace gbo::serve {

/// Priority classes carried on every request. Lower value = more important;
/// the queue drains higher classes first and the overload ladder sheds from
/// the bottom up.
enum class Priority : std::uint8_t { kHigh = 0, kNormal = 1, kLow = 2 };
inline constexpr std::size_t kNumPriorities = 3;

/// How the control plane routed a served request down the fidelity ladder
/// (DESIGN.md §7). The payload is produced by the primary backend for
/// kPrimary and by the degraded backend otherwise.
enum class ServeMode : std::uint8_t {
  kPrimary = 0,           // full fidelity
  kDegradedLadder = 1,    // fidelity ladder stepped down under queue pressure
  kDegradedBreaker = 2,   // circuit breaker open: primary quarantined
  kDegradedFallback = 3,  // primary retries exhausted, served degraded
  kCanary = 4,            // full fidelity on the candidate model version of a
                          // hot-swap rollout (DESIGN.md §11)
};

/// Why a request produced no payload.
enum class ShedReason : std::uint8_t {
  kNone = 0,      // served
  kExpired = 1,   // deadline passed (or unmeetable) at pop time
  kOverload = 2,  // ladder at shed level and priority below the floor
  kCapacity = 3,  // bounded queue rejected the new arrival
  kEvicted = 4,   // bounded queue dropped it to admit a newer arrival
};

/// One scheduled arrival of a synthetic traffic trace.
struct Arrival {
  std::uint64_t t_us = 0;   // arrival offset from trace start
  std::size_t sample = 0;   // dataset row this request asks for
  Priority priority = Priority::kNormal;  // seeded class mix (traffic.hpp)
};

/// A queued inference request.
struct Request {
  std::uint64_t id = 0;         // trace index; also the RNG fork stream
  std::size_t sample = 0;       // dataset row
  std::uint64_t enqueue_us = 0; // actual enqueue time (relative clock)
  Priority priority = Priority::kNormal;
  /// Absolute virtual-time deadline (trace clock), 0 = none. Compared by
  /// the pop-side shed check against a caller-provided "now".
  std::uint64_t deadline_us = 0;
  /// Planned execution route (SLO runs; ignored otherwise).
  ServeMode mode = ServeMode::kPrimary;
  /// Control-plane shed mark: pop_batch diverts flagged requests into the
  /// shed output instead of batching them.
  bool shed = false;
  ShedReason reason = ShedReason::kNone;
  /// Model version pinned at admission (DESIGN.md §11): the request executes
  /// on this registry version no matter when it is popped — a cutover that
  /// lands while it is queued must not move it. 0 = the server's primary
  /// backend (no registry / no swap in flight).
  std::uint32_t version = 0;
};

/// Micro-batching policy. One rule, shared by RequestQueue::pop_batch and
/// the planner: a free worker (virtual lane) takes whatever is queued, up to
/// max_batch, at once — a batch never waits for company.
struct BatchPolicy {
  std::size_t max_batch = 8;
  /// Has no effect: batches never wait. Kept only because the benchmark
  /// harness under perfbench/ still assigns it.
  std::uint64_t max_wait_us = 200;
};

}  // namespace gbo::serve
