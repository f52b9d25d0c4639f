// Thread-safe, priority-aware, optionally bounded request queue with a
// dynamic micro-batcher pop and deadline-aware shedding.
//
// Producers push requests as they arrive; workers call pop_batch, a
// work-conserving micro-batcher: a free worker takes whatever is queued, up
// to max_batch, at once, and never holds a batch waiting for company.
// Batches therefore form only from backlog — requests that arrived while
// every worker was busy. A closed, drained queue releases every waiting
// worker with `false`, which is the workers' shutdown signal.
//
// Robustness mechanisms (DESIGN.md §7), all off by default so the legacy
// unbounded-FIFO behaviour is the zero-config case:
//
//   * bounded capacity — QueuePolicy{capacity, on_full}: kRejectNew bounces
//     the incoming request, kDropOldest evicts the oldest request of the
//     least-important class (never evicting more-important work for a less
//     important arrival) and hands the victim back to the caller;
//   * priority classes — one FIFO per Priority; pops drain kHigh first;
//   * shedding at pop — before a batch forms, requests marked shed by the
//     control plane, expired against the caller's clock, or below the
//     caller's priority floor are diverted into a shed output instead of
//     being batched. Shed work never reaches a backend.
//
// try_pop_batch is the non-blocking variant the virtual-time SLO planner
// (serve/policy.cpp) drives: it runs the exact same collect logic under an
// explicit `now_us`, which is what makes planner decisions and real queue
// mechanics share one implementation (and one flush rule).
#pragma once

#include "serve/request.hpp"

#include <array>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <mutex>
#include <vector>

namespace gbo::serve {

/// Admission bound. capacity == 0 keeps the queue unbounded.
struct QueuePolicy {
  enum class OnFull : std::uint8_t { kRejectNew, kDropOldest };
  std::size_t capacity = 0;
  OnFull on_full = OnFull::kRejectNew;
};

class RequestQueue {
 public:
  enum class PushResult : std::uint8_t {
    kAccepted,         // enqueued
    kRejectedFull,     // bounced (queue full; victim would outrank arrival)
    kAcceptedEvicted,  // enqueued after dropping the oldest low-pri request
  };

  struct DepthStats {
    std::size_t pushes = 0;      // accepted pushes
    std::size_t max_depth = 0;   // largest depth observed right after a push
    double mean_depth = 0.0;     // mean post-push depth
    std::size_t rejected = 0;    // arrivals bounced by the bound
    std::size_t evicted = 0;     // queued requests dropped by kDropOldest
    std::size_t sheds = 0;       // requests diverted at pop time
  };

  RequestQueue() = default;
  explicit RequestQueue(QueuePolicy policy) : policy_(policy) {}

  /// Enqueues one request (subject to the capacity bound) and wakes one
  /// waiting worker. On kAcceptedEvicted the victim is copied into
  /// *evicted when non-null.
  PushResult push(const Request& r, Request* evicted = nullptr);

  /// Marks the end of the trace; wakes every waiting worker.
  void close();

  /// Pops up to max_batch queued requests, highest priority class first.
  /// Blocks until at least one request is available (or the queue is closed
  /// and drained, returning false), then returns at once with whatever is
  /// queued. Requests carrying the control-plane shed mark are diverted
  /// into *shed (dropped if null) before batching; a call that only shed
  /// still returns true with an empty `out` so the caller can account the
  /// sheds and loop. max_batch == 0 is treated as 1.
  bool pop_batch(const BatchPolicy& policy, std::vector<Request>& out,
                 std::vector<Request>* shed = nullptr);

  /// Non-blocking pop under an explicit clock: sheds marked requests,
  /// requests whose deadline is <= now_us, and requests with a class below
  /// min_priority (the overload floor), then batches up to max_batch of
  /// what remains. Returns true when anything was popped or shed. This is
  /// the planner's entry point.
  bool try_pop_batch(const BatchPolicy& policy, std::uint64_t now_us,
                     Priority min_priority, std::vector<Request>& out,
                     std::vector<Request>& shed);

  /// Current queued depth (all classes).
  std::size_t size() const;

  /// Earliest enqueue_us among queued requests; ~0 when empty. The planner
  /// uses it to schedule virtual flush instants.
  std::uint64_t oldest_enqueue_us() const;

  DepthStats depth_stats() const;

 private:
  // Moves up to `cap` requests into out (priority order, FIFO per class),
  // diverting shed-marked / expired / below-floor requests into *shed.
  // Progress guarantee: a non-empty queue always loses >= 1 request.
  void collect_locked(std::size_t cap, std::uint64_t now_us,
                      Priority min_priority, std::vector<Request>& out,
                      std::vector<Request>* shed);

  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::array<std::deque<Request>, kNumPriorities> q_;
  std::size_t size_ = 0;
  QueuePolicy policy_;
  bool closed_ = false;
  DepthStats stats_;
  std::uint64_t depth_sum_ = 0;
  std::uint64_t pop_seq_ = 0;  // trace id of kQueuePop events
};

}  // namespace gbo::serve
