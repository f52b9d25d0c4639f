// The online-inference server: traffic replay -> queue -> micro-batcher ->
// worker pool -> per-request responses + metrics.
//
// Architecture (DESIGN.md §4):
//
//   make_trace(cfg)            seeded Poisson/burst arrival trace
//        |
//   plan_trace                 the RouterPlan ledger, fixed on the virtual
//        |                     clock before t0: SLO decisions (§7), or the
//        |                     always-serve ledger when the SLO is off
//   InferenceServer::execute   the one executor (single replica and
//        |                     ReplicaGroup alike): replays arrivals in real
//        |                     time into per-replica RequestQueues (one
//        |                     producer) exactly as the plan says
//   RequestQueue::pop_batch    work-conserving micro-batching: a free
//        |                     worker takes whatever is queued, up to
//        |                     max_batch, at once
//   worker pool                num_workers long-lived workers per replica on
//        |                     the shared ThreadPool; each owns an
//        |                     EvalContext with a ScratchArena, so steady-
//        |                     state request processing allocates nothing
//   Backend::run               analytic (host net) or pulse-level
//                              (HardwareNetwork) execution
//
// The worker pool reuses common/thread_pool: one parallel_for dispatches
// 1 + replicas * num_workers blocks (block 0 replays the plan, the rest are
// worker drains). Because the pool claims blocks in order, the producer
// always starts first; with a single-thread pool the trace is replayed to
// completion and then drained sequentially — degenerate latencies, but the
// same payloads, which is the point: outputs depend only on
// (seed, request id), never on worker count, pool size, or batching.
//
// One execution path (DESIGN.md §4): every micro-batch is one whole-tensor
// Backend::run with ctx.rng = noise_rng(seed) and ctx.row_ids = the batch's
// request ids. Every noise site keys a row's noise by (site key, request
// id) (DESIGN.md §3), so clean and noisy payloads alike are bitwise equal
// to unit-batch execution.
// Responses land in pre-sized per-request slots, so workers never contend
// on result storage.
#pragma once

#include "data/dataset.hpp"
#include "nn/eval_context.hpp"
#include "serve/backend.hpp"
#include "serve/metrics.hpp"
#include "serve/policy.hpp"
#include "serve/swap.hpp"
#include "serve/traffic.hpp"

#include <atomic>
#include <chrono>
#include <memory>
#include <span>
#include <string>
#include <vector>

namespace gbo::serve {

struct ServeConfig {
  BatchPolicy batch;
  std::size_t num_workers = 1;
  /// Seed of the batch noise stream (InferenceServer::noise_rng).
  std::uint64_t seed = 1;
  /// SLO control plane (DESIGN.md §7); disabled by default, in which case
  /// the plan is the always-serve ledger (no deadlines, sheds, retries or
  /// injected faults) and runs through the same executor.
  SloPolicy slo;
};

/// The one way to describe a server: a fluent builder over the backends,
/// dataset, config, and replica topology. Both the single-replica
/// InferenceServer and the multi-replica ReplicaGroup (serve/router.hpp)
/// construct from the same spec, so there is exactly one validation and
/// normalization path instead of one per constructor overload.
///
///   ServerSpec{}.primary(b).degraded(d).dataset(ds).config(cfg).replicas(4)
///
/// Referenced backends and the dataset must outlive whatever is built from
/// the spec; the spec itself only borrows them.
class ServerSpec {
 public:
  ServerSpec& primary(const Backend& b) { primary_ = &b; return *this; }
  ServerSpec& degraded(const Backend& b) { degraded_ = &b; return *this; }
  ServerSpec& dataset(const data::Dataset& ds) { dataset_ = &ds; return *this; }
  ServerSpec& config(const ServeConfig& cfg) { cfg_ = cfg; return *this; }
  ServerSpec& replicas(std::size_t n) { replicas_ = n; return *this; }
  ServerSpec& router(const RouterPolicy& rp) { router_ = rp; return *this; }
  /// Model-version registry (DESIGN.md §11). The server pins every
  /// registered snapshot at warmup and can then resolve a request's pinned
  /// version lock-free on the hot path. Borrowed, like the backends.
  ServerSpec& registry(const ModelRegistry& r) { registry_ = &r; return *this; }
  /// Canary hot-swap rollout executed by a ReplicaGroup built from this
  /// spec. Requires registry() with both versions registered; the
  /// single-replica InferenceServer rejects a spec with a swap enabled.
  ServerSpec& swap(const SwapPolicy& sp) { swap_ = sp; return *this; }

  /// Everything wrong with the spec, reported in one pass: errors make the
  /// spec unbuildable (constructors throw std::invalid_argument listing all
  /// of them); warnings describe the clamps normalized_config() applies
  /// (num_workers == 0 -> 1, max_batch == 0 -> 1, replicas == 0 -> 1).
  /// Replaces the old constructors' scattered first-wins clamp logging.
  struct Validation {
    std::vector<std::string> errors;
    std::vector<std::string> warnings;
    bool ok() const { return errors.empty(); }
  };
  Validation validate() const;

  /// The config with every validate() clamp applied; an SLO-off config
  /// also has its fault model cleared (SLO-off runs inject no faults).
  ServeConfig normalized_config() const;
  /// The replica count with every validate() clamp applied.
  std::size_t normalized_replicas() const;

  const Backend* primary_backend() const { return primary_; }
  const Backend* degraded_backend() const { return degraded_; }
  const data::Dataset* dataset_ref() const { return dataset_; }
  const ServeConfig& config_ref() const { return cfg_; }
  std::size_t num_replicas() const { return replicas_; }
  const RouterPolicy& router_policy() const { return router_; }
  const ModelRegistry* model_registry() const { return registry_; }
  const SwapPolicy& swap_policy() const { return swap_; }

 private:
  const Backend* primary_ = nullptr;
  const Backend* degraded_ = nullptr;
  const data::Dataset* dataset_ = nullptr;
  ServeConfig cfg_;
  std::size_t replicas_ = 1;
  RouterPolicy router_;
  const ModelRegistry* registry_ = nullptr;
  SwapPolicy swap_;
};

class ReplicaGroup;
struct RouterPlan;    // serve/router.hpp
struct RouterReport;  // serve/router.hpp

class InferenceServer {
 public:
  /// The only constructor: the spec must validate() clean and describe a
  /// single replica (ReplicaGroup is the multi-replica entry point);
  /// otherwise std::invalid_argument lists every problem at once.
  explicit InferenceServer(const ServerSpec& spec);

  /// Sizes every worker's arena, gather buffer and row-id vector by running
  /// one maximal micro-batch (and one unit batch) through every backend.
  /// Called lazily by run(); call it explicitly so the first run's arena
  /// stats are already steady-state.
  void warmup();

  /// The context stream every batch starts from, Rng(seed).fork(~0): a
  /// served request r's payload is one inference of its sample with
  /// ctx.rng = noise_rng(seed) and ctx.row_ids = {r}.
  static Rng noise_rng(std::uint64_t seed) {
    return Rng(seed).fork(~std::uint64_t{0});
  }

  /// The plan run() executes for this trace: route_plan() over one replica
  /// with the default RouterPolicy (pure; include serve/router.hpp to use
  /// it). With cfg.slo.enabled it carries every admit / shed / degrade /
  /// retry outcome decided on the virtual clock (DESIGN.md §7); otherwise
  /// it is the always-serve ledger.
  RouterPlan plan_trace(const std::vector<Arrival>& trace) const;

  /// Replays the trace in real time and serves it to completion by
  /// executing plan_trace(trace): planned rejections are bounced at
  /// admission, planned sheds are pushed marked and diverted at pop time,
  /// and fault/retry behaviour is re-derived live from the same seeded
  /// FaultInjector. Payloads and the shed set are bitwise identical at any
  /// worker count. An empty trace (or empty dataset) returns an empty
  /// report with a warning.
  ServeReport run(const std::vector<Arrival>& trace);

 private:
  struct Worker {
    ScratchArena arena;
    nn::EvalContext ctx;
    Tensor gather;                        // request-batch input staging
    std::vector<std::size_t> in_shape;    // [B, sample dims...] template
    std::vector<std::size_t> batch_hist;  // index = batch size
    std::size_t served = 0;
    std::size_t exec_calls = 0;           // Backend::run invocations
    // Route partitions, reused across batches (capacity settles at
    // max_batch, so steady-state batches allocate nothing).
    std::vector<Request> primary_group;
    std::vector<Request> degraded_group;
    // Plan-execution accounting (merged into SloSummary after the run).
    std::vector<std::pair<std::uint64_t, std::uint8_t>> shed_log;
    std::size_t retried = 0;    // requests served after >= 1 failed attempt
    std::size_t faults = 0;     // failed primary attempts observed
    std::size_t fallbacks = 0;  // retries exhausted, served degraded
    std::size_t degraded = 0;   // served on the degraded backend (any mode)
    std::size_t stalls = 0;     // injected worker stalls
    std::size_t allocs_before = 0;  // arena system allocs at run start
    Worker() { ctx.arena = &arena; }
    /// Zeroes the per-run accounting and snapshots the arena counter.
    void begin_run(std::size_t max_batch);
  };

  /// The one spec check: validate(), plus the single-replica rules when
  /// `single_replica` (replicas > 1 and swaps need a ReplicaGroup). Throws
  /// std::invalid_argument listing every error, logs every warning, and
  /// returns the spec.
  static const ServerSpec& checked_spec(const ServerSpec& spec,
                                        bool single_replica);
  /// The one serving executor: replays `rp` onto replicas[0..n) — one
  /// parallel_for of a producer block (transitions, swap events, then per
  /// request kRoute, kAdmit and the push onto its replica's queue) plus
  /// num_workers drain blocks per replica — and aggregates the run into
  /// one RouterReport. InferenceServer::run passes itself as a one-replica
  /// fleet and returns the report's ServeReport.
  static RouterReport execute(std::span<InferenceServer* const> replicas,
                              const RouterPlan& rp,
                              const std::vector<Arrival>& trace);

  void warmup_backend(const Backend& backend);
  /// Executes group[0..n) (all routed to `backend`) as one fused call and
  /// writes each request's logits row into out_rows[id]. Takes a pointer +
  /// count so a batch can execute contiguous same-version runs without
  /// re-partitioning into fresh vectors (hot path stays zero-alloc).
  void exec_rows(Worker& w, const Backend& backend, const Request* group,
                 std::size_t n, float* out_rows);
  /// The backend serving primary-class requests pinned to `version` (0 =
  /// the spec's primary backend; otherwise a registry snapshot pinned at
  /// warmup). Lock-free: a flat vector lookup.
  const Backend& backend_for_version(std::uint32_t version) const;
  /// Serves one popped batch: injects stalls/retry backoff and splits the
  /// batch by planned ServeMode between the primary and degraded backends.
  /// `decisions` is indexed by global request id and supplies each
  /// delivery's virtual completion time for the causal trace (DESIGN.md
  /// §9).
  void serve_batch(Worker& w, const std::vector<Request>& batch,
                   float* out_rows, std::uint64_t* completion_us,
                   const std::chrono::steady_clock::time_point& t0,
                   const FaultInjector& injector,
                   const std::vector<Decision>& decisions);
  /// One worker's drain loop: pops until `queue` closes, diverting
  /// pre-marked sheds into the worker's shed log.
  void drain_queue(Worker& w, RequestQueue& queue, float* out_rows,
                   std::uint64_t* completion_us,
                   const std::chrono::steady_clock::time_point& t0,
                   const FaultInjector& injector,
                   const std::vector<Decision>& decisions);

  friend class ReplicaGroup;  // checks its spec, executes across replicas

  const Backend& backend_;
  const Backend* degraded_ = nullptr;  // SLO fallback; null = use primary
  const data::Dataset& dataset_;
  /// Hot-swap version resolution (DESIGN.md §11). warmup() pins every
  /// registry snapshot into pinned_ (index = version - 1) and warms its
  /// caches, so a cutover never packs, binarizes, or allocates on the
  /// serving path — the incoming version is already steady-state.
  const ModelRegistry* registry_ = nullptr;
  std::vector<std::shared_ptr<const ModelSnapshot>> pinned_;
  ServeConfig cfg_;
  Rng noise_rng_;  // noise_rng(cfg_.seed), copied into ctx.rng per batch
  std::vector<std::unique_ptr<Worker>> workers_;
  /// Process-order sequence of popped batches; the trace id of kBatch
  /// spans and kBatchMember events (timing-class, worker-count dependent).
  std::atomic<std::uint64_t> batch_seq_{0};
  std::size_t out_dim_ = 0;
  bool warmed_ = false;
};

}  // namespace gbo::serve
