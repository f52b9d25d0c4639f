#include "serve/server.hpp"

#include "common/logging.hpp"
#include "common/thread_pool.hpp"
#include "obs/trace.hpp"
#include "serve/router.hpp"

#include <algorithm>
#include <array>
#include <stdexcept>
#include <string>
#include <thread>

namespace gbo::serve {
namespace {

std::uint64_t us_since(const std::chrono::steady_clock::time_point& t0) {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now() - t0)
          .count());
}

std::uint8_t outcome_code(Decision::Outcome o) {
  return static_cast<std::uint8_t>(o);
}

// ShedReason -> Decision::Outcome code, the inverse of shed_reason(); the
// runtime logs its shed set in the same encoding the planner fingerprints.
std::uint8_t reason_code(ShedReason r) {
  switch (r) {
    case ShedReason::kCapacity:
      return outcome_code(Decision::Outcome::kRejected);
    case ShedReason::kEvicted:
      return outcome_code(Decision::Outcome::kEvicted);
    case ShedReason::kExpired:
      return outcome_code(Decision::Outcome::kShedExpired);
    case ShedReason::kOverload:
      return outcome_code(Decision::Outcome::kShedOverload);
    case ShedReason::kNone: break;
  }
  return outcome_code(Decision::Outcome::kServed);
}

}  // namespace

ServerSpec::Validation ServerSpec::validate() const {
  Validation v;
  if (primary_ == nullptr) v.errors.push_back("no primary backend set");
  if (dataset_ == nullptr) v.errors.push_back("no dataset set");
  if (cfg_.num_workers == 0)
    v.warnings.push_back("num_workers == 0, clamping to 1");
  if (cfg_.batch.max_batch == 0)
    v.warnings.push_back("max_batch == 0, clamping to 1");
  if (replicas_ == 0) v.warnings.push_back("replicas == 0, clamping to 1");
  if (replicas_ > 255)
    v.errors.push_back("replicas > 255 (assignment is a byte per request)");
  if (replicas_ > 1 && !cfg_.slo.enabled)
    v.errors.push_back(
        "replicas > 1 requires the SLO control plane (cfg.slo.enabled): "
        "routing decisions live on the virtual clock");
  if (router_.min_replicas > replicas_ && replicas_ > 0)
    v.warnings.push_back("router.min_replicas exceeds replicas, clamping");
  if (swap_.enabled) {
    if (!cfg_.slo.enabled)
      v.errors.push_back(
          "swap requires the SLO control plane (cfg.slo.enabled): the "
          "rollout schedule lives on the virtual clock");
    if (registry_ == nullptr) {
      v.errors.push_back("swap requires a model registry (registry())");
    } else {
      if (!registry_->has(swap_.from_version))
        v.errors.push_back("swap.from_version is not registered");
      if (!registry_->has(swap_.to_version))
        v.errors.push_back("swap.to_version is not registered");
    }
    if (swap_.from_version == swap_.to_version)
      v.errors.push_back("swap.from_version == swap.to_version: nothing to "
                         "roll out");
    if (swap_.canary_replica >= normalized_replicas())
      v.warnings.push_back(
          "swap.canary_replica exceeds replicas; the first active replica "
          "canaries instead");
  }
  return v;
}

ServeConfig ServerSpec::normalized_config() const {
  ServeConfig cfg = cfg_;
  if (cfg.num_workers == 0) cfg.num_workers = 1;
  if (cfg.batch.max_batch == 0) cfg.batch.max_batch = 1;
  if (!cfg.slo.enabled) cfg.slo.fault = FaultConfig{};
  return cfg;
}

std::size_t ServerSpec::normalized_replicas() const {
  return replicas_ == 0 ? 1 : replicas_;
}

const ServerSpec& InferenceServer::checked_spec(const ServerSpec& spec,
                                                bool single_replica) {
  ServerSpec::Validation v = spec.validate();
  if (single_replica && spec.normalized_replicas() > 1)
    v.errors.push_back(
        "replicas > 1 requires ReplicaGroup, not InferenceServer");
  if (single_replica && spec.swap_policy().enabled)
    v.errors.push_back(
        "a hot swap requires ReplicaGroup, not InferenceServer: the canary "
        "boundary is a replica");
  if (!v.ok()) {
    std::string msg = "serve: invalid ServerSpec:";
    for (const std::string& e : v.errors) msg += " [" + e + "]";
    throw std::invalid_argument(msg);
  }
  for (const std::string& w : v.warnings) log_warn("serve: ", w);
  return spec;
}

InferenceServer::InferenceServer(const ServerSpec& spec)
    : backend_(*checked_spec(spec, /*single_replica=*/true).primary_backend()),
      degraded_(spec.degraded_backend()),
      dataset_(*spec.dataset_ref()),
      registry_(spec.model_registry()),
      cfg_(spec.normalized_config()),
      noise_rng_(noise_rng(cfg_.seed)) {
  workers_.reserve(cfg_.num_workers);
  for (std::size_t i = 0; i < cfg_.num_workers; ++i) {
    auto w = std::make_unique<Worker>();
    if (dataset_.size() > 0) w->in_shape = dataset_.images.shape();
    workers_.push_back(std::move(w));
  }
}

void InferenceServer::warmup_backend(const Backend& backend) {
  const std::size_t len = dataset_.sample_numel();
  const float* images = dataset_.images.data();
  // Arenas, gather buffers and row-id vectors get sized for the largest
  // fused batch. Warmup also fills the layers' frozen-weight panel caches
  // (prepack-at-deploy, DESIGN.md §6), so the first real request already
  // packs nothing.
  std::vector<std::size_t> sizes{1};
  if (cfg_.batch.max_batch > 1) sizes.push_back(cfg_.batch.max_batch);
  for (auto& wp : workers_) {
    Worker& w = *wp;
    for (std::size_t b : sizes) {
      w.in_shape[0] = b;
      w.gather.resize(w.in_shape);
      float* g = w.gather.data();
      w.ctx.row_ids.resize(b);
      for (std::size_t i = 0; i < b; ++i) {
        const std::size_t s = i % dataset_.size();
        std::copy(images + s * len, images + (s + 1) * len, g + i * len);
        w.ctx.row_ids[i] = i;  // the outputs are discarded
      }
      w.ctx.rng = noise_rng_;
      Tensor logits = backend.run(w.gather, w.ctx);
      out_dim_ = logits.numel() / b;
      w.ctx.recycle(std::move(logits));
    }
  }
}

void InferenceServer::warmup() {
  if (warmed_) return;
  warmed_ = true;
  if (dataset_.size() == 0) {
    log_warn("serve: warmup over an empty dataset skipped");
    return;
  }
  warmup_backend(backend_);
  const std::size_t primary_dim = out_dim_;
  if (degraded_ != nullptr) {
    warmup_backend(*degraded_);
    if (out_dim_ != primary_dim) {
      log_warn(
          "serve: degraded backend output dim mismatch, serving degraded "
          "requests on the primary backend instead");
      degraded_ = nullptr;
      out_dim_ = primary_dim;
    }
  }
  if (registry_ != nullptr) {
    // Pin and warm every registered version now, before any cutover can
    // route a request at it (prepack-before-cutover, DESIGN.md §11): the
    // incoming version's weight-panel caches, arenas, and gather buffers
    // are steady-state before the first swapped request arrives, so a live
    // cutover packs, binarizes, and allocates nothing.
    const std::uint32_t latest = registry_->latest();
    pinned_.clear();
    pinned_.reserve(latest);
    for (std::uint32_t ver = 1; ver <= latest; ++ver) {
      std::shared_ptr<const ModelSnapshot> snap = registry_->snapshot(ver);
      warmup_backend(*snap->backend);
      if (out_dim_ != primary_dim)
        throw std::invalid_argument(
            "serve: registry version " + std::to_string(ver) + " (" +
            snap->label + ") output dim mismatch: a hot swap must not " +
            "change the response shape under live traffic");
      pinned_.push_back(std::move(snap));
    }
    out_dim_ = primary_dim;
  }
}

const Backend& InferenceServer::backend_for_version(
    std::uint32_t version) const {
  if (version == 0 || pinned_.empty()) return backend_;
  return *pinned_[version - 1]->backend;
}

void InferenceServer::exec_rows(Worker& w, const Backend& backend,
                                const Request* group, std::size_t n,
                                float* out_rows) {
  if (n == 0) return;
  // One fused call: row-equal to unit batches by the kernel row-
  // independence contract (serve/backend.hpp), and the noise of each row
  // is keyed by its request id (DESIGN.md §3), so payloads do not depend on
  // how the micro-batcher grouped the requests.
  const std::size_t len = dataset_.sample_numel();
  const float* images = dataset_.images.data();
  w.in_shape[0] = n;
  w.gather.resize(w.in_shape);
  float* g = w.gather.data();
  w.ctx.row_ids.resize(n);  // capacity warmed at max_batch
  for (std::size_t i = 0; i < n; ++i) {
    std::copy(images + group[i].sample * len,
              images + (group[i].sample + 1) * len, g + i * len);
    w.ctx.row_ids[i] = group[i].id;
  }
  w.ctx.rng = noise_rng_;
  Tensor logits = backend.run(w.gather, w.ctx);
  const float* rows = logits.data();
  for (std::size_t i = 0; i < n; ++i)
    std::copy(rows + i * out_dim_, rows + (i + 1) * out_dim_,
              out_rows + group[i].id * out_dim_);
  w.ctx.recycle(std::move(logits));
  ++w.exec_calls;
}

void InferenceServer::Worker::begin_run(std::size_t max_batch) {
  allocs_before = arena.stats().system_allocs;
  batch_hist.clear();
  served = exec_calls = 0;
  primary_group.clear();
  primary_group.reserve(max_batch);
  degraded_group.clear();
  degraded_group.reserve(max_batch);
  shed_log.clear();
  retried = faults = fallbacks = degraded = stalls = 0;
}

void InferenceServer::serve_batch(
    Worker& w, const std::vector<Request>& batch, float* out_rows,
    std::uint64_t* completion_us,
    const std::chrono::steady_clock::time_point& t0,
    const FaultInjector& injector,
    [[maybe_unused]] const std::vector<Decision>& decisions) {
  const RetryPolicy& retry = cfg_.slo.retry;
  [[maybe_unused]] const std::uint64_t seq =
      batch_seq_.fetch_add(1, std::memory_order_relaxed);
  w.primary_group.clear();
  w.degraded_group.clear();
  // Injected stalls and retry backoff are real wall-time sleeps taken
  // before execution; they stretch latency but cannot change routing or
  // payloads — those were fixed on the virtual clock.
  std::uint64_t sleep_us = 0;
  for (const Request& r : batch) {
    GBO_TRACE_EVENT(obs::EventType::kBatchMember, r.id, 0, seq);
    const std::uint64_t stall = injector.stall_us(r.id);
    if (stall > 0) {
      sleep_us += stall;
      ++w.stalls;
    }
    switch (r.mode) {
      case ServeMode::kPrimary:
      case ServeMode::kCanary: {
        // Re-derive the retry ladder live from the same pure injector the
        // planner consulted: the worker observes exactly the failed
        // attempts the plan charged for, then the surviving attempt runs.
        // A canary request is primary-class — full fidelity, same retry
        // ladder — it only resolves to the candidate version's backend.
        const std::size_t a =
            injector.attempts_to_success(r.id, retry.max_attempts);
        if (a > 0) {
          ++w.retried;
          w.faults += a;
          sleep_us += a * retry.backoff_us;
          GBO_TRACE_EVENT(obs::EventType::kRetry, r.id,
                          static_cast<std::uint16_t>(a), 0);
        }
        w.primary_group.push_back(r);
        break;
      }
      case ServeMode::kDegradedFallback:
        // Every allowed attempt fails before the fallback executes.
        ++w.fallbacks;
        w.faults += retry.max_attempts;
        sleep_us += retry.max_attempts * retry.backoff_us;
        if (retry.max_attempts > 0)
          GBO_TRACE_EVENT(obs::EventType::kRetry, r.id,
                          static_cast<std::uint16_t>(retry.max_attempts), 0);
        w.degraded_group.push_back(r);
        break;
      case ServeMode::kDegradedLadder:
      case ServeMode::kDegradedBreaker:
        w.degraded_group.push_back(r);
        break;
    }
  }
  // The span opens once the partition is known: its route tag is 1 only if
  // some row of this batch runs on the degraded route.
  GBO_TRACE_SPAN(obs::EventType::kBatch, seq,
                 w.degraded_group.empty() ? 0 : 1, batch.size());
  if (sleep_us > 0) {
    GBO_TRACE_SPAN(obs::EventType::kStall, seq, 0, sleep_us);
    std::this_thread::sleep_for(std::chrono::microseconds(sleep_us));
  }
  // Primary-class requests execute on the backend of their pinned version
  // (DESIGN.md §11). Group the batch into contiguous same-version runs with
  // an in-place insertion sort — batches are at most max_batch long and hold
  // at most two distinct versions mid-swap, and std::stable_sort may heap-
  // allocate its scratch, which the steady-state zero-alloc gate forbids.
  std::vector<Request>& pg = w.primary_group;
  for (std::size_t i = 1; i < pg.size(); ++i) {
    const Request key = pg[i];
    std::size_t j = i;
    for (; j > 0 && pg[j - 1].version > key.version; --j) pg[j] = pg[j - 1];
    pg[j] = key;
  }
  for (std::size_t lo = 0; lo < pg.size();) {
    std::size_t hi = lo + 1;
    while (hi < pg.size() && pg[hi].version == pg[lo].version) ++hi;
    const std::uint32_t ver = pg[lo].version;
    exec_rows(w, backend_for_version(ver), pg.data() + lo, hi - lo,
              out_rows);
    lo = hi;
  }
  exec_rows(w, degraded_ != nullptr ? *degraded_ : backend_,
            w.degraded_group.data(), w.degraded_group.size(), out_rows);
  w.degraded += w.degraded_group.size();
  const std::uint64_t done = us_since(t0);
  for (const Request& r : batch) {
    completion_us[r.id] = done;
    // The delivery event folds the pinned version into the high byte of
    // `a`, matching the planner oracle (serve/policy.cpp): version 0 —
    // every non-swap run — reproduces the historical event bit for bit.
    GBO_TRACE_EVENT(obs::EventType::kDeliver, r.id,
                    static_cast<std::uint16_t>(
                        static_cast<std::uint16_t>(r.mode) |
                        static_cast<std::uint16_t>((r.version & 0xff) << 8)),
                    decisions[r.id].v_done_us);
  }
  if (w.batch_hist.size() <= batch.size()) w.batch_hist.resize(batch.size() + 1);
  ++w.batch_hist[batch.size()];
  w.served += batch.size();
}

void InferenceServer::drain_queue(
    Worker& w, RequestQueue& queue, float* out_rows,
    std::uint64_t* completion_us,
    const std::chrono::steady_clock::time_point& t0,
    const FaultInjector& injector, const std::vector<Decision>& decisions) {
  std::vector<Request> batch, shed;
  while (queue.pop_batch(cfg_.batch, batch, &shed)) {
    for (const Request& s : shed) {
      w.shed_log.emplace_back(s.id, reason_code(s.reason));
      GBO_TRACE_EVENT(obs::EventType::kShed, s.id, reason_code(s.reason), 0);
    }
    if (!batch.empty())
      serve_batch(w, batch, out_rows, completion_us, t0, injector, decisions);
  }
}

RouterPlan InferenceServer::plan_trace(const std::vector<Arrival>& trace) const {
  return route_plan(trace, cfg_.slo, cfg_.batch, RouterPolicy{}, 1);
}

ServeReport InferenceServer::run(const std::vector<Arrival>& trace) {
  InferenceServer* const self = this;
  return execute({&self, 1}, plan_trace(trace), trace).serve;
}

RouterReport InferenceServer::execute(
    std::span<InferenceServer* const> replicas, const RouterPlan& rp,
    const std::vector<Arrival>& trace) {
  const InferenceServer& lead = *replicas[0];
  const ServeConfig& cfg = lead.cfg_;  // every replica shares the config
  const std::size_t R = replicas.size();
  const std::size_t W = cfg.num_workers;
  RouterReport rep;
  rep.total_replicas = R;
  ServeReport& srep = rep.serve;
  srep.workers = R * W;
  if (trace.empty()) {
    log_warn("serve: empty request trace, nothing to serve");
    return rep;
  }
  if (lead.dataset_.size() == 0) {
    log_warn("serve: empty dataset, nothing to serve");
    return rep;
  }
  for (InferenceServer* s : replicas) {
    s->warmup();
    for (auto& w : s->workers_) w->begin_run(cfg.batch.max_batch);
  }
  rep.active_replicas = rp.active_replicas;
  rep.routing_hash = rp.routing_hash;
  const FaultInjector injector(cfg.slo.fault);

  const std::size_t num_requests = trace.size();
  srep.requests = num_requests;
  srep.outputs = Tensor({num_requests, lead.out_dim_});
  std::vector<std::uint64_t> enqueue(num_requests, 0);
  std::vector<std::uint64_t> completion(num_requests, 0);
  // Taken once, before the workers start: the non-const data() accessor
  // bumps the tensor's version counter (a plain increment), so it must not
  // be re-evaluated concurrently from the worker loops.
  float* const out_rows = srep.outputs.data();
  std::uint64_t* const completion_us = completion.data();

  // One queue per replica; replicas admit only what the plan routed to
  // them. Unbounded: admission was already decided by the plan (re-racing
  // a wall-clock bound against it could diverge), and the bounded-queue
  // mechanics are exercised inside the planner — which drives this same
  // RequestQueue implementation — and in the queue unit tests.
  std::vector<RequestQueue> queues(R);
  // Planned rejections/evictions never reach a queue; the producer logs
  // them per target replica (single-writer until the pool joins).
  std::vector<std::vector<std::pair<std::uint64_t, std::uint8_t>>>
      admission_shed(R);
  const auto t0 = std::chrono::steady_clock::now();

  // One flat dispatch: block 0 is the producer, block 1 + r*W + w is
  // worker w of replica r. The pool claims blocks in order (producer
  // first) and must not nest — a nested dispatch would run inline on
  // the caller — so the fleet shares a single worker-pool dispatch. With a
  // single-thread pool the blocks simply run back to back (produce all,
  // then drain).
  ThreadPool::instance().parallel_for(
      0, 1 + R * W, 1, [&](std::size_t lo, std::size_t hi) {
        for (std::size_t block = lo; block < hi; ++block) {
          obs::prime();
          if (block != 0) {
            InferenceServer& srv = *replicas[(block - 1) / W];
            srv.drain_queue(*srv.workers_[(block - 1) % W],
                            queues[(block - 1) / W], out_rows, completion_us,
                            t0, injector, rp.decisions);
            continue;
          }
          // The control-plane trajectory (ladder levels, breaker opens) is
          // part of the executed ledger; replay it onto the trace with
          // replica-major renumbered sequence ids, as the oracle composes
          // it (DESIGN.md §9/§10).
          std::size_t seq_base = 0;
          for (const Plan& p : rp.per_replica) {
            for (std::size_t seq = 0; seq < p.transitions.size(); ++seq) {
              const ControlTransition& t = p.transitions[seq];
              if (t.kind == ControlTransition::Kind::kLadder)
                GBO_TRACE_EVENT(obs::EventType::kLadder, seq_base + seq,
                                static_cast<std::uint16_t>(t.level), t.v_us);
              else
                GBO_TRACE_EVENT(obs::EventType::kBreaker, seq_base + seq, 1,
                                t.v_us);
            }
            seq_base += p.transitions.size();
          }
          // The swap trajectory too: one kSwap per planned cutover and the
          // kCanary verdict (DESIGN.md §11).
          if (rp.swap.enabled) {
            for (const SwapCutover& cut : rp.swap.cutovers)
              GBO_TRACE_EVENT(obs::EventType::kSwap, cut.replica,
                              static_cast<std::uint16_t>(cut.version),
                              cut.at_us);
            GBO_TRACE_EVENT(obs::EventType::kCanary, rp.swap.canary_replica,
                            rp.swap.rolled_back ? 0 : 1, rp.swap.verdict_us);
          }
          for (std::size_t i = 0; i < num_requests; ++i) {
            std::this_thread::sleep_until(
                t0 + std::chrono::microseconds(trace[i].t_us));
            const std::uint8_t target = rp.assignment[i];
            GBO_TRACE_EVENT(obs::EventType::kRoute, i, target,
                            rp.active_replicas);
            const Decision& d = rp.decisions[i];
            if (d.outcome == Decision::Outcome::kRejected ||
                d.outcome == Decision::Outcome::kEvicted) {
              admission_shed[target].emplace_back(i, outcome_code(d.outcome));
              GBO_TRACE_EVENT(obs::EventType::kAdmit, i,
                              outcome_code(d.outcome), d.deadline_us);
              continue;
            }
            GBO_TRACE_EVENT(obs::EventType::kAdmit, i, 0, d.deadline_us);
            Request q;
            q.id = i;
            q.sample = trace[i].sample;
            q.priority = trace[i].priority;
            q.deadline_us = d.deadline_us;
            q.mode = d.mode;
            // The version pin happens here, at admission: whatever
            // cutovers land while the request waits in its queue, the
            // worker resolves exactly this version (DESIGN.md §11).
            q.version = d.version;
            // Planned sheds are still pushed, marked: they flow through
            // the real queue and are diverted by the pop-side shed path,
            // so the mechanism itself is exercised every run.
            q.shed = d.shed();
            q.reason = shed_reason(d.outcome);
            q.enqueue_us = us_since(t0);
            enqueue[i] = q.enqueue_us;
            queues[target].push(q);
          }
          for (RequestQueue& q : queues) q.close();
        }
      });

  srep.wall_s = static_cast<double>(us_since(t0)) * 1e-6;

  // Wall-clock latency over delivered requests only; shed requests have no
  // completion and report latency 0.
  srep.latencies_us.assign(num_requests, 0);
  std::vector<std::uint64_t> delivered;
  std::array<std::vector<std::uint64_t>, kNumPriorities> by_pri;
  delivered.reserve(num_requests);
  for (std::size_t i = 0; i < num_requests; ++i) {
    if (completion[i] == 0) continue;
    const std::uint64_t lat = completion[i] - enqueue[i];
    srep.latencies_us[i] = lat;
    delivered.push_back(lat);
    by_pri[static_cast<std::size_t>(trace[i].priority)].push_back(lat);
  }
  srep.latency = LatencyStats::compute(std::move(delivered));

  // Per-replica exec accounting: admission bounces (attributed to the
  // routed replica) + every worker's pop-time shed log, fingerprinted in
  // the planner's encoding. The gates demand each replica's hash equals
  // its sub-plan's, and the fleet union the plan's.
  std::size_t batches = 0;
  SloSummary& s = srep.slo;
  std::vector<std::pair<std::uint64_t, std::uint8_t>> exec_shed_all;
  double depth_weighted = 0.0;
  rep.replicas.resize(R);
  for (std::size_t r = 0; r < R; ++r) {
    ReplicaStats& rs = rep.replicas[r];
    rs.alive = rp.alive[r] != 0;
    rs.active = std::find(rp.active.begin(), rp.active.end(),
                          static_cast<std::uint8_t>(r)) != rp.active.end();
    rs.assigned = rp.per_replica[r].decisions.size();
    rs.plan_shed_set_hash = rp.per_replica[r].shed_set_hash;
    rs.max_virtual_depth = rp.per_replica[r].counters.max_virtual_depth;
    rs.max_ladder_level = rp.per_replica[r].counters.max_ladder_level;
    // Fleet queue stats: sums with max_depth maxed; mean_depth is the
    // push-weighted mean of the per-replica means.
    const RequestQueue::DepthStats qs = queues[r].depth_stats();
    srep.queue.pushes += qs.pushes;
    srep.queue.max_depth = std::max(srep.queue.max_depth, qs.max_depth);
    srep.queue.rejected += qs.rejected;
    srep.queue.evicted += qs.evicted;
    srep.queue.sheds += qs.sheds;
    depth_weighted += qs.mean_depth * static_cast<double>(qs.pushes);

    std::vector<std::pair<std::uint64_t, std::uint8_t>> exec_shed =
        std::move(admission_shed[r]);
    for (const auto& wp : replicas[r]->workers_) {
      const Worker& w = *wp;
      rs.delivered += w.served;
      srep.completed += w.served;
      srep.exec_calls += w.exec_calls;
      if (srep.batch_hist.size() < w.batch_hist.size())
        srep.batch_hist.resize(w.batch_hist.size(), 0);
      for (std::size_t b = 0; b < w.batch_hist.size(); ++b) {
        srep.batch_hist[b] += w.batch_hist[b];
        batches += w.batch_hist[b];
      }
      exec_shed.insert(exec_shed.end(), w.shed_log.begin(), w.shed_log.end());
      s.exec_retried += w.retried;
      s.exec_faults += w.faults;
      s.exec_fallbacks += w.fallbacks;
      s.exec_degraded += w.degraded;
      s.exec_stalls += w.stalls;
      const ScratchArena::Stats st = w.arena.stats();
      srep.arena.system_allocs += st.system_allocs;
      srep.arena.steady_allocs += st.system_allocs - w.allocs_before;
      rs.steady_allocs += st.system_allocs - w.allocs_before;
      srep.arena.high_water_bytes =
          std::max(srep.arena.high_water_bytes, st.bump_high_water_bytes);
      srep.arena.reserved_bytes += st.reserved_bytes;
    }
    std::sort(exec_shed.begin(), exec_shed.end());
    rs.shed = exec_shed.size();
    rs.exec_shed_set_hash = shed_set_fingerprint(exec_shed);
    exec_shed_all.insert(exec_shed_all.end(), exec_shed.begin(),
                         exec_shed.end());
  }
  srep.queue.mean_depth =
      srep.queue.pushes == 0
          ? 0.0
          : depth_weighted / static_cast<double>(srep.queue.pushes);
  srep.mean_batch = batches == 0 ? 0.0
                                 : static_cast<double>(srep.completed) /
                                       static_cast<double>(batches);
  srep.mean_exec_batch = srep.exec_calls == 0
                             ? 0.0
                             : static_cast<double>(srep.completed) /
                                   static_cast<double>(srep.exec_calls);
  srep.throughput_rps = srep.wall_s > 0.0
                            ? static_cast<double>(srep.completed) / srep.wall_s
                            : 0.0;

  std::sort(exec_shed_all.begin(), exec_shed_all.end());
  const PlanCounters& c = rp.counters;
  s.enabled = cfg.slo.enabled;
  s.admitted = num_requests - c.rejected;
  s.served = c.served;
  s.served_primary = c.served_primary;
  s.served_canary = c.served_canary;
  s.degraded_ladder = c.degraded_ladder;
  s.degraded_breaker = c.degraded_breaker;
  s.degraded_fallback = c.degraded_fallback;
  s.shed_expired = c.shed_expired;
  s.shed_overload = c.shed_overload;
  s.rejected_capacity = c.rejected;
  s.evicted = c.evicted;
  s.retried_requests = c.retried_requests;
  s.faults_injected = c.faults_injected;
  s.late_virtual = c.late;
  s.breaker_opens = c.breaker_opens;
  s.ladder_transitions = c.ladder_transitions;
  s.final_ladder_level = c.final_ladder_level;
  s.max_ladder_level = c.max_ladder_level;
  s.max_virtual_depth = c.max_virtual_depth;
  s.deadline_us = cfg.slo.deadline_us;
  s.shed_set_hash = rp.shed_set_hash;
  s.virtual_latency = rp.virtual_latency;
  s.virtual_by_priority = rp.virtual_by_priority;
  s.exec_delivered = srep.completed;
  s.exec_shed = exec_shed_all.size();
  s.exec_shed_set_hash = shed_set_fingerprint(exec_shed_all);
  for (std::size_t k = 0; k < kNumPriorities; ++k)
    s.real_by_priority[k] = LatencyStats::compute(std::move(by_pri[k]));

  if (rp.swap.enabled) {
    SwapSummary& sw = srep.swap;
    sw.enabled = true;
    sw.rolled_back = rp.swap.rolled_back;
    sw.from_version = rp.swap.from_version;
    sw.to_version = rp.swap.to_version;
    sw.canary_replica = rp.swap.canary_replica;
    sw.start_us = rp.swap.start_us;
    sw.verdict_us = rp.swap.verdict_us;
    sw.canary_served = rp.swap.canary_served;
    sw.canary_faults = rp.swap.canary_faults;
    sw.breaker_opens = rp.swap.breaker_opens;
    sw.latency_breach = rp.swap.latency_breach;
    sw.cutovers = rp.swap.cutovers.size();
    sw.version_hash = rp.swap.version_hash;
    // Payload provenance: the pinned version per request id, and how many
    // deliveries each version produced.
    srep.versions = rp.swap.version_of;
    for (std::size_t i = 0; i < num_requests; ++i) {
      if (!rp.decisions[i].served()) continue;
      const std::uint32_t v = rp.swap.version_of[i];
      auto it = std::find_if(
          sw.served_by_version.begin(), sw.served_by_version.end(),
          [v](const std::pair<std::uint32_t, std::size_t>& e) {
            return e.first == v;
          });
      if (it == sw.served_by_version.end())
        sw.served_by_version.emplace_back(v, 1);
      else
        ++it->second;
    }
    std::sort(sw.served_by_version.begin(), sw.served_by_version.end());
  }
  return rep;
}

}  // namespace gbo::serve
