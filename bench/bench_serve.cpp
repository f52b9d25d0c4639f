// Online-serving benchmark: drives the serve/ runtime (seeded traffic ->
// request queue -> dynamic micro-batcher -> worker pool) against both
// execution backends and writes four JSON documents: BENCH_serve.json
// (single-server scenarios), BENCH_serve_slo.json (SLO control plane),
// BENCH_serve_router.json (sharded multi-replica fleet) and
// BENCH_serve_swap.json (weight hot-swap).
//
// Every scenario reports its latency, queue, batching, arena and cache
// numbers plus two maps — the one gate schema tools/check_bench_gates.py
// walks:
//   * gates: {name: bool} — the scenario's hard contracts (bitwise payloads
//     at 1 vs N workers and across batching boundaries, zero steady-state
//     arena growth and weight packs, plan == execution, the DESIGN.md §9
//     trace contract, ...), each recorded by one Gates::check call;
//   * fingerprints: {name: hex} — payload, causal-trace, shed-set, routing,
//     provenance and verdict hashes, which the checker demands equal for the
//     same scenario across every artifact (the 1-thread and 4-thread pools
//     replay the identical (seed, trace, policy) tuple).
// Each document's gates_ok is the AND of its own scenarios' gates; any gate
// failure exits nonzero, so CI can sit on `bench_serve --smoke`.
//
// Timing caveat: latency numbers are only meaningful when the thread pool
// can run the trace producer and at least one worker concurrently
// (GBO_NUM_THREADS >= 2). At 1 thread the runtime degenerates to
// replay-then-drain — payloads identical, latencies inflated by design.
#include "common/cli.hpp"
#include "common/json.hpp"
#include "common/logging.hpp"
#include "common/thread_pool.hpp"
#include "crossbar/crossbar_layers.hpp"
#include "crossbar/hw_deploy.hpp"
#include "crossbar/mapper.hpp"
#include "crossbar/mvm_engine.hpp"
#include "models/mlp.hpp"
#include "models/vgg9.hpp"
#include "obs/export.hpp"
#include "obs/trace.hpp"
#include "quant/binary_weight.hpp"
#include "serve/policy.hpp"
#include "serve/router.hpp"
#include "serve/server.hpp"
#include "tensor/gemm.hpp"
#include "tensor/gemm_binary.hpp"
#include "tensor/ops.hpp"

#include <cstdio>
#include <string>

namespace {

using namespace gbo;

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

bool bitwise_equal(const Tensor& a, const Tensor& b) {
  if (a.shape() != b.shape()) return false;
  for (std::size_t i = 0; i < a.numel(); ++i)
    if (a[i] != b[i]) return false;
  return true;
}

/// FNV-1a 64 over raw bytes, continuing from `h`.
std::uint64_t fnv1a(const void* p, std::size_t n,
                    std::uint64_t h = 0xcbf29ce484222325ull) {
  const auto* b = static_cast<const unsigned char*>(p);
  for (std::size_t i = 0; i < n; ++i) {
    h ^= b[i];
    h *= 0x100000001b3ull;
  }
  return h;
}

/// Payload fingerprint: FNV-1a over the output's shape and float bytes.
std::uint64_t payload_hash(const Tensor& t) {
  const std::vector<std::size_t>& shape = t.shape();
  return fnv1a(t.data(), t.numel() * sizeof(float),
               fnv1a(shape.data(), shape.size() * sizeof(std::size_t)));
}

/// One scenario's gate ledger. check() records a named verdict in the
/// scenario's "gates" map (and reports a failure); fingerprint() records a
/// hash in its "fingerprints" map.
class Gates {
 public:
  explicit Gates(std::string scenario) : name_(std::move(scenario)) {}

  bool check(const char* gate, bool cond, const char* msg) {
    gates_.set(gate, cond);
    if (!cond) {
      std::fprintf(stderr, "serve GATE FAILURE [%s]: %s\n", name_.c_str(),
                   msg);
      ok_ = false;
    }
    return cond;
  }
  void fingerprint(const std::string& key, std::uint64_t h) {
    fingerprints_.set(key, serve::hex64(h));
  }

  const std::string& name() const { return name_; }
  bool ok() const { return ok_; }
  const char* status() const { return ok_ ? "OK" : "GATE-FAIL"; }

  /// `scenario` with the two maps attached.
  Json attach(Json scenario) const {
    scenario.set("gates", gates_);
    scenario.set("fingerprints", fingerprints_);
    return scenario;
  }

 private:
  std::string name_;
  bool ok_ = true;
  Json gates_ = Json::object();
  Json fingerprints_ = Json::object();
};

/// One output document: the shared header, its scenarios, and gates_ok —
/// the AND of exactly the gates its own scenarios recorded.
class Report {
 public:
  Report(const char* bench, bool smoke, std::size_t workers) {
    doc_.set("bench", bench);
    doc_.set("smoke", smoke);
    doc_.set("num_threads", ThreadPool::instance().num_threads());
    doc_.set("workers", workers);
    doc_.set("binary_kernel", gemm::binary_kernel_name());
    doc_.set("cpu_features", gemm::cpu_features());
    doc_.set("trace_enabled", obs::runtime_enabled());
  }

  Json& doc() { return doc_; }
  bool ok() const { return ok_; }

  void add(const Gates& g, Json scenario) {
    ok_ = ok_ && g.ok();
    doc_.set(g.name(), g.attach(std::move(scenario)));
  }

  bool write(const std::string& path) {
    doc_.set("gates_ok", ok_);
    if (!doc_.write_file(path)) {
      std::fprintf(stderr, "failed to write %s\n", path.c_str());
      return false;
    }
    std::printf("wrote %s\n", path.c_str());
    return true;
  }

 private:
  Json doc_ = Json::object();
  bool ok_ = true;
};

/// The 24-32-32-10 binary MLP behind every pulse, SLO, router and swap
/// scenario: two hidden layers, so fc2 is crossbar-encoded and the pulse
/// path actually streams per-request read/output noise through an engine.
models::Mlp pulse_mlp(std::uint64_t seed) {
  models::MlpConfig cfg;
  cfg.in_features = 24;
  cfg.hidden = {32, 32};
  cfg.num_classes = 10;
  cfg.seed = seed;
  models::Mlp m = models::build_mlp(cfg);
  m.net->set_training(false);
  return m;
}

/// The noisy device every deployed-hardware scenario programs.
xbar::HwDeployConfig noisy_hw(std::size_t shard_cols) {
  xbar::HwDeployConfig h;
  h.sigma = 0.5;
  h.device.read_noise_sigma = 0.05;
  h.device.adc_bits = 8;
  h.device.program_variation = 0.05;
  h.shard_cols = shard_cols;
  return h;
}

/// The flash-crowd trace shared by the SLO, router and swap scenarios. It
/// is fixed by --smoke alone (independent of --requests/--rate), so the 1t
/// and 4t artifacts describe the identical (seed, trace, policy) tuple and
/// the checker can demand equal fingerprints across them.
serve::TrafficConfig flash_traffic(bool smoke, double rate_rps) {
  serve::TrafficConfig t;
  t.num_requests = smoke ? 320 : 1200;
  t.rate_rps = rate_rps;
  t.shape = serve::TraceShape::kFlashCrowd;
  t.flash_factor = 14.0;
  t.flash_start_s = smoke ? 0.05 : 0.2;
  t.flash_ramp_s = 0.005;
  t.flash_hold_s = smoke ? 0.02 : 0.05;
  t.high_fraction = 0.2;
  t.low_fraction = 0.3;
  t.seed = 101;
  return t;
}

Json flash_traffic_json(const serve::TrafficConfig& t) {
  Json j = Json::object();
  j.set("requests", t.num_requests);
  j.set("rate_rps", t.rate_rps);
  j.set("flash_factor", t.flash_factor);
  j.set("shape", "flash_crowd");
  return j;
}

/// The SLO control plane shared by the flash-crowd scenarios (DESIGN.md
/// §7): 15 ms deadline, bounded drop-oldest queue, fidelity ladder.
serve::ServeConfig flash_slo_config(const serve::BatchPolicy& policy) {
  serve::ServeConfig c;
  c.batch = policy;
  c.seed = 29;
  c.slo.enabled = true;
  c.slo.deadline_us = 15000;
  // Headroom covers the worst batch cost (50 + 8 * (800 + 100) = 7250),
  // so pop-time shedding guarantees zero late completions.
  c.slo.completion_headroom_us = 9000;
  c.slo.queue.capacity = 64;
  c.slo.queue.on_full = serve::QueuePolicy::OnFull::kDropOldest;
  c.slo.cost.batch_fixed_us = 50;
  c.slo.cost.primary_us = 800;
  c.slo.cost.degraded_us = 100;
  c.slo.ladder.degrade_depth = 8;
  c.slo.ladder.shed_depth = 30;
  c.slo.ladder.recover_depth = 2;
  c.slo.ladder.shed_floor = serve::Priority::kNormal;
  return c;
}

/// Folds the 1-worker and measured N-worker trace snapshots into the
/// scenario's "trace" section and records the DESIGN.md §9 gates: no ring
/// overflow, no steady-state ring allocations, and a causal fingerprint
/// identical across worker counts AND equal to the planner-derived oracle.
/// The fingerprint itself goes into the ledger, so the checker also demands
/// it equal across artifacts. Timing fields stay out of the fingerprint, so
/// every gated quantity is machine-independent. With tracing compiled out
/// (GBO_TRACE=0) or env-disabled no trace gate is recorded, and the
/// checker, which requires them, rejects the artifact.
Json trace_section(Gates& g, const obs::TraceSnapshot& snap1,
                   const obs::TraceSnapshot& snapN,
                   const serve::RouterPlan& plan,
                   std::uint64_t steady_ring_allocs,
                   const std::string& trace_out) {
  Json tr = obs::trace_summary(snapN);
  const bool enabled = obs::runtime_enabled();
  tr.set("enabled", enabled);
  if (!enabled) return tr;

  const std::uint64_t expected = serve::expected_causal_fingerprint(plan);
  const std::uint64_t fp1 = obs::causal_fingerprint(snap1.events);
  const std::uint64_t fpN = obs::causal_fingerprint(snapN.events);
  tr.set("causal_fingerprint_1w", serve::hex64(fp1));
  tr.set("expected_causal_fingerprint", serve::hex64(expected));
  tr.set("expected_causal_events", serve::expected_causal_event_count(plan));
  tr.set("steady_ring_allocs", steady_ring_allocs);
  g.fingerprint("causal", fpN);
  g.check("causal_match_1_vs_n", fp1 == fpN,
          "causal fingerprint differs between 1 and N workers");
  g.check("causal_matches_oracle", fpN == expected,
          "causal fingerprint diverged from the plan oracle");
  g.check("no_drops", snap1.dropped == 0 && snapN.dropped == 0,
          "trace ring overflowed (events dropped)");
  g.check("zero_steady_ring_allocs", steady_ring_allocs == 0,
          "tracing allocated ring memory during the measured run");

  if (!trace_out.empty()) {
    const std::string path = trace_out + g.name() + ".json";
    if (obs::write_chrome_trace(snapN, path, "bench_serve " + g.name()))
      std::printf("  [%s] wrote %s\n", g.name().c_str(), path.c_str());
    else
      std::fprintf(stderr, "  [%s] failed to write %s\n", g.name().c_str(),
                   path.c_str());
  }
  return tr;
}

/// Runs one backend through the full ladder: 1 worker, N workers (the
/// measured configuration, warmed then replayed for steady-state stats,
/// with the frozen-weight cache counters diffed around the steady run),
/// and a unit-batch server to pin the batching-boundary invariance.
/// `stochastic` scenarios additionally gate that execution fused instead
/// of degenerating to unit batches.
void run_scenario(Report* out, const char* name, const serve::Backend& backend,
                  const data::Dataset& ds,
                  const std::vector<serve::Arrival>& trace,
                  std::size_t workers, const serve::BatchPolicy& policy,
                  std::uint64_t seed, bool stochastic,
                  const std::string& trace_out) {
  Gates g(name);
  serve::ServeConfig cfg;
  cfg.batch = policy;
  cfg.seed = seed;

  cfg.num_workers = 1;
  serve::InferenceServer one(
      serve::ServerSpec{}.primary(backend).dataset(ds).config(cfg));
  const serve::RouterPlan plan = one.plan_trace(trace);
  obs::begin_session();
  const serve::ServeReport rep1 = one.run(trace);
  const obs::TraceSnapshot snap1 = obs::end_session();

  cfg.num_workers = workers;
  serve::InferenceServer many(
      serve::ServerSpec{}.primary(backend).dataset(ds).config(cfg));
  many.warmup();
  (void)many.run(trace);  // warm run: sizes arenas/pools along real paths
  const std::uint64_t packs0 = gemm::b_pack_count();
  const std::uint64_t bins0 = quant::binarize_count();
  const std::uint64_t bpacks0 = gemm::binary_pack_count();
  const std::uint64_t bmvms0 = gemm::binary_mvm_count();
  // The warm run also minted every worker's trace ring; the measured run
  // must not allocate any (the zero_steady_ring_allocs gate).
  obs::begin_session();
  const std::uint64_t rings0 = obs::ring_allocs();
  const serve::ServeReport rep = many.run(trace);
  const obs::TraceSnapshot snapN = obs::end_session();
  const std::uint64_t steady_rings = obs::ring_allocs() - rings0;
  const std::uint64_t steady_packs = gemm::b_pack_count() - packs0;
  const std::uint64_t steady_bins = quant::binarize_count() - bins0;
  const std::uint64_t steady_bpacks = gemm::binary_pack_count() - bpacks0;
  const std::uint64_t binary_mvms = gemm::binary_mvm_count() - bmvms0;

  g.fingerprint("payload", payload_hash(rep.outputs));
  g.check("bitwise_1_vs_n_workers", bitwise_equal(rep1.outputs, rep.outputs),
          "outputs differ between 1 and N workers");
  g.check("arena_steady_state", rep.arena.steady_allocs == 0,
          "arena grew during the steady-state run");
  // Zero-pack steady state (DESIGN.md §6): with the version-stamped panel
  // and binarize caches warm, a steady-state run must touch neither.
  g.check("zero_steady_packs", steady_packs == 0 && steady_bins == 0,
          "steady-state run packed or binarized weights");
  // Same amortization contract for the binary sign words (DESIGN.md §8):
  // A-side encodes are per-request by design, but the cached weight words
  // must never be rebuilt in steady state.
  g.check("zero_steady_binary_packs", steady_bpacks == 0,
          "steady-state run re-packed binary sign words");
  // Stochastic configs must fuse their micro-batches (a regression to unit
  // batches would forfeit the whole batching win). Queue batch sizes are
  // timing-dependent, so the gate compares execution to the queue instead
  // of to the wall clock: whatever batches the micro-batcher formed must
  // have executed as single fused calls (mean_exec_batch keeps up with
  // mean_batch). A runner so fast that every queue batch is a unit batch
  // cannot fail this spuriously.
  if (stochastic)
    g.check("noisy_fused", rep.mean_exec_batch + 1e-9 >= rep.mean_batch,
            "stochastic scenario did not fuse micro-batches");

  // Batching-boundary invariance is part of the contract, clean (kernel
  // row-independence) and noisy (noise keyed by request id) alike — replay
  // with unit batches and demand identical payloads.
  serve::ServeConfig unit = cfg;
  unit.batch.max_batch = 1;
  serve::InferenceServer us(
      serve::ServerSpec{}.primary(backend).dataset(ds).config(unit));
  g.check("batching_invariant", bitwise_equal(us.run(trace).outputs,
                                              rep.outputs),
          "outputs depend on the batching boundary");

  Json j = rep.to_json();
  j.set("backend", backend.name());
  j.set("steady_weight_packs", steady_packs);
  j.set("steady_binarizes", steady_bins);
  j.set("steady_binary_packs", steady_bpacks);
  j.set("binary_mvms", binary_mvms);
  j.set("packs_per_request",
        rep.completed ? static_cast<double>(steady_packs) /
                            static_cast<double>(rep.completed)
                      : 0.0);
  // SLO-off runs execute the always-serve ledger: every request routed,
  // admitted and delivered exactly once, reconstructed from the plan.
  j.set("trace", trace_section(g, snap1, snapN, plan, steady_rings,
                               trace_out));

  std::printf(
      "  [%s] %zu req, %zu workers: p50=%.0fus p95=%.0fus p99=%.0fus "
      "tput=%.0f rps exec_batch=%.2f steady_allocs=%zu "
      "steady_packs=%zu %s\n",
      name, rep.completed, workers, rep.latency.p50_us, rep.latency.p95_us,
      rep.latency.p99_us, rep.throughput_rps, rep.mean_exec_batch,
      rep.arena.steady_allocs,
      static_cast<std::size_t>(steady_packs), g.status());
  out->add(g, std::move(j));
}

/// SLO control-plane scenario (DESIGN.md §7): a flash-crowd overload with
/// deterministic fault injection, served with the pulse backend as primary
/// and the analytic model as the fidelity-ladder fallback, at 1 worker and
/// at `workers` workers. All gated quantities live on the virtual clock or
/// are bitwise payload comparisons — machine-independent by construction.
void run_overload_scenario(Report* out, const serve::Backend& primary,
                           const serve::Backend& degraded,
                           const data::Dataset& ds,
                           const std::vector<serve::Arrival>& trace,
                           std::size_t workers,
                           const serve::ServeConfig& base,
                           const std::string& trace_out) {
  Gates g("slo_flash");
  serve::ServeConfig cfg = base;
  cfg.num_workers = 1;
  serve::InferenceServer one(serve::ServerSpec{}
                                 .primary(primary)
                                 .degraded(degraded)
                                 .dataset(ds)
                                 .config(cfg));
  const serve::RouterPlan plan = one.plan_trace(trace);
  obs::begin_session();
  const serve::ServeReport rep1 = one.run(trace);
  const obs::TraceSnapshot snap1 = obs::end_session();
  cfg.num_workers = workers;
  serve::InferenceServer many(serve::ServerSpec{}
                                  .primary(primary)
                                  .degraded(degraded)
                                  .dataset(ds)
                                  .config(cfg));
  (void)many.run(trace);  // warm run: mints arenas + every worker trace ring
  obs::begin_session();
  const std::uint64_t rings0 = obs::ring_allocs();
  const serve::ServeReport rep = many.run(trace);
  const obs::TraceSnapshot snapN = obs::end_session();
  const std::uint64_t steady_rings = obs::ring_allocs() - rings0;

  const serve::PlanCounters& c = plan.counters;
  const serve::SloSummary& s = rep.slo;
  g.fingerprint("payload", payload_hash(rep.outputs));
  g.fingerprint("shed_set", s.exec_shed_set_hash);
  g.check("slo_payload_match", bitwise_equal(rep1.outputs, rep.outputs),
          "payloads differ between 1 and N workers");
  g.check("shed_set_deterministic",
          rep1.slo.exec_shed_set_hash == plan.shed_set_hash &&
              s.exec_shed_set_hash == plan.shed_set_hash,
          "runtime shed set diverged from the plan");
  g.check("zero_late_success", s.late_virtual == 0,
          "a served request missed its deadline");
  g.check("p99_bounded",
          s.virtual_latency.p99_us > 0.0 &&
              s.virtual_latency.p99_us <=
                  static_cast<double>(base.slo.deadline_us),
          "served virtual p99 exceeds the deadline");
  g.check("no_lost_requests",
          rep1.completed == c.served && rep.completed == c.served,
          "a planned-served request was not delivered");
  g.check("ladder_recovered", s.final_ladder_level == 0,
          "ladder did not recover after the burst");
  g.check("overload_exercised",
          s.exec_shed > 0 && s.degraded_ladder > 0 && s.max_ladder_level >= 2,
          "flash crowd did not exercise the overload path");
  g.check("faults_retried",
          s.exec_retried > 0 && s.exec_fallbacks > 0 && s.breaker_opens >= 1 &&
              s.exec_retried == c.retried_requests &&
              s.exec_faults == c.faults_injected,
          "fault injection / retry accounting diverged");

  Json j = rep.to_json();
  j.set("backend", primary.name() + "+" + degraded.name());
  // SLO oracle: the full causal stream (routing, admission verdicts, sheds,
  // retries, deliveries with virtual completion times, ladder/breaker
  // transitions) reconstructed from the plan alone.
  j.set("trace", trace_section(g, snap1, snapN, plan, steady_rings,
                               trace_out));

  std::printf(
      "  [%s] %zu req: served=%zu shed=%zu (expired=%zu overload=%zu "
      "rejected=%zu evicted=%zu) degraded=%zu retried=%zu fallback=%zu "
      "breaker_opens=%zu vp99=%.0fus late=%zu ladder_max=%d->%d %s\n",
      g.name().c_str(), rep.requests, s.served, s.exec_shed, s.shed_expired,
      s.shed_overload, s.rejected_capacity, s.evicted, s.exec_degraded,
      s.exec_retried, s.exec_fallbacks, s.breaker_opens,
      s.virtual_latency.p99_us, s.late_virtual, s.max_ladder_level,
      s.final_ladder_level, g.status());
  out->add(g, std::move(j));
}

/// Column-sharded crossbar gate (DESIGN.md §10): the mapper-defined shard
/// sweep of one programmed array must be bitwise identical to the unsharded
/// sweep — at the engine level (noisy pulse path, where the global-
/// coordinate noise indexing carries the proof) and at the deployed-network
/// level (HwDeployConfig::shard_cols threaded through every engine).
void run_sharded_section(Report* out) {
  Gates g("sharded_mvm");

  // Engine level: a +/-0.5 binary weight, noisy pulse config, identical
  // seeds; only shard_cols differs between the two engines.
  Tensor w = random_tensor({40, 24}, 61);
  for (std::size_t i = 0; i < w.numel(); ++i)
    w.data()[i] = w.data()[i] >= 0.0f ? 0.5f : -0.5f;
  xbar::MvmConfig mcfg;
  mcfg.spec = enc::EncodingSpec{enc::Scheme::kThermometer, 8};
  mcfg.sigma = 0.5;
  mcfg.device.read_noise_sigma = 0.05;
  mcfg.device.adc_bits = 8;
  mcfg.device.program_variation = 0.05;
  xbar::MvmEngine plain(w, mcfg, Rng(77));
  xbar::MvmConfig shard_cfg = mcfg;
  shard_cfg.shard_cols = 16;
  xbar::MvmEngine sharded(w, shard_cfg, Rng(77));
  const Tensor x = random_tensor({6, 24}, 63);
  Rng r1(5), r2(5);
  const bool engine_match =
      g.check("engine_bitwise_sharded_vs_unsharded",
              bitwise_equal(plain.run_pulse_level(x, r1),
                            sharded.run_pulse_level(x, r2)),
              "sharded engine sweep is not bitwise unsharded");
  xbar::TileShape tile;
  tile.cols = shard_cfg.shard_cols;
  const std::size_t num_shards = xbar::column_shards(w.dim(0), tile).size();

  // Deployed-network level: two HardwareNetworks programmed from the same
  // seed, one sharded, one not; same EvalContext seed per forward.
  models::Mlp net_a = pulse_mlp(21);
  models::Mlp net_b = pulse_mlp(21);
  xbar::HardwareNetwork hw_plain(*net_a.net, net_a.encoded, noisy_hw(0));
  xbar::HardwareNetwork hw_sharded(*net_b.net, net_b.encoded, noisy_hw(16));
  const Tensor batch = random_tensor({8, 24}, 65);
  nn::EvalContext ctx_a(Rng(9)), ctx_b(Rng(9));
  const Tensor y_sharded = hw_sharded.forward(batch, ctx_b);
  g.fingerprint("payload", payload_hash(y_sharded));
  const bool network_match =
      g.check("network_bitwise_sharded_vs_unsharded",
              bitwise_equal(hw_plain.forward(batch, ctx_a), y_sharded),
              "sharded deployed network is not bitwise unsharded");

  std::printf("  [%s] shards=%zu engine_bitwise=%s network_bitwise=%s %s\n",
              g.name().c_str(), num_shards, engine_match ? "yes" : "no",
              network_match ? "yes" : "no", g.status());
  Json j = Json::object();
  j.set("shard_cols", shard_cfg.shard_cols);
  j.set("num_shards", num_shards);
  out->add(g, std::move(j));
}

/// Multi-replica router scenario (DESIGN.md §10): N replicas of a sharded
/// pulse backend behind the deterministic router, flash-crowd overload, one
/// replica down for the whole run, at 1 worker/replica and at --workers
/// workers/replica.
void run_router_scenario(Report* out, const serve::Backend& primary,
                         const serve::Backend& degraded,
                         const data::Dataset& ds,
                         const std::vector<serve::Arrival>& trace,
                         std::size_t workers, const serve::ServeConfig& base,
                         const serve::RouterPolicy& router,
                         std::size_t replicas, const std::string& trace_out) {
  Gates g("router_flash");
  const serve::RouterPlan plan =
      serve::route_plan(trace, base.slo, base.batch, router, replicas);

  serve::ServeConfig cfg = base;
  const auto spec = [&] {
    return serve::ServerSpec{}
        .primary(primary)
        .degraded(degraded)
        .dataset(ds)
        .config(cfg)
        .replicas(replicas)
        .router(router);
  };
  cfg.num_workers = 1;
  serve::ReplicaGroup one(spec());
  obs::begin_session();
  const serve::RouterReport rep1 = one.run(trace);
  const obs::TraceSnapshot snap1 = obs::end_session();

  cfg.num_workers = workers;
  serve::ReplicaGroup many(spec());
  (void)many.run(trace);  // warm run: mints every replica's arenas + rings
  obs::begin_session();
  const std::uint64_t rings0 = obs::ring_allocs();
  const serve::RouterReport rep = many.run(trace);
  const obs::TraceSnapshot snapN = obs::end_session();
  const std::uint64_t steady_rings = obs::ring_allocs() - rings0;

  g.fingerprint("payload", payload_hash(rep.serve.outputs));
  g.fingerprint("routing", rep.routing_hash);
  g.fingerprint("shed_set", rep.serve.slo.exec_shed_set_hash);
  bool replica_sheds = true, replica_steady = true;
  std::size_t n_alive = 0, down_assigned = 0, downed = 0;
  for (std::size_t r = 0; r < replicas; ++r) {
    const serve::ReplicaStats& a = rep1.replicas[r];
    const serve::ReplicaStats& b = rep.replicas[r];
    g.fingerprint("replica" + std::to_string(r) + "_shed_set",
                  b.exec_shed_set_hash);
    replica_sheds = replica_sheds &&
                    a.exec_shed_set_hash == a.plan_shed_set_hash &&
                    b.exec_shed_set_hash == b.plan_shed_set_hash;
    replica_steady = replica_steady && b.steady_allocs == 0;
    if (plan.alive[r]) {
      ++n_alive;
    } else {
      ++downed;
      down_assigned += b.assigned;
    }
  }
  g.check("router_payload_match",
          bitwise_equal(rep1.serve.outputs, rep.serve.outputs),
          "payloads differ between 1 and N workers per replica");
  g.check("routing_deterministic",
          rep1.routing_hash == plan.routing_hash &&
              rep.routing_hash == plan.routing_hash,
          "runtime routing hash diverged from the plan");
  g.check("replica_sheds_match", replica_sheds,
          "a replica's shed set diverged from its sub-plan");
  g.check("replica_zero_allocs", replica_steady,
          "a replica arena grew during the measured run");
  g.check("fleet_shed_match",
          rep1.serve.slo.exec_shed_set_hash == plan.shed_set_hash &&
              rep.serve.slo.exec_shed_set_hash == plan.shed_set_hash,
          "fleet shed-set union diverged from the plan");
  g.check("no_lost_requests",
          rep1.serve.completed == plan.counters.served &&
              rep.serve.completed == plan.counters.served,
          "a planned-served request was not delivered");
  g.check("outage_rerouted",
          downed > 0 && down_assigned == 0 &&
              plan.active_replicas < plan.total_replicas,
          "the outage did not reroute around the downed replica");
  g.check("autoscale_bounded",
          plan.active_replicas >= router.min_replicas &&
              plan.active_replicas <= n_alive,
          "autoscaler activated an out-of-bounds replica count");
  g.check("overload_exercised", rep.serve.slo.exec_shed > 0,
          "flash crowd did not shed any work fleet-wide");

  Json j = rep.to_json();
  j.set("backend", primary.name() + "+" + degraded.name());
  j.set("plan_routing_hash", serve::hex64(plan.routing_hash));
  j.set("plan_shed_set_hash", serve::hex64(plan.shed_set_hash));
  // Fleet causal oracle: kRoute per request + per-replica ledgers with
  // replica-major renumbered transitions, reconstructed from the plan.
  j.set("trace", trace_section(g, snap1, snapN, plan, steady_rings,
                               trace_out));

  std::printf(
      "  [%s] %zu req, %zu replicas (%zu alive, %zu active), %zu "
      "workers/replica: served=%zu shed=%zu routing=%s vp99=%.0fus %s\n",
      g.name().c_str(), rep.serve.requests, plan.total_replicas, n_alive,
      plan.active_replicas, workers, rep.serve.slo.served,
      rep.serve.slo.exec_shed, serve::hex64(rep.routing_hash).c_str(),
      rep.serve.slo.virtual_latency.p99_us, g.status());
  out->add(g, std::move(j));
}

/// One leg of the hot-swap scenario (DESIGN.md §11): a canary rollout under
/// the flash crowd, run at 1 worker and `workers` workers per replica with
/// the full trace ladder, then compared row-for-row against the two pinned
/// single-version reference runs. `expect_rollback` selects the verdict the
/// leg must reach: promote fleet-wide, or roll back through the breaker.
void run_swap_leg(Report* out, const char* name, const char* backend_label,
                  serve::ServerSpec spec,
                  const std::vector<serve::Arrival>& trace,
                  std::size_t workers, serve::ServeConfig cfg,
                  const serve::ServeReport& pin_from,
                  const serve::ServeReport& pin_to, bool expect_rollback,
                  const std::string& trace_out) {
  Gates g(name);
  cfg.num_workers = 1;
  serve::ReplicaGroup one(spec.config(cfg));
  const serve::RouterPlan plan = one.plan_trace(trace);
  obs::begin_session();
  const serve::RouterReport rep1 = one.run(trace);
  const obs::TraceSnapshot snap1 = obs::end_session();

  cfg.num_workers = workers;
  serve::ReplicaGroup many(spec.config(cfg));
  (void)many.run(trace);  // warm run: arenas + rings + every pinned backend
  const std::uint64_t packs0 = gemm::b_pack_count();
  const std::uint64_t bins0 = quant::binarize_count();
  const std::uint64_t bpacks0 = gemm::binary_pack_count();
  obs::begin_session();
  const std::uint64_t rings0 = obs::ring_allocs();
  const serve::RouterReport rep = many.run(trace);
  const obs::TraceSnapshot snapN = obs::end_session();
  const std::uint64_t steady_rings = obs::ring_allocs() - rings0;
  const std::uint64_t steady_packs = gemm::b_pack_count() - packs0;
  const std::uint64_t steady_bins = quant::binarize_count() - bins0;
  const std::uint64_t steady_bpacks = gemm::binary_pack_count() - bpacks0;

  const serve::SwapSummary& sw = rep.serve.swap;
  const std::uint64_t verdict[] = {sw.rolled_back, sw.verdict_us,
                                   sw.cutovers};
  g.fingerprint("payload", payload_hash(rep.serve.outputs));
  g.fingerprint("provenance", sw.version_hash);
  g.fingerprint("shed_set", rep.serve.slo.exec_shed_set_hash);
  g.fingerprint("verdict", fnv1a(verdict, sizeof verdict));
  g.check("swap_payload_match",
          bitwise_equal(rep1.serve.outputs, rep.serve.outputs) &&
              rep1.serve.versions == rep.serve.versions &&
              rep1.serve.swap.version_hash == sw.version_hash,
          "payloads or provenance differ between 1 and N workers");
  g.check("provenance_matches_plan",
          sw.enabled && sw.version_hash == plan.swap.version_hash,
          "runtime provenance hash diverged from the plan");

  // The overlay is version-blind: the swap must not change who was shed.
  g.check("zero_dropped_by_swap",
          rep.serve.slo.exec_shed_set_hash == plan.shed_set_hash &&
              rep.serve.slo.exec_shed_set_hash ==
                  pin_from.slo.exec_shed_set_hash,
          "the swap changed the shed set (dropped live traffic)");

  // Zero mixed-version payloads: row-for-row attribution to the pinned runs.
  bool provenance_exact = rep.serve.versions == plan.swap.version_of;
  std::size_t to_rows = 0;
  const std::size_t out_dim = rep.serve.outputs.shape()[1];
  for (std::size_t i = 0; i < trace.size() && provenance_exact; ++i) {
    const bool is_to = plan.swap.version_of[i] == plan.swap.to_version;
    const Tensor& want = is_to ? pin_to.outputs : pin_from.outputs;
    for (std::size_t j = 0; j < out_dim; ++j)
      provenance_exact =
          provenance_exact && rep.serve.outputs.at(i, j) == want.at(i, j);
    if (is_to && plan.decisions[i].served() &&
        (plan.decisions[i].mode == serve::ServeMode::kPrimary ||
         plan.decisions[i].mode == serve::ServeMode::kCanary))
      ++to_rows;
  }
  g.check("provenance_exact", provenance_exact,
          "a payload row does not match its pinned version");

  if (expect_rollback) {
    // The breaker must have opened, cut the canary back, and pinned every
    // post-verdict admission to the incumbent.
    bool rolled_back = sw.rolled_back && sw.breaker_opens >= 1 &&
                       sw.cutovers == 2;
    for (std::size_t i = 0; i < trace.size(); ++i)
      if (trace[i].t_us >= sw.verdict_us)
        rolled_back = rolled_back &&
                      plan.swap.version_of[i] == plan.swap.from_version;
    g.check("verdict_exercised", rolled_back,
            "faulty candidate did not roll back cleanly");
  } else {
    // Promotion must have cut every active replica over and actually moved
    // payloads onto the candidate.
    g.check("verdict_exercised",
            !sw.rolled_back && sw.cutovers == plan.active.size() &&
                sw.canary_faults == 0 && to_rows > 0,
            "clean candidate did not promote fleet-wide");
  }

  bool replica_steady = true;
  for (const auto& r : rep.replicas)
    replica_steady = replica_steady && r.steady_allocs == 0;
  g.check("swap_zero_allocs", replica_steady,
          "a replica arena grew during the swap run");
  // Prepack-before-cutover: the live cutover packs and binarizes nothing.
  g.check("swap_zero_packs",
          steady_packs == 0 && steady_bins == 0 && steady_bpacks == 0,
          "swap run packed or binarized weights in steady state");

  Json j = rep.to_json();
  j.set("backend", std::string(backend_label));
  j.set("plan_shed_set_hash", serve::hex64(plan.shed_set_hash));
  j.set("plan_version_hash", serve::hex64(plan.swap.version_hash));
  j.set("steady_weight_packs", steady_packs);
  j.set("steady_binarizes", steady_bins);
  // The §9 trace gates include the kSwap/kCanary events of the oracle.
  j.set("trace", trace_section(g, snap1, snapN, plan, steady_rings,
                               trace_out));

  std::printf(
      "  [%s] %zu req, %zu workers/replica: %s at %lluus, canary %zu/%zu "
      "faults, %zu cutovers, versions=%s %s\n",
      name, rep.serve.requests, workers,
      sw.rolled_back ? "ROLLBACK" : "promote",
      static_cast<unsigned long long>(sw.verdict_us), sw.canary_faults,
      sw.canary_served, sw.cutovers, serve::hex64(sw.version_hash).c_str(),
      g.status());
  for (const auto& row : serve::version_report_rows(rep.serve))
    std::printf("    v%s: served=%s %s\n", row[0].c_str(), row[1].c_str(),
                row[2].c_str());
  out->add(g, std::move(j));
}

}  // namespace

int main(int argc, char** argv) {
  using namespace gbo;
  CliParser cli("bench_serve",
                "Online micro-batching serving benchmark (BENCH_serve.json).");
  cli.add_flag("smoke", "Shrink the traces so CI finishes in seconds");
  cli.add_option("json", "Output JSON path", "BENCH_serve.json");
  cli.add_option("slo-json", "SLO-scenario output JSON path",
                 "BENCH_serve_slo.json");
  cli.add_option("router-json", "Router-scenario output JSON path",
                 "BENCH_serve_router.json");
  cli.add_option("swap-json", "Hot-swap-scenario output JSON path",
                 "BENCH_serve_swap.json");
  cli.add_option("requests", "Analytic-scenario trace length", "auto");
  cli.add_option("rate", "Mean arrival rate, requests/s", "auto");
  cli.add_option("workers", "Serving worker count", "4");
  cli.add_option("trace-out",
                 "Chrome trace-event JSON path prefix; writes "
                 "<prefix><scenario>.json per scenario (empty disables)",
                 "");
  if (!cli.parse(argc, argv)) return cli.exit_code();
  set_log_level(LogLevel::kWarn);

  const bool smoke = cli.get_bool("smoke");
  const std::string json_path = cli.get_string("json", "BENCH_serve.json");
  const std::string slo_json_path =
      cli.get_string("slo-json", "BENCH_serve_slo.json");
  const std::string router_json_path =
      cli.get_string("router-json", "BENCH_serve_router.json");
  const std::string swap_json_path =
      cli.get_string("swap-json", "BENCH_serve_swap.json");
  const auto workers =
      static_cast<std::size_t>(cli.get_int("workers", 4));
  const auto requests = static_cast<std::size_t>(
      cli.get_int("requests", smoke ? 240 : 2000));
  const double rate = cli.get_double("rate", smoke ? 6000.0 : 10000.0);
  const std::string trace_out = cli.get_string("trace-out", "");

  // The scalar CI leg's log shows which binary micro-kernel was pinned.
  std::printf("bench_serve: %zu requests @ %.0f rps, %zu workers, "
              "%zu pool threads, binary_kernel=%s cpu_features=%s\n",
              requests, rate, workers, ThreadPool::instance().num_threads(),
              gemm::binary_kernel_name(), gemm::cpu_features().c_str());

  Report serve_doc("serve", smoke, workers);

  // -- analytic backends over a binary-weight MLP ---------------------------
  models::MlpConfig mcfg;
  mcfg.in_features = smoke ? 32 : 64;
  mcfg.hidden = smoke ? std::vector<std::size_t>{64, 64}
                      : std::vector<std::size_t>{128, 128, 128};
  mcfg.num_classes = 10;
  models::Mlp model = models::build_mlp(mcfg);
  model.net->set_training(false);
  data::Dataset ds = random_dataset(256, mcfg.in_features, 41);

  serve::TrafficConfig tcfg;
  tcfg.num_requests = requests;
  tcfg.rate_rps = rate;
  tcfg.burst_factor = 3.0;
  tcfg.burst_duty = 0.3;
  tcfg.burst_period_s = 0.01;
  tcfg.seed = 5;
  const auto trace = serve::make_trace(tcfg, ds.size());
  Json tj = Json::object();
  tj.set("requests", requests);
  tj.set("rate_rps", rate);
  tj.set("burst_factor", tcfg.burst_factor);
  tj.set("burst_duty", tcfg.burst_duty);
  serve_doc.doc().set("traffic", tj);

  serve::BatchPolicy policy;
  policy.max_batch = 8;

  {
    serve::AnalyticBackend clean(*model.net, /*stochastic=*/false);
    run_scenario(&serve_doc, "analytic_clean", clean, ds, trace, workers,
                 policy, /*seed=*/17, /*stochastic=*/false, trace_out);
  }
  {
    Rng crng(53);
    xbar::LayerNoiseController ctrl(model.encoded, /*sigma=*/1.0,
                                    model.base_pulses(), crng);
    ctrl.attach();
    ctrl.set_enabled_all(true);
    // Run at a non-base pulse count so every request crosses the PLA
    // re-quantization (now snapped in place): the steady-state arena gate
    // covers the full GBO-optimized serving path, not just the base
    // encoding.
    ctrl.set_specs(std::vector<enc::EncodingSpec>(
        model.encoded.size(),
        enc::EncodingSpec{enc::Scheme::kThermometer,
                          model.base_pulses() - 2}));
    serve::AnalyticBackend noisy(*model.net, /*stochastic=*/true);
    run_scenario(&serve_doc, "analytic_noisy", noisy, ds, trace, workers,
                 policy, /*seed=*/17, /*stochastic=*/true, trace_out);
    ctrl.detach();
  }

  // -- conv serving over a reduced VGG9: the scenario whose per-request
  // weight packing the panel caches amortize to zero (an MLP's weights are
  // below the panel floor; conv layers always stream packed panels) -------
  {
    models::Vgg9Config vcfg;
    vcfg.in_channels = 3;
    vcfg.image_size = 8;
    vcfg.width = 8;
    vcfg.seed = 11;
    models::Vgg9 vgg = models::build_vgg9(vcfg);
    vgg.net->set_training(false);
    data::Dataset vds;
    vds.images = random_tensor(
        {64, vcfg.in_channels, vcfg.image_size, vcfg.image_size}, 47);
    vds.labels.assign(64, 0);

    serve::TrafficConfig vtraffic = tcfg;
    vtraffic.num_requests = smoke ? 96 : 400;
    vtraffic.rate_rps = smoke ? 2000.0 : 4000.0;
    vtraffic.seed = 9;
    const auto vtrace = serve::make_trace(vtraffic, vds.size());

    {
      serve::AnalyticBackend clean(*vgg.net, /*stochastic=*/false);
      run_scenario(&serve_doc, "conv_clean", clean, vds, vtrace, workers,
                   policy, /*seed=*/19, /*stochastic=*/false, trace_out);
    }
    {
      Rng crng(59);
      xbar::LayerNoiseController ctrl(vgg.encoded, /*sigma=*/1.0,
                                      vgg.base_pulses(), crng);
      ctrl.attach();
      ctrl.set_enabled_all(true);
      serve::AnalyticBackend noisy(*vgg.net, /*stochastic=*/true);
      run_scenario(&serve_doc, "conv_noisy", noisy, vds, vtrace, workers,
                   policy, /*seed=*/19, /*stochastic=*/true, trace_out);
      ctrl.detach();
    }
  }

  // -- pulse-level backend over deployed crossbar hardware ------------------
  {
    models::Mlp pulse_model = pulse_mlp(21);
    data::Dataset pds = random_dataset(128, 24, 43);
    xbar::HardwareNetwork hw(*pulse_model.net, pulse_model.encoded,
                             noisy_hw(0));

    serve::TrafficConfig ptraffic = tcfg;
    ptraffic.num_requests = smoke ? 96 : 400;
    ptraffic.rate_rps = smoke ? 2000.0 : 4000.0;
    ptraffic.seed = 7;
    const auto ptrace = serve::make_trace(ptraffic, pds.size());

    serve::PulseBackend pulse(hw);
    run_scenario(&serve_doc, "pulse", pulse, pds, ptrace, workers, policy,
                 /*seed=*/29, /*stochastic=*/true, trace_out);
  }

  // -- SLO control plane under a flash crowd with injected faults ----------
  // (DESIGN.md §7): pulse backend as primary, the analytic model over the
  // same network as the fidelity-ladder fallback.
  Report slo_doc("serve_slo", smoke, workers);
  {
    models::Mlp slo_model = pulse_mlp(21);
    data::Dataset sds = random_dataset(128, 24, 43);
    xbar::HardwareNetwork hw(*slo_model.net, slo_model.encoded, noisy_hw(0));
    serve::PulseBackend primary(hw);
    serve::AnalyticBackend fallback(*slo_model.net, /*stochastic=*/false);

    const serve::TrafficConfig straffic = flash_traffic(smoke, 900.0);
    const auto strace = serve::make_trace(straffic, sds.size());
    slo_doc.doc().set("traffic", flash_traffic_json(straffic));

    serve::ServeConfig scfg = flash_slo_config(policy);
    scfg.slo.retry.max_attempts = 2;
    scfg.slo.retry.backoff_us = 50;
    scfg.slo.breaker.failure_threshold = 3;
    scfg.slo.breaker.cooldown_us = 30000;
    scfg.slo.fault.enabled = true;
    scfg.slo.fault.seed = 555;
    scfg.slo.fault.transient_rate = 0.08;
    scfg.slo.fault.outage_start_id = 30;  // pre-flash: hits the level-0 path
    scfg.slo.fault.outage_len = 12;

    run_overload_scenario(&slo_doc, primary, fallback, sds, strace, workers,
                          scfg, trace_out);
  }

  // -- sharded multi-replica serving behind the deterministic router -------
  // (DESIGN.md §10): the slo_flash model deployed as N sharded-crossbar
  // replicas, flash crowd + one replica in outage.
  Report router_doc("serve_router", smoke, workers);
  run_sharded_section(&router_doc);
  {
    models::Mlp router_model = pulse_mlp(21);
    data::Dataset rds = random_dataset(128, 24, 43);
    // Every replica serves through the column-sharded pulse path: the
    // engines execute mapper-defined shards, the payload gates pin the
    // result to the unsharded bits (run_sharded_section above).
    xbar::HardwareNetwork hw(*router_model.net, router_model.encoded,
                             noisy_hw(16));
    serve::PulseBackend primary(hw);
    serve::AnalyticBackend fallback(*router_model.net, /*stochastic=*/false);

    const serve::TrafficConfig rtraffic = flash_traffic(smoke, 1600.0);
    const auto rtrace = serve::make_trace(rtraffic, rds.size());
    router_doc.doc().set("traffic", flash_traffic_json(rtraffic));

    serve::RouterPolicy router;
    router.strategy = serve::RouterPolicy::Strategy::kHash;
    router.seed = 71;
    router.min_replicas = 1;
    router.scale_depth = 24;  // autoscale off the planned queue depth
    // Replica 1 is down for the whole run (fault id == replica index).
    router.fault.enabled = true;
    router.fault.outage_start_id = 1;
    router.fault.outage_len = 1;

    router_doc.doc().set("replicas", std::size_t{3});
    router_doc.doc().set("strategy", "hash");
    run_router_scenario(&router_doc, primary, fallback, rds, rtrace, workers,
                        flash_slo_config(policy), router, /*replicas=*/3,
                        trace_out);
  }

  // -- zero-downtime weight hot-swap under the flash crowd -----------------
  // (DESIGN.md §11): an incumbent/candidate pair of equal topology but
  // different weights behind a 3-replica fleet; the canary controller swaps
  // replica 0 mid-trace, judges the candidate through the breaker, then
  // promotes fleet-wide (clean leg) or rolls back (seeded always-faulty
  // leg).
  Report swap_doc("serve_swap", smoke, workers);
  {
    models::Mlp incumbent_model = pulse_mlp(21);
    // Same topology, different weights: rows prove versions.
    models::Mlp candidate_model = pulse_mlp(77);
    models::MlpConfig dcfg;
    dcfg.in_features = 24;
    dcfg.hidden = {16};
    dcfg.num_classes = 10;
    dcfg.seed = 22;
    models::Mlp degraded_model = models::build_mlp(dcfg);
    degraded_model.net->set_training(false);
    data::Dataset wds = random_dataset(128, 24, 43);

    serve::AnalyticBackend incumbent(*incumbent_model.net,
                                     /*stochastic=*/false);
    serve::AnalyticBackend candidate(*candidate_model.net,
                                     /*stochastic=*/false);
    serve::AnalyticBackend degraded(*degraded_model.net, /*stochastic=*/false);
    serve::ModelRegistry registry;
    const std::uint32_t v1 = registry.register_model(incumbent, "incumbent");
    const std::uint32_t v2 = registry.register_model(candidate, "candidate");

    const serve::TrafficConfig wtraffic = flash_traffic(smoke, 1600.0);
    const auto wtrace = serve::make_trace(wtraffic, wds.size());
    swap_doc.doc().set("traffic", flash_traffic_json(wtraffic));

    const serve::ServeConfig wcfg = flash_slo_config(policy);
    serve::RouterPolicy wrouter;
    wrouter.strategy = serve::RouterPolicy::Strategy::kRoundRobin;
    wrouter.seed = 71;

    serve::SwapPolicy swap;
    swap.enabled = true;
    swap.from_version = v1;
    swap.to_version = v2;
    swap.start_us = 30000;  // mid-trace, before the flash crowd hits
    swap.canary_replica = 0;
    swap.canary_requests = 8;
    swap.breaker.failure_threshold = 3;
    swap.breaker.cooldown_us = 5000;
    swap_doc.doc().set("replicas", std::size_t{3});
    Json sj = Json::object();
    sj.set("from_version", v1);
    sj.set("to_version", v2);
    sj.set("start_us", swap.start_us);
    sj.set("canary_replica", static_cast<std::size_t>(swap.canary_replica));
    sj.set("canary_requests", swap.canary_requests);
    sj.set("breaker_failure_threshold", swap.breaker.failure_threshold);
    swap_doc.doc().set("swap_policy", sj);

    const auto fleet_spec = [&](const serve::Backend& primary) {
      return serve::ServerSpec{}
          .primary(primary)
          .degraded(degraded)
          .dataset(wds)
          .config(wcfg)
          .replicas(3)
          .router(wrouter);
    };

    // Pinned single-version reference runs (no swap): the whole trace on
    // the incumbent, and on the candidate. The overlay is version-blind,
    // so all plans share outcomes and the row comparison is exact.
    serve::ServeConfig pcfg = wcfg;
    pcfg.num_workers = workers;
    serve::ReplicaGroup pin_from(
        fleet_spec(incumbent).registry(registry).config(pcfg));
    const serve::RouterReport rv1 = pin_from.run(wtrace);
    serve::ReplicaGroup pin_to(fleet_spec(candidate).config(pcfg));
    const serve::RouterReport rv2 = pin_to.run(wtrace);

    const std::string backend_label =
        incumbent.name() + "->" + candidate.name();
    run_swap_leg(&swap_doc, "swap_flash", backend_label.c_str(),
                 fleet_spec(incumbent).registry(registry).swap(swap), wtrace,
                 workers, wcfg, rv1.serve, rv2.serve,
                 /*expect_rollback=*/false, trace_out);

    serve::SwapPolicy faulty = swap;
    faulty.candidate_fault.enabled = true;
    faulty.candidate_fault.transient_rate = 1.0;  // candidate always fails
    run_swap_leg(&swap_doc, "swap_rollback", backend_label.c_str(),
                 fleet_spec(incumbent).registry(registry).swap(faulty),
                 wtrace, workers, wcfg, rv1.serve, rv2.serve,
                 /*expect_rollback=*/true, trace_out);
  }

  if (!serve_doc.write(json_path) || !slo_doc.write(slo_json_path) ||
      !router_doc.write(router_json_path) || !swap_doc.write(swap_json_path))
    return 1;
  if (!(serve_doc.ok() && slo_doc.ok() && router_doc.ok() && swap_doc.ok())) {
    std::fprintf(stderr, "bench_serve: gate failure\n");
    return 1;
  }
  return 0;
}
