// The traced run: per-layer metrics, timed from outside through public
// calls. The suite is the same for every workload, so each traced result
// carries the whole attribution:
//
//   kern.<L>.*   binary route stages (grid check, im2col, A-side pack,
//                XNOR/popcount) and the float route, per VGG9 MVM shape at
//                batch 8  -> sat_rps / capacity_rps on vgg9_serve
//   nn.<child>   each Sequential child's own infer, in order, at batch 8
//                -> sat_rps on vgg9_serve
//   serve.<w>.*  exec time through a forwarding Backend, overhead, batch
//                size, producer lag, heap allocations per request, for both
//                serving workloads -> p50/p99 (plan_ms -> setup_s) there
//   xbar/enc     pulse-level forward, pulse MVM, thermometer encode
//                -> p50 on fleet_flash
//   gbo/pool     λ forward/backward, noise mixture, empty dispatch
//                -> step latency on gbo_search
//   core/quant/eval  one trial at 1 thread, trial-parallel efficiency,
//                noise hook, binary-route share -> eval_img_s on gbo_search
#include "common.hpp"

#include "common/thread_pool.hpp"
#include "core/pipeline.hpp"
#include "crossbar/crossbar_layers.hpp"
#include "crossbar/mvm_engine.hpp"
#include "encoding/thermometer.hpp"
#include "gbo/gbo.hpp"
#include "nn/conv2d.hpp"
#include "nn/linear.hpp"
#include "obs/trace.hpp"
#include "serve/server.hpp"
#include "tensor/gemm_binary.hpp"
#include "tensor/im2col.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>

namespace perfbench {

using namespace gbo;

namespace {

constexpr std::size_t kBatch = 8;

Tensor sign_matrix(const Tensor& latent) {
  Tensor s(latent.shape());
  for (std::size_t i = 0; i < latent.numel(); ++i)
    s[i] = latent[i] >= 0.0f ? 1.0f : -1.0f;
  return s;
}

/// Allocations per call of fn over `reps` calls (after one warm call).
template <typename F>
double allocs_per_call(std::size_t reps, F&& fn) {
  fn();
  const std::uint64_t a0 = heap_allocs();
  for (std::size_t i = 0; i < reps; ++i) fn();
  return static_cast<double>(heap_allocs() - a0) / static_cast<double>(reps);
}

// ---- kern.* and nn.* ------------------------------------------------------

void probe_vgg9_layers(const Options& opt, Result* r) {
  models::Vgg9 vgg = build_vgg9();
  const nn::Sequential& net = *vgg.net;
  ScratchArena arena;
  nn::EvalContext ctx(Rng(1), &arena);
  const Tensor x = synth_images(kBatch, opt.seed).images;

  double alloc_bin = 0.0, alloc_float = 0.0, attributed_us = 0.0;
  double tanh_us = 0.0, bn_us = 0.0, pool_us = 0.0;
  std::size_t conv_idx = 0;
  Tensor cur = x;
  Rng init(3);
  for (std::size_t i = 0; i < net.size(); ++i) {
    nn::Module& child = vgg.net->at(i);
    const std::string kind = child.kind();
    const double us = time_us(20, [&] {
      Tensor o = child.infer(cur, ctx);
      ctx.recycle(std::move(o));
    });
    attributed_us += us;
    std::string layer;
    if (kind == "QuantConv2d") layer = "conv" + std::to_string(++conv_idx);
    else if (kind == "QuantLinear") layer = "fc1";
    else if (kind == "Linear") layer = "fc2";
    else if (kind == "QuantTanh") tanh_us += us;
    else if (kind == "BatchNorm2d" || kind == "BatchNorm1d") bn_us += us;
    else if (kind == "MaxPool2d") pool_us += us;
    if (!layer.empty()) r->set("nn." + layer + ".us", us, "us");

    const bool encoded = (kind == "QuantConv2d" && conv_idx >= 2) ||
                         kind == "QuantLinear";
    if (encoded) {
      // The binary route of this layer, stage by stage, against the float
      // route of a plain layer holding the same +-1 weights.
      const std::string p = "kern." + layer + ".";
      const bool conv = kind == "QuantConv2d";
      Tensor bw;
      std::size_t n, k, m;
      ConvGeom g;
      std::unique_ptr<nn::Module> clone;
      if (conv) {
        auto& c = static_cast<nn::Conv2d&>(child);
        g = c.geom();
        n = c.out_channels();
        k = g.patch_len();
        m = kBatch * g.out_h() * g.out_w();
        bw = sign_matrix(c.weight().value);
        auto fc = std::make_unique<nn::Conv2d>(n, g, /*bias=*/false, init);
        fc->weight().value = bw;
        clone = std::move(fc);
      } else {
        auto& l = static_cast<nn::Linear&>(child);
        n = l.out_features();
        k = l.in_features();
        m = kBatch;
        bw = sign_matrix(l.weight().value);
        auto fl = std::make_unique<nn::Linear>(k, n, /*bias=*/false, init);
        fl->weight().value = bw;
        clone = std::move(fl);
      }
      const gemm::PackedBinaryB pb = gemm::prepack_binary_b_t(n, k, bw.data(), k);
      std::vector<float> cols(conv ? m * k : 0);
      const float* a = conv ? cols.data() : cur.data();
      std::vector<std::uint64_t> pa(gemm::packed_binary_a_words(m, k));
      std::vector<float> rows(m * n);
      bool on_grid = false, packed = false;

      r->set(p + "grid_check_us", time_us(30, [&] {
               on_grid = gemm::binary_grid_check(cur.data(), cur.numel());
             }), "us");
      if (conv)
        r->set(p + "im2col_us",
               time_us(30, [&] { im2col_into(cur, g, cols.data()); }), "us");
      r->set(p + "pack_a_us", time_us(30, [&] {
               packed = gemm::pack_binary_a(m, k, a, k, pa.data());
             }), "us");
      r->set(p + "xnor_us", time_us(30, [&] {
               gemm::gemm_binary(m, n, k, pa.data(), pb, rows.data(), n);
             }), "us");
      r->set(p + "float_us", time_us(30, [&] {
               Tensor o = clone->infer(cur, ctx);
               ctx.recycle(std::move(o));
             }), "us");
      const Tensor fout = clone->infer(cur, ctx);
      Tensor bout(fout.shape());
      if (conv)
        rows_to_nchw_into(rows.data(), kBatch, n, g.out_h(), g.out_w(),
                          bout.data());
      else
        std::copy(rows.begin(), rows.end(), bout.data());
      r->check(p + "on_grid_binary_route", on_grid && packed);
      r->check(p + "binary_equals_float_route", bitwise_equal(bout, fout));

      alloc_bin += allocs_per_call(10, [&] {
        Tensor o = child.infer(cur, ctx);
        ctx.recycle(std::move(o));
      });
      alloc_float += allocs_per_call(10, [&] {
        Tensor o = clone->infer(cur, ctx);
        ctx.recycle(std::move(o));
      });

      const double ops = 2.0 * static_cast<double>(m * n * k);
      r->note(p + "ops", ops, "op");
      r->note(p + "pack_a_bytes",
              4.0 * m * k + 8.0 * gemm::packed_binary_a_words(m, k), "B");
      r->note(p + "xnor_bytes",
              8.0 * (gemm::packed_binary_a_words(m, k) + pb.words.size()) +
                  4.0 * m * n,
              "B");
      r->note(p + "float_bytes", 4.0 * (m * k + n * k + m * n), "B");
      if (conv)
        r->note(p + "im2col_bytes", 4.0 * (cur.numel() + m * k), "B");
    }
    Tensor next = child.infer(cur, ctx);
    cur = next;
  }
  r->set("nn.QuantTanh.us", tanh_us, "us");
  r->set("nn.BatchNorm.us", bn_us, "us");
  r->set("nn.Pool.us", pool_us, "us");
  r->set("kern.allocs_binary_per_call", alloc_bin, "count");
  r->set("kern.allocs_float_per_call", alloc_float, "count");

  const double net_us = time_us(20, [&] {
    Tensor o = net.infer(x, ctx);
    ctx.recycle(std::move(o));
  });
  r->note("nn.net_us", net_us, "us");
  r->note("nn.attributed_share", attributed_us / net_us, "1");
  r->set("nn.allocs_per_call", allocs_per_call(10, [&] {
           Tensor o = net.infer(x, ctx);
           ctx.recycle(std::move(o));
         }), "count");
}

// ---- serve.* --------------------------------------------------------------

/// Forwards to another Backend and records each run()'s wall time into a
/// preallocated buffer (lock-free; extra samples beyond capacity are
/// dropped), so timing adds no allocation to the serving path.
class TimedBackend : public serve::Backend {
 public:
  explicit TimedBackend(const serve::Backend& inner)
      : inner_(inner), samples_(1 << 16) {}

  std::string name() const override { return inner_.name(); }
  bool deterministic() const override { return inner_.deterministic(); }
  serve::FusionMode fusion_mode() const override {
    return inner_.fusion_mode();
  }
  Tensor run(const Tensor& x, nn::EvalContext& ctx) const override {
    const auto t0 = Clock::now();
    Tensor out = inner_.run(x, ctx);
    const std::size_t i = next_.fetch_add(1, std::memory_order_relaxed);
    if (i < samples_.size()) samples_[i] = seconds_since(t0) * 1e6;
    return out;
  }

  void reset() { next_.store(0, std::memory_order_relaxed); }
  double median_us() const {
    const std::size_t n = std::min(next_.load(), samples_.size());
    return median(std::vector<double>(samples_.begin(), samples_.begin() + n));
  }

 private:
  const serve::Backend& inner_;
  mutable std::vector<double> samples_;
  mutable std::atomic<std::size_t> next_{0};
};

/// p99 producer lateness (us) from the session's admit timestamps. The
/// session epoch precedes the run's own clock by a constant, so lateness is
/// taken relative to the least-late request.
double gen_lag_us(const obs::TraceSnapshot& snap,
                  const std::vector<serve::Arrival>& trace) {
  std::vector<double> late;
  for (const obs::Event& e : snap.events)
    if (e.type == static_cast<std::uint8_t>(obs::EventType::kAdmit) &&
        e.id < trace.size())
      late.push_back(static_cast<double>(e.t_us) -
                     static_cast<double>(trace[e.id].t_us));
  if (late.empty()) return 0.0;
  const double lo = *std::min_element(late.begin(), late.end());
  for (double& l : late) l -= lo;
  return quantile(late, 0.99);
}

template <typename Server, typename Run>
void serve_group(const std::string& w, const std::vector<serve::Arrival>& trace,
                 Server& server, TimedBackend& timed, Run run, Result* r) {
  (void)run(server, trace);  // warm replay
  timed.reset();
  const bool tracing = obs::runtime_enabled();
  obs::begin_session();
  const std::uint64_t a0 = heap_allocs();
  const serve::ServeReport rep = run(server, trace);
  const double allocs = static_cast<double>(heap_allocs() - a0);
  const obs::TraceSnapshot snap = obs::end_session();
  const std::string p = "serve." + w + ".";
  const double exec = timed.median_us();
  r->set(p + "exec_us", exec, "us");
  r->set(p + "overhead_us", rep.latency.p50_us - exec, "us");
  r->set(p + "mean_batch", rep.mean_batch, "count");
  r->set(p + "gen_lag_us", gen_lag_us(snap, trace), "us");
  r->set(p + "heap_allocs_per_req", allocs / static_cast<double>(trace.size()),
         "count");
  r->check(p + "trace_recorded", tracing && snap.dropped == 0);
  r->check(p + "all_delivered",
           rep.completed + rep.slo.exec_shed == trace.size());
}

void probe_vgg9_serve(const Options& opt, Result* r) {
  models::Vgg9 vgg = build_vgg9();
  const data::Dataset ds = synth_images(256, opt.seed);
  serve::AnalyticBackend inner(*vgg.net, /*stochastic=*/false);
  TimedBackend timed(inner);
  serve::ServeConfig cfg;
  cfg.batch = batch_policy();
  cfg.num_workers = kServeWorkers;
  cfg.seed = 17;
  serve::InferenceServer server(
      serve::ServerSpec{}.primary(timed).dataset(ds).config(cfg));
  server.warmup();
  const auto trace = poisson_trace(600, kVggFixedRps, ds.size(), opt.seed + 2);
  serve_group("vgg9_serve", trace, server, timed,
              [](serve::InferenceServer& s,
                 const std::vector<serve::Arrival>& t) { return s.run(t); },
              r);

  // Tracing overhead: saturated throughput with the runtime switch on vs
  // off, alternating, medians of three each.
  const auto sat = saturated(poisson_trace(600, 1000.0, ds.size(), opt.seed + 1));
  std::vector<double> on, off;
  for (int rep = 0; rep < 3; ++rep)
    for (bool enabled : {true, false}) {
      obs::set_runtime_enabled(enabled);
      const serve::ServeReport rr = server.run(sat);
      (enabled ? on : off).push_back(rr.completed / rr.wall_s);
    }
  obs::set_runtime_enabled(true);
  r->set("obs.overhead_pct", 100.0 * (median(off) / median(on) - 1.0), "%");
}

void probe_fleet(const Options& opt, Result* r) {
  FleetModel model = build_fleet_model();
  const data::Dataset ds = fleet_dataset(opt.seed);
  serve::PulseBackend primary(*model.hw);
  serve::AnalyticBackend fallback(*model.mlp.net, /*stochastic=*/false);
  TimedBackend tp(primary);
  serve::ReplicaGroup group(serve::ServerSpec{}
                                .primary(tp)
                                .degraded(fallback)
                                .dataset(ds)
                                .config(fleet_config())
                                .replicas(kFleetReplicas)
                                .router(fleet_router()));
  group.warmup();
  const auto trace = flash_trace(6000, ds.size(), opt.seed + 1);
  std::vector<double> plan_ms;
  for (int rep = 0; rep < 3; ++rep) {
    const auto t0 = Clock::now();
    (void)group.plan_trace(trace);
    plan_ms.push_back(seconds_since(t0) * 1e3);
  }
  r->set("serve.plan_ms", median(plan_ms), "ms");
  serve_group("fleet_flash", trace, group, tp,
              [](serve::ReplicaGroup& g, const std::vector<serve::Arrival>& t) {
                return g.run(t).serve;
              },
              r);

  // Pulse engine and encoder at the encoded layer's shape (32 -> 32).
  Tensor x = slice(ds, 0, kBatch).images;
  nn::EvalContext ctx(Rng(5));
  r->set("xbar.pulse_fwd_us",
         time_us(200, [&] { (void)model.hw->forward(x, ctx); }), "us");

  xbar::MvmConfig mc;
  mc.spec = enc::EncodingSpec{enc::Scheme::kThermometer, 8};
  mc.sigma = 0.5;
  mc.device.read_noise_sigma = 0.05;
  mc.device.adc_bits = 8;
  const Tensor w = sign_matrix(random_tensor({32, 32}, opt.seed + 3));
  const xbar::MvmEngine engine(w, mc, Rng(7));
  Tensor act({kBatch, 32});
  Rng lv(opt.seed + 4);
  for (std::size_t i = 0; i < act.numel(); ++i)
    act[i] = static_cast<float>(2 * lv.uniform_int(0, 8) - 8) / 8.0f;
  ScratchArena arena;
  Rng rng(9);
  r->set("xbar.mvm_pulse_us", time_us(200, [&] {
           ArenaFrame frame(&arena);
           (void)engine.run_pulse_level(act, rng, &arena);
         }), "us");
  std::vector<Tensor> pulses(8, Tensor({kBatch, 32}));
  r->set("enc.encode_us", time_us(200, [&] {
           enc::thermometer_encode_into(act, 8, pulses);
         }), "us");
}

// ---- gbo.*, pool.*, core.*, quant.*, eval.* ------------------------------

void probe_gbo_eval(const Options& opt, Result* r) {
  models::Vgg9 vgg = build_vgg9();
  const data::Dataset b = synth_images(32, opt.seed);
  const data::Dataset eval = synth_images(256, opt.seed + 1);
  std::vector<std::size_t> selected;
  {
    opt::GboTrainer trainer(*vgg.net, vgg.encoded, gbo_config());
    std::vector<double> fwd, bwd;
    Tensor grad({32, 10});
    grad.fill(1.0f / 32.0f);
    for (int rep = 0; rep < 6; ++rep) {
      const auto t0 = Clock::now();
      (void)vgg.net->forward(b.images);
      const auto t1 = Clock::now();
      (void)vgg.net->backward(grad);
      const auto t2 = Clock::now();
      if (rep == 0) continue;
      fwd.push_back(std::chrono::duration<double>(t1 - t0).count() * 1e3);
      bwd.push_back(std::chrono::duration<double>(t2 - t1).count() * 1e3);
    }
    r->set("gbo.fwd_ms", median(fwd), "ms");
    r->set("gbo.bwd_ms", median(bwd), "ms");

    // Noise mixture on the largest encoded output (conv2, batch 32).
    Tensor out = random_tensor({32, 16, 16, 16}, opt.seed + 5);
    r->set("gbo.noise_mix_us",
           time_us(20, [&] { trainer.layer_state(0).on_forward(out); }), "us");

    r->set("gbo.heap_allocs_per_step",
           allocs_per_call(3, [&] { (void)trainer.train(b); }), "count");
  }
  {
    // gbo_search's evaluation pulse vector: fresh λ, the same steps.
    opt::GboTrainer trainer(*vgg.net, vgg.encoded, gbo_config());
    for (const data::Dataset& b : gbo_selection_batches())
      (void)trainer.train(b);
    selected = trainer.selected_pulses();
  }
  r->set("pool.dispatch_us", time_us(2000, [] {
           parallel_for(0, ThreadPool::instance().num_threads(), 1,
                        [](std::size_t, std::size_t) {});
         }), "us");

  xbar::LayerNoiseController ctrl(vgg.encoded, 1.0, vgg.base_pulses(),
                                  Rng(opt.seed + 7));
  ctrl.attach();
  ctrl.set_enabled_all(true);
  ctrl.set_pulses(selected);

  // One trial at pool width 1, then trial-parallel at full width.
  ThreadPool& pool = ThreadPool::instance();
  const std::size_t threads = pool.num_threads();
  pool.set_num_threads(1);
  std::vector<double> t1;
  for (int rep = 0; rep < 3; ++rep) {
    nn::EvalContext ctx(ctrl.trial_rng(1000 + rep));
    const auto t0 = Clock::now();
    (void)core::evaluate_trial(*vgg.net, eval, 64, ctx);
    t1.push_back(seconds_since(t0) * 1e3);
  }
  pool.set_num_threads(threads);
  const double trial_ms = median(t1);
  r->set("core.trial_ms", trial_ms, "ms");

  (void)core::evaluate_noisy(*vgg.net, ctrl, slice(eval, 0, 64), 1);
  std::vector<double> tp;
  const std::uint64_t bin0 = gemm::binary_mvm_count();
  for (int rep = 0; rep < 3; ++rep) {
    const auto t0 = Clock::now();
    (void)core::evaluate_noisy(*vgg.net, ctrl, eval, threads);
    tp.push_back(seconds_since(t0) * 1e3);
  }
  const double bin_calls = static_cast<double>(gemm::binary_mvm_count() - bin0);
  // Quant-layer MVM calls: 8 binary-weight layers per batch of 64.
  const double mvm_calls =
      3.0 * threads * std::ceil(eval.size() / 64.0) * vgg.binary.size();
  // T trials on T threads: efficiency = (T * t1 / tT) / T = t1 / tT.
  r->set("core.trial_par_eff", trial_ms / median(tp), "1");
  r->set("eval.binary_route_share", bin_calls / mvm_calls, "1");

  // Noise hook cost on conv2's shapes at batch 8: PLA re-quantization of
  // the input plus the output noise draw.
  const xbar::GaussianNoiseHook& hook = ctrl.hook(0);
  Tensor hin = random_tensor({kBatch, 16, 16, 16}, opt.seed + 6);
  Tensor hout = random_tensor({kBatch, 16, 16, 16}, opt.seed + 8);
  Rng hr(11);
  r->set("quant.noise_hook_us", time_us(50, [&] {
           hook.infer_input(hin, hr);
           hook.infer_output(hout, hr);
         }), "us");
  ctrl.detach();
}

}  // namespace

Result run_layer_probes(const Options& opt) {
  Result r;
  probe_vgg9_layers(opt, &r);
  probe_vgg9_serve(opt, &r);
  probe_fleet(opt, &r);
  probe_gbo_eval(opt, &r);
  r.attempted = r.checks.size();
  for (const auto& [name, ok] : r.checks)
    if (!ok) ++r.failed;
  return r;
}

}  // namespace perfbench
