// SLO control-plane demo (DESIGN.md §7): drive the serving runtime through
// a flash-crowd overload with deterministic fault injection and watch the
// control plane respond — admission control on the bounded queue, deadline
// sheds, the fidelity ladder stepping down onto the analytic fallback,
// transient retries, and the circuit breaker opening during a sustained
// outage window.
//
// Every decision comes from the virtual-clock planner, a pure function of
// (seed, trace, policy) — so the demo can print the plan before a single
// request runs, then execute it at two worker counts and show that the
// shed-set fingerprints and delivered payloads are bitwise identical.
//
//   ./serve_slo_demo [--trace-out PREFIX]
//
// With --trace-out, the 4-worker run is exported as a Chrome trace-event
// JSON (<prefix>slo.json) loadable in chrome://tracing or Perfetto.
#include "common/cli.hpp"
#include "common/logging.hpp"
#include "common/table.hpp"
#include "common/thread_pool.hpp"
#include "crossbar/hw_deploy.hpp"
#include "models/mlp.hpp"
#include "obs/export.hpp"
#include "obs/trace.hpp"
#include "serve/policy.hpp"
#include "serve/router.hpp"
#include "serve/server.hpp"
#include "tensor/ops.hpp"

#include <cstdio>
#include <cstring>
#include <string>

int main(int argc, char** argv) {
  using namespace gbo;
  CliParser cli("serve_slo_demo", "SLO control-plane serving demo.");
  add_serve_trace_flags(cli);
  if (!cli.parse(argc, argv)) return cli.exit_code();
  const std::string trace_out = cli.get_string("trace-out", "");
  set_log_level(LogLevel::kWarn);

  // Small binary-weight MLP; the pulse-level deployed crossbar is the
  // primary backend, the clean analytic host network is the degraded
  // fallback the fidelity ladder and the breaker route to.
  models::MlpConfig mcfg;
  mcfg.in_features = 24;
  mcfg.hidden = {32, 32};
  mcfg.num_classes = 10;
  mcfg.seed = 21;
  models::Mlp model = models::build_mlp(mcfg);
  model.net->set_training(false);

  data::Dataset ds;
  Rng drng(43);
  ds.images = Tensor({128, mcfg.in_features});
  ops::fill_uniform(ds.images, drng, -1.0f, 1.0f);
  ds.labels.assign(128, 0);

  xbar::HwDeployConfig hw_cfg;
  hw_cfg.sigma = 0.5;
  hw_cfg.device.read_noise_sigma = 0.05;
  hw_cfg.device.adc_bits = 8;
  hw_cfg.device.program_variation = 0.05;
  xbar::HardwareNetwork hw(*model.net, model.encoded, hw_cfg);
  serve::PulseBackend primary(hw);
  serve::AnalyticBackend fallback(*model.net, /*stochastic=*/false);

  // Flash crowd: steady 900 rps, then a 14x spike — far beyond sustained
  // capacity, which is what exercises the ladder and the shedder.
  serve::TrafficConfig tcfg;
  tcfg.num_requests = 320;
  tcfg.rate_rps = 900.0;
  tcfg.shape = serve::TraceShape::kFlashCrowd;
  tcfg.flash_factor = 14.0;
  tcfg.flash_start_s = 0.05;
  tcfg.flash_ramp_s = 0.005;
  tcfg.flash_hold_s = 0.02;
  tcfg.high_fraction = 0.2;  // 20% high / 50% normal / 30% low priority
  tcfg.low_fraction = 0.3;
  tcfg.seed = 101;
  const auto trace = serve::make_trace(tcfg, ds.size());

  serve::ServeConfig cfg;
  cfg.batch.max_batch = 8;
  cfg.seed = 29;
  cfg.slo.enabled = true;
  cfg.slo.deadline_us = 15000;
  cfg.slo.completion_headroom_us = 9000;
  cfg.slo.queue.capacity = 64;
  cfg.slo.queue.on_full = serve::QueuePolicy::OnFull::kDropOldest;
  cfg.slo.cost.batch_fixed_us = 50;
  cfg.slo.cost.primary_us = 800;
  cfg.slo.cost.degraded_us = 100;
  cfg.slo.cost.retry_penalty_us = 100;
  cfg.slo.ladder.degrade_depth = 8;
  cfg.slo.ladder.shed_depth = 30;
  cfg.slo.ladder.recover_depth = 2;
  cfg.slo.ladder.shed_floor = serve::Priority::kNormal;
  cfg.slo.retry.max_attempts = 2;
  cfg.slo.retry.backoff_us = 50;
  cfg.slo.breaker.failure_threshold = 3;
  cfg.slo.breaker.cooldown_us = 30000;
  cfg.slo.fault.enabled = true;
  cfg.slo.fault.seed = 555;
  cfg.slo.fault.transient_rate = 0.08;
  cfg.slo.fault.outage_start_id = 30;  // sustained outage before the flash
  cfg.slo.fault.outage_len = 12;

  // --- The plan: what WILL happen, before anything runs. ---------------
  cfg.num_workers = 1;
  serve::InferenceServer one(serve::ServerSpec{}
                                 .primary(primary)
                                 .degraded(fallback)
                                 .dataset(ds)
                                 .config(cfg));
  const serve::RouterPlan plan = one.plan_trace(trace);
  const serve::PlanCounters& c = plan.counters;
  std::printf("Planned on the virtual clock (%zu requests):\n", trace.size());
  std::printf(
      "  served %zu (primary %zu, ladder-degraded %zu, breaker-degraded %zu,"
      " fallback %zu)\n",
      c.served, c.served_primary, c.degraded_ladder, c.degraded_breaker,
      c.degraded_fallback);
  std::printf(
      "  shed %zu (expired %zu, overload %zu) rejected %zu evicted %zu\n",
      c.shed_expired + c.shed_overload, c.shed_expired, c.shed_overload,
      c.rejected, c.evicted);
  std::printf(
      "  faults %zu over %zu retried requests, breaker opened %zux,"
      " ladder peaked at level %d (final %d), peak depth %zu\n",
      c.faults_injected, c.retried_requests, c.breaker_opens,
      c.max_ladder_level, c.final_ladder_level, c.max_virtual_depth);
  std::printf("  shed-set fingerprint 0x%016llx\n\n",
              static_cast<unsigned long long>(plan.shed_set_hash));

  Table lat({"priority", "served", "virtual p50 us", "p95 us", "p99 us"});
  const char* pri_names[] = {"high", "normal", "low"};
  for (std::size_t k = 0; k < serve::kNumPriorities; ++k) {
    const serve::LatencyStats& s = plan.virtual_by_priority[k];
    lat.add_row({pri_names[k], std::to_string(s.count),
                 Table::fmt(s.p50_us, 0), Table::fmt(s.p95_us, 0),
                 Table::fmt(s.p99_us, 0)});
  }
  std::printf("%s\n", lat.to_text().c_str());

  // --- Execution: the runtime honors the plan at any worker count. -----
  std::printf("Executing on %zu pool threads...\n",
              ThreadPool::instance().num_threads());
  obs::begin_session();
  const serve::ServeReport r1 = one.run(trace);
  const obs::TraceSnapshot s1 = obs::end_session();
  cfg.num_workers = 4;
  serve::InferenceServer four(serve::ServerSpec{}
                                  .primary(primary)
                                  .degraded(fallback)
                                  .dataset(ds)
                                  .config(cfg));
  obs::begin_session();
  const serve::ServeReport r4 = four.run(trace);
  const obs::TraceSnapshot s4 = obs::end_session();

  const Tensor& o1 = r1.outputs;
  const Tensor& o4 = r4.outputs;
  const bool payloads_equal =
      o1.numel() == o4.numel() &&
      std::memcmp(o1.data(), o4.data(), o1.numel() * sizeof(float)) == 0;
  std::printf("%s", serve::slo_exec_summary("1 worker", r1).c_str());
  std::printf("%s", serve::slo_exec_summary("4 workers", r4).c_str());
  std::printf("  payloads bitwise identical: %s\n",
              payloads_equal ? "yes" : "NO");
  if (obs::runtime_enabled()) {
    // The causal half of the trace stream (admissions, sheds, retries,
    // deliveries, ladder/breaker transitions on the virtual clock) hashes
    // identically at any worker count and matches the plan-derived oracle.
    const std::uint64_t fp1 = obs::causal_fingerprint(s1.events);
    const std::uint64_t fp4 = obs::causal_fingerprint(s4.events);
    const std::uint64_t want = serve::expected_causal_fingerprint(plan);
    std::printf("  causal trace fingerprint:   %s (same at 1w/4w: %s, "
                "matches plan oracle: %s)\n",
                serve::hex64(fp4).c_str(), fp1 == fp4 ? "yes" : "NO",
                fp4 == want ? "yes" : "NO");
    if (!trace_out.empty()) {
      const std::string path = trace_out + "slo.json";
      if (obs::write_chrome_trace(s4, path, "serve_slo_demo"))
        std::printf("  wrote %s\n", path.c_str());
    }
  }
  std::printf("  fingerprints match plan:    %s\n",
              r1.slo.exec_shed_set_hash == plan.shed_set_hash &&
                      r4.slo.exec_shed_set_hash == plan.shed_set_hash
                  ? "yes"
                  : "NO");
  std::printf(
      "\nThe shed set is a pure function of (seed, trace, policy): rerun\n"
      "this demo on any machine, at any GBO_NUM_THREADS, and every\n"
      "fingerprint and payload above is bitwise unchanged. See\n"
      "bench_serve --smoke --slo-json for the CI gates.\n");
  return payloads_equal ? 0 : 1;
}
