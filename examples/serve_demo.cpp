// Serving-runtime demo: put a trained binary-weight MLP behind the online
// inference server and watch dynamic micro-batching under bursty Poisson
// traffic — first the clean analytic backend (fused batches), then the
// same requests against the pulse-level deployed crossbar.
//
//   ./serve_demo [--trace-out PREFIX]
//
// With --trace-out, each backend's measured run is exported as a Chrome
// trace-event JSON (<prefix><backend>.json) loadable in chrome://tracing
// or Perfetto.
#include "common/cli.hpp"
#include "common/logging.hpp"
#include "common/table.hpp"
#include "common/thread_pool.hpp"
#include "crossbar/crossbar_layers.hpp"
#include "crossbar/hw_deploy.hpp"
#include "models/mlp.hpp"
#include "obs/export.hpp"
#include "obs/trace.hpp"
#include "serve/server.hpp"
#include "tensor/ops.hpp"

#include <cstdio>
#include <string>

int main(int argc, char** argv) {
  using namespace gbo;
  CliParser cli("serve_demo", "Dynamic micro-batching serving demo.");
  add_serve_trace_flags(cli);
  if (!cli.parse(argc, argv)) return cli.exit_code();
  const std::string trace_out = cli.get_string("trace-out", "");
  set_log_level(LogLevel::kWarn);

  models::MlpConfig mcfg;
  mcfg.in_features = 32;
  mcfg.hidden = {64, 64};
  models::Mlp model = models::build_mlp(mcfg);
  model.net->set_training(false);

  data::Dataset ds;
  Rng drng(3);
  ds.images = Tensor({256, mcfg.in_features});
  ops::fill_uniform(ds.images, drng, -1.0f, 1.0f);
  ds.labels.assign(256, 0);

  // 2k requests at ~8k rps with 3x bursts 30% of the time.
  serve::TrafficConfig tcfg;
  tcfg.num_requests = 2000;
  tcfg.rate_rps = 8000.0;
  tcfg.burst_factor = 3.0;
  tcfg.burst_duty = 0.3;
  tcfg.burst_period_s = 0.01;
  const auto trace = serve::make_trace(tcfg, ds.size());

  serve::ServeConfig scfg;
  scfg.batch.max_batch = 8;
  scfg.num_workers = 4;

  std::printf("Serving %zu requests on %zu workers (%zu pool threads)...\n\n",
              trace.size(), scfg.num_workers,
              ThreadPool::instance().num_threads());

  // Shared report printer (serve/metrics.hpp): the same column schema the
  // SLO demo and any future tool render, so demos cannot drift.
  Table table(serve::report_header());
  auto row = [&](const char* name, const char* slug,
                 serve::InferenceServer& server,
                 const std::vector<serve::Arrival>& tr) {
    obs::begin_session();
    const serve::ServeReport r = server.run(tr);
    const obs::TraceSnapshot snap = obs::end_session();
    table.add_row(serve::report_row(name, r));
    if (!trace_out.empty() && obs::runtime_enabled()) {
      const std::string path = trace_out + slug + ".json";
      if (obs::write_chrome_trace(snap, path, std::string("serve_demo ") + name))
        std::printf("wrote %s\n", path.c_str());
    }
  };

  {
    serve::AnalyticBackend clean(*model.net, /*stochastic=*/false);
    serve::InferenceServer server(
        serve::ServerSpec{}.primary(clean).dataset(ds).config(scfg));
    server.warmup();
    (void)server.run(trace);  // warm run sizes the arenas
    row("analytic clean", "analytic_clean", server, trace);
  }
  {
    Rng crng(11);
    xbar::LayerNoiseController ctrl(model.encoded, /*sigma=*/1.0,
                                    model.base_pulses(), crng);
    ctrl.attach();
    ctrl.set_enabled_all(true);
    serve::AnalyticBackend noisy(*model.net, /*stochastic=*/true);
    serve::InferenceServer server(
        serve::ServerSpec{}.primary(noisy).dataset(ds).config(scfg));
    server.warmup();
    (void)server.run(trace);
    row("analytic noisy", "analytic_noisy", server, trace);
    ctrl.detach();
  }
  {
    xbar::HwDeployConfig hw_cfg;
    hw_cfg.sigma = 0.5;
    hw_cfg.device.read_noise_sigma = 0.05;
    hw_cfg.device.adc_bits = 8;
    xbar::HardwareNetwork hw(*model.net, model.encoded, hw_cfg);
    serve::PulseBackend pulse(hw);
    serve::TrafficConfig slow = tcfg;  // pulse sim is ~10x heavier per req
    slow.num_requests = 400;
    slow.rate_rps = 2000.0;
    serve::InferenceServer server(
        serve::ServerSpec{}.primary(pulse).dataset(ds).config(scfg));
    server.warmup();
    const auto strace = serve::make_trace(slow, ds.size());
    (void)server.run(strace);
    row("pulse hardware", "pulse", server, strace);
  }

  std::printf("%s", table.to_text().c_str());
  std::printf(
      "\nPayloads are bitwise reproducible from (seed, trace) at any worker\n"
      "count or batch boundary; see bench_serve --smoke for the gates.\n");
  return 0;
}
