// vgg9_serve: the deployed product. Default VGG9 (w16, 16x16), clean
// AnalyticBackend, one replica, 3 workers, SLO off (InferenceServer::run).
// The on-grid binary route and QuantTanh dominate; serving is a small share.
//
// Phases after set-up: rounds of a saturated replay (every request due at
// t = 0), giving sat_rps, and an open-loop Poisson chunk at kVggFixedRps,
// giving the latency percentiles; then a bisection over Poisson rates gives
// capacity_rps, the highest rate whose p99 stays within kVggP99LimitMs with
// every request served. Every payload is checked bitwise against a
// 1-worker unit-batch reference.
#include "common.hpp"

#include "serve/server.hpp"

#include <algorithm>
#include <cmath>

namespace perfbench {

using namespace gbo;

namespace {

struct VggStack {
  models::Vgg9 vgg = build_vgg9();
  serve::AnalyticBackend backend{*vgg.net, /*stochastic=*/false};
  std::unique_ptr<serve::InferenceServer> server;

  VggStack(const data::Dataset& ds, std::size_t workers,
           std::size_t max_batch) {
    serve::ServeConfig cfg;
    cfg.batch = batch_policy();
    cfg.batch.max_batch = max_batch;
    if (max_batch == 1) cfg.batch.max_wait_us = 0;
    cfg.num_workers = workers;
    cfg.seed = 17;
    server = std::make_unique<serve::InferenceServer>(
        serve::ServerSpec{}.primary(backend).dataset(ds).config(cfg));
  }
};

/// Latency samples (us) of delivered requests, appended to `out`.
void collect_latencies(const serve::ServeReport& rep,
                       std::vector<double>* out) {
  for (std::uint64_t l : rep.latencies_us)
    if (l > 0) out->push_back(static_cast<double>(l));
}

}  // namespace

Result run_vgg9_serve(const Options& opt) {
  Result r;
  const double f = std::max(0.1, opt.seconds / 10.0);
  const auto scaled = [&](double n) {
    return static_cast<std::size_t>(std::max(200.0, n * f));
  };

  // Inputs (excluded from set-up time).
  const data::Dataset ds = synth_images(256, opt.seed);
  const auto sat_trace =
      saturated(poisson_trace(400, 1000.0, ds.size(), opt.seed + 1));
  const std::size_t rounds =
      static_cast<std::size_t>(std::max(2.0, std::round(8.0 * f)));
  std::vector<std::vector<serve::Arrival>> fixed_chunks;
  for (std::size_t c = 0; c < rounds; ++c)
    fixed_chunks.push_back(
        poisson_trace(300, kVggFixedRps, ds.size(), opt.seed + 100 + c));
  const auto warm_trace =
      saturated(poisson_trace(256, 1000.0, ds.size(), opt.seed + 3));

  // Set-up, three times; the last stack serves the timed phases.
  std::vector<double> setup;
  std::unique_ptr<VggStack> st;
  for (int rep = 0; rep < 3; ++rep) {
    st.reset();
    const auto t0 = Clock::now();
    st = std::make_unique<VggStack>(ds, kServeWorkers, batch_policy().max_batch);
    st->server->warmup();
    (void)st->server->run(warm_trace);
    setup.push_back(seconds_since(t0));
  }
  r.set("setup_s", median(setup), "s");

  // Reference payloads: 1 worker, unit batches, one request per sample.
  std::vector<serve::Arrival> ref_trace(ds.size());
  for (std::size_t i = 0; i < ds.size(); ++i) ref_trace[i].sample = i;
  Tensor ref;
  {
    VggStack ref_stack(ds, 1, 1);
    ref = ref_stack.server->run(ref_trace).outputs;
  }

  std::uint64_t sent = 0, delivered = 0, mismatched = 0;
  const auto account = [&](const std::vector<serve::Arrival>& trace,
                           const serve::ServeReport& rep) {
    sent += trace.size();
    delivered += rep.completed;
    for (std::size_t i = 0; i < trace.size(); ++i)
      if (!rows_equal(rep.outputs, i, ref, trace[i].sample)) ++mismatched;
  };

  // Rounds of one saturated replay (every request due at t = 0) and one
  // open-loop chunk at the fixed rate; sat_rps is the median over rounds,
  // latencies are pooled.
  std::vector<double> sat, lat;
  std::uint64_t sat_allocs = 0;
  for (std::size_t round = 0; round < rounds; ++round) {
    const std::uint64_t a0 = heap_allocs();
    const serve::ServeReport rs = st->server->run(sat_trace);
    sat_allocs += heap_allocs() - a0;
    sat.push_back(static_cast<double>(rs.completed) / rs.wall_s);
    account(sat_trace, rs);
    const auto& chunk = fixed_chunks[round];
    const serve::ServeReport rf = st->server->run(chunk);
    account(chunk, rf);
    collect_latencies(rf, &lat);
  }
  const double allocs_per_req =
      static_cast<double>(sat_allocs) /
      static_cast<double>(rounds * sat_trace.size());
  const double sat_rps = median(sat);

  // Capacity: bisection over Poisson rates inside (0.3, 1.05] x sat_rps.
  double lo = 0.3 * sat_rps, hi = 1.05 * sat_rps;
  std::size_t probes = 0;
  for (int it = 0; it < 5; ++it) {
    const double rate = 0.5 * (lo + hi);
    const auto trace =
        poisson_trace(scaled(600), rate, ds.size(), opt.seed + 10 + it);
    const serve::ServeReport rr = st->server->run(trace);
    account(trace, rr);
    ++probes;
    std::vector<double> l;
    collect_latencies(rr, &l);
    const bool ok = rr.completed == trace.size() &&
                    quantile(l, 0.99) <= kVggP99LimitMs * 1e3;
    (ok ? lo : hi) = rate;
  }

  const double p50 = quantile(lat, 0.5) / 1e3, p90 = quantile(lat, 0.9) / 1e3;
  const double p99 = quantile(lat, 0.99) / 1e3;
  r.set("throughput_per_s", sat_rps, "1/s");
  r.set("p50_ms", p50, "ms");
  r.set("p90_ms", p90, "ms");

  r.note("sat_rps", sat_rps, "1/s");
  r.note("capacity_rps", lo, "1/s");
  r.note("capacity_probes", static_cast<double>(probes), "count");
  r.note("p99_ms", p99, "ms");
  r.note("latency_samples", static_cast<double>(lat.size()), "count");
  r.note("fixed_rate_rps", kVggFixedRps, "1/s");
  r.note("p99_limit_ms", kVggP99LimitMs, "ms");
  r.note("serve.heap_allocs_per_req", allocs_per_req, "count");
  r.note("sent", static_cast<double>(sent), "count");
  r.note("succeeded", static_cast<double>(delivered - mismatched), "count");

  r.attempted = sent;
  r.failed = (sent - delivered) + mismatched;
  r.check("all_requests_delivered", delivered == sent);
  r.check("payloads_equal_unit_batch_reference", mismatched == 0);
  return r;
}

}  // namespace perfbench
