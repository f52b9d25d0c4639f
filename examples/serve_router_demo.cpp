// Multi-replica serving demo (DESIGN.md §10): put N replicas of a deployed
// backend pair behind the deterministic router and drive a flash crowd
// through an outage — one replica is down for the whole run, the autoscaler
// activates replicas off the planner's queue-depth metric, and every
// routing decision, per-replica shed set, and payload bit is reproducible
// from (seed, trace, policy).
//
//   ./serve_router_demo [--trace-out PREFIX]
//
// With --trace-out, the run is exported as a Chrome trace-event JSON
// (<prefix>router.json) loadable in chrome://tracing or Perfetto.
#include "common/cli.hpp"
#include "common/logging.hpp"
#include "common/table.hpp"
#include "common/thread_pool.hpp"
#include "models/mlp.hpp"
#include "obs/export.hpp"
#include "obs/trace.hpp"
#include "serve/router.hpp"
#include "tensor/ops.hpp"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <string>

int main(int argc, char** argv) {
  using namespace gbo;
  CliParser cli("serve_router_demo", "Sharded multi-replica serving demo.");
  add_serve_trace_flags(cli);
  if (!cli.parse(argc, argv)) return cli.exit_code();
  const std::string trace_out = cli.get_string("trace-out", "");
  set_log_level(LogLevel::kWarn);

  models::MlpConfig mcfg;
  mcfg.in_features = 24;
  mcfg.hidden = {32, 32};
  mcfg.num_classes = 10;
  mcfg.seed = 21;
  models::Mlp model = models::build_mlp(mcfg);
  model.net->set_training(false);
  models::MlpConfig dcfg = mcfg;
  dcfg.hidden = {16};
  dcfg.seed = 22;
  models::Mlp small = models::build_mlp(dcfg);
  small.net->set_training(false);

  data::Dataset ds;
  Rng drng(43);
  ds.images = Tensor({128, mcfg.in_features});
  ops::fill_uniform(ds.images, drng, -1.0f, 1.0f);
  ds.labels.assign(128, 0);

  serve::AnalyticBackend primary(*model.net, /*stochastic=*/false);
  serve::AnalyticBackend fallback(*small.net, /*stochastic=*/false);

  serve::TrafficConfig tcfg;
  tcfg.num_requests = 360;
  tcfg.rate_rps = 1800.0;
  tcfg.shape = serve::TraceShape::kFlashCrowd;
  tcfg.flash_factor = 10.0;
  tcfg.flash_start_s = 0.04;
  tcfg.flash_ramp_s = 0.005;
  tcfg.flash_hold_s = 0.02;
  tcfg.high_fraction = 0.2;
  tcfg.low_fraction = 0.3;
  tcfg.seed = 101;
  const auto trace = serve::make_trace(tcfg, ds.size());

  serve::ServeConfig cfg;
  cfg.batch.max_batch = 8;
  cfg.num_workers = 2;
  cfg.seed = 29;
  cfg.slo.enabled = true;
  cfg.slo.deadline_us = 15000;
  cfg.slo.completion_headroom_us = 9000;
  cfg.slo.queue.capacity = 64;
  cfg.slo.queue.on_full = serve::QueuePolicy::OnFull::kDropOldest;
  cfg.slo.cost.primary_us = 500;
  cfg.slo.cost.degraded_us = 100;
  cfg.slo.ladder.degrade_depth = 8;
  cfg.slo.ladder.shed_depth = 30;
  cfg.slo.ladder.recover_depth = 2;
  cfg.slo.ladder.shed_floor = serve::Priority::kNormal;

  serve::RouterPolicy router;
  router.strategy = serve::RouterPolicy::Strategy::kRoundRobin;
  router.min_replicas = 1;
  router.scale_depth = 24;  // autoscale off planned queue depth
  // Replica 1 is down for the run (fault id == replica index).
  router.fault.enabled = true;
  router.fault.outage_start_id = 1;
  router.fault.outage_len = 1;

  serve::ReplicaGroup group(serve::ServerSpec{}
                                .primary(primary)
                                .degraded(fallback)
                                .dataset(ds)
                                .config(cfg)
                                .replicas(4)
                                .router(router));

  // The fleet plan, before anything runs.
  const serve::RouterPlan rp = group.plan_trace(trace);
  std::printf(
      "Planned %zu requests across %zu deployed replicas "
      "(%zu alive -> %zu activated by the autoscaler):\n",
      trace.size(), rp.total_replicas,
      static_cast<std::size_t>(
          std::count(rp.alive.begin(), rp.alive.end(), std::uint8_t{1})),
      rp.active_replicas);
  std::printf("  routing hash %s, fleet shed-set hash %s\n\n",
              serve::hex64(rp.routing_hash).c_str(),
              serve::hex64(rp.shed_set_hash).c_str());

  std::printf("Executing on %zu pool threads...\n",
              ThreadPool::instance().num_threads());
  obs::begin_session();
  const serve::RouterReport rep = group.run(trace);
  const obs::TraceSnapshot snap = obs::end_session();

  Table t({"replica", "alive", "active", "assigned", "delivered", "shed",
           "shed hash == plan", "steady allocs"});
  bool per_replica_ok = true;
  for (std::size_t r = 0; r < rep.replicas.size(); ++r) {
    const serve::ReplicaStats& rs = rep.replicas[r];
    const bool ok = rs.exec_shed_set_hash == rs.plan_shed_set_hash;
    per_replica_ok = per_replica_ok && ok;
    t.add_row({std::to_string(r), rs.alive ? "yes" : "no",
               rs.active ? "yes" : "no", std::to_string(rs.assigned),
               std::to_string(rs.delivered), std::to_string(rs.shed),
               ok ? "yes" : "NO", std::to_string(rs.steady_allocs)});
  }
  std::printf("%s\n", t.to_text().c_str());
  std::printf("%s", serve::slo_exec_summary("fleet", rep.serve).c_str());
  std::printf("  routing hash:  %s (matches plan: %s)\n",
              serve::hex64(rep.routing_hash).c_str(),
              rep.routing_hash == rp.routing_hash ? "yes" : "NO");
  std::printf("  per-replica shed sets match their sub-plans: %s\n",
              per_replica_ok ? "yes" : "NO");
  if (obs::runtime_enabled()) {
    const std::uint64_t fp = obs::causal_fingerprint(snap.events);
    const std::uint64_t want = serve::expected_causal_fingerprint(rp);
    std::printf("  causal trace fingerprint: %s (matches fleet oracle: %s)\n",
                serve::hex64(fp).c_str(), fp == want ? "yes" : "NO");
    if (!trace_out.empty()) {
      const std::string path = trace_out + "router.json";
      if (obs::write_chrome_trace(snap, path, "serve_router_demo"))
        std::printf("  wrote %s\n", path.c_str());
    }
  }
  std::printf(
      "\nRouting, per-replica shed sets, and payloads are pure functions of\n"
      "(seed, trace, policy): a rerouted request (outage, autoscale step)\n"
      "served at the same fidelity keeps its payload bits, because every\n"
      "replica shares the payload seed and payloads depend only on\n"
      "(seed, request id, mode). See bench_serve --router-json for the\n"
      "CI gates.\n");
  return per_replica_ok && rep.routing_hash == rp.routing_hash ? 0 : 1;
}
