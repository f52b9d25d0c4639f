// fleet_flash: a 3-replica ReplicaGroup, hash routing, replica 1 in outage,
// SLO on. Primary is the column-sharded pulse-level MLP 24 -> 32 -> 32 -> 10
// (PulseBackend), fallback the analytic MLP. Per-request compute is tiny, so
// the serving layers (planner, router, queue, micro-batcher, executor) and
// the pulse engine dominate; the binary conv route is absent.
//
// The open-loop flash-crowd trace (6000 requests, 14x spike) is replayed
// several times. Each replay must
// deliver exactly the planned served count, with routing and shed hashes
// equal to plan_trace() and payloads equal to the first replay's.
#include "common.hpp"

#include <algorithm>
#include <cmath>

namespace perfbench {

using namespace gbo;

namespace {

struct FleetStack {
  FleetModel model = build_fleet_model();
  serve::PulseBackend primary{*model.hw};
  serve::AnalyticBackend fallback{*model.mlp.net, /*stochastic=*/false};
  std::unique_ptr<serve::ReplicaGroup> group;

  explicit FleetStack(const data::Dataset& ds) {
    group = std::make_unique<serve::ReplicaGroup>(serve::ServerSpec{}
                                                      .primary(primary)
                                                      .degraded(fallback)
                                                      .dataset(ds)
                                                      .config(fleet_config())
                                                      .replicas(kFleetReplicas)
                                                      .router(fleet_router()));
  }
};

}  // namespace

Result run_fleet_flash(const Options& opt) {
  Result r;
  const data::Dataset ds = fleet_dataset(opt.seed);
  const auto trace = flash_trace(6000, ds.size(), opt.seed + 1);
  const auto warm_trace = flash_trace(600, ds.size(), opt.seed + 2);
  const std::size_t replays = static_cast<std::size_t>(
      std::clamp(std::lround(opt.seconds / 3.8), 1L, 16L));

  std::vector<double> setup, plan_ms;
  std::unique_ptr<FleetStack> st;
  serve::RouterPlan plan;
  for (int rep = 0; rep < 3; ++rep) {
    st.reset();
    const auto t0 = Clock::now();
    st = std::make_unique<FleetStack>(ds);
    st->group->warmup();
    const auto tp = Clock::now();
    plan = st->group->plan_trace(trace);
    plan_ms.push_back(seconds_since(tp) * 1e3);
    (void)st->group->run(warm_trace);
    setup.push_back(seconds_since(t0));
  }
  r.set("setup_s", median(setup), "s");

  std::vector<double> lat, goodput, p50s, p90s;
  std::uint64_t sent = 0, delivered = 0, in_deadline = 0, bad_rows = 0;
  bool routing_ok = true, shed_ok = true, served_ok = true;
  Tensor first;
  const std::uint64_t allocs0 = heap_allocs();
  for (std::size_t rep = 0; rep < replays; ++rep) {
    const serve::RouterReport rr = st->group->run(trace);
    const serve::ServeReport& s = rr.serve;
    std::uint64_t ok = 0;
    std::vector<double> replay_lat;
    for (std::uint64_t l : s.latencies_us) {
      if (l == 0) continue;
      replay_lat.push_back(static_cast<double>(l));
      if (l <= kFleetDeadlineUs) ++ok;
    }
    p50s.push_back(quantile(replay_lat, 0.5) / 1e3);
    p90s.push_back(quantile(replay_lat, 0.9) / 1e3);
    lat.insert(lat.end(), replay_lat.begin(), replay_lat.end());
    sent += trace.size();
    delivered += s.slo.exec_delivered;
    in_deadline += ok;
    goodput.push_back(static_cast<double>(ok) / s.wall_s);
    served_ok = served_ok && s.slo.exec_delivered == plan.counters.served;
    routing_ok = routing_ok && rr.routing_hash == plan.routing_hash;
    shed_ok = shed_ok && s.slo.exec_shed_set_hash == plan.shed_set_hash;
    for (const serve::ReplicaStats& rs : rr.replicas)
      shed_ok = shed_ok && rs.exec_shed_set_hash == rs.plan_shed_set_hash;
    if (rep == 0) {
      first = s.outputs;
    } else {
      for (std::size_t i = 0; i < trace.size(); ++i)
        if (!rows_equal(s.outputs, i, first, i)) ++bad_rows;
    }
  }
  const double allocs_per_req =
      static_cast<double>(heap_allocs() - allocs0) / static_cast<double>(sent);

  // The spike's backlog varies from replay to replay, so the tracked
  // percentiles are medians over replays; p99 is pooled.
  const double p50 = median(p50s), p90 = median(p90s);
  const double p99 = quantile(lat, 0.99) / 1e3;
  r.set("throughput_per_s", median(goodput), "1/s");
  r.set("p50_ms", p50, "ms");
  r.set("p90_ms", p90, "ms");

  r.note("slo_ok_share",
         static_cast<double>(in_deadline) / static_cast<double>(sent), "1");
  r.note("goodput_rps", median(goodput), "1/s");
  r.note("p99_ms", p99, "ms");
  r.note("latency_samples", static_cast<double>(lat.size()), "count");
  r.note("replays", static_cast<double>(replays), "count");
  r.note("deadline_ms", kFleetDeadlineUs / 1e3, "ms");
  r.note("serve.plan_ms", median(plan_ms), "ms");
  r.note("serve.heap_allocs_per_req", allocs_per_req, "count");
  r.note("planned_served", static_cast<double>(plan.counters.served), "count");
  r.note("planned_degraded",
         static_cast<double>(plan.counters.degraded_ladder +
                             plan.counters.degraded_breaker +
                             plan.counters.degraded_fallback),
         "count");
  r.note("active_replicas", static_cast<double>(plan.active_replicas),
         "count");
  r.note("sent", static_cast<double>(sent), "count");
  r.note("succeeded", static_cast<double>(delivered - bad_rows), "count");

  r.attempted = sent;
  r.failed = (sent - delivered) + bad_rows;
  r.check("completed_equals_planned_served", served_ok);
  r.check("routing_hash_equals_plan", routing_ok);
  r.check("shed_hashes_equal_plan", shed_ok);
  r.check("payloads_repeat_across_replays", bad_rows == 0);
  return r;
}

}  // namespace perfbench
