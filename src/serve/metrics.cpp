#include "serve/metrics.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "common/table.hpp"

namespace gbo::serve {

std::string hex64(std::uint64_t v) {
  char buf[19];
  std::snprintf(buf, sizeof buf, "0x%016llx",
                static_cast<unsigned long long>(v));
  return std::string(buf);
}

namespace {

double nearest_rank(const std::vector<std::uint64_t>& sorted, double q) {
  if (sorted.empty()) return 0.0;
  const std::size_t n = sorted.size();
  // Nearest-rank definition: the ceil(q*n)-th smallest sample (1-based).
  std::size_t rank =
      static_cast<std::size_t>(std::ceil(q * static_cast<double>(n)));
  if (rank == 0) rank = 1;
  if (rank > n) rank = n;
  return static_cast<double>(sorted[rank - 1]);
}

}  // namespace

LatencyStats LatencyStats::compute(std::vector<std::uint64_t> samples) {
  LatencyStats s;
  s.count = samples.size();
  if (samples.empty()) return s;
  std::sort(samples.begin(), samples.end());
  s.p50_us = nearest_rank(samples, 0.50);
  s.p95_us = nearest_rank(samples, 0.95);
  s.p99_us = nearest_rank(samples, 0.99);
  s.max_us = static_cast<double>(samples.back());
  double acc = 0.0;
  for (std::uint64_t v : samples) acc += static_cast<double>(v);
  s.mean_us = acc / static_cast<double>(samples.size());
  return s;
}

Json LatencyStats::to_json() const {
  Json j = Json::object();
  j.set("p50_us", p50_us);
  j.set("p95_us", p95_us);
  j.set("p99_us", p99_us);
  j.set("mean_us", mean_us);
  j.set("max_us", max_us);
  j.set("count", count);
  return j;
}

Json ArenaSummary::to_json() const {
  Json j = Json::object();
  j.set("system_allocs", system_allocs);
  j.set("steady_allocs", steady_allocs);
  j.set("high_water_bytes", high_water_bytes);
  j.set("reserved_bytes", reserved_bytes);
  return j;
}

Json SloSummary::to_json() const {
  Json j = Json::object();
  j.set("enabled", enabled);
  Json plan = Json::object();
  plan.set("admitted", admitted);
  plan.set("served", served);
  plan.set("served_primary", served_primary);
  plan.set("served_canary", served_canary);
  plan.set("degraded_ladder", degraded_ladder);
  plan.set("degraded_breaker", degraded_breaker);
  plan.set("degraded_fallback", degraded_fallback);
  plan.set("shed_expired", shed_expired);
  plan.set("shed_overload", shed_overload);
  plan.set("rejected_capacity", rejected_capacity);
  plan.set("evicted", evicted);
  plan.set("retried_requests", retried_requests);
  plan.set("faults_injected", faults_injected);
  plan.set("late_virtual", late_virtual);
  plan.set("breaker_opens", breaker_opens);
  plan.set("ladder_transitions", ladder_transitions);
  plan.set("final_ladder_level", final_ladder_level);
  plan.set("max_ladder_level", max_ladder_level);
  plan.set("max_virtual_depth", max_virtual_depth);
  plan.set("deadline_us", deadline_us);
  plan.set("shed_set_hash", hex64(shed_set_hash));
  plan.set("virtual_latency", virtual_latency.to_json());
  Json vp = Json::array();
  for (const auto& st : virtual_by_priority) vp.push_back(st.to_json());
  plan.set("virtual_by_priority", vp);
  j.set("plan", plan);
  Json exec = Json::object();
  exec.set("delivered", exec_delivered);
  exec.set("shed", exec_shed);
  exec.set("retried", exec_retried);
  exec.set("faults", exec_faults);
  exec.set("fallbacks", exec_fallbacks);
  exec.set("degraded", exec_degraded);
  exec.set("stalls", exec_stalls);
  exec.set("shed_set_hash", hex64(exec_shed_set_hash));
  Json rp = Json::array();
  for (const auto& st : real_by_priority) rp.push_back(st.to_json());
  exec.set("real_by_priority", rp);
  j.set("exec", exec);
  return j;
}

Json SwapSummary::to_json() const {
  Json j = Json::object();
  j.set("enabled", enabled);
  j.set("rolled_back", rolled_back);
  j.set("from_version", from_version);
  j.set("to_version", to_version);
  j.set("canary_replica", static_cast<std::size_t>(canary_replica));
  j.set("start_us", start_us);
  j.set("verdict_us", verdict_us);
  j.set("canary_served", canary_served);
  j.set("canary_faults", canary_faults);
  j.set("breaker_opens", breaker_opens);
  j.set("latency_breach", latency_breach);
  j.set("cutovers", cutovers);
  j.set("version_hash", hex64(version_hash));
  Json by = Json::array();
  for (const auto& e : served_by_version) {
    Json v = Json::object();
    v.set("version", e.first);
    v.set("served", e.second);
    by.push_back(v);
  }
  j.set("served_by_version", by);
  return j;
}

Json ServeReport::to_json() const {
  Json j = Json::object();
  j.set("requests", requests);
  j.set("completed", completed);
  j.set("workers", workers);
  j.set("wall_s", wall_s);
  j.set("throughput_rps", throughput_rps);
  j.set("latency", latency.to_json());
  Json q = Json::object();
  q.set("pushes", queue.pushes);
  q.set("max_depth", queue.max_depth);
  q.set("mean_depth", queue.mean_depth);
  q.set("rejected", queue.rejected);
  q.set("evicted", queue.evicted);
  q.set("sheds", queue.sheds);
  j.set("queue", q);
  Json hist = Json::array();
  for (std::size_t b = 0; b < batch_hist.size(); ++b) {
    if (batch_hist[b] == 0) continue;
    Json e = Json::object();
    e.set("batch", b);
    e.set("count", batch_hist[b]);
    hist.push_back(e);
  }
  j.set("batch_hist", hist);
  j.set("mean_batch", mean_batch);
  j.set("exec_calls", exec_calls);
  j.set("mean_exec_batch", mean_exec_batch);
  j.set("arena", arena.to_json());
  if (slo.enabled) j.set("slo", slo.to_json());
  if (swap.enabled) j.set("swap", swap.to_json());
  return j;
}

std::vector<std::string> report_header() {
  return {"backend",    "p50 us",    "p95 us",    "p99 us",
          "tput rps",   "mean batch", "max queue", "steady allocs"};
}

std::vector<std::string> report_row(const std::string& label,
                                    const ServeReport& r) {
  return {label,
          Table::fmt(r.latency.p50_us, 0),
          Table::fmt(r.latency.p95_us, 0),
          Table::fmt(r.latency.p99_us, 0),
          Table::fmt(r.throughput_rps, 0),
          Table::fmt(r.mean_batch, 2),
          std::to_string(r.queue.max_depth),
          std::to_string(r.arena.steady_allocs)};
}

std::string slo_exec_summary(const std::string& label, const ServeReport& r) {
  char buf[160];
  std::snprintf(buf, sizeof buf,
                "  %-9s: delivered %zu, shed %zu, fingerprint %s\n",
                label.c_str(), r.completed, r.slo.exec_shed,
                hex64(r.slo.exec_shed_set_hash).c_str());
  return std::string(buf);
}

std::vector<std::string> version_report_header() {
  return {"version", "served", "role", "canary served", "canary faults"};
}

std::vector<std::vector<std::string>> version_report_rows(
    const ServeReport& r) {
  std::vector<std::vector<std::string>> rows;
  if (!r.swap.enabled) return rows;
  for (const auto& e : r.swap.served_by_version) {
    const bool is_to = e.first == r.swap.to_version;
    rows.push_back({std::to_string(e.first), std::to_string(e.second),
                    is_to ? (r.swap.rolled_back ? "candidate (rolled back)"
                                                : "candidate (promoted)")
                          : "incumbent",
                    is_to ? std::to_string(r.swap.canary_served) : "-",
                    is_to ? std::to_string(r.swap.canary_faults) : "-"});
  }
  return rows;
}

}  // namespace gbo::serve
