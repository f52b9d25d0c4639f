// perfbench — the repository benchmark.
//
//   perfbench --workload <vgg9_serve|fleet_flash|gbo_search> --seed <n>
//             --seconds <s> --trace <0|1>
//
// --trace 0 runs the workload and reports its end-to-end metrics; --trace 1
// runs the per-layer probe suite instead. Every run first prints a host
// calibration line and the workload's own named figures, each as one JSON
// line; the LAST line of standard output is always the result object
// {"correct", "attempted", "failed", "metrics"}. The exit code is nonzero
// when any correctness check fails or the arguments are invalid.
#include "common.hpp"

#include "common/logging.hpp"
#include "common/thread_pool.hpp"
#include "tensor/gemm_binary.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <string>

namespace {

using namespace perfbench;

/// A fixed dependent multiply-add chain over a small array: pure compute,
/// no allocation, fits in L1. Returns elapsed seconds.
double compute_loop(std::size_t iters) {
  float v[256];
  for (std::size_t i = 0; i < 256; ++i) v[i] = 1.0f + 1e-3f * i;
  const auto t0 = Clock::now();
  for (std::size_t it = 0; it < iters; ++it)
    for (std::size_t i = 0; i < 256; ++i) v[i] = v[i] * 0.999f + 1e-3f;
  volatile float sink = v[17];
  (void)sink;
  return seconds_since(t0);
}

struct Host {
  double st_score = 0.0;   // single-thread Mflop/s of compute_loop
  double scaling = 0.0;    // aggregate rate at pool width / single rate
  double spread_pct = 0.0; // (max - min) / median of the single-thread reps
  std::size_t threads = 0;
};

Host calibrate() {
  constexpr std::size_t kIters = 10000000;
  const double flops = 2.0 * 256.0 * kIters;
  std::vector<double> rates;
  for (int rep = 0; rep < 5; ++rep)
    rates.push_back(flops / compute_loop(kIters) / 1e6);
  Host h;
  h.st_score = median(rates);
  const auto [mn, mx] = std::minmax_element(rates.begin(), rates.end());
  h.spread_pct = 100.0 * (*mx - *mn) / h.st_score;

  gbo::ThreadPool& pool = gbo::ThreadPool::instance();
  h.threads = pool.num_threads();
  const auto t0 = Clock::now();
  pool.parallel_for(0, h.threads, 1, [&](std::size_t lo, std::size_t hi) {
    for (std::size_t b = lo; b < hi; ++b) (void)compute_loop(kIters);
  });
  const double agg = flops * static_cast<double>(h.threads) /
                     seconds_since(t0) / 1e6;
  h.scaling = agg / h.st_score;
  return h;
}

void print_metric_map(const std::map<std::string, Metric>& m) {
  std::printf("{");
  bool first = true;
  for (const auto& [name, metric] : m) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                first ? "" : ", ", name.c_str(), metric.value,
                metric.unit.c_str());
    first = false;
  }
  std::printf("}");
}

bool parse(int argc, char** argv, Options* opt) {
  bool have_workload = false, have_trace = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i], val = argv[i + 1];
    char* end = nullptr;
    if (key == "--workload") {
      opt->workload = val;
      have_workload = true;
    } else if (key == "--seed") {
      opt->seed = std::strtoull(val.c_str(), &end, 10);
      if (*end != '\0') return false;
    } else if (key == "--seconds") {
      opt->seconds = std::strtod(val.c_str(), &end);
      if (*end != '\0' || !(opt->seconds > 0.0) || opt->seconds > 600.0)
        return false;
    } else if (key == "--trace") {
      if (val != "0" && val != "1") return false;
      opt->trace = val == "1";
      have_trace = true;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && have_workload && have_trace &&
         (opt->workload == "vgg9_serve" || opt->workload == "fleet_flash" ||
          opt->workload == "gbo_search");
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  if (!parse(argc, argv, &opt)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload <vgg9_serve|fleet_flash|"
                 "gbo_search> --seed <n> --seconds <s> --trace <0|1>\n");
    return 2;
  }

  gbo::set_log_level(gbo::LogLevel::kWarn);
  const Host host = calibrate();
  std::printf(
      "{\"host\": {\"st_mflops\": %.6g, \"scaling_%zut\": %.4g, "
      "\"spread_pct\": %.4g, \"pool_threads\": %zu, \"binary_kernel\": "
      "\"%s\", \"cpu_features\": \"%s\"}}\n",
      host.st_score, host.threads, host.scaling, host.spread_pct,
      host.threads, gbo::gemm::binary_kernel_name(),
      gbo::gemm::cpu_features().c_str());
  std::fflush(stdout);

  Result r;
  try {
    if (opt.trace) {
      r = run_layer_probes(opt);
      r.set("host.st_mflops", host.st_score, "Mflop/s");
      r.set("host.scaling", host.scaling, "x");
      r.set("host.spread_pct", host.spread_pct, "%");
    } else if (opt.workload == "vgg9_serve") {
      r = run_vgg9_serve(opt);
    } else if (opt.workload == "fleet_flash") {
      r = run_fleet_flash(opt);
    } else {
      r = run_gbo_search(opt);
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s failed: %s\n", opt.workload.c_str(),
                 e.what());
    return 1;
  }

  bool finite = true;
  for (auto& [name, m] : r.metrics)
    if (!std::isfinite(m.value)) {
      std::fprintf(stderr, "perfbench: metric %s is not finite\n",
                   name.c_str());
      m.value = 0.0;
      finite = false;
    }
  r.check("finite_metrics", finite);

  std::printf("{\"workload\": \"%s\", \"seed\": %llu, \"trace\": %d, "
              "\"figures\": ",
              opt.workload.c_str(), static_cast<unsigned long long>(opt.seed),
              opt.trace ? 1 : 0);
  print_metric_map(r.info);
  std::printf(", \"checks\": {");
  bool first = true;
  for (const auto& [name, ok] : r.checks) {
    std::printf("%s\"%s\": %s", first ? "" : ", ", name.c_str(),
                ok ? "true" : "false");
    first = false;
  }
  std::printf("}}\n");

  const bool correct = r.correct();
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": ",
              correct ? "true" : "false",
              static_cast<unsigned long long>(std::max<std::uint64_t>(
                  r.attempted, 1)),
              static_cast<unsigned long long>(r.failed));
  print_metric_map(r.metrics);
  std::printf("}\n");
  return correct ? 0 : 1;
}
