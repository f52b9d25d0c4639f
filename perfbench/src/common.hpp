// Shared pieces of the perfbench binary: the result record every workload
// fills, timing and order-statistic helpers, seeded input generators, and
// the model/serving configurations that several workloads and the per-layer
// probes must agree on.
#pragma once

#include "common/rng.hpp"
#include "crossbar/hw_deploy.hpp"
#include "data/dataset.hpp"
#include "gbo/gbo.hpp"
#include "models/mlp.hpp"
#include "models/vgg9.hpp"
#include "serve/policy.hpp"
#include "serve/router.hpp"
#include "serve/traffic.hpp"
#include "tensor/tensor.hpp"

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Heap allocations made by this process so far (every call of a replaced
/// global operator new; alloc_counter.cpp).
std::uint64_t heap_allocs();

struct Metric {
  double value = 0.0;
  std::string unit;
};

/// What one workload run reports. `metrics` goes into the result line;
/// `info` holds the workload's own named figures (printed as a JSON line
/// before the result), and `checks` every correctness check by name.
struct Result {
  std::map<std::string, Metric> metrics;
  std::map<std::string, Metric> info;
  std::map<std::string, bool> checks;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;

  void set(const std::string& name, double v, const std::string& unit) {
    metrics[name] = Metric{v, unit};
  }
  void note(const std::string& name, double v, const std::string& unit) {
    info[name] = Metric{v, unit};
  }
  void check(const std::string& name, bool ok) { checks[name] = ok; }
  bool correct() const {
    for (const auto& [name, ok] : checks)
      if (!ok) return false;
    return true;
  }
};

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
};

/// Median of a sample (copied); 0 for an empty sample.
double median(std::vector<double> v);
/// Nearest-rank quantile q in (0, 1] of a sample (copied).
double quantile(std::vector<double> v, double q);

/// Median wall time in microseconds of `reps` calls of fn (after one
/// untimed warm call).
template <typename F>
double time_us(std::size_t reps, F&& fn) {
  fn();
  std::vector<double> t;
  t.reserve(reps);
  for (std::size_t i = 0; i < reps; ++i) {
    const auto t0 = Clock::now();
    fn();
    t.push_back(seconds_since(t0) * 1e6);
  }
  return median(std::move(t));
}

bool bitwise_equal(const gbo::Tensor& a, const gbo::Tensor& b);
bool rows_equal(const gbo::Tensor& a, std::size_t ra, const gbo::Tensor& b,
                std::size_t rb);

gbo::Tensor random_tensor(std::vector<std::size_t> shape, std::uint64_t seed);

/// Seeded SynthCIFAR images matching the default VGG9 input (3x16x16).
gbo::data::Dataset synth_images(std::size_t n, std::uint64_t seed);

/// `trace` with every arrival due at t = 0 (the saturated replay).
std::vector<gbo::serve::Arrival> saturated(
    std::vector<gbo::serve::Arrival> trace);

/// Rows [first, first + n) of a dataset, copied.
gbo::data::Dataset slice(const gbo::data::Dataset& ds, std::size_t first,
                         std::size_t n);

// ---- models ---------------------------------------------------------------

/// The default VGG9 (w16, 16x16) with untrained seeded weights, eval mode.
gbo::models::Vgg9 build_vgg9();

/// The fleet model: binary MLP 24 -> 32 -> 32 -> 10 (fc2 crossbar-encoded)
/// plus its column-sharded pulse-level deployment.
struct FleetModel {
  gbo::models::Mlp mlp;
  std::unique_ptr<gbo::xbar::HardwareNetwork> hw;
};
FleetModel build_fleet_model();
/// Seeded fleet inputs: 128 uniform feature vectors of width 24.
gbo::data::Dataset fleet_dataset(std::uint64_t seed);

// ---- serving configurations -----------------------------------------------

inline constexpr std::size_t kServeWorkers = 3;  // + 1 producer = nproc (4)
inline constexpr double kVggFixedRps = 500.0;
inline constexpr double kVggP99LimitMs = 40.0;
inline constexpr std::size_t kFleetReplicas = 3;
inline constexpr std::uint64_t kFleetDeadlineUs = 15000;

gbo::serve::BatchPolicy batch_policy();
/// Open-loop Poisson trace at a fixed rate over a dataset of `ds_size`.
std::vector<gbo::serve::Arrival> poisson_trace(std::size_t n, double rps,
                                               std::size_t ds_size,
                                               std::uint64_t seed);
/// The flash-crowd trace of fleet_flash (14x spike), `n` requests.
std::vector<gbo::serve::Arrival> flash_trace(std::size_t n,
                                             std::size_t ds_size,
                                             std::uint64_t seed);
gbo::serve::ServeConfig fleet_config();
gbo::serve::RouterPolicy fleet_router();
/// λ-only GBO training configuration of gbo_search (one step per call).
gbo::opt::GboConfig gbo_config();
/// The fixed-seed λ batches whose steps select gbo_search's evaluation
/// pulse vector (independent of --seed, so every seed evaluates the same
/// binary/float route mix).
std::vector<gbo::data::Dataset> gbo_selection_batches();

// ---- workloads --------------------------------------------------------------

Result run_vgg9_serve(const Options& opt);
Result run_fleet_flash(const Options& opt);
Result run_gbo_search(const Options& opt);
/// The traced run: every per-layer metric, the same suite for every
/// workload (the layers are timed from outside through public calls).
Result run_layer_probes(const Options& opt);

}  // namespace perfbench
