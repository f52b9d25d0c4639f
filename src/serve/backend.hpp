// Inference backends the serving runtime can drive.
//
// A Backend is a const view over a frozen model: run() must be safe to call
// concurrently from many workers as long as each passes its own EvalContext
// (the same contract as nn::Module::infer). Two implementations cover the
// repository's execution modes:
//
//   * AnalyticBackend — the host network through the stateless infer path;
//     with noise hooks attached this is the paper's analytic Eq. 2–4 noisy
//     evaluation, without them it is clean digital inference.
//   * PulseBackend — a deployed HardwareNetwork at pulse granularity
//     (device model, ADC, read noise included) via its const forward.
//
// Under the SLO control plane (serve/policy.hpp, DESIGN.md §7) the server
// holds two backends: the *primary* (typically PulseBackend) serves full-
// fidelity traffic, and a cheaper *degraded* backend (typically the
// analytic model) is the fidelity-ladder fallback under overload, breaker
// quarantine, or exhausted retries. Both are plain Backends — nothing here
// knows about the ladder; routing is the control plane's job.
//
// Every backend runs each micro-batch as one whole-tensor call. Clean
// inference is row-equal to unit batches because every kernel in the infer
// path computes each batch row independently (row-stable GEMM dispatch,
// per-sample im2col/BN/pooling, elementwise activations). Noisy inference
// is too, because every noise site keys a row's noise by its request id
// (EvalContext::row_ids, DESIGN.md §3). tests/test_serve.cpp enforces
// both halves of this batching-boundary contract.
#pragma once

#include "crossbar/crossbar_layers.hpp"
#include "crossbar/hw_deploy.hpp"
#include "nn/eval_context.hpp"
#include "nn/sequential.hpp"

#include <string>

namespace gbo::serve {

/// Has one value and no effect: every batch fuses. Kept only because the
/// benchmark harness under perfbench/ still overrides fusion_mode().
enum class FusionMode { kFused };

class Backend {
 public:
  virtual ~Backend() = default;

  virtual std::string name() const = 0;

  /// True when run()'s results do not depend on ctx.rng or ctx.row_ids.
  virtual bool deterministic() const = 0;

  /// No effect; see FusionMode.
  virtual FusionMode fusion_mode() const { return FusionMode::kFused; }

  /// Logits for a [B, ...] input batch. Must not mutate shared state.
  virtual Tensor run(const Tensor& x, nn::EvalContext& ctx) const = 0;
};

/// Host network through nn::Module::infer. `stochastic` must be true
/// whenever attached noise hooks will draw from the context (e.g. a
/// LayerNoiseController with sigma > 0 and noise enabled). The flag is a
/// promise about *intent*; deterministic() additionally walks the whole
/// module tree (Hookable hooks, CrossbarLinear engines, nested containers
/// via Module::children), so a forgotten flag cannot hide live noise hooks.
class AnalyticBackend : public Backend {
 public:
  AnalyticBackend(const nn::Sequential& net, bool stochastic = true)
      : net_(net), stochastic_(stochastic) {}

  std::string name() const override {
    return stochastic_ ? "analytic_noisy" : "analytic_clean";
  }
  bool deterministic() const override {
    return !stochastic_ && !module_stochastic(net_);
  }
  Tensor run(const Tensor& x, nn::EvalContext& ctx) const override {
    return net_.infer(x, ctx);
  }

 private:
  static bool module_stochastic(const nn::Module& m) {
    if (const auto* h = dynamic_cast<const quant::Hookable*>(&m))
      if (h->noise_hook() != nullptr && h->noise_hook()->stochastic())
        return true;
    if (const auto* cl = dynamic_cast<const xbar::CrossbarLinear*>(&m)) {
      const xbar::MvmConfig& cfg = cl->engine().config();
      if (cfg.sigma > 0.0 || cfg.device.read_noise_sigma > 0.0) return true;
    }
    for (const nn::Module* child : m.children())
      if (module_stochastic(*child)) return true;
    return false;
  }

  const nn::Sequential& net_;
  bool stochastic_;
};

/// Deployed crossbar hardware at pulse granularity (shared-safe const
/// forward over the frozen programmed engines).
class PulseBackend : public Backend {
 public:
  explicit PulseBackend(const xbar::HardwareNetwork& hw) : hw_(hw) {}

  std::string name() const override { return "pulse"; }
  bool deterministic() const override { return hw_.deterministic(); }
  Tensor run(const Tensor& x, nn::EvalContext& ctx) const override {
    return hw_.forward(x, ctx);
  }

 private:
  const xbar::HardwareNetwork& hw_;
};

}  // namespace gbo::serve
