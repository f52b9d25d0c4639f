// Per-trial scratch state for the stateless inference path.
//
// Module::infer(x, ctx) is const on the module: all shared state (weights,
// BN running stats, hook configuration) is read-only, and everything a
// forward pass mutates — above all the randomness consumed by crossbar
// noise hooks and pulse-level engines — lives in the EvalContext instead.
// Any number of contexts can therefore run forward passes over the same
// network concurrently (one context per noise-draw trial on the shared
// thread pool, see core/pipeline.hpp, or one per serving worker, see
// serve/server.hpp).
//
// RNG-fork contract (DESIGN.md §3): a trial's context is seeded as
// fork(seed, trial_id) from a controller-owned root stream, so trial t
// draws an identical noise stream whether trials run sequentially or in
// parallel, at any thread count. Within one forward pass every noise site
// takes one key per call from ctx.rng in network order, which is fixed,
// and its normals are a pure function of (key, index) — so a (seed,
// trial_id) pair fully determines every sample of the trial.
//
// Row ids (DESIGN.md §3): a serving batch carries one request id per
// sample. Each site then splits its noise into per-request row groups
// keyed by (site key, request id), so a request's noise does not depend on
// which other requests share its batch.
//
// Scratch arena (DESIGN.md §4): a long-lived context may attach a
// worker-owned ScratchArena; the layers then route their temporaries
// (im2col patch matrices, binarized weights, activation outputs) through
// it via make()/recycle() and ArenaFrame, making steady-state inference
// allocation-free. The arena never changes arithmetic — infer results are
// bitwise identical with and without one.
#pragma once

#include "common/rng.hpp"
#include "tensor/arena.hpp"

#include <cstdint>
#include <type_traits>
#include <vector>

namespace gbo::nn {

struct EvalContext {
  /// Deterministic per-context stream; every stochastic component of the
  /// inference path (noise hooks, pulse-level crossbar reads) takes one
  /// key per call from it, in network order.
  Rng rng;

  /// Request ids of the batch rows. Empty: the batch is one noise group.
  /// Otherwise the batch splits into row_ids.size() equal groups of rows
  /// (a conv layer's group is one sample's oh·ow patch rows), and group j's
  /// noise at a site is keyed by (site key, row_ids[j]) and indexed from 0,
  /// so it is bitwise what a unit batch with {row_ids[j]} draws.
  std::vector<std::uint64_t> row_ids;

  /// Optional worker-owned scratch arena (never shared between threads);
  /// nullptr preserves the plain allocating behaviour exactly.
  ScratchArena* arena = nullptr;

  EvalContext() = default;
  explicit EvalContext(Rng r) : rng(r) {}
  EvalContext(Rng r, ScratchArena* a) : rng(r), arena(a) {}

  /// An output/temporary tensor of `shape`, recycled from the arena when
  /// one is attached. Contents are unspecified — callers fully overwrite.
  Tensor make(const std::vector<std::size_t>& shape) {
    return arena ? arena->take(shape) : Tensor(shape);
  }
  Tensor make(std::initializer_list<std::size_t> shape) {
    return arena ? arena->take(shape) : Tensor(shape);
  }

  /// Returns a finished intermediate to the arena (no-op without one).
  void recycle(Tensor&& t) {
    if (arena) arena->put(std::move(t));
  }
};

/// n elements of in-layer scratch (floats or packed words): bump memory
/// inside the caller's ArenaFrame when the context carries an arena, `own`
/// otherwise.
template <typename T>
T* scratch(EvalContext& ctx, std::size_t n, std::vector<T>& own) {
  static_assert(std::is_same_v<T, float> || std::is_same_v<T, std::uint64_t>);
  if (ctx.arena) {
    if constexpr (std::is_same_v<T, float>)
      return ctx.arena->alloc_floats(n);
    else
      return ctx.arena->alloc_words(n);
  }
  own.resize(n);
  return own.data();
}

}  // namespace gbo::nn
