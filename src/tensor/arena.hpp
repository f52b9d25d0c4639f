// Per-worker scratch arena for the stateless inference path.
//
// A long-lived serving worker runs the same network shapes request after
// request; the general-purpose allocator is pure overhead on that loop. The
// arena gives the infer path two recycled memory sources:
//
//  * a bump-pointer region for raw in-layer scratch (im2col patch matrices,
//    GEMM row buffers, binarized weights, pre-drawn pulse noise). ArenaFrame
//    saves/restores the bump offset around each layer, so the region's
//    footprint is the *maximum* single-layer need, not the sum, and memory
//    is reused across layers and requests without ever being freed;
//  * a tensor recycler for the Tensor values that flow between layers
//    (activation outputs, hook input copies). take() re-uses a pooled
//    buffer's capacity in place; put() returns a finished intermediate.
//
// Neither source changes any arithmetic: arena-backed buffers are always
// fully overwritten before use, so infer(x, ctx) is bitwise identical with
// and without an arena (tests/test_arena.cpp).
//
// Lifetime rules (DESIGN.md §4): an arena belongs to exactly one worker
// thread — arenas are never shared, so none of this is locked. Bump
// pointers are valid only inside the ArenaFrame that allocated them.
// Chunks are only released at destruction; after a warm-up request has
// sized the chunks and the pool, steady-state serving performs zero heap
// allocations from the arena (stats() makes that auditable).
#pragma once

#include "tensor/tensor.hpp"

#include <cstddef>
#include <cstdint>
#include <initializer_list>
#include <memory>
#include <vector>

namespace gbo {

class ScratchArena {
 public:
  struct Stats {
    /// Heap allocations taken on behalf of arena users: bump chunk
    /// allocations plus tensor-pool misses and capacity growths. Flat in
    /// steady state — the serving bench gates on the delta staying zero.
    std::size_t system_allocs = 0;
    /// Total bytes held by the arena (chunks + pooled tensor capacity).
    std::size_t reserved_bytes = 0;
    /// Maximum concurrently live bump bytes seen so far.
    std::size_t bump_high_water_bytes = 0;
  };

  ScratchArena() { pool_.reserve(kPoolReserve); }
  ScratchArena(const ScratchArena&) = delete;
  ScratchArena& operator=(const ScratchArena&) = delete;

  // -- bump region ----------------------------------------------------------

  /// 64-byte-aligned scratch; contents are uninitialized. Valid until the
  /// enclosing ArenaFrame pops (or reset()). n == 0 returns nullptr.
  float* alloc_floats(std::size_t n);
  std::uint64_t* alloc_words(std::size_t n);  // bit-packed kernel operands

  /// Rewinds the bump region to empty (no frames may be live). Keeps all
  /// memory for reuse.
  void reset() { cur_ = 0; off_ = 0; }

  // -- tensor recycler ------------------------------------------------------

  /// A tensor of `shape` whose storage is recycled from the pool when
  /// possible. Contents are unspecified — callers must fully overwrite.
  Tensor take(const std::vector<std::size_t>& shape);
  Tensor take(std::initializer_list<std::size_t> shape);

  /// Returns a finished tensor's storage to the pool.
  void put(Tensor&& t);

  Stats stats() const { return stats_; }

 private:
  friend class ArenaFrame;

  static constexpr std::size_t kAlign = 64;
  static constexpr std::size_t kMinChunk = 1u << 16;  // 64 KiB
  static constexpr std::size_t kPoolReserve = 64;

  struct Chunk {
    std::unique_ptr<std::byte[]> mem;  // over-allocated by kAlign - 1
    std::byte* base = nullptr;         // aligned start
    std::size_t cap = 0;
  };

  std::byte* alloc_bytes(std::size_t n);
  Tensor take_pooled(std::size_t numel);

  std::vector<Chunk> chunks_;
  std::vector<std::size_t> prefix_;  // bytes in chunks before index i
  std::size_t cur_ = 0;              // active chunk index
  std::size_t off_ = 0;              // bump offset within the active chunk
  std::vector<Tensor> pool_;
  Stats stats_;
};

/// RAII bump-region scope: restores the arena's bump pointer on exit, so a
/// layer's raw scratch is reclaimed the moment the layer returns. Accepts
/// nullptr (no arena attached) as a no-op, which lets the shared layer
/// bodies run identically with and without an arena.
class ArenaFrame {
 public:
  explicit ArenaFrame(ScratchArena* arena) : arena_(arena) {
    if (arena_) {
      chunk_ = arena_->cur_;
      off_ = arena_->off_;
    }
  }
  ~ArenaFrame() {
    if (arena_) {
      arena_->cur_ = chunk_;
      arena_->off_ = off_;
    }
  }
  ArenaFrame(const ArenaFrame&) = delete;
  ArenaFrame& operator=(const ArenaFrame&) = delete;

 private:
  ScratchArena* arena_;
  std::size_t chunk_ = 0, off_ = 0;
};

}  // namespace gbo
