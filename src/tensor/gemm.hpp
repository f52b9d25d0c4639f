// Cache-blocked, register-tiled, multithreaded GEMM over packed-panel
// operands.
//
// The Goto/van de Geijn decomposition specialized to this project's needs:
// row-major float32, three transpose variants (the only ones the NN and
// crossbar layers use), and bitwise-reproducible threading.
//
//   * One route per product: gemm_nn, gemm_nt and gemm_tn_acc always pack
//     (DESIGN.md §5). B is repacked into contiguous NR-column strips and
//     each MC-row slab packs its A rows into MR-row strips, so the
//     micro-kernel streams both operands from dense panels. Ragged edges
//     are zero-padded inside the panels and masked at the C store, so every
//     shape, down to 1×1×1, runs the same register-tiled kernel. No entry
//     point dispatches on m, n or k.
//   * Loop structure: rows of C are split into MC-row slabs (the threading
//     unit); within a slab, K is blocked by KC and columns by NC so the
//     active B panel stays L2-resident; the innermost tile is an MR×NR
//     register block accumulated over the K block.
//   * Per-element arithmetic order depends only on the fixed block sizes,
//     never on the thread count or on m — each C element is produced by
//     exactly one thread accumulating k-ascending in KC chunks, so results
//     are identical at 1..N threads and row i of a batch is bitwise equal
//     to the same row computed alone (tests/test_gemm.cpp).
//   * gemm_nt_rowwise is the one non-panel kernel: the NN layers' route for
//     weights below the panel floor (panels_for_weight, DESIGN.md §6).
//   * Thread count: GBO_NUM_THREADS / ThreadPool (common/thread_pool.hpp).
//
// The seed's naive loops live on as test-only oracles
// (tests/oracles/gemm_oracles.hpp).
//
// All pointers are row-major with explicit leading dimensions; matrices may
// not alias. Callers (ops::matmul*) own shape validation.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <mutex>
#include <type_traits>
#include <vector>

namespace gbo {
class ScratchArena;
}

namespace gbo::gemm {

/// Register-tile dimensions, exposed because they define the packed panel
/// layouts below (block sizes MC/KC/NC stay internal).
inline constexpr std::size_t kMR = 6;   // rows per packed A strip
inline constexpr std::size_t kNR = 16;  // columns per packed B strip

/// C = A·B (+ C when accumulate): A[m,k] lda, B[k,n] ldb, C[m,n] ldc.
/// Packs B with pack_b, then runs the packed kernel.
void gemm_nn(std::size_t m, std::size_t n, std::size_t k, const float* A,
             std::size_t lda, const float* B, std::size_t ldb, float* C,
             std::size_t ldc, bool accumulate);

/// C = A·Bᵀ: A[m,k] lda, B[n,k] ldb, C[m,n] ldc. Packs B with pack_b_t
/// into a fresh buffer, then runs gemm_prepacked — so row i of C depends
/// only on row i of A, whatever m is.
void gemm_nt(std::size_t m, std::size_t n, std::size_t k, const float* A,
             std::size_t lda, const float* B, std::size_t ldb, float* C,
             std::size_t ldc);

/// C += Aᵀ·B: A[k,m] lda, B[k,n] ldb, C[m,n] ldc. Transposes A, then
/// accumulates with gemm_nn.
void gemm_tn_acc(std::size_t m, std::size_t n, std::size_t k, const float* A,
                 std::size_t lda, const float* B, std::size_t ldb, float* C,
                 std::size_t ldc);

/// Row-stable C = A·Bᵀ without panels: the per-row multi-accumulator dot
/// kernel — row i's float operations (and therefore its bit pattern) are
/// identical whether it is computed alone or inside any batch. This is the
/// NN layers' route for weights below the panel floor (DESIGN.md §6),
/// where packing would cost more than it saves. No packing, no scratch.
void gemm_nt_rowwise(std::size_t m, std::size_t n, std::size_t k,
                     const float* A, std::size_t lda, const float* B,
                     std::size_t ldb, float* C, std::size_t ldc);

/// m-independent panel dispatch for the NN layers' frozen-weight A·Bᵀ
/// products (DESIGN.md §6): true when the weight [n, k] is big enough that
/// streaming cached packed panels beats the per-row dot kernel. A function
/// of the weight shape alone — never of the batch — so a layer's kernel
/// cannot change across batching boundaries.
bool panels_for_weight(std::size_t n, std::size_t k);

/// Process-wide count of B-panel pack operations (pack_b / pack_b_t, which
/// every packing entry point funnels through). Relaxed atomic; the serving
/// bench diffs it across a steady-state run to prove that cached panels
/// have amortized weight packing to zero (A-panel packs are per-request by
/// design and deliberately not counted).
std::uint64_t b_pack_count();

// ---- packed-panel building blocks ----------------------------------------
//
// Shared by gemm_nn/gemm_nt, the NN layers' cached weight panels and the
// convolution infer kernel (nn/conv2d.cpp), which fuses its im2col patch
// gather into the A-panel packer and therefore needs the layouts public.

/// Size in floats of a packed-B buffer for B[k, n]: k rows × n rounded up
/// to a whole number of kNR-column strips (the padding columns are zero).
std::size_t packed_b_floats(std::size_t n, std::size_t k);

/// Packs row-major B[k, n] (ldb) into KC-row blocks of kNR-column strips:
/// element (p, j) of block pc lives at
///   dst[pc·n_round + (j/kNR)·kNR·kc + (p − pc)·kNR + j%kNR].
/// Columns past n are zeroed. Threaded; pure data movement.
void pack_b(std::size_t k, std::size_t n, const float* B, std::size_t ldb,
            float* dst);

/// Same packed layout, reading B stored transposed as B[n, k] (ldb) — the
/// weight matrices of the NT product — without materializing Bᵀ first.
void pack_b_t(std::size_t n, std::size_t k, const float* B, std::size_t ldb,
              float* dst);

/// Fills `dst` with the A panel for C rows [i0, i1) and the K block
/// [pc, pc + kc): kMR-row strips, element (r, p) of strip s at
/// dst[s·kMR·kc + p·kMR + (r − i0 − s·kMR)], rows past i1 zeroed.
/// `i1 − i0` never exceeds the internal MC slab height.
void pack_a_panel(const float* A, std::size_t lda, std::size_t i0,
                  std::size_t i1, std::size_t pc, std::size_t kc, float* dst);

/// Caller-supplied A-panel producer: must fill `dst` exactly as
/// pack_a_panel would, but may synthesize the values from any source (the
/// conv infer kernel gathers input patches here, skipping im2col).
///
/// Non-owning function reference (not std::function): a callable with
/// capture state would heap-allocate on type erasure, putting one malloc
/// on every serving-path conv call. The referenced callable only needs to
/// outlive the gemm_prepacked_b call it is passed to.
class PanelPacker {
 public:
  template <typename F,
            typename = std::enable_if_t<
                !std::is_same_v<std::decay_t<F>, PanelPacker>>>
  PanelPacker(const F& f)  // NOLINT: implicit by design, function_ref-style
      : ctx_(const_cast<void*>(static_cast<const void*>(&f))),
        fn_([](void* ctx, std::size_t i0, std::size_t i1, std::size_t pc,
               std::size_t kc, float* dst) {
          (*static_cast<const F*>(ctx))(i0, i1, pc, kc, dst);
        }) {}

  void operator()(std::size_t i0, std::size_t i1, std::size_t pc,
                  std::size_t kc, float* dst) const {
    fn_(ctx_, i0, i1, pc, kc, dst);
  }

 private:
  void* ctx_;
  void (*fn_)(void*, std::size_t, std::size_t, std::size_t, std::size_t,
              float*);
};

/// The packed-panel multiply core: C = (packed A)·(packed B) (+ C when
/// accumulate), with `packedB` laid out by pack_b/pack_b_t and A panels
/// produced on demand by `pack_a` into per-thread scratch. Bitwise
/// reproducible at any thread count.
void gemm_prepacked_b(std::size_t m, std::size_t n, std::size_t k,
                      const PanelPacker& pack_a, const float* packedB,
                      float* C, std::size_t ldc, bool accumulate);

/// The NN layers' shared fresh-pack fallback for uncached effective
/// weights: packs B[n, k] (transposed storage, ldb) into arena bump
/// scratch when `arena` is non-null (the caller's ArenaFrame owns the
/// lifetime), else into `own`, and returns the panel pointer.
const float* pack_fresh_b_t(std::size_t n, std::size_t k, const float* B,
                            std::size_t ldb, ScratchArena* arena,
                            std::vector<float>* own);

/// C = A·(packed B): the packed kernel over an external panel buffer laid
/// out by pack_b/pack_b_t. A[m, k] lda, C[m, n] ldc. Bitwise equal to
/// gemm_nn/gemm_nt for the same operands, at any thread count.
void gemm_prepacked(std::size_t m, std::size_t n, std::size_t k,
                    const float* A, std::size_t lda, const float* packedB,
                    float* C, std::size_t ldc);

/// The version-stamped double-checked fill shared by every frozen-weight
/// cache (DESIGN.md §6): ensure() runs `fill` under the mutex iff
/// `version` differs from the stamp of the last fill, publishing the
/// filled buffers with a release store that pairs with the lock-free
/// acquire fast path. Returns true when it filled. The cached source must
/// not be mutated concurrently with readers — the const-infer contract.
/// Copies reset the gate (stamps are per-object timelines and must never
/// be adopted across objects).
class VersionGate {
 public:
  VersionGate() = default;
  VersionGate(const VersionGate&) {}
  VersionGate& operator=(const VersionGate&) { return *this; }

  template <typename Fn>
  bool ensure(std::uint64_t version, Fn&& fill) const {
    if (stamp_.load(std::memory_order_acquire) == version) return false;
    std::lock_guard<std::mutex> lock(mu_);
    if (stamp_.load(std::memory_order_relaxed) == version) return false;
    fill();
    stamp_.store(version, std::memory_order_release);
    return true;
  }

 private:
  mutable std::mutex mu_;
  mutable std::atomic<std::uint64_t> stamp_{0};  // 0 = empty (versions >= 1)
};

/// Cross-request cache of one frozen weight matrix's packed panels,
/// stamped with the weight tensor's mutation counter (Tensor::version(),
/// DESIGN.md §6). get() repacks only when the stamp differs — steady-state
/// serving therefore performs zero weight packs. Concurrency and copy
/// semantics come from VersionGate.
class PackedWeightCache {
 public:
  PackedWeightCache() = default;
  PackedWeightCache(const PackedWeightCache&) {}
  PackedWeightCache& operator=(const PackedWeightCache&) { return *this; }

  /// Packed panels (pack_b_t) for the weight `B`, stored transposed as
  /// [n, k], repacked only when `version` differs from the stamp of the
  /// last pack. `version` must come from one tensor object's version()
  /// timeline.
  const float* get(const float* B, std::size_t ldb, std::size_t n,
                   std::size_t k, std::uint64_t version) const;

  /// Lifetime repack count (1 after warmup for a frozen weight).
  std::uint64_t packs() const {
    return packs_.load(std::memory_order_relaxed);
  }

 private:
  VersionGate gate_;
  mutable std::vector<float> panels_;
  mutable std::atomic<std::uint64_t> packs_{0};
};

}  // namespace gbo::gemm
