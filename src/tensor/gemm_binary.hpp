// Bit-packed XNOR/popcount kernels for the binary-quantized MVM
// (DESIGN.md §8).
//
// The paper's networks are binary-weight: after binarization a weight row is
// a sign vector, and the 9-level QuantTanh activations decompose into 8
// thermometer bit-planes (encoding/thermometer.hpp: level l of the 9-level
// quantizer means planes 0..l-1 carry a +1 pulse, the rest -1). Packing both
// sides into 64-bit words turns the MVM into XOR + popcount:
//
//   plane dot:  d_t = k - 2·popcount(a_t XOR w)      (±1 dot over k bits)
//   recombine:  y   = (Σ_t d_t) / 8 = (8k - 2P) / 8,  P = Σ_t popcount
//
// Because every activation is a multiple of 1/4 in [-1, 1] and the weights
// are ±1, the float kernels' products are exact sign flips and all partial
// sums are multiples of 1/4 far below 2^24 — so the float path computes the
// same integer-valued accumulator exactly, at any blocking or thread count.
// (8k - 2P) / 8 is likewise exact (an integer times 0.125f). The binary path
// is therefore BITWISE equal to the float path whenever the inputs lie on
// the 9-level grid; the float route stays in-tree as the oracle, and the
// quant layers fall back to it for off-grid inputs (raw images, PLA
// re-quantized activations).
//
// Micro-kernels are selected once per process from a runtime CPUID-probed
// registry (scalar / AVX2 nibble-LUT / AVX-512 VPOPCNTDQ / NEON), each
// walking 8-row weight panels; every variant sums the same integer
// popcounts, so the kernel choice can never change an output bit.
// GBO_FORCE_SCALAR_KERNELS=1 pins the scalar kernel (the CI fallback leg).
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace gbo::gemm {

/// Thermometer bit-planes per activation: 8 pulses encode the 9-level
/// QuantTanh grid (quant/act_quant.hpp), values (2l - 8) / 8, l in [0, 8].
inline constexpr std::size_t kBinaryPlanes = 8;

/// 64-bit words covering k lanes; padding bits are zero on BOTH operands,
/// so they XOR to zero and never reach the popcount.
inline std::size_t binary_words(std::size_t k) { return (k + 63) / 64; }

/// Weight rows per packed panel: the kernels XOR one activation word
/// against the same word of kBinaryPanel weight rows at once (one 512-bit
/// vector), so each lane accumulates its own row's popcount and no
/// horizontal reduction is needed.
inline constexpr std::size_t kBinaryPanel = 8;

/// Panels covering n weight rows (the last one zero-padded).
inline std::size_t binary_panels(std::size_t n) {
  return (n + kBinaryPanel - 1) / kBinaryPanel;
}

/// Packed sign words of a binarized weight [n, k] (transposed storage, the
/// A·Bᵀ weight layout): row j's bit p is `B[j, p] >= 0` — the exact
/// convention of quant::binarize — at words[((j / 8)·kw + p / 64)·8 + j % 8],
/// bit p % 64: panels of kBinaryPanel rows, word-interleaved. Padding rows
/// of the last panel are zero.
struct PackedBinaryB {
  std::vector<std::uint64_t> words;  // [panels][kw][kBinaryPanel]
  std::size_t n = 0, k = 0, kw = 0;
  bool empty() const { return words.empty(); }
};

/// Packs a row-major weight [n, k] (ldb) into sign words. Counts one binary
/// weight pack (binary_pack_count); degenerate shapes yield an empty handle.
PackedBinaryB prepack_binary_b_t(std::size_t n, std::size_t k, const float* B,
                                 std::size_t ldb);

/// Process-wide count of binary weight packs (prepack_binary_b_t). Relaxed
/// atomic; the serving bench diffs it across a steady-state run to prove the
/// version-stamped caches amortized binary packing to warmup (A-side
/// activation encodes are per-request by design and not counted).
std::uint64_t binary_pack_count();

/// Words of A-side scratch for an [m, k] activation block: m rows of kw
/// words, each word holding kBinaryPlanes thermometer bit-planes.
inline std::size_t packed_binary_a_words(std::size_t m, std::size_t k) {
  return m * kBinaryPlanes * binary_words(k);
}

/// True when every value is exactly on the 9-level grid.
bool binary_grid_check(const float* p, std::size_t n);

/// Encodes A[m, k] (lda) into thermometer bit-planes, word-major: row i's
/// word w of plane t at dst[(i·kw + w)·kBinaryPlanes + t], bit p % 64 of
/// word p / 64 set iff t < level(A[i, p]). Returns false — dst contents
/// then unspecified — if any value is off the 9-level grid; this fused
/// validate+encode is the quant layers' route dispatch.
bool pack_binary_a(std::size_t m, std::size_t k, const float* A,
                   std::size_t lda, std::uint64_t* dst);

/// Words of pixel-plane scratch for an NCHW activation of `pixels` = N·H·W
/// pixels and `channels` channels: one packed row of `channels` per pixel.
inline std::size_t packed_binary_pixel_words(std::size_t pixels,
                                             std::size_t channels) {
  return packed_binary_a_words(pixels, channels);
}

/// Encodes an NCHW activation x[batch, channels, hw] once per element into
/// pixel planes: pixel n·hw + p is one pack_binary_a row over its channel
/// vector x[n, :, p] — the A-side encode of the bit-plane conv route, which
/// then gathers patches as words (im2col_binary) instead of encoding every
/// patch element. Same fused validate+encode contract as pack_binary_a:
/// false when any value is off the 9-level grid.
bool pack_binary_pixels(const float* x, std::size_t batch,
                        std::size_t channels, std::size_t hw,
                        std::uint64_t* dst);

/// Row stride of a threshold table over `channels` channels: whole 64-bit
/// words, so the epilogue kernels read thresholds and flip masks in full
/// vectors. Padding entries are +inf thresholds and zero flips.
inline std::size_t threshold_stride(std::size_t channels) {
  return binary_words(channels) * 64;
}

/// One registry entry.
///
/// xor_popcount_row fills pops[j] with the total popcount of (a XOR W_j)
/// over kBinaryPlanes planes of kw words, for every weight row j of
/// `panels` weight panels (j < panels·kBinaryPanel; a: one pack_binary_a
/// row; W: the PackedBinaryB panel layout). Panel granularity is the perf
/// contract: each weight word is loaded once and XORed against all 8
/// activation planes, one lane per weight row, so the per-row popcounts
/// accumulate in place with no horizontal reduction.
///
/// threshold_rows is the level-domain chain's epilogue (DESIGN.md §8): for
/// each of m rows v[i, 0..c) (row stride c) it writes one pixel-plane row
/// of binary_words(c)·kBinaryPlanes words, bit j % 64 of
/// planes[(i·cw + j / 64)·kBinaryPlanes + t] set iff
/// key(v[i, j]) >= thr[t·ldt + j], where key flips the sign bit of v by
/// flip[j] (0 or 0x80000000). Bits j >= c are zero. thr and flip are read
/// in whole words: entries up to binary_words(c)·64 must be readable. Each
/// plane word is a compare mask, so no level byte is ever materialized.
struct BinaryKernel {
  const char* name;
  void (*xor_popcount_row)(const std::uint64_t* a, const std::uint64_t* W,
                           std::size_t panels, std::size_t kw,
                           std::uint64_t* pops);
  void (*threshold_rows)(const float* v, std::size_t m, std::size_t c,
                         const std::uint32_t* flip, const float* thr,
                         std::size_t ldt, std::uint64_t* planes);
};

/// The micro-kernel selected once per process: best CPUID-supported ISA, or
/// the scalar kernel under GBO_FORCE_SCALAR_KERNELS=1.
const BinaryKernel& binary_kernel();

/// The always-available scalar kernel (the in-tree reference the dispatched
/// kernel is gated against).
const BinaryKernel& binary_kernel_scalar();

/// Every registry kernel this CPU can run, scalar first (tests gate each
/// against the scalar one).
std::vector<const BinaryKernel*> binary_kernels_supported();

/// Name of the dispatched kernel ("scalar" / "avx2" / "avx512_vpopcntdq" /
/// "neon") — recorded in the bench JSON so CI artifacts document the ISA
/// actually exercised.
const char* binary_kernel_name();

/// Runtime-detected CPU features relevant to the registry (CPUID on x86,
/// compile-time flags elsewhere), e.g. "avx2 avx512f avx512vpopcntdq".
std::string cpu_features();

/// C[m, n] = unscaled binary MVM of packed activations against packed sign
/// words: C[i, j] = (8k - 2P) · 0.125f. Runs the dispatched kernel; bitwise
/// equal to the float A·Bᵀ kernels over the same on-grid operands (the §8
/// contract) and to every other registry kernel. Threaded over rows,
/// deterministic at any thread count (pure integer reduction per element).
void gemm_binary(std::size_t m, std::size_t n, std::size_t k,
                 const std::uint64_t* packedA, const PackedBinaryB& B, float* C,
                 std::size_t ldc);

/// Same, with an explicit registry kernel (tests gate forced-scalar vs
/// best-ISA bitwise equality through this).
void gemm_binary_with(const BinaryKernel& kern, std::size_t m, std::size_t n,
                      std::size_t k, const std::uint64_t* packedA,
                      const PackedBinaryB& B, float* C, std::size_t ldc);

/// Process-wide count of gemm_binary dispatches; the benches diff it to
/// prove the quant layers actually took the XNOR/popcount route.
std::uint64_t binary_mvm_count();

// ---- level-domain chain kernels (DESIGN.md §8) ----------------------------

/// gemm_binary with the level-domain threshold epilogue fused per row:
/// each row of the unscaled MVM output [m, n] goes through the dispatched
/// kernel's threshold_rows (table stride threshold_stride(n)) straight
/// into m pixel-plane rows, with no float output matrix. Bitwise what
/// gemm_binary followed by threshold_rows over its output gives; counts
/// as one binary MVM.
void gemm_binary_threshold(std::size_t m, std::size_t n, std::size_t k,
                           const std::uint64_t* packedA,
                           const PackedBinaryB& B, const std::uint32_t* flip,
                           const float* thr, std::uint64_t* planes);

/// Same, with an explicit registry kernel for both halves.
void gemm_binary_threshold_with(const BinaryKernel& kern, std::size_t m,
                                std::size_t n, std::size_t k,
                                const std::uint64_t* packedA,
                                const PackedBinaryB& B,
                                const std::uint32_t* flip, const float* thr,
                                std::uint64_t* planes);

/// Max-pool in the level domain: the max of two thermometer codes is their
/// bitwise OR, so output pixel (n, y, x) of a window×window pool is the OR
/// of its input pixels' plane words. src: pixel planes of [batch, h, w]
/// pixels over `channels`; dst: [batch, h / window, w / window] pixels.
/// h and w must be multiples of window.
void or_pool_planes(const std::uint64_t* src, std::size_t batch,
                    std::size_t h, std::size_t w, std::size_t channels,
                    std::size_t window, std::uint64_t* dst);

/// Pixel planes of [batch, hw] pixels over `channels` -> NCHW floats: the
/// level l of a thermometer code decodes to the 9-level grid value
/// l·0.25f - 1.0f (what QuantTanh(9) emits for level l, bit for bit).
void decode_planes(const std::uint64_t* planes, std::size_t batch,
                   std::size_t channels, std::size_t hw, float* dst);

}  // namespace gbo::gemm
