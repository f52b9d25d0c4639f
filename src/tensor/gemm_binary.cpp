#include "tensor/gemm_binary.hpp"

#include "common/thread_pool.hpp"
#include "obs/trace.hpp"

#include <algorithm>
#include <atomic>
#include <bit>
#include <cassert>
#include <cstdlib>
#include <cstring>
#include <vector>

#if (defined(__x86_64__) || defined(__i386__)) && \
    (defined(__GNUC__) || defined(__clang__))
#define GBO_BINARY_X86 1
#include <cpuid.h>
#include <immintrin.h>
#endif

#if defined(__ARM_NEON)
#include <arm_neon.h>
#endif

namespace gbo::gemm {
namespace {

std::atomic<std::uint64_t> g_binary_packs{0};
std::atomic<std::uint64_t> g_binary_mvms{0};

// ---- registry kernels ----------------------------------------------------
//
// Every kernel computes the same value — the total popcount of a XOR w over
// kBinaryPlanes planes — as a sum of per-word integer popcounts, which is
// associative and overflow-free (P <= 8·k <= 2^40 for any realistic k), so
// the variants are bitwise interchangeable by construction. All of them walk
// a weight panel word by word: word i of the panel's 8 rows is XORed with
// activation word i of each of the 8 planes (a[i·8 + t]), and lane r
// accumulates row r's popcount.

void xpr_scalar(const std::uint64_t* a, const std::uint64_t* W,
                std::size_t panels, std::size_t kw, std::uint64_t* pops) {
  for (std::size_t p = 0; p < panels; ++p) {
    const std::uint64_t* wp = W + p * kw * kBinaryPanel;
    std::uint64_t acc[kBinaryPanel] = {0};
    for (std::size_t i = 0; i < kw; ++i)
      for (std::size_t t = 0; t < kBinaryPlanes; ++t)
        for (std::size_t r = 0; r < kBinaryPanel; ++r)
          acc[r] += static_cast<std::uint64_t>(
              std::popcount(a[i * kBinaryPlanes + t] ^ wp[i * kBinaryPanel + r]));
    std::memcpy(pops + p * kBinaryPanel, acc, sizeof(acc));
  }
}

// Threshold epilogue: one compare per (channel, plane). The scalar kernel
// is the oracle the vector ones are gated against.
void thr_scalar(const float* v, std::size_t m, std::size_t c,
                const std::uint32_t* flip, const float* thr, std::size_t ldt,
                std::uint64_t* planes) {
  const std::size_t cw = binary_words(c);
  for (std::size_t i = 0; i < m; ++i) {
    const float* vi = v + i * c;
    std::uint64_t* pi = planes + i * cw * kBinaryPlanes;
    for (std::size_t w = 0; w < cw; ++w) {
      std::uint64_t word[kBinaryPlanes] = {0};
      for (std::size_t j = w * 64; j < std::min(c, w * 64 + 64); ++j) {
        const float key = std::bit_cast<float>(
            std::bit_cast<std::uint32_t>(vi[j]) ^ flip[j]);
        for (std::size_t t = 0; t < kBinaryPlanes; ++t)
          word[t] |= static_cast<std::uint64_t>(key >= thr[t * ldt + j])
                     << (j % 64);
      }
      std::memcpy(pi + w * kBinaryPlanes, word, sizeof(word));
    }
  }
}

#if defined(GBO_BINARY_X86)

// AVX2 has no vector popcount; the classic vpshufb nibble LUT counts bits in
// each byte, then _mm256_sad_epu8 folds bytes into four 64-bit lanes.
__attribute__((target("avx2"))) inline __m256i popcnt256(__m256i x) {
  const __m256i lut =
      _mm256_setr_epi8(0, 1, 1, 2, 1, 2, 2, 3, 1, 2, 2, 3, 2, 3, 3, 4, 0, 1, 1,
                       2, 1, 2, 2, 3, 1, 2, 2, 3, 2, 3, 3, 4);
  const __m256i low = _mm256_set1_epi8(0x0f);
  const __m256i lo = _mm256_and_si256(x, low);
  const __m256i hi = _mm256_and_si256(_mm256_srli_epi16(x, 4), low);
  const __m256i cnt = _mm256_add_epi8(_mm256_shuffle_epi8(lut, lo),
                                      _mm256_shuffle_epi8(lut, hi));
  return _mm256_sad_epu8(cnt, _mm256_setzero_si256());
}

// A panel is two YMM halves (rows 0-3, 4-7), each XORed against every
// broadcast activation word.
__attribute__((target("avx2"))) void xpr_avx2(const std::uint64_t* a,
                                              const std::uint64_t* W,
                                              std::size_t panels,
                                              std::size_t kw,
                                              std::uint64_t* pops) {
  for (std::size_t p = 0; p < panels; ++p) {
    const std::uint64_t* wp = W + p * kw * kBinaryPanel;
    __m256i acc0 = _mm256_setzero_si256(), acc1 = _mm256_setzero_si256();
    for (std::size_t i = 0; i < kw; ++i) {
      const __m256i w0 = _mm256_loadu_si256(
          reinterpret_cast<const __m256i*>(wp + i * kBinaryPanel));
      const __m256i w1 = _mm256_loadu_si256(
          reinterpret_cast<const __m256i*>(wp + i * kBinaryPanel + 4));
      for (std::size_t t = 0; t < kBinaryPlanes; ++t) {
        const __m256i at = _mm256_set1_epi64x(
            static_cast<long long>(a[i * kBinaryPlanes + t]));
        acc0 = _mm256_add_epi64(acc0, popcnt256(_mm256_xor_si256(at, w0)));
        acc1 = _mm256_add_epi64(acc1, popcnt256(_mm256_xor_si256(at, w1)));
      }
    }
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(pops + p * kBinaryPanel),
                        acc0);
    _mm256_storeu_si256(
        reinterpret_cast<__m256i*>(pops + p * kBinaryPanel + 4), acc1);
  }
}

// AVX-512 VPOPCNTDQ: a panel is one ZMM; each activation word is a memory
// broadcast operand of the XOR, so one word costs XOR + VPOPCNTQ + ADD for
// all 8 weight rows.
__attribute__((target("avx512f,avx512vpopcntdq"))) void xpr_avx512(
    const std::uint64_t* a, const std::uint64_t* W, std::size_t panels,
    std::size_t kw, std::uint64_t* pops) {
  for (std::size_t p = 0; p < panels; ++p) {
    const std::uint64_t* wp = W + p * kw * kBinaryPanel;
    __m512i acc0 = _mm512_setzero_si512(), acc1 = _mm512_setzero_si512();
    for (std::size_t i = 0; i < kw; ++i) {
      const __m512i wv = _mm512_loadu_si512(wp + i * kBinaryPanel);
      const std::uint64_t* ai = a + i * kBinaryPlanes;
      // Two accumulators halve the add dependency chain.
      for (std::size_t t = 0; t < kBinaryPlanes; t += 2) {
        acc0 = _mm512_add_epi64(
            acc0, _mm512_popcnt_epi64(_mm512_xor_si512(
                      wv, _mm512_set1_epi64(static_cast<long long>(ai[t])))));
        acc1 = _mm512_add_epi64(
            acc1,
            _mm512_popcnt_epi64(_mm512_xor_si512(
                wv, _mm512_set1_epi64(static_cast<long long>(ai[t + 1])))));
      }
    }
    _mm512_storeu_si512(pops + p * kBinaryPanel,
                        _mm512_add_epi64(acc0, acc1));
  }
}

// Threshold epilogue, 8 channels per compare: the lane mask of a masked
// load keeps reads inside the row and bits >= c zero.
__attribute__((target("avx2"))) void thr_avx2(const float* v, std::size_t m,
                                              std::size_t c,
                                              const std::uint32_t* flip,
                                              const float* thr,
                                              std::size_t ldt,
                                              std::uint64_t* planes) {
  const std::size_t cw = binary_words(c);
  const __m256i lane = _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7);
  for (std::size_t i = 0; i < m; ++i) {
    const float* vi = v + i * c;
    std::uint64_t* pi = planes + i * cw * kBinaryPlanes;
    for (std::size_t w = 0; w < cw; ++w) {
      std::uint64_t word[kBinaryPlanes] = {0};
      for (std::size_t j0 = w * 64; j0 < std::min(c, w * 64 + 64); j0 += 8) {
        const int n = static_cast<int>(std::min<std::size_t>(8, c - j0));
        const __m256i live = _mm256_cmpgt_epi32(_mm256_set1_epi32(n), lane);
        const __m256 key = _mm256_castsi256_ps(_mm256_xor_si256(
            _mm256_castps_si256(_mm256_maskload_ps(vi + j0, live)),
            _mm256_loadu_si256(reinterpret_cast<const __m256i*>(flip + j0))));
        const unsigned keep = (1u << n) - 1;
        for (std::size_t t = 0; t < kBinaryPlanes; ++t) {
          const unsigned ge = static_cast<unsigned>(_mm256_movemask_ps(
              _mm256_cmp_ps(key, _mm256_loadu_ps(thr + t * ldt + j0),
                            _CMP_GE_OQ)));
          word[t] |= static_cast<std::uint64_t>(ge & keep) << (j0 % 64);
        }
      }
      std::memcpy(pi + w * kBinaryPlanes, word, sizeof(word));
    }
  }
}

// Threshold epilogue, 16 channels per compare into an opmask.
__attribute__((target("avx512f"))) void thr_avx512(const float* v,
                                                   std::size_t m, std::size_t c,
                                                   const std::uint32_t* flip,
                                                   const float* thr,
                                                   std::size_t ldt,
                                                   std::uint64_t* planes) {
  const std::size_t cw = binary_words(c);
  for (std::size_t i = 0; i < m; ++i) {
    const float* vi = v + i * c;
    std::uint64_t* pi = planes + i * cw * kBinaryPlanes;
    for (std::size_t w = 0; w < cw; ++w) {
      std::uint64_t word[kBinaryPlanes] = {0};
      for (std::size_t j0 = w * 64; j0 < std::min(c, w * 64 + 64); j0 += 16) {
        const std::size_t n = std::min<std::size_t>(16, c - j0);
        const __mmask16 live = static_cast<__mmask16>((1u << n) - 1);
        const __m512 key = _mm512_castsi512_ps(_mm512_xor_si512(
            _mm512_castps_si512(_mm512_maskz_loadu_ps(live, vi + j0)),
            _mm512_loadu_si512(flip + j0)));
        for (std::size_t t = 0; t < kBinaryPlanes; ++t)
          word[t] |= static_cast<std::uint64_t>(_mm512_mask_cmp_ps_mask(
                         live, key, _mm512_loadu_ps(thr + t * ldt + j0),
                         _CMP_GE_OQ))
                     << (j0 % 64);
      }
      std::memcpy(pi + w * kBinaryPlanes, word, sizeof(word));
    }
  }
}

#endif  // GBO_BINARY_X86

#if defined(__ARM_NEON)

// A panel is four 2-lane quarters, each XORed against every broadcast
// activation word; vcnt counts bytes and the pairwise widening adds fold
// them into the two 64-bit lanes.
void xpr_neon(const std::uint64_t* a, const std::uint64_t* W,
              std::size_t panels, std::size_t kw, std::uint64_t* pops) {
  for (std::size_t p = 0; p < panels; ++p) {
    const std::uint64_t* wp = W + p * kw * kBinaryPanel;
    for (std::size_t q = 0; q < kBinaryPanel; q += 2) {
      uint64x2_t acc = vdupq_n_u64(0);
      for (std::size_t i = 0; i < kw; ++i) {
        const uint64x2_t wv = vld1q_u64(wp + i * kBinaryPanel + q);
        for (std::size_t t = 0; t < kBinaryPlanes; ++t) {
          const uint8x16_t x = vreinterpretq_u8_u64(
              veorq_u64(wv, vdupq_n_u64(a[i * kBinaryPlanes + t])));
          acc = vaddq_u64(acc,
                          vpaddlq_u32(vpaddlq_u16(vpaddlq_u8(vcntq_u8(x)))));
        }
      }
      vst1q_u64(pops + p * kBinaryPanel + q, acc);
    }
  }
}

#endif  // __ARM_NEON

constexpr BinaryKernel kScalarKernel{"scalar", &xpr_scalar, &thr_scalar};
#if defined(GBO_BINARY_X86)
constexpr BinaryKernel kAvx2Kernel{"avx2", &xpr_avx2, &thr_avx2};
constexpr BinaryKernel kAvx512Kernel{"avx512_vpopcntdq", &xpr_avx512,
                                     &thr_avx512};
#endif
#if defined(__ARM_NEON)
constexpr BinaryKernel kNeonKernel{"neon", &xpr_neon, &thr_scalar};
#endif

// ---- CPUID feature probe -------------------------------------------------
//
// Raw CPUID + XGETBV rather than __builtin_cpu_supports: the vpopcntdq
// string is not recognized by every toolchain this repo supports, and the
// OS-enablement half (XCR0) must be checked explicitly anyway.

#if defined(GBO_BINARY_X86)

struct CpuFeatures {
  bool avx2 = false;
  bool avx512f = false;
  bool avx512vpopcntdq = false;
};

std::uint64_t read_xcr0() {
  std::uint32_t lo, hi;
  __asm__ volatile("xgetbv" : "=a"(lo), "=d"(hi) : "c"(0));
  return (static_cast<std::uint64_t>(hi) << 32) | lo;
}

CpuFeatures probe_cpu() {
  CpuFeatures f;
  unsigned eax, ebx, ecx, edx;
  if (!__get_cpuid(1, &eax, &ebx, &ecx, &edx)) return f;
  const bool osxsave = (ecx >> 27) & 1;  // OS uses XSAVE: XCR0 is readable
  if (!osxsave) return f;
  const std::uint64_t xcr0 = read_xcr0();
  const bool os_avx = (xcr0 & 0x6) == 0x6;       // XMM + YMM state saved
  const bool os_avx512 = (xcr0 & 0xe6) == 0xe6;  // + opmask, ZMM hi state
  if (__get_cpuid_count(7, 0, &eax, &ebx, &ecx, &edx)) {
    f.avx2 = os_avx && ((ebx >> 5) & 1);
    f.avx512f = os_avx512 && ((ebx >> 16) & 1);
    f.avx512vpopcntdq = f.avx512f && ((ecx >> 14) & 1);
  }
  return f;
}

const CpuFeatures& cpu() {
  static const CpuFeatures f = probe_cpu();
  return f;
}

#endif  // GBO_BINARY_X86

bool force_scalar() {
  const char* e = std::getenv("GBO_FORCE_SCALAR_KERNELS");
  return e != nullptr && e[0] != '\0' && e[0] != '0';
}

const BinaryKernel* select_kernel() {
  if (force_scalar()) return &kScalarKernel;
#if defined(GBO_BINARY_X86)
  if (cpu().avx512vpopcntdq) return &kAvx512Kernel;
  if (cpu().avx2) return &kAvx2Kernel;
#endif
#if defined(__ARM_NEON)
  return &kNeonKernel;
#endif
  return &kScalarKernel;
}

}  // namespace

const BinaryKernel& binary_kernel() {
  static const BinaryKernel* k = select_kernel();
  return *k;
}

const BinaryKernel& binary_kernel_scalar() { return kScalarKernel; }

std::vector<const BinaryKernel*> binary_kernels_supported() {
  std::vector<const BinaryKernel*> out{&kScalarKernel};
#if defined(GBO_BINARY_X86)
  if (cpu().avx2) out.push_back(&kAvx2Kernel);
  if (cpu().avx512vpopcntdq) out.push_back(&kAvx512Kernel);
#endif
#if defined(__ARM_NEON)
  out.push_back(&kNeonKernel);
#endif
  return out;
}

const char* binary_kernel_name() { return binary_kernel().name; }

std::string cpu_features() {
  std::string s;
#if defined(GBO_BINARY_X86)
  if (cpu().avx2) s += "avx2 ";
  if (cpu().avx512f) s += "avx512f ";
  if (cpu().avx512vpopcntdq) s += "avx512vpopcntdq ";
#endif
#if defined(__ARM_NEON)
  s += "neon ";
#endif
  if (!s.empty()) s.pop_back();
  return s;
}

std::uint64_t binary_pack_count() {
  return g_binary_packs.load(std::memory_order_relaxed);
}

std::uint64_t binary_mvm_count() {
  return g_binary_mvms.load(std::memory_order_relaxed);
}

PackedBinaryB prepack_binary_b_t(std::size_t n, std::size_t k, const float* B,
                                 std::size_t ldb) {
  PackedBinaryB pb;
  pb.n = n;
  pb.k = k;
  pb.kw = binary_words(k);
  if (n == 0 || k == 0) return pb;  // empty handle, no pack counted
  g_binary_packs.fetch_add(1, std::memory_order_relaxed);
  const std::size_t kw = pb.kw;
  pb.words.assign(binary_panels(n) * kw * kBinaryPanel, 0);
  std::uint64_t* words = pb.words.data();
  parallel_for(0, n, 16, [&](std::size_t lo, std::size_t hi) {
    for (std::size_t j = lo; j < hi; ++j) {
      const float* src = B + j * ldb;
      std::uint64_t* lane =
          words + (j / kBinaryPanel) * kw * kBinaryPanel + j % kBinaryPanel;
      for (std::size_t p = 0; p < k; ++p)
        if (src[p] >= 0.0f) lane[(p / 64) * kBinaryPanel] |= 1ull << (p % 64);
    }
  });
  return pb;
}

namespace {

/// Levels 0..8 of n values into lv; false if any value is off the 9-level
/// grid. The level is the count of grid points l·0.25 - 1 (l = 1..8) the
/// value reaches, and the value is on-grid iff that level reconstructs it
/// exactly (NaN reaches none and fails the reconstruction; so does any
/// value between or beyond grid points, however close — e.g. 1e-8, which a
/// rounding test of (x + 1)·4 would wrongly admit). Comparisons only, so
/// the loop vectorizes.
bool grid_levels(const float* x, std::size_t n, std::uint8_t* lv) {
  unsigned bad = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const float v = x[i];
    int l = 0;
    for (int j = 1; j < 9; ++j)
      l += v >= static_cast<float>(j) * 0.25f - 1.0f ? 1 : 0;
    bad |= static_cast<float>(l) * 0.25f - 1.0f != v ? 1u : 0u;
    lv[i] = static_cast<std::uint8_t>(l);
  }
  return bad == 0;
}

/// Thermometer code of `groups` 8-lane level words (byte q of lanes[g]
/// is the level, 0..8, of lane 8g + q): word planes[t] gets bit 8g + q iff
/// t < level. SWAR over 8 lanes at a time — level + (127 - t) carries into
/// a byte's top bit exactly when level > t (no cross-byte carry: 8 + 127 <
/// 256) — and one multiply gathers the 8 top bits into a byte.
void encode_planes(const std::uint64_t* lanes, std::size_t groups,
                   std::uint64_t* planes) {
  constexpr std::uint64_t kOnes = 0x0101010101010101ull;
  constexpr std::uint64_t kGather = 0x0102040810204080ull;
  for (std::size_t t = 0; t < kBinaryPlanes; ++t) {
    const std::uint64_t bias = (127 - t) * kOnes;
    std::uint64_t word = 0;
    for (std::size_t g = 0; g < groups; ++g) {
      const std::uint64_t top = ((lanes[g] + bias) >> 7) & kOnes;
      word |= ((top * kGather) >> 56) << (8 * g);
    }
    planes[t] = word;
  }
}

/// In-place transpose of an 8x8 byte matrix held as 8 words (row r = word
/// r, column q = byte q): afterwards byte q of word r is the old byte r of
/// word q.
void transpose8x8_bytes(std::uint64_t* r) {
  constexpr std::uint64_t kMask[3] = {0x00FF00FF00FF00FFull,
                                      0x0000FFFF0000FFFFull,
                                      0x00000000FFFFFFFFull};
  for (std::size_t level = 0, step = 1; level < 3; ++level, step *= 2)
    for (std::size_t i = 0; i < 8; ++i)
      if ((i / step) % 2 == 0) {
        const std::size_t shift = 8 * step;
        const std::uint64_t t = ((r[i] >> shift) ^ r[i + step]) & kMask[level];
        r[i + step] ^= t;
        r[i] ^= t << shift;
      }
}

}  // namespace

bool binary_grid_check(const float* p, std::size_t n) {
  alignas(64) std::uint8_t lv[256];
  for (std::size_t i = 0; i < n; i += 256)
    if (!grid_levels(p + i, std::min<std::size_t>(256, n - i), lv))
      return false;
  return true;
}

bool pack_binary_a(std::size_t m, std::size_t k, const float* A,
                   std::size_t lda, std::uint64_t* dst) {
  const std::size_t kw = binary_words(k);
  std::atomic<bool> ok{true};
  parallel_for(0, m, 16, [&](std::size_t lo, std::size_t hi) {
    std::uint64_t lanes[8] = {};
    for (std::size_t i = lo; i < hi; ++i) {
      if (!ok.load(std::memory_order_relaxed)) return;
      const float* src = A + i * lda;
      std::uint64_t* row = dst + i * kw * kBinaryPlanes;
      for (std::size_t word = 0; word < kw; ++word) {
        const std::size_t n = std::min<std::size_t>(64, k - word * 64);
        if (n % 8 != 0) lanes[n / 8] = 0;  // ragged group: dead lanes read 0
        if (!grid_levels(src + word * 64, n,
                         reinterpret_cast<std::uint8_t*>(lanes))) {
          ok.store(false, std::memory_order_relaxed);
          return;
        }
        encode_planes(lanes, (n + 7) / 8, row + word * kBinaryPlanes);
      }
    }
  });
  return ok.load(std::memory_order_relaxed);
}

bool pack_binary_pixels(const float* x, std::size_t batch,
                        std::size_t channels, std::size_t hw,
                        std::uint64_t* dst) {
  const std::size_t cw = binary_words(channels);
  // Blocks of up to 64 pixels of one image, 64 channels at a time: each
  // channel's run of pixels is decoded contiguously from NCHW into a
  // [channel][pixel] level tile, 8x8 byte transposes turn the tile into
  // per-pixel channel lanes, and each pixel's lanes encode as one word.
  constexpr std::size_t kBlock = 64;
  const std::size_t blocks = (hw + kBlock - 1) / kBlock;
  std::atomic<bool> ok{true};
  parallel_for(0, batch * blocks, 4, [&](std::size_t lo, std::size_t hi) {
    std::uint64_t tile[64][kBlock / 8] = {};   // [channel][pixel group]
    std::uint64_t lanes[kBlock][64 / 8] = {};  // [pixel][channel group]
    for (std::size_t b = lo; b < hi; ++b) {
      if (!ok.load(std::memory_order_relaxed)) return;
      const std::size_t n = b / blocks, p0 = (b % blocks) * kBlock;
      const std::size_t np = std::min(kBlock, hw - p0);
      const float* img = x + n * channels * hw + p0;
      std::uint64_t* out = dst + (n * hw + p0) * cw * kBinaryPlanes;
      for (std::size_t c0 = 0; c0 < channels; c0 += 64) {
        const std::size_t nc = std::min<std::size_t>(64, channels - c0);
        const std::size_t groups = (nc + 7) / 8;
        for (std::size_t c = 0; c < nc; ++c)
          if (!grid_levels(img + (c0 + c) * hw, np,
                           reinterpret_cast<std::uint8_t*>(tile[c]))) {
            ok.store(false, std::memory_order_relaxed);
            return;
          }
        for (std::size_t c = nc; c < groups * 8; ++c)  // dead channels: 0
          std::fill(tile[c], tile[c] + kBlock / 8, 0ull);
        for (std::size_t pg = 0; pg * 8 < np; ++pg)
          for (std::size_t g = 0; g < groups; ++g) {
            std::uint64_t blk[8];
            for (std::size_t r = 0; r < 8; ++r) blk[r] = tile[g * 8 + r][pg];
            transpose8x8_bytes(blk);
            for (std::size_t q = 0; q < 8; ++q) lanes[pg * 8 + q][g] = blk[q];
          }
        for (std::size_t p = 0; p < np; ++p)
          encode_planes(lanes[p], groups,
                        out + (p * cw + c0 / 64) * kBinaryPlanes);
      }
    }
  });
  return ok.load(std::memory_order_relaxed);
}

namespace {

/// Weight rows per kernel call of the row loop (whole plane words).
constexpr std::size_t kBinaryChunk = 32 * kBinaryPanel;
static_assert(kBinaryChunk % 64 == 0);

/// The shared XNOR row loop: emit(i, j0, nj, vals) receives the unscaled
/// outputs C[i, j0 .. j0 + nj) as floats in a stack chunk. Counts one
/// binary MVM.
template <typename Emit>
void binary_rows(const BinaryKernel& kern, std::size_t m, std::size_t n,
                 std::size_t k, const std::uint64_t* packedA,
                 const PackedBinaryB& B, Emit&& emit) {
  assert(B.n == n && B.k == k);
  if (m == 0 || n == 0) return;
  g_binary_mvms.fetch_add(1, std::memory_order_relaxed);
  GBO_TRACE_SPAN(obs::EventType::kBinaryMvm, m,
                 static_cast<std::uint16_t>(n < 65535 ? n : 65535),
                 2ull * m * n * k);
  const std::size_t kw = B.kw;
  const std::uint64_t* wwords = B.words.data();
  auto* fn = kern.xor_popcount_row;
  const std::int64_t mk =
      static_cast<std::int64_t>(kBinaryPlanes) * static_cast<std::int64_t>(k);
  // (8k - 2P)/8 is an integer multiple of 1/4 below 2^24: the int->float
  // conversion and the 0.125f (power of two) multiply are both exact, which
  // is what makes this equal to the float kernels bit for bit.
  // The kernel runs over chunks of kChunk weight rows (a multiple of 64, so
  // a chunk covers whole plane words), so the popcount and value buffers
  // live on the stack; the last chunk's padding-row lanes are computed and
  // dropped. k == 0 leaves every popcount 0: the outputs are +0.
  // Rows per task: at least ~64K word XOR-popcounts, so unit-batch serving
  // shapes run inline instead of paying the pool's wake-up per call.
  const std::size_t grain = std::max<std::size_t>(
      1, 65536 / (binary_panels(n) * std::max<std::size_t>(kw, 1) *
                  kBinaryPanel * kBinaryPlanes / 8));
  parallel_for(0, m, grain, [&](std::size_t lo, std::size_t hi) {
    std::uint64_t pops[kBinaryChunk] = {};
    float vals[kBinaryChunk];
    for (std::size_t i = lo; i < hi; ++i) {
      const std::uint64_t* ai = packedA + i * kBinaryPlanes * kw;
      for (std::size_t j0 = 0; j0 < n; j0 += kBinaryChunk) {
        const std::size_t nj = std::min(kBinaryChunk, n - j0);
        if (kw > 0) fn(ai, wwords + j0 * kw, binary_panels(nj), kw, pops);
        for (std::size_t j = 0; j < nj; ++j) {
          const std::int64_t pop = static_cast<std::int64_t>(pops[j]);
          vals[j] = static_cast<float>(mk - 2 * pop) * 0.125f;
        }
        emit(i, j0, nj, vals);
      }
    }
  });
}

}  // namespace

void gemm_binary_with(const BinaryKernel& kern, std::size_t m, std::size_t n,
                      std::size_t k, const std::uint64_t* packedA,
                      const PackedBinaryB& B, float* C, std::size_t ldc) {
  binary_rows(kern, m, n, k, packedA, B,
              [&](std::size_t i, std::size_t j0, std::size_t nj,
                  const float* vals) {
                std::memcpy(C + i * ldc + j0, vals, nj * sizeof(float));
              });
}

void gemm_binary(std::size_t m, std::size_t n, std::size_t k,
                 const std::uint64_t* packedA, const PackedBinaryB& B, float* C,
                 std::size_t ldc) {
  gemm_binary_with(binary_kernel(), m, n, k, packedA, B, C, ldc);
}

void gemm_binary_threshold_with(const BinaryKernel& kern, std::size_t m,
                                std::size_t n, std::size_t k,
                                const std::uint64_t* packedA,
                                const PackedBinaryB& B,
                                const std::uint32_t* flip, const float* thr,
                                std::uint64_t* planes) {
  const std::size_t ldt = threshold_stride(n);
  const std::size_t row_words = binary_words(n) * kBinaryPlanes;
  binary_rows(kern, m, n, k, packedA, B,
              [&](std::size_t i, std::size_t j0, std::size_t nj,
                  const float* vals) {
                kern.threshold_rows(
                    vals, 1, nj, flip + j0, thr + j0, ldt,
                    planes + i * row_words + j0 / 64 * kBinaryPlanes);
              });
}

void gemm_binary_threshold(std::size_t m, std::size_t n, std::size_t k,
                           const std::uint64_t* packedA,
                           const PackedBinaryB& B, const std::uint32_t* flip,
                           const float* thr, std::uint64_t* planes) {
  gemm_binary_threshold_with(binary_kernel(), m, n, k, packedA, B, flip, thr,
                             planes);
}

void or_pool_planes(const std::uint64_t* src, std::size_t batch,
                    std::size_t h, std::size_t w, std::size_t channels,
                    std::size_t window, std::uint64_t* dst) {
  assert(window > 0 && h % window == 0 && w % window == 0);
  const std::size_t row = binary_words(channels) * kBinaryPlanes;
  const std::size_t oh = h / window, ow = w / window;
  for (std::size_t noy = 0; noy < batch * oh; ++noy) {
    const std::size_t n = noy / oh, oy = noy % oh;
    for (std::size_t ox = 0; ox < ow; ++ox) {
      std::uint64_t* out = dst + (noy * ow + ox) * row;
      std::fill(out, out + row, 0ull);
      for (std::size_t dy = 0; dy < window; ++dy)
        for (std::size_t dx = 0; dx < window; ++dx) {
          const std::uint64_t* in =
              src + ((n * h + oy * window + dy) * w + ox * window + dx) * row;
          for (std::size_t i = 0; i < row; ++i) out[i] |= in[i];
        }
    }
  }
}

void decode_planes(const std::uint64_t* planes, std::size_t batch,
                   std::size_t channels, std::size_t hw, float* dst) {
  const std::size_t cw = binary_words(channels);
  for (std::size_t n = 0; n < batch; ++n)
    for (std::size_t p = 0; p < hw; ++p) {
      const std::uint64_t* px = planes + (n * hw + p) * cw * kBinaryPlanes;
      for (std::size_t c = 0; c < channels; ++c) {
        const std::uint64_t* word = px + (c / 64) * kBinaryPlanes;
        int level = 0;
        for (std::size_t t = 0; t < kBinaryPlanes; ++t)
          level += static_cast<int>((word[t] >> (c % 64)) & 1u);
        dst[(n * channels + c) * hw + p] =
            static_cast<float>(level) * 0.25f - 1.0f;
      }
    }
}

}  // namespace gbo::gemm
