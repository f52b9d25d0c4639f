#include "common/keyed_normal.hpp"

#include "common/thread_pool.hpp"

#include <algorithm>
#include <bit>
#include <stdexcept>

namespace gbo {
namespace {

// Philox counter blocks per chunk. Every value is produced by the one
// fixed-trip-count chunk kernel below, whatever range a call asks for.
constexpr std::size_t kChunkBlocks = 32;
constexpr std::size_t kChunk = 4 * kChunkBlocks;  // normals per chunk

// Philox4x32-10 of counter blocks [block, block + kChunkBlocks): block c
// is (lo32(c), hi32(c), stream, 0) and its four output words land in
// w[4j .. 4j + 3].
void philox_chunk(std::uint64_t key, std::uint32_t stream, std::uint64_t block,
                  std::uint32_t* w) {
  for (std::size_t j = 0; j < kChunkBlocks; ++j) {
    const std::uint64_t c = block + j;
    std::uint32_t x0 = static_cast<std::uint32_t>(c);
    std::uint32_t x1 = static_cast<std::uint32_t>(c >> 32);
    std::uint32_t x2 = stream, x3 = 0;
    std::uint32_t k0 = static_cast<std::uint32_t>(key);
    std::uint32_t k1 = static_cast<std::uint32_t>(key >> 32);
    for (int round = 0; round < 10; ++round) {
      const std::uint64_t p0 = std::uint64_t{0xD2511F53u} * x0;
      const std::uint64_t p1 = std::uint64_t{0xCD9E8D57u} * x2;
      const std::uint32_t y0 = static_cast<std::uint32_t>(p1 >> 32) ^ x1 ^ k0;
      const std::uint32_t y2 = static_cast<std::uint32_t>(p0 >> 32) ^ x3 ^ k1;
      x1 = static_cast<std::uint32_t>(p1);
      x3 = static_cast<std::uint32_t>(p0);
      x0 = y0;
      x2 = y2;
      k0 += 0x9E3779B9u;
      k1 += 0xBB67AE85u;
    }
    w[4 * j] = x0;
    w[4 * j + 1] = x1;
    w[4 * j + 2] = x2;
    w[4 * j + 3] = x3;
  }
}

// ln(x) for a normal float x > 0 (Cephes logf: x = 2^e · m with m in
// [√½, √2), a degree-9 polynomial in m − 1), branch-free.
inline float log_positive(float x) {
  const std::uint32_t bits = std::bit_cast<std::uint32_t>(x);
  float m = std::bit_cast<float>((bits & 0x007FFFFFu) | 0x3F000000u);  // [½, 1)
  float e = static_cast<float>(static_cast<std::int32_t>(bits >> 23) - 126);
  const bool low = m < 0.707106781186547524f;
  e = low ? e - 1.0f : e;
  const float f = low ? m + m - 1.0f : m - 1.0f;
  const float z = f * f;
  float y = 7.0376836292e-2f;
  y = y * f - 1.1514610310e-1f;
  y = y * f + 1.1676998740e-1f;
  y = y * f - 1.2420140846e-1f;
  y = y * f + 1.4249322787e-1f;
  y = y * f - 1.6668057665e-1f;
  y = y * f + 2.0000714765e-1f;
  y = y * f - 2.4999993993e-1f;
  y = y * f + 3.3333331174e-1f;
  y = y * f * z;
  y += -2.12194440e-4f * e;
  y += -0.5f * z;
  return f + y + 0.693359375f * e;
}

// √s for s >= 0 as s · rsqrt(s): a magic-constant guess refined by three
// Newton steps (std::sqrt would keep the loop scalar under math-errno).
inline float sqrt_newton(float s) {
  float y = std::bit_cast<float>(0x5F375A86u - (std::bit_cast<std::uint32_t>(s) >> 1));
  const float h = 0.5f * s;
  y = y * (1.5f - h * y * y);
  y = y * (1.5f - h * y * y);
  y = y * (1.5f - h * y * y);
  return s * y;
}

// Unit normals z[0 .. kChunk) of counter blocks [block, block +
// kChunkBlocks): word pair (a, b) gives r = √(−2 ln u1) with u1 = (a>>8
// + 1)·2^-24 in (0, 1], and the angle 2π·(b>>8)·2^-24, reduced to a
// quadrant q and |φ| <= π/4 in integer arithmetic; normals are r·cos θ,
// r·sin θ in pair order.
void normal_chunk(std::uint64_t key, std::uint32_t stream, std::uint64_t block,
                  float* z) {
  alignas(64) std::uint32_t w[kChunk];
  philox_chunk(key, stream, block, w);
  for (std::size_t p = 0; p < kChunk / 2; ++p) {
    const std::uint32_t a = w[2 * p], b = w[2 * p + 1];
    const float u1 =
        static_cast<float>(static_cast<std::int32_t>((a >> 8) + 1)) * 0x1.0p-24f;
    const float r = sqrt_newton(-2.0f * log_positive(u1));

    const std::uint32_t v = b >> 8;                   // angle in 2^-24 turns
    const std::uint32_t q = (v + (1u << 21)) >> 22;   // nearest quarter turn
    const float x = static_cast<float>(static_cast<std::int32_t>(v) -
                                       static_cast<std::int32_t>(q << 22)) *
                    (1.57079632679489662f * 0x1.0p-22f);  // |x| <= π/4
    const float x2 = x * x;
    float sn = -1.9515295891e-4f;
    sn = sn * x2 + 8.3321608736e-3f;
    sn = sn * x2 - 1.6666654611e-1f;
    sn = sn * x2 * x + x;
    float cs = 2.443315711809948e-5f;
    cs = cs * x2 - 1.388731625493765e-3f;
    cs = cs * x2 + 4.166664568298827e-2f;
    cs = cs * x2 * x2 - 0.5f * x2 + 1.0f;
    // θ = q·π/2 + x: quadrants 1 and 3 swap cos and sin, quadrants 1–2
    // negate cos and 2–3 negate sin.
    const bool swap = (q & 1u) != 0;
    const float c0 = swap ? sn : cs;
    const float s0 = swap ? cs : sn;
    const float c = std::bit_cast<float>(std::bit_cast<std::uint32_t>(c0) ^
                                         (((q + 1u) & 2u) << 30));
    const float s =
        std::bit_cast<float>(std::bit_cast<std::uint32_t>(s0) ^ ((q & 2u) << 30));
    z[2 * p] = r * c;
    z[2 * p + 1] = r * s;
  }
}

template <bool kAdd>
void keyed_normal_serial(std::uint64_t key, std::uint64_t first, float* out,
                         std::size_t n, float stddev, std::uint32_t stream) {
  alignas(64) float z[kChunk];
  const std::uint64_t end = first + n;
  for (std::uint64_t i = first; i < end;) {
    const std::uint64_t base = i / kChunk * kChunk;
    normal_chunk(key, stream, base / 4, z);
    const std::size_t lo = static_cast<std::size_t>(i - base);
    const std::size_t hi =
        static_cast<std::size_t>(std::min<std::uint64_t>(end - base, kChunk));
    float* o = out + (i - first);
    const float* zt = z + lo;
    for (std::size_t t = 0; t < hi - lo; ++t) {
      const float v = stddev * zt[t];
      o[t] = kAdd ? o[t] + v : v;
    }
    i = base + hi;
  }
}

template <bool kAdd>
void keyed_normal_rows_impl(std::uint64_t key,
                            std::span<const std::uint64_t> row_ids, float* out,
                            std::size_t n, float stddev, std::uint32_t stream) {
  const std::size_t groups = row_ids.empty() ? 1 : row_ids.size();
  if (n % groups != 0)
    throw std::invalid_argument(
        "keyed_normal_rows: row ids do not split the range evenly");
  const std::size_t len = n / groups;
  for (std::size_t j = 0; j < groups; ++j) {
    const std::uint64_t k = row_ids.empty() ? key : row_key(key, row_ids[j]);
    float* o = out + j * len;
    parallel_for(0, len, kKeyedNormalGrain, [&](std::size_t lo, std::size_t hi) {
      keyed_normal_serial<kAdd>(k, lo, o + lo, hi - lo, stddev, stream);
    });
  }
}

}  // namespace

std::uint64_t row_key(std::uint64_t site_key, std::uint64_t row_id) {
  std::uint64_t z = site_key + (row_id + 1) * 0x9E3779B97F4A7C15ull;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

void keyed_normal_rows(std::uint64_t key, std::span<const std::uint64_t> row_ids,
                       float* out, std::size_t n, float stddev,
                       std::uint32_t stream) {
  keyed_normal_rows_impl<false>(key, row_ids, out, n, stddev, stream);
}

void add_keyed_normal_rows(std::uint64_t key,
                           std::span<const std::uint64_t> row_ids, float* out,
                           std::size_t n, float stddev, std::uint32_t stream) {
  keyed_normal_rows_impl<true>(key, row_ids, out, n, stddev, stream);
}

void keyed_normal(std::uint64_t key, std::uint64_t first, float* out,
                  std::size_t n, float stddev, std::uint32_t stream) {
  keyed_normal_serial<false>(key, first, out, n, stddev, stream);
}

void add_keyed_normal(std::uint64_t key, std::uint64_t first, float* out,
                      std::size_t n, float stddev, std::uint32_t stream) {
  keyed_normal_serial<true>(key, first, out, n, stddev, stream);
}


}  // namespace gbo
