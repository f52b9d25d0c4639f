// Keyed Gaussian noise: the normal at element i is a pure function of
// (64-bit key, stream, i).
//
// Counter-based (Philox4x32-10, Salmon et al., "Parallel Random Numbers:
// As Easy as 1, 2, 3", SC'11): counter block i/4 = (lo32, hi32, stream, 0)
// is encrypted under the key into four 32-bit words, and a float
// Box–Muller turns the two word pairs into four normals. The transform's
// log, sin/cos and square root are in-repo polynomial and Newton code — no
// libm call — so the whole kernel vectorizes under the repository's
// default flags (math-errno on, no fast-math).
//
// Bit contract (DESIGN.md §3): within one build the value at index i
// never depends on n, on where a call starts, on block boundaries or on
// the pool width, since every value is computed by the same fixed-size
// chunk kernel. Across builds the bits may differ (e.g. with FMA
// contraction), so tests check invariance and statistics, not golden
// values.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>

namespace gbo {

/// out[i] = stddev · z(key, stream, first + i) for i in [0, n), serially.
void keyed_normal(std::uint64_t key, std::uint64_t first, float* out,
                  std::size_t n, float stddev, std::uint32_t stream = 0);

/// out[i] += stddev · z(key, stream, first + i) for i in [0, n), serially.
void add_keyed_normal(std::uint64_t key, std::uint64_t first, float* out,
                      std::size_t n, float stddev, std::uint32_t stream = 0);

/// The key of request `row_id`'s noise at a site keyed `site_key`: a
/// splitmix64 finalizer of the pair.
std::uint64_t row_key(std::uint64_t site_key, std::uint64_t row_id);

/// Row-grouped keyed noise (DESIGN.md §3): out[0, n) splits into
/// row_ids.size() equal groups, and element i of group j is stddev ·
/// z(row_key(key, row_ids[j]), stream, i). Empty row_ids is one group
/// under `key` itself. Runs each group over fixed kKeyedNormalGrain blocks
/// of the pool, bitwise the serial result. Throws
/// std::invalid_argument when the ids do not split n evenly.
void keyed_normal_rows(std::uint64_t key, std::span<const std::uint64_t> row_ids,
                       float* out, std::size_t n, float stddev,
                       std::uint32_t stream = 0);

/// keyed_normal_rows, added to out instead of written.
void add_keyed_normal_rows(std::uint64_t key,
                           std::span<const std::uint64_t> row_ids, float* out,
                           std::size_t n, float stddev,
                           std::uint32_t stream = 0);

/// Names the sampler (generator, transform, version). Caches of results
/// that depend on the noise bits put it in their fingerprint.
inline constexpr const char* kKeyedNormalTag = "philox4x32-10+boxmuller-f32/1";

/// Normals per parallel_for block of the row-grouped entry points.
inline constexpr std::size_t kKeyedNormalGrain = 16384;

}  // namespace gbo
