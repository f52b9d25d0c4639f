#include "tensor/im2col.hpp"

#include "common/thread_pool.hpp"
#include "tensor/gemm_binary.hpp"

#include <algorithm>
#include <cstring>

namespace gbo {

Tensor im2col(const Tensor& input, const ConvGeom& g) {
  Tensor cols({input.ndim() == 4 ? input.dim(0) * g.out_h() * g.out_w() : 0,
               g.patch_len()});
  im2col_into(input, g, cols.data());
  return cols;
}

void im2col_into(const Tensor& input, const ConvGeom& g, float* out) {
  if (input.ndim() != 4)
    throw std::invalid_argument("im2col: expected NCHW input, got " + input.shape_str());
  const std::size_t batch = input.dim(0);
  if (input.dim(1) != g.in_c || input.dim(2) != g.in_h || input.dim(3) != g.in_w)
    throw std::invalid_argument("im2col: input does not match geometry");

  const std::size_t oh = g.out_h(), ow = g.out_w(), plen = g.patch_len();
  const float* in = input.data();
  const std::size_t chw = g.in_c * g.in_h * g.in_w;

  // Each (image, output row) writes a disjoint slice of `cols`, so the
  // flattened loop threads freely (deterministic: pure writes).
  parallel_for(0, batch * oh, 4, [&](std::size_t lo, std::size_t hi) {
    for (std::size_t noy = lo; noy < hi; ++noy) {
      const std::size_t n = noy / oh, oy = noy % oh;
      const float* img = in + n * chw;
      for (std::size_t ox = 0; ox < ow; ++ox) {
        float* row = out + ((n * oh + oy) * ow + ox) * plen;
        const std::ptrdiff_t iy0 =
            static_cast<std::ptrdiff_t>(oy * g.stride) - static_cast<std::ptrdiff_t>(g.pad);
        const std::ptrdiff_t ix0 =
            static_cast<std::ptrdiff_t>(ox * g.stride) - static_cast<std::ptrdiff_t>(g.pad);
        std::size_t idx = 0;
        for (std::size_t c = 0; c < g.in_c; ++c) {
          const float* chan = img + c * g.in_h * g.in_w;
          for (std::size_t ky = 0; ky < g.k; ++ky) {
            const std::ptrdiff_t iy = iy0 + static_cast<std::ptrdiff_t>(ky);
            const bool y_ok = iy >= 0 && iy < static_cast<std::ptrdiff_t>(g.in_h);
            for (std::size_t kx = 0; kx < g.k; ++kx, ++idx) {
              const std::ptrdiff_t ix = ix0 + static_cast<std::ptrdiff_t>(kx);
              row[idx] = (y_ok && ix >= 0 && ix < static_cast<std::ptrdiff_t>(g.in_w))
                             ? chan[iy * static_cast<std::ptrdiff_t>(g.in_w) + ix]
                             : 0.0f;
            }
          }
        }
      }
    }
  });
}

void im2col_binary(const std::uint64_t* pixel_planes, std::size_t batch,
                   const ConvGeom& g, std::uint64_t* dst) {
  constexpr std::size_t kPlanes = gemm::kBinaryPlanes;
  // One word of all 8 planes as a single vector value (GCC/Clang vector
  // extension), so each tap is one shift-or across the planes.
  using Planes = std::uint64_t __attribute__((vector_size(kPlanes * 8)));
  const std::size_t c = g.in_c, cw = gemm::binary_words(c);
  const std::size_t kw = gemm::binary_words(g.patch_len());
  const std::size_t oh = g.out_h(), ow = g.out_w();
  // The padding pixel's plane words (level 4: planes 0..3 set over the
  // channel bits), for a full channel word and for the last one.
  std::uint64_t pad_full[kPlanes] = {0}, pad_last[kPlanes] = {0};
  for (std::size_t t = 0; t < kPlanes / 2; ++t) {
    pad_full[t] = ~0ull;
    pad_last[t] = c % 64 == 0 ? ~0ull : (1ull << (c % 64)) - 1;
  }
  const auto in_h = static_cast<std::ptrdiff_t>(g.in_h);
  const auto in_w = static_cast<std::ptrdiff_t>(g.in_w);
  // Output image rows per task: at least ~16K tap words, so unit-batch
  // shapes run inline instead of paying the pool's wake-up per call.
  const std::size_t grain =
      std::max<std::size_t>(1, 16384 / (ow * g.k * g.k * cw));
  parallel_for(0, batch * oh, grain, [&](std::size_t lo, std::size_t hi) {
    for (std::size_t noy = lo; noy < hi; ++noy) {
      const std::size_t n = noy / oh, oy = noy % oh;
      for (std::size_t ox = 0; ox < ow; ++ox) {
        // The row is written as a bit stream, all 8 planes at once: `cur`
        // collects `fill` bits of the current word and is stored when full.
        std::uint64_t* out = dst + (noy * ow + ox) * kw * kPlanes;
        Planes cur = {};
        std::size_t fill = 0;
        const auto put = [&](const std::uint64_t* words, std::size_t bits) {
          Planes v;
          std::memcpy(&v, words, sizeof(v));
          cur |= v << fill;
          if (fill + bits < 64) {
            fill += bits;
            return;
          }
          std::memcpy(out, &cur, sizeof(cur));
          out += kPlanes;
          cur = fill == 0 ? Planes{} : v >> (64 - fill);
          fill = fill + bits - 64;
        };
        const std::ptrdiff_t iy0 = static_cast<std::ptrdiff_t>(oy * g.stride) -
                                   static_cast<std::ptrdiff_t>(g.pad);
        const std::ptrdiff_t ix0 = static_cast<std::ptrdiff_t>(ox * g.stride) -
                                   static_cast<std::ptrdiff_t>(g.pad);
        for (std::size_t ky = 0; ky < g.k; ++ky) {
          const std::ptrdiff_t iy = iy0 + static_cast<std::ptrdiff_t>(ky);
          for (std::size_t kx = 0; kx < g.k; ++kx) {
            const std::ptrdiff_t ix = ix0 + static_cast<std::ptrdiff_t>(kx);
            const bool in = iy >= 0 && iy < in_h && ix >= 0 && ix < in_w;
            const std::uint64_t* pixel =
                in ? pixel_planes +
                         ((n * g.in_h + static_cast<std::size_t>(iy)) *
                              g.in_w +
                          static_cast<std::size_t>(ix)) *
                             cw * kPlanes
                   : nullptr;
            for (std::size_t i = 0; i + 1 < cw; ++i)
              put(in ? pixel + i * kPlanes : pad_full, 64);
            put(in ? pixel + (cw - 1) * kPlanes : pad_last, c - 64 * (cw - 1));
          }
        }
        if (fill != 0) std::memcpy(out, &cur, sizeof(cur));
      }
    }
  });
}

void to_tap_major(const float* rows, std::size_t n, const ConvGeom& g,
                  float* dst) {
  const std::size_t taps = g.k * g.k, k = g.patch_len();
  for (std::size_t j = 0; j < n; ++j)
    for (std::size_t c = 0; c < g.in_c; ++c)
      for (std::size_t q = 0; q < taps; ++q)
        dst[j * k + q * g.in_c + c] = rows[j * k + c * taps + q];
}

void rows_to_nchw_into(const float* rows, std::size_t batch, std::size_t out_c,
                       std::size_t oh, std::size_t ow, float* dst) {
  for (std::size_t n = 0; n < batch; ++n)
    for (std::size_t y = 0; y < oh; ++y)
      for (std::size_t x = 0; x < ow; ++x) {
        const float* row = rows + ((n * oh + y) * ow + x) * out_c;
        for (std::size_t c = 0; c < out_c; ++c)
          dst[((n * out_c + c) * oh + y) * ow + x] = row[c];
      }
}

Tensor col2im(const Tensor& columns, std::size_t batch, const ConvGeom& g) {
  const std::size_t oh = g.out_h(), ow = g.out_w(), plen = g.patch_len();
  if (columns.ndim() != 2 || columns.dim(0) != batch * oh * ow || columns.dim(1) != plen)
    throw std::invalid_argument("col2im: column shape does not match geometry");

  Tensor grad({batch, g.in_c, g.in_h, g.in_w});
  float* out = grad.data();
  const float* in = columns.data();
  const std::size_t chw = g.in_c * g.in_h * g.in_w;

  // Overlapping patches accumulate within one image, but images are
  // independent: thread over the batch only.
  parallel_for(0, batch, 1, [&](std::size_t lo, std::size_t hi) {
    for (std::size_t n = lo; n < hi; ++n) {
      float* img = out + n * chw;
      for (std::size_t oy = 0; oy < oh; ++oy) {
        for (std::size_t ox = 0; ox < ow; ++ox) {
          const float* row = in + ((n * oh + oy) * ow + ox) * plen;
          const std::ptrdiff_t iy0 =
              static_cast<std::ptrdiff_t>(oy * g.stride) - static_cast<std::ptrdiff_t>(g.pad);
          const std::ptrdiff_t ix0 =
              static_cast<std::ptrdiff_t>(ox * g.stride) - static_cast<std::ptrdiff_t>(g.pad);
          std::size_t idx = 0;
          for (std::size_t c = 0; c < g.in_c; ++c) {
            float* chan = img + c * g.in_h * g.in_w;
            for (std::size_t ky = 0; ky < g.k; ++ky) {
              const std::ptrdiff_t iy = iy0 + static_cast<std::ptrdiff_t>(ky);
              const bool y_ok = iy >= 0 && iy < static_cast<std::ptrdiff_t>(g.in_h);
              for (std::size_t kx = 0; kx < g.k; ++kx, ++idx) {
                const std::ptrdiff_t ix = ix0 + static_cast<std::ptrdiff_t>(kx);
                if (y_ok && ix >= 0 && ix < static_cast<std::ptrdiff_t>(g.in_w))
                  chan[iy * static_cast<std::ptrdiff_t>(g.in_w) + ix] += row[idx];
              }
            }
          }
        }
      }
    }
  });
  return grad;
}

}  // namespace gbo
