// im2col / col2im lowering for convolution.
//
// Conv2d forward is computed as GEMM over the im2col patch matrix; the
// backward data pass uses col2im. The same patch matrix is also what gets
// streamed through the crossbar simulator pulse-by-pulse, so this lowering
// is the single point where "convolution" becomes "MVM" for both the
// digital and the analog execution paths.
#pragma once

#include "tensor/tensor.hpp"

namespace gbo {

struct ConvGeom {
  std::size_t in_c = 0, in_h = 0, in_w = 0;
  std::size_t k = 3;       // square kernel
  std::size_t stride = 1;
  std::size_t pad = 1;

  std::size_t out_h() const { return (in_h + 2 * pad - k) / stride + 1; }
  std::size_t out_w() const { return (in_w + 2 * pad - k) / stride + 1; }
  std::size_t patch_len() const { return in_c * k * k; }
};

/// input: [N, C, H, W]  ->  columns: [N * out_h * out_w, C * k * k]
/// Each row is one receptive-field patch (zero padded at borders).
Tensor im2col(const Tensor& input, const ConvGeom& g);

/// Same lowering into a caller-provided buffer of N*out_h*out_w*patch_len
/// floats (arena scratch in the stateless infer path). Every element is
/// written, padding included; bitwise identical to im2col.
void im2col_into(const Tensor& input, const ConvGeom& g, float* out);

/// Bit-plane lowering of the binary conv route (DESIGN.md §8): gathers each
/// output pixel's patch as words from pixel planes (gemm::pack_binary_pixels
/// layout) into packed A rows (gemm::pack_binary_a layout) over the
/// tap-major patch order (ky, kx, c) — each tap contributes its pixel's
/// in_c channel bits per plane. Border taps read the zero-padding value,
/// level 4 (planes 0..3 set). Patch order does not change the popcount sum,
/// so the weight side only has to use the same order (to_tap_major).
void im2col_binary(const std::uint64_t* pixel_planes, std::size_t batch,
                   const ConvGeom& g, std::uint64_t* dst);

/// Permutes the columns of n rows of patch length from the im2col order
/// (c, ky, kx) to the tap-major order (ky, kx, c) of im2col_binary.
void to_tap_major(const float* rows, std::size_t n, const ConvGeom& g,
                  float* dst);

/// Inverse scatter-add of im2col: columns [N * out_h * out_w, C*k*k]
/// -> gradient w.r.t. input [N, C, H, W].
Tensor col2im(const Tensor& columns, std::size_t batch, const ConvGeom& g);

/// GEMM-result rows [N * oh * ow, out_c] -> NCHW [N, out_c, oh, ow] into a
/// caller buffer — the output-side counterpart of the lowering, shared by
/// the host Conv2d and the pulse-level deployment path.
void rows_to_nchw_into(const float* rows, std::size_t batch, std::size_t out_c,
                       std::size_t oh, std::size_t ow, float* dst);

}  // namespace gbo
