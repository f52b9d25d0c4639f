// Elementwise, reduction, and GEMM kernels over Tensor.
//
// Free functions rather than members so kernels stay composable and the
// Tensor class stays small. All functions validate shapes and throw
// std::invalid_argument on mismatch.
#pragma once

#include "common/rng.hpp"
#include "tensor/tensor.hpp"

namespace gbo::ops {

// ---- elementwise ----------------------------------------------------------

Tensor add(const Tensor& a, const Tensor& b);
Tensor sub(const Tensor& a, const Tensor& b);
Tensor mul(const Tensor& a, const Tensor& b);  // Hadamard product
Tensor scale(const Tensor& a, float s);
void add_inplace(Tensor& a, const Tensor& b);
void sub_inplace(Tensor& a, const Tensor& b);
void scale_inplace(Tensor& a, float s);
/// a += s * b  (axpy)
void axpy_inplace(Tensor& a, float s, const Tensor& b);

// ---- reductions -----------------------------------------------------------

float sum(const Tensor& a);
float mean(const Tensor& a);
float max_abs(const Tensor& a);
float min(const Tensor& a);
float max(const Tensor& a);
/// Unbiased=false variance over all elements.
float variance(const Tensor& a);
/// Index of the maximum element in a flat view.
std::size_t argmax(const Tensor& a);
/// Row-wise argmax of a 2D tensor [rows, cols] -> vector of column indices.
std::vector<std::size_t> argmax_rows(const Tensor& a);

// ---- random fills ---------------------------------------------------------

void fill_uniform(Tensor& a, Rng& rng, float lo, float hi);
void fill_normal(Tensor& a, Rng& rng, float mean, float stddev);

// ---- GEMM -----------------------------------------------------------------
//
// All variants run the packed-panel multithreaded kernel in tensor/gemm.hpp
// (thread count: GBO_NUM_THREADS), one route per product. Results are
// bitwise reproducible at any thread count, and row i of a product does not
// depend on how many rows A has.

/// C = A * B with A:[m,k], B:[k,n] -> C:[m,n].
Tensor matmul(const Tensor& a, const Tensor& b);

/// C = A * B^T with A:[m,k], B:[n,k] -> C:[m,n].
Tensor matmul_bt(const Tensor& a, const Tensor& b);

/// C = A^T * B with A:[k,m], B:[k,n] -> C:[m,n].
Tensor matmul_at(const Tensor& a, const Tensor& b);

/// In-place accumulate: c[m,n] += a[m,k] * b[k,n].
void matmul_acc(const Tensor& a, const Tensor& b, Tensor& c);

// ---- misc -----------------------------------------------------------------

/// Transposes a 2D tensor.
Tensor transpose(const Tensor& a);

/// True if all |a[i] - b[i]| <= atol + rtol * |b[i]|.
bool allclose(const Tensor& a, const Tensor& b, float rtol = 1e-5f, float atol = 1e-6f);

}  // namespace gbo::ops
