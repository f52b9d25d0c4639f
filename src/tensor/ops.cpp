#include "tensor/ops.hpp"

#include "tensor/gemm.hpp"

#include <algorithm>
#include <cmath>

namespace gbo::ops {

namespace {
void check2d(const Tensor& t, const char* who) {
  if (t.ndim() != 2)
    throw std::invalid_argument(std::string(who) + ": expected 2D tensor, got " + t.shape_str());
}
}  // namespace

Tensor add(const Tensor& a, const Tensor& b) {
  Tensor::check_same_shape(a, b, "ops::add");
  Tensor out = a;
  add_inplace(out, b);
  return out;
}

Tensor sub(const Tensor& a, const Tensor& b) {
  Tensor::check_same_shape(a, b, "ops::sub");
  Tensor out = a;
  sub_inplace(out, b);
  return out;
}

Tensor mul(const Tensor& a, const Tensor& b) {
  Tensor::check_same_shape(a, b, "ops::mul");
  Tensor out = a;
  float* o = out.data();
  const float* q = b.data();
  for (std::size_t i = 0; i < out.numel(); ++i) o[i] *= q[i];
  return out;
}

Tensor scale(const Tensor& a, float s) {
  Tensor out = a;
  scale_inplace(out, s);
  return out;
}

void add_inplace(Tensor& a, const Tensor& b) {
  Tensor::check_same_shape(a, b, "ops::add_inplace");
  float* p = a.data();
  const float* q = b.data();
  for (std::size_t i = 0; i < a.numel(); ++i) p[i] += q[i];
}

void sub_inplace(Tensor& a, const Tensor& b) {
  Tensor::check_same_shape(a, b, "ops::sub_inplace");
  float* p = a.data();
  const float* q = b.data();
  for (std::size_t i = 0; i < a.numel(); ++i) p[i] -= q[i];
}

void scale_inplace(Tensor& a, float s) {
  float* p = a.data();
  for (std::size_t i = 0; i < a.numel(); ++i) p[i] *= s;
}

void axpy_inplace(Tensor& a, float s, const Tensor& b) {
  Tensor::check_same_shape(a, b, "ops::axpy_inplace");
  float* p = a.data();
  const float* q = b.data();
  for (std::size_t i = 0; i < a.numel(); ++i) p[i] += s * q[i];
}

float sum(const Tensor& a) {
  // Pairwise-free Kahan summation keeps reductions deterministic and stable
  // for the million-element activations used in training.
  double acc = 0.0, comp = 0.0;
  const float* p = a.data();
  for (std::size_t i = 0; i < a.numel(); ++i) {
    const double y = static_cast<double>(p[i]) - comp;
    const double t = acc + y;
    comp = (t - acc) - y;
    acc = t;
  }
  return static_cast<float>(acc);
}

float mean(const Tensor& a) {
  if (a.numel() == 0) return 0.0f;
  return sum(a) / static_cast<float>(a.numel());
}

float max_abs(const Tensor& a) {
  float m = 0.0f;
  const float* p = a.data();
  for (std::size_t i = 0; i < a.numel(); ++i) m = std::max(m, std::fabs(p[i]));
  return m;
}

float min(const Tensor& a) {
  if (a.empty()) throw std::invalid_argument("ops::min: empty tensor");
  return *std::min_element(a.vec().begin(), a.vec().end());
}

float max(const Tensor& a) {
  if (a.empty()) throw std::invalid_argument("ops::max: empty tensor");
  return *std::max_element(a.vec().begin(), a.vec().end());
}

float variance(const Tensor& a) {
  if (a.numel() == 0) return 0.0f;
  const double m = mean(a);
  double acc = 0.0;
  const float* p = a.data();
  for (std::size_t i = 0; i < a.numel(); ++i) {
    const double d = static_cast<double>(p[i]) - m;
    acc += d * d;
  }
  return static_cast<float>(acc / static_cast<double>(a.numel()));
}

std::size_t argmax(const Tensor& a) {
  if (a.empty()) throw std::invalid_argument("ops::argmax: empty tensor");
  return static_cast<std::size_t>(
      std::max_element(a.vec().begin(), a.vec().end()) - a.vec().begin());
}

std::vector<std::size_t> argmax_rows(const Tensor& a) {
  check2d(a, "ops::argmax_rows");
  const std::size_t rows = a.dim(0), cols = a.dim(1);
  std::vector<std::size_t> out(rows);
  for (std::size_t r = 0; r < rows; ++r) {
    const float* row = a.data() + r * cols;
    out[r] = static_cast<std::size_t>(std::max_element(row, row + cols) - row);
  }
  return out;
}

void fill_uniform(Tensor& a, Rng& rng, float lo, float hi) {
  float* p = a.data();
  for (std::size_t i = 0; i < a.numel(); ++i)
    p[i] = static_cast<float>(rng.uniform(lo, hi));
}

void fill_normal(Tensor& a, Rng& rng, float mean, float stddev) {
  rng.fill_normal(a.data(), a.numel(), mean, stddev);
}

Tensor matmul(const Tensor& a, const Tensor& b) {
  check2d(a, "ops::matmul(a)");
  check2d(b, "ops::matmul(b)");
  if (a.dim(1) != b.dim(0))
    throw std::invalid_argument("ops::matmul: inner dim mismatch " +
                                a.shape_str() + " x " + b.shape_str());
  Tensor c({a.dim(0), b.dim(1)});
  matmul_acc(a, b, c);
  return c;
}

void matmul_acc(const Tensor& a, const Tensor& b, Tensor& c) {
  const std::size_t m = a.dim(0), k = a.dim(1), n = b.dim(1);
  if (c.dim(0) != m || c.dim(1) != n)
    throw std::invalid_argument("ops::matmul_acc: output shape mismatch");
  // Blocked multithreaded kernel (tensor/gemm.hpp); deterministic at any
  // thread count.
  gemm::gemm_nn(m, n, k, a.data(), k, b.data(), n, c.data(), n,
                /*accumulate=*/true);
}

Tensor matmul_bt(const Tensor& a, const Tensor& b) {
  check2d(a, "ops::matmul_bt(a)");
  check2d(b, "ops::matmul_bt(b)");
  if (a.dim(1) != b.dim(1))
    throw std::invalid_argument("ops::matmul_bt: inner dim mismatch");
  const std::size_t m = a.dim(0), k = a.dim(1), n = b.dim(0);
  Tensor c({m, n});
  gemm::gemm_nt(m, n, k, a.data(), k, b.data(), k, c.data(), n);
  return c;
}

Tensor matmul_at(const Tensor& a, const Tensor& b) {
  check2d(a, "ops::matmul_at(a)");
  check2d(b, "ops::matmul_at(b)");
  if (a.dim(0) != b.dim(0))
    throw std::invalid_argument("ops::matmul_at: inner dim mismatch");
  const std::size_t k = a.dim(0), m = a.dim(1), n = b.dim(1);
  Tensor c({m, n});
  gemm::gemm_tn_acc(m, n, k, a.data(), m, b.data(), n, c.data(), n);
  return c;
}

Tensor transpose(const Tensor& a) {
  check2d(a, "ops::transpose");
  const std::size_t m = a.dim(0), n = a.dim(1);
  Tensor out({n, m});
  for (std::size_t i = 0; i < m; ++i)
    for (std::size_t j = 0; j < n; ++j) out.at(j, i) = a.at(i, j);
  return out;
}

bool allclose(const Tensor& a, const Tensor& b, float rtol, float atol) {
  if (!a.same_shape(b)) return false;
  const float* p = a.data();
  const float* q = b.data();
  for (std::size_t i = 0; i < a.numel(); ++i) {
    if (std::fabs(p[i] - q[i]) > atol + rtol * std::fabs(q[i])) return false;
  }
  return true;
}

}  // namespace gbo::ops
