#include "gemm_oracles.hpp"

namespace gbo::gemm {

void naive_gemm_nn_acc(std::size_t m, std::size_t n, std::size_t k,
                       const float* A, const float* B, float* C) {
  for (std::size_t i = 0; i < m; ++i) {
    float* Ci = C + i * n;
    const float* Ai = A + i * k;
    for (std::size_t kk = 0; kk < k; ++kk) {
      const float aik = Ai[kk];
      if (aik == 0.0f) continue;
      const float* Bk = B + kk * n;
      for (std::size_t j = 0; j < n; ++j) Ci[j] += aik * Bk[j];
    }
  }
}

void naive_gemm_nt(std::size_t m, std::size_t n, std::size_t k, const float* A,
                   const float* B, float* C) {
  for (std::size_t i = 0; i < m; ++i) {
    const float* Ai = A + i * k;
    float* Ci = C + i * n;
    for (std::size_t j = 0; j < n; ++j) {
      const float* Bj = B + j * k;
      float acc = 0.0f;
      for (std::size_t kk = 0; kk < k; ++kk) acc += Ai[kk] * Bj[kk];
      Ci[j] = acc;
    }
  }
}

void naive_gemm_tn_acc(std::size_t m, std::size_t n, std::size_t k,
                       const float* A, const float* B, float* C) {
  for (std::size_t kk = 0; kk < k; ++kk) {
    const float* Ak = A + kk * m;
    const float* Bk = B + kk * n;
    for (std::size_t i = 0; i < m; ++i) {
      const float aki = Ak[i];
      if (aki == 0.0f) continue;
      float* Ci = C + i * n;
      for (std::size_t j = 0; j < n; ++j) Ci[j] += aki * Bk[j];
    }
  }
}

}  // namespace gbo::gemm
