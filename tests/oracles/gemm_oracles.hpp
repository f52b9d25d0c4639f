// Naive reference GEMM loops (the seed implementations): the correctness
// oracles the blocked/packed kernels in tensor/gemm.hpp are tested against.
// Test-only; nothing in the library links them.
#pragma once

#include <cstddef>

namespace gbo::gemm {

/// Seed ikj loop: C += A·B (callers zero C for the plain product).
void naive_gemm_nn_acc(std::size_t m, std::size_t n, std::size_t k,
                       const float* A, const float* B, float* C);

/// Seed dot-product loop: C = A·Bᵀ.
void naive_gemm_nt(std::size_t m, std::size_t n, std::size_t k, const float* A,
                   const float* B, float* C);

/// Seed outer-product loop: C += Aᵀ·B.
void naive_gemm_tn_acc(std::size_t m, std::size_t n, std::size_t k,
                       const float* A, const float* B, float* C);

}  // namespace gbo::gemm
