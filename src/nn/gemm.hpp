#pragma once
// Small dense matrix-multiply kernels used by the training-side conv/dense
// layers. Not a BLAS; register-tiled loop nests that autovectorize well
// for the CI-scale training runs this project performs.
//
// Every kernel is BIT-IDENTICAL to its naive counterpart in nn::ref for
// finite inputs: optimizations only reorder memory traffic, never the
// per-element floating-point accumulation sequence (each C element still
// receives its k-contributions one rounded add at a time, in ascending-k
// order). tests/nn/gemm_property_test.cpp pins this across shapes,
// sparsities, and alignment offsets.
//
// Runtime path selection: the kernels count a row's nonzeros once and
// either skip zero weights block-free (pruned rows) or run a dense fast
// path that drops the per-element zero branch and register-tiles the
// reduction (see docs/performance.md).
//
// ISA selection: gemm_accumulate and gemm_at_b are compiled twice from one
// source, for the baseline ISA and (on x86) for AVX2 without FMA, and run
// the widest instantiation the CPU supports, chosen once per process.
// Vector width never changes a result's bits; gemm_paths() exposes every
// instantiation so the tests can hold each to nn::ref.

#include <cstddef>
#include <span>

namespace iprune::nn {

using GemmFn = void (*)(const float*, const float*, float*, std::size_t,
                        std::size_t, std::size_t);

/// One compiled instantiation of the axpy-form kernels.
struct GemmPath {
  const char* isa;  // "baseline" or "avx2"
  GemmFn accumulate;
  GemmFn at_b;
};

/// The instantiations this host can run, baseline first. gemm_accumulate
/// and gemm_at_b call the last one.
std::span<const GemmPath> gemm_paths();

/// C[m x n] += A[m x k] * B[k x n]   (all row-major, C must be pre-zeroed
/// by the caller when accumulation is not wanted).
void gemm_accumulate(const float* a, const float* b, float* c, std::size_t m,
                     std::size_t k, std::size_t n);

/// C[m x n] += A^T[k x m] * B[k x n]  (A stored row-major as [k x m]).
void gemm_at_b(const float* a, const float* b, float* c, std::size_t m,
               std::size_t k, std::size_t n);

/// C[m x n] += A[m x k] * B^T[n x k]  (B stored row-major as [n x k]).
void gemm_a_bt(const float* a, const float* b, float* c, std::size_t m,
               std::size_t k, std::size_t n);

namespace ref {

// Retained naive seed kernels: the executable specification the optimized
// kernels are differentially tested against. Not used on any hot path.

void gemm_accumulate(const float* a, const float* b, float* c, std::size_t m,
                     std::size_t k, std::size_t n);
void gemm_at_b(const float* a, const float* b, float* c, std::size_t m,
               std::size_t k, std::size_t n);
void gemm_a_bt(const float* a, const float* b, float* c, std::size_t m,
               std::size_t k, std::size_t n);

}  // namespace ref

}  // namespace iprune::nn
