#include "nn/gemm.hpp"

namespace iprune::nn {

namespace ref {

void gemm_accumulate(const float* a, const float* b, float* c, std::size_t m,
                     std::size_t k, std::size_t n) {
  // i-k-j order: the inner loop streams both B's row and C's row, which
  // autovectorizes and keeps one A element in a register.
  for (std::size_t i = 0; i < m; ++i) {
    float* c_row = c + i * n;
    const float* a_row = a + i * k;
    for (std::size_t kk = 0; kk < k; ++kk) {
      const float a_ik = a_row[kk];
      if (a_ik == 0.0f) {
        continue;  // sparse weights after pruning make this branch pay off
      }
      const float* b_row = b + kk * n;
      for (std::size_t j = 0; j < n; ++j) {
        c_row[j] += a_ik * b_row[j];
      }
    }
  }
}

void gemm_at_b(const float* a, const float* b, float* c, std::size_t m,
               std::size_t k, std::size_t n) {
  for (std::size_t kk = 0; kk < k; ++kk) {
    const float* a_row = a + kk * m;
    const float* b_row = b + kk * n;
    for (std::size_t i = 0; i < m; ++i) {
      const float a_ki = a_row[i];
      if (a_ki == 0.0f) {
        continue;
      }
      float* c_row = c + i * n;
      for (std::size_t j = 0; j < n; ++j) {
        c_row[j] += a_ki * b_row[j];
      }
    }
  }
}

void gemm_a_bt(const float* a, const float* b, float* c, std::size_t m,
               std::size_t k, std::size_t n) {
  for (std::size_t i = 0; i < m; ++i) {
    const float* a_row = a + i * k;
    float* c_row = c + i * n;
    for (std::size_t j = 0; j < n; ++j) {
      const float* b_row = b + j * k;
      float acc = 0.0f;
      for (std::size_t kk = 0; kk < k; ++kk) {
        acc += a_row[kk] * b_row[kk];
      }
      c_row[j] += acc;
    }
  }
}

}  // namespace ref

namespace {

// A row (or A-row in the transposed kernel) runs the dense fast path when
// at least 3/4 of its weights survive: the few zero multiply-adds it no
// longer branches around are cheaper than a data-dependent branch per
// element. Zero contributions cannot change C: every accumulator starts
// at +0 (callers pre-zero C or accumulate sums that IEEE-754 round-to-
// nearest can never drive to -0), and x + (+/-0) == x bit-exactly then.
constexpr std::size_t kDenseNum = 3;
constexpr std::size_t kDenseDen = 4;

// The helpers and kernel bodies below are force-inlined into each entry
// point, so every instantiation compiles all of its loops for its own
// target. Not inlined, an AVX2 entry point would call baseline helpers.

[[gnu::always_inline]] inline std::size_t count_nonzero(
    const float* __restrict row, std::size_t k) {
  std::size_t nnz = 0;
  for (std::size_t kk = 0; kk < k; ++kk) {
    nnz += row[kk] != 0.0f ? 1 : 0;
  }
  return nnz;
}

/// c_row[j] += a_ik * b_row[j] for all j, 4x-unrolled. The per-element
/// accumulation order is exactly the naive loop's.
[[gnu::always_inline]] inline void axpy_row(const float* __restrict b_row,
                                            float* __restrict c_row,
                                            float a_ik, std::size_t n) {
  std::size_t j = 0;
  for (; j + 4 <= n; j += 4) {
    c_row[j] += a_ik * b_row[j];
    c_row[j + 1] += a_ik * b_row[j + 1];
    c_row[j + 2] += a_ik * b_row[j + 2];
    c_row[j + 3] += a_ik * b_row[j + 3];
  }
  for (; j < n; ++j) {
    c_row[j] += a_ik * b_row[j];
  }
}

/// Dense register-tiled row update: 4 reduction steps per pass share one
/// load/store of each C element. Each C element still receives its four
/// contributions as separate rounded adds in ascending-k order, so the
/// result is bit-identical to four axpy_row calls.
[[gnu::always_inline]] inline void dense_row_update(
    const float* __restrict a_row, const float* __restrict b,
    float* __restrict c_row, std::size_t k, std::size_t n) {
  std::size_t kk = 0;
  for (; kk + 4 <= k; kk += 4) {
    const float a0 = a_row[kk];
    const float a1 = a_row[kk + 1];
    const float a2 = a_row[kk + 2];
    const float a3 = a_row[kk + 3];
    const float* __restrict b0 = b + kk * n;
    const float* __restrict b1 = b0 + n;
    const float* __restrict b2 = b1 + n;
    const float* __restrict b3 = b2 + n;
    for (std::size_t j = 0; j < n; ++j) {
      float acc = c_row[j];
      acc += a0 * b0[j];
      acc += a1 * b1[j];
      acc += a2 * b2[j];
      acc += a3 * b3[j];
      c_row[j] = acc;
    }
  }
  for (; kk < k; ++kk) {
    axpy_row(b + kk * n, c_row, a_row[kk], n);
  }
}

[[gnu::always_inline]] inline void accumulate_body(const float* a,
                                                   const float* b, float* c,
                                                   std::size_t m,
                                                   std::size_t k,
                                                   std::size_t n) {
  // i-k-j order like ref::gemm_accumulate; per row, one nonzero scan picks
  // between the zero-skipping sparse path and the branch-free dense path.
  for (std::size_t i = 0; i < m; ++i) {
    float* __restrict c_row = c + i * n;
    const float* __restrict a_row = a + i * k;
    const std::size_t nnz = count_nonzero(a_row, k);
    if (nnz * kDenseDen >= k * kDenseNum) {
      dense_row_update(a_row, b, c_row, k, n);
      continue;
    }
    for (std::size_t kk = 0; kk < k; ++kk) {
      const float a_ik = a_row[kk];
      if (a_ik == 0.0f) {
        continue;  // sparse weights after pruning make this branch pay off
      }
      axpy_row(b + kk * n, c_row, a_ik, n);
    }
  }
}

[[gnu::always_inline]] inline void at_b_body(const float* a, const float* b,
                                             float* c, std::size_t m,
                                             std::size_t k, std::size_t n) {
  // k-i-j order like ref::gemm_at_b: per C element the k-contributions
  // still arrive in ascending order, because the k loop stays outermost.
  for (std::size_t kk = 0; kk < k; ++kk) {
    const float* __restrict a_row = a + kk * m;
    const float* __restrict b_row = b + kk * n;
    const std::size_t nnz = count_nonzero(a_row, m);
    if (nnz * kDenseDen >= m * kDenseNum) {
      for (std::size_t i = 0; i < m; ++i) {
        axpy_row(b_row, c + i * n, a_row[i], n);
      }
      continue;
    }
    for (std::size_t i = 0; i < m; ++i) {
      const float a_ki = a_row[i];
      if (a_ki == 0.0f) {
        continue;
      }
      axpy_row(b_row, c + i * n, a_ki, n);
    }
  }
}

void accumulate_baseline(const float* a, const float* b, float* c,
                         std::size_t m, std::size_t k, std::size_t n) {
  accumulate_body(a, b, c, m, k, n);
}

void at_b_baseline(const float* a, const float* b, float* c, std::size_t m,
                   std::size_t k, std::size_t n) {
  at_b_body(a, b, c, m, k, n);
}

#if defined(__x86_64__) || defined(__i386__)
#define IPRUNE_GEMM_AVX2 1

// AVX2 without FMA: 8-wide vmulps/vaddps perform the same rounded
// multiply and rounded add per element as the baseline's 4-wide SSE2 ops
// (and -ffp-contract=off keeps any target from fusing them), so both
// instantiations produce identical bits.
[[gnu::target("avx2")]] void accumulate_avx2(const float* a, const float* b,
                                             float* c, std::size_t m,
                                             std::size_t k, std::size_t n) {
  accumulate_body(a, b, c, m, k, n);
}

[[gnu::target("avx2")]] void at_b_avx2(const float* a, const float* b,
                                       float* c, std::size_t m,
                                       std::size_t k, std::size_t n) {
  at_b_body(a, b, c, m, k, n);
}
#endif

constexpr GemmPath kPaths[] = {
    {"baseline", accumulate_baseline, at_b_baseline},
#ifdef IPRUNE_GEMM_AVX2
    {"avx2", accumulate_avx2, at_b_avx2},
#endif
};

std::size_t runnable_path_count() {
#ifdef IPRUNE_GEMM_AVX2
  __builtin_cpu_init();
  return __builtin_cpu_supports("avx2") ? 2 : 1;
#else
  return 1;
#endif
}

}  // namespace

std::span<const GemmPath> gemm_paths() {
  static const std::size_t count = runnable_path_count();
  return {kPaths, count};
}

void gemm_accumulate(const float* a, const float* b, float* c, std::size_t m,
                     std::size_t k, std::size_t n) {
  gemm_paths().back().accumulate(a, b, c, m, k, n);
}

void gemm_at_b(const float* a, const float* b, float* c, std::size_t m,
               std::size_t k, std::size_t n) {
  gemm_paths().back().at_b(a, b, c, m, k, n);
}

void gemm_a_bt(const float* a, const float* b, float* c, std::size_t m,
               std::size_t k, std::size_t n) {
  // Register-tile 4 output columns per pass: each dot product keeps its
  // own accumulator and walks k in ascending order (naive semantics), but
  // the four share every a_row load.
  for (std::size_t i = 0; i < m; ++i) {
    const float* __restrict a_row = a + i * k;
    float* __restrict c_row = c + i * n;
    std::size_t j = 0;
    for (; j + 4 <= n; j += 4) {
      const float* __restrict b0 = b + j * k;
      const float* __restrict b1 = b0 + k;
      const float* __restrict b2 = b1 + k;
      const float* __restrict b3 = b2 + k;
      float acc0 = 0.0f;
      float acc1 = 0.0f;
      float acc2 = 0.0f;
      float acc3 = 0.0f;
      for (std::size_t kk = 0; kk < k; ++kk) {
        const float a_ik = a_row[kk];
        acc0 += a_ik * b0[kk];
        acc1 += a_ik * b1[kk];
        acc2 += a_ik * b2[kk];
        acc3 += a_ik * b3[kk];
      }
      c_row[j] += acc0;
      c_row[j + 1] += acc1;
      c_row[j + 2] += acc2;
      c_row[j + 3] += acc3;
    }
    for (; j < n; ++j) {
      const float* __restrict b_row = b + j * k;
      float acc = 0.0f;
      for (std::size_t kk = 0; kk < k; ++kk) {
        acc += a_row[kk] * b_row[kk];
      }
      c_row[j] += acc;
    }
  }
}

}  // namespace iprune::nn
