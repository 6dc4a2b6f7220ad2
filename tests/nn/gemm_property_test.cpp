// Differential property suite for the optimized GEMM kernels: every
// public kernel must be BIT-IDENTICAL (memcmp, not EXPECT_NEAR) to its
// retained naive counterpart in nn::ref across shapes, sparsity levels,
// alignment offsets, pre-accumulated C, and signed-zero weights. This is
// the contract that lets the perf gate treat a checksum change as a
// regression: optimizations may reorder memory traffic, never the
// per-element floating-point accumulation sequence.
//
// gemm_accumulate and gemm_at_b are compiled once per ISA (gemm_paths()),
// and the public entry points run only the widest one the host supports,
// so every case below runs each instantiation the host can execute:
// without that, an AVX2 host would never test the baseline code.

#include "nn/gemm.hpp"

#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <vector>

#include "util/rng.hpp"

namespace iprune::nn {
namespace {

struct Kernel {
  std::string name;
  GemmFn optimized;
  GemmFn reference;
};

/// Every optimized kernel under test: gemm_accumulate and gemm_at_b once
/// per instantiation this host can run, gemm_a_bt once.
std::vector<Kernel> all_kernels() {
  std::vector<Kernel> kernels;
  for (const GemmPath& path : gemm_paths()) {
    kernels.push_back({std::string("gemm_accumulate/") + path.isa,
                       path.accumulate, ref::gemm_accumulate});
    kernels.push_back(
        {std::string("gemm_at_b/") + path.isa, path.at_b, ref::gemm_at_b});
  }
  kernels.push_back({"gemm_a_bt", gemm_a_bt, ref::gemm_a_bt});
  return kernels;
}

const std::vector<Kernel> kKernels = all_kernels();

constexpr std::size_t kDims[] = {1, 2, 3, 7, 16, 17, 64};
constexpr double kSparsities[] = {0.0, 0.5, 0.9, 1.0};

std::vector<float> random_matrix(util::Rng& rng, std::size_t elems,
                                 double sparsity) {
  std::vector<float> m(elems);
  for (float& v : m) {
    v = rng.uniform() < sparsity
            ? 0.0f
            : static_cast<float>(rng.uniform(-2.0, 2.0));
  }
  return m;
}

/// Run optimized and reference on identical inputs; EXPECT bit-equality.
void check_case(const Kernel& kernel, std::size_t m, std::size_t k,
                std::size_t n, double sparsity, util::Rng& rng,
                bool accumulate_into_nonzero_c) {
  const std::vector<float> a = random_matrix(rng, m * k, sparsity);
  const std::vector<float> b = random_matrix(rng, k * n, 0.0);
  std::vector<float> c_init(m * n, 0.0f);
  if (accumulate_into_nonzero_c) {
    for (float& v : c_init) {
      v = static_cast<float>(rng.uniform(-1.0, 1.0));
    }
  }
  std::vector<float> c_opt = c_init;
  std::vector<float> c_ref = c_init;
  kernel.optimized(a.data(), b.data(), c_opt.data(), m, k, n);
  kernel.reference(a.data(), b.data(), c_ref.data(), m, k, n);
  ASSERT_EQ(0,
            std::memcmp(c_opt.data(), c_ref.data(), m * n * sizeof(float)))
      << kernel.name << " m=" << m << " k=" << k << " n=" << n
      << " sparsity=" << sparsity
      << " c0=" << (accumulate_into_nonzero_c ? "random" : "zero");
}

TEST(GemmProperty, BitIdenticalAcrossShapesAndSparsities) {
  util::Rng rng(0xBEEF);
  for (const Kernel& kernel : kKernels) {
    for (const std::size_t m : kDims) {
      for (const std::size_t k : kDims) {
        for (const std::size_t n : kDims) {
          for (const double sparsity : kSparsities) {
            check_case(kernel, m, k, n, sparsity, rng, false);
          }
        }
      }
    }
  }
}

TEST(GemmProperty, BitIdenticalWhenAccumulatingIntoNonzeroC) {
  // C += semantics: the dense fast path must also match when C starts
  // from arbitrary (finite) values, not just the zero-initialized case.
  util::Rng rng(0xD00D);
  for (const Kernel& kernel : kKernels) {
    for (const std::size_t dim : {3, 7, 16, 17, 64}) {
      for (const double sparsity : kSparsities) {
        check_case(kernel, dim, dim, dim, sparsity, rng, true);
      }
    }
  }
}

TEST(GemmProperty, BitIdenticalUnderAlignmentOffsets) {
  // The kernels take raw pointers; callers slice tensors at arbitrary
  // element offsets, so nothing may assume 16/32-byte alignment. Shift
  // every operand by 0..3 floats off the allocation start.
  util::Rng rng(0xA11C);
  const std::size_t m = 17;
  const std::size_t k = 16;
  const std::size_t n = 7;
  for (const Kernel& kernel : kKernels) {
    for (std::size_t offset = 0; offset < 4; ++offset) {
      const std::vector<float> a_full =
          random_matrix(rng, offset + m * k, 0.5);
      const std::vector<float> b_full =
          random_matrix(rng, offset + k * n, 0.0);
      std::vector<float> c_opt(offset + m * n, 0.0f);
      std::vector<float> c_ref(offset + m * n, 0.0f);
      kernel.optimized(a_full.data() + offset, b_full.data() + offset,
                       c_opt.data() + offset, m, k, n);
      kernel.reference(a_full.data() + offset, b_full.data() + offset,
                       c_ref.data() + offset, m, k, n);
      ASSERT_EQ(0, std::memcmp(c_opt.data(), c_ref.data(),
                               c_opt.size() * sizeof(float)))
          << kernel.name << " offset=" << offset;
    }
  }
}

TEST(GemmProperty, SignedZeroWeightsDoNotPerturbBits) {
  // Pruning via hadamard(mask) can leave -0.0f weights. The dense fast
  // path ADDS those (a_ik * b = ±0) where the sparse path SKIPS them;
  // both must land on identical bits (x + ±0 == x when x never becomes
  // -0, which holds because C accumulates from +0 under round-to-nearest).
  util::Rng rng(0x5EED);
  for (const Kernel& kernel : kKernels) {
    for (const std::size_t dim : {7, 16, 64}) {
      std::vector<float> a = random_matrix(rng, dim * dim, 0.0);
      for (std::size_t i = 0; i < a.size(); i += 5) {
        a[i] = -0.0f;  // ~20% negative zeros: stays on the dense path
      }
      const std::vector<float> b = random_matrix(rng, dim * dim, 0.0);
      std::vector<float> c_opt(dim * dim, 0.0f);
      std::vector<float> c_ref(dim * dim, 0.0f);
      kernel.optimized(a.data(), b.data(), c_opt.data(), dim, dim, dim);
      kernel.reference(a.data(), b.data(), c_ref.data(), dim, dim, dim);
      ASSERT_EQ(0, std::memcmp(c_opt.data(), c_ref.data(),
                               c_opt.size() * sizeof(float)))
          << kernel.name << " dim=" << dim;
    }
  }
}

TEST(GemmProperty, DensityThresholdBoundaryIsExact) {
  // Rows straddling the 3/4 nonzero threshold take different code paths;
  // both must agree with the reference. Build A rows with exactly
  // nnz = ceil(3k/4) - 1, ceil(3k/4), and ceil(3k/4) + 1 nonzeros.
  util::Rng rng(0x7777);
  const std::size_t k = 16;
  const std::size_t n = 17;
  const std::size_t threshold = (3 * k + 3) / 4;
  for (std::size_t delta = 0; delta < 3; ++delta) {
    const std::size_t nnz = threshold - 1 + delta;
    std::vector<float> a(3 * k, 0.0f);
    for (std::size_t row = 0; row < 3; ++row) {
      for (std::size_t i = 0; i < nnz && i < k; ++i) {
        a[row * k + i] = static_cast<float>(rng.uniform(-2.0, 2.0));
      }
    }
    const std::vector<float> b = random_matrix(rng, k * n, 0.0);
    std::vector<float> c_ref(3 * n, 0.0f);
    ref::gemm_accumulate(a.data(), b.data(), c_ref.data(), 3, k, n);
    for (const GemmPath& path : gemm_paths()) {
      std::vector<float> c_opt(3 * n, 0.0f);
      path.accumulate(a.data(), b.data(), c_opt.data(), 3, k, n);
      ASSERT_EQ(0, std::memcmp(c_opt.data(), c_ref.data(),
                               c_opt.size() * sizeof(float)))
          << path.isa << " nnz=" << nnz;
    }
  }
}

TEST(GemmProperty, HostRunsEveryInstantiationItSupports) {
  // The baseline always runs; an AVX2 host must also run (and so test)
  // the AVX2 instantiation, which the public kernels then call.
  const std::span<const GemmPath> paths = gemm_paths();
  ASSERT_FALSE(paths.empty());
  EXPECT_STREQ(paths.front().isa, "baseline");
#if defined(__x86_64__) || defined(__i386__)
  const bool avx2 = __builtin_cpu_supports("avx2") != 0;
  ASSERT_EQ(paths.size(), avx2 ? 2u : 1u);
  EXPECT_STREQ(paths.back().isa, avx2 ? "avx2" : "baseline");
#else
  EXPECT_EQ(paths.size(), 1u);
#endif
}

}  // namespace
}  // namespace iprune::nn
