// Differential test of Conv2d::backward against its definition.
//
// The spec below is the convolution gradient written as plain loops over
// the receptive field, with no lowering, no kernel and no skipped product,
// in the accumulation order the bit-identity contract freezes
// (docs/performance.md, "Training backward"): per sample, each dW[c,k] and
// db[c] partial sum starts at +0, adds its products in ascending output
// pixel s, and is then added once; each input-gradient element receives,
// in ascending k, the sum over ascending c of W[c,k]*dOut[c,s] started at
// +0. The layer must match it byte for byte (memcmp) on the conv shapes of
// all three paper models, at upstream-gradient sparsities from none to
// all, with -0.0f entries, a masked W and a batch that accumulates.

#include <gtest/gtest.h>

#include <cstring>
#include <ostream>
#include <string>
#include <vector>

#include "nn/conv2d.hpp"
#include "util/rng.hpp"

namespace iprune::nn {
namespace {

struct ConvShape {
  const char* name;
  Conv2dSpec spec;
  std::size_t in_h;
  std::size_t in_w;
};

// Every conv of HAR, CKS and SQN (Table II), at its input size.
constexpr ConvShape kShapes[] = {
    {"har_conv1",  // K = 15
     {.in_channels = 3, .out_channels = 16, .kernel_h = 1, .kernel_w = 5,
      .pad_w = 2},
     1, 128},
    {"har_conv2",
     {.in_channels = 16, .out_channels = 32, .kernel_h = 1, .kernel_w = 5,
      .pad_w = 2},
     1, 64},
    {"har_conv3",
     {.in_channels = 32, .out_channels = 48, .kernel_h = 1, .kernel_w = 3,
      .pad_w = 1},
     1, 32},
    {"cks_conv1",  // stride 2 with padding
     {.in_channels = 1, .out_channels = 28, .kernel_h = 8, .kernel_w = 4,
      .stride = 2, .pad_h = 1, .pad_w = 1},
     49, 10},
    {"cks_conv2",
     {.in_channels = 28, .out_channels = 30, .kernel_h = 4, .kernel_w = 3,
      .pad_h = 1, .pad_w = 1},
     22, 5},
    {"sqn_conv1",
     {.in_channels = 3, .out_channels = 24, .kernel_h = 3, .kernel_w = 3,
      .pad_h = 1, .pad_w = 1},
     32, 32},
    {"sqn_squeeze",
     {.in_channels = 64, .out_channels = 16, .kernel_h = 1, .kernel_w = 1},
     16, 16},
    {"sqn_expand3x3",
     {.in_channels = 16, .out_channels = 32, .kernel_h = 3, .kernel_w = 3,
      .pad_h = 1, .pad_w = 1},
     16, 16},
    {"sqn_conv10",
     {.in_channels = 128, .out_channels = 10, .kernel_h = 1, .kernel_w = 1},
     8, 8},
};

constexpr double kSparsities[] = {0.0, 0.5, 0.9, 1.0};
constexpr std::size_t kBatch = 3;

struct BackwardCase {
  ConvShape shape;
  double sparsity;
};

std::string case_name(const BackwardCase& c) {
  return std::string(c.shape.name) + "_sparsity" +
         std::to_string(static_cast<int>(c.sparsity * 100));
}

void PrintTo(const BackwardCase& c, std::ostream* os) { *os << case_name(c); }

std::vector<BackwardCase> all_cases() {
  std::vector<BackwardCase> cases;
  for (const ConvShape& shape : kShapes) {
    for (const double sparsity : kSparsities) {
      cases.push_back({shape, sparsity});
    }
  }
  return cases;
}

struct Grads {
  std::vector<float> weight;
  std::vector<float> bias;
  std::vector<float> input;
};

/// The conv backward from its definition (see the file comment).
Grads spec_backward(const Conv2dSpec& spec, const Tensor& input,
                    const Tensor& weight, const Tensor& grad_out) {
  const std::size_t batch = input.dim(0);
  const std::size_t in_h = input.dim(2);
  const std::size_t in_w = input.dim(3);
  const std::size_t ho = grad_out.dim(2);
  const std::size_t wo = grad_out.dim(3);
  const std::size_t cout = spec.out_channels;
  const std::size_t k = spec.in_channels * spec.kernel_h * spec.kernel_w;
  Grads g{std::vector<float>(cout * k, 0.0f), std::vector<float>(cout, 0.0f),
          std::vector<float>(input.numel(), 0.0f)};

  // Input row/column a (kernel offset, output pixel) pair reads, or -1 in
  // the zero padding.
  auto in_y = [&](std::size_t kh, std::size_t oy) {
    const auto y = static_cast<std::ptrdiff_t>(oy * spec.stride + kh) -
                   static_cast<std::ptrdiff_t>(spec.pad_h);
    return y >= 0 && y < static_cast<std::ptrdiff_t>(in_h) ? y : -1;
  };
  auto in_x = [&](std::size_t kw, std::size_t ox) {
    const auto x = static_cast<std::ptrdiff_t>(ox * spec.stride + kw) -
                   static_cast<std::ptrdiff_t>(spec.pad_w);
    return x >= 0 && x < static_cast<std::ptrdiff_t>(in_w) ? x : -1;
  };

  for (std::size_t n = 0; n < batch; ++n) {
    auto dout = [&](std::size_t c, std::size_t oy, std::size_t ox) {
      return grad_out.at(n, c, oy, ox);
    };
    for (std::size_t c = 0; c < cout; ++c) {
      float acc = 0.0f;
      for (std::size_t oy = 0; oy < ho; ++oy) {
        for (std::size_t ox = 0; ox < wo; ++ox) {
          acc += dout(c, oy, ox);
        }
      }
      g.bias[c] += acc;
    }
    std::size_t kk = 0;
    for (std::size_t ci = 0; ci < spec.in_channels; ++ci) {
      for (std::size_t kh = 0; kh < spec.kernel_h; ++kh) {
        for (std::size_t kw = 0; kw < spec.kernel_w; ++kw, ++kk) {
          for (std::size_t c = 0; c < cout; ++c) {
            float acc = 0.0f;
            for (std::size_t oy = 0; oy < ho; ++oy) {
              for (std::size_t ox = 0; ox < wo; ++ox) {
                const std::ptrdiff_t y = in_y(kh, oy);
                const std::ptrdiff_t x = in_x(kw, ox);
                const float col =
                    y < 0 || x < 0
                        ? 0.0f
                        : input.at(n, ci, static_cast<std::size_t>(y),
                                   static_cast<std::size_t>(x));
                acc += dout(c, oy, ox) * col;
              }
            }
            g.weight[c * k + kk] += acc;
          }
          for (std::size_t oy = 0; oy < ho; ++oy) {
            for (std::size_t ox = 0; ox < wo; ++ox) {
              const std::ptrdiff_t y = in_y(kh, oy);
              const std::ptrdiff_t x = in_x(kw, ox);
              if (y < 0 || x < 0) {
                continue;
              }
              float acc = 0.0f;
              for (std::size_t c = 0; c < cout; ++c) {
                acc += weight.at(c, kk) * dout(c, oy, ox);
              }
              g.input[((n * spec.in_channels + ci) * in_h +
                       static_cast<std::size_t>(y)) *
                          in_w +
                      static_cast<std::size_t>(x)] += acc;
            }
          }
        }
      }
    }
  }
  return g;
}

bool same_bytes(const std::vector<float>& expected, const Tensor& actual) {
  return expected.size() == actual.numel() &&
         std::memcmp(expected.data(), actual.data(),
                     expected.size() * sizeof(float)) == 0;
}

class ConvBackward : public ::testing::TestWithParam<BackwardCase> {};

TEST_P(ConvBackward, MatchesLoopSpecBitForBit) {
  const BackwardCase& c = GetParam();
  const Conv2dSpec& spec = c.shape.spec;
  util::Rng rng(91);
  Conv2d conv("conv", spec, rng);
  // Prune about 40% of W; negative pruned weights become -0.0f.
  Tensor& mask = conv.weight_mask();
  for (std::size_t i = 0; i < mask.numel(); ++i) {
    mask[i] = rng.bernoulli(0.4) ? 0.0f : 1.0f;
  }
  conv.apply_mask();

  Tensor input({kBatch, spec.in_channels, c.shape.in_h, c.shape.in_w});
  for (std::size_t i = 0; i < input.numel(); ++i) {
    input[i] = static_cast<float>(rng.normal());
  }
  const Tensor* ins[] = {&input};
  Tensor grad_out = conv.forward(ins, /*training=*/true);
  // Zero a `sparsity` share of the upstream gradient, half of it as -0.0f.
  for (std::size_t i = 0; i < grad_out.numel(); ++i) {
    if (rng.uniform() < c.sparsity) {
      grad_out[i] = rng.bernoulli(0.5) ? -0.0f : 0.0f;
    } else {
      grad_out[i] = static_cast<float>(rng.normal());
    }
  }

  const Grads expected =
      spec_backward(spec, input, conv.weight(), grad_out);
  conv.zero_grads();
  const std::vector<Tensor> grads = conv.backward(grad_out, true);
  const std::vector<ParamRef> params = conv.params();
  ASSERT_EQ(2u, params.size());
  ASSERT_EQ(1u, grads.size());
  EXPECT_TRUE(same_bytes(expected.weight, *params[0].grad)) << "weight_grad";
  EXPECT_TRUE(same_bytes(expected.bias, *params[1].grad)) << "bias_grad";
  EXPECT_TRUE(same_bytes(expected.input, grads[0])) << "input grad";

  // Skipping the input gradient (a conv fed by the graph input) leaves the
  // parameter gradients byte-identical.
  conv.zero_grads();
  EXPECT_TRUE(conv.backward(grad_out, false).empty());
  EXPECT_TRUE(same_bytes(expected.weight, *params[0].grad))
      << "weight_grad without input grad";
  EXPECT_TRUE(same_bytes(expected.bias, *params[1].grad))
      << "bias_grad without input grad";
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, ConvBackward, ::testing::ValuesIn(all_cases()),
    [](const ::testing::TestParamInfo<BackwardCase>& info) {
      return case_name(info.param);
    });

}  // namespace
}  // namespace iprune::nn
