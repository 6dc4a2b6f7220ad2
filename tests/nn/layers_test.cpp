// Behaviour of the individual layers: the forward paths, plus the exact
// gradient bits of ReLU and max-pool backward on inputs the numerical
// gradient checks in gradcheck_test.cpp cannot express (signed zeros,
// infinities, NaN).

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <limits>
#include <memory>

#include "nn/activation.hpp"
#include "nn/concat.hpp"
#include "nn/conv2d.hpp"
#include "nn/dense.hpp"
#include "nn/graph.hpp"
#include "nn/pool.hpp"

namespace iprune::nn {
namespace {

std::vector<const Tensor*> inputs_of(const Tensor& t) {
  return {&t};
}

constexpr float kInf = std::numeric_limits<float>::infinity();

std::uint32_t bits_of(float v) {
  return std::bit_cast<std::uint32_t>(v);
}

TEST(Conv2d, OutputShapeWithPaddingAndStride) {
  util::Rng rng(1);
  Conv2d conv("c", {.in_channels = 3, .out_channels = 8, .kernel_h = 3,
                    .kernel_w = 3, .stride = 2, .pad_h = 1, .pad_w = 1},
              rng);
  const Shape out = conv.output_shape(std::vector<Shape>{{3, 32, 32}});
  EXPECT_EQ(out, (Shape{8, 16, 16}));
}

TEST(Conv2d, RejectsChannelMismatch) {
  util::Rng rng(2);
  Conv2d conv("c", {.in_channels = 3, .out_channels = 4}, rng);
  EXPECT_THROW(conv.output_shape(std::vector<Shape>{{2, 8, 8}}),
               std::invalid_argument);
}

TEST(Conv2d, IdentityKernelCopiesInput) {
  util::Rng rng(3);
  Conv2d conv("c", {.in_channels = 1, .out_channels = 1, .kernel_h = 1,
                    .kernel_w = 1},
              rng);
  conv.weight().fill(1.0f);
  conv.bias().fill(0.0f);
  Tensor input({1, 1, 2, 2}, {1, 2, 3, 4});
  const Tensor out = conv.forward(inputs_of(input), false);
  EXPECT_TRUE(out.equals(input));
}

TEST(Conv2d, KnownConvolutionValue) {
  util::Rng rng(4);
  Conv2d conv("c", {.in_channels = 1, .out_channels = 1, .kernel_h = 2,
                    .kernel_w = 2},
              rng);
  // Kernel [[1,2],[3,4]], no padding: out(0,0) = 1*1+2*2+3*3+4*4 = 30.
  conv.weight() = Tensor({1, 4}, {1, 2, 3, 4});
  conv.bias().fill(0.5f);
  Tensor input({1, 1, 2, 2}, {1, 2, 3, 4});
  const Tensor out = conv.forward(inputs_of(input), false);
  ASSERT_EQ(out.shape(), (Shape{1, 1, 1, 1}));
  EXPECT_FLOAT_EQ(out[0], 30.5f);
}

TEST(Conv2d, ZeroPaddingContributesNothing) {
  util::Rng rng(5);
  Conv2d conv("c", {.in_channels = 1, .out_channels = 1, .kernel_h = 3,
                    .kernel_w = 3, .pad_h = 1, .pad_w = 1},
              rng);
  conv.weight().fill(1.0f);
  conv.bias().fill(0.0f);
  Tensor input({1, 1, 1, 1}, {5});
  const Tensor out = conv.forward(inputs_of(input), false);
  ASSERT_EQ(out.numel(), 1u);
  EXPECT_FLOAT_EQ(out[0], 5.0f);  // only the center tap sees data
}

TEST(Conv2d, MaskZeroesWeights) {
  util::Rng rng(6);
  Conv2d conv("c", {.in_channels = 1, .out_channels = 2, .kernel_h = 1,
                    .kernel_w = 1},
              rng);
  conv.weight_mask().at(0, 0) = 0.0f;
  conv.apply_mask();
  EXPECT_EQ(conv.weight().at(0, 0), 0.0f);
}

TEST(Dense, ComputesAffineMap) {
  util::Rng rng(7);
  Dense fc("fc", 3, 2, rng);
  fc.weight() = Tensor({2, 3}, {1, 0, 0, 0, 1, 0});
  fc.bias() = Tensor({2}, {0.5f, -0.5f});
  Tensor input({1, 3}, {7, 8, 9});
  const Tensor out = fc.forward(inputs_of(input), false);
  EXPECT_FLOAT_EQ(out.at(0, 0), 7.5f);
  EXPECT_FLOAT_EQ(out.at(0, 1), 7.5f);
}

TEST(Dense, BatchedForward) {
  util::Rng rng(8);
  Dense fc("fc", 2, 1, rng);
  fc.weight() = Tensor({1, 2}, {1, 1});
  fc.bias().fill(0.0f);
  Tensor input({3, 2}, {1, 2, 3, 4, 5, 6});
  const Tensor out = fc.forward(inputs_of(input), false);
  EXPECT_FLOAT_EQ(out.at(0, 0), 3.0f);
  EXPECT_FLOAT_EQ(out.at(1, 0), 7.0f);
  EXPECT_FLOAT_EQ(out.at(2, 0), 11.0f);
}

TEST(Dense, OutputShapeValidation) {
  util::Rng rng(9);
  Dense fc("fc", 4, 2, rng);
  EXPECT_EQ(fc.output_shape(std::vector<Shape>{{4}}), (Shape{2}));
  EXPECT_THROW(fc.output_shape(std::vector<Shape>{{5}}),
               std::invalid_argument);
}

TEST(MaxPool, SelectsWindowMaximum) {
  MaxPool2d pool("p", {2, 2, 2});
  Tensor input({1, 1, 2, 4}, {1, 5, 2, 0, 3, 4, 8, 1});
  const Tensor out = pool.forward(inputs_of(input), false);
  ASSERT_EQ(out.shape(), (Shape{1, 1, 1, 2}));
  EXPECT_FLOAT_EQ(out[0], 5.0f);
  EXPECT_FLOAT_EQ(out[1], 8.0f);
}

TEST(MaxPool, HandlesNegativeValues) {
  MaxPool2d pool("p", {2, 2, 2});
  Tensor input({1, 1, 2, 2}, {-4, -3, -2, -1});
  const Tensor out = pool.forward(inputs_of(input), false);
  EXPECT_FLOAT_EQ(out[0], -1.0f);
}

TEST(MaxPool, NonFiniteWindowRoutesGradientIntoItself) {
  // Two samples of one 2x4 plane, 2x2 windows: a finite window, an
  // all--inf window, an all-NaN window and another finite one. Neither
  // non-finite window ever beats best = -inf, so each must send its
  // gradient to its own first element, not to the batch's element 0.
  const float nan = std::numeric_limits<float>::quiet_NaN();
  MaxPool2d pool("p", {2, 2, 2});
  Tensor input({2, 1, 2, 4}, {1, 5, -kInf, -kInf,  //
                              3, 4, -kInf, -kInf,  //
                              nan, nan, 2, 0,      //
                              nan, nan, -1, 7});
  const Tensor expected_out({2, 1, 1, 2}, {5, -kInf, -kInf, 7});
  EXPECT_TRUE(pool.forward(inputs_of(input), false).equals(expected_out));
  EXPECT_TRUE(pool.forward(inputs_of(input), true).equals(expected_out));

  const std::vector<Tensor> grads =
      pool.backward(Tensor({2, 1, 1, 2}, {1, 2, 3, 4}), true);
  ASSERT_EQ(grads.size(), 1u);
  Tensor expected_grad({2, 1, 2, 4});
  expected_grad[1] = 1;   // window 0's maximum, 5
  expected_grad[2] = 2;   // the -inf window's first element
  expected_grad[8] = 3;   // the NaN window's first element
  expected_grad[15] = 4;  // window 3's maximum, 7
  EXPECT_TRUE(grads[0].equals(expected_grad));
}

TEST(AvgPool, ComputesWindowMean) {
  AvgPool2d pool("p", {2, 2, 2});
  Tensor input({1, 1, 2, 2}, {1, 2, 3, 6});
  const Tensor out = pool.forward(inputs_of(input), false);
  EXPECT_FLOAT_EQ(out[0], 3.0f);
}

TEST(Pool, ExtentArithmetic) {
  EXPECT_EQ(pooled_extent(8, 2, 2), 4u);
  EXPECT_EQ(pooled_extent(7, 2, 2), 3u);
  EXPECT_EQ(pooled_extent(1, 1, 2), 1u);
  EXPECT_THROW(pooled_extent(1, 2, 1), std::invalid_argument);
}

TEST(Relu, ClampsNegatives) {
  Relu relu("r");
  Tensor input({1, 4}, {-1, 0, 2, -3});
  const Tensor out = relu.forward(inputs_of(input), false);
  EXPECT_FLOAT_EQ(out[0], 0.0f);
  EXPECT_FLOAT_EQ(out[1], 0.0f);
  EXPECT_FLOAT_EQ(out[2], 2.0f);
  EXPECT_FLOAT_EQ(out[3], 0.0f);
}

// ReLU backward is a select, never g * mask: an inactive element's
// gradient is +0 (bits 0) whatever g holds, and an active element passes
// g's exact bits, -0, infinities and NaN payloads included. The first six
// pre-activations are active, the last six inactive, and both halves see
// the same upstream gradients.
const std::vector<float> kReluPreActivation = {1, 2, 3,  4,  5,  6,
                                               -1, -2, -3, -4, 0, -0.0f};

std::vector<float> relu_upstream() {
  const float nan = std::bit_cast<float>(std::uint32_t{0xFFC00123u});
  return {-0.0f, -1.5f, kInf, -kInf, nan, 2.5f,
          -0.0f, -1.5f, kInf, -kInf, nan, 2.5f};
}

void expect_relu_select(const Tensor& grad, const std::vector<float>& g) {
  ASSERT_EQ(grad.numel(), g.size());
  for (std::size_t i = 0; i < g.size(); ++i) {
    const std::uint32_t want = i < 6 ? bits_of(g[i]) : 0u;
    EXPECT_EQ(bits_of(grad[i]), want) << "element " << i;
  }
}

TEST(Relu, BackwardSelectsOnAMovedGradient) {
  Relu relu("r");
  const Tensor input({1, 12}, kReluPreActivation);
  (void)relu.forward(inputs_of(input), true);
  const std::vector<Tensor> grads =
      relu.backward(Tensor({1, 12}, relu_upstream()), true);
  ASSERT_EQ(grads.size(), 1u);
  EXPECT_EQ(grads[0].shape(), (Shape{1, 12}));
  expect_relu_select(grads[0], relu_upstream());
}

TEST(Relu, BackwardLeavesAnLvalueGradientUnchanged) {
  Relu relu("r");
  const Tensor input({1, 12}, kReluPreActivation);
  (void)relu.forward(inputs_of(input), true);
  const Tensor upstream({1, 12}, relu_upstream());
  const std::vector<Tensor> grads = relu.backward(upstream, true);
  ASSERT_EQ(grads.size(), 1u);
  expect_relu_select(grads[0], relu_upstream());
  for (std::size_t i = 0; i < upstream.numel(); ++i) {
    EXPECT_EQ(bits_of(upstream[i]), bits_of(relu_upstream()[i]))
        << "element " << i;
  }
}

TEST(Relu, BackwardSelectsInsideGraphBackward) {
  // input [1] -> fc (weights 0, bias = the pre-activations) -> relu. The
  // graph moves the upstream gradient into the ReLU, and fc adds the
  // ReLU's input gradient into its bias gradient, preset to -0 here:
  // -0 is the additive identity, so the bias gradient ends up holding the
  // ReLU's output bits exactly, +0 and -0 included.
  util::Rng rng(5);
  Graph graph({1});
  auto fc_layer = std::make_unique<Dense>("fc", 1, 12, rng);
  Dense* fc = fc_layer.get();
  const NodeId fc_node = graph.add(std::move(fc_layer), {graph.input()});
  graph.add(std::make_unique<Relu>("r"), {fc_node});
  fc->weight().fill(0.0f);
  fc->bias() = Tensor({12}, kReluPreActivation);

  const Tensor logits = graph.forward(Tensor({1, 1}, {1.0f}), true);
  ASSERT_EQ(logits.numel(), 12u);
  for (const ParamRef& p : graph.params()) {
    p.grad->fill(-0.0f);
  }
  graph.backward(Tensor({1, 12}, relu_upstream()));
  expect_relu_select(*graph.params()[1].grad, relu_upstream());
}

TEST(Flatten, CollapsesToBatchByFeatures) {
  Flatten flat("f");
  Tensor input({2, 3, 2, 2});
  const Tensor out = flat.forward(inputs_of(input), false);
  EXPECT_EQ(out.shape(), (Shape{2, 12}));
}

TEST(Concat, JoinsAlongChannels) {
  Concat cat("cat");
  Tensor a({1, 1, 2, 2}, {1, 2, 3, 4});
  Tensor b({1, 2, 2, 2}, {5, 6, 7, 8, 9, 10, 11, 12});
  std::vector<const Tensor*> ins = {&a, &b};
  const Tensor out = cat.forward(ins, false);
  ASSERT_EQ(out.shape(), (Shape{1, 3, 2, 2}));
  EXPECT_FLOAT_EQ(out.at(0, 0, 0, 0), 1.0f);
  EXPECT_FLOAT_EQ(out.at(0, 1, 0, 0), 5.0f);
  EXPECT_FLOAT_EQ(out.at(0, 2, 1, 1), 12.0f);
}

TEST(Concat, RejectsSpatialMismatch) {
  Concat cat("cat");
  EXPECT_THROW(
      cat.output_shape(std::vector<Shape>{{1, 2, 2}, {1, 3, 3}}),
      std::invalid_argument);
}

TEST(LayerKind, NamesMatchPaperNotation) {
  EXPECT_STREQ(layer_kind_name(LayerKind::kConv2d), "CONV");
  EXPECT_STREQ(layer_kind_name(LayerKind::kDense), "FC");
  EXPECT_STREQ(layer_kind_name(LayerKind::kMaxPool), "POOL(max)");
}

}  // namespace
}  // namespace iprune::nn
