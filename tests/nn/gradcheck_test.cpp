// Numerical gradient checks: every layer's analytic backward pass is
// validated against central finite differences through a scalar loss.

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <functional>
#include <memory>

#include "nn/activation.hpp"
#include "nn/concat.hpp"
#include "nn/conv2d.hpp"
#include "nn/dense.hpp"
#include "nn/graph.hpp"
#include "nn/pool.hpp"

namespace iprune::nn {
namespace {

/// Scalar loss: sum of squares / 2, so dL/dy = y.
double loss_of(const Tensor& y) {
  double total = 0.0;
  for (std::size_t i = 0; i < y.numel(); ++i) {
    total += 0.5 * static_cast<double>(y[i]) * y[i];
  }
  return total;
}

Tensor loss_grad(const Tensor& y) {
  return y;
}

/// Check dL/dx for a single-input layer against finite differences, and
/// (when the layer has parameters) dL/dW as well.
void check_layer(Layer& layer, Tensor input, double tolerance = 2e-2) {
  std::vector<const Tensor*> ins = {&input};
  Tensor out = layer.forward(ins, /*training=*/true);
  std::vector<Tensor> input_grads = layer.backward(loss_grad(out), true);
  ASSERT_EQ(input_grads.size(), 1u);

  constexpr float kEps = 1e-3f;
  // Input gradients (sampled to keep runtime bounded).
  const std::size_t stride = std::max<std::size_t>(1, input.numel() / 64);
  for (std::size_t i = 0; i < input.numel(); i += stride) {
    const float saved = input[i];
    input[i] = saved + kEps;
    const double plus = loss_of(layer.forward(ins, true));
    input[i] = saved - kEps;
    const double minus = loss_of(layer.forward(ins, true));
    input[i] = saved;
    const double numeric = (plus - minus) / (2.0 * kEps);
    EXPECT_NEAR(input_grads[0][i], numeric,
                tolerance * std::max(1.0, std::fabs(numeric)))
        << "input grad at " << i;
  }

  // Parameter gradients.
  layer.zero_grads();
  out = layer.forward(ins, true);
  (void)layer.backward(loss_grad(out), true);
  for (const ParamRef& p : layer.params()) {
    const std::size_t pstride =
        std::max<std::size_t>(1, p.value->numel() / 48);
    for (std::size_t i = 0; i < p.value->numel(); i += pstride) {
      const float saved = (*p.value)[i];
      (*p.value)[i] = saved + kEps;
      const double plus = loss_of(layer.forward(ins, true));
      (*p.value)[i] = saved - kEps;
      const double minus = loss_of(layer.forward(ins, true));
      (*p.value)[i] = saved;
      const double numeric = (plus - minus) / (2.0 * kEps);
      EXPECT_NEAR((*p.grad)[i], numeric,
                  tolerance * std::max(1.0, std::fabs(numeric)))
          << "param grad at " << i;
    }
  }
}

Tensor random_tensor(Shape shape, std::uint64_t seed) {
  util::Rng rng(seed);
  Tensor t(std::move(shape));
  for (std::size_t i = 0; i < t.numel(); ++i) {
    t[i] = static_cast<float>(rng.normal(0.0, 0.7));
  }
  return t;
}

struct ConvCase {
  Conv2dSpec spec;
  std::size_t in_h, in_w;
};

class ConvGradCheck : public ::testing::TestWithParam<ConvCase> {};

TEST_P(ConvGradCheck, MatchesFiniteDifferences) {
  const ConvCase& c = GetParam();
  util::Rng rng(42);
  Conv2d conv("c", c.spec, rng);
  check_layer(conv,
              random_tensor({2, c.spec.in_channels, c.in_h, c.in_w}, 17));
}

INSTANTIATE_TEST_SUITE_P(
    Specs, ConvGradCheck,
    ::testing::Values(
        ConvCase{{.in_channels = 1, .out_channels = 2, .kernel_h = 3,
                  .kernel_w = 3, .stride = 1, .pad_h = 1, .pad_w = 1},
                 5, 5},
        ConvCase{{.in_channels = 2, .out_channels = 3, .kernel_h = 1,
                  .kernel_w = 1},
                 4, 4},
        ConvCase{{.in_channels = 2, .out_channels = 2, .kernel_h = 3,
                  .kernel_w = 3, .stride = 2, .pad_h = 1, .pad_w = 1},
                 7, 7},
        ConvCase{{.in_channels = 1, .out_channels = 2, .kernel_h = 1,
                  .kernel_w = 5, .stride = 1, .pad_h = 0, .pad_w = 2},
                 1, 12}));

TEST(DenseGradCheck, MatchesFiniteDifferences) {
  util::Rng rng(43);
  Dense fc("fc", 6, 4, rng);
  check_layer(fc, random_tensor({3, 6}, 18));
}

TEST(DenseGradCheck, SkippingInputGradientKeepsParameterGradients) {
  // Graph::backward tells a layer fed only by the graph input to skip its
  // input gradient; the parameter gradients must come out byte-identical.
  util::Rng rng(46);
  Dense fc("fc", 6, 4, rng);
  Tensor input = random_tensor({3, 6}, 25);
  std::vector<const Tensor*> ins = {&input};
  const Tensor out = fc.forward(ins, true);
  (void)fc.backward(loss_grad(out), true);
  std::vector<Tensor> expected;
  for (const ParamRef& p : fc.params()) {
    expected.push_back(*p.grad);
  }
  fc.zero_grads();
  EXPECT_TRUE(fc.backward(loss_grad(out), false).empty());
  const std::vector<ParamRef> params = fc.params();
  for (std::size_t i = 0; i < params.size(); ++i) {
    EXPECT_EQ(0, std::memcmp(expected[i].data(), params[i].grad->data(),
                             expected[i].numel() * sizeof(float)))
        << "param " << i;
  }
}

TEST(MaxPoolGradCheck, MatchesFiniteDifferences) {
  MaxPool2d pool("p", {2, 2, 2});
  // Spread values so the argmax is stable under the probe epsilon.
  util::Rng rng(44);
  Tensor input({2, 2, 4, 4});
  for (std::size_t i = 0; i < input.numel(); ++i) {
    input[i] = static_cast<float>(i % 7) + 0.05f *
               static_cast<float>(rng.normal());
  }
  check_layer(pool, input);
}

TEST(AvgPoolGradCheck, MatchesFiniteDifferences) {
  AvgPool2d pool("p", {2, 2, 2});
  check_layer(pool, random_tensor({2, 2, 4, 4}, 19));
}

TEST(ReluGradCheck, MatchesFiniteDifferences) {
  Relu relu("r");
  // Keep values away from the kink at 0.
  Tensor input = random_tensor({2, 10}, 20);
  for (std::size_t i = 0; i < input.numel(); ++i) {
    if (std::fabs(input[i]) < 0.05f) {
      input[i] = 0.2f;
    }
  }
  check_layer(relu, input);
}

TEST(FlattenGradCheck, MatchesFiniteDifferences) {
  Flatten flat("f");
  check_layer(flat, random_tensor({2, 3, 2, 2}, 21));
}

TEST(ConcatGradCheck, SplitsGradientCorrectly) {
  Concat cat("cat");
  Tensor a = random_tensor({2, 2, 3, 3}, 22);
  Tensor b = random_tensor({2, 3, 3, 3}, 23);
  std::vector<const Tensor*> ins = {&a, &b};
  const Tensor out = cat.forward(ins, true);
  const std::vector<Tensor> grads = cat.backward(loss_grad(out), true);
  ASSERT_EQ(grads.size(), 2u);
  // Concat backward just routes: grad wrt a equals a's values (L = ||y||²/2).
  for (std::size_t i = 0; i < a.numel(); ++i) {
    EXPECT_FLOAT_EQ(grads[0][i], a[i]);
  }
  for (std::size_t i = 0; i < b.numel(); ++i) {
    EXPECT_FLOAT_EQ(grads[1][i], b[i]);
  }
}

TEST(GraphGradCheck, MultiPathGraphEndToEnd) {
  // Numerical gradient through a fire-style DAG (shared squeeze feeding
  // two branches that concat) — validates gradient accumulation at forks.
  util::Rng rng(45);
  Graph g({1, 4, 4});
  auto c1 = g.add(std::make_unique<Conv2d>(
                      "c1",
                      Conv2dSpec{.in_channels = 1, .out_channels = 2,
                                 .kernel_h = 3, .kernel_w = 3, .pad_h = 1,
                                 .pad_w = 1},
                      rng),
                  {g.input()});
  auto b1 = g.add(std::make_unique<Conv2d>(
                      "b1",
                      Conv2dSpec{.in_channels = 2, .out_channels = 2,
                                 .kernel_h = 1, .kernel_w = 1},
                      rng),
                  {c1});
  auto b2 = g.add(std::make_unique<Conv2d>(
                      "b2",
                      Conv2dSpec{.in_channels = 2, .out_channels = 2,
                                 .kernel_h = 3, .kernel_w = 3, .pad_h = 1,
                                 .pad_w = 1},
                      rng),
                  {c1});
  auto cat = g.add(std::make_unique<Concat>("cat"), {b1, b2});
  auto flat = g.add(std::make_unique<Flatten>("flat"), {cat});
  auto fc = g.add(std::make_unique<Dense>("fc", 64, 3, rng), {flat});
  g.set_output(fc);

  Tensor input = random_tensor({2, 1, 4, 4}, 24);
  g.zero_grads();
  Tensor out = g.forward(input, true);
  g.backward(loss_grad(out));

  constexpr float kEps = 1e-3f;
  auto params = g.params();
  for (const ParamRef& p : params) {
    const std::size_t stride =
        std::max<std::size_t>(1, p.value->numel() / 16);
    for (std::size_t i = 0; i < p.value->numel(); i += stride) {
      const float saved = (*p.value)[i];
      (*p.value)[i] = saved + kEps;
      const double plus = loss_of(g.forward(input, true));
      (*p.value)[i] = saved - kEps;
      const double minus = loss_of(g.forward(input, true));
      (*p.value)[i] = saved;
      const double numeric = (plus - minus) / (2.0 * kEps);
      EXPECT_NEAR((*p.grad)[i], numeric,
                  2e-2 * std::max(1.0, std::fabs(numeric)));
    }
  }
}

}  // namespace
}  // namespace iprune::nn
