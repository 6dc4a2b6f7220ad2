#include "data/synthetic.hpp"

#include <gtest/gtest.h>

#include <cmath>

namespace iprune::data {
namespace {

struct GeneratorCase {
  const char* name;
  Dataset (*make)(const SyntheticConfig&);
  nn::Shape sample_shape;
  std::size_t classes;
};

// Without a printer gtest lists the case as its raw bytes, pointers
// included, so the test names would change with every process.
void PrintTo(const GeneratorCase& c, std::ostream* os) { *os << c.name; }

class SyntheticGenerators : public ::testing::TestWithParam<GeneratorCase> {};

TEST_P(SyntheticGenerators, ShapesAndLabels) {
  const GeneratorCase& c = GetParam();
  SyntheticConfig config;
  config.samples = 200;
  const Dataset d = c.make(config);
  EXPECT_EQ(d.size(), 200u);
  EXPECT_EQ(d.sample_shape(), c.sample_shape);
  EXPECT_EQ(d.num_classes, c.classes);
  for (const int label : d.labels) {
    EXPECT_GE(label, 0);
    EXPECT_LT(static_cast<std::size_t>(label), c.classes);
  }
}

TEST_P(SyntheticGenerators, DeterministicForSameSeed) {
  const GeneratorCase& c = GetParam();
  SyntheticConfig config;
  config.samples = 50;
  const Dataset a = c.make(config);
  const Dataset b = c.make(config);
  EXPECT_TRUE(a.inputs.equals(b.inputs));
  EXPECT_EQ(a.labels, b.labels);
}

TEST_P(SyntheticGenerators, DifferentSeedsDiffer) {
  const GeneratorCase& c = GetParam();
  SyntheticConfig a_cfg;
  a_cfg.samples = 50;
  SyntheticConfig b_cfg = a_cfg;
  b_cfg.seed = a_cfg.seed + 1;
  const Dataset a = c.make(a_cfg);
  const Dataset b = c.make(b_cfg);
  EXPECT_FALSE(a.inputs.equals(b.inputs));
}

TEST_P(SyntheticGenerators, ClassesAreRoughlyBalanced) {
  const GeneratorCase& c = GetParam();
  SyntheticConfig config;
  config.samples = 2000;
  const Dataset d = c.make(config);
  const auto hist = class_histogram(d);
  const double expected =
      static_cast<double>(config.samples) / static_cast<double>(c.classes);
  for (const std::size_t count : hist) {
    EXPECT_GT(static_cast<double>(count), expected * 0.6);
    EXPECT_LT(static_cast<double>(count), expected * 1.4);
  }
}

TEST_P(SyntheticGenerators, ValuesAreFinite) {
  const GeneratorCase& c = GetParam();
  SyntheticConfig config;
  config.samples = 20;
  const Dataset d = c.make(config);
  for (std::size_t i = 0; i < d.inputs.numel(); ++i) {
    EXPECT_TRUE(std::isfinite(d.inputs[i]));
  }
}

TEST_P(SyntheticGenerators, ClassesAreSeparatedAboveNoise) {
  // Same-class samples must be more similar than cross-class samples on
  // average — otherwise the task is unlearnable and the prune-retrain loop
  // cannot exercise accuracy recovery.
  const GeneratorCase& c = GetParam();
  SyntheticConfig config;
  config.samples = 300;
  config.noise = 0.1f;
  const Dataset d = c.make(config);
  const std::size_t elems = d.inputs.numel() / d.size();

  auto distance = [&](std::size_t i, std::size_t j) {
    double sum = 0.0;
    for (std::size_t e = 0; e < elems; ++e) {
      const double diff =
          d.inputs[i * elems + e] - d.inputs[j * elems + e];
      sum += diff * diff;
    }
    return sum;
  };

  double same = 0.0, cross = 0.0;
  std::size_t same_n = 0, cross_n = 0;
  for (std::size_t i = 0; i < 100; ++i) {
    for (std::size_t j = i + 1; j < 100; ++j) {
      if (d.labels[i] == d.labels[j]) {
        same += distance(i, j);
        ++same_n;
      } else {
        cross += distance(i, j);
        ++cross_n;
      }
    }
  }
  ASSERT_GT(same_n, 0u);
  ASSERT_GT(cross_n, 0u);
  EXPECT_LT(same / static_cast<double>(same_n),
            0.8 * cross / static_cast<double>(cross_n));
}

INSTANTIATE_TEST_SUITE_P(
    All, SyntheticGenerators,
    ::testing::Values(
        GeneratorCase{"image", &make_image_dataset, {3, 32, 32}, 10},
        GeneratorCase{"har", &make_har_dataset, {3, 1, 128}, 6},
        GeneratorCase{"speech", &make_speech_dataset, {1, 49, 10}, 10}),
    [](const ::testing::TestParamInfo<GeneratorCase>& info) {
      return info.param.name;
    });

}  // namespace
}  // namespace iprune::data
