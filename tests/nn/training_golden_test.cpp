// Training golden: the trained bytes of each paper model are pinned.
//
// Every other golden digest hashes untrained graphs, so without this suite
// a training-kernel change that moved one rounding step would pass tier-1.
// Each case trains a Table II model on 64 random samples for 2 epochs with
// a block-pruned mask (negative pruned weights become -0.0f, so sign bits
// are covered) and a clip norm small enough that clipping fires, then
// folds every parameter and mask into one FNV-1a digest.
//
// The models cover the conv shapes the backward pass must keep bit for
// bit: HAR's 1-D kernels, CKS's stride-2 padded conv, and SQN's multi-path
// fire modules with 1x1 and 3x3 convs. A digest change here means the
// training numerics drifted (docs/performance.md, "Training backward").

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <ostream>
#include <string>
#include <vector>

#include "apps/models.hpp"
#include "nn/loss.hpp"
#include "nn/trainer.hpp"
#include "util/hash.hpp"
#include "util/rng.hpp"

namespace iprune::nn {
namespace {

constexpr std::size_t kSamples = 64;
constexpr float kClipNorm = 0.25f;

struct TrainingCase {
  const char* name;
  Graph (*build)(util::Rng&);
  std::uint64_t digest;
};

// Without a printer gtest lists the case as its raw bytes, pointers
// included, so the test names would change with every process.
void PrintTo(const TrainingCase& c, std::ostream* os) { *os << c.name; }

/// Prune every other 2x4 block of each prunable matrix (a checkerboard over
/// block coordinates) and re-mask the weights.
void block_prune(Graph& graph) {
  for (const ParamRef& p : graph.params()) {
    if (p.mask == nullptr) {
      continue;
    }
    const std::size_t rows = p.mask->dim(0);
    const std::size_t cols = p.mask->dim(1);
    for (std::size_t r = 0; r < rows; ++r) {
      for (std::size_t c = 0; c < cols; ++c) {
        if ((r / 2 + c / 4) % 2 == 0) {
          p.mask->at(r, c) = 0.0f;
        }
      }
    }
    p.value->hadamard(*p.mask);
  }
}

struct Samples {
  Tensor x;
  std::vector<int> y;
};

Samples random_samples(const Graph& graph, util::Rng& rng) {
  Shape shape = graph.input_shape();
  shape.insert(shape.begin(), kSamples);
  Samples s{Tensor(shape), std::vector<int>(kSamples)};
  for (std::size_t i = 0; i < s.x.numel(); ++i) {
    s.x[i] = static_cast<float>(rng.normal());
  }
  const auto classes =
      static_cast<std::int64_t>(graph.node_shape(graph.output())[0]);
  for (int& label : s.y) {
    label = static_cast<int>(rng.uniform_int(0, classes - 1));
  }
  return s;
}

std::uint64_t parameter_digest(Graph& graph) {
  util::Fnv1a hash;
  for (const ParamRef& p : graph.params()) {
    hash.fold_f32(p.value->data(), p.value->numel());
    if (p.mask != nullptr) {
      hash.fold_f32(p.mask->data(), p.mask->numel());
    }
  }
  return hash.value();
}

/// L2 norm of one batch's gradient over every parameter, masked ones
/// included (as Trainer::train clips it).
double gradient_norm(Graph& graph, const Samples& s, std::size_t batch) {
  std::vector<std::size_t> rows(batch);
  for (std::size_t i = 0; i < batch; ++i) {
    rows[i] = i;
  }
  graph.zero_grads();
  const Tensor logits = graph.forward(gather_rows(s.x, rows), true);
  const LossResult loss = softmax_cross_entropy(
      logits, std::span<const int>(s.y.data(), batch));
  graph.backward(loss.grad);
  double norm_sq = 0.0;
  for (const ParamRef& p : graph.params()) {
    for (std::size_t i = 0; i < p.grad->numel(); ++i) {
      norm_sq += static_cast<double>((*p.grad)[i]) * (*p.grad)[i];
    }
  }
  return std::sqrt(norm_sq);
}

class TrainingGolden : public ::testing::TestWithParam<TrainingCase> {};

TEST_P(TrainingGolden, TrainedParametersMatchPinnedDigest) {
  const TrainingCase& c = GetParam();
  util::Rng rng(2023);
  Graph graph = c.build(rng);
  block_prune(graph);
  const Samples s = random_samples(graph, rng);

  TrainConfig config;
  config.epochs = 2;
  config.batch_size = 24;  // 24 + 24 + 16: the last batch is short
  config.clip_grad_norm = kClipNorm;
  Trainer(graph).train(s.x, s.y, config);

  EXPECT_EQ(c.digest, parameter_digest(graph))
      << c.name << ": trained bytes drifted; got 0x" << std::hex
      << parameter_digest(graph);
  // The pin covers clipping only if it fires: the gradient norm, even at
  // the trained weights, still exceeds the clip.
  EXPECT_GT(gradient_norm(graph, s, config.batch_size), kClipNorm);
}

// Taken before the transposed conv backward landed; a failing case prints
// the digest it got.
INSTANTIATE_TEST_SUITE_P(
    Models, TrainingGolden,
    ::testing::Values(
        TrainingCase{"har", apps::build_har, 0xc29fcd5cda9a16c9ull},
        TrainingCase{"cks", apps::build_cks, 0x9300290d9d0d2021ull},
        TrainingCase{"sqn", apps::build_sqn, 0x542a734de3c956ddull}),
    [](const ::testing::TestParamInfo<TrainingCase>& info) {
      return std::string(info.param.name);
    });

}  // namespace
}  // namespace iprune::nn
