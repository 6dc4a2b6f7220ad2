#include "nn/quantize.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

#include "util/rng.hpp"

namespace iprune::nn {
namespace {

/// quantize_q15's per-element step as it was first written, with libm's
/// fmax, fmin and lrintf: the oracle for the vectorized scale_to_q15.
std::int16_t reference_q15(float value, float inv_scale) {
  const float scaled = value * inv_scale;
  const float clamped = std::fmin(32767.0f, std::fmax(-32768.0f, scaled));
  return static_cast<std::int16_t>(std::lrintf(clamped));
}

void expect_matches_reference(const std::vector<float>& values,
                              float inv_scale) {
  std::vector<std::int16_t> out(values.size());
  scale_to_q15(values, inv_scale, out);
  std::size_t mismatches = 0;
  for (std::size_t i = 0; i < values.size(); ++i) {
    const std::int16_t want = reference_q15(values[i], inv_scale);
    if (out[i] != want && ++mismatches <= 5) {
      ADD_FAILURE() << "value " << values[i] << " (bits 0x" << std::hex
                    << std::bit_cast<std::uint32_t>(values[i]) << std::dec
                    << ") * " << inv_scale << ": got " << out[i]
                    << ", want " << want;
    }
  }
  EXPECT_EQ(mismatches, 0u);
}

TEST(Quantize, ScaleToQ15MatchesLibmOnEdgeValues) {
  const float inf = std::numeric_limits<float>::infinity();
  const float nan = std::numeric_limits<float>::quiet_NaN();
  const float big = std::numeric_limits<float>::max();
  const float tiny = std::numeric_limits<float>::denorm_min();
  std::vector<float> values = {
      0.0f, -0.0f, inf, -inf, nan, -nan, big, -big, tiny, -tiny,
      std::numeric_limits<float>::min(),
      // Both clamp edges and their float neighbours.
      32767.0f, std::nextafter(32767.0f, 0.0f),
      std::nextafter(32767.0f, inf), 32768.0f, -32768.0f,
      std::nextafter(-32768.0f, 0.0f), std::nextafter(-32768.0f, -inf),
      -32769.0f,
      // Where the rounding add stops being exact: 2^22, 2^23, 2^24.
      4194304.0f, -4194304.0f, 8388608.0f, -8388608.0f, 16777216.0f,
      -16777216.0f, 1.0e10f, -1.0e10f};
  // Every halfway value k + 0.5 from beyond one clamp edge to the other,
  // plus its float neighbours, which must round away from the tie.
  for (int k = -32770; k <= 32769; ++k) {
    const float half = static_cast<float>(k) + 0.5f;
    values.push_back(half);
    values.push_back(std::nextafter(half, -inf));
    values.push_back(std::nextafter(half, inf));
  }
  for (const float inv_scale : {1.0f, 0.5f, 3.0f, 1.0f / 3.0f, 32767.0f}) {
    expect_matches_reference(values, inv_scale);
  }
}

TEST(Quantize, ScaleToQ15MatchesLibmOnRandomFloats) {
  // 10^6 floats: half raw bit patterns (every class, NaN payloads and
  // subnormals included), half spread around and beyond the Q15 range.
  util::Rng rng(15);
  std::vector<float> values(1000000);
  for (std::size_t i = 0; i < values.size(); ++i) {
    values[i] =
        i % 2 == 0
            ? std::bit_cast<float>(static_cast<std::uint32_t>(rng.next_u64()))
            : static_cast<float>(rng.uniform(-40000.0, 40000.0));
  }
  expect_matches_reference(values, 1.0f);
  expect_matches_reference(values, static_cast<float>(rng.uniform(0.0, 2.0)));
}

TEST(Quantize, RoundTripErrorBoundedByHalfScale) {
  util::Rng rng(1);
  Tensor t({1000});
  for (std::size_t i = 0; i < t.numel(); ++i) {
    t[i] = static_cast<float>(rng.normal(0.0, 2.0));
  }
  const QTensor q = quantize_q15(t);
  EXPECT_LE(quantization_error(t), q.scale * 0.5f + 1e-7f);
}

TEST(Quantize, AbsMaxMapsToFullScale) {
  Tensor t({3}, {-4.0f, 2.0f, 1.0f});
  const QTensor q = quantize_q15(t);
  EXPECT_EQ(q.data[0], -32767);
  EXPECT_NEAR(q.scale, 4.0f / 32767.0f, 1e-9);
}

TEST(Quantize, ZeroTensorStaysZero) {
  Tensor t({5});
  const QTensor q = quantize_q15(t);
  EXPECT_EQ(q.scale, 1.0f);
  for (const std::int16_t v : q.data) {
    EXPECT_EQ(v, 0);
  }
  EXPECT_EQ(quantization_error(t), 0.0f);
}

TEST(Quantize, PreservesShape) {
  Tensor t({2, 3, 4});
  const QTensor q = quantize_q15(t);
  EXPECT_EQ(q.shape, t.shape());
  EXPECT_EQ(q.numel(), 24u);
  EXPECT_EQ(q.byte_size(), 48u);
  const Tensor back = dequantize(q);
  EXPECT_EQ(back.shape(), t.shape());
}

TEST(Quantize, ZerosStayExactlyZero) {
  // Pruned weights must remain exactly zero after quantization (BSR
  // correctness depends on it).
  Tensor t({4}, {1.0f, 0.0f, -2.0f, 0.0f});
  const QTensor q = quantize_q15(t);
  EXPECT_EQ(q.data[1], 0);
  EXPECT_EQ(q.data[3], 0);
}

TEST(Quantize, SymmetricAroundZero) {
  Tensor t({2}, {3.0f, -3.0f});
  const QTensor q = quantize_q15(t);
  EXPECT_EQ(q.data[0], -q.data[1]);
}

class QuantizeDistributions
    : public ::testing::TestWithParam<std::pair<double, double>> {};

TEST_P(QuantizeDistributions, RelativeRoundTripErrorSmall) {
  const auto [mean, stddev] = GetParam();
  util::Rng rng(7);
  Tensor t({4096});
  for (std::size_t i = 0; i < t.numel(); ++i) {
    t[i] = static_cast<float>(rng.normal(mean, stddev));
  }
  const float abs_max = t.abs_max();
  EXPECT_LT(quantization_error(t) / abs_max, 1.0f / 32767.0f);
}

INSTANTIATE_TEST_SUITE_P(Ranges, QuantizeDistributions,
                         ::testing::Values(std::pair{0.0, 1.0},
                                           std::pair{0.0, 1e-3},
                                           std::pair{5.0, 0.1},
                                           std::pair{0.0, 100.0}));

}  // namespace
}  // namespace iprune::nn
