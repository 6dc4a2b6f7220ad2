// The engine's one rounding helper against std::lround, through both of
// its public seams: input quantization and psum requantization. Every
// engine run rounds through it, so it must reproduce lround bit for bit,
// half-way values and the clamp edges included, and must stay defined on
// the non-finite and out-of-range values a caller's tensor can carry.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

#include "engine/engine.hpp"
#include "util/rng.hpp"

namespace iprune::engine {
namespace {

/// clamp_i16(std::lround(x)): what the engine promises to compute.
std::int16_t reference(double x) {
  const long v = std::lround(x);
  if (v > 32767) {
    return 32767;
  }
  if (v < -32768) {
    return -32768;
  }
  return static_cast<std::int16_t>(v);
}

std::int16_t quantized(float sample, float scale) {
  return IntermittentEngine::quantize_input({&sample, 1}, scale)[0];
}

void expect_quantize_matches(float sample, float scale) {
  EXPECT_EQ(quantized(sample, scale),
            reference(static_cast<double>(sample / scale)))
      << "sample " << sample << " scale " << scale;
}

void expect_requantize_matches(std::int64_t psum, float multiplier) {
  EXPECT_EQ(IntermittentEngine::requantize(psum, multiplier, false),
            reference(static_cast<double>(psum) *
                      static_cast<double>(multiplier)))
      << "psum " << psum << " multiplier " << multiplier;
}

TEST(EngineRounding, HalfwayValuesRoundAwayFromZero) {
  EXPECT_EQ(quantized(0.5f, 1.0f), 1);
  EXPECT_EQ(quantized(-0.5f, 1.0f), -1);
  EXPECT_EQ(quantized(2.5f, 1.0f), 3);
  EXPECT_EQ(quantized(-2.5f, 1.0f), -3);
  for (std::int64_t odd = -99; odd <= 99; odd += 2) {
    expect_requantize_matches(odd, 0.5f);  // odd / 2: exactly k + 0.5
  }
  for (const float x : {0.5f, 1.5f, 2.5f, 1023.5f, 32766.5f}) {
    expect_quantize_matches(x, 1.0f);
    expect_quantize_matches(-x, 1.0f);
  }
}

TEST(EngineRounding, LargestDoubleBelowOneHalfRoundsToZero) {
  // (2^53 - 1) * 2^-54 == 0.49999999999999994 exactly, where the classic
  // x + 0.5 truncation trick rounds up and lround does not.
  const std::int64_t psum = (std::int64_t{1} << 53) - 1;
  const float multiplier = std::ldexp(1.0f, -54);
  ASSERT_EQ(static_cast<double>(psum) * static_cast<double>(multiplier),
            0.49999999999999994);
  EXPECT_EQ(IntermittentEngine::requantize(psum, multiplier, false), 0);
  EXPECT_EQ(IntermittentEngine::requantize(-psum, multiplier, false), 0);
  expect_requantize_matches(psum, multiplier);
  expect_requantize_matches(-psum, multiplier);
  // The float analogue for input quantization.
  expect_quantize_matches(std::nextafter(0.5f, 0.0f), 1.0f);
  expect_quantize_matches(-std::nextafter(0.5f, 0.0f), 1.0f);
}

TEST(EngineRounding, ClampEdges) {
  EXPECT_EQ(quantized(32767.5f, 1.0f), 32767);
  EXPECT_EQ(quantized(-32768.5f, 1.0f), -32768);
  for (const float x : {32766.5f, 32767.0f, 32767.49f, 32767.5f, 32768.0f,
                        32768.5f, 40000.0f}) {
    expect_quantize_matches(x, 1.0f);
    expect_quantize_matches(-x, 1.0f);
  }
  for (std::int64_t twice = 65530; twice <= 65540; ++twice) {
    expect_requantize_matches(twice, 0.5f);
    expect_requantize_matches(-twice, 0.5f);
  }
}

TEST(EngineRounding, NonFiniteAndOutOfRangeMatchLround) {
  const float inf = std::numeric_limits<float>::infinity();
  const float nan = std::numeric_limits<float>::quiet_NaN();
  const float max = std::numeric_limits<float>::max();
  for (const float x : {inf, -inf, nan, max, -max, 1e30f, -1e30f,
                        9.3e18f, -9.3e18f, 4.5e15f, -4.5e15f}) {
    expect_quantize_matches(x, 1.0f);
    expect_quantize_matches(x, 0.37f);
  }
  // A zero scale turns any sample into an infinity or a NaN.
  expect_quantize_matches(1.0f, 0.0f);
  expect_quantize_matches(0.0f, 0.0f);
  const std::int64_t big = std::numeric_limits<std::int64_t>::max();
  for (const float multiplier : {inf, -inf, nan, 1e30f, max}) {
    expect_requantize_matches(1, multiplier);
    expect_requantize_matches(0, multiplier);
    expect_requantize_matches(big, multiplier);
    expect_requantize_matches(-big, multiplier);
  }
}

TEST(EngineRounding, RandomSamplesMatchLround) {
  util::Rng rng(19);
  for (int i = 0; i < 20000; ++i) {
    const float scale = 1e-3f + static_cast<float>(rng.uniform()) * 2.0f;
    const float sample =
        static_cast<float>((rng.uniform() * 2.0 - 1.0) * 80000.0) * scale;
    expect_quantize_matches(sample, scale);
    const auto psum =
        static_cast<std::int64_t>((rng.uniform() * 2.0 - 1.0) * 1e12);
    const auto multiplier = static_cast<float>(rng.uniform() * 1e-6);
    expect_requantize_matches(psum, multiplier);
  }
}

TEST(EngineRounding, FoldedReluFloorsAtZero) {
  EXPECT_EQ(IntermittentEngine::requantize(-3, 1.0f, true), 0);
  EXPECT_EQ(IntermittentEngine::requantize(-1, 0.5f, true), 0);
  EXPECT_EQ(IntermittentEngine::requantize(3, 0.5f, true), 2);
}

}  // namespace
}  // namespace iprune::engine
