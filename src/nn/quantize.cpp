#include "nn/quantize.hpp"

#include <cassert>
#include <cmath>

namespace iprune::nn {

namespace {
// 1.5 * 2^23. Added to a float of magnitude below 2^22, it leaves the
// float's integer part in the low mantissa bits, rounded half to even by
// the add itself; subtracting it again is exact.
constexpr float kRoundHalfEven = 12582912.0f;
}  // namespace

void scale_to_q15(std::span<const float> values, float inv_scale,
                  std::span<std::int16_t> out) {
  assert(values.size() == out.size());
  // Adds and compare-selects only, so the loop vectorizes in the baseline
  // ISA. Each element matches lrintf(fmin(32767, fmax(-32768, v))) bit
  // for bit in the default rounding mode, although it rounds before it
  // clamps: below 2^22 in magnitude the add rounds exactly and rounding
  // is monotone, larger values and infinities stay beyond the clamp
  // edges, and NaN stays NaN. Clamping first would put the add behind
  // the selects, and the compiler would then split the loop into
  // branches instead of vectorizing it.
  for (std::size_t i = 0; i < values.size(); ++i) {
    const float rounded =
        (values[i] * inv_scale + kRoundHalfEven) - kRoundHalfEven;
    const float below_max = rounded < 32767.0f ? rounded : 32767.0f;
    // NaN and -inf fail this test and saturate low, as fmax makes them.
    const float clamped = rounded > -32768.0f ? below_max : -32768.0f;
    out[i] = static_cast<std::int16_t>(static_cast<std::int32_t>(clamped));
  }
}

QTensor quantize_q15(const Tensor& tensor) {
  QTensor q;
  q.shape = tensor.shape();
  q.data.resize(tensor.numel());
  const float abs_max = tensor.abs_max();
  if (abs_max == 0.0f) {
    q.scale = 1.0f;
    return q;
  }
  q.scale = abs_max / 32767.0f;
  scale_to_q15(tensor.values(), 1.0f / q.scale, q.data);
  return q;
}

Tensor dequantize(const QTensor& q) {
  Tensor out(q.shape);
  for (std::size_t i = 0; i < q.data.size(); ++i) {
    out[i] = static_cast<float>(q.data[i]) * q.scale;
  }
  return out;
}

float quantization_error(const Tensor& tensor) {
  const Tensor round_trip = dequantize(quantize_q15(tensor));
  float worst = 0.0f;
  for (std::size_t i = 0; i < tensor.numel(); ++i) {
    worst = std::fmax(worst, std::fabs(tensor[i] - round_trip[i]));
  }
  return worst;
}

}  // namespace iprune::nn
