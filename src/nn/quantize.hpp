#pragma once
// 16-bit fixed-point quantization (LEA-style Q15).
//
// The paper deploys models "quantized from the 32-bit floating point
// representation used during pruning to a 16-bit fixed point representation"
// (§IV-A). We use symmetric per-tensor scaling into the int16 range; the
// device engine computes on the quantized weights, and tests check the
// quantization accuracy delta stays small.

#include <cstdint>
#include <span>
#include <vector>

#include "nn/tensor.hpp"

namespace iprune::nn {

struct QTensor {
  Shape shape;
  std::vector<std::int16_t> data;
  /// Dequantized value = data[i] * scale.
  float scale = 1.0f;

  [[nodiscard]] std::size_t numel() const { return data.size(); }
  /// Bytes occupied on the device (2 bytes per element).
  [[nodiscard]] std::size_t byte_size() const { return data.size() * 2; }
};

/// Quantize symmetrically so that abs_max maps to 32767. A zero tensor gets
/// scale 1 (all zeros).
QTensor quantize_q15(const Tensor& tensor);

/// quantize_q15's per-element step: out[i] = values[i] * inv_scale rounded
/// half to even and saturated to [-32768, 32767]; NaN maps to -32768.
/// `out` must have the size of `values`.
void scale_to_q15(std::span<const float> values, float inv_scale,
                  std::span<std::int16_t> out);

Tensor dequantize(const QTensor& q);

/// Max absolute elementwise error introduced by quantize->dequantize.
float quantization_error(const Tensor& tensor);

}  // namespace iprune::nn
