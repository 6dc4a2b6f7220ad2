#include "nn/pool.hpp"

#include <cassert>
#include <limits>
#include <stdexcept>

namespace iprune::nn {

std::size_t pooled_extent(std::size_t input, std::size_t window,
                          std::size_t stride) {
  if (input < window) {
    throw std::invalid_argument("pool window larger than input");
  }
  return (input - window) / stride + 1;
}

namespace {
Shape pool_output_shape(const std::string& name, const PoolSpec& spec,
                        std::span<const Shape> input_shapes) {
  if (input_shapes.size() != 1 || input_shapes[0].size() != 3) {
    throw std::invalid_argument(name + ": expects one [C,H,W] input");
  }
  const Shape& in = input_shapes[0];
  return {in[0], pooled_extent(in[1], spec.window_h, spec.stride),
          pooled_extent(in[2], spec.window_w, spec.stride)};
}
}  // namespace

Shape MaxPool2d::output_shape(std::span<const Shape> input_shapes) const {
  return pool_output_shape(name(), spec_, input_shapes);
}

Shape AvgPool2d::output_shape(std::span<const Shape> input_shapes) const {
  return pool_output_shape(name(), spec_, input_shapes);
}

Tensor MaxPool2d::compute(const Tensor& input,
                          std::vector<std::size_t>* argmax) const {
  assert(input.rank() == 4);
  const std::size_t batch = input.dim(0);
  const std::size_t channels = input.dim(1);
  const std::size_t in_h = input.dim(2);
  const std::size_t in_w = input.dim(3);
  const std::size_t ho = pooled_extent(in_h, spec_.window_h, spec_.stride);
  const std::size_t wo = pooled_extent(in_w, spec_.window_w, spec_.stride);

  Tensor output({batch, channels, ho, wo});
  if (argmax != nullptr) {
    argmax->assign(output.numel(), 0);
  }
  std::size_t out_idx = 0;
  for (std::size_t n = 0; n < batch; ++n) {
    for (std::size_t c = 0; c < channels; ++c) {
      const float* plane = input.data() + (n * channels + c) * in_h * in_w;
      const std::size_t plane_base = (n * channels + c) * in_h * in_w;
      for (std::size_t oy = 0; oy < ho; ++oy) {
        for (std::size_t ox = 0; ox < wo; ++ox, ++out_idx) {
          float best = -std::numeric_limits<float>::infinity();
          std::size_t best_idx = 0;
          for (std::size_t wy = 0; wy < spec_.window_h; ++wy) {
            for (std::size_t wx = 0; wx < spec_.window_w; ++wx) {
              const std::size_t iy = oy * spec_.stride + wy;
              const std::size_t ix = ox * spec_.stride + wx;
              const float v = plane[iy * in_w + ix];
              if (v > best) {
                best = v;
                best_idx = plane_base + iy * in_w + ix;
              }
            }
          }
          output[out_idx] = best;
          if (argmax != nullptr) {
            (*argmax)[out_idx] = best_idx;
          }
        }
      }
    }
  }
  return output;
}

Tensor MaxPool2d::infer(std::span<const Tensor* const> inputs) const {
  assert(inputs.size() == 1);
  return compute(*inputs[0], nullptr);
}

Tensor MaxPool2d::forward(std::span<const Tensor* const> inputs,
                          bool training) {
  assert(inputs.size() == 1);
  const Tensor& input = *inputs[0];
  if (!training) {
    return compute(input, nullptr);
  }
  cached_input_shape_ = input.shape();
  return compute(input, &argmax_);
}

std::vector<Tensor> MaxPool2d::backward(const Tensor& grad_output,
                                        bool /*need_input_grads*/) {
  Tensor grad_input(cached_input_shape_);
  assert(grad_output.numel() == argmax_.size());
  for (std::size_t i = 0; i < argmax_.size(); ++i) {
    grad_input[argmax_[i]] += grad_output[i];
  }
  std::vector<Tensor> grads;
  grads.push_back(std::move(grad_input));
  return grads;
}

Tensor AvgPool2d::infer(std::span<const Tensor* const> inputs) const {
  assert(inputs.size() == 1);
  const Tensor& input = *inputs[0];
  assert(input.rank() == 4);
  const std::size_t batch = input.dim(0);
  const std::size_t channels = input.dim(1);
  const std::size_t in_h = input.dim(2);
  const std::size_t in_w = input.dim(3);
  const std::size_t ho = pooled_extent(in_h, spec_.window_h, spec_.stride);
  const std::size_t wo = pooled_extent(in_w, spec_.window_w, spec_.stride);
  const float inv_area =
      1.0f / static_cast<float>(spec_.window_h * spec_.window_w);

  Tensor output({batch, channels, ho, wo});
  std::size_t out_idx = 0;
  for (std::size_t n = 0; n < batch; ++n) {
    for (std::size_t c = 0; c < channels; ++c) {
      const float* plane = input.data() + (n * channels + c) * in_h * in_w;
      for (std::size_t oy = 0; oy < ho; ++oy) {
        for (std::size_t ox = 0; ox < wo; ++ox, ++out_idx) {
          float acc = 0.0f;
          for (std::size_t wy = 0; wy < spec_.window_h; ++wy) {
            for (std::size_t wx = 0; wx < spec_.window_w; ++wx) {
              acc += plane[(oy * spec_.stride + wy) * in_w +
                           (ox * spec_.stride + wx)];
            }
          }
          output[out_idx] = acc * inv_area;
        }
      }
    }
  }
  return output;
}

Tensor AvgPool2d::forward(std::span<const Tensor* const> inputs,
                          bool training) {
  if (training) {
    cached_input_shape_ = (*inputs[0]).shape();
  }
  return infer(inputs);
}

std::vector<Tensor> AvgPool2d::backward(const Tensor& grad_output,
                                        bool /*need_input_grads*/) {
  Tensor grad_input(cached_input_shape_);
  const std::size_t batch = cached_input_shape_[0];
  const std::size_t channels = cached_input_shape_[1];
  const std::size_t in_h = cached_input_shape_[2];
  const std::size_t in_w = cached_input_shape_[3];
  const std::size_t ho = pooled_extent(in_h, spec_.window_h, spec_.stride);
  const std::size_t wo = pooled_extent(in_w, spec_.window_w, spec_.stride);
  const float inv_area =
      1.0f / static_cast<float>(spec_.window_h * spec_.window_w);

  std::size_t out_idx = 0;
  for (std::size_t n = 0; n < batch; ++n) {
    for (std::size_t c = 0; c < channels; ++c) {
      float* plane = grad_input.data() + (n * channels + c) * in_h * in_w;
      for (std::size_t oy = 0; oy < ho; ++oy) {
        for (std::size_t ox = 0; ox < wo; ++ox, ++out_idx) {
          const float g = grad_output[out_idx] * inv_area;
          for (std::size_t wy = 0; wy < spec_.window_h; ++wy) {
            for (std::size_t wx = 0; wx < spec_.window_w; ++wx) {
              plane[(oy * spec_.stride + wy) * in_w +
                    (ox * spec_.stride + wx)] += g;
            }
          }
        }
      }
    }
  }
  std::vector<Tensor> grads;
  grads.push_back(std::move(grad_input));
  return grads;
}

}  // namespace iprune::nn
