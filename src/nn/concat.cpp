#include "nn/concat.hpp"

#include <cassert>
#include <cstring>
#include <stdexcept>

namespace iprune::nn {

Shape Concat::output_shape(std::span<const Shape> input_shapes) const {
  if (input_shapes.empty()) {
    throw std::invalid_argument(name() + ": needs at least one input");
  }
  Shape out = input_shapes[0];
  if (out.size() != 3) {
    throw std::invalid_argument(name() + ": expects [C,H,W] inputs");
  }
  for (std::size_t i = 1; i < input_shapes.size(); ++i) {
    const Shape& in = input_shapes[i];
    if (in.size() != 3 || in[1] != out[1] || in[2] != out[2]) {
      throw std::invalid_argument(name() + ": spatial dims must match");
    }
    out[0] += in[0];
  }
  return out;
}

Tensor Concat::infer(std::span<const Tensor* const> inputs) const {
  assert(!inputs.empty());
  const std::size_t batch = inputs[0]->dim(0);
  const std::size_t h = inputs[0]->dim(2);
  const std::size_t w = inputs[0]->dim(3);
  std::size_t total_channels = 0;
  for (const Tensor* in : inputs) {
    assert(in->rank() == 4 && in->dim(0) == batch && in->dim(2) == h &&
           in->dim(3) == w);
    total_channels += in->dim(1);
  }

  Tensor output({batch, total_channels, h, w});
  const std::size_t plane = h * w;
  for (std::size_t n = 0; n < batch; ++n) {
    std::size_t channel_base = 0;
    for (const Tensor* in : inputs) {
      const std::size_t c_in = in->dim(1);
      std::memcpy(output.data() + (n * total_channels + channel_base) * plane,
                  in->data() + n * c_in * plane,
                  c_in * plane * sizeof(float));
      channel_base += c_in;
    }
  }
  return output;
}

Tensor Concat::forward(std::span<const Tensor* const> inputs, bool training) {
  if (training) {
    cached_input_shapes_.clear();
    for (const Tensor* in : inputs) {
      cached_input_shapes_.push_back(in->shape());
    }
  }
  return infer(inputs);
}

std::vector<Tensor> Concat::backward(Tensor grad_output,
                                     bool /*need_input_grads*/) {
  std::vector<Tensor> grads;
  grads.reserve(cached_input_shapes_.size());
  const std::size_t batch = grad_output.dim(0);
  const std::size_t total_channels = grad_output.dim(1);
  const std::size_t plane = grad_output.dim(2) * grad_output.dim(3);

  std::size_t channel_base = 0;
  for (const Shape& in_shape : cached_input_shapes_) {
    Tensor grad(in_shape);
    const std::size_t c_in = in_shape[1];
    for (std::size_t n = 0; n < batch; ++n) {
      std::memcpy(
          grad.data() + n * c_in * plane,
          grad_output.data() + (n * total_channels + channel_base) * plane,
          c_in * plane * sizeof(float));
    }
    channel_base += c_in;
    grads.push_back(std::move(grad));
  }
  return grads;
}

}  // namespace iprune::nn
