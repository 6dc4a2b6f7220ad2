#include "nn/activation.hpp"

#include <cassert>
#include <stdexcept>

namespace iprune::nn {

Shape Relu::output_shape(std::span<const Shape> input_shapes) const {
  if (input_shapes.size() != 1) {
    throw std::invalid_argument(name() + ": expects one input");
  }
  return input_shapes[0];
}

Tensor Relu::infer(std::span<const Tensor* const> inputs) const {
  assert(inputs.size() == 1);
  const Tensor& input = *inputs[0];
  Tensor output(input.shape());
  for (std::size_t i = 0; i < input.numel(); ++i) {
    output[i] = input[i] > 0.0f ? input[i] : 0.0f;
  }
  return output;
}

Tensor Relu::forward(std::span<const Tensor* const> inputs, bool training) {
  if (!training) {
    return infer(inputs);
  }
  const Tensor& input = *inputs[0];
  Tensor output(input.shape());
  active_.resize(input.numel());
  const float* in = input.data();
  float* out = output.data();
  std::uint8_t* active = active_.data();
  for (std::size_t i = 0; i < input.numel(); ++i) {
    const bool pass = in[i] > 0.0f;
    out[i] = pass ? in[i] : 0.0f;
    active[i] = pass ? 1 : 0;
  }
  cached_shape_ = input.shape();
  return output;
}

std::vector<Tensor> Relu::backward(const Tensor& grad_output,
                                   bool /*need_input_grads*/) {
  assert(grad_output.numel() == active_.size());
  Tensor grad_input(cached_shape_);
  const float* g = grad_output.data();
  const std::uint8_t* active = active_.data();
  float* out = grad_input.data();
  // A select, not g * mask: an inactive element's gradient is +0 even
  // when g is negative or not finite.
  for (std::size_t i = 0; i < grad_output.numel(); ++i) {
    out[i] = active[i] != 0 ? g[i] : 0.0f;
  }
  std::vector<Tensor> grads;
  grads.push_back(std::move(grad_input));
  return grads;
}

Shape Flatten::output_shape(std::span<const Shape> input_shapes) const {
  if (input_shapes.size() != 1) {
    throw std::invalid_argument(name() + ": expects one input");
  }
  return {shape_numel(input_shapes[0])};
}

Tensor Flatten::infer(std::span<const Tensor* const> inputs) const {
  assert(inputs.size() == 1);
  const Tensor& input = *inputs[0];
  assert(input.rank() >= 2);
  Tensor output = input;
  const std::size_t batch = input.dim(0);
  output.reshape({batch, input.numel() / batch});
  return output;
}

Tensor Flatten::forward(std::span<const Tensor* const> inputs,
                        bool training) {
  if (training) {
    cached_shape_ = (*inputs[0]).shape();
  }
  return infer(inputs);
}

std::vector<Tensor> Flatten::backward(const Tensor& grad_output,
                                      bool /*need_input_grads*/) {
  Tensor grad_input = grad_output;
  grad_input.reshape(cached_shape_);
  std::vector<Tensor> grads;
  grads.push_back(std::move(grad_input));
  return grads;
}

}  // namespace iprune::nn
