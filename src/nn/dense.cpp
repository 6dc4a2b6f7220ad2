#include "nn/dense.hpp"

#include <cassert>
#include <stdexcept>

#include "nn/gemm.hpp"
#include "nn/init.hpp"

namespace iprune::nn {

Dense::Dense(std::string name, std::size_t in_features,
             std::size_t out_features, util::Rng& rng)
    : Layer(std::move(name)),
      in_features_(in_features),
      out_features_(out_features),
      weight_({out_features, in_features}),
      bias_({out_features}),
      mask_({out_features, in_features}),
      weight_grad_(weight_.shape()),
      bias_grad_(bias_.shape()) {
  kaiming_uniform(weight_, in_features, rng);
  mask_.fill(1.0f);
}

Shape Dense::output_shape(std::span<const Shape> input_shapes) const {
  if (input_shapes.size() != 1 || input_shapes[0].size() != 1 ||
      input_shapes[0][0] != in_features_) {
    throw std::invalid_argument(name() + ": expects one [in_features] input");
  }
  return {out_features_};
}

Tensor Dense::infer(std::span<const Tensor* const> inputs) const {
  assert(inputs.size() == 1);
  const Tensor& input = *inputs[0];
  assert(input.rank() == 2 && input.dim(1) == in_features_);
  const std::size_t batch = input.dim(0);

  Tensor output({batch, out_features_});
  // out[N,O] = X[N,I] * W^T[I,O]
  gemm_a_bt(input.data(), weight_.data(), output.data(), batch, in_features_,
            out_features_);
  for (std::size_t n = 0; n < batch; ++n) {
    float* out_row = output.data() + n * out_features_;
    for (std::size_t o = 0; o < out_features_; ++o) {
      out_row[o] += bias_[o];
    }
  }
  return output;
}

Tensor Dense::forward(std::span<const Tensor* const> inputs, bool training) {
  if (training) {
    cached_input_ = *inputs[0];
  }
  return infer(inputs);
}

std::vector<Tensor> Dense::backward(Tensor grad_output,
                                    bool need_input_grads) {
  const Tensor& input = cached_input_;
  const std::size_t batch = input.dim(0);
  assert(grad_output.rank() == 2 && grad_output.dim(0) == batch &&
         grad_output.dim(1) == out_features_);

  // dW[O,I] += dOut^T[O,N] * X[N,I]
  gemm_at_b(grad_output.data(), input.data(), weight_grad_.data(),
            out_features_, batch, in_features_);
  for (std::size_t n = 0; n < batch; ++n) {
    const float* grad_row = grad_output.data() + n * out_features_;
    for (std::size_t o = 0; o < out_features_; ++o) {
      bias_grad_[o] += grad_row[o];
    }
  }
  if (!need_input_grads) {
    return {};
  }
  // dX[N,I] = dOut[N,O] * W[O,I]
  Tensor grad_input({batch, in_features_});
  gemm_accumulate(grad_output.data(), weight_.data(), grad_input.data(),
                  batch, out_features_, in_features_);
  std::vector<Tensor> grads;
  grads.push_back(std::move(grad_input));
  return grads;
}

std::vector<ParamRef> Dense::params() {
  return {{&weight_, &weight_grad_, &mask_}, {&bias_, &bias_grad_, nullptr}};
}

void Dense::apply_mask() {
  weight_.hadamard(mask_);
}

}  // namespace iprune::nn
