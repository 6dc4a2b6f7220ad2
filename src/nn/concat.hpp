#pragma once
// Channel-axis concatenation for multi-path networks (SqueezeNet-style fire
// modules). HAWAII+'s "support for multiple path networks" maps onto this
// node: the engine materializes each branch's OFM in NVM and the consumer
// reads the concatenated region.

#include "nn/layer.hpp"

namespace iprune::nn {

class Concat final : public Layer {
 public:
  explicit Concat(std::string name) : Layer(std::move(name)) {}

  [[nodiscard]] LayerKind kind() const override { return LayerKind::kConcat; }
  [[nodiscard]] std::unique_ptr<Layer> clone() const override {
    return std::unique_ptr<Layer>(new Concat(*this));
  }
  [[nodiscard]] Tensor infer(
      std::span<const Tensor* const> inputs) const override;
  Tensor forward(std::span<const Tensor* const> inputs,
                 bool training) override;
  std::vector<Tensor> backward(const Tensor& grad_output,
                               bool need_input_grads) override;
  [[nodiscard]] Shape output_shape(
      std::span<const Shape> input_shapes) const override;

 private:
  Concat(const Concat&) = default;

  std::vector<Shape> cached_input_shapes_;
};

}  // namespace iprune::nn
