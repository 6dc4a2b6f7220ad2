#pragma once
// Max / average pooling over [N,C,H,W] feature maps.

#include "nn/layer.hpp"

namespace iprune::nn {

struct PoolSpec {
  std::size_t window_h = 2;
  std::size_t window_w = 2;
  std::size_t stride = 2;
};

class MaxPool2d final : public Layer {
 public:
  MaxPool2d(std::string name, PoolSpec spec)
      : Layer(std::move(name)), spec_(spec) {}

  [[nodiscard]] LayerKind kind() const override { return LayerKind::kMaxPool; }
  [[nodiscard]] std::unique_ptr<Layer> clone() const override {
    return std::unique_ptr<Layer>(new MaxPool2d(*this));
  }
  [[nodiscard]] Tensor infer(
      std::span<const Tensor* const> inputs) const override;
  Tensor forward(std::span<const Tensor* const> inputs,
                 bool training) override;
  std::vector<Tensor> backward(Tensor grad_output,
                               bool need_input_grads) override;
  [[nodiscard]] Shape output_shape(
      std::span<const Shape> input_shapes) const override;
  [[nodiscard]] const PoolSpec& spec() const { return spec_; }

 private:
  MaxPool2d(const MaxPool2d&) = default;

  /// Shared compute; fills `argmax` (flat input index per output element)
  /// when non-null (the training path needs it for backward()).
  Tensor compute(const Tensor& input, std::vector<std::size_t>* argmax) const;

  PoolSpec spec_;
  Shape cached_input_shape_;
  std::vector<std::size_t> argmax_;  // flat input index per output element
};

class AvgPool2d final : public Layer {
 public:
  AvgPool2d(std::string name, PoolSpec spec)
      : Layer(std::move(name)), spec_(spec) {}

  [[nodiscard]] LayerKind kind() const override { return LayerKind::kAvgPool; }
  [[nodiscard]] std::unique_ptr<Layer> clone() const override {
    return std::unique_ptr<Layer>(new AvgPool2d(*this));
  }
  [[nodiscard]] Tensor infer(
      std::span<const Tensor* const> inputs) const override;
  Tensor forward(std::span<const Tensor* const> inputs,
                 bool training) override;
  std::vector<Tensor> backward(Tensor grad_output,
                               bool need_input_grads) override;
  [[nodiscard]] Shape output_shape(
      std::span<const Shape> input_shapes) const override;
  [[nodiscard]] const PoolSpec& spec() const { return spec_; }

 private:
  AvgPool2d(const AvgPool2d&) = default;

  PoolSpec spec_;
  Shape cached_input_shape_;
};

/// Output spatial extent shared by both pool layers.
std::size_t pooled_extent(std::size_t input, std::size_t window,
                          std::size_t stride);

}  // namespace iprune::nn
