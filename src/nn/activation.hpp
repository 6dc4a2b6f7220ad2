#pragma once
// Elementwise activations. Only ReLU is needed by the paper's models; the
// engine folds a ReLU following a CONV/FC into that layer's jobs (applied in
// VM before the output is preserved, matching HAWAII+).

#include <cstdint>

#include "nn/layer.hpp"

namespace iprune::nn {

class Relu final : public Layer {
 public:
  explicit Relu(std::string name) : Layer(std::move(name)) {}

  [[nodiscard]] LayerKind kind() const override { return LayerKind::kRelu; }
  [[nodiscard]] std::unique_ptr<Layer> clone() const override {
    return std::unique_ptr<Layer>(new Relu(*this));
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
  Relu(const Relu&) = default;

  // Per-element pass-through mask from forward, one byte each so both
  // passes vectorize (a bit-packed vector<bool> does not).
  std::vector<std::uint8_t> active_;
  Shape cached_shape_;
};

class Flatten final : public Layer {
 public:
  explicit Flatten(std::string name) : Layer(std::move(name)) {}

  [[nodiscard]] LayerKind kind() const override { return LayerKind::kFlatten; }
  [[nodiscard]] std::unique_ptr<Layer> clone() const override {
    return std::unique_ptr<Layer>(new Flatten(*this));
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
  Flatten(const Flatten&) = default;

  Shape cached_shape_;
};

}  // namespace iprune::nn
