#pragma once
// Fully-connected layer. Weights [out, in] with a same-shaped pruning mask;
// on the device this is the LEA vector-matrix multiply, tiled into
// (Bo x Bi) blocks by the engine.

#include "nn/layer.hpp"
#include "util/rng.hpp"

namespace iprune::nn {

class Dense final : public Layer {
 public:
  Dense(std::string name, std::size_t in_features, std::size_t out_features,
        util::Rng& rng);

  [[nodiscard]] LayerKind kind() const override { return LayerKind::kDense; }

  [[nodiscard]] std::unique_ptr<Layer> clone() const override {
    return std::unique_ptr<Layer>(new Dense(*this));
  }
  [[nodiscard]] Tensor infer(
      std::span<const Tensor* const> inputs) const override;
  Tensor forward(std::span<const Tensor* const> inputs,
                 bool training) override;
  std::vector<Tensor> backward(Tensor grad_output,
                               bool need_input_grads) override;
  std::vector<ParamRef> params() override;
  [[nodiscard]] Shape output_shape(
      std::span<const Shape> input_shapes) const override;

  [[nodiscard]] std::size_t in_features() const { return in_features_; }
  [[nodiscard]] std::size_t out_features() const { return out_features_; }

  [[nodiscard]] Tensor& weight() { return weight_; }
  [[nodiscard]] const Tensor& weight() const { return weight_; }
  [[nodiscard]] Tensor& bias() { return bias_; }
  [[nodiscard]] const Tensor& bias() const { return bias_; }
  [[nodiscard]] Tensor& weight_mask() { return mask_; }
  [[nodiscard]] const Tensor& weight_mask() const { return mask_; }

  void apply_mask();

 private:
  Dense(const Dense&) = default;

  std::size_t in_features_;
  std::size_t out_features_;
  Tensor weight_;  // [out, in]
  Tensor bias_;    // [out]
  Tensor mask_;    // [out, in]
  Tensor weight_grad_;
  Tensor bias_grad_;
  Tensor cached_input_;  // [N, in]
};

}  // namespace iprune::nn
