#pragma once
// 2-D convolution layer.
//
// Weights are stored GEMM-ready as a [Cout, K] matrix with K = Cin*kh*kw —
// the same "lowered" layout the HAWAII+ engine tiles on the device (paper
// §III-D cites Anderson et al. [2] for this loop tiling/ordering). The
// pruning mask has the same [Cout, K] shape so a weight block here maps 1:1
// to an accelerator-operation block on the device.

#include "nn/layer.hpp"
#include "util/rng.hpp"

namespace iprune::nn {

struct Conv2dSpec {
  std::size_t in_channels = 1;
  std::size_t out_channels = 1;
  std::size_t kernel_h = 3;
  std::size_t kernel_w = 3;
  std::size_t stride = 1;
  std::size_t pad_h = 0;
  std::size_t pad_w = 0;
};

class Conv2d final : public Layer {
 public:
  Conv2d(std::string name, Conv2dSpec spec, util::Rng& rng);

  [[nodiscard]] LayerKind kind() const override { return LayerKind::kConv2d; }

  [[nodiscard]] std::unique_ptr<Layer> clone() const override {
    return std::unique_ptr<Layer>(new Conv2d(*this));
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

  [[nodiscard]] const Conv2dSpec& spec() const { return spec_; }
  /// Lowered reduction depth K = Cin * kh * kw.
  [[nodiscard]] std::size_t lowered_k() const {
    return spec_.in_channels * spec_.kernel_h * spec_.kernel_w;
  }

  [[nodiscard]] Tensor& weight() { return weight_; }
  [[nodiscard]] const Tensor& weight() const { return weight_; }
  [[nodiscard]] Tensor& bias() { return bias_; }
  [[nodiscard]] const Tensor& bias() const { return bias_; }
  [[nodiscard]] Tensor& weight_mask() { return mask_; }
  [[nodiscard]] const Tensor& weight_mask() const { return mask_; }

  /// Re-apply the mask to the weights (used after pruning edits the mask).
  void apply_mask();

  /// Spatial output size for the given input H/W.
  [[nodiscard]] std::size_t out_h(std::size_t in_h) const;
  [[nodiscard]] std::size_t out_w(std::size_t in_w) const;

 private:
  Conv2d(const Conv2d&) = default;

  /// Lower one sample: element (k, s) of its [K, S] receptive-field
  /// matrix lands at col[k * k_stride + s * s_stride]. Strides (S, 1)
  /// give the forward GEMM's [K, S] layout, (1, K) the transposed [S, K]
  /// layout the backward pass uses.
  void im2col(const float* input, std::size_t in_h, std::size_t in_w,
              float* col, std::size_t k_stride, std::size_t s_stride) const;
  /// Scatter-add a transposed [S, K] column gradient into one sample's
  /// input gradient, each element receiving its terms in ascending k.
  void col2im(const float* col_t, std::size_t in_h, std::size_t in_w,
              float* grad_input) const;

  Conv2dSpec spec_;
  Tensor weight_;  // [Cout, K]
  Tensor bias_;    // [Cout]
  Tensor mask_;    // [Cout, K], 0/1
  Tensor weight_grad_;
  Tensor bias_grad_;
  Tensor cached_input_;  // [N, Cin, H, W]
};

}  // namespace iprune::nn
