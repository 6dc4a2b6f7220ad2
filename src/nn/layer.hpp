#pragma once
// Layer abstraction for the server-side training graph.
//
// Layers are trained in float32 on the "server" (this process), then
// quantized and lowered to device jobs by src/engine/. Each layer caches
// what it needs in forward(training=true) to run backward(); the
// inference path (infer()) is const and touches no caches, so it is safe
// to call concurrently on a shared layer, and clone() deep-copies a layer
// so parallel search candidates never share mutable state.

#include <memory>
#include <span>
#include <string>
#include <vector>

#include "nn/tensor.hpp"

namespace iprune::nn {

enum class LayerKind {
  kInput,
  kConv2d,
  kDense,
  kMaxPool,
  kAvgPool,
  kRelu,
  kFlatten,
  kConcat,
};

/// Human-readable tag ("CONV", "FC", ...) matching the paper's notation.
const char* layer_kind_name(LayerKind kind);

/// Reference to one trainable parameter plus its gradient and (optionally)
/// its pruning mask. The optimizer keeps pruned weights at exactly zero by
/// multiplying both the gradient and the updated value by the mask.
struct ParamRef {
  Tensor* value = nullptr;
  Tensor* grad = nullptr;
  Tensor* mask = nullptr;  // nullptr when the parameter is not prunable
};

class Layer {
 public:
  explicit Layer(std::string name) : name_(std::move(name)) {}
  virtual ~Layer() = default;

  Layer& operator=(const Layer&) = delete;

  [[nodiscard]] const std::string& name() const { return name_; }
  [[nodiscard]] virtual LayerKind kind() const = 0;

  /// Deep copy (parameters, masks, and cached state). The clone shares no
  /// storage with the original; Graph::clone() builds on this.
  [[nodiscard]] virtual std::unique_ptr<Layer> clone() const = 0;

  /// Pure inference: compute the output without writing any backward
  /// cache. Bit-identical to forward(inputs, /*training=*/false) and safe
  /// to call concurrently on a shared layer.
  [[nodiscard]] virtual Tensor infer(
      std::span<const Tensor* const> inputs) const = 0;

  /// Compute the output for a batch. `inputs` are the producing nodes'
  /// outputs in graph order; all our layers produce exactly one output.
  /// With training=true the layer also caches what backward() needs.
  virtual Tensor forward(std::span<const Tensor* const> inputs,
                         bool training) = 0;

  /// Propagate `grad_output` (same shape as the last forward() result):
  /// accumulates parameter gradients and returns one gradient tensor per
  /// input, in the same order as forward()'s `inputs`. With
  /// `need_input_grads` false nobody reads the input gradients (the layer
  /// consumes only the graph input), so a layer may skip them and return
  /// an empty vector; its parameter gradients are the same either way.
  virtual std::vector<Tensor> backward(const Tensor& grad_output,
                                       bool need_input_grads) = 0;

  /// Trainable parameters (empty for stateless layers).
  virtual std::vector<ParamRef> params() { return {}; }

  /// Output shape for one sample given per-sample input shapes (no batch
  /// dimension). Used for model construction checks and engine lowering.
  [[nodiscard]] virtual Shape output_shape(
      std::span<const Shape> input_shapes) const = 0;

  void zero_grads();

 protected:
  /// Memberwise copy for the clone() implementations.
  Layer(const Layer&) = default;

 private:
  std::string name_;
};

}  // namespace iprune::nn
