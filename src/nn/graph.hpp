#pragma once
// DAG model container: nodes are layers wired by node ids, executed in
// insertion order (which must be topological — builders add producers before
// consumers, which the ctor-time shape check enforces).

#include <memory>
#include <string>
#include <vector>

#include "nn/layer.hpp"

namespace iprune::nn {

using NodeId = std::size_t;

class Graph {
 public:
  /// A graph has one input of the given per-sample shape (e.g. [3,32,32]).
  explicit Graph(Shape input_shape);

  Graph(const Graph&) = delete;
  Graph& operator=(const Graph&) = delete;
  Graph(Graph&&) = default;
  Graph& operator=(Graph&&) = default;

  /// Deep copy: every layer (weights, masks, specs) is duplicated, so the
  /// clone can be pruned, trained, or evaluated independently of the
  /// original. Used by the parallel search paths to give each worker its
  /// own mutable model.
  [[nodiscard]] Graph clone() const;

  /// Node id of the graph input.
  [[nodiscard]] NodeId input() const { return 0; }

  /// Append a layer consuming the given nodes; returns the new node's id.
  /// Throws if any input id is unknown or shapes are inconsistent.
  NodeId add(std::unique_ptr<Layer> layer, std::vector<NodeId> inputs);

  /// The graph output defaults to the last added node; override if needed.
  void set_output(NodeId node);
  [[nodiscard]] NodeId output() const { return output_; }

  /// Forward a batch (leading dim = N). Returns the output node's tensor.
  /// With training=false this delegates to the const infer() path.
  Tensor forward(const Tensor& batch, bool training = false);

  /// Forward a batch and return every node's activation (index = node id;
  /// entry 0 is the input itself). Used for quantization calibration.
  /// With training=false this delegates to the const infer_nodes() path.
  std::vector<Tensor> forward_nodes(const Tensor& batch,
                                    bool training = false);

  /// Inference-only forward: touches no layer caches, so concurrent calls
  /// on the same graph are safe as long as nothing mutates it.
  [[nodiscard]] Tensor infer(const Tensor& batch) const;

  /// Inference-only forward returning every node's activation.
  [[nodiscard]] std::vector<Tensor> infer_nodes(const Tensor& batch) const;

  /// Backward from a gradient of the output (after a forward(training=true)):
  /// accumulates every parameter gradient. Nothing reads the graph input's
  /// own gradient, so layers fed only by it are told to skip theirs.
  void backward(const Tensor& grad_output);

  /// All trainable parameters, in node order.
  [[nodiscard]] std::vector<ParamRef> params();

  void zero_grads();

  /// Per-sample output shape of a node (no batch dim).
  [[nodiscard]] const Shape& node_shape(NodeId node) const;
  [[nodiscard]] const Shape& input_shape() const { return shapes_[0]; }

  [[nodiscard]] std::size_t node_count() const { return layers_.size() + 1; }
  /// Layer of a non-input node (node >= 1).
  [[nodiscard]] Layer& layer(NodeId node);
  [[nodiscard]] const Layer& layer(NodeId node) const;
  [[nodiscard]] const std::vector<NodeId>& node_inputs(NodeId node) const;

  /// Ids of the nodes consuming `node` (computed on demand).
  [[nodiscard]] std::vector<NodeId> consumers(NodeId node) const;

  /// Total trainable parameter count (weights + biases).
  [[nodiscard]] std::size_t parameter_count();
  /// Parameters surviving the current masks (pruned weights excluded).
  [[nodiscard]] std::size_t nonzero_parameter_count();

 private:
  std::vector<std::unique_ptr<Layer>> layers_;   // node i+1 -> layers_[i]
  std::vector<std::vector<NodeId>> inputs_;      // parallel to layers_
  std::vector<Shape> shapes_;                    // per node incl. input
  NodeId output_ = 0;
};

}  // namespace iprune::nn
