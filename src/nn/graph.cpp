#include "nn/graph.hpp"

#include <algorithm>
#include <cassert>
#include <stdexcept>

namespace iprune::nn {

Graph::Graph(Shape input_shape) {
  shapes_.push_back(std::move(input_shape));
}

NodeId Graph::add(std::unique_ptr<Layer> layer, std::vector<NodeId> inputs) {
  if (inputs.empty()) {
    throw std::invalid_argument("Graph::add: node needs at least one input");
  }
  std::vector<Shape> in_shapes;
  in_shapes.reserve(inputs.size());
  for (const NodeId id : inputs) {
    if (id >= node_count()) {
      throw std::invalid_argument("Graph::add: unknown input node " +
                                  std::to_string(id));
    }
    in_shapes.push_back(shapes_[id]);
  }
  shapes_.push_back(layer->output_shape(in_shapes));
  layers_.push_back(std::move(layer));
  inputs_.push_back(std::move(inputs));
  output_ = node_count() - 1;
  return output_;
}

void Graph::set_output(NodeId node) {
  if (node >= node_count()) {
    throw std::invalid_argument("Graph::set_output: unknown node");
  }
  output_ = node;
}

const Shape& Graph::node_shape(NodeId node) const {
  assert(node < shapes_.size());
  return shapes_[node];
}

Layer& Graph::layer(NodeId node) {
  assert(node >= 1 && node < node_count());
  return *layers_[node - 1];
}

const Layer& Graph::layer(NodeId node) const {
  assert(node >= 1 && node < node_count());
  return *layers_[node - 1];
}

const std::vector<NodeId>& Graph::node_inputs(NodeId node) const {
  assert(node >= 1 && node < node_count());
  return inputs_[node - 1];
}

std::vector<NodeId> Graph::consumers(NodeId node) const {
  std::vector<NodeId> result;
  for (NodeId n = 1; n < node_count(); ++n) {
    for (const NodeId in : node_inputs(n)) {
      if (in == node) {
        result.push_back(n);
        break;
      }
    }
  }
  return result;
}

Graph Graph::clone() const {
  Graph copy(shapes_[0]);
  copy.shapes_ = shapes_;
  copy.inputs_ = inputs_;
  copy.output_ = output_;
  copy.layers_.reserve(layers_.size());
  for (const auto& l : layers_) {
    copy.layers_.push_back(l->clone());
  }
  return copy;
}

namespace {
void check_batch_shape(const Tensor& batch, const Shape& input_shape) {
  if (batch.rank() != input_shape.size() + 1) {
    throw std::invalid_argument("Graph::forward: batch rank mismatch");
  }
  for (std::size_t axis = 0; axis < input_shape.size(); ++axis) {
    if (batch.dim(axis + 1) != input_shape[axis]) {
      throw std::invalid_argument("Graph::forward: input shape mismatch");
    }
  }
}
}  // namespace

std::vector<Tensor> Graph::infer_nodes(const Tensor& batch) const {
  check_batch_shape(batch, shapes_[0]);
  std::vector<Tensor> activations(node_count());
  activations[0] = batch;
  std::vector<const Tensor*> ins;
  for (NodeId node = 1; node < node_count(); ++node) {
    ins.clear();
    for (const NodeId id : node_inputs(node)) {
      ins.push_back(&activations[id]);
    }
    activations[node] = layers_[node - 1]->infer(ins);
  }
  return activations;
}

Tensor Graph::infer(const Tensor& batch) const {
  std::vector<Tensor> activations = infer_nodes(batch);
  return std::move(activations[output_]);
}

std::vector<Tensor> Graph::forward_nodes(const Tensor& batch, bool training) {
  if (!training) {
    return infer_nodes(batch);
  }
  check_batch_shape(batch, shapes_[0]);
  std::vector<Tensor> activations(node_count());
  activations[0] = batch;
  std::vector<const Tensor*> ins;
  for (NodeId node = 1; node < node_count(); ++node) {
    ins.clear();
    for (const NodeId id : node_inputs(node)) {
      ins.push_back(&activations[id]);
    }
    activations[node] = layers_[node - 1]->forward(ins, true);
  }
  return activations;
}

Tensor Graph::forward(const Tensor& batch, bool training) {
  std::vector<Tensor> activations = forward_nodes(batch, training);
  return std::move(activations[output_]);
}

void Graph::backward(const Tensor& grad_output) {
  // Gradients accumulate per node; traverse in reverse insertion order,
  // which is a reverse topological order by construction.
  std::vector<Tensor> grads(node_count());
  grads[output_] = grad_output;
  for (NodeId node = node_count() - 1; node >= 1; --node) {
    if (grads[node].numel() == 0) {
      continue;  // node not on any path to the output
    }
    const std::vector<NodeId>& ins = node_inputs(node);
    // Nobody reads the graph input's gradient, so a layer fed only by it
    // (conv1 in every paper model) is told to skip computing one.
    const bool need_input_grads = std::any_of(
        ins.begin(), ins.end(), [this](NodeId id) { return id != input(); });
    std::vector<Tensor> input_grads =
        layers_[node - 1]->backward(grads[node], need_input_grads);
    if (!need_input_grads) {
      continue;
    }
    assert(input_grads.size() == ins.size());
    for (std::size_t i = 0; i < ins.size(); ++i) {
      Tensor& slot = grads[ins[i]];
      if (slot.numel() == 0) {
        slot = std::move(input_grads[i]);
      } else {
        slot.add_scaled(input_grads[i], 1.0f);
      }
    }
  }
}

std::vector<ParamRef> Graph::params() {
  std::vector<ParamRef> all;
  for (const auto& l : layers_) {
    for (const ParamRef& p : l->params()) {
      all.push_back(p);
    }
  }
  return all;
}

void Graph::zero_grads() {
  for (const auto& l : layers_) {
    l->zero_grads();
  }
}

std::size_t Graph::parameter_count() {
  std::size_t total = 0;
  for (const ParamRef& p : params()) {
    total += p.value->numel();
  }
  return total;
}

std::size_t Graph::nonzero_parameter_count() {
  std::size_t total = 0;
  for (const ParamRef& p : params()) {
    if (p.mask != nullptr) {
      total += p.mask->count_nonzero();
    } else {
      total += p.value->numel();
    }
  }
  return total;
}

}  // namespace iprune::nn
