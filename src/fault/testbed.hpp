#pragma once
// Small deterministic models for the fault-injection harness.
//
// The consistency checker replays full inferences hundreds of times
// (exhaustive write-boundary sweeps, property-test schedule batches), so
// the models here are deliberately tiny while still exercising every
// lowered node kind the engine has. Both the tests and the fault_check
// CLI build their workloads from this one place so a repro printed by one
// is replayable by the other.

#include <cstddef>

#include "nn/graph.hpp"
#include "util/rng.hpp"

namespace iprune::fault {

/// Calibration batch size of every testbed deployment (fault_check, the
/// scenario checks and fleet devices). It is part of each one's RNG draw
/// order: changing it moves every digest.
inline constexpr std::size_t kCalibrationSamples = 8;

/// Two stacked convolutions + classifier head: input {1,5,5} -> conv(3x3,
/// pad 1) -> relu (folded) -> conv(3x3) -> flatten -> dense(4). Roughly a
/// hundred preserved outputs per inference — small enough to fail at every
/// single write boundary in an exhaustive sweep.
nn::Graph make_tiny_graph(util::Rng& rng);

/// Multi-path model covering every lowered node kind (conv, pool, concat
/// copy, standalone relu, flatten alias, dense), sized for property-test
/// batches of hundreds of replays.
nn::Graph make_multipath_graph(util::Rng& rng);

/// Normal(0, 0.5) input batch shaped for `graph`'s input.
nn::Tensor make_batch(util::Rng& rng, const nn::Graph& graph,
                      std::size_t count);

/// Per-sample slice (drops the batch dimension) of a make_batch() tensor.
nn::Tensor slice_sample(const nn::Tensor& batch, std::size_t index);

}  // namespace iprune::fault
