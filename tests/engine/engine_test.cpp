// End-to-end engine correctness: the intermittent engine must produce the
// same results as the float graph (up to quantization), and — the key
// intermittent-computing invariant — identical results with and without
// power failures.

#include <gtest/gtest.h>

#include <memory>

#include "data/synthetic.hpp"
#include "engine/engine.hpp"
#include "nn/activation.hpp"
#include "nn/concat.hpp"
#include "nn/conv2d.hpp"
#include "nn/dense.hpp"
#include "nn/pool.hpp"
#include "nn/trainer.hpp"
#include "power/supply.hpp"

namespace iprune {
namespace {

using engine::EngineConfig;
using engine::PreservationMode;

/// Small multi-path model covering every lowered node kind: conv, pool,
/// fire-style concat, dense, folded and standalone ReLU, flatten.
nn::Graph make_test_graph(util::Rng& rng) {
  nn::Graph g({2, 8, 8});
  auto conv1 = g.add(std::make_unique<nn::Conv2d>(
                         "conv1",
                         nn::Conv2dSpec{.in_channels = 2, .out_channels = 6,
                                        .kernel_h = 3, .kernel_w = 3,
                                        .pad_h = 1, .pad_w = 1},
                         rng),
                     {g.input()});
  auto relu1 = g.add(std::make_unique<nn::Relu>("relu1"), {conv1});
  auto pool = g.add(std::make_unique<nn::MaxPool2d>("pool",
                                                    nn::PoolSpec{2, 2, 2}),
                    {relu1});
  auto b1 = g.add(std::make_unique<nn::Conv2d>(
                      "branch1x1",
                      nn::Conv2dSpec{.in_channels = 6, .out_channels = 4,
                                     .kernel_h = 1, .kernel_w = 1},
                      rng),
                  {pool});
  auto b1r = g.add(std::make_unique<nn::Relu>("branch1x1_relu"), {b1});
  auto b3 = g.add(std::make_unique<nn::Conv2d>(
                      "branch3x3",
                      nn::Conv2dSpec{.in_channels = 6, .out_channels = 4,
                                     .kernel_h = 3, .kernel_w = 3,
                                     .pad_h = 1, .pad_w = 1},
                      rng),
                  {pool});
  auto b3r = g.add(std::make_unique<nn::Relu>("branch3x3_relu"), {b3});
  auto cat = g.add(std::make_unique<nn::Concat>("concat"), {b1r, b3r});
  auto avg = g.add(std::make_unique<nn::AvgPool2d>("avg",
                                                   nn::PoolSpec{2, 2, 2}),
                   {cat});
  auto flat = g.add(std::make_unique<nn::Flatten>("flatten"), {avg});
  auto fc = g.add(std::make_unique<nn::Dense>("fc", 8 * 2 * 2, 5, rng),
                  {flat});
  g.set_output(fc);
  return g;
}

nn::Tensor make_input_batch(util::Rng& rng, std::size_t count) {
  nn::Tensor batch({count, 2, 8, 8});
  for (std::size_t i = 0; i < batch.numel(); ++i) {
    batch[i] = static_cast<float>(rng.normal(0.0, 0.5));
  }
  return batch;
}

nn::Tensor slice_sample(const nn::Tensor& batch, std::size_t index) {
  nn::Shape shape = batch.shape();
  shape.erase(shape.begin());
  nn::Tensor sample(shape);
  const std::size_t elems = sample.numel();
  for (std::size_t i = 0; i < elems; ++i) {
    sample[i] = batch[index * elems + i];
  }
  return sample;
}

device::Msp430Device make_device(double power_w,
                                 power::BufferConfig buffer = {}) {
  return device::Msp430Device(
      device::DeviceConfig::msp430fr5994(),
      std::make_unique<power::ConstantSupply>(power_w), buffer);
}

class EngineCorrectness : public ::testing::Test {
 protected:
  void SetUp() override {
    rng_ = std::make_unique<util::Rng>(99);
    graph_ = std::make_unique<nn::Graph>(make_test_graph(*rng_));
    calib_ = make_input_batch(*rng_, 16);
  }

  std::unique_ptr<util::Rng> rng_;
  std::unique_ptr<nn::Graph> graph_;
  nn::Tensor calib_;
};

TEST_F(EngineCorrectness, MatchesFloatGraphUnderContinuousPower) {
  auto device = make_device(power::SupplyPresets::kContinuousW);
  EngineConfig config;
  engine::DeployedModel model(*graph_, config, device, calib_);
  engine::IntermittentEngine eng(model, device);

  const nn::Tensor batch = make_input_batch(*rng_, 4);
  const nn::Tensor float_logits = graph_->forward(batch);
  for (std::size_t n = 0; n < 4; ++n) {
    const auto result = eng.run(slice_sample(batch, n));
    ASSERT_TRUE(result.stats.completed);
    ASSERT_EQ(result.logits.size(), 5u);
    // Same argmax and close values (quantization-limited).
    std::size_t engine_best = 0, float_best = 0;
    for (std::size_t c = 1; c < 5; ++c) {
      if (result.logits[c] > result.logits[engine_best]) {
        engine_best = c;
      }
      if (float_logits.at(n, c) > float_logits.at(n, float_best)) {
        float_best = c;
      }
    }
    EXPECT_EQ(engine_best, float_best) << "sample " << n;
    for (std::size_t c = 0; c < 5; ++c) {
      EXPECT_NEAR(result.logits[c], float_logits.at(n, c), 0.08)
          << "sample " << n << " class " << c;
    }
  }
}

TEST_F(EngineCorrectness, IntermittentResultsIdenticalToContinuous) {
  // The defining invariant of intermittent inference: power failures must
  // not change the computed result, only the latency.
  EngineConfig config;

  auto continuous = make_device(power::SupplyPresets::kContinuousW);
  engine::DeployedModel model_c(*graph_, config, continuous, calib_);
  engine::IntermittentEngine eng_c(model_c, continuous);

  auto weak = make_device(power::SupplyPresets::kWeakW);
  engine::DeployedModel model_w(*graph_, config, weak, calib_);
  engine::IntermittentEngine eng_w(model_w, weak);

  const nn::Tensor batch = make_input_batch(*rng_, 3);
  for (std::size_t n = 0; n < 3; ++n) {
    const auto sample = slice_sample(batch, n);
    const auto r_cont = eng_c.run(sample);
    const auto r_weak = eng_w.run(sample);
    ASSERT_TRUE(r_cont.stats.completed);
    ASSERT_TRUE(r_weak.stats.completed);
    EXPECT_GT(r_weak.stats.power_failures, 0u)
        << "weak power should cause failures";
    ASSERT_EQ(r_cont.logits.size(), r_weak.logits.size());
    for (std::size_t c = 0; c < r_cont.logits.size(); ++c) {
      EXPECT_FLOAT_EQ(r_cont.logits[c], r_weak.logits[c])
          << "sample " << n << " class " << c;
    }
    EXPECT_GT(r_weak.stats.latency_s, r_cont.stats.latency_s);
    EXPECT_GT(r_weak.stats.off_s, 0.0);
  }
}

TEST_F(EngineCorrectness, AccOutputStatsMatchAnalyticCriterion) {
  auto device = make_device(power::SupplyPresets::kContinuousW);
  EngineConfig config;
  engine::DeployedModel model(*graph_, config, device, calib_);
  engine::IntermittentEngine eng(model, device);

  const auto result = eng.run(slice_sample(calib_, 0));
  EXPECT_EQ(result.stats.acc_outputs, model.total_acc_outputs())
      << "engine-measured accelerator outputs must equal the analytic "
         "criterion (single source of truth)";
}

TEST_F(EngineCorrectness, PrunedBlocksAreSkippedAndReduceWork) {
  // Zero out a block-aligned region of branch3x3's mask and check both
  // results-consistency and that accelerator outputs shrink.
  auto& conv = dynamic_cast<nn::Conv2d&>(graph_->layer(6));
  ASSERT_EQ(conv.name(), "branch3x3");

  EngineConfig config;
  auto device_full = make_device(power::SupplyPresets::kContinuousW);
  engine::DeployedModel full(*graph_, config, device_full, calib_);
  const std::size_t outputs_full = full.total_acc_outputs();

  // Prune the second k-block of every row.
  const auto plans = engine::prunable_layers(
      *graph_, config, device_full.config().memory);
  const engine::TilePlan* plan = nullptr;
  for (const auto& p : plans) {
    if (p.name == "branch3x3") {
      plan = &p.plan;
    }
  }
  ASSERT_NE(plan, nullptr);
  ASSERT_GE(plan->k_tiles(), 2u);
  for (std::size_t r = 0; r < conv.weight().dim(0); ++r) {
    for (std::size_t kk = plan->bk; kk < 2 * plan->bk; ++kk) {
      conv.weight_mask().at(r, kk) = 0.0f;
    }
  }
  conv.apply_mask();

  auto device_pruned = make_device(power::SupplyPresets::kContinuousW);
  engine::DeployedModel pruned(*graph_, config, device_pruned, calib_);
  EXPECT_LT(pruned.total_acc_outputs(), outputs_full);
  EXPECT_LT(pruned.model_bytes(), full.model_bytes());

  // Engine output still matches the (masked) float graph.
  engine::IntermittentEngine eng(pruned, device_pruned);
  const nn::Tensor batch = make_input_batch(*rng_, 2);
  const nn::Tensor float_logits = graph_->forward(batch);
  const auto result = eng.run(slice_sample(batch, 0));
  ASSERT_TRUE(result.stats.completed);
  for (std::size_t c = 0; c < 5; ++c) {
    EXPECT_NEAR(result.logits[c], float_logits.at(0, c), 0.08);
  }
  EXPECT_EQ(result.stats.acc_outputs, pruned.total_acc_outputs());
}

TEST_F(EngineCorrectness, AccumulateModeMatchesImmediateMode) {
  EngineConfig immediate;
  immediate.mode = PreservationMode::kImmediate;
  EngineConfig accumulate;
  accumulate.mode = PreservationMode::kAccumulateInVm;

  auto dev_imm = make_device(power::SupplyPresets::kContinuousW);
  engine::DeployedModel model_imm(*graph_, immediate, dev_imm, calib_);
  engine::IntermittentEngine eng_imm(model_imm, dev_imm);

  auto dev_acc = make_device(power::SupplyPresets::kContinuousW);
  engine::DeployedModel model_acc(*graph_, accumulate, dev_acc, calib_);
  engine::IntermittentEngine eng_acc(model_acc, dev_acc);

  const auto sample = slice_sample(calib_, 1);
  const auto r_imm = eng_imm.run(sample);
  const auto r_acc = eng_acc.run(sample);
  ASSERT_TRUE(r_imm.stats.completed);
  ASSERT_TRUE(r_acc.stats.completed);
  for (std::size_t c = 0; c < r_imm.logits.size(); ++c) {
    EXPECT_FLOAT_EQ(r_imm.logits[c], r_acc.logits[c]);
  }
  // The motivating observation (Fig. 2): immediate preservation writes far
  // more NVM bytes and its exposed latency is write-dominated.
  EXPECT_GT(r_imm.stats.nvm_bytes_written, 5 * r_acc.stats.nvm_bytes_written);
  EXPECT_GT(r_imm.stats.nvm_write_s, r_imm.stats.lea_s);
  EXPECT_LT(r_acc.stats.nvm_write_s, r_acc.stats.nvm_read_s + r_acc.stats.lea_s);
}

TEST_F(EngineCorrectness, AccumulateModeCannotTerminateUnderWeakPower) {
  // The paper's motivation for progress preservation: accumulating in VM
  // restarts from scratch on every power failure and never finishes.
  EngineConfig accumulate;
  accumulate.mode = PreservationMode::kAccumulateInVm;

  // This test graph is tiny, so first measure the energy of one inference
  // and size the capacitor such that a whole inference cannot fit in one
  // power cycle (as real models cannot) while individual operations and
  // the reboot still can.
  double full_energy_j = 0.0;
  {
    auto probe_dev = make_device(power::SupplyPresets::kContinuousW);
    engine::DeployedModel probe_model(*graph_, accumulate, probe_dev, calib_);
    engine::IntermittentEngine probe_eng(probe_model, probe_dev);
    full_energy_j = probe_eng.run(slice_sample(calib_, 0)).stats.energy_j;
  }
  power::BufferConfig small_buffer;
  const double usable_target = full_energy_j * 0.5;
  small_buffer.capacitance_f =
      usable_target /
      (0.5 * (small_buffer.v_on * small_buffer.v_on -
              small_buffer.v_off * small_buffer.v_off));
  ASSERT_GT(usable_target, 10e-6)
      << "test graph too small to exercise nontermination";
  auto device = make_device(power::SupplyPresets::kWeakW, small_buffer);
  engine::DeployedModel model(*graph_, accumulate, device, calib_);
  engine::IntermittentEngine eng(model, device);
  eng.max_restarts = 8;

  const auto result = eng.run(slice_sample(calib_, 0));
  EXPECT_FALSE(result.stats.completed);
  EXPECT_GE(result.stats.restarts, 8u);
}

TEST_F(EngineCorrectness, TaskAtomicModeMatchesImmediateResults) {
  // SONIC/TAILS-style task preservation must compute identical results to
  // HAWAII-style per-job preservation, under both continuous and weak
  // power, while writing fewer progress-indicator bytes.
  EngineConfig immediate;
  immediate.mode = PreservationMode::kImmediate;
  EngineConfig task;
  task.mode = PreservationMode::kTaskAtomic;

  const auto sample = slice_sample(calib_, 2);

  auto run_mode = [&](const EngineConfig& cfg, double power_w) {
    auto dev = make_device(power_w);
    engine::DeployedModel model(*graph_, cfg, dev, calib_);
    engine::IntermittentEngine eng(model, dev);
    return eng.run(sample);
  };

  const auto imm_cont = run_mode(immediate,
                                 power::SupplyPresets::kContinuousW);
  const auto task_cont = run_mode(task, power::SupplyPresets::kContinuousW);
  // Task mode preserves so much less that this tiny graph finishes within
  // one standard buffer charge; shrink the capacitor so failures occur.
  power::BufferConfig small_buffer;
  small_buffer.capacitance_f = 22e-6;
  const auto task_weak = [&] {
    auto dev = make_device(power::SupplyPresets::kWeakW, small_buffer);
    engine::DeployedModel model(*graph_, task, dev, calib_);
    engine::IntermittentEngine eng(model, dev);
    return eng.run(sample);
  }();

  ASSERT_TRUE(task_cont.stats.completed);
  ASSERT_TRUE(task_weak.stats.completed);
  for (std::size_t c = 0; c < imm_cont.logits.size(); ++c) {
    EXPECT_FLOAT_EQ(task_cont.logits[c], imm_cont.logits[c]) << c;
    EXPECT_FLOAT_EQ(task_weak.logits[c], imm_cont.logits[c]) << c;
  }
  // Same accelerator outputs, fewer indicator writes -> fewer NVM bytes.
  EXPECT_EQ(task_cont.stats.acc_outputs, imm_cont.stats.acc_outputs);
  EXPECT_LT(task_cont.stats.nvm_bytes_written,
            imm_cont.stats.nvm_bytes_written);
  // Under weak power the inference duty-cycles yet still completes.
  // (Whether any failure lands mid-task — and thus re-executes jobs —
  // depends on where the buffer empties; bench_ablation_preservation
  // shows the re-execution cost at workload scale.)
  EXPECT_GT(task_weak.stats.power_failures, 0u);
}

TEST_F(EngineCorrectness, ImmediateModeLosesAtMostOneJobPerFailure) {
  EngineConfig config;
  auto dev = make_device(power::SupplyPresets::kWeakW);
  engine::DeployedModel model(*graph_, config, dev, calib_);
  engine::IntermittentEngine eng(model, dev);
  const auto result = eng.run(slice_sample(calib_, 0));
  ASSERT_TRUE(result.stats.completed);
  ASSERT_GT(result.stats.power_failures, 0u);
  EXPECT_LE(result.stats.reexecuted_jobs, result.stats.power_failures)
      << "HAWAII-style preservation re-executes at most the single "
         "interrupted job per power failure";
}

TEST_F(EngineCorrectness, PerNodeLatencyCoversTotal) {
  auto device = make_device(power::SupplyPresets::kContinuousW);
  EngineConfig config;
  engine::DeployedModel model(*graph_, config, device, calib_);
  engine::IntermittentEngine eng(model, device);
  const auto result = eng.run(slice_sample(calib_, 0));
  ASSERT_FALSE(result.per_node.empty());
  double total = 0.0;
  for (const auto& node : result.per_node) {
    EXPECT_GT(node.latency_s, 0.0) << node.name;
    total += node.latency_s;
  }
  // Per-node time plus the input load accounts for the whole inference.
  EXPECT_LE(total, result.stats.latency_s + 1e-12);
  EXPECT_GT(total, result.stats.latency_s * 0.9);
  // Alias nodes (folded relu, flatten) are not listed.
  for (const auto& node : result.per_node) {
    EXPECT_EQ(node.name.find("flatten"), std::string::npos);
  }
}

TEST_F(EngineCorrectness, ModelFitsNvmBudget) {
  auto device = make_device(power::SupplyPresets::kContinuousW);
  EngineConfig config;
  engine::DeployedModel model(*graph_, config, device, calib_);
  EXPECT_LE(device.nvm().allocated(), device.nvm().capacity());
  EXPECT_GT(model.model_bytes(), 0u);
}

/// One cohort member: its own weights (graph seed), device and deployment.
struct Member {
  explicit Member(std::uint64_t seed, const EngineConfig& config,
                  double power_w)
      : rng(seed),
        graph(make_test_graph(rng)),
        device(make_device(power_w)),
        backend(device),
        model(graph, config, device, make_input_batch(rng, 8)) {}

  util::Rng rng;
  nn::Graph graph;
  device::Msp430Device device;
  engine::CycleBackend backend;
  engine::DeployedModel model;
};

// A cohort runs through the one engine: under brown-outs and in every
// preservation mode, each member's logits and the shared timeline equal
// that member's standalone run.
TEST(EngineCohort, MembersMatchTheirStandaloneRuns) {
  for (const PreservationMode mode :
       {PreservationMode::kImmediate, PreservationMode::kTaskAtomic,
        PreservationMode::kAccumulateInVm}) {
    SCOPED_TRACE(static_cast<int>(mode));
    EngineConfig config;
    config.mode = mode;
    const double power_w = mode == PreservationMode::kAccumulateInVm
                               ? power::SupplyPresets::kContinuousW
                               : 1.0e-3;
    std::vector<std::unique_ptr<Member>> cohort;
    std::vector<std::unique_ptr<Member>> alone;
    std::vector<engine::CohortMember> members;
    for (std::uint64_t seed = 1; seed <= 3; ++seed) {
      cohort.push_back(std::make_unique<Member>(seed, config, power_w));
      alone.push_back(std::make_unique<Member>(seed, config, power_w));
      members.push_back({&cohort.back()->model, &cohort.back()->backend});
    }
    engine::IntermittentEngine engine(members);

    util::Rng sample_rng(7);
    const nn::Tensor batch = make_input_batch(sample_rng, 3);
    std::vector<std::vector<std::int16_t>> quantized;
    for (std::size_t m = 0; m < 3; ++m) {
      const nn::Tensor sample = slice_sample(batch, m);
      quantized.push_back(engine::IntermittentEngine::quantize_input(
          {sample.data(), sample.numel()},
          cohort[m]->model.input_scale()));
    }
    const std::vector<std::span<const std::int16_t>> inputs(
        quantized.begin(), quantized.end());
    const std::vector<engine::InferenceResult> results =
        engine.run_quantized(inputs);
    ASSERT_EQ(results.size(), 3u);
    for (std::size_t m = 0; m < 3; ++m) {
      engine::IntermittentEngine standalone(alone[m]->model,
                                            alone[m]->device);
      const engine::InferenceResult expected =
          standalone.run(slice_sample(batch, m));
      ASSERT_TRUE(expected.stats.completed);
      EXPECT_EQ(results[m].logits, expected.logits) << "member " << m;
      EXPECT_EQ(results[m].stats.latency_s, expected.stats.latency_s);
      EXPECT_EQ(results[m].stats.energy_j, expected.stats.energy_j);
      EXPECT_EQ(results[m].stats.power_failures,
                expected.stats.power_failures);
      EXPECT_EQ(results[m].stats.reexecuted_jobs,
                expected.stats.reexecuted_jobs);
    }
    if (mode != PreservationMode::kAccumulateInVm) {
      EXPECT_GT(results[0].stats.power_failures, 0u);
    }
    EXPECT_NE(results[0].logits, results[1].logits);
    // Followers write straight into their own backing stores: after the
    // run, every member's NVM image equals its standalone twin's.
    for (std::size_t m = 0; m < 3; ++m) {
      const device::Nvm& got = cohort[m]->device.nvm();
      const device::Nvm& want = alone[m]->device.nvm();
      ASSERT_EQ(got.allocated(), want.allocated()) << "member " << m;
      std::vector<std::uint8_t> got_image(got.allocated());
      std::vector<std::uint8_t> want_image(want.allocated());
      got.read(0, got_image);
      want.read(0, want_image);
      EXPECT_EQ(got_image, want_image) << "member " << m;
    }
    // A cohort runs only through run_quantized.
    EXPECT_THROW((void)engine.run(slice_sample(batch, 0)),
                 std::invalid_argument);
  }
}

// The lockstep envelope binds only cohorts of two or more: one traced
// member is a standalone engine, two are rejected.
TEST(EngineCohort, EnvelopeAppliesFromTwoMembers) {
  EngineConfig config;
  Member a(1, config, power::SupplyPresets::kContinuousW);
  Member b(2, config, power::SupplyPresets::kContinuousW);
  telemetry::RegistrySink sink;
  a.device.set_trace_sink(&sink);
  const engine::CohortMember one[] = {{&a.model, &a.backend}};
  EXPECT_NO_THROW(engine::IntermittentEngine{one});
  const engine::CohortMember two[] = {{&a.model, &a.backend},
                                      {&b.model, &b.backend}};
  EXPECT_THROW(engine::IntermittentEngine{two}, std::invalid_argument);
  a.device.set_trace_sink(nullptr);
  EXPECT_NO_THROW(engine::IntermittentEngine{two});
  EXPECT_THROW(engine::IntermittentEngine{
                   std::span<const engine::CohortMember>{}},
               std::invalid_argument);
}

}  // namespace
}  // namespace iprune
