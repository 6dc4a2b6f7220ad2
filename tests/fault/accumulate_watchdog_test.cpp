// Regression guard for the kAccumulateInVm nontermination path: a forced
// outage denser than one inference must make the engine give up after
// exactly max_restarts restarts with stats.completed == false — never loop
// forever. The injector's event budget acts as the job-count watchdog: if
// the engine ever regressed into an unbounded retry loop, the budget
// throws instead of hanging the test.

#include <gtest/gtest.h>

#include <memory>

#include "engine/engine.hpp"
#include "fault/checker.hpp"
#include "fault/injector.hpp"
#include "fault/testbed.hpp"
#include "power/supply.hpp"

namespace iprune::fault {
namespace {

using engine::PreservationMode;

TEST(AccumulateWatchdog, DenseScheduleStopsAfterExactlyMaxRestarts) {
  util::Rng rng(23);
  nn::Graph graph = make_tiny_graph(rng);
  const nn::Tensor calib = make_batch(rng, graph, 8);
  const nn::Tensor sample = slice_sample(calib, 0);

  // Find how many chargeable events one clean accumulate-mode inference
  // needs, then inject an outage every half-inference: no attempt can
  // ever finish.
  Checker counter(graph, calib);
  const std::uint64_t clean_events =
      counter.count_events(sample, PreservationMode::kAccumulateInVm);
  ASSERT_GT(clean_events, 4u);
  const OutageSchedule dense = OutageSchedule::every_nth(clean_events / 2);

  engine::EngineConfig config;
  config.mode = PreservationMode::kAccumulateInVm;
  device::Msp430Device device(
      device::DeviceConfig::msp430fr5994(),
      std::make_unique<power::ConstantSupply>(
          power::SupplyPresets::kContinuousW));
  engine::DeployedModel model(graph, config, device, calib);

  FaultInjector injector(dense);
  // Watchdog: (max_restarts + 2) interrupted attempts' worth of events,
  // with reboot overhead margin. Exceeding it means unbounded retrying.
  const std::uint64_t budget = (clean_events + 16) * 12;
  injector.set_event_budget(budget);
  device.set_fault_hook(&injector);

  engine::IntermittentEngine eng(model, device);
  eng.max_restarts = 6;

  const engine::InferenceResult result = eng.run(sample);
  EXPECT_FALSE(result.stats.completed);
  EXPECT_EQ(result.stats.restarts, 6u)
      << "nontermination must be reported after exactly max_restarts";
  EXPECT_GE(result.stats.power_failures, 7u);  // initial attempt + restarts
  EXPECT_LT(injector.total_events(), budget);
}

TEST(AccumulateWatchdog, CheckerReportsNonterminationAsFailure) {
  util::Rng rng(23);
  const nn::Graph graph = make_tiny_graph(rng);
  const nn::Tensor calib = make_batch(rng, graph, 8);
  const nn::Tensor sample = slice_sample(calib, 0);

  CheckerConfig config;
  config.max_restarts = 4;
  Checker checker(graph, calib, config);
  const std::uint64_t clean_events =
      checker.count_events(sample, PreservationMode::kAccumulateInVm);

  const ScheduleOutcome outcome =
      checker.check(sample, OutageSchedule::every_nth(clean_events / 2),
                    PreservationMode::kAccumulateInVm);
  EXPECT_FALSE(outcome.passed);
  EXPECT_FALSE(outcome.completed);
  EXPECT_NE(outcome.failure.find("did not complete"), std::string::npos)
      << outcome.to_string();
}

}  // namespace
}  // namespace iprune::fault
