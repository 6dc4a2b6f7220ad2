// Exhaustive crash-boundary sweep (the tentpole's core guarantee): on a
// small two-conv model, force a power failure at *every* preserved-output
// write boundary in kImmediate mode and check each interrupted run against
// the continuous-power golden logits.

#include <gtest/gtest.h>

#include "fault/checker.hpp"
#include "fault/testbed.hpp"

namespace iprune::fault {
namespace {

using engine::PreservationMode;

TEST(BoundaryExhaustive, EveryWriteBoundaryFailureRecoversBitIdentical) {
  util::Rng rng(11);
  const nn::Graph graph = make_tiny_graph(rng);
  const nn::Tensor calib = make_batch(rng, graph, 8);
  const nn::Tensor sample = slice_sample(calib, 0);
  Checker checker(graph, calib);

  const std::vector<OutageSchedule> schedules =
      checker.exhaustive_write_schedules(sample,
                                         PreservationMode::kImmediate);
  ASSERT_GT(schedules.size(), 50u)
      << "tiny model should expose a substantive write-boundary domain";

  const CheckReport report = checker.check_schedules(
      sample, schedules, PreservationMode::kImmediate);
  ASSERT_EQ(report.outcomes.size(), schedules.size());
  if (const ScheduleOutcome* fail = report.first_failure()) {
    FAIL() << "first divergent schedule: "
           << checker.shrink(sample, *fail).to_string();
  }

  for (const ScheduleOutcome& outcome : report.outcomes) {
    // passed implies bit-identical logits; additionally pin the HAWAII
    // bound — at most the single interrupted job is re-executed — and
    // that the sweep actually interrupted every run exactly once.
    EXPECT_TRUE(outcome.completed) << outcome.to_string();
    EXPECT_EQ(outcome.injected_outages, 1u) << outcome.to_string();
    EXPECT_GE(outcome.power_failures, 1u) << outcome.to_string();
    EXPECT_LE(outcome.reexecuted_jobs, outcome.power_failures)
        << outcome.to_string();
    EXPECT_EQ(outcome.first_divergence, -1) << outcome.to_string();
  }
}

TEST(BoundaryExhaustive, TaskModeSweepRespectsTaskBound) {
  util::Rng rng(11);
  const nn::Graph graph = make_tiny_graph(rng);
  const nn::Tensor calib = make_batch(rng, graph, 8);
  const nn::Tensor sample = slice_sample(calib, 0);
  Checker checker(graph, calib);

  const std::vector<OutageSchedule> schedules =
      checker.exhaustive_write_schedules(sample,
                                         PreservationMode::kTaskAtomic);
  ASSERT_FALSE(schedules.empty());
  const CheckReport report = checker.check_schedules(
      sample, schedules, PreservationMode::kTaskAtomic);
  if (const ScheduleOutcome* fail = report.first_failure()) {
    FAIL() << "first divergent schedule: "
           << checker.shrink(sample, *fail).to_string();
  }
  for (const ScheduleOutcome& outcome : report.outcomes) {
    EXPECT_LE(outcome.reexecuted_jobs,
              outcome.power_failures * checker.max_task_jobs())
        << outcome.to_string();
  }
}

}  // namespace
}  // namespace iprune::fault
