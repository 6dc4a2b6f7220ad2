// Property test: hundreds of seeded-random outage schedules, replayed in
// both intermittent-safe preservation modes through the parallel checker,
// must always terminate and always reproduce the golden logits. The batch
// runs over runtime::parallel_map, whose index-ordered gather makes the
// report identical for any lane count; a failure is shrunk to a minimal
// fixed-ordinal schedule before being reported.

#include <gtest/gtest.h>

#include "fault/checker.hpp"
#include "fault/testbed.hpp"
#include "runtime/thread_pool.hpp"

namespace iprune::fault {
namespace {

using engine::PreservationMode;

constexpr std::size_t kSchedulesPerMode = 200;

class ScheduleProperty : public ::testing::TestWithParam<PreservationMode> {
 protected:
  void SetUp() override {
    util::Rng rng(31);
    graph_ = std::make_unique<nn::Graph>(make_multipath_graph(rng));
    calib_ = make_batch(rng, *graph_, 8);
    sample_ = slice_sample(calib_, 1);
    checker_ = std::make_unique<Checker>(*graph_, calib_);
  }

  static std::vector<OutageSchedule> make_schedules() {
    std::vector<OutageSchedule> schedules;
    schedules.reserve(kSchedulesPerMode);
    for (std::size_t i = 0; i < kSchedulesPerMode; ++i) {
      // Sweep outage densities from "almost never" to "every few jobs";
      // the cap keeps the densest schedules from starving an inference
      // forever (that regime is covered by the watchdog test).
      const double p = 0.001 + 0.06 * static_cast<double>(i % 10) / 9.0;
      schedules.push_back(OutageSchedule::random(1000 + i, p, 48));
    }
    return schedules;
  }

  std::unique_ptr<nn::Graph> graph_;
  nn::Tensor calib_;
  nn::Tensor sample_;
  std::unique_ptr<Checker> checker_;
};

TEST_P(ScheduleProperty, RandomSchedulesAlwaysTerminateAndMatchGolden) {
  const std::vector<OutageSchedule> schedules = make_schedules();
  const CheckReport report =
      checker_->check_schedules(sample_, schedules, GetParam());

  ASSERT_EQ(report.outcomes.size(), kSchedulesPerMode);
  if (const ScheduleOutcome* fail = report.first_failure()) {
    const ScheduleOutcome minimized = checker_->shrink(sample_, *fail);
    FAIL() << report.failed() << " schedules diverged; minimized repro: "
           << minimized.to_string();
  }

  std::uint64_t total_outages = 0;
  for (const ScheduleOutcome& outcome : report.outcomes) {
    EXPECT_TRUE(outcome.completed) << outcome.to_string();
    total_outages += outcome.injected_outages;
  }
  EXPECT_GT(total_outages, kSchedulesPerMode / 2)
      << "the schedule pool should actually exercise outage paths";
}

TEST_P(ScheduleProperty, ReportIsDeterministicAcrossLaneCounts) {
  // Identical fold for 1 lane and the shared pool: the parallel gather
  // must not reorder or perturb outcomes.
  std::vector<OutageSchedule> schedules = make_schedules();
  schedules.resize(24);
  runtime::ThreadPool serial(1);
  const CheckReport a =
      checker_->check_schedules(sample_, schedules, GetParam(), &serial);
  const CheckReport b =
      checker_->check_schedules(sample_, schedules, GetParam());
  ASSERT_EQ(a.outcomes.size(), b.outcomes.size());
  for (std::size_t i = 0; i < a.outcomes.size(); ++i) {
    EXPECT_EQ(a.outcomes[i].passed, b.outcomes[i].passed) << i;
    EXPECT_EQ(a.outcomes[i].injected_outages, b.outcomes[i].injected_outages)
        << i;
    EXPECT_EQ(a.outcomes[i].power_failures, b.outcomes[i].power_failures)
        << i;
    EXPECT_EQ(a.outcomes[i].outage_events, b.outcomes[i].outage_events)
        << i;
    EXPECT_EQ(a.outcomes[i].to_string(), b.outcomes[i].to_string()) << i;
  }
}

// Torn-write composition: the same seeded schedules, now landing a torn
// prefix of the in-flight commit at every injected outage, must still be
// bit-identical to golden once the CRC-sealed progress records are armed.
// Runs in both preservation modes (kTaskAtomic commits multi-job batches,
// so its torn prefixes cut through whole task payloads).
TEST_P(ScheduleProperty, TornSchedulesStayConsistentUnderProtection) {
  CheckerConfig cfg;
  cfg.engine.integrity.protect_progress = true;
  const Checker protected_checker(*graph_, calib_, cfg);

  std::vector<OutageSchedule> schedules = make_schedules();
  schedules.resize(48);
  for (std::size_t i = 0; i < schedules.size(); ++i) {
    schedules[i] = (i % 2 == 0) ? schedules[i].with_torn_random()
                                : schedules[i].with_torn_keep(i % 5);
  }
  const CheckReport report =
      protected_checker.check_schedules(sample_, schedules, GetParam());
  ASSERT_EQ(report.outcomes.size(), schedules.size());
  if (const ScheduleOutcome* fail = report.first_failure()) {
    FAIL() << report.failed()
           << " torn schedules diverged; first: " << fail->to_string();
  }
}

INSTANTIATE_TEST_SUITE_P(
    BothModes, ScheduleProperty,
    ::testing::Values(PreservationMode::kImmediate,
                      PreservationMode::kTaskAtomic),
    [](const ::testing::TestParamInfo<PreservationMode>& info) {
      return std::string(preservation_mode_name(info.param));
    });

}  // namespace
}  // namespace iprune::fault
