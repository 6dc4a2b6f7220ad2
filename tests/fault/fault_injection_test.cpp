// Unit tests for the fault-injection layer: schedule round-tripping, the
// injector's event arithmetic, the PowerManager hook, injected-outage
// telemetry, and the consistency checker's golden-run machinery.

#include <gtest/gtest.h>

#include <memory>

#include "device/msp430.hpp"
#include "fault/checker.hpp"
#include "fault/injector.hpp"
#include "fault/testbed.hpp"
#include "power/supply.hpp"
#include "telemetry/sink.hpp"

namespace iprune::fault {
namespace {

using engine::PreservationMode;
using power::FaultPoint;

// --- OutageSchedule ---

TEST(Schedule, DescribeParseRoundTripsEveryMode) {
  const OutageSchedule cases[] = {
      OutageSchedule::none(),
      OutageSchedule::at_events({3, 17, 99}),
      OutageSchedule::every_nth(50, 3),
      OutageSchedule::random(42, 0.01, 8),
      OutageSchedule::random(7, 0.25),
      OutageSchedule::at_write(17),
      OutageSchedule::at_write(17).with_torn_keep(3),
      OutageSchedule::at_write(4).with_torn_random(),
      OutageSchedule::every_nth(50, 3).with_torn_keep(0),
      OutageSchedule::random(42, 0.01, 8).with_torn_random(),
      OutageSchedule::at_events({3, 17}).with_torn_keep(2),
  };
  for (const OutageSchedule& schedule : cases) {
    const std::string text = schedule.describe();
    EXPECT_EQ(OutageSchedule::parse(text), schedule) << text;
  }
}

TEST(Schedule, DescribeUsesCanonicalForms) {
  EXPECT_EQ(OutageSchedule::none().describe(), "none");
  EXPECT_EQ(OutageSchedule::at_events({3, 17, 99}).describe(),
            "fixed:3,17,99");
  EXPECT_EQ(OutageSchedule::every_nth(50, 3).describe(), "every:50;max=3");
  EXPECT_EQ(OutageSchedule::at_write(17).describe(), "write:17");
  EXPECT_EQ(OutageSchedule::at_write(17).with_torn_keep(3).describe(),
            "write:17;torn=keep:3");
  EXPECT_EQ(OutageSchedule::at_write(17).with_torn_random().describe(),
            "write:17;torn=rand");
  EXPECT_EQ(
      OutageSchedule::every_nth(50, 3).with_torn_random().describe(),
      "every:50;torn=rand;max=3");
}

TEST(Schedule, FixedEventsAreSortedAndDeduplicated) {
  const OutageSchedule s = OutageSchedule::at_events({99, 3, 17, 3});
  EXPECT_EQ(s.fixed_events, (std::vector<std::uint64_t>{3, 17, 99}));
}

TEST(Schedule, FactoriesValidateArguments) {
  EXPECT_THROW((void)OutageSchedule::every_nth(0), std::invalid_argument);
  EXPECT_THROW((void)OutageSchedule::random(1, -0.1), std::invalid_argument);
  EXPECT_THROW((void)OutageSchedule::random(1, 1.5), std::invalid_argument);
}

TEST(Schedule, ParseRejectsMalformedInputNamingFragment) {
  for (const char* bad : {"bogus:1", "fixed", "fixed:1,x", "every:0",
                          "random:seed=1", "random:p=0.1;seed=1",
                          "random:seed=1;p=2.0", "write:1;2",
                          "write:1;torn=keep", "write:1;torn=bogus",
                          "write:1;torn=keep:x"}) {
    EXPECT_THROW((void)OutageSchedule::parse(bad), std::invalid_argument)
        << bad;
  }
  try {
    (void)OutageSchedule::parse("fixed:1,oops");
    FAIL() << "expected rejection";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("oops"), std::string::npos)
        << e.what();
  }
}

// --- FaultInjector ---

TEST(Injector, FixedScheduleFiresAtExactGlobalOrdinals) {
  FaultInjector injector(OutageSchedule::at_events({1, 4}));
  std::vector<bool> fired;
  for (int i = 0; i < 6; ++i) {
    fired.push_back(injector.should_fail(FaultPoint::kCpu));
  }
  EXPECT_EQ(fired, (std::vector<bool>{false, true, false, false, true,
                                      false}));
  EXPECT_EQ(injector.total_events(), 6u);
  EXPECT_EQ(injector.injected(), 2u);
  EXPECT_EQ(injector.outage_events(),
            (std::vector<std::uint64_t>{1, 4}));
}

TEST(Injector, AtWriteCountsOnlyNvmWriteEvents) {
  FaultInjector injector(OutageSchedule::at_write(1));
  EXPECT_FALSE(injector.should_fail(FaultPoint::kNvmWrite));  // write 0
  EXPECT_FALSE(injector.should_fail(FaultPoint::kLea));
  EXPECT_FALSE(injector.should_fail(FaultPoint::kCpu));
  EXPECT_TRUE(injector.should_fail(FaultPoint::kNvmWrite));  // write 1
  EXPECT_EQ(injector.write_events(), 2u);
  EXPECT_EQ(injector.events_at(FaultPoint::kLea), 1u);
  // The outage is recorded by its *global* ordinal (3), not the write one.
  EXPECT_EQ(injector.outage_events(), (std::vector<std::uint64_t>{3}));
}

TEST(Injector, EveryNthIsOneBased) {
  FaultInjector injector(OutageSchedule::every_nth(3));
  std::vector<bool> fired;
  for (int i = 0; i < 7; ++i) {
    fired.push_back(injector.should_fail(FaultPoint::kLea));
  }
  EXPECT_EQ(fired, (std::vector<bool>{false, false, true, false, false,
                                      true, false}));
}

TEST(Injector, MaxOutagesCapsInjection) {
  FaultInjector injector(OutageSchedule::every_nth(1, 2));
  int injected = 0;
  for (int i = 0; i < 10; ++i) {
    injected += injector.should_fail(FaultPoint::kCpu) ? 1 : 0;
  }
  EXPECT_EQ(injected, 2);
  EXPECT_EQ(injector.injected(), 2u);
}

TEST(Injector, RandomScheduleIsSeedDeterministic) {
  const OutageSchedule schedule = OutageSchedule::random(1234, 0.3);
  FaultInjector a(schedule);
  FaultInjector b(schedule);
  for (int i = 0; i < 200; ++i) {
    EXPECT_EQ(a.should_fail(FaultPoint::kLea),
              b.should_fail(FaultPoint::kLea))
        << i;
  }
  EXPECT_GT(a.injected(), 0u);
  EXPECT_EQ(a.outage_events(), b.outage_events());
}

TEST(Injector, ResetRewindsCountersAndRngStream) {
  FaultInjector injector(OutageSchedule::random(77, 0.2));
  std::vector<bool> first;
  for (int i = 0; i < 50; ++i) {
    first.push_back(injector.should_fail(FaultPoint::kNvmWrite));
  }
  injector.reset();
  EXPECT_EQ(injector.total_events(), 0u);
  EXPECT_EQ(injector.injected(), 0u);
  for (int i = 0; i < 50; ++i) {
    EXPECT_EQ(injector.should_fail(FaultPoint::kNvmWrite), first[i]) << i;
  }
}

TEST(Injector, EventBudgetWatchdogThrows) {
  FaultInjector injector(OutageSchedule::none());
  injector.set_event_budget(3);
  for (int i = 0; i < 3; ++i) {
    EXPECT_FALSE(injector.should_fail(FaultPoint::kCpu));
  }
  EXPECT_THROW((void)injector.should_fail(FaultPoint::kCpu),
               std::runtime_error);
}

// --- PowerManager hook + device integration ---

TEST(ManagerHook, InjectedOutageDrainsBufferAndCounts) {
  power::PowerManager pm(power::SupplyPresets::continuous(), {});
  FaultInjector injector(OutageSchedule::at_events({2}));
  pm.set_fault_hook(&injector);

  EXPECT_TRUE(pm.consume(0.0, 1e-6, 1e-9, FaultPoint::kCpu));
  EXPECT_TRUE(pm.consume(1e-6, 1e-6, 1e-9, FaultPoint::kCpu));
  EXPECT_FALSE(pm.consume(2e-6, 1e-6, 1e-9, FaultPoint::kNvmWrite));
  EXPECT_TRUE(pm.last_outage_injected());
  EXPECT_EQ(pm.stats().power_failures, 1u);
  EXPECT_EQ(pm.stats().injected_failures, 1u);
  EXPECT_DOUBLE_EQ(pm.buffer().stored_j(), 0.0);
}

TEST(ManagerHook, InjectionEmitsFaultInjectTelemetry) {
  auto device = device::Msp430Device(
      device::DeviceConfig::msp430fr5994(),
      std::make_unique<power::ConstantSupply>(
          power::SupplyPresets::kContinuousW));
  telemetry::RecorderSink recorder;
  device.set_trace_sink(&recorder);
  FaultInjector injector(OutageSchedule::at_events({2}));
  device.set_fault_hook(&injector);

  EXPECT_TRUE(device.dma_read(16));                       // event 0
  EXPECT_TRUE(device.lea_op(8));                          // event 1
  EXPECT_FALSE(device.dma_write(16));                     // event 2: injected
  EXPECT_TRUE(device.dma_write(16));                      // retried, succeeds
  EXPECT_EQ(device.vm_epoch(), 1u);

  std::size_t brownouts = 0;
  std::size_t injects = 0;
  for (const telemetry::Event& event : recorder.events()) {
    if (event.cls == telemetry::EventClass::kBrownOut) {
      ++brownouts;
    }
    if (event.cls == telemetry::EventClass::kFaultInject) {
      ++injects;
      EXPECT_EQ(event.name, fault_point_name(FaultPoint::kNvmWrite));
      EXPECT_EQ(event.seq, 1u);
    }
  }
  EXPECT_EQ(brownouts, 1u);
  EXPECT_EQ(injects, 1u);
}

TEST(ManagerHook, BackToBackRebootInjectionIsSurvivable) {
  // Fail the interrupted op AND the next two reboot attempts; the device
  // must retry the reboot instead of dying.
  auto device = device::Msp430Device(
      device::DeviceConfig::msp430fr5994(),
      std::make_unique<power::ConstantSupply>(
          power::SupplyPresets::kContinuousW));
  FaultInjector injector(OutageSchedule::at_events({0, 1, 2}));
  device.set_fault_hook(&injector);

  EXPECT_FALSE(device.dma_write(16));  // op fails, then 2 reboots fail
  EXPECT_EQ(injector.injected(), 3u);
  EXPECT_EQ(device.vm_epoch(), 3u);
  EXPECT_TRUE(device.dma_write(16));  // clean after the third reboot
}

// --- Checker ---

class CheckerFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    rng_ = std::make_unique<util::Rng>(5);
    graph_ = std::make_unique<nn::Graph>(make_tiny_graph(*rng_));
    calib_ = make_batch(*rng_, *graph_, 8);
    sample_ = slice_sample(calib_, 0);
    checker_ = std::make_unique<Checker>(*graph_, calib_);
  }

  std::unique_ptr<util::Rng> rng_;
  std::unique_ptr<nn::Graph> graph_;
  nn::Tensor calib_;
  nn::Tensor sample_;
  std::unique_ptr<Checker> checker_;
};

TEST_F(CheckerFixture, CleanSchedulePassesInBothModes) {
  for (const PreservationMode mode :
       {PreservationMode::kImmediate, PreservationMode::kTaskAtomic}) {
    const ScheduleOutcome outcome =
        checker_->check(sample_, OutageSchedule::none(), mode);
    EXPECT_TRUE(outcome.passed) << outcome.to_string();
    EXPECT_EQ(outcome.injected_outages, 0u);
    EXPECT_EQ(outcome.power_failures, 0u);
  }
}

TEST_F(CheckerFixture, InjectedOutageStillMatchesGolden) {
  const ScheduleOutcome outcome = checker_->check(
      sample_, OutageSchedule::at_write(5), PreservationMode::kImmediate);
  EXPECT_TRUE(outcome.passed) << outcome.to_string();
  EXPECT_EQ(outcome.injected_outages, 1u);
  EXPECT_EQ(outcome.power_failures, 1u);
  EXPECT_LE(outcome.reexecuted_jobs, outcome.power_failures);
}

TEST_F(CheckerFixture, WriteBoundariesAndTaskBoundAreModelDerived) {
  EXPECT_GT(checker_->count_write_boundaries(sample_,
                                             PreservationMode::kImmediate),
            50u);
  EXPECT_GE(checker_->max_task_jobs(), 1u);
  const auto schedules = checker_->exhaustive_write_schedules(
      sample_, PreservationMode::kImmediate);
  EXPECT_EQ(schedules.size(),
            checker_->count_write_boundaries(sample_,
                                             PreservationMode::kImmediate));
}

TEST_F(CheckerFixture, ReproTokenRoundTrips) {
  const ScheduleOutcome outcome = checker_->check(
      sample_, OutageSchedule::every_nth(40, 2),
      PreservationMode::kTaskAtomic);
  EXPECT_EQ(outcome.repro(), "mode=task;schedule=every:40;max=2");
  const std::string token = outcome.repro();
  const std::string sched_key = ";schedule=";
  const std::size_t at = token.find(sched_key);
  ASSERT_NE(at, std::string::npos);
  EXPECT_EQ(parse_preservation_mode(token.substr(5, at - 5)),
            PreservationMode::kTaskAtomic);
  EXPECT_EQ(OutageSchedule::parse(token.substr(at + sched_key.size())),
            outcome.schedule);
}

TEST_F(CheckerFixture, ShrinkMinimizesFailingSchedule) {
  // Manufacture a genuine failure: accumulate-in-VM with zero allowed
  // restarts cannot survive any outage, so a three-outage schedule fails
  // and must shrink to a single ordinal.
  CheckerConfig config;
  config.max_restarts = 0;
  Checker strict(*graph_, calib_, config);
  const ScheduleOutcome failed =
      strict.check(sample_, OutageSchedule::at_events({10, 50, 90}),
                   PreservationMode::kAccumulateInVm);
  ASSERT_FALSE(failed.passed);
  EXPECT_FALSE(failed.completed);
  ASSERT_FALSE(failed.outage_events.empty());

  const ScheduleOutcome minimized = strict.shrink(sample_, failed);
  EXPECT_FALSE(minimized.passed);
  EXPECT_EQ(minimized.schedule.mode, ScheduleMode::kFixed);
  EXPECT_EQ(minimized.schedule.fixed_events.size(), 1u)
      << minimized.to_string();
}

}  // namespace
}  // namespace iprune::fault
