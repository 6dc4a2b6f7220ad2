// Scenario fuzzer and ddmin shrinker. Two contracts: a seeded campaign
// over the differential oracles is clean (every generated scenario passes
// every auto-derived check — the tier-1 slice of the CI scenario-fuzz
// job), and a deliberately seeded "bug" shrinks to a minimal document of
// at most 8 schema fields that still triggers it after a disk round-trip.

#include <gtest/gtest.h>

#include <cstddef>
#include <string>

#include "scenario/fuzz.hpp"
#include "scenario/runner.hpp"

namespace iprune::scenario {
namespace {

TEST(ScenarioFuzz, SeededCampaignIsClean) {
  FuzzConfig config;
  config.seed = 1;
  RunOptions options;
  options.shrink = false;
  for (std::uint64_t i = 0; i < 60; ++i) {
    const Scenario sc = random_scenario(config, i);
    const ScenarioReport report = run_scenario(sc, options);
    ASSERT_TRUE(report.passed())
        << "scenario " << i << " failed:\n"
        << report.to_string() << "\n"
        << sc.describe();
  }
}

TEST(ScenarioFuzz, ShrinkerReachesAMinimalDocument) {
  // A deliberate seeded defect: "any scenario with a torn-write schedule
  // fails". The trigger is one group field, so a correct shrinker must
  // strip everything else — extra groups, scenario overrides, sim lists —
  // and land at a document within the 8-field repro budget.
  const auto still_fails = [](const Scenario& sc) {
    for (const auto& group : sc.groups) {
      if (group.schedule.torn != fault::TornMode::kDropAll) {
        return true;
      }
    }
    return false;
  };

  Scenario failing;
  failing.name = "seeded-bug";
  failing.seed = 99;
  failing.inferences = 2;
  failing.batch = 64;
  failing.telemetry = true;
  failing.sims = {fleet::SimKind::kStepping, fleet::SimKind::kBatched};
  fleet::DeviceGroup bystander;
  bystander.name = "bystander";
  bystander.count = 3;
  bystander.power = fleet::PowerProfile::parse("solar:0.01:2.0");
  fleet::DeviceGroup trigger;
  trigger.name = "trigger";
  trigger.count = 2;
  trigger.model = fleet::ModelKind::kMultipath;
  trigger.schedule = fault::OutageSchedule::parse("every:50;torn=keep:4");
  trigger.integrity = fleet::IntegrityMode::kOn;
  failing.groups = {bystander, trigger};
  failing.validate();
  ASSERT_TRUE(still_fails(failing));

  const Scenario shrunk = shrink_scenario(failing, still_fails);
  ASSERT_TRUE(still_fails(shrunk));
  ASSERT_NO_THROW(shrunk.validate());
  EXPECT_LE(shrunk.schema_fields(), 8u)
      << "shrunk repro too large:\n" << shrunk.describe();
  EXPECT_EQ(shrunk.groups.size(), 1u);

  // The repro written to disk replays the same minimal failure.
  const Scenario replayed = Scenario::parse(shrunk.describe());
  EXPECT_EQ(replayed, shrunk);
  EXPECT_TRUE(still_fails(replayed));
}

TEST(ScenarioFuzz, ShrinkSurvivesScheduleIndependentFailures) {
  // Regression: the group-field pass used to cache a reference to
  // best.groups[g].schedule; once the schedule=none() mutation was
  // accepted, accept() replaced best and the later torn / fixed-events /
  // max-outages checks read freed memory (ASan-visible). A predicate
  // that ignores the schedule makes every schedule mutation accepted.
  const auto still_fails = [](const Scenario& sc) {
    return !sc.groups.empty() &&
           sc.groups[0].model == fleet::ModelKind::kMultipath;
  };
  Scenario failing;
  failing.name = "sched-independent";
  fleet::DeviceGroup group;
  group.name = "g";
  group.count = 2;
  group.model = fleet::ModelKind::kMultipath;
  group.schedule =
      fault::OutageSchedule::parse("fixed:3,9,27;torn=keep:4;max=2");
  failing.groups = {group};
  failing.validate();
  ASSERT_TRUE(still_fails(failing));

  const Scenario shrunk = shrink_scenario(failing, still_fails);
  EXPECT_TRUE(still_fails(shrunk));
  ASSERT_EQ(shrunk.groups.size(), 1u);
  // The schedule is irrelevant to the failure, so it must shrink away
  // entirely: the repro is the model field alone.
  EXPECT_EQ(shrunk.groups[0].schedule.mode, fault::ScheduleMode::kNone);
  EXPECT_EQ(shrunk.groups[0].schedule.torn, fault::TornMode::kDropAll);
  // name + groups + group name + model: nothing of the schedule remains.
  EXPECT_LE(shrunk.schema_fields(), 4u)
      << "shrunk repro too large:\n" << shrunk.describe();
}

TEST(ScenarioFuzz, ShrinkIsAFixpointOnAlreadyMinimalInput) {
  const auto still_fails = [](const Scenario& sc) {
    return !sc.groups.empty() &&
           sc.groups[0].schedule.mode != fault::ScheduleMode::kNone;
  };
  Scenario minimal;
  minimal.name = "min";
  fleet::DeviceGroup group;
  group.name = "g";
  group.schedule = fault::OutageSchedule::parse("every:50");
  minimal.groups = {group};
  minimal.validate();

  const Scenario shrunk = shrink_scenario(minimal, still_fails);
  EXPECT_EQ(shrunk.schema_fields(), minimal.schema_fields());
  EXPECT_TRUE(still_fails(shrunk));
}

TEST(ScenarioFuzz, ShrinkRespectsTheAttemptBudget) {
  // With a zero budget the shrinker must return the input unchanged —
  // it may never return a candidate the predicate was not consulted on.
  const auto still_fails = [](const Scenario&) { return true; };
  FuzzConfig config;
  config.seed = 3;
  const Scenario sc = random_scenario(config, 0);
  const Scenario shrunk = shrink_scenario(sc, still_fails, 0);
  EXPECT_EQ(shrunk, sc);
}

}  // namespace
}  // namespace iprune::scenario
