// The scenario runner's differential checks (consistency, integrity):
// each replays at most RunOptions::max_differential qualifying groups,
// skips groups outside its domain, and notes how many qualifying groups
// it left out.

#include <gtest/gtest.h>

#include "scenario/runner.hpp"

namespace iprune::scenario {
namespace {

TEST(ScenarioRunner, DifferentialChecksReplayAtMostTheCap) {
  // `plain` qualifies for neither check; three groups qualify for each.
  const Scenario sc = Scenario::parse(R"({
    "version": 1, "name": "cap", "seed": 17, "sims": ["stepping"],
    "checks": ["consistency", "integrity"],
    "groups": [
      {"name": "plain"},
      {"name": "clean0", "schedule": "every:60;max=4"},
      {"name": "torn0", "schedule": "every:60;torn=keep:4;max=4",
       "integrity": "on"},
      {"name": "clean1", "schedule": "every:70;max=4"},
      {"name": "torn1", "schedule": "every:70;torn=keep:4;max=4",
       "integrity": "on"},
      {"name": "clean2", "schedule": "every:80;max=4"},
      {"name": "torn2", "schedule": "every:80;torn=keep:4;max=4",
       "integrity": "on"}
    ]})");
  RunOptions options;
  options.max_differential = 2;
  const ScenarioReport report = run_scenario(sc, options);
  ASSERT_EQ(report.checks.size(), 2u) << report.to_string();
  for (const CheckOutcome& outcome : report.checks) {
    EXPECT_TRUE(outcome.passed) << report.to_string();
    EXPECT_EQ(outcome.detail, "1 qualifying group(s) beyond the cap")
        << check_name(outcome.check);
  }
  EXPECT_EQ(report.checks[0].check, Check::kConsistency);
  EXPECT_EQ(report.checks[1].check, Check::kIntegrity);

  // Under the cap nothing is skipped and nothing is noted.
  options.max_differential = 3;
  for (const CheckOutcome& outcome : run_scenario(sc, options).checks) {
    EXPECT_TRUE(outcome.passed) << check_name(outcome.check);
    EXPECT_EQ(outcome.detail, "") << check_name(outcome.check);
  }
}

}  // namespace
}  // namespace iprune::scenario
