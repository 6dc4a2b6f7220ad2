// The "backend" group field in scenario JSON: canonical-form round-trip
// (defaults omitted), pinned rejection messages for unknown presets, and
// the functional-backend validation constraints shared with the fleet
// spec DSL.

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>

#include "engine/backend.hpp"
#include "scenario/scenario.hpp"

namespace iprune::scenario {
namespace {

std::string minimal(const std::string& group_extra = "") {
  return "{\"version\": 1, \"name\": \"x\", \"groups\": "
         "[{\"name\": \"g\"" + group_extra + "}]}";
}

void expect_reject(const std::string& text, const std::string& expected) {
  try {
    (void)Scenario::parse(text);
    FAIL() << "expected parse to reject: " << text;
  } catch (const std::invalid_argument& e) {
    EXPECT_EQ(std::string(e.what()), expected) << "input: " << text;
  }
}

TEST(ScenarioBackend, BackendFieldParsesAndRoundTrips) {
  const Scenario sc = Scenario::parse(minimal(", \"backend\": \"reram\""));
  EXPECT_EQ(sc.groups[0].backend, engine::BackendConfig::reram());

  const std::string canonical = sc.describe();
  EXPECT_NE(canonical.find("\"backend\": \"reram\""), std::string::npos);
  EXPECT_EQ(Scenario::parse(canonical), sc);
  EXPECT_EQ(Scenario::parse(canonical).describe(), canonical);
}

TEST(ScenarioBackend, DefaultBackendIsOmittedFromCanonicalForm) {
  const Scenario sc = Scenario::parse(minimal());
  EXPECT_EQ(sc.groups[0].backend, engine::BackendConfig::msp430_fram());
  EXPECT_EQ(sc.describe().find("backend"), std::string::npos);

  // Spelling the default out loud is accepted — and then canonicalized
  // away, like every other default-valued field.
  const Scenario spelled =
      Scenario::parse(minimal(", \"backend\": \"msp430-fram\""));
  EXPECT_EQ(spelled, sc);
  EXPECT_EQ(spelled.describe().find("backend"), std::string::npos);
}

TEST(ScenarioBackend, UnknownBackendMessageIsPinned) {
  expect_reject(minimal(", \"backend\": \"tpu\""),
                "scenario: unknown backend \"tpu\"");
}

TEST(ScenarioBackend, FunctionalConstraintsAreValidated) {
  // Default supply is strong harvest — not allowed for functional.
  expect_reject(minimal(", \"backend\": \"functional\""),
                "fleet spec: group 'g' backend=functional requires "
                "supply=continuous (no power model)");
  expect_reject(minimal(", \"backend\": \"functional\", "
                        "\"supply\": \"continuous\", "
                        "\"schedule\": \"every:50\""),
                "fleet spec: group 'g' backend=functional cannot take an "
                "outage schedule");

  // With continuous supply and no schedule it parses cleanly.
  const Scenario sc = Scenario::parse(
      minimal(", \"backend\": \"functional\", \"supply\": \"continuous\""));
  EXPECT_EQ(sc.groups[0].backend, engine::BackendConfig::functional());
}

TEST(ScenarioBackend, ValidateFleetEnforcesFunctionalConstraints) {
  fleet::FleetSpec spec;
  fleet::DeviceGroup group;
  group.name = "g";
  group.backend = engine::BackendConfig::functional();
  group.power = fleet::PowerProfile::weak();
  spec.groups = {group};
  try {
    spec.validate();
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_STREQ(e.what(),
                 "fleet spec: group 'g' backend=functional requires "
                 "supply=continuous (no power model)");
  }

  group.power = fleet::PowerProfile::continuous();
  group.schedule = fault::OutageSchedule::every_nth(50);
  spec.groups = {group};
  try {
    spec.validate();
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_STREQ(e.what(),
                 "fleet spec: group 'g' backend=functional cannot take an "
                 "outage schedule");
  }

  group.schedule = {};
  spec.groups = {group};
  spec.validate();  // must not throw
}

}  // namespace
}  // namespace iprune::scenario
