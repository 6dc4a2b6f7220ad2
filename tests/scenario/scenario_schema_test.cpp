// Scenario schema: strict parsing, exact validation diagnostics, the
// auto-derived check list, and the strict FleetSpec helpers that fleet_run
// routes CLI overrides through. Error messages are pinned verbatim — a
// shrunk fuzzer repro is only actionable if its rejection text names the
// offending field the same way every time.

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>
#include <vector>

#include "scenario/scenario.hpp"

namespace iprune::scenario {
namespace {

/// A minimal valid document: one default group.
std::string minimal(const std::string& extra = "",
                    const std::string& group_extra = "") {
  return "{\"version\": 1, \"name\": \"x\"" + extra +
         ", \"groups\": [{\"name\": \"g\"" + group_extra + "}]}";
}

/// Asserts Scenario::parse(text) throws std::invalid_argument with
/// exactly `expected`.
void expect_reject(const std::string& text, const std::string& expected) {
  try {
    (void)Scenario::parse(text);
    FAIL() << "expected parse to reject: " << text;
  } catch (const std::invalid_argument& e) {
    EXPECT_EQ(std::string(e.what()), expected) << "input: " << text;
  } catch (...) {
    FAIL() << "expected std::invalid_argument for: " << text;
  }
}

TEST(ScenarioSchema, MinimalDocumentParses) {
  const Scenario sc = Scenario::parse(minimal());
  EXPECT_EQ(sc.name, "x");
  EXPECT_EQ(sc.seed, 2026u);
  EXPECT_EQ(sc.inferences, 1u);
  EXPECT_EQ(sc.groups.size(), 1u);
  EXPECT_EQ(sc.groups[0].name, "g");
  EXPECT_EQ(sc.groups[0].count, 1u);
  EXPECT_EQ(sc.total_devices(), 1u);
  // Three leaves: version, name, and the group's name.
  EXPECT_EQ(sc.schema_fields(), 3u);
}

TEST(ScenarioSchema, DescribeOmitsDefaultsAndRoundTrips) {
  const Scenario sc = Scenario::parse(minimal());
  const std::string canonical = sc.describe();
  // Default-valued fields never appear in the canonical form.
  EXPECT_EQ(canonical.find("seed"), std::string::npos);
  EXPECT_EQ(canonical.find("inferences"), std::string::npos);
  EXPECT_EQ(canonical.find("count"), std::string::npos);
  EXPECT_EQ(Scenario::parse(canonical), sc);
  EXPECT_EQ(Scenario::parse(canonical).describe(), canonical);
}

TEST(ScenarioSchema, LeafValuesReuseTheTextDsls) {
  const Scenario sc = Scenario::parse(minimal(
      "", ", \"supply\": \"rf:0.01:0.5:0.2\", "
          "\"schedule\": \"every:50;torn=keep:4;max=3\""));
  EXPECT_EQ(sc.groups[0].power.kind, fleet::PowerProfile::Kind::kRf);
  EXPECT_EQ(sc.groups[0].schedule.mode, fault::ScheduleMode::kEveryNth);
  EXPECT_EQ(sc.groups[0].schedule.every_n, 50u);
  EXPECT_EQ(sc.groups[0].schedule.torn, fault::TornMode::kKeep);
  EXPECT_EQ(sc.groups[0].schedule.max_outages, 3u);
}

TEST(ScenarioSchema, RejectsUnknownAndMissingFields) {
  expect_reject("{\"version\": 1, \"name\": \"x\", \"bogus\": 1, "
                "\"groups\": [{\"name\": \"g\"}]}",
                "scenario: unknown field \"bogus\"");
  expect_reject("{\"version\": 1, \"name\": \"x\", \"groups\": "
                "[{\"name\": \"g\", \"turbo\": 1}]}",
                "scenario: unknown group field \"turbo\"");
  expect_reject("{\"name\": \"x\", \"groups\": [{\"name\": \"g\"}]}",
                "scenario: missing required field \"version\"");
  expect_reject("{\"version\": 1, \"groups\": [{\"name\": \"g\"}]}",
                "scenario: missing required field \"name\"");
  expect_reject("{\"version\": 1, \"name\": \"x\"}",
                "scenario: missing required field \"groups\"");
  expect_reject("{\"version\": 1, \"name\": \"x\", \"groups\": "
                "[{\"count\": 2}]}",
                "scenario: group is missing required field \"name\"");
}

TEST(ScenarioSchema, RejectsWrongVersion) {
  expect_reject("{\"version\": 2, \"name\": \"x\", \"groups\": "
                "[{\"name\": \"g\"}]}",
                "scenario: unsupported version 2");
}

TEST(ScenarioSchema, RejectsOutOfRangeValues) {
  expect_reject(minimal(", \"inferences\": 0"),
                "scenario: inferences must be >= 1");
  expect_reject("{\"version\": 1, \"name\": \"bad name\", \"groups\": "
                "[{\"name\": \"g\"}]}",
                "scenario: name must match [A-Za-z0-9_.-]+");
  expect_reject("{\"version\": 1, \"name\": \"x\", \"groups\": []}",
                "scenario: at least one group is required");
  expect_reject(minimal("", ", \"count\": 0"),
                "scenario: group \"g\" count must be >= 1");
  expect_reject(minimal("", ", \"write_ber\": 1.5"),
                "scenario: group \"g\" bit-error rates must be in [0, 1]");
  expect_reject(minimal(", \"sims\": [\"stepping\", \"stepping\"]"),
                "scenario: duplicate sim \"stepping\"");
  expect_reject(minimal(", \"checks\": [\"warp\"]"),
                "scenario: unknown check \"warp\"");
  expect_reject("{\"version\": 1, \"name\": \"x\", \"groups\": "
                "[{\"name\": \"g\"}, {\"name\": \"g\"}]}",
                "scenario: duplicate group name \"g\"");
}

TEST(ScenarioSchema, LeafDslErrorsPropagateVerbatim) {
  // Supply and schedule leaves fail with their own layer's diagnostics,
  // so a scenario error is pasteable into the fleet/fault docs unchanged.
  expect_reject(minimal("", ", \"supply\": \"const:-1\""),
                "fleet spec: supply watts must be finite and > 0");
  expect_reject(minimal("", ", \"schedule\": \"every:0\""),
                "OutageSchedule::parse: period must be >= 1 in \"every:0\"");
}

TEST(ScenarioSchema, EffectiveSimsDefaultsToSteppingAndBatched) {
  const Scenario sc = Scenario::parse(minimal());
  const std::vector<fleet::SimKind> expected = {fleet::SimKind::kStepping,
                                                fleet::SimKind::kBatched};
  EXPECT_EQ(sc.effective_sims(), expected);
}

// There is no `scheduler` sim kind: a document naming it fails through
// the ordinary unknown-sim diagnostic (no alias).
TEST(ScenarioSchema, RejectsSchedulerSim) {
  expect_reject(minimal(", \"sims\": [\"scheduler\"]"),
                "scenario: unknown sim \"scheduler\"");
}

TEST(ScenarioSchema, EffectiveChecksFollowTheFleetComposition) {
  // A clean fleet gets the two digest checks only.
  const Scenario clean = Scenario::parse(minimal());
  const auto base = clean.effective_checks();
  ASSERT_EQ(base.size(), 2u);
  EXPECT_EQ(base[0], Check::kSimDigest);
  EXPECT_EQ(base[1], Check::kLaneDeterminism);

  // Drop-all outages in an intermittent-safe mode add consistency.
  const Scenario outages =
      Scenario::parse(minimal("", ", \"schedule\": \"every:50\""));
  EXPECT_TRUE(forces_clean_outages(outages.groups[0]));
  const auto with_consistency = outages.effective_checks();
  ASSERT_EQ(with_consistency.size(), 3u);
  EXPECT_EQ(with_consistency[2], Check::kConsistency);

  // Torn writes with the layer forced on add integrity.
  const Scenario torn = Scenario::parse(minimal(
      "", ", \"schedule\": \"every:50;torn=keep:4\", "
          "\"integrity\": \"on\""));
  EXPECT_TRUE(injects_protected_corruption(torn.groups[0]));
  const auto with_integrity = torn.effective_checks();
  ASSERT_EQ(with_integrity.size(), 3u);
  EXPECT_EQ(with_integrity[2], Check::kIntegrity);
}

TEST(ScenarioSchema, IntegrityDomainExcludesBitErrorsAndAutoTorn) {
  // Bit-error loads can flip activation bytes the integrity layer does
  // not CRC — silent divergence there is by design, so BER groups stay
  // out of the containment oracle.
  const Scenario ber = Scenario::parse(minimal(
      "", ", \"write_ber\": 1e-05, \"integrity\": \"on\""));
  EXPECT_FALSE(injects_protected_corruption(ber.groups[0]));
  // Torn-only under integrity=auto never arms the layer (auto arms on
  // bit errors alone), so containment cannot be asserted either.
  const Scenario auto_torn = Scenario::parse(
      minimal("", ", \"schedule\": \"every:50;torn=rand\""));
  EXPECT_FALSE(injects_protected_corruption(auto_torn.groups[0]));
}

TEST(ScenarioSchema, ToFleetCarriesEverySetting) {
  Scenario sc = Scenario::parse(minimal(
      ", \"seed\": 7, \"inferences\": 3, \"batch\": 64", ", \"count\": 5"));
  const fleet::FleetSpec spec = sc.to_fleet(fleet::SimKind::kBatched);
  EXPECT_EQ(spec.seed, 7u);
  EXPECT_EQ(spec.inferences, 3u);
  EXPECT_EQ(spec.batch, 64u);
  EXPECT_EQ(spec.sim, fleet::SimKind::kBatched);
  ASSERT_EQ(spec.groups.size(), 1u);
  EXPECT_EQ(spec.groups[0].count, 5u);
}

TEST(ScenarioSchema, ValidateFleetRejectsMutatedSpecs) {
  // The exact gap fleet_run had: a spec parses fine, then CLI overrides
  // push a field out of range and nothing re-checks it.
  fleet::FleetSpec spec = fleet::FleetSpec::example(4);
  spec.event_budget = 0;
  try {
    validate_fleet(spec);
    FAIL() << "expected validate_fleet to reject event_budget=0";
  } catch (const std::invalid_argument& e) {
    EXPECT_EQ(std::string(e.what()),
              "fleet spec: event_budget must be >= 1");
  }

  fleet::FleetSpec zero = fleet::FleetSpec::example(4);
  ASSERT_FALSE(zero.groups.empty());
  zero.groups[0].count = 0;
  try {
    validate_fleet(zero);
    FAIL() << "expected validate_fleet to reject count=0";
  } catch (const std::invalid_argument& e) {
    EXPECT_EQ(std::string(e.what()),
              "fleet spec: group '" + zero.groups[0].name + "' has count=0");
  }
}

TEST(ScenarioSchema, FleetSpecsRejectDuplicateGroupNames) {
  // Scenarios already enforce this; specs must too — gateways aggregate
  // per group name and rescale_strict's dropped-group diagnostic matches
  // by name, so duplicates make both ambiguous.
  fleet::FleetSpec spec;
  spec.groups.push_back(fleet::DeviceGroup{});
  spec.groups.back().name = "twin";
  spec.groups.back().count = 9;
  spec.groups.push_back(fleet::DeviceGroup{});
  spec.groups.back().name = "twin";
  spec.groups.back().count = 1;

  const std::string expected = "fleet spec: duplicate group name 'twin'";
  try {
    validate_fleet(spec);
    FAIL() << "expected validate_fleet to reject duplicate names";
  } catch (const std::invalid_argument& e) {
    EXPECT_EQ(std::string(e.what()), expected);
  }
  try {
    (void)rescale_strict(spec, 2);
    FAIL() << "expected rescale_strict to reject duplicate names";
  } catch (const std::invalid_argument& e) {
    EXPECT_EQ(std::string(e.what()), expected);
  }
}

TEST(ScenarioSchema, RescaleStrictNamesDroppedGroups) {
  // Largest-remainder rescaling to fewer devices than groups apportions
  // zero devices somewhere; with_devices() silently dropped the group.
  fleet::FleetSpec spec;
  spec.groups.push_back(fleet::DeviceGroup{});
  spec.groups.back().name = "alpha";
  spec.groups.back().count = 99;
  spec.groups.push_back(fleet::DeviceGroup{});
  spec.groups.back().name = "beta";
  spec.groups.back().count = 1;

  const fleet::FleetSpec ok = rescale_strict(spec, 100);
  EXPECT_EQ(ok.groups.size(), 2u);

  try {
    (void)rescale_strict(spec, 2);
    FAIL() << "expected rescale_strict to reject dropping beta";
  } catch (const std::invalid_argument& e) {
    EXPECT_EQ(std::string(e.what()),
              "fleet spec: rescaling to 2 devices would drop group(s) "
              "'beta' — raise the device count or remove the group");
  }
}

}  // namespace
}  // namespace iprune::scenario
