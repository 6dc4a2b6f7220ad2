// The trace: supply leaf — measured harvest traces as first-class
// PowerProfile values, usable from FleetSpec text and scenarios/*.json.
// The spec stays pure data (validate() never touches the filesystem);
// make() is where a missing file surfaces.

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <stdexcept>
#include <string>

#include "fleet/spec.hpp"
#include "power/supply.hpp"
#include "scenario/scenario.hpp"
#include "support/test_dir.hpp"

namespace iprune::fleet {
namespace {

namespace fs = std::filesystem;

void expect_invalid(const PowerProfile& profile, const std::string& message) {
  try {
    profile.validate();
    FAIL() << "expected validate() to reject; wanted: " << message;
  } catch (const std::invalid_argument& e) {
    EXPECT_EQ(std::string(e.what()), message);
  }
}

TEST(TraceProfile, FactoryFillsTheActiveFields) {
  const PowerProfile p = PowerProfile::trace("bench/harvest.csv", 0.25);
  EXPECT_EQ(p.kind, PowerProfile::Kind::kTrace);
  EXPECT_EQ(p.trace_path, "bench/harvest.csv");
  EXPECT_DOUBLE_EQ(p.period_s, 0.25);
  EXPECT_NO_THROW(p.validate());
}

TEST(TraceProfile, DescribeParseRoundTrip) {
  const PowerProfile p = PowerProfile::trace("traces/office.csv", 0.125);
  EXPECT_EQ(p.describe(), "trace:0.125:traces/office.csv");
  EXPECT_EQ(PowerProfile::parse(p.describe()), p);
}

TEST(TraceProfile, PathMayContainColons) {
  // The period comes first precisely so the path can hold ':' (Windows
  // drives, URLs, timestamped filenames). Only the FIRST colon after the
  // prefix splits.
  const PowerProfile p = PowerProfile::trace("C:/traces/run:2026-08.csv", 2.0);
  const std::string text = p.describe();
  EXPECT_EQ(text, "trace:2:C:/traces/run:2026-08.csv");
  const PowerProfile reparsed = PowerProfile::parse(text);
  EXPECT_EQ(reparsed, p);
  EXPECT_EQ(reparsed.trace_path, "C:/traces/run:2026-08.csv");
}

TEST(TraceProfile, ValidationMessagesNameTheField) {
  expect_invalid(PowerProfile::trace("t.csv", 0.0),
                 "fleet spec: supply trace period_s must be finite and > 0");
  expect_invalid(PowerProfile::trace("t.csv", -1.0),
                 "fleet spec: supply trace period_s must be finite and > 0");
  expect_invalid(PowerProfile::trace("", 1.0),
                 "fleet spec: supply trace path must be non-empty");
}

TEST(TraceProfile, ParseRejectsMissingPieces) {
  try {
    (void)PowerProfile::parse("trace:1.5");
    FAIL() << "expected parse to reject";
  } catch (const std::invalid_argument& e) {
    EXPECT_EQ(std::string(e.what()),
              "fleet spec: supply needs trace:<period_s>:<path>, "
              "got 'trace:1.5'");
  }
  // A non-numeric period is caught by the shared double parser.
  EXPECT_THROW((void)PowerProfile::parse("trace:abc:file.csv"),
               std::invalid_argument);
  // Validation runs inside parse: a parsed profile always make()s.
  EXPECT_THROW((void)PowerProfile::parse("trace:0:file.csv"),
               std::invalid_argument);
  EXPECT_THROW((void)PowerProfile::parse("trace:1:"),
               std::invalid_argument);
}

struct TraceProfileFiles : ::testing::Test {
  std::string dir;

  void SetUp() override { dir = test::unique_test_dir(); }
  void TearDown() override { fs::remove_all(dir); }

  std::string write_trace() {
    const std::string path = dir + "/harvest.csv";
    std::ofstream out(path);
    out << "# mW samples, 0.5 s apart\n"
        << "10\n"
        << "20\n"
        << "0\n";
    return path;
  }
};

TEST_F(TraceProfileFiles, MakeBuildsATraceSupply) {
  const std::string path = write_trace();
  const PowerProfile p = PowerProfile::trace(path, 0.5);
  const auto supply = p.make();
  ASSERT_NE(supply, nullptr);
  // Samples are milliwatts on disk, watts in the supply.
  EXPECT_DOUBLE_EQ(supply->power_w(0.1), 10e-3);
  EXPECT_DOUBLE_EQ(supply->power_w(0.6), 20e-3);
  EXPECT_DOUBLE_EQ(supply->power_w(1.1), 0.0);
}

TEST_F(TraceProfileFiles, MakeThrowsForMissingFile) {
  const PowerProfile p = PowerProfile::trace(dir + "/nope.csv", 0.5);
  EXPECT_NO_THROW(p.validate());  // spec stays pure data
  EXPECT_THROW((void)p.make(), std::runtime_error);
}

TEST_F(TraceProfileFiles, FleetSpecTextRoundTripsATraceGroup) {
  const std::string path = write_trace();
  FleetSpec spec;
  DeviceGroup group;
  group.name = "harvested";
  group.count = 2;
  group.power = PowerProfile::trace(path, 0.5);
  spec.groups = {group};

  const FleetSpec reparsed = FleetSpec::parse(spec.describe());
  EXPECT_EQ(reparsed, spec);
  EXPECT_EQ(reparsed.groups[0].power.trace_path, path);
}

TEST_F(TraceProfileFiles, ScenarioJsonRoundTripsATraceSupply) {
  const std::string path = write_trace();
  const std::string text =
      "{\"version\": 1, \"name\": \"trace-demo\", \"groups\": "
      "[{\"name\": \"g\", \"supply\": \"trace:0.5:" + path + "\"}]}";
  const scenario::Scenario sc = scenario::Scenario::parse(text);
  ASSERT_EQ(sc.groups.size(), 1u);
  EXPECT_EQ(sc.groups[0].power.kind, PowerProfile::Kind::kTrace);
  EXPECT_EQ(sc.groups[0].power.trace_path, path);
  EXPECT_DOUBLE_EQ(sc.groups[0].power.period_s, 0.5);

  // Canonical form is a fixpoint and re-parses to an equal scenario.
  const std::string canonical = sc.describe();
  EXPECT_NE(canonical.find("trace:0.5:" + path), std::string::npos)
      << canonical;
  EXPECT_EQ(scenario::Scenario::parse(canonical), sc);
  EXPECT_EQ(scenario::Scenario::parse(canonical).describe(), canonical);
}

TEST_F(TraceProfileFiles, ScenarioValidationPinsTraceMessages) {
  const std::string text =
      "{\"version\": 1, \"name\": \"bad\", \"groups\": "
      "[{\"name\": \"g\", \"supply\": \"trace:-1:t.csv\"}]}";
  try {
    (void)scenario::Scenario::parse(text);
    FAIL() << "expected scenario parse to reject the bad trace period";
  } catch (const std::invalid_argument& e) {
    EXPECT_EQ(std::string(e.what()),
              "fleet spec: supply trace period_s must be finite and > 0");
  }
}

}  // namespace
}  // namespace iprune::fleet
