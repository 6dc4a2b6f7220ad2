#include "fleet/spec.hpp"

#include <gtest/gtest.h>

#include <set>
#include <stdexcept>
#include <string>

namespace iprune::fleet {
namespace {

TEST(FleetSpec, DescribeParseRoundTrip) {
  FleetSpec spec = FleetSpec::example(20);
  spec.deadline_s = 12.5;
  spec.telemetry = true;
  spec.batch = 64;
  const FleetSpec reparsed = FleetSpec::parse(spec.describe());
  EXPECT_EQ(reparsed, spec);
  // Round-trip is a fixpoint: describe(parse(describe(x))) == describe(x).
  EXPECT_EQ(reparsed.describe(), spec.describe());
}

TEST(FleetSpec, RoundTripPreservesSchedulesAndCorruption) {
  FleetSpec spec;
  DeviceGroup group;
  group.name = "noisy";
  group.count = 3;
  group.model = ModelKind::kMultipath;
  group.mode = engine::PreservationMode::kTaskAtomic;
  group.power = PowerProfile::solar(7.25e-3, 0.125);
  group.schedule =
      fault::OutageSchedule::random(42, 0.01, 8).with_torn_random();
  group.write_ber = 1.5e-6;
  group.read_ber = 2.5e-7;
  spec.groups = {group};
  EXPECT_EQ(FleetSpec::parse(spec.describe()), spec);
}

TEST(FleetSpec, ParseAcceptsCommentsAndBlankLines) {
  const FleetSpec spec = FleetSpec::parse(
      "# a comment\n"
      "\n"
      "fleet: seed=9 inferences=3\n"
      "  # indented comment\n"
      "group: name=a count=2 model=tiny mode=immediate supply=weak\n");
  EXPECT_EQ(spec.seed, 9u);
  EXPECT_EQ(spec.inferences, 3u);
  ASSERT_EQ(spec.groups.size(), 1u);
  EXPECT_EQ(spec.groups[0].power, PowerProfile::weak());
}

/// Asserts FleetSpec::parse(text) throws std::invalid_argument with
/// exactly `expected`.
void expect_parse_error(const std::string& text, const std::string& expected) {
  try {
    (void)FleetSpec::parse(text);
    FAIL() << "expected parse to reject: " << text;
  } catch (const std::invalid_argument& e) {
    EXPECT_EQ(std::string(e.what()), expected) << "input: " << text;
  }
}

TEST(FleetSpec, ParseRejectsMalformedInput) {
  EXPECT_THROW(FleetSpec::parse(""), std::invalid_argument);
  EXPECT_THROW(FleetSpec::parse("bogus line\n"), std::invalid_argument);
  EXPECT_THROW(FleetSpec::parse("fleet: seed=1\n"),
               std::invalid_argument);  // no groups
  EXPECT_THROW(
      FleetSpec::parse("group: count=1 model=tiny\n"),  // no name
      std::invalid_argument);
  EXPECT_THROW(
      FleetSpec::parse("group: name=a count=0\n"),  // zero count
      std::invalid_argument);
  EXPECT_THROW(
      FleetSpec::parse("group: name=a count=1 model=resnet50\n"),
      std::invalid_argument);
  EXPECT_THROW(
      FleetSpec::parse("group: name=a count=1 supply=fusion\n"),
      std::invalid_argument);
  EXPECT_THROW(
      FleetSpec::parse("group: name=a count=1 write_ber=1.5\n"),
      std::invalid_argument);
  EXPECT_THROW(
      FleetSpec::parse("fleet: seed=1 warp=9\n"
                       "group: name=a count=1\n"),
      std::invalid_argument);
  // Parse applies every fleet range rule, NaN included, with the messages
  // fleet_run prints after its flag overrides.
  expect_parse_error("group: name=a count=1 write_ber=nan\n",
                     "fleet spec: group 'a' bit-error rates must be in [0, 1]");
  expect_parse_error("group: name=a count=1 read_ber=nan\n",
                     "fleet spec: group 'a' bit-error rates must be in [0, 1]");
  expect_parse_error("fleet: deadline_s=-1\ngroup: name=a count=1\n",
                     "fleet spec: deadline_s must be finite and >= 0");
  expect_parse_error("fleet: deadline_s=nan\ngroup: name=a count=1\n",
                     "fleet spec: deadline_s must be finite and >= 0");
  expect_parse_error("fleet: event_budget=0\ngroup: name=a count=1\n",
                     "fleet spec: event_budget must be >= 1");
  expect_parse_error("group: name=a count=5\ngroup: name=a count=1\n",
                     "fleet spec: duplicate group name 'a'");
  expect_parse_error("group: name=a\"b count=2\n",
                     "fleet spec: group 'a\"b' name must match "
                     "[A-Za-z0-9_.-]+");
  // The device cap holds where a 64-bit sum of the counts would wrap.
  expect_parse_error("group: name=a count=65536\ngroup: name=b count=1\n",
                     "fleet spec: fleet exceeds 65536 devices");
  expect_parse_error("group: name=a count=9223372036854775808\n"
                     "group: name=b count=9223372036854775808\n",
                     "fleet spec: fleet exceeds 65536 devices");
}

TEST(FleetSpec, WithDevicesScalesProportionally) {
  FleetSpec spec;
  DeviceGroup a;
  a.name = "a";
  a.count = 3;
  DeviceGroup b;
  b.name = "b";
  b.count = 1;
  spec.groups = {a, b};

  const FleetSpec scaled = spec.with_devices(100);
  EXPECT_EQ(scaled.total_devices(), 100u);
  EXPECT_EQ(scaled.groups[0].count, 75u);
  EXPECT_EQ(scaled.groups[1].count, 25u);

  // Remainders go to the largest fractional share; totals always exact.
  for (const std::size_t n : {1u, 2u, 5u, 7u, 13u, 999u}) {
    const FleetSpec s = spec.with_devices(n);
    EXPECT_EQ(s.total_devices(), n) << n;
  }

  // Scaling below the group count drops empty groups.
  const FleetSpec one = spec.with_devices(1);
  ASSERT_EQ(one.groups.size(), 1u);
  EXPECT_EQ(one.groups[0].name, "a");

  EXPECT_THROW(spec.with_devices(0), std::invalid_argument);
  EXPECT_EQ(spec.with_devices(FleetSpec::kMaxDevices).total_devices(),
            FleetSpec::kMaxDevices);
  EXPECT_THROW(spec.with_devices(FleetSpec::kMaxDevices + 1),
               std::invalid_argument);
}

TEST(FleetSpec, ResolveIsDeterministicAndDecorrelated) {
  const FleetSpec spec = FleetSpec::example(30);
  const std::vector<DeviceSpec> a = spec.resolve();
  const std::vector<DeviceSpec> b = spec.resolve();
  ASSERT_EQ(a.size(), 30u);

  std::set<std::uint64_t> model_seeds;
  std::set<std::uint64_t> stream_seeds;
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].index, i);
    // Same spec resolves to the same devices, always.
    EXPECT_EQ(a[i].model_seed, b[i].model_seed);
    EXPECT_EQ(a[i].stream_seed, b[i].stream_seed);
    EXPECT_EQ(a[i].group, b[i].group);
    model_seeds.insert(a[i].model_seed);
    stream_seeds.insert(a[i].stream_seed);
  }
  // Every device draws a distinct stream.
  EXPECT_EQ(model_seeds.size(), a.size());
  EXPECT_EQ(stream_seeds.size(), a.size());

  // A different fleet seed re-seeds every device.
  FleetSpec other = spec;
  other.seed = spec.seed + 1;
  const std::vector<DeviceSpec> c = other.resolve();
  EXPECT_NE(c[0].model_seed, a[0].model_seed);
}

TEST(FleetSpec, ResolveReseedsRandomSchedulesPerDevice) {
  FleetSpec spec;
  DeviceGroup group;
  group.name = "g";
  group.count = 4;
  group.schedule = fault::OutageSchedule::random(5, 0.01);
  spec.groups = {group};
  const std::vector<DeviceSpec> devices = spec.resolve();
  std::set<std::uint64_t> seeds;
  for (const DeviceSpec& d : devices) {
    EXPECT_EQ(d.schedule.mode, fault::ScheduleMode::kRandom);
    EXPECT_EQ(d.schedule.probability, 0.01);
    seeds.insert(d.schedule.seed);
  }
  EXPECT_EQ(seeds.size(), devices.size());
}

TEST(PowerProfile, DescribeParseRoundTrip) {
  for (const PowerProfile& p :
       {PowerProfile::continuous(), PowerProfile::strong(),
        PowerProfile::weak(), PowerProfile::constant(1.25e-3),
        PowerProfile::solar(8.5e-3, 0.75)}) {
    EXPECT_EQ(PowerProfile::parse(p.describe()), p) << p.describe();
    EXPECT_NE(p.make(), nullptr);
  }
  EXPECT_THROW(PowerProfile::parse("solar:1"), std::invalid_argument);
  EXPECT_THROW(PowerProfile::parse("const:x"), std::invalid_argument);
}

}  // namespace
}  // namespace iprune::fleet
