// The backend= field through the fleet stack: spec round-trip, pinned
// validation messages, resolve() propagation, functional-device runs (no
// power model), batched-cohort eligibility, and the sim-strategy
// regression — sim=batched must be bit-identical to stepping for
// functional groups, which always fall back to per-device runs.

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>

#include "fleet/batched_sim.hpp"
#include "fleet/device_sim.hpp"
#include "fleet/orchestrator.hpp"
#include "fleet/spec.hpp"

namespace iprune::fleet {
namespace {

using engine::BackendConfig;
using engine::BackendKind;

DeviceGroup base_group() {
  DeviceGroup group;
  group.name = "g";
  group.count = 2;
  group.model = ModelKind::kTiny;
  group.power = PowerProfile::continuous();
  return group;
}

TEST(FleetBackend, GroupRoundTripsEveryPreset) {
  for (const BackendConfig& backend :
       {BackendConfig::msp430_fram(), BackendConfig::functional(),
        BackendConfig::reram(), BackendConfig::stt_mram()}) {
    DeviceGroup group = base_group();
    group.backend = backend;
    // describe() emits the full "group: ..." spec line; parse() takes the
    // key=value payload (FleetSpec::parse strips the tag).
    const std::string line = group.describe();
    const DeviceGroup reparsed =
        DeviceGroup::parse(line.substr(std::string("group: ").size()));
    EXPECT_EQ(reparsed, group) << backend.describe();
    EXPECT_EQ(reparsed.describe(), line) << backend.describe();
  }
}

TEST(FleetBackend, DefaultBackendIsOmittedFromDescribe) {
  const DeviceGroup group = base_group();
  EXPECT_EQ(group.describe().find("backend="), std::string::npos);

  DeviceGroup custom = base_group();
  custom.backend = BackendConfig::reram();
  EXPECT_NE(custom.describe().find("backend=reram"), std::string::npos);
}

TEST(FleetBackend, UnknownBackendMessageIsPinned) {
  try {
    DeviceGroup::parse("name=a count=1 backend=tpu");
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_STREQ(e.what(), "fleet spec: unknown backend 'tpu'");
  }
}

TEST(FleetBackend, FunctionalRequiresContinuousSupply) {
  try {
    DeviceGroup::parse("name=a count=1 supply=weak backend=functional");
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_STREQ(e.what(),
                 "fleet spec: group 'a' backend=functional requires "
                 "supply=continuous (no power model)");
  }
}

TEST(FleetBackend, FunctionalForbidsOutageSchedules) {
  try {
    DeviceGroup::parse(
        "name=a count=1 supply=continuous backend=functional "
        "schedule=every:50");
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_STREQ(e.what(),
                 "fleet spec: group 'a' backend=functional cannot take an "
                 "outage schedule");
  }
}

TEST(FleetBackend, ResolvePropagatesBackendToEveryDevice) {
  FleetSpec spec;
  DeviceGroup functional = base_group();
  functional.name = "fast";
  functional.backend = BackendConfig::functional();
  DeviceGroup reram = base_group();
  reram.name = "reram";
  reram.backend = BackendConfig::reram();
  spec.groups = {functional, reram};

  for (const DeviceSpec& d : spec.resolve()) {
    if (d.group == "fast") {
      EXPECT_EQ(d.backend, BackendConfig::functional());
    } else {
      EXPECT_EQ(d.backend, BackendConfig::reram());
    }
  }
}

TEST(FleetBackend, FunctionalDeviceCompletesWithoutPowerTimeline) {
  FleetSpec spec;
  spec.inferences = 3;
  DeviceGroup group = base_group();
  group.backend = BackendConfig::functional();
  spec.groups = {group};

  const std::vector<DeviceSpec> devices = spec.resolve();
  ASSERT_FALSE(devices.empty());
  const DeviceResult result = run_device(devices[0]);
  EXPECT_TRUE(result.completed);
  EXPECT_FALSE(result.failed);
  EXPECT_EQ(result.inferences_done, 3u);
  EXPECT_NE(result.logits_checksum, 0u);
  // No power model: no harvest ledger, no outages, no simulated time.
  EXPECT_EQ(result.power_failures, 0u);
  EXPECT_EQ(result.injected_outages, 0u);
  EXPECT_EQ(result.consumed_j, 0.0);
  EXPECT_EQ(result.harvested_j, 0.0);
  EXPECT_EQ(result.sim_s, 0.0);
  // Work volume is still real.
  EXPECT_GT(result.macs, 0u);
  EXPECT_GT(result.nvm_bytes_written, 0u);
}

TEST(FleetBackend, FunctionalLogitsMatchCycleOracle) {
  FleetSpec spec;
  spec.inferences = 2;
  DeviceGroup group = base_group();
  spec.groups = {group};
  const DeviceResult oracle = run_device(spec.resolve()[0]);

  group.backend = BackendConfig::functional();
  spec.groups = {group};
  const DeviceResult fast = run_device(spec.resolve()[0]);

  ASSERT_TRUE(oracle.completed);
  ASSERT_TRUE(fast.completed);
  EXPECT_EQ(fast.logits_checksum, oracle.logits_checksum);
  EXPECT_EQ(fast.last_logits, oracle.last_logits);
}

TEST(FleetBackend, BatchedEligibilityExcludesFunctionalOnly) {
  FleetSpec spec;
  DeviceGroup group = base_group();
  group.backend = BackendConfig::functional();
  spec.groups = {group};
  for (const DeviceSpec& d : spec.resolve()) {
    EXPECT_FALSE(batched_eligible(d));
  }

  group.backend = BackendConfig::stt_mram();
  spec.groups = {group};
  for (const DeviceSpec& d : spec.resolve()) {
    EXPECT_TRUE(batched_eligible(d));
  }
}

// SimKind::kBatched exists to accelerate the *cycle-class* power
// timeline; for a functional group (never cohort-eligible) it must be
// observationally identical to the stepping oracle.
TEST(FleetBackend, BatchedBitIdenticalToSteppingForFunctional) {
  FleetSpec spec;
  spec.inferences = 2;
  DeviceGroup functional = base_group();
  functional.name = "fast";
  functional.count = 4;
  functional.model = ModelKind::kMultipath;
  functional.mode = engine::PreservationMode::kTaskAtomic;
  functional.backend = BackendConfig::functional();
  spec.groups = {functional};

  FleetSpec stepping = spec;
  stepping.sim = SimKind::kStepping;
  FleetSpec batched = spec;
  batched.sim = SimKind::kBatched;

  const FleetResult ref = FleetOrchestrator(stepping).run();
  const FleetResult bat = FleetOrchestrator(batched).run();
  ASSERT_EQ(ref.total.completed, 4u);
  EXPECT_EQ(bat.checksum, ref.checksum);
}

// A mixed fleet — cycle, custom, and functional groups side by side —
// runs to completion under both sim strategies with identical checksums.
TEST(FleetBackend, MixedBackendFleetIsSimStrategyInvariant) {
  FleetSpec spec;
  spec.inferences = 1;
  DeviceGroup oracle = base_group();
  oracle.name = "oracle";
  oracle.power = PowerProfile::weak();
  DeviceGroup mram = base_group();
  mram.name = "mram";
  mram.backend = BackendConfig::stt_mram();
  mram.power = PowerProfile::strong();
  DeviceGroup fast = base_group();
  fast.name = "fast";
  fast.backend = BackendConfig::functional();
  spec.groups = {oracle, mram, fast};

  FleetSpec stepping = spec;
  stepping.sim = SimKind::kStepping;
  const FleetResult ref = FleetOrchestrator(stepping).run();
  EXPECT_EQ(ref.total.completed, ref.total.devices);

  FleetSpec batched = spec;
  batched.sim = SimKind::kBatched;
  EXPECT_EQ(FleetOrchestrator(batched).run().checksum, ref.checksum);
}

}  // namespace
}  // namespace iprune::fleet
