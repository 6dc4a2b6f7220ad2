// Batched lockstep fleet mode: under both sim kinds (stepping oracle,
// batched cohorts) a fleet produces bit-identical results — per-device and
// fleet-wide — across lane counts. The batched mode is pure wall-clock
// optimisation; these tests are its correctness gate.

#include <gtest/gtest.h>

#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "fleet/batched_sim.hpp"
#include "fleet/orchestrator.hpp"

namespace iprune::fleet {
namespace {

/// Capture every streamed DeviceResult for field-by-field comparison.
class CaptureGateway final : public MetricsGateway {
 public:
  void on_device(const DeviceResult& result) override {
    devices.push_back(result);
  }
  void on_fleet(const FleetResult&) override {}
  [[nodiscard]] std::string describe() const override { return "capture"; }

  std::vector<DeviceResult> devices;
};

void expect_identical(const DeviceResult& a, const DeviceResult& b) {
  EXPECT_EQ(a.index, b.index);
  EXPECT_EQ(a.group, b.group);
  EXPECT_EQ(a.completed, b.completed);
  EXPECT_EQ(a.deadline_missed, b.deadline_missed);
  EXPECT_EQ(a.failed, b.failed);
  EXPECT_EQ(a.error, b.error);
  EXPECT_EQ(a.verdict, b.verdict);
  EXPECT_EQ(a.inferences_done, b.inferences_done);
  // Exact double equality: the timelines must be the same computation,
  // not merely close.
  EXPECT_EQ(a.sim_s, b.sim_s);
  EXPECT_EQ(a.on_s, b.on_s);
  EXPECT_EQ(a.off_s, b.off_s);
  EXPECT_EQ(a.consumed_j, b.consumed_j);
  EXPECT_EQ(a.harvested_j, b.harvested_j);
  EXPECT_EQ(a.wasted_j, b.wasted_j);
  EXPECT_EQ(a.power_failures, b.power_failures);
  EXPECT_EQ(a.injected_outages, b.injected_outages);
  EXPECT_EQ(a.events, b.events);
  EXPECT_EQ(a.nvm_bytes_read, b.nvm_bytes_read);
  EXPECT_EQ(a.nvm_bytes_written, b.nvm_bytes_written);
  EXPECT_EQ(a.macs, b.macs);
  EXPECT_EQ(a.reexecuted_jobs, b.reexecuted_jobs);
  EXPECT_EQ(a.integrity_rollbacks, b.integrity_rollbacks);
  EXPECT_EQ(a.logits_checksum, b.logits_checksum);
  EXPECT_EQ(a.last_logits, b.last_logits);
  EXPECT_EQ(a.latency_us.count(), b.latency_us.count());
  EXPECT_EQ(a.latency_us.sum(), b.latency_us.sum());
}

FleetSpec test_spec(SimKind sim) {
  // The built-in heterogeneous mix: all harvest profiles, both models,
  // all preservation modes, plus a random-schedule (cohort-ineligible)
  // fault group. 64 devices across batches of 16.
  FleetSpec spec = FleetSpec::example(64);
  spec.inferences = 2;
  spec.batch = 16;
  spec.sim = sim;
  return spec;
}

TEST(FleetBatched, SimKindRoundTripsThroughSpecText) {
  FleetSpec spec = FleetSpec::example(8);
  EXPECT_EQ(spec.sim, SimKind::kStepping);
  // Default stays off the describe() line (older spec files parse
  // unchanged and older binaries can read specs written by this one).
  EXPECT_EQ(spec.describe().find(" sim="), std::string::npos);
  EXPECT_EQ(FleetSpec::parse(spec.describe()), spec);

  spec.sim = SimKind::kBatched;
  EXPECT_NE(spec.describe().find(" sim=batched"), std::string::npos);
  EXPECT_EQ(FleetSpec::parse(spec.describe()), spec);

  EXPECT_THROW(parse_sim_kind("warp"), std::invalid_argument);
  for (const SimKind kind : {SimKind::kStepping, SimKind::kBatched}) {
    EXPECT_EQ(parse_sim_kind(sim_kind_name(kind)), kind);
  }
}

// There is no `scheduler` sim kind: a spec naming it fails through the
// ordinary unknown-sim diagnostic (no alias).
TEST(FleetBatched, SchedulerSimIsUnknown) {
  FleetSpec spec = FleetSpec::example(8);
  spec.sim = SimKind::kBatched;
  std::string text = spec.describe();
  const std::string batched = "sim=batched";
  const std::size_t at = text.find(batched);
  ASSERT_NE(at, std::string::npos);
  text.replace(at, batched.size(), "sim=scheduler");
  try {
    (void)FleetSpec::parse(text);
    FAIL() << "sim=scheduler parsed";
  } catch (const std::invalid_argument& e) {
    EXPECT_STREQ(e.what(), "fleet spec: unknown sim 'scheduler'");
  }
}

TEST(FleetBatched, PerDeviceResultsIdenticalAcrossSimKinds) {
  runtime::ThreadPool serial(1);
  CaptureGateway stepping;
  (void)FleetOrchestrator(test_spec(SimKind::kStepping))
      .run(&serial, &stepping);
  ASSERT_EQ(stepping.devices.size(), 64u);

  CaptureGateway batched;
  const FleetResult result =
      FleetOrchestrator(test_spec(SimKind::kBatched)).run(&serial, &batched);
  ASSERT_EQ(batched.devices.size(), stepping.devices.size());
  for (std::size_t i = 0; i < batched.devices.size(); ++i) {
    expect_identical(batched.devices[i], stepping.devices[i]);
  }
  // And the digest, which CI compares across whole runs.
  const FleetResult oracle =
      FleetOrchestrator(test_spec(SimKind::kStepping)).run(&serial);
  EXPECT_EQ(result.checksum, oracle.checksum);
}

TEST(FleetBatched, ChecksumStableAcrossLaneCounts) {
  const FleetOrchestrator orchestrator(test_spec(SimKind::kBatched));
  runtime::ThreadPool serial(1);
  const FleetResult reference = orchestrator.run(&serial);
  EXPECT_GT(reference.total.power_failures, 0u);
  for (const std::size_t lanes : {2u, 4u}) {
    runtime::ThreadPool pool(lanes);
    const FleetResult result = orchestrator.run(&pool);
    EXPECT_EQ(result.checksum, reference.checksum) << lanes << " lanes";
    EXPECT_EQ(result.total.events, reference.total.events);
    EXPECT_EQ(result.total.consumed_j, reference.total.consumed_j);
  }
}

TEST(FleetBatched, RunCohortMatchesStandaloneDevices) {
  // Direct unit check, no orchestrator: one eligible group simulated as
  // a cohort must reproduce each member's standalone run exactly.
  FleetSpec spec = test_spec(SimKind::kBatched);
  const std::vector<DeviceSpec> devices = spec.resolve();

  // Pick the first run of >= 3 consecutive eligible same-group devices.
  std::size_t begin = 0;
  std::size_t count = 0;
  for (std::size_t i = 0; i < devices.size() && count < 3; ++i) {
    if (batched_eligible(devices[i]) &&
        (count == 0 || devices[i].group == devices[begin].group)) {
      if (count == 0) {
        begin = i;
      }
      ++count;
    } else {
      count = 0;
    }
  }
  ASSERT_EQ(count, 3u) << "example fleet must contain an eligible cohort";

  const std::vector<DeviceResult> cohort =
      run_cohort(std::span(devices.data() + begin, count));
  ASSERT_EQ(cohort.size(), count);
  for (std::size_t m = 0; m < count; ++m) {
    const DeviceResult standalone = run_device(devices[begin + m]);
    expect_identical(cohort[m], standalone);
  }
  // Distinct per-member weights must yield distinct logits — proof the
  // cohort is not accidentally simulating one device N times.
  EXPECT_NE(cohort[0].logits_checksum, cohort[1].logits_checksum);
  EXPECT_NE(cohort[1].logits_checksum, cohort[2].logits_checksum);
}

/// One 3-device multipath group on mains power whose only outages are the
/// fixed ones in `schedule` (integrity left on auto: clean NVM, so the
/// group stays inside the lockstep envelope).
std::vector<DeviceSpec> torn_group(engine::PreservationMode mode,
                                   const std::string& schedule) {
  FleetSpec spec;
  spec.inferences = 2;
  DeviceGroup group;
  group.name = "torn";
  group.count = 3;
  group.model = ModelKind::kMultipath;
  group.mode = mode;
  group.power = PowerProfile::continuous();
  group.schedule = fault::OutageSchedule::parse(schedule);
  spec.groups = {group};
  return spec.resolve();
}

bool same_outcome(const DeviceResult& a, const DeviceResult& b) {
  return a.failed == b.failed && a.error == b.error &&
         a.inferences_done == b.inferences_done &&
         a.logits_checksum == b.logits_checksum;
}

// Torn commits pinned per preservation mode, no fuzzing involved. Every
// fixed outage lands on a staged commit, and keep:N lands a prefix that
// splits a data field at one commit and the progress counter at another,
// so followers must replay the leader's surviving bytes mid-field.
TEST(FleetBatched, TornCommitsReplayIdenticallyInCohorts) {
  struct Case {
    engine::PreservationMode mode;
    const char* outages;
    const char* torn;
    /// Whether the tears change the outcome. kAccumulateInVm restarts the
    /// inference after any outage, which rewrites every torn prefix.
    bool visible;
  };
  const Case cases[] = {
      // 495: 3 of the 4 bytes of a middle k-slot psum (branch3x3), which
      // the retry then reads back; 800: the second inference's pool
      // commit keeps 1 byte of its counter (crash-consistency failure).
      {engine::PreservationMode::kImmediate, "fixed:495,800", ";torn=keep:3",
       true},
      // 523: the middle k-slot task commit keeps one psum and 3 bytes of
      // the next; 1015: a pool-row task commit keeps 1 counter byte.
      {engine::PreservationMode::kTaskAtomic, "fixed:523,1015", ";torn=keep:7",
       true},
      // 0: the input load splits its second sample; 3: the progress reset
      // keeps 3 of its 4 bytes; 176: a concat copy chunk splits a field.
      {engine::PreservationMode::kAccumulateInVm, "fixed:0,3,176",
       ";torn=keep:3", false},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.outages);
    const std::vector<DeviceSpec> torn =
        torn_group(c.mode, std::string(c.outages) + c.torn);
    const std::vector<DeviceSpec> untorn = torn_group(c.mode, c.outages);
    for (const DeviceSpec& spec : torn) {
      ASSERT_TRUE(batched_eligible(spec));
    }
    const std::vector<DeviceResult> cohort = run_cohort(torn);
    ASSERT_EQ(cohort.size(), torn.size());
    std::size_t differs = 0;
    for (std::size_t m = 0; m < torn.size(); ++m) {
      const DeviceResult standalone = run_device(torn[m]);
      expect_identical(cohort[m], standalone);
      EXPECT_GE(standalone.injected_outages, 2u);
      if (!same_outcome(standalone, run_device(untorn[m]))) {
        ++differs;
      }
    }
    if (c.visible) {
      EXPECT_GT(differs, 0u) << "no tear changed an outcome";
    } else {
      EXPECT_EQ(differs, 0u);
    }
  }
}

/// A fleet of three devices of the one group `group`, `inferences` each.
FleetSpec three_of(const std::string& group, std::size_t inferences) {
  FleetSpec spec;
  spec.inferences = inferences;
  spec.groups = {DeviceGroup::parse("name=g count=3 " + group)};
  return spec;
}

/// run_cohort over `devices`, checked field by field against run_device.
std::vector<DeviceResult> cohort_matching_standalone(
    std::span<const DeviceSpec> devices) {
  for (const DeviceSpec& d : devices) {
    EXPECT_TRUE(batched_eligible(d));
  }
  std::vector<DeviceResult> cohort = run_cohort(devices);
  EXPECT_EQ(cohort.size(), devices.size());
  for (std::size_t m = 0; m < cohort.size() && m < devices.size(); ++m) {
    SCOPED_TRACE(m);
    expect_identical(cohort[m], run_device(devices[m]));
  }
  return cohort;
}

// Each way a round ends a device, pinned cohort against standalone: the
// restart budget, the event-budget watchdog and the deadline end every
// member in the same round as its standalone run.
TEST(FleetBatched, RestartBudgetEndsEveryMember) {
  const FleetSpec spec = three_of(
      "model=tiny mode=accumulate supply=continuous schedule=every:40", 2);
  const std::vector<DeviceSpec> devices = spec.resolve();
  for (const DeviceResult& r : cohort_matching_standalone(devices)) {
    EXPECT_TRUE(r.failed);
    EXPECT_EQ(r.error, "inference exceeded the engine restart budget");
    EXPECT_EQ(r.inferences_done, 0u);
  }
}

TEST(FleetBatched, WatchdogEndsEveryMember) {
  FleetSpec spec = three_of("model=tiny mode=immediate supply=continuous", 4);
  spec.event_budget = 200;
  const std::vector<DeviceSpec> devices = spec.resolve();
  for (const DeviceResult& r : cohort_matching_standalone(devices)) {
    EXPECT_TRUE(r.failed);
    EXPECT_NE(r.error.find("event budget exhausted"), std::string::npos)
        << r.error;
    EXPECT_EQ(r.inferences_done, 1u);
  }
}

TEST(FleetBatched, DeadlineEndsEveryMember) {
  FleetSpec spec = three_of("model=tiny mode=immediate supply=weak", 6);
  spec.deadline_s = 0.005;
  const std::vector<DeviceSpec> devices = spec.resolve();
  const std::vector<DeviceResult> cohort =
      cohort_matching_standalone(devices);
  for (const DeviceResult& r : cohort) {
    EXPECT_TRUE(r.deadline_missed);
    EXPECT_FALSE(r.failed);
    EXPECT_EQ(r.inferences_done, 3u);
  }
  EXPECT_NE(cohort[0].logits_checksum, cohort[1].logits_checksum);
}

// A cohort the engine rejects steps the sims it built, and a one-device
// span is one stepped sim; both match standalone runs.
TEST(FleetBatched, IncompatibleCohortStepsEachMember) {
  FleetSpec spec;
  spec.inferences = 2;
  spec.groups = {DeviceGroup::parse("name=a count=1 model=tiny"),
                 DeviceGroup::parse("name=b count=1 model=multipath")};
  const std::vector<DeviceSpec> devices = spec.resolve();
  for (const DeviceResult& r : cohort_matching_standalone(devices)) {
    EXPECT_TRUE(r.completed);
  }
  (void)cohort_matching_standalone(std::span(devices.data(), 1));
}

// parse() rejects inferences=0, a programmatic spec does not: such a
// device completes without running, alone or in a cohort.
TEST(FleetBatched, ZeroInferencesCompleteWithoutRunning) {
  const FleetSpec spec = three_of("model=tiny mode=immediate supply=strong", 0);
  const std::vector<DeviceSpec> devices = spec.resolve();
  for (const DeviceResult& r : cohort_matching_standalone(devices)) {
    EXPECT_TRUE(r.completed);
    EXPECT_FALSE(r.failed);
    EXPECT_EQ(r.inferences_done, 0u);
    EXPECT_EQ(r.events, 0u);
  }
}

TEST(FleetBatched, IneligibleSpecsFallBackAndStillMatch) {
  // Random schedules are re-seeded per device: never lockstep-eligible.
  FleetSpec spec = test_spec(SimKind::kBatched);
  for (const DeviceSpec& d : spec.resolve()) {
    if (d.schedule.mode == fault::ScheduleMode::kRandom) {
      EXPECT_FALSE(batched_eligible(d));
    }
  }
  // Telemetry arms per-device trace sinks — whole fleet falls back, and
  // results still match the stepping oracle (registry included).
  FleetSpec telemetry_spec = test_spec(SimKind::kBatched);
  telemetry_spec.telemetry = true;
  FleetSpec telemetry_oracle = telemetry_spec;
  telemetry_oracle.sim = SimKind::kStepping;
  runtime::ThreadPool serial(1);
  const FleetResult a = FleetOrchestrator(telemetry_spec).run(&serial);
  const FleetResult b = FleetOrchestrator(telemetry_oracle).run(&serial);
  EXPECT_EQ(a.checksum, b.checksum);
  EXPECT_EQ(a.registry.events_seen(), b.registry.events_seen());
  EXPECT_GT(a.registry.events_seen(), 0u);
}

}  // namespace
}  // namespace iprune::fleet
