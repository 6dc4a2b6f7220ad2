// Differential check: a single-device fleet must reproduce a hand-built
// standalone engine stack exactly — same logits (bitwise), same chained
// logits checksum, same power/fault counters, same telemetry registry.
// The standalone side below deliberately re-implements the construction
// recipe documented in src/fleet/device_sim.hpp from the resolved
// DeviceSpec alone; if DeviceSim's seeding, draw order, or configuration
// drifts, this test is what catches it.

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "device/config.hpp"
#include "device/corruption.hpp"
#include "device/msp430.hpp"
#include "engine/engine.hpp"
#include "fault/injector.hpp"
#include "fault/testbed.hpp"
#include "fleet/orchestrator.hpp"
#include "telemetry/sink.hpp"
#include "util/hash.hpp"
#include "util/rng.hpp"

namespace iprune::fleet {
namespace {

// Must match fault::kCalibrationSamples, which DeviceSim uses: the
// calibration batch drawn (before the sample batch) from the device's
// model Rng stream. Restated here so a change to it shows up as a drift.
constexpr std::size_t kCalibrationSamples = 8;

struct StandaloneRun {
  std::size_t inferences_done = 0;
  std::uint64_t logits_checksum = 0;
  std::vector<float> last_logits;
  std::size_t power_failures = 0;
  std::size_t injected_outages = 0;
  std::uint64_t events = 0;
  std::size_t reexecuted_jobs = 0;
  std::size_t integrity_rollbacks = 0;
  telemetry::MetricsRegistry registry;
};

StandaloneRun run_standalone(const DeviceSpec& spec) {
  util::Rng rng(spec.model_seed);
  nn::Graph graph = spec.model == ModelKind::kTiny
                        ? fault::make_tiny_graph(rng)
                        : fault::make_multipath_graph(rng);
  const nn::Tensor calibration =
      fault::make_batch(rng, graph, kCalibrationSamples);
  const nn::Tensor samples = fault::make_batch(rng, graph, spec.inferences);

  device::Msp430Device device(device::DeviceConfig::msp430fr5994(),
                              spec.power.make());

  engine::EngineConfig config;
  config.mode = spec.mode;
  const bool corrupted = spec.write_ber > 0.0 || spec.read_ber > 0.0;
  if (corrupted) {
    config.integrity.protect_progress = true;
    config.integrity.seal_regions = true;
    config.integrity.scrub_on_boot = true;
  }
  engine::DeployedModel model(graph, config, device, calibration);

  std::unique_ptr<device::CorruptionModel> corruption;
  if (corrupted) {
    device::CorruptionConfig cc;
    cc.seed = spec.stream_seed;
    cc.write_ber = spec.write_ber;
    cc.read_ber = spec.read_ber;
    corruption = std::make_unique<device::CorruptionModel>(cc);
    device.nvm().set_corruption(corruption.get());
  }

  fault::FaultInjector injector(spec.schedule);
  injector.set_event_budget(spec.event_budget != 0
                                ? spec.event_budget
                                : fault::FaultInjector::kNoBudget);
  device.set_fault_hook(&injector);

  telemetry::RegistrySink sink;
  if (spec.telemetry) {
    device.set_trace_sink(&sink);
  }

  engine::IntermittentEngine engine(model, device);

  StandaloneRun out;
  for (std::size_t i = 0; i < spec.inferences; ++i) {
    engine::InferenceResult inference =
        engine.run(fault::slice_sample(samples, i));
    EXPECT_TRUE(inference.stats.completed);
    out.reexecuted_jobs += inference.stats.reexecuted_jobs;
    out.integrity_rollbacks += inference.stats.integrity_rollbacks;
    util::Fnv1a digest;
    digest.fold_u64(out.logits_checksum);
    digest.fold_f32(inference.logits.data(), inference.logits.size());
    out.logits_checksum = digest.value();
    out.last_logits = std::move(inference.logits);
    ++out.inferences_done;
  }

  device.set_fault_hook(nullptr);
  device.set_trace_sink(nullptr);
  device.nvm().set_corruption(nullptr);
  out.power_failures = device.power().stats().power_failures;
  out.injected_outages = device.power().stats().injected_failures;
  out.events = injector.total_events();
  if (spec.telemetry) {
    out.registry = sink.take_registry();
  }
  return out;
}

/// Gateway that keeps every streamed DeviceResult for inspection.
class CapturingGateway final : public MetricsGateway {
 public:
  void on_device(const DeviceResult& result) override {
    devices.push_back(result);
  }
  void on_fleet(const FleetResult&) override { ++fleet_calls; }
  [[nodiscard]] std::string describe() const override { return "capture"; }

  std::vector<DeviceResult> devices;
  int fleet_calls = 0;
};

void expect_matches(const DeviceResult& fleet, const StandaloneRun& solo) {
  EXPECT_TRUE(fleet.completed);
  EXPECT_FALSE(fleet.failed) << fleet.error;
  EXPECT_EQ(fleet.inferences_done, solo.inferences_done);

  // Bitwise logit equality, not approximate: the fleet path must be the
  // same computation, not a numerically similar one.
  ASSERT_EQ(fleet.last_logits.size(), solo.last_logits.size());
  for (std::size_t i = 0; i < solo.last_logits.size(); ++i) {
    EXPECT_EQ(fleet.last_logits[i], solo.last_logits[i]) << "logit " << i;
  }
  EXPECT_EQ(fleet.logits_checksum, solo.logits_checksum);

  EXPECT_EQ(fleet.power_failures, solo.power_failures);
  EXPECT_EQ(fleet.injected_outages, solo.injected_outages);
  EXPECT_EQ(fleet.events, solo.events);
  EXPECT_EQ(fleet.reexecuted_jobs, solo.reexecuted_jobs);
  EXPECT_EQ(fleet.integrity_rollbacks, solo.integrity_rollbacks);

  EXPECT_EQ(fleet.registry.events_seen(), solo.registry.events_seen());
  for (std::size_t c = 0; c < telemetry::kEventClassCount; ++c) {
    const auto cls = static_cast<telemetry::EventClass>(c);
    EXPECT_EQ(fleet.registry.for_class(cls).events,
              solo.registry.for_class(cls).events);
    EXPECT_EQ(fleet.registry.for_class(cls).energy_j,
              solo.registry.for_class(cls).energy_j);
    EXPECT_EQ(fleet.registry.for_class(cls).bytes,
              solo.registry.for_class(cls).bytes);
    EXPECT_EQ(fleet.registry.for_class(cls).macs,
              solo.registry.for_class(cls).macs);
  }
}

DeviceResult run_single_device_fleet(const FleetSpec& spec) {
  const FleetOrchestrator orchestrator(spec);
  CapturingGateway capture;
  runtime::ThreadPool pool(1);
  const FleetResult result = orchestrator.run(&pool, &capture);
  EXPECT_EQ(result.total.devices, 1u);
  EXPECT_EQ(capture.fleet_calls, 1);
  EXPECT_EQ(capture.devices.size(), 1u);
  return capture.devices.front();
}

TEST(FleetDifferential, CleanContinuousDeviceMatchesStandaloneStack) {
  FleetSpec spec;
  spec.seed = 77;
  spec.inferences = 3;
  spec.telemetry = true;
  DeviceGroup group;
  group.name = "mains";
  group.count = 1;
  group.model = ModelKind::kTiny;
  group.mode = engine::PreservationMode::kImmediate;
  group.power = PowerProfile::continuous();
  spec.groups = {group};

  const std::vector<DeviceSpec> devices = spec.resolve();
  ASSERT_EQ(devices.size(), 1u);
  const DeviceResult fleet = run_single_device_fleet(spec);
  const StandaloneRun solo = run_standalone(devices[0]);

  expect_matches(fleet, solo);
  EXPECT_EQ(fleet.power_failures, 0u);  // mains power never fails
  EXPECT_GT(fleet.events, 0u);
}

TEST(FleetDifferential, IntermittentCorruptedDeviceMatchesStandaloneStack) {
  // The hard case: a starved harvest supply (organic brownouts), a forced
  // outage schedule, and NVM corruption arming the integrity layer. Every
  // replay/rollback decision must land identically on both sides.
  FleetSpec spec;
  spec.seed = 1234;
  spec.inferences = 8;  // must outrun the ~104 uJ buffer to brown out
  spec.telemetry = true;
  DeviceGroup group;
  group.name = "harsh";
  group.count = 1;
  group.model = ModelKind::kTiny;
  group.mode = engine::PreservationMode::kTaskAtomic;
  // 10 uW: the ~104 uJ buffer covers roughly six tiny inferences, so the
  // run browns out organically after the injected outage's full recharge.
  group.power = PowerProfile::constant(1e-5);
  group.schedule = fault::OutageSchedule::at_events({100});
  group.write_ber = 1e-6;
  spec.groups = {group};

  const std::vector<DeviceSpec> devices = spec.resolve();
  ASSERT_EQ(devices.size(), 1u);
  const DeviceResult fleet = run_single_device_fleet(spec);
  const StandaloneRun solo = run_standalone(devices[0]);

  expect_matches(fleet, solo);
  EXPECT_EQ(fleet.injected_outages, 1u);
  EXPECT_GT(fleet.power_failures, fleet.injected_outages)
      << "expected organic brownouts on a 10 uW supply";
}

TEST(FleetDifferential, MultipathTaskModeMatchesStandaloneStack) {
  FleetSpec spec;
  spec.seed = 9;
  spec.inferences = 2;
  spec.telemetry = false;  // also cover the no-telemetry construction path
  DeviceGroup group;
  group.name = "multi";
  group.count = 1;
  group.model = ModelKind::kMultipath;
  group.mode = engine::PreservationMode::kTaskAtomic;
  group.power = PowerProfile::strong();
  spec.groups = {group};

  const std::vector<DeviceSpec> devices = spec.resolve();
  ASSERT_EQ(devices.size(), 1u);
  const DeviceResult fleet = run_single_device_fleet(spec);
  const StandaloneRun solo = run_standalone(devices[0]);
  expect_matches(fleet, solo);
}

}  // namespace
}  // namespace iprune::fleet
