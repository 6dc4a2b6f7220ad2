// Harvest models under both simulation strategies. The batched sim steps
// cohorts in lockstep on one leader timeline; it must reproduce the
// stepping oracle's FNV-1a fleet digest exactly for every analytic supply,
// whose phase changes land mid-operation and mid-recharge (where
// PowerManager::recharge walks segment() windows).

#include <gtest/gtest.h>

#include <string>

#include "fault/checker.hpp"
#include "fleet/orchestrator.hpp"
#include "scenario/scenario.hpp"

namespace iprune::fleet {
namespace {

std::uint64_t digest_under(const scenario::Scenario& sc, SimKind sim) {
  const FleetOrchestrator orchestrator(sc.to_fleet(sim));
  const FleetResult result = orchestrator.run();
  EXPECT_EQ(result.total.failed, 0u);
  return result.checksum;
}

/// One two-device group on `supply`, compared across sim kinds.
void expect_sims_agree(const std::string& supply, const std::string& mode) {
  scenario::Scenario sc;
  sc.name = "harvest-sim";
  sc.seed = 7;
  fleet::DeviceGroup group;
  group.name = "g";
  group.count = 2;
  group.mode = fault::parse_preservation_mode(mode);
  group.power = PowerProfile::parse(supply);
  sc.groups = {group};
  sc.validate();

  const std::uint64_t stepping = digest_under(sc, SimKind::kStepping);
  const std::uint64_t batched = digest_under(sc, SimKind::kBatched);
  EXPECT_EQ(batched, stepping) << supply << " mode=" << mode;
}

TEST(HarvestSim, RfAgreesAcrossSimKinds) {
  expect_sims_agree("rf:0.015:0.02:0.6", "immediate");
  expect_sims_agree("rf:0.02:0.05:0.4", "task");
}

TEST(HarvestSim, KineticAgreesAcrossSimKinds) {
  expect_sims_agree("kinetic:0.02:0.05:4:0.8", "immediate");
  expect_sims_agree("kinetic:0.03:0.08:6:0.6", "accumulate");
}

TEST(HarvestSim, IndoorSolarAgreesAcrossSimKinds) {
  expect_sims_agree("indoor:0.008:0.002:4.0:0.7", "immediate");
  expect_sims_agree("indoor:0.012:0.001:2.0:0.5", "task");
}

TEST(HarvestSim, DiurnalAgreesAcrossSimKinds) {
  expect_sims_agree("diurnal:0.016:8.0:0.5", "immediate");
  expect_sims_agree("diurnal:0.02:4.0:0.8", "task");
}

TEST(HarvestSim, SolarPresetAgreesAcrossSimKinds) {
  expect_sims_agree("solar:0.012:2.0", "immediate");
}

}  // namespace
}  // namespace iprune::fleet
