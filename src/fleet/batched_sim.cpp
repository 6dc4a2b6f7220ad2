#include "fleet/batched_sim.hpp"

#include <memory>
#include <stdexcept>

#include "engine/engine.hpp"

namespace iprune::fleet {

bool batched_eligible(const DeviceSpec& spec) {
  // integrity=on arms the CRC/scrub layer on a clean device, which is
  // outside the lockstep envelope — such devices fall back to the
  // standalone per-device path. The functional backend has no device
  // timeline at all (batching is a timeline optimization), so only
  // cycle-class backends qualify.
  return spec.schedule.mode != fault::ScheduleMode::kRandom &&
         spec.write_ber == 0.0 && spec.read_ber == 0.0 && !spec.telemetry &&
         spec.integrity != IntegrityMode::kOn &&
         spec.backend.kind != engine::BackendKind::kFunctional;
}

std::vector<DeviceResult> run_cohort(std::span<const DeviceSpec> specs) {
  std::vector<std::unique_ptr<DeviceSim>> owned;
  std::vector<DeviceSim*> sims;
  std::vector<engine::CohortMember> members;
  owned.reserve(specs.size());
  sims.reserve(specs.size());
  members.reserve(specs.size());
  for (const DeviceSpec& spec : specs) {
    DeviceSim& sim = *owned.emplace_back(std::make_unique<DeviceSim>(spec));
    sims.push_back(&sim);
    members.push_back({sim.model_.get(), sim.backend_.get()});
  }

  std::unique_ptr<engine::IntermittentEngine> cohort;
  if (sims.size() >= 2) {
    try {
      cohort = std::make_unique<engine::IntermittentEngine>(
          std::span<const engine::CohortMember>(members));
    } catch (const std::invalid_argument&) {
      // Outside the lockstep envelope: step the sims already built.
    }
  }

  std::vector<DeviceResult> results;
  results.reserve(sims.size());
  if (cohort != nullptr) {
    while (sims[0]->active()) {
      DeviceSim::step_all(sims, *cohort);
    }
    for (DeviceSim* sim : sims) {
      results.push_back(sim->finish(*sims[0]));
    }
  } else {
    for (DeviceSim* sim : sims) {
      while (sim->step()) {
      }
      results.push_back(sim->finish());
    }
  }
  return results;
}

}  // namespace iprune::fleet
