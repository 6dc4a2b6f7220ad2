#include "scenario/fuzz.hpp"

#include <exception>
#include <utility>

#include "util/splitmix.hpp"

namespace iprune::scenario {

namespace {

using fleet::PowerProfile;

engine::PreservationMode random_mode(util::Rng& rng) {
  const std::uint64_t draw = rng.uniform_index(10);
  if (draw < 5) {
    return engine::PreservationMode::kImmediate;
  }
  if (draw < 8) {
    return engine::PreservationMode::kTaskAtomic;
  }
  return engine::PreservationMode::kAccumulateInVm;
}

}  // namespace

PowerProfile random_power_profile(util::Rng& rng) {
  // Watts/periods are chosen so every profile averages >= ~0.5 mW — enough
  // to recharge the ~104 uJ energy buffer within a bounded simulated
  // window (the example fleet's "harsh" group runs at 0.5 mW in tier-1).
  switch (rng.uniform_index(9)) {
    case 0:
      return PowerProfile::continuous();
    case 1:
      return PowerProfile::strong();
    case 2:
      return PowerProfile::weak();
    case 3:
      return PowerProfile::constant(rng.uniform(1.0e-3, 2.0e-2));
    case 4:
      return PowerProfile::solar(rng.uniform(4.0e-3, 2.0e-2),
                                 rng.uniform(0.05, 0.5));
    case 5:
      return PowerProfile::rf(rng.uniform(4.0e-3, 2.0e-2),
                              rng.uniform(0.005, 0.1),
                              rng.uniform(0.2, 1.0));
    case 6:
      return PowerProfile::kinetic(rng.uniform(8.0e-3, 4.0e-2),
                                   rng.uniform(0.005, 0.1),
                                   1 + rng.uniform_index(8),
                                   rng.uniform(0.5, 1.0));
    case 7: {
      const double lit = rng.uniform(2.0e-3, 2.0e-2);
      return PowerProfile::indoor(lit, lit * rng.uniform(0.0, 0.5),
                                  rng.uniform(0.01, 0.2),
                                  rng.uniform(0.3, 1.0));
    }
    default:
      return PowerProfile::diurnal(rng.uniform(4.0e-3, 2.0e-2),
                                   rng.uniform(0.05, 0.5),
                                   rng.uniform(0.3, 1.0));
  }
}

fault::OutageSchedule random_schedule(util::Rng& rng) {
  fault::OutageSchedule schedule;
  switch (rng.uniform_index(5)) {
    case 0:
      schedule = fault::OutageSchedule::none();
      break;
    case 1: {
      std::vector<std::uint64_t> events;
      const std::size_t n = 1 + rng.uniform_index(4);
      for (std::size_t i = 0; i < n; ++i) {
        events.push_back(rng.uniform_index(400));
      }
      schedule = fault::OutageSchedule::at_events(std::move(events));
      break;
    }
    case 2:
      // max_outages is always bounded: an uncapped dense schedule in
      // accumulate mode never completes (the watchdog would fire, which
      // is a device failure the fuzzer would mis-read as a finding).
      schedule = fault::OutageSchedule::every_nth(20 + rng.uniform_index(380),
                                                  1 + rng.uniform_index(8));
      break;
    case 3:
      schedule = fault::OutageSchedule::random(rng.next_u64() | 1,
                                               rng.uniform(1.0e-4, 1.0e-2),
                                               1 + rng.uniform_index(8));
      break;
    default:
      schedule = fault::OutageSchedule::at_write(rng.uniform_index(40));
      break;
  }
  if (schedule.mode != fault::ScheduleMode::kNone) {
    const std::uint64_t torn = rng.uniform_index(10);
    if (torn < 2) {
      schedule = schedule.with_torn_keep(rng.uniform_index(9));
    } else if (torn < 4) {
      schedule = schedule.with_torn_random();
    }
  }
  return schedule;
}

fleet::DeviceGroup random_group(util::Rng& rng, std::size_t index,
                                const FuzzConfig& config) {
  fleet::DeviceGroup group;
  group.name = "g";
  group.name += std::to_string(index);
  group.count = 1 + rng.uniform_index(config.max_count);
  group.model = rng.bernoulli(0.2) ? fleet::ModelKind::kMultipath
                                   : fleet::ModelKind::kTiny;
  group.mode = random_mode(rng);
  group.power = random_power_profile(rng);
  group.schedule = random_schedule(rng);
  if (rng.bernoulli(0.15)) {
    group.write_ber = rng.uniform(1.0e-6, 5.0e-5);
  }
  if (rng.bernoulli(0.1)) {
    group.read_ber = rng.uniform(1.0e-6, 5.0e-5);
  }
  const std::uint64_t integrity = rng.uniform_index(10);
  if (integrity == 8) {
    group.integrity = fleet::IntegrityMode::kOn;
  } else if (integrity == 9) {
    group.integrity = fleet::IntegrityMode::kOff;
  }
  // Backend presets ride the same round-trip/differential properties as
  // every other field. Functional groups must stay valid: no power model
  // means continuous supply and no outage schedule.
  switch (rng.uniform_index(8)) {
    case 5:
      group.backend = engine::BackendConfig::reram();
      break;
    case 6:
      group.backend = engine::BackendConfig::stt_mram();
      break;
    case 7:
      group.backend = engine::BackendConfig::functional();
      group.power = fleet::PowerProfile::continuous();
      group.schedule = {};
      break;
    default:
      break;
  }
  return group;
}

fleet::FleetSpec random_fleet_spec(util::Rng& rng,
                                   const FuzzConfig& config) {
  fleet::FleetSpec spec;
  spec.seed = rng.next_u64();
  spec.inferences = 1 + rng.uniform_index(config.max_inferences);
  spec.batch = 1 + rng.uniform_index(512);
  spec.telemetry = rng.bernoulli(0.2);
  spec.event_budget = 1 + rng.uniform_index(1ull << 24);
  if (rng.bernoulli(0.3)) {
    spec.deadline_s = rng.uniform(0.01, 0.5);
  }
  spec.sim = rng.bernoulli(0.5) ? fleet::SimKind::kBatched
                                : fleet::SimKind::kStepping;
  const std::size_t n = 1 + rng.uniform_index(config.max_groups);
  for (std::size_t i = 0; i < n; ++i) {
    spec.groups.push_back(random_group(rng, i, config));
  }
  return spec;
}

Scenario random_scenario(const FuzzConfig& config, std::uint64_t index) {
  util::Rng rng(util::splitmix64_at(config.seed, index));
  Scenario scenario;
  scenario.name = "fuzz-" + std::to_string(config.seed) + "-" +
                  std::to_string(index);
  scenario.seed = rng.next_u64();
  scenario.inferences = 1 + rng.uniform_index(config.max_inferences);
  if (rng.bernoulli(0.1)) {
    scenario.telemetry = true;
  }
  if (rng.bernoulli(0.1)) {
    scenario.deadline_s = rng.uniform(0.05, 0.5);
  }
  if (rng.bernoulli(0.2)) {
    // Explicit sim subset — always anchored on the stepping oracle.
    scenario.sims = {fleet::SimKind::kStepping};
    if (rng.bernoulli(0.5)) {
      scenario.sims.push_back(fleet::SimKind::kBatched);
    }
  }
  const std::size_t n = 1 + rng.uniform_index(config.max_groups);
  for (std::size_t i = 0; i < n; ++i) {
    scenario.groups.push_back(random_group(rng, i, config));
  }
  return scenario;
}

Scenario shrink_scenario(
    const Scenario& failing,
    const std::function<bool(const Scenario&)>& still_fails,
    std::size_t max_attempts) {
  Scenario best = failing;
  std::size_t attempts = 0;
  bool progress = true;

  const auto accept = [&](Scenario candidate) -> bool {
    if (attempts >= max_attempts || candidate == best) {
      return false;
    }
    try {
      candidate.validate();
    } catch (const std::exception&) {
      return false;
    }
    ++attempts;
    if (!still_fails(candidate)) {
      return false;
    }
    best = std::move(candidate);
    progress = true;
    return true;
  };
  const auto try_mutation =
      [&](const std::function<void(Scenario&)>& mutate) {
        Scenario candidate = best;
        mutate(candidate);
        (void)accept(std::move(candidate));
      };

  const Scenario defaults;
  while (progress && attempts < max_attempts) {
    progress = false;

    // Drop whole groups first — the biggest single reduction. On success
    // retry the same index (the next group shifted into it).
    for (std::size_t i = 0; best.groups.size() > 1 && i < best.groups.size();) {
      Scenario candidate = best;
      candidate.groups.erase(candidate.groups.begin() +
                             static_cast<std::ptrdiff_t>(i));
      if (!accept(std::move(candidate))) {
        ++i;
      }
    }

    // Scenario-level fields back to their (omitted-from-JSON) defaults.
    if (best.telemetry) {
      try_mutation([](Scenario& s) { s.telemetry = false; });
    }
    if (best.deadline_s != 0.0) {
      try_mutation([](Scenario& s) { s.deadline_s = 0.0; });
    }
    if (best.inferences != 1) {
      try_mutation([](Scenario& s) { s.inferences = 1; });
    }
    if (best.batch != defaults.batch) {
      try_mutation([&](Scenario& s) { s.batch = defaults.batch; });
    }
    if (best.event_budget != defaults.event_budget) {
      try_mutation([&](Scenario& s) { s.event_budget = defaults.event_budget; });
    }
    for (std::size_t i = 0; best.sims.size() > 1 && i < best.sims.size();) {
      Scenario candidate = best;
      candidate.sims.erase(candidate.sims.begin() +
                           static_cast<std::ptrdiff_t>(i));
      if (!accept(std::move(candidate))) {
        ++i;
      }
    }
    for (std::size_t i = 0;
         best.checks.size() > 1 && i < best.checks.size();) {
      Scenario candidate = best;
      candidate.checks.erase(candidate.checks.begin() +
                             static_cast<std::ptrdiff_t>(i));
      if (!accept(std::move(candidate))) {
        ++i;
      }
    }

    // Group-level fields back to their defaults, one field at a time.
    for (std::size_t g = 0; g < best.groups.size(); ++g) {
      const auto field = [&](const std::function<void(fleet::DeviceGroup&)>&
                                 mutate) {
        try_mutation([&](Scenario& s) { mutate(s.groups[g]); });
      };
      if (best.groups[g].count != 1) {
        field([](fleet::DeviceGroup& grp) { grp.count = 1; });
      }
      if (best.groups[g].model != fleet::ModelKind::kTiny) {
        field([](fleet::DeviceGroup& grp) {
          grp.model = fleet::ModelKind::kTiny;
        });
      }
      if (best.groups[g].mode != engine::PreservationMode::kImmediate) {
        field([](fleet::DeviceGroup& grp) {
          grp.mode = engine::PreservationMode::kImmediate;
        });
      }
      if (best.groups[g].power != fleet::PowerProfile()) {
        field([](fleet::DeviceGroup& grp) {
          grp.power = fleet::PowerProfile();
        });
      }
      // Re-read best.groups[g].schedule at every check: accept() replaces
      // `best` wholesale, so a reference held across field() calls would
      // dangle as soon as any schedule mutation lands.
      if (best.groups[g].schedule.mode != fault::ScheduleMode::kNone) {
        field([](fleet::DeviceGroup& grp) {
          grp.schedule = fault::OutageSchedule::none();
        });
      }
      if (best.groups[g].schedule.torn != fault::TornMode::kDropAll) {
        field([](fleet::DeviceGroup& grp) {
          grp.schedule.torn = fault::TornMode::kDropAll;
          grp.schedule.torn_keep = 0;
        });
      }
      if (best.groups[g].schedule.mode == fault::ScheduleMode::kFixed &&
          best.groups[g].schedule.fixed_events.size() > 1) {
        // Copied, not referenced: an accepted mutation frees best's vector
        // mid-loop otherwise.
        const std::vector<std::uint64_t> events =
            best.groups[g].schedule.fixed_events;
        for (const std::uint64_t event : events) {
          field([event](fleet::DeviceGroup& grp) {
            grp.schedule.fixed_events = {event};
          });
        }
      }
      if (best.groups[g].schedule.max_outages !=
              fault::OutageSchedule::kUnlimited &&
          best.groups[g].schedule.max_outages > 1) {
        field([](fleet::DeviceGroup& grp) {
          grp.schedule.max_outages = 1;
        });
      }
      if (best.groups[g].write_ber != 0.0) {
        field([](fleet::DeviceGroup& grp) { grp.write_ber = 0.0; });
      }
      if (best.groups[g].read_ber != 0.0) {
        field([](fleet::DeviceGroup& grp) { grp.read_ber = 0.0; });
      }
      if (best.groups[g].integrity != fleet::IntegrityMode::kAuto) {
        field([](fleet::DeviceGroup& grp) {
          grp.integrity = fleet::IntegrityMode::kAuto;
        });
      }
    }
  }
  return best;
}

}  // namespace iprune::scenario
