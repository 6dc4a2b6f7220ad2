#include "fleet/orchestrator.hpp"

#include <algorithm>
#include <span>
#include <utility>

#include "fleet/batched_sim.hpp"
#include "runtime/parallel.hpp"
#include "util/hash.hpp"

namespace iprune::fleet {

namespace {

void fold(GroupStats& into, const DeviceResult& r) {
  ++into.devices;
  into.completed += r.completed ? 1 : 0;
  into.deadline_missed += r.deadline_missed ? 1 : 0;
  into.failed += r.failed ? 1 : 0;
  into.compromised += r.verdict == IntegrityVerdict::kCompromised ? 1 : 0;
  into.inferences += r.inferences_done;
  into.power_failures += r.power_failures;
  into.injected_outages += r.injected_outages;
  into.events += r.events;
  into.harvested_j += r.harvested_j;
  into.consumed_j += r.consumed_j;
  into.wasted_j += r.wasted_j;
  into.on_s += r.on_s;
  into.off_s += r.off_s;
  into.max_sim_s = std::max(into.max_sim_s, r.sim_s);
  into.latency_us.merge(r.latency_us);
}

}  // namespace

FleetOrchestrator::FleetOrchestrator(FleetSpec spec)
    : spec_(std::move(spec)) {}

FleetResult FleetOrchestrator::run(runtime::ThreadPool* pool,
                                   MetricsGateway* gateway) const {
  const std::vector<DeviceSpec> devices = spec_.resolve();
  runtime::ThreadPool& lanes = runtime::ThreadPool::resolve(pool);
  NullGateway null;
  MetricsGateway& sink = gateway != nullptr ? *gateway : null;

  FleetResult result;
  result.total.name = "fleet";
  result.groups.reserve(spec_.groups.size());
  for (const DeviceGroup& group : spec_.groups) {
    GroupStats stats;
    stats.name = group.name;
    result.groups.push_back(std::move(stats));
  }
  const auto group_slot = [this](const std::string& name) {
    for (std::size_t i = 0; i < spec_.groups.size(); ++i) {
      if (spec_.groups[i].name == name) {
        return i;
      }
    }
    throw std::logic_error("fleet: unknown group '" + name + "'");
  };

  util::Fnv1a digest;
  const std::size_t batch = std::max<std::size_t>(spec_.batch, 1);
  for (std::size_t begin = 0; begin < devices.size(); begin += batch) {
    const std::size_t count = std::min(batch, devices.size() - begin);
    // Partition the window into work units: under sim=batched, runs of
    // consecutive same-group lockstep-eligible devices form cohorts (one
    // leader timeline advances all members); everything else stays a
    // single-device unit. Units keep index order, so the fold and the
    // fleet digest are identical across sim kinds and lane counts.
    struct WorkUnit {
      std::size_t begin;
      std::size_t count;
    };
    std::vector<WorkUnit> units;
    units.reserve(count);
    if (spec_.sim == SimKind::kBatched) {
      std::size_t i = begin;
      const std::size_t end = begin + count;
      while (i < end) {
        std::size_t j = i + 1;
        if (batched_eligible(devices[i])) {
          while (j < end && j - i < kMaxCohort &&
                 devices[j].group == devices[i].group &&
                 batched_eligible(devices[j])) {
            ++j;
          }
        }
        units.push_back({i, j - i});
        i = j;
      }
    } else {
      for (std::size_t i = 0; i < count; ++i) {
        units.push_back({begin + i, 1});
      }
    }
    // One whole unit per loop index: the stacks live only inside their
    // lane's body, results gather by unit then flatten in index order.
    // A one-device unit is one stepped DeviceSim.
    std::vector<std::vector<DeviceResult>> unit_results =
        runtime::parallel_map(lanes, units.size(), [&](std::size_t u) {
          const WorkUnit& unit = units[u];
          return run_cohort(
              std::span(devices.data() + unit.begin, unit.count));
        });
    std::vector<DeviceResult> results;
    results.reserve(count);
    for (std::vector<DeviceResult>& chunk : unit_results) {
      for (DeviceResult& r : chunk) {
        results.push_back(std::move(r));
      }
    }
    for (DeviceResult& r : results) {
      fold(result.total, r);
      fold(result.groups[group_slot(r.group)], r);
      if (spec_.telemetry) {
        result.registry.merge(r.registry);
      }
      digest.fold_u64(r.index);
      digest.fold_u64(r.logits_checksum);
      digest.fold_u64(r.inferences_done);
      digest.fold_u64(r.events);
      digest.fold_u64(r.power_failures);
      digest.fold_u64((r.completed ? 1u : 0u) | (r.deadline_missed ? 2u : 0u) |
                      (r.failed ? 4u : 0u));
      sink.on_device(r);
    }
  }
  result.checksum = digest.value();
  sink.on_fleet(result);
  return result;
}

}  // namespace iprune::fleet
