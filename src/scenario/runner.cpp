#include "scenario/runner.hpp"

#include <cinttypes>
#include <cstdio>
#include <map>
#include <optional>
#include <utility>

#include "fault/checker.hpp"
#include "fault/testbed.hpp"
#include "fleet/device_sim.hpp"
#include "fleet/orchestrator.hpp"
#include "util/splitmix.hpp"

namespace iprune::scenario {

namespace {

std::string hex_digest(std::uint64_t digest) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%016" PRIx64, digest);
  return buf;
}

std::uint64_t run_digest(const Scenario& scenario, fleet::SimKind sim,
                         runtime::ThreadPool* pool,
                         fleet::MetricsGateway* gateway,
                         fleet::FleetResult* out = nullptr) {
  const fleet::FleetOrchestrator orchestrator(scenario.to_fleet(sim));
  fleet::FleetResult result = orchestrator.run(pool, gateway);
  const std::uint64_t digest = result.checksum;
  if (out != nullptr) {
    *out = std::move(result);
  }
  return digest;
}

/// Shared testbed for the differential checks: one deterministic checker
/// (graph, calibration) and sample per model kind, seeded from the
/// scenario seed so a scenario document fully determines every replay.
struct Testbed {
  fault::Checker checker;
  nn::Tensor sample;
};

Testbed make_testbed(fleet::ModelKind model, std::uint64_t seed) {
  util::Rng rng(seed);
  const nn::Graph graph = fleet::build_graph(model, rng);
  nn::Tensor calibration =
      fault::make_batch(rng, graph, fault::kCalibrationSamples);
  const nn::Tensor batch = fault::make_batch(rng, graph, 1);
  return {fault::Checker(graph, std::move(calibration)),
          fault::slice_sample(batch, 0)};
}

CheckOutcome check_sim_digest(const Scenario& scenario,
                              const std::vector<fleet::SimKind>& sims,
                              std::uint64_t reference,
                              runtime::ThreadPool* pool) {
  CheckOutcome outcome{Check::kSimDigest, true, ""};
  for (std::size_t i = 1; i < sims.size(); ++i) {
    const std::uint64_t digest =
        run_digest(scenario, sims[i], pool, nullptr);
    if (digest != reference) {
      outcome.passed = false;
      if (!outcome.detail.empty()) {
        outcome.detail += "; ";
      }
      outcome.detail += std::string(fleet::sim_kind_name(sims[i])) + "=" +
                        hex_digest(digest) + " != " +
                        fleet::sim_kind_name(sims[0]) + "=" +
                        hex_digest(reference);
    }
  }
  return outcome;
}

CheckOutcome check_lane_determinism(const Scenario& scenario,
                                    fleet::SimKind sim,
                                    std::uint64_t reference) {
  CheckOutcome outcome{Check::kLaneDeterminism, true, ""};
  for (const std::size_t lanes : {std::size_t{1}, std::size_t{3}}) {
    runtime::ThreadPool pool(lanes);
    const std::uint64_t digest = run_digest(scenario, sim, &pool, nullptr);
    if (digest != reference) {
      outcome.passed = false;
      if (!outcome.detail.empty()) {
        outcome.detail += "; ";
      }
      outcome.detail += std::to_string(lanes) + "-lane digest " +
                        hex_digest(digest) + " != reference " +
                        hex_digest(reference);
    }
  }
  return outcome;
}

/// The differential checks' shared loop: replays each group that
/// `qualifies`, up to options.max_differential of them, through
/// `check_group(group, index, testbed)` on one testbed per model.
/// `index` counts *all* groups, qualifying or not. check_group returns a
/// failure detail, or nothing when the group passes.
template <typename CheckGroup>
CheckOutcome check_groups(Check kind, const Scenario& scenario,
                          const RunOptions& options,
                          bool (*qualifies)(const fleet::DeviceGroup&),
                          const CheckGroup& check_group) {
  CheckOutcome outcome{kind, true, ""};
  std::map<fleet::ModelKind, Testbed> testbeds;
  std::size_t checked = 0;
  std::size_t skipped = 0;
  for (std::size_t index = 0; index < scenario.groups.size(); ++index) {
    const fleet::DeviceGroup& group = scenario.groups[index];
    if (!qualifies(group)) {
      continue;
    }
    if (checked >= options.max_differential) {
      ++skipped;
      continue;
    }
    ++checked;
    auto it = testbeds.find(group.model);
    if (it == testbeds.end()) {
      it = testbeds
               .emplace(group.model,
                        make_testbed(group.model, scenario.seed))
               .first;
    }
    const std::optional<std::string> failure =
        check_group(group, index, it->second);
    if (failure) {
      outcome.passed = false;
      if (!outcome.detail.empty()) {
        outcome.detail += "; ";
      }
      outcome.detail += *failure;
    }
  }
  if (outcome.passed && skipped > 0) {
    outcome.detail =
        std::to_string(skipped) + " qualifying group(s) beyond the cap";
  }
  return outcome;
}

CheckOutcome check_consistency(const Scenario& scenario,
                               const RunOptions& options) {
  return check_groups(
      Check::kConsistency, scenario, options, forces_clean_outages,
      [&](const fleet::DeviceGroup& group, std::size_t /*index*/,
          const Testbed& bed) -> std::optional<std::string> {
        fault::ScheduleOutcome result =
            bed.checker.check(bed.sample, group.schedule, group.mode);
        if (result.passed) {
          return std::nullopt;
        }
        if (options.shrink) {
          result = bed.checker.shrink(bed.sample, result);
        }
        return "group \"" + group.name + "\" (" +
               fleet::model_kind_name(group.model) + "): " + result.failure +
               " [" + result.repro() + "]";
      });
}

CheckOutcome check_integrity(const Scenario& scenario,
                             const RunOptions& options) {
  return check_groups(
      Check::kIntegrity, scenario, options, injects_protected_corruption,
      [&](const fleet::DeviceGroup& group, std::size_t index,
          const Testbed& bed) -> std::optional<std::string> {
        fault::CorruptionScenario load;
        load.label = group.name;
        load.schedule = group.schedule;
        load.seed = util::splitmix64_at(scenario.seed, index) | 1ull;
        load.write_ber = group.write_ber;
        load.read_ber = group.read_ber;
        const fault::ScenarioOutcome result = bed.checker.check(
            bed.sample, load, group.mode, /*protect=*/true);
        if (result.verdict != fault::IntegrityVerdict::kSilent &&
            result.verdict != fault::IntegrityVerdict::kCrashed) {
          return std::nullopt;
        }
        return "group \"" + group.name + "\" (" +
               fleet::model_kind_name(group.model) + ", mode=" +
               fault::preservation_mode_name(group.mode) + "): " +
               fault::integrity_verdict_name(result.verdict) +
               (result.detail.empty() ? "" : " — " + result.detail);
      });
}

}  // namespace

bool ScenarioReport::passed() const { return failed() == 0; }

std::size_t ScenarioReport::failed() const {
  std::size_t count = 0;
  for (const CheckOutcome& outcome : checks) {
    count += outcome.passed ? 0 : 1;
  }
  return count;
}

int ScenarioReport::exit_code() const { return passed() ? 0 : 1; }

std::string ScenarioReport::to_string() const {
  std::string out = "scenario " + name + ": digest " + hex_digest(digest) +
                    ", " + std::to_string(reference.devices()) +
                    " device(s), " + std::to_string(reference.total.failed) +
                    " failed\n";
  for (const CheckOutcome& outcome : checks) {
    out += std::string("  check ") + check_name(outcome.check) + ": " +
           (outcome.passed ? "ok" : "FAIL");
    if (!outcome.detail.empty()) {
      out += " (" + outcome.detail + ")";
    }
    out += "\n";
  }
  return out;
}

ScenarioReport run_scenario(const Scenario& scenario,
                            const RunOptions& options) {
  scenario.validate();
  ScenarioReport report;
  report.name = scenario.name;

  const std::vector<fleet::SimKind> sims = scenario.effective_sims();
  report.digest = run_digest(scenario, sims[0], options.pool,
                             options.gateway, &report.reference);

  for (const Check check : scenario.effective_checks()) {
    switch (check) {
      case Check::kSimDigest:
        report.checks.push_back(
            check_sim_digest(scenario, sims, report.digest, options.pool));
        break;
      case Check::kLaneDeterminism:
        report.checks.push_back(
            check_lane_determinism(scenario, sims[0], report.digest));
        break;
      case Check::kConsistency:
        report.checks.push_back(check_consistency(scenario, options));
        break;
      case Check::kIntegrity:
        report.checks.push_back(check_integrity(scenario, options));
        break;
    }
  }
  return report;
}

}  // namespace iprune::scenario
