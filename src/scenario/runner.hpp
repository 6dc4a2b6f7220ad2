#pragma once
// ScenarioRunner: drive one Scenario through the differential oracles.
//
// run_scenario() simulates the scenario's fleet under every requested sim
// strategy and asserts each requested check:
//
//   sim_digest        all sim kinds produce the same FNV-1a fleet digest
//                     (stepping is the oracle; the first sim kind's run is
//                     the reference the gateway observes)
//   lane_determinism  re-running the reference sim on 1-lane and 3-lane
//                     pools reproduces the reference digest exactly
//   consistency       each clean-outage group's schedule passes the
//                     fault::Checker's schedule check on that group's
//                     (model, mode) testbed; a failure detail carries the
//                     ddmin-shrunk repro token
//   integrity         each protected corrupted group's fault load is
//                     contained by the fault::Checker's scenario check (no
//                     silent escape, no unrecovered crash)
//
// Every run derives its inputs from the scenario alone, so a report — and
// each check's pass/fail — is deterministic for a given scenario document.

#include <cstdint>
#include <string>
#include <vector>

#include "fleet/gateway.hpp"
#include "fleet/result.hpp"
#include "runtime/thread_pool.hpp"
#include "scenario/scenario.hpp"

namespace iprune::scenario {

struct RunOptions {
  /// Observes the reference run only (first effective sim kind).
  fleet::MetricsGateway* gateway = nullptr;
  /// Pool for the reference and sim-digest runs (nullptr = shared). The
  /// lane_determinism check always builds its own 1- and 3-lane pools.
  runtime::ThreadPool* pool = nullptr;
  /// Cap on differential-checker replays per check (distinct qualifying
  /// groups beyond the cap are skipped; the outcome notes how many).
  std::size_t max_differential = 3;
  /// ddmin-shrink failing consistency schedules into the failure detail.
  bool shrink = true;
};

struct CheckOutcome {
  Check check = Check::kSimDigest;
  bool passed = false;
  /// Failure explanation (repro tokens, digests); empty when passed.
  std::string detail;
};

struct ScenarioReport {
  std::string name;
  /// Reference fleet digest (first effective sim kind).
  std::uint64_t digest = 0;
  /// Aggregate of the reference run.
  fleet::FleetResult reference;
  std::vector<CheckOutcome> checks;

  [[nodiscard]] bool passed() const;
  [[nodiscard]] std::size_t failed() const;
  /// CLI contract (mirrors fleet_run): 0 = every check passed, 1 = at
  /// least one check failed. (2 is reserved for usage/parse errors and
  /// never produced by a completed run.)
  [[nodiscard]] int exit_code() const;
  /// Human-readable verdict: one header line plus one line per check.
  [[nodiscard]] std::string to_string() const;
};

ScenarioReport run_scenario(const Scenario& scenario,
                            const RunOptions& options = {});

}  // namespace iprune::scenario
