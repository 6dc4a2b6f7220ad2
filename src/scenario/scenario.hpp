#pragma once
// Scenario: a versioned, declarative description of one end-to-end
// intermittent-computing experiment, built for the differential oracles.
//
// One JSON document composes everything the simulator can vary — harvest
// profile, forced-outage/torn-write schedule, NVM corruption rates,
// integrity-layer policy, workload mix, and fleet composition — plus the
// list of checks the runner should hold the simulation to. The schema is
// strict both ways:
//
//   * parse() rejects unknown fields, wrong types, and out-of-range
//     values with exact, pinned error messages ("scenario: ...", or
//     FleetSpec::validate()'s "fleet spec: ..." for fleet fields and
//     groups), and
//   * describe() emits the canonical form — default-valued fields are
//     omitted, keys appear in a fixed order — so parse(describe(x)) == x
//     byte-for-byte and a ddmin-shrunk repro is as small as its schema.
//
// Leaf values reuse the fleet/fault text DSLs (supply "rf:0.01:0.5:0.2",
// schedule "every:50;max=3", mode "immediate"), so every repro token
// printed by fault_check is pasteable into a scenario and vice versa.
// docs/scenarios.md is the schema reference.

#include <cstdint>
#include <string>
#include <vector>

#include "fleet/spec.hpp"
#include "scenario/json.hpp"

namespace iprune::scenario {

/// One invariant the scenario runner asserts over the simulation.
enum class Check : std::uint8_t {
  kSimDigest,        // stepping/batched fleet digests agree
  kLaneDeterminism,  // 1-lane and multi-lane digests agree
  kConsistency,      // fault::Checker passes each group's schedule
  kIntegrity,        // fault::Checker: no silent escape / crash
};

/// "sim_digest" | "lane_determinism" | "consistency" | "integrity".
const char* check_name(Check check);
/// Inverse of check_name; throws std::invalid_argument
/// ("scenario: unknown check \"<name>\"").
Check parse_check(const std::string& name);

struct Scenario {
  /// Schema version every document must carry (the only accepted value).
  static constexpr std::uint64_t kVersion = 1;

  std::string name;
  std::uint64_t seed = fleet::FleetSpec().seed;
  std::size_t inferences = 1;
  std::size_t batch = fleet::FleetSpec().batch;
  double deadline_s = 0.0;
  std::uint64_t event_budget = fleet::FleetSpec().event_budget;
  bool telemetry = false;
  /// Simulation strategies to run and cross-check; empty = both.
  std::vector<fleet::SimKind> sims;
  /// Checks to assert; empty = auto-derived from the fleet composition
  /// (see effective_checks()).
  std::vector<Check> checks;
  std::vector<fleet::DeviceGroup> groups;

  /// `sims` with the empty-means-all default applied (stepping first: it
  /// is the oracle and the reference digest).
  [[nodiscard]] std::vector<fleet::SimKind> effective_sims() const;

  /// `checks` with the empty-means-auto default applied: sim_digest and
  /// lane_determinism always; consistency when some group forces clean
  /// (drop-all) outages in an intermittent-safe mode without corruption;
  /// integrity when some group injects corruption or torn writes and has
  /// not opted out of the integrity layer.
  [[nodiscard]] std::vector<Check> effective_checks() const;

  /// The FleetSpec this scenario describes, under one sim strategy.
  [[nodiscard]] fleet::FleetSpec to_fleet(fleet::SimKind sim) const;

  /// Range-check every field; throws std::invalid_argument naming the
  /// offending field. The document's own rules (name, duplicate sims and
  /// checks, an empty group list) fail with a "scenario: ..." message; the
  /// fleet's fields, groups and device cap go through FleetSpec::validate()
  /// and fail with its "fleet spec: ..." message.
  /// parse() always validates.
  void validate() const;

  /// Canonical JSON document: fixed key order, default-valued fields
  /// omitted (version, name, and groups always present).
  [[nodiscard]] Json to_json() const;
  /// to_json().write() — the canonical text form; parse(describe()) == *this.
  [[nodiscard]] std::string describe() const;
  /// Number of scalar leaves in the canonical document — the "schema
  /// fields" a shrunk repro is measured in.
  [[nodiscard]] std::size_t schema_fields() const;

  static Scenario from_json(const Json& doc);
  static Scenario parse(const std::string& text);
  static Scenario load(const std::string& path);

  bool operator==(const Scenario& other) const = default;
};

/// True when `group` forces clean (drop-all) power outages in an
/// intermittent-safe mode with no corruption — the domain of
/// fault::Checker's schedule check (bit-identical logits despite every
/// outage).
[[nodiscard]] bool forces_clean_outages(const fleet::DeviceGroup& group);

/// True when `group` injects pure torn-write corruption (no bit errors)
/// with the integrity layer forced on — the containment domain of
/// fault::Checker's scenario check. Bit-error groups are excluded:
/// unconfined flips can land in activation bytes the layer does not CRC
/// and go silent by design, so BER coverage comes from the digest checks
/// instead. Torn-only groups need integrity=on because kAuto arms only on
/// bit errors.
[[nodiscard]] bool injects_protected_corruption(
    const fleet::DeviceGroup& group);

}  // namespace iprune::scenario
