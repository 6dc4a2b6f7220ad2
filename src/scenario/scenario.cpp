#include "scenario/scenario.hpp"

#include <cctype>
#include <cmath>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "fault/checker.hpp"

namespace iprune::scenario {

namespace {

[[noreturn]] void scenario_error(const std::string& why) {
  throw std::invalid_argument("scenario: " + why);
}

bool valid_name(const std::string& name) {
  if (name.empty()) {
    return false;
  }
  for (const char c : name) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '_' || c == '.' ||
                    c == '-';
    if (!ok) {
      return false;
    }
  }
  return true;
}

fleet::SimKind parse_sim(const std::string& name) {
  try {
    return fleet::parse_sim_kind(name);
  } catch (const std::invalid_argument&) {
    scenario_error("unknown sim \"" + name + "\"");
  }
}

/// Outage-schedule ranges FleetSpec::parse leaves to the factories.
void validate_schedule(const fault::OutageSchedule& schedule,
                       const std::string& owner) {
  if (schedule.mode == fault::ScheduleMode::kEveryNth &&
      schedule.every_n == 0) {
    throw std::invalid_argument(owner + " outage period must be >= 1");
  }
  if (schedule.mode == fault::ScheduleMode::kRandom &&
      (!std::isfinite(schedule.probability) || schedule.probability < 0.0 ||
       schedule.probability > 1.0)) {
    throw std::invalid_argument(owner +
                                " outage probability must be in [0, 1]");
  }
}

Json group_to_json(const fleet::DeviceGroup& group) {
  Json out = Json::object();
  out.set("name", Json::string(group.name));
  if (group.count != 1) {
    out.set("count", Json::number(static_cast<std::uint64_t>(group.count)));
  }
  if (group.model != fleet::ModelKind::kTiny) {
    out.set("model", Json::string(fleet::model_kind_name(group.model)));
  }
  if (group.mode != engine::PreservationMode::kImmediate) {
    out.set("mode", Json::string(fault::preservation_mode_name(group.mode)));
  }
  if (group.power != fleet::PowerProfile()) {
    out.set("supply", Json::string(group.power.describe()));
  }
  if (group.schedule.mode != fault::ScheduleMode::kNone) {
    out.set("schedule", Json::string(group.schedule.describe()));
  }
  if (group.write_ber != 0.0) {
    out.set("write_ber", Json::number(group.write_ber));
  }
  if (group.read_ber != 0.0) {
    out.set("read_ber", Json::number(group.read_ber));
  }
  if (group.integrity != fleet::IntegrityMode::kAuto) {
    out.set("integrity",
            Json::string(fleet::integrity_mode_name(group.integrity)));
  }
  if (group.backend != engine::BackendConfig::msp430_fram()) {
    out.set("backend", Json::string(group.backend.describe()));
  }
  return out;
}

fleet::DeviceGroup group_from_json(const Json& doc) {
  if (!doc.is_object()) {
    scenario_error("each group must be an object, got " +
                   std::string(doc.kind_name()));
  }
  fleet::DeviceGroup group;
  bool named = false;
  for (const auto& [key, value] : doc.members()) {
    if (key == "name") {
      group.name = value.as_string();
      named = true;
    } else if (key == "count") {
      group.count = value.as_size();
    } else if (key == "model") {
      group.model = fleet::parse_model_kind(value.as_string());
    } else if (key == "mode") {
      group.mode = fault::parse_preservation_mode(value.as_string());
    } else if (key == "supply") {
      group.power = fleet::PowerProfile::parse(value.as_string());
    } else if (key == "schedule") {
      group.schedule = fault::OutageSchedule::parse(value.as_string());
    } else if (key == "write_ber") {
      group.write_ber = value.as_double();
    } else if (key == "read_ber") {
      group.read_ber = value.as_double();
    } else if (key == "integrity") {
      group.integrity = fleet::parse_integrity_mode(value.as_string());
    } else if (key == "backend") {
      try {
        group.backend = engine::BackendConfig::parse(value.as_string());
      } catch (const std::runtime_error&) {
        scenario_error("unknown backend \"" + value.as_string() + "\"");
      }
    } else {
      scenario_error("unknown group field \"" + key + "\"");
    }
  }
  if (!named) {
    scenario_error("group is missing required field \"name\"");
  }
  return group;
}

std::size_t count_leaves(const Json& value) {
  switch (value.kind()) {
    case Json::Kind::kArray: {
      std::size_t total = 0;
      for (const Json& item : value.items()) {
        total += count_leaves(item);
      }
      return total;
    }
    case Json::Kind::kObject: {
      std::size_t total = 0;
      for (const auto& [key, member] : value.members()) {
        (void)key;
        total += count_leaves(member);
      }
      return total;
    }
    default:
      return 1;
  }
}

}  // namespace

bool forces_clean_outages(const fleet::DeviceGroup& group) {
  return group.schedule.mode != fault::ScheduleMode::kNone &&
         group.schedule.torn == fault::TornMode::kDropAll &&
         group.write_ber == 0.0 && group.read_ber == 0.0 &&
         group.mode != engine::PreservationMode::kAccumulateInVm;
}

bool injects_protected_corruption(const fleet::DeviceGroup& group) {
  const bool torn = group.schedule.mode != fault::ScheduleMode::kNone &&
                    group.schedule.torn != fault::TornMode::kDropAll;
  // The containment oracle covers exactly the threat the integrity layer
  // fully owns: commit-boundary torn writes (CRC'd progress records +
  // rollback). Bit-error loads can flip unprotected activation bytes and
  // go silent *by design*, so BER groups are exercised through the digest
  // checks instead of a containment assertion. Torn-only groups arm the
  // layer only under integrity=on (kAuto arms on bit errors alone).
  return torn && group.write_ber == 0.0 && group.read_ber == 0.0 &&
         group.integrity == fleet::IntegrityMode::kOn;
}

const char* check_name(Check check) {
  switch (check) {
    case Check::kSimDigest:
      return "sim_digest";
    case Check::kLaneDeterminism:
      return "lane_determinism";
    case Check::kConsistency:
      return "consistency";
    case Check::kIntegrity:
      return "integrity";
  }
  return "?";
}

Check parse_check(const std::string& name) {
  if (name == "sim_digest") {
    return Check::kSimDigest;
  }
  if (name == "lane_determinism") {
    return Check::kLaneDeterminism;
  }
  if (name == "consistency") {
    return Check::kConsistency;
  }
  if (name == "integrity") {
    return Check::kIntegrity;
  }
  scenario_error("unknown check \"" + name + "\"");
}

std::vector<fleet::SimKind> Scenario::effective_sims() const {
  if (!sims.empty()) {
    return sims;
  }
  return {fleet::SimKind::kStepping, fleet::SimKind::kBatched};
}

std::vector<Check> Scenario::effective_checks() const {
  if (!checks.empty()) {
    return checks;
  }
  std::vector<Check> derived = {Check::kSimDigest, Check::kLaneDeterminism};
  bool consistency = false;
  bool integrity = false;
  for (const fleet::DeviceGroup& group : groups) {
    consistency = consistency || forces_clean_outages(group);
    integrity = integrity || injects_protected_corruption(group);
  }
  if (consistency) {
    derived.push_back(Check::kConsistency);
  }
  if (integrity) {
    derived.push_back(Check::kIntegrity);
  }
  return derived;
}

std::size_t Scenario::total_devices() const {
  std::size_t total = 0;
  for (const fleet::DeviceGroup& group : groups) {
    total += group.count;
  }
  return total;
}

fleet::FleetSpec Scenario::to_fleet(fleet::SimKind sim) const {
  fleet::FleetSpec spec;
  spec.seed = seed;
  spec.deadline_s = deadline_s;
  spec.inferences = inferences;
  spec.batch = batch;
  spec.telemetry = telemetry;
  spec.event_budget = event_budget;
  spec.sim = sim;
  spec.groups = groups;
  return spec;
}

void Scenario::validate() const {
  if (name.empty()) {
    scenario_error("name is required");
  }
  if (!valid_name(name)) {
    scenario_error("name must match [A-Za-z0-9_.-]+");
  }
  if (inferences == 0) {
    scenario_error("inferences must be >= 1");
  }
  if (batch == 0) {
    scenario_error("batch must be >= 1");
  }
  if (event_budget == 0) {
    scenario_error("event_budget must be >= 1");
  }
  if (!std::isfinite(deadline_s) || deadline_s < 0.0) {
    scenario_error("deadline_s must be finite and >= 0");
  }
  for (std::size_t i = 0; i < sims.size(); ++i) {
    for (std::size_t j = i + 1; j < sims.size(); ++j) {
      if (sims[i] == sims[j]) {
        scenario_error("duplicate sim \"" +
                       std::string(fleet::sim_kind_name(sims[i])) + "\"");
      }
    }
  }
  for (std::size_t i = 0; i < checks.size(); ++i) {
    for (std::size_t j = i + 1; j < checks.size(); ++j) {
      if (checks[i] == checks[j]) {
        scenario_error("duplicate check \"" +
                       std::string(check_name(checks[i])) + "\"");
      }
    }
  }
  if (groups.empty()) {
    scenario_error("at least one group is required");
  }
  for (std::size_t i = 0; i < groups.size(); ++i) {
    const fleet::DeviceGroup& group = groups[i];
    if (group.name.empty()) {
      scenario_error("group " + std::to_string(i) + " needs a name");
    }
    if (!valid_name(group.name)) {
      scenario_error("group \"" + group.name +
                     "\" name must match [A-Za-z0-9_.-]+");
    }
    for (std::size_t j = 0; j < i; ++j) {
      if (groups[j].name == group.name) {
        scenario_error("duplicate group name \"" + group.name + "\"");
      }
    }
    if (group.count == 0) {
      scenario_error("group \"" + group.name + "\" count must be >= 1");
    }
    if (group.write_ber < 0.0 || group.write_ber > 1.0 ||
        group.read_ber < 0.0 || group.read_ber > 1.0 ||
        !std::isfinite(group.write_ber) || !std::isfinite(group.read_ber)) {
      scenario_error("group \"" + group.name +
                     "\" bit-error rates must be in [0, 1]");
    }
    group.power.validate();
    validate_schedule(group.schedule, "scenario: group \"" + group.name +
                                          "\"");
    if (group.backend.kind == engine::BackendKind::kFunctional) {
      if (group.power.kind != fleet::PowerProfile::Kind::kContinuous) {
        scenario_error("group \"" + group.name +
                       "\" backend=functional requires supply=continuous");
      }
      if (group.schedule.mode != fault::ScheduleMode::kNone) {
        scenario_error("group \"" + group.name +
                       "\" backend=functional cannot take an outage schedule");
      }
    }
  }
  if (total_devices() > 65536) {
    scenario_error("fleet exceeds 65536 devices");
  }
}

Json Scenario::to_json() const {
  Json out = Json::object();
  out.set("version", Json::number(kVersion));
  out.set("name", Json::string(name));
  if (seed != Scenario().seed) {
    out.set("seed", Json::number(seed));
  }
  if (inferences != 1) {
    out.set("inferences",
            Json::number(static_cast<std::uint64_t>(inferences)));
  }
  if (batch != Scenario().batch) {
    out.set("batch", Json::number(static_cast<std::uint64_t>(batch)));
  }
  if (deadline_s != 0.0) {
    out.set("deadline_s", Json::number(deadline_s));
  }
  if (event_budget != kDefaultEventBudget) {
    out.set("event_budget", Json::number(event_budget));
  }
  if (telemetry) {
    out.set("telemetry", Json::boolean(true));
  }
  if (!sims.empty()) {
    Json list = Json::array();
    for (const fleet::SimKind sim : sims) {
      list.push(Json::string(fleet::sim_kind_name(sim)));
    }
    out.set("sims", std::move(list));
  }
  if (!checks.empty()) {
    Json list = Json::array();
    for (const Check check : checks) {
      list.push(Json::string(check_name(check)));
    }
    out.set("checks", std::move(list));
  }
  Json group_list = Json::array();
  for (const fleet::DeviceGroup& group : groups) {
    group_list.push(group_to_json(group));
  }
  out.set("groups", std::move(group_list));
  return out;
}

std::string Scenario::describe() const { return to_json().write(); }

std::size_t Scenario::schema_fields() const {
  return count_leaves(to_json());
}

Scenario Scenario::from_json(const Json& doc) {
  if (!doc.is_object()) {
    scenario_error("top-level value must be an object, got " +
                   std::string(doc.kind_name()));
  }
  Scenario scenario;
  bool versioned = false;
  bool named = false;
  bool grouped = false;
  for (const auto& [key, value] : doc.members()) {
    if (key == "version") {
      if (value.as_u64() != kVersion) {
        scenario_error("unsupported version " + value.literal());
      }
      versioned = true;
    } else if (key == "name") {
      scenario.name = value.as_string();
      named = true;
    } else if (key == "seed") {
      scenario.seed = value.as_u64();
    } else if (key == "inferences") {
      scenario.inferences = value.as_size();
    } else if (key == "batch") {
      scenario.batch = value.as_size();
    } else if (key == "deadline_s") {
      scenario.deadline_s = value.as_double();
    } else if (key == "event_budget") {
      scenario.event_budget = value.as_u64();
    } else if (key == "telemetry") {
      scenario.telemetry = value.as_bool();
    } else if (key == "sims") {
      for (const Json& item : value.items()) {
        scenario.sims.push_back(parse_sim(item.as_string()));
      }
    } else if (key == "checks") {
      for (const Json& item : value.items()) {
        scenario.checks.push_back(parse_check(item.as_string()));
      }
    } else if (key == "groups") {
      for (const Json& item : value.items()) {
        scenario.groups.push_back(group_from_json(item));
      }
      grouped = true;
    } else {
      scenario_error("unknown field \"" + key + "\"");
    }
  }
  if (!versioned) {
    scenario_error("missing required field \"version\"");
  }
  if (!named) {
    scenario_error("missing required field \"name\"");
  }
  if (!grouped) {
    scenario_error("missing required field \"groups\"");
  }
  scenario.validate();
  return scenario;
}

Scenario Scenario::parse(const std::string& text) {
  return from_json(Json::parse(text));
}

Scenario Scenario::load(const std::string& path) {
  std::ifstream file(path);
  if (!file) {
    throw std::runtime_error("scenario: cannot open '" + path + "'");
  }
  std::ostringstream text;
  text << file.rdbuf();
  return parse(text.str());
}

namespace {

/// Specs need unique group names just like scenarios: gateways aggregate
/// per group name, and rescale_strict's dropped-group diagnostic matches
/// by name.
void require_unique_group_names(const fleet::FleetSpec& spec) {
  for (std::size_t i = 0; i < spec.groups.size(); ++i) {
    for (std::size_t j = 0; j < i; ++j) {
      if (spec.groups[j].name == spec.groups[i].name) {
        throw std::invalid_argument("fleet spec: duplicate group name '" +
                                    spec.groups[i].name + "'");
      }
    }
  }
}

}  // namespace

void validate_fleet(const fleet::FleetSpec& spec) {
  if (spec.groups.empty()) {
    throw std::invalid_argument("fleet spec: no group: lines");
  }
  require_unique_group_names(spec);
  if (spec.inferences == 0) {
    throw std::invalid_argument("fleet spec: inferences must be >= 1");
  }
  if (spec.batch == 0) {
    throw std::invalid_argument("fleet spec: batch must be >= 1");
  }
  if (spec.event_budget == 0) {
    throw std::invalid_argument("fleet spec: event_budget must be >= 1");
  }
  if (!std::isfinite(spec.deadline_s) || spec.deadline_s < 0.0) {
    throw std::invalid_argument(
        "fleet spec: deadline_s must be finite and >= 0");
  }
  for (const fleet::DeviceGroup& group : spec.groups) {
    if (group.name.empty()) {
      throw std::invalid_argument("fleet spec: group line needs a name");
    }
    if (group.count == 0) {
      throw std::invalid_argument("fleet spec: group '" + group.name +
                                  "' has count=0");
    }
    if (group.write_ber < 0.0 || group.write_ber > 1.0 ||
        group.read_ber < 0.0 || group.read_ber > 1.0 ||
        !std::isfinite(group.write_ber) || !std::isfinite(group.read_ber)) {
      throw std::invalid_argument("fleet spec: group '" + group.name +
                                  "' bit-error rates must be in [0, 1]");
    }
    group.power.validate();
    validate_schedule(group.schedule,
                      "fleet spec: group '" + group.name + "'");
    if (group.backend.kind == engine::BackendKind::kFunctional) {
      if (group.power.kind != fleet::PowerProfile::Kind::kContinuous) {
        throw std::invalid_argument(
            "fleet spec: group '" + group.name +
            "' backend=functional requires supply=continuous (no power "
            "model)");
      }
      if (group.schedule.mode != fault::ScheduleMode::kNone) {
        throw std::invalid_argument(
            "fleet spec: group '" + group.name +
            "' backend=functional cannot take an outage schedule");
      }
    }
  }
}

fleet::FleetSpec rescale_strict(const fleet::FleetSpec& spec,
                                std::size_t devices) {
  // Checked here too (fleet_run rescales before validate_fleet): with
  // duplicate names the dropped-group walk below could blame the wrong
  // group.
  require_unique_group_names(spec);
  const fleet::FleetSpec scaled = spec.with_devices(devices);
  if (scaled.groups.size() != spec.groups.size()) {
    // with_devices preserves group order, so the dropped names are the
    // ones missing from the scaled walk.
    std::string dropped;
    std::size_t kept = 0;
    for (const fleet::DeviceGroup& group : spec.groups) {
      if (kept < scaled.groups.size() &&
          scaled.groups[kept].name == group.name) {
        ++kept;
        continue;
      }
      if (!dropped.empty()) {
        dropped += ", ";
      }
      dropped += "'" + group.name + "'";
    }
    throw std::invalid_argument(
        "fleet spec: rescaling to " + std::to_string(devices) +
        " devices would drop group(s) " + dropped +
        " — raise the device count or remove the group");
  }
  return scaled;
}

}  // namespace iprune::scenario
