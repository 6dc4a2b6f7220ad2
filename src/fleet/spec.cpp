#include "fleet/spec.hpp"

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "fault/checker.hpp"
#include "util/rng.hpp"
#include "util/splitmix.hpp"

namespace iprune::fleet {

namespace {

std::string format_g17(double value) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  return buf;
}

double parse_double(const std::string& text, const std::string& what) {
  char* end = nullptr;
  const double value = std::strtod(text.c_str(), &end);
  if (end == text.c_str() || *end != '\0') {
    throw std::invalid_argument("fleet spec: bad " + what + " '" + text + "'");
  }
  return value;
}

std::uint64_t parse_u64(const std::string& text, const std::string& what) {
  char* end = nullptr;
  const unsigned long long value = std::strtoull(text.c_str(), &end, 10);
  if (end == text.c_str() || *end != '\0') {
    throw std::invalid_argument("fleet spec: bad " + what + " '" + text + "'");
  }
  return value;
}

bool parse_bool(const std::string& text, const std::string& what) {
  if (text == "on" || text == "true" || text == "1") {
    return true;
  }
  if (text == "off" || text == "false" || text == "0") {
    return false;
  }
  throw std::invalid_argument("fleet spec: bad " + what + " '" + text + "'");
}

/// Split a line into whitespace-separated key=value fields. Schedule
/// descriptions contain ';' and '=', so the separator is whitespace and
/// only the FIRST '=' splits key from value.
std::vector<std::pair<std::string, std::string>> parse_fields(
    const std::string& line) {
  std::vector<std::pair<std::string, std::string>> fields;
  std::istringstream stream(line);
  std::string token;
  while (stream >> token) {
    const std::size_t eq = token.find('=');
    if (eq == std::string::npos || eq == 0) {
      throw std::invalid_argument("fleet spec: expected key=value, got '" +
                                  token + "'");
    }
    fields.emplace_back(token.substr(0, eq), token.substr(eq + 1));
  }
  return fields;
}

}  // namespace

const char* model_kind_name(ModelKind kind) {
  switch (kind) {
    case ModelKind::kTiny:
      return "tiny";
    case ModelKind::kMultipath:
      return "multipath";
  }
  return "?";
}

ModelKind parse_model_kind(const std::string& name) {
  if (name == "tiny") {
    return ModelKind::kTiny;
  }
  if (name == "multipath") {
    return ModelKind::kMultipath;
  }
  throw std::invalid_argument("fleet spec: unknown model '" + name + "'");
}

const char* sim_kind_name(SimKind kind) {
  switch (kind) {
    case SimKind::kStepping:
      return "stepping";
    case SimKind::kBatched:
      return "batched";
  }
  return "?";
}

SimKind parse_sim_kind(const std::string& name) {
  if (name == "stepping") {
    return SimKind::kStepping;
  }
  if (name == "batched") {
    return SimKind::kBatched;
  }
  throw std::invalid_argument("fleet spec: unknown sim '" + name + "'");
}

PowerProfile PowerProfile::continuous() {
  PowerProfile p;
  p.kind = Kind::kContinuous;
  return p;
}

PowerProfile PowerProfile::strong() {
  PowerProfile p;
  p.kind = Kind::kStrong;
  return p;
}

PowerProfile PowerProfile::weak() {
  PowerProfile p;
  p.kind = Kind::kWeak;
  return p;
}

PowerProfile PowerProfile::constant(double watts) {
  PowerProfile p;
  p.kind = Kind::kConstant;
  p.watts = watts;
  return p;
}

PowerProfile PowerProfile::solar(double peak_w, double day_s) {
  PowerProfile p;
  p.kind = Kind::kSolar;
  p.peak_w = peak_w;
  p.day_s = day_s;
  return p;
}

PowerProfile PowerProfile::rf(double burst_w, double period_s, double duty) {
  PowerProfile p;
  p.kind = Kind::kRf;
  p.watts = burst_w;
  p.period_s = period_s;
  p.duty = duty;
  return p;
}

PowerProfile PowerProfile::kinetic(double impulse_w, double period_s,
                                   std::uint64_t steps, double decay) {
  PowerProfile p;
  p.kind = Kind::kKinetic;
  p.watts = impulse_w;
  p.period_s = period_s;
  p.steps = steps;
  p.decay = decay;
  return p;
}

PowerProfile PowerProfile::indoor(double lit_w, double dim_w,
                                  double period_s, double duty) {
  PowerProfile p;
  p.kind = Kind::kIndoor;
  p.watts = lit_w;
  p.dim_w = dim_w;
  p.period_s = period_s;
  p.duty = duty;
  return p;
}

PowerProfile PowerProfile::diurnal(double peak_w, double day_s,
                                   double daylight) {
  PowerProfile p;
  p.kind = Kind::kDiurnal;
  p.peak_w = peak_w;
  p.day_s = day_s;
  p.duty = daylight;
  return p;
}

PowerProfile PowerProfile::trace(std::string path, double sample_period_s) {
  PowerProfile p;
  p.kind = Kind::kTrace;
  p.trace_path = std::move(path);
  p.period_s = sample_period_s;
  return p;
}

std::unique_ptr<power::PowerSupply> PowerProfile::make() const {
  switch (kind) {
    case Kind::kContinuous:
      return power::SupplyPresets::continuous();
    case Kind::kStrong:
      return power::SupplyPresets::strong();
    case Kind::kWeak:
      return power::SupplyPresets::weak();
    case Kind::kConstant:
      return std::make_unique<power::ConstantSupply>(watts);
    case Kind::kSolar:
      return power::SupplyPresets::solar_day(peak_w, day_s);
    case Kind::kRf:
      return std::make_unique<power::RfSupply>(watts, period_s, duty);
    case Kind::kKinetic:
      return std::make_unique<power::KineticSupply>(
          watts, period_s, static_cast<std::size_t>(steps), decay);
    case Kind::kIndoor:
      return std::make_unique<power::IndoorSolarSupply>(watts, dim_w,
                                                        period_s, duty);
    case Kind::kDiurnal:
      return std::make_unique<power::DiurnalSupply>(peak_w, day_s, duty);
    case Kind::kTrace:
      return std::make_unique<power::TraceSupply>(
          power::TraceSupply::from_csv(trace_path, period_s));
  }
  throw std::logic_error("fleet spec: bad power profile kind");
}

namespace {

[[noreturn]] void supply_range_error(const std::string& field,
                                     const std::string& constraint) {
  throw std::invalid_argument("fleet spec: supply " + field + " must be " +
                              constraint);
}

void require_positive(double value, const std::string& field) {
  if (!std::isfinite(value) || value <= 0.0) {
    supply_range_error(field, "finite and > 0");
  }
}

void require_fraction(double value, const std::string& field) {
  if (!std::isfinite(value) || value <= 0.0 || value > 1.0) {
    supply_range_error(field, "in (0, 1]");
  }
}

}  // namespace

void PowerProfile::validate() const {
  switch (kind) {
    case Kind::kContinuous:
    case Kind::kStrong:
    case Kind::kWeak:
      return;
    case Kind::kConstant:
      require_positive(watts, "watts");
      return;
    case Kind::kSolar:
      require_positive(peak_w, "solar peak_w");
      require_positive(day_s, "solar day_s");
      return;
    case Kind::kRf:
      require_positive(watts, "rf burst_w");
      require_positive(period_s, "rf period_s");
      require_fraction(duty, "rf duty");
      return;
    case Kind::kKinetic:
      require_positive(watts, "kinetic impulse_w");
      require_positive(period_s, "kinetic period_s");
      require_fraction(decay, "kinetic decay");
      if (steps == 0 || steps > 4096) {
        supply_range_error("kinetic steps", "in [1, 4096]");
      }
      return;
    case Kind::kIndoor:
      require_positive(watts, "indoor lit_w");
      require_positive(period_s, "indoor period_s");
      require_fraction(duty, "indoor duty");
      if (!std::isfinite(dim_w) || dim_w < 0.0 || dim_w > watts) {
        supply_range_error("indoor dim_w", "in [0, lit_w]");
      }
      return;
    case Kind::kDiurnal:
      require_positive(peak_w, "diurnal peak_w");
      require_positive(day_s, "diurnal day_s");
      require_fraction(duty, "diurnal daylight");
      return;
    case Kind::kTrace:
      require_positive(period_s, "trace period_s");
      if (trace_path.empty()) {
        supply_range_error("trace path", "non-empty");
      }
      return;
  }
  throw std::logic_error("fleet spec: bad power profile kind");
}

std::string PowerProfile::describe() const {
  switch (kind) {
    case Kind::kContinuous:
      return "continuous";
    case Kind::kStrong:
      return "strong";
    case Kind::kWeak:
      return "weak";
    case Kind::kConstant:
      return "const:" + format_g17(watts);
    case Kind::kSolar:
      return "solar:" + format_g17(peak_w) + ":" + format_g17(day_s);
    case Kind::kRf:
      return "rf:" + format_g17(watts) + ":" + format_g17(period_s) + ":" +
             format_g17(duty);
    case Kind::kKinetic:
      return "kinetic:" + format_g17(watts) + ":" + format_g17(period_s) +
             ":" + std::to_string(steps) + ":" + format_g17(decay);
    case Kind::kIndoor:
      return "indoor:" + format_g17(watts) + ":" + format_g17(dim_w) + ":" +
             format_g17(period_s) + ":" + format_g17(duty);
    case Kind::kDiurnal:
      return "diurnal:" + format_g17(peak_w) + ":" + format_g17(day_s) +
             ":" + format_g17(duty);
    case Kind::kTrace:
      // Period before path: the path may itself contain ':' and is
      // terminated only by the end of the token.
      return "trace:" + format_g17(period_s) + ":" + trace_path;
  }
  return "?";
}

namespace {

/// Split "a:b:c" into exactly `arity` parts; throws naming the supply
/// form when the arity is wrong.
std::vector<std::string> supply_args(const std::string& text,
                                     const std::string& rest,
                                     std::size_t arity,
                                     const std::string& form) {
  std::vector<std::string> parts;
  std::size_t begin = 0;
  while (begin <= rest.size()) {
    const std::size_t colon = rest.find(':', begin);
    if (colon == std::string::npos) {
      parts.push_back(rest.substr(begin));
      break;
    }
    parts.push_back(rest.substr(begin, colon - begin));
    begin = colon + 1;
  }
  if (parts.size() != arity) {
    throw std::invalid_argument("fleet spec: supply needs " + form +
                                ", got '" + text + "'");
  }
  return parts;
}

}  // namespace

PowerProfile PowerProfile::parse(const std::string& text) {
  PowerProfile profile;
  if (text == "continuous") {
    profile = continuous();
  } else if (text == "strong") {
    profile = strong();
  } else if (text == "weak") {
    profile = weak();
  } else if (text.rfind("const:", 0) == 0) {
    profile = constant(parse_double(text.substr(6), "supply watts"));
  } else if (text.rfind("solar:", 0) == 0) {
    const auto args = supply_args(text, text.substr(6), 2,
                                  "solar:<peak_w>:<day_s>");
    profile = solar(parse_double(args[0], "solar peak_w"),
                    parse_double(args[1], "solar day_s"));
  } else if (text.rfind("rf:", 0) == 0) {
    const auto args = supply_args(text, text.substr(3), 3,
                                  "rf:<burst_w>:<period_s>:<duty>");
    profile = rf(parse_double(args[0], "rf burst_w"),
                 parse_double(args[1], "rf period_s"),
                 parse_double(args[2], "rf duty"));
  } else if (text.rfind("kinetic:", 0) == 0) {
    const auto args =
        supply_args(text, text.substr(8), 4,
                    "kinetic:<impulse_w>:<period_s>:<steps>:<decay>");
    profile = kinetic(parse_double(args[0], "kinetic impulse_w"),
                      parse_double(args[1], "kinetic period_s"),
                      parse_u64(args[2], "kinetic steps"),
                      parse_double(args[3], "kinetic decay"));
  } else if (text.rfind("indoor:", 0) == 0) {
    const auto args =
        supply_args(text, text.substr(7), 4,
                    "indoor:<lit_w>:<dim_w>:<period_s>:<duty>");
    profile = indoor(parse_double(args[0], "indoor lit_w"),
                     parse_double(args[1], "indoor dim_w"),
                     parse_double(args[2], "indoor period_s"),
                     parse_double(args[3], "indoor duty"));
  } else if (text.rfind("diurnal:", 0) == 0) {
    const auto args = supply_args(text, text.substr(8), 3,
                                  "diurnal:<peak_w>:<day_s>:<daylight>");
    profile = diurnal(parse_double(args[0], "diurnal peak_w"),
                      parse_double(args[1], "diurnal day_s"),
                      parse_double(args[2], "diurnal daylight"));
  } else if (text.rfind("trace:", 0) == 0) {
    const std::string rest = text.substr(6);
    const std::size_t colon = rest.find(':');
    if (colon == std::string::npos) {
      throw std::invalid_argument(
          "fleet spec: supply needs trace:<period_s>:<path>, got '" + text +
          "'");
    }
    profile = trace(rest.substr(colon + 1),
                    parse_double(rest.substr(0, colon), "trace period_s"));
  } else {
    throw std::invalid_argument("fleet spec: unknown supply '" + text + "'");
  }
  profile.validate();
  return profile;
}

const char* integrity_mode_name(IntegrityMode mode) {
  switch (mode) {
    case IntegrityMode::kAuto:
      return "auto";
    case IntegrityMode::kOn:
      return "on";
    case IntegrityMode::kOff:
      return "off";
  }
  return "?";
}

IntegrityMode parse_integrity_mode(const std::string& name) {
  if (name == "auto") {
    return IntegrityMode::kAuto;
  }
  if (name == "on") {
    return IntegrityMode::kOn;
  }
  if (name == "off") {
    return IntegrityMode::kOff;
  }
  throw std::invalid_argument("fleet spec: unknown integrity mode '" + name +
                              "'");
}

std::string DeviceGroup::describe() const {
  std::string out = "group: name=" + name + " count=" + std::to_string(count) +
                    " model=" + model_kind_name(model) + " mode=" +
                    fault::preservation_mode_name(mode) + " supply=" +
                    power.describe();
  if (schedule.mode != fault::ScheduleMode::kNone) {
    out += " schedule=" + schedule.describe();
  }
  if (write_ber != 0.0) {
    out += " write_ber=" + format_g17(write_ber);
  }
  if (read_ber != 0.0) {
    out += " read_ber=" + format_g17(read_ber);
  }
  if (integrity != IntegrityMode::kAuto) {
    out += " integrity=" + std::string(integrity_mode_name(integrity));
  }
  if (backend != engine::BackendConfig::msp430_fram()) {
    out += " backend=" + backend.describe();
  }
  return out;
}

DeviceGroup DeviceGroup::parse(const std::string& text) {
  DeviceGroup group;
  bool named = false;
  for (const auto& [key, value] : parse_fields(text)) {
    if (key == "name") {
      group.name = value;
      named = true;
    } else if (key == "count") {
      group.count = static_cast<std::size_t>(parse_u64(value, "count"));
    } else if (key == "model") {
      group.model = parse_model_kind(value);
    } else if (key == "mode") {
      group.mode = fault::parse_preservation_mode(value);
    } else if (key == "supply") {
      group.power = PowerProfile::parse(value);
    } else if (key == "schedule") {
      group.schedule = fault::OutageSchedule::parse(value);
    } else if (key == "write_ber") {
      group.write_ber = parse_double(value, "write_ber");
    } else if (key == "read_ber") {
      group.read_ber = parse_double(value, "read_ber");
    } else if (key == "integrity") {
      group.integrity = parse_integrity_mode(value);
    } else if (key == "backend") {
      try {
        group.backend = engine::BackendConfig::parse(value);
      } catch (const std::runtime_error&) {
        throw std::invalid_argument("fleet spec: unknown backend '" + value +
                                    "'");
      }
    } else {
      throw std::invalid_argument("fleet spec: unknown group field '" + key +
                                  "'");
    }
  }
  if (!named || group.name.empty()) {
    throw std::invalid_argument("fleet spec: group line needs a name");
  }
  if (group.count == 0) {
    throw std::invalid_argument("fleet spec: group '" + group.name +
                                "' has count=0");
  }
  if (group.write_ber < 0.0 || group.write_ber > 1.0 ||
      group.read_ber < 0.0 || group.read_ber > 1.0) {
    throw std::invalid_argument("fleet spec: group '" + group.name +
                                "' bit-error rates must be in [0, 1]");
  }
  // The functional backend has no power model: harvest profiles and
  // outage schedules cannot apply to it, so reject specs that pretend
  // otherwise instead of silently ignoring the fields.
  if (group.backend.kind == engine::BackendKind::kFunctional) {
    if (group.power.kind != PowerProfile::Kind::kContinuous) {
      throw std::invalid_argument(
          "fleet spec: group '" + group.name +
          "' backend=functional requires supply=continuous (no power model)");
    }
    if (group.schedule.mode != fault::ScheduleMode::kNone) {
      throw std::invalid_argument(
          "fleet spec: group '" + group.name +
          "' backend=functional cannot take an outage schedule");
    }
  }
  return group;
}

std::size_t FleetSpec::total_devices() const {
  std::size_t total = 0;
  for (const DeviceGroup& group : groups) {
    total += group.count;
  }
  return total;
}

FleetSpec FleetSpec::with_devices(std::size_t n) const {
  if (n == 0) {
    throw std::invalid_argument("fleet spec: device count must be >= 1");
  }
  if (groups.empty()) {
    throw std::invalid_argument("fleet spec: no groups to scale");
  }
  const std::size_t total = total_devices();
  FleetSpec scaled = *this;
  // Largest-remainder apportionment: floor each share, then hand the
  // leftover devices to the groups with the largest fractional parts
  // (ties to earlier groups). Deterministic and order-preserving.
  std::size_t assigned = 0;
  std::vector<std::size_t> remainder_num(groups.size());
  for (std::size_t i = 0; i < groups.size(); ++i) {
    const std::size_t share = n * groups[i].count;  // spec counts are small
    scaled.groups[i].count = share / total;
    remainder_num[i] = share % total;
    assigned += scaled.groups[i].count;
  }
  while (assigned < n) {
    std::size_t best = 0;
    for (std::size_t i = 1; i < groups.size(); ++i) {
      if (remainder_num[i] > remainder_num[best]) {
        best = i;
      }
    }
    ++scaled.groups[best].count;
    remainder_num[best] = 0;
    ++assigned;
  }
  // Drop groups scaled to zero devices (n smaller than the group count):
  // a zero-count group would fail the count>=1 invariant on re-parse.
  std::vector<DeviceGroup> kept;
  for (const DeviceGroup& group : scaled.groups) {
    if (group.count > 0) {
      kept.push_back(group);
    }
  }
  scaled.groups = std::move(kept);
  return scaled;
}

std::vector<DeviceSpec> FleetSpec::resolve() const {
  std::vector<DeviceSpec> devices;
  devices.reserve(total_devices());
  // One fleet-level Rng; each device's model stream is a split child
  // (Rng::split hands the child Rng(parent.next_u64()), so storing the
  // drawn word reproduces the exact split stream on the device).
  util::Rng fleet_rng(seed);
  std::size_t index = 0;
  for (const DeviceGroup& group : groups) {
    for (std::size_t i = 0; i < group.count; ++i, ++index) {
      DeviceSpec d;
      d.index = index;
      d.group = group.name;
      d.model = group.model;
      d.mode = group.mode;
      d.power = group.power;
      d.write_ber = group.write_ber;
      d.read_ber = group.read_ber;
      d.integrity = group.integrity;
      d.backend = group.backend;
      d.model_seed = fleet_rng.next_u64();
      d.stream_seed = util::splitmix64_at(seed, index);
      d.schedule = group.schedule;
      if (d.schedule.mode == fault::ScheduleMode::kRandom) {
        // Decorrelate group members: same outage statistics, different
        // (deterministic) outage points per device.
        d.schedule.seed ^= d.stream_seed;
      }
      d.inferences = inferences;
      d.deadline_s = deadline_s;
      d.event_budget = event_budget;
      d.telemetry = telemetry;
      devices.push_back(std::move(d));
    }
  }
  return devices;
}

std::string FleetSpec::describe() const {
  std::string out = "fleet: seed=" + std::to_string(seed) + " inferences=" +
                    std::to_string(inferences) + " batch=" +
                    std::to_string(batch) + " telemetry=" +
                    (telemetry ? "on" : "off") + " event_budget=" +
                    std::to_string(event_budget);
  if (deadline_s != 0.0) {
    out += " deadline_s=" + format_g17(deadline_s);
  }
  if (sim != SimKind::kStepping) {
    out += " sim=" + std::string(sim_kind_name(sim));
  }
  out += "\n";
  for (const DeviceGroup& group : groups) {
    out += group.describe() + "\n";
  }
  return out;
}

FleetSpec FleetSpec::parse(const std::string& text) {
  FleetSpec spec;
  spec.groups.clear();
  bool saw_fleet = false;
  std::istringstream stream(text);
  std::string line;
  std::size_t line_no = 0;
  while (std::getline(stream, line)) {
    ++line_no;
    const std::size_t start = line.find_first_not_of(" \t\r");
    if (start == std::string::npos || line[start] == '#') {
      continue;
    }
    const std::string body = line.substr(start);
    if (body.rfind("fleet:", 0) == 0) {
      if (saw_fleet) {
        throw std::invalid_argument(
            "fleet spec: duplicate fleet: line (line " +
            std::to_string(line_no) + ")");
      }
      saw_fleet = true;
      for (const auto& [key, value] : parse_fields(body.substr(6))) {
        if (key == "seed") {
          spec.seed = parse_u64(value, "seed");
        } else if (key == "deadline_s") {
          spec.deadline_s = parse_double(value, "deadline_s");
        } else if (key == "inferences") {
          spec.inferences = static_cast<std::size_t>(
              parse_u64(value, "inferences"));
        } else if (key == "batch") {
          spec.batch = static_cast<std::size_t>(parse_u64(value, "batch"));
        } else if (key == "telemetry") {
          spec.telemetry = parse_bool(value, "telemetry");
        } else if (key == "event_budget") {
          spec.event_budget = parse_u64(value, "event_budget");
        } else if (key == "sim") {
          spec.sim = parse_sim_kind(value);
        } else {
          throw std::invalid_argument("fleet spec: unknown fleet field '" +
                                      key + "'");
        }
      }
    } else if (body.rfind("group:", 0) == 0) {
      spec.groups.push_back(DeviceGroup::parse(body.substr(6)));
    } else {
      throw std::invalid_argument(
          "fleet spec: line " + std::to_string(line_no) +
          " must start with 'fleet:', 'group:', or '#'");
    }
  }
  if (spec.groups.empty()) {
    throw std::invalid_argument("fleet spec: no group: lines");
  }
  if (spec.inferences == 0) {
    throw std::invalid_argument("fleet spec: inferences must be >= 1");
  }
  if (spec.batch == 0) {
    throw std::invalid_argument("fleet spec: batch must be >= 1");
  }
  return spec;
}

FleetSpec FleetSpec::load(const std::string& path) {
  std::ifstream file(path);
  if (!file) {
    throw std::runtime_error("fleet spec: cannot open '" + path + "'");
  }
  std::ostringstream text;
  text << file.rdbuf();
  return parse(text.str());
}

FleetSpec FleetSpec::example(std::size_t devices) {
  FleetSpec spec;
  spec.seed = 2026;
  // Enough inferences to outrun the energy buffer (~104 uJ usable, ~20 uJ
  // per tiny inference): the weak/harsh groups brown out organically.
  spec.inferences = 8;

  DeviceGroup mains;
  mains.name = "mains";
  mains.count = 2;
  mains.model = ModelKind::kTiny;
  mains.mode = engine::PreservationMode::kAccumulateInVm;
  mains.power = PowerProfile::continuous();

  DeviceGroup strong;
  strong.name = "strong";
  strong.count = 3;
  strong.model = ModelKind::kTiny;
  strong.mode = engine::PreservationMode::kImmediate;
  strong.power = PowerProfile::strong();

  DeviceGroup weak;
  weak.name = "weak";
  weak.count = 2;
  weak.model = ModelKind::kMultipath;
  weak.mode = engine::PreservationMode::kTaskAtomic;
  weak.power = PowerProfile::weak();

  DeviceGroup solar;
  solar.name = "solar";
  solar.count = 2;
  solar.model = ModelKind::kTiny;
  solar.mode = engine::PreservationMode::kImmediate;
  solar.power = PowerProfile::solar(8.0e-3, 0.5);

  // Sub-milliwatt harvest: the buffer sustains ~10 ms of inference per
  // charge, so these devices duty-cycle through organic brown-outs.
  DeviceGroup harsh;
  harsh.name = "harsh";
  harsh.count = 2;
  harsh.model = ModelKind::kTiny;
  harsh.mode = engine::PreservationMode::kImmediate;
  harsh.power = PowerProfile::constant(5.0e-4);

  DeviceGroup faulty;
  faulty.name = "faulty";
  faulty.count = 1;
  faulty.model = ModelKind::kTiny;
  faulty.mode = engine::PreservationMode::kImmediate;
  faulty.power = PowerProfile::strong();
  faulty.schedule = fault::OutageSchedule::random(7, 1.0e-2, 16);

  spec.groups = {mains, strong, weak, solar, harsh, faulty};
  return spec.with_devices(devices);
}

}  // namespace iprune::fleet
