#pragma once
// FleetSpec: a declarative description of a heterogeneous population of
// intermittently-powered devices.
//
// A fleet is a list of device groups; each group names a model
// architecture, a preservation mode, a harvest profile, and optional
// fault/corruption schedules, plus a `count` that doubles as the group's
// weight when the population is rescaled (`fleet_run --devices N`). The
// whole spec round-trips through describe()/parse() — one line per
// group, space-separated key=value fields — so a fleet experiment is a
// small text file (docs/fleet.md documents the format).
//
// Determinism contract: resolve() expands the spec into per-device
// DeviceSpecs *serially*, deriving every device's seed material from the
// single fleet seed (model/sample streams via util::Rng::split semantics,
// auxiliary corruption/schedule seeds via util::splitmix64), so a given
// spec text always yields the exact same fleet — independent of how many
// lanes later simulate it.

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "engine/backend.hpp"
#include "engine/config.hpp"
#include "fault/schedule.hpp"
#include "power/supply.hpp"

namespace iprune::fleet {

/// Model architecture a device runs (the fault-testbed builders: small
/// deterministic graphs that exercise every lowered node kind).
enum class ModelKind : std::uint8_t { kTiny, kMultipath };

const char* model_kind_name(ModelKind kind);
ModelKind parse_model_kind(const std::string& name);

/// How the orchestrator advances devices through simulated time. Both
/// produce bit-identical FleetResults (the differential tests pin this);
/// they differ only in wall-clock cost.
enum class SimKind : std::uint8_t {
  kStepping,  // event-by-event oracle (power stepped per primitive)
  kBatched,   // lockstep cohorts for eligible groups, stepping otherwise
};

const char* sim_kind_name(SimKind kind);
SimKind parse_sim_kind(const std::string& name);

/// Harvest profile of one device group.
struct PowerProfile {
  enum class Kind : std::uint8_t {
    kContinuous,  // paper's bench supply (1.65 W)
    kStrong,      // 8 mW harvest
    kWeak,        // 4 mW harvest
    kConstant,    // explicit watts
    kSolar,       // day-curve peaking at peak_w over day_s seconds
    kRf,          // RF bursts: burst_w for duty of every period_s
    kKinetic,     // decaying impulse train (steps slots, decay ratio)
    kIndoor,      // office lighting: lit watts for duty, dim floor after
    kDiurnal,     // sin^2 day arc + night, daylight fraction of day_s
    kTrace,       // measured trace file (power::TraceSupply CSV)
  };

  Kind kind = Kind::kStrong;
  double watts = 0.0;     // kConstant / kRf burst / kKinetic impulse /
                          // kIndoor lit watts
  double peak_w = 0.0;    // kSolar / kDiurnal peak watts
  double day_s = 0.0;     // kSolar / kDiurnal day length
  double period_s = 0.0;  // kRf / kKinetic / kIndoor cycle length
  double duty = 0.0;      // kRf / kIndoor on-fraction, kDiurnal daylight
  double dim_w = 0.0;     // kIndoor lights-off floor
  double decay = 0.0;     // kKinetic per-slot decay ratio
  std::uint64_t steps = 0;  // kKinetic impulse slots
  /// kTrace sample file (one mW sample per line; '#' comments). period_s
  /// is the trace's sample period. The path is NOT existence-checked by
  /// validate() — the spec stays pure data; make() throws if it is
  /// missing or empty.
  std::string trace_path;

  static PowerProfile continuous();
  static PowerProfile strong();
  static PowerProfile weak();
  static PowerProfile constant(double watts);
  static PowerProfile solar(double peak_w, double day_s);
  static PowerProfile rf(double burst_w, double period_s, double duty);
  static PowerProfile kinetic(double impulse_w, double period_s,
                              std::uint64_t steps, double decay);
  static PowerProfile indoor(double lit_w, double dim_w, double period_s,
                             double duty);
  static PowerProfile diurnal(double peak_w, double day_s, double daylight);
  static PowerProfile trace(std::string path, double sample_period_s);

  /// Instantiate the power::PowerSupply this profile describes.
  /// Requires validate() to hold.
  [[nodiscard]] std::unique_ptr<power::PowerSupply> make() const;

  /// Range-check every parameter of the active kind; throws
  /// std::invalid_argument with a "fleet spec: supply ..." message naming
  /// the offending field. parse() and DeviceGroup::validate() both call
  /// this, so a profile that parses (or validates) always make()s.
  void validate() const;

  /// "continuous" | "strong" | "weak" | "const:<w>" | "solar:<peak>:<day>"
  /// | "rf:<burst>:<period>:<duty>" | "kinetic:<w>:<period>:<steps>:<decay>"
  /// | "indoor:<lit>:<dim>:<period>:<duty>" | "diurnal:<peak>:<day>:<frac>"
  /// | "trace:<period_s>:<path>" (period first: the path may contain ':').
  [[nodiscard]] std::string describe() const;
  static PowerProfile parse(const std::string& text);

  bool operator==(const PowerProfile& other) const = default;
};

/// Whether a device arms the engine's NVM integrity layer (CRC-protected
/// progress records, sealed regions, boot scrub).
enum class IntegrityMode : std::uint8_t {
  kAuto,  // armed iff the group injects NVM corruption (the default)
  kOn,    // always armed
  kOff,   // never armed — corrupted groups run as the unprotected
          // baseline and may serve silently-wrong logits by design
};

const char* integrity_mode_name(IntegrityMode mode);
IntegrityMode parse_integrity_mode(const std::string& name);

/// True when `name` is non-empty and matches [A-Za-z0-9_.-]+: safe as a
/// Prometheus label value, a CSV field and a file name.
[[nodiscard]] bool valid_name(const std::string& name);

/// One homogeneous slice of the fleet.
struct DeviceGroup {
  std::string name;
  /// Device count; also the group's weight under with_devices() rescaling.
  std::size_t count = 1;
  ModelKind model = ModelKind::kTiny;
  engine::PreservationMode mode = engine::PreservationMode::kImmediate;
  PowerProfile power;
  /// Forced-outage schedule (kNone = organic outages only). Seeded modes
  /// are re-seeded per device (seed XOR the device's splitmix stream) so
  /// group members fail at different, deterministic points.
  fault::OutageSchedule schedule;
  /// NVM corruption (0 = perfect memory). Under IntegrityMode::kAuto any
  /// non-zero rate arms the engine's integrity layer (protected progress
  /// + sealed regions + boot scrub) — an unprotected corrupted fleet
  /// reports silent garbage.
  double write_ber = 0.0;
  double read_ber = 0.0;
  /// Integrity-layer override (kAuto = armed iff corruption is injected).
  IntegrityMode integrity = IntegrityMode::kAuto;
  /// Device backend preset ("msp430-fram" default, omitted from
  /// describe()). Functional groups have no power model: they require
  /// supply=continuous and forbid an outage schedule (validate() checks).
  engine::BackendConfig backend = engine::BackendConfig::msp430_fram();

  /// Range-check the group: a name matching valid_name(), count >= 1,
  /// finite bit-error rates in [0, 1], PowerProfile::validate(), outage
  /// period >= 1 and probability in [0, 1], and the functional backend's
  /// limits. Throws std::invalid_argument with a "fleet spec: ..." message
  /// naming the group. parse() always validates.
  void validate() const;

  [[nodiscard]] std::string describe() const;
  static DeviceGroup parse(const std::string& text);

  bool operator==(const DeviceGroup& other) const = default;
};

/// Everything needed to construct one device stack, fully resolved from
/// the spec. Pure data: the differential tests rebuild the standalone
/// engine path from a DeviceSpec and require bit-identical results.
struct DeviceSpec {
  std::size_t index = 0;  // fleet-wide device index
  std::string group;
  ModelKind model = ModelKind::kTiny;
  engine::PreservationMode mode = engine::PreservationMode::kImmediate;
  PowerProfile power;
  fault::OutageSchedule schedule;  // per-device seed already applied
  double write_ber = 0.0;
  double read_ber = 0.0;
  IntegrityMode integrity = IntegrityMode::kAuto;
  engine::BackendConfig backend = engine::BackendConfig::msp430_fram();
  /// Seed of the device's model/sample Rng stream, drawn from the fleet
  /// Rng in device-index order (Rng::split semantics: the child stream is
  /// Rng(parent.next_u64())).
  std::uint64_t model_seed = 0;
  /// Auxiliary splitmix64-derived material (corruption seed, schedule
  /// re-seeding).
  std::uint64_t stream_seed = 0;
  std::size_t inferences = 1;
  double deadline_s = 0.0;  // 0 = no deadline
  std::uint64_t event_budget = 0;
  bool telemetry = false;
};

struct FleetSpec {
  std::uint64_t seed = 2026;
  /// Per-device simulated-time completion deadline (seconds; 0 = none).
  double deadline_s = 0.0;
  /// Inferences each device must finish to count as completed.
  std::size_t inferences = 1;
  /// Devices simulated concurrently per batch (bounds peak memory: one
  /// batch of device stacks — NVM images included — is live at a time).
  std::size_t batch = 256;
  /// Collect per-device telemetry registries and merge them fleet-wide.
  bool telemetry = false;
  /// Per-device chargeable-event watchdog (guards against schedules
  /// denser than forward progress); exceeding it marks the device failed.
  std::uint64_t event_budget = 1ull << 23;
  /// Simulation strategy (stepping oracle or batched lockstep cohorts).
  /// Never changes results, only wall-clock.
  SimKind sim = SimKind::kStepping;
  std::vector<DeviceGroup> groups;

  /// Upper bound on a fleet's device total.
  static constexpr std::size_t kMaxDevices = 65536;

  /// Sum of the group counts; throws std::invalid_argument ("fleet spec:
  /// fleet exceeds 65536 devices") once it would pass kMaxDevices.
  [[nodiscard]] std::size_t total_devices() const;

  /// Range-check the whole spec: at least one group; inferences, batch and
  /// event_budget >= 1; deadline_s finite and >= 0; every group's
  /// DeviceGroup::validate(); unique group names (gateways aggregate by
  /// name); at most kMaxDevices devices in all. Throws
  /// std::invalid_argument with a "fleet spec: ..." message.
  /// parse() always validates; specs built or changed in code (CLI flag
  /// overrides, scenario documents) call it themselves.
  void validate() const;

  /// Rescale group counts to `n` total devices, proportional to the
  /// existing counts (largest-remainder rounding, ties to earlier groups).
  /// Group order is preserved; 1 <= n <= kMaxDevices required, and the
  /// spec's own total must be within kMaxDevices too.
  [[nodiscard]] FleetSpec with_devices(std::size_t n) const;

  /// Serially expand into per-device specs (see determinism contract).
  [[nodiscard]] std::vector<DeviceSpec> resolve() const;

  /// Canonical text form; parse(describe()) == *this.
  [[nodiscard]] std::string describe() const;
  static FleetSpec parse(const std::string& text);
  static FleetSpec load(const std::string& path);

  /// Built-in heterogeneous mix used by fleet_run when no --spec is
  /// given: mains/strong/weak/solar harvest groups plus a fault-injected
  /// group, across both testbed models and all preservation modes.
  static FleetSpec example(std::size_t devices);

  bool operator==(const FleetSpec& other) const = default;
};

/// FleetSpec::with_devices that refuses to silently drop groups: validates
/// `spec` first, then, when rescaling to `devices` would apportion zero
/// devices to some group, throws naming every dropped group instead of
/// returning a smaller fleet.
[[nodiscard]] FleetSpec rescale_strict(const FleetSpec& spec,
                                       std::size_t devices);

}  // namespace iprune::fleet
