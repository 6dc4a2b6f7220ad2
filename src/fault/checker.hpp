#pragma once
// Differential fault oracle.
//
// The checker runs one model under continuous power (the conventional
// accumulate-in-VM flow) to obtain golden logits, then replays the same
// model under a fault load in an intermittent-safe preservation mode and
// judges the replay against the golden run. Every replay takes the same
// path: a fresh Graph clone on a fresh device, the corruption model and
// the outage injector installed before deployment, a CommitMonitor on the
// engine, and one artifact record per run. Two verdicts read that record.
//
// check(sample, OutageSchedule, mode) asserts the crash-consistency
// contract under power failures (clean ones, or tearing the in-flight
// write when the schedule says so), with the engine's integrity layer as
// the caller configured it:
//
//   1. the run completes (progress is made despite every injected outage);
//   2. logits are bit-identical to the golden run;
//   3. progress commits are strictly monotonic (+1 per commit, no torn or
//      reordered counter writes) and every post-failure recovery re-reads
//      the exact persisted counter (the engine throws otherwise);
//   4. re-execution is bounded: kImmediate loses at most one job per power
//      failure, kTaskAtomic at most one task's worth of jobs;
//   5. the NVM layout is still valid afterwards and the persisted counter
//      equals the number of committed jobs.
//
// Any violation yields a ScheduleOutcome carrying a one-line repro
// (mode + schedule + failing indices); shrink() reduces a failing schedule
// to a minimal kFixed ordinal list via ddmin over the realized outages.
//
// check(sample, CorruptionScenario, mode, protect) covers the rest of the
// threat model: writes torn at the outage boundary, bit flips on the NVM
// store/load paths, and stuck-at cells (addresses given as region labels
// resolved against the deployed layout). `protect` arms or disarms the
// whole integrity layer (CRC-sealed progress records, sealed static
// regions, boot scrub), and the outcome is classified:
//
//   kConsistent  completed, logits bit-identical to golden, no recovery
//   kRecovered   completed bit-identical, but only because the integrity
//                layer rolled back a torn/corrupt progress record
//   kDetected    fail-stop: the run threw IntegrityError (boot scrub or
//                double-corrupt progress records) — corruption was caught
//                before producing wrong output
//   kSilent      completed with logits diverging from golden — silent
//                data corruption escaped
//   kCrashed     any other failure (consistency exception, nontermination)
//
// IntegrityReport::exit_code() maps a batch to the fault_check --corrupt
// CLI contract: 0 = every scenario consistent, 1 = corruption occurred
// but was always detected/recovered, 2 = at least one silent escape or
// unrecovered crash.
//
// Runs never share state, so batches check in parallel over
// runtime::parallel_map with deterministic, index-ordered results.

#include <cstdint>
#include <string>
#include <vector>

#include "engine/engine.hpp"
#include "fault/schedule.hpp"
#include "nn/graph.hpp"
#include "runtime/thread_pool.hpp"

namespace iprune::fault {

/// "immediate" | "task" | "accumulate".
const char* preservation_mode_name(engine::PreservationMode mode);
/// Inverse of preservation_mode_name; throws std::invalid_argument.
engine::PreservationMode parse_preservation_mode(const std::string& name);

struct CheckerConfig {
  device::DeviceConfig device = device::DeviceConfig::msp430fr5994();
  power::BufferConfig buffer;
  /// .mode is overridden per check; .integrity holds for schedule checks
  /// and is overridden (all-on or all-off) by scenario checks.
  engine::EngineConfig engine;
  /// Supply power for every run (continuous by default: all outages are
  /// injected, none organic, so reexecution bounds are exact).
  double supply_w = power::SupplyPresets::kContinuousW;
  std::size_t max_restarts = 64;
  /// Chargeable-event watchdog; 0 = auto (clean-run events x 256 + 65536).
  /// A run exceeding the budget is reported as a nontermination failure
  /// instead of looping forever.
  std::uint64_t event_budget = 0;
};

/// Verdict of one (schedule, mode) replay against the golden run.
struct ScheduleOutcome {
  OutageSchedule schedule;
  engine::PreservationMode mode = engine::PreservationMode::kImmediate;
  bool passed = false;
  bool completed = false;
  std::string failure;  // empty when passed; first violated invariant
  std::uint64_t injected_outages = 0;
  std::uint64_t total_events = 0;
  std::size_t power_failures = 0;
  std::size_t reexecuted_jobs = 0;
  /// First logit index differing from golden (-1 = none).
  std::int64_t first_divergence = -1;
  /// Job counter at the last observed commit (the failing job index of a
  /// divergent run is at most this + 1).
  std::uint32_t last_committed_job = 0;
  /// Realized outage ordinals — replaying them as a kFixed schedule
  /// reproduces this run exactly (the shrink basis).
  std::vector<std::uint64_t> outage_events;

  /// One-line replay token, e.g. "mode=immediate;schedule=fixed:3,17".
  /// `fault_check --repro '<token>'` re-runs it.
  [[nodiscard]] std::string repro() const;
  /// Human-readable verdict (repro + failure + counters).
  [[nodiscard]] std::string to_string() const;
};

struct CheckReport {
  std::vector<ScheduleOutcome> outcomes;

  [[nodiscard]] std::size_t failed() const;
  /// First failing outcome in schedule order, nullptr when all passed.
  [[nodiscard]] const ScheduleOutcome* first_failure() const;
};

enum class IntegrityVerdict : std::uint8_t {
  kConsistent,
  kRecovered,
  kDetected,
  kSilent,
  kCrashed,
};

const char* integrity_verdict_name(IntegrityVerdict verdict);

/// One stuck cell, addressed relative to a deployed NVM region.
struct StuckSpec {
  std::string region;  // label (exact, or unique suffix like ".bsr_values")
  std::size_t offset = 0;
  std::uint8_t bit = 0;
  bool value = false;
};

struct CorruptionScenario {
  std::string label;
  /// Outage schedule; its torn-write spec decides how much of the batch
  /// in flight at each injected outage lands (see OutageSchedule::torn).
  OutageSchedule schedule = OutageSchedule::none();
  std::uint64_t seed = 1;
  double write_ber = 0.0;
  double read_ber = 0.0;
  /// Confine BER faults to one region ("" = whole NVM). Same label
  /// resolution as StuckSpec::region.
  std::string window_region;
  std::vector<StuckSpec> stuck;

  [[nodiscard]] bool has_corruption() const {
    return write_ber > 0.0 || read_ber > 0.0 || !stuck.empty();
  }
};

struct ScenarioOutcome {
  std::string label;
  engine::PreservationMode mode = engine::PreservationMode::kImmediate;
  bool protect = false;
  IntegrityVerdict verdict = IntegrityVerdict::kCrashed;
  std::string detail;  // exception text / first divergence
  std::size_t power_failures = 0;
  std::size_t integrity_rollbacks = 0;
  std::size_t scrub_failures = 0;
  std::uint64_t write_flips = 0;
  std::uint64_t read_flips = 0;
  std::uint64_t stuck_hits = 0;

  [[nodiscard]] std::string to_string() const;
};

struct IntegrityReport {
  std::vector<ScenarioOutcome> outcomes;

  [[nodiscard]] std::size_t count(IntegrityVerdict verdict) const;
  /// First outcome with the given verdict, nullptr when none.
  [[nodiscard]] const ScenarioOutcome* first(IntegrityVerdict verdict) const;
  /// 0 = all consistent; 1 = corruption detected and contained
  /// (recovered or fail-stopped) in every scenario; 2 = silent escape
  /// or unrecovered crash.
  [[nodiscard]] int exit_code() const;
};

class Checker {
 public:
  /// Snapshots `graph` (deep clone) and the calibration batch; every run
  /// deploys a fresh clone onto a fresh device, so the checker never
  /// mutates caller state and batches parallelize safely.
  Checker(const nn::Graph& graph, nn::Tensor calibration,
          CheckerConfig config = {});

  /// Golden logits: accumulate-in-VM under continuous power, no faults.
  [[nodiscard]] std::vector<float> golden(const nn::Tensor& sample) const;

  /// Check one schedule under one preservation mode.
  [[nodiscard]] ScheduleOutcome check(const nn::Tensor& sample,
                                      const OutageSchedule& schedule,
                                      engine::PreservationMode mode) const;

  /// Check one corruption scenario with the integrity layer armed
  /// (`protect`) or disarmed.
  [[nodiscard]] ScenarioOutcome check(const nn::Tensor& sample,
                                      const CorruptionScenario& scenario,
                                      engine::PreservationMode mode,
                                      bool protect) const;

  /// Batch forms (golden run and budget computed once, replays fanned out
  /// over the pool, results in input order regardless of lanes).
  [[nodiscard]] CheckReport check_schedules(
      const nn::Tensor& sample, const std::vector<OutageSchedule>& schedules,
      engine::PreservationMode mode,
      runtime::ThreadPool* pool = nullptr) const;
  [[nodiscard]] IntegrityReport check_scenarios(
      const nn::Tensor& sample,
      const std::vector<CorruptionScenario>& scenarios,
      engine::PreservationMode mode, bool protect,
      runtime::ThreadPool* pool = nullptr) const;

  /// Chargeable events / NVM-write boundaries of one clean (no-injection)
  /// inference in `mode` — the domain of exhaustive sweeps. Arming the
  /// integrity layer widens commit records but adds no write boundary.
  [[nodiscard]] std::uint64_t count_events(
      const nn::Tensor& sample, engine::PreservationMode mode) const;
  [[nodiscard]] std::uint64_t count_write_boundaries(
      const nn::Tensor& sample, engine::PreservationMode mode) const;

  /// One kAtWrite schedule per NVM-write boundary of a clean run in
  /// `mode` — "fail at every preserved-output commit k" in kImmediate.
  [[nodiscard]] std::vector<OutageSchedule> exhaustive_write_schedules(
      const nn::Tensor& sample, engine::PreservationMode mode) const;

  /// Torn-commit sweep: for every `stride`-th of `boundaries` write
  /// boundaries k (count them in the mode the sweep runs in), one
  /// scenario tearing the batch at each keep length in `keeps` plus one
  /// schedule-seeded random tear. No BER / stuck faults — pure
  /// outage-boundary torn writes.
  [[nodiscard]] static std::vector<CorruptionScenario> torn_commit_sweep(
      std::uint64_t boundaries, std::uint64_t stride,
      const std::vector<std::uint64_t>& keeps);

  /// Minimize a failing schedule: replay its realized outage ordinals as a
  /// kFixed schedule, then ddmin the ordinal list down to a subset that
  /// still fails. Returns the reduced failing outcome.
  [[nodiscard]] ScheduleOutcome shrink(const nn::Tensor& sample,
                                       const ScheduleOutcome& failed) const;

  /// Upper bound on jobs lost by one mid-task failure in kTaskAtomic
  /// (max over lowered nodes of jobs per atomic task).
  [[nodiscard]] std::size_t max_task_jobs() const { return max_task_jobs_; }

  [[nodiscard]] const CheckerConfig& config() const { return config_; }

 private:
  struct Replay;
  struct Batch;

  /// The one replay: deploy a fresh clone onto a fresh device under
  /// `load` and run `sample` once. Engine, integrity and watchdog
  /// exceptions are recorded, not propagated; only a region label that
  /// matches no deployed region throws.
  Replay replay(const nn::Tensor& sample, const CorruptionScenario& load,
                const engine::EngineConfig& ecfg,
                std::uint64_t event_budget) const;

  /// Golden logits, then one replay per load under `engine` with the
  /// watchdog budget of that configuration, fanned out over the pool.
  Batch replay_all(const nn::Tensor& sample,
                   const std::vector<CorruptionScenario>& loads,
                   const engine::EngineConfig& ecfg,
                   runtime::ThreadPool* pool) const;

  ScheduleOutcome judge(const Replay& run, const std::vector<float>& golden,
                        const OutageSchedule& schedule,
                        engine::PreservationMode mode) const;
  ScenarioOutcome judge(const Replay& run, const std::vector<float>& golden,
                        const CorruptionScenario& scenario,
                        engine::PreservationMode mode, bool protect) const;

  /// config().engine in `mode`, with the integrity layer as configured.
  [[nodiscard]] engine::EngineConfig engine_config(
      engine::PreservationMode mode) const;

  nn::Graph graph_;
  nn::Tensor calibration_;
  CheckerConfig config_;
  std::size_t max_task_jobs_ = 1;
};

}  // namespace iprune::fault
