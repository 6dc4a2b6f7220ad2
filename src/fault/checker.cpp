#include "fault/checker.hpp"

#include <algorithm>
#include <memory>
#include <optional>
#include <stdexcept>
#include <utility>

#include "device/corruption.hpp"
#include "engine/deploy.hpp"
#include "engine/integrity.hpp"
#include "engine/lowering.hpp"
#include "engine/probe.hpp"
#include "fault/injector.hpp"
#include "power/supply.hpp"
#include "runtime/parallel.hpp"

namespace iprune::fault {

namespace {

using engine::PreservationMode;

/// Records the commit/recovery stream and flags the first counter
/// violation (non-contiguous commit or recovery that re-read a stale
/// counter). The engine independently throws on recovery mismatch; the
/// monitor catches ordering bugs the engine cannot see from inside.
class CommitMonitor final : public engine::StateProbe {
 public:
  void on_commit(std::uint32_t job_counter) override {
    if (job_counter != last_commit_ + 1 && violation_.empty()) {
      violation_ = "commit counter jumped from " +
                   std::to_string(last_commit_) + " to " +
                   std::to_string(job_counter) +
                   " (commits must be strictly +1 monotonic)";
    }
    last_commit_ = job_counter;
  }

  void on_recovery(std::uint32_t persisted_counter,
                   std::uint64_t /*vm_epoch*/) override {
    if (persisted_counter != last_commit_ && violation_.empty()) {
      violation_ = "recovery re-read counter " +
                   std::to_string(persisted_counter) + " but " +
                   std::to_string(last_commit_) + " jobs were committed";
    }
  }

  [[nodiscard]] const std::string& violation() const { return violation_; }
  [[nodiscard]] std::uint32_t last_commit() const { return last_commit_; }

 private:
  std::uint32_t last_commit_ = 0;
  std::string violation_;
};

/// Resolve a scenario region spec against the deployed layout: exact
/// label match first, otherwise the first region whose label ends with
/// the spec (so ".bsr_values" targets the first weights region without
/// hard-coding layer names).
const engine::DeployedModel::Region& find_region(
    const engine::DeployedModel& model, const std::string& spec) {
  for (const auto& r : model.regions()) {
    if (r.label == spec) {
      return r;
    }
  }
  for (const auto& r : model.regions()) {
    if (r.label.size() >= spec.size() &&
        r.label.compare(r.label.size() - spec.size(), spec.size(), spec) ==
            0) {
      return r;
    }
  }
  throw std::invalid_argument(
      "integrity scenario: no deployed region matches '" + spec + "'");
}

/// The first way `logits` differ from `golden`, or nothing when they are
/// bit-identical. A count mismatch reports index 0.
struct Divergence {
  std::int64_t index = 0;
  std::string what;
};

std::optional<Divergence> diverges(const std::vector<float>& logits,
                                   const std::vector<float>& golden) {
  if (logits.size() != golden.size()) {
    return Divergence{0, "logit count " + std::to_string(logits.size()) +
                             " != golden " + std::to_string(golden.size())};
  }
  for (std::size_t i = 0; i < golden.size(); ++i) {
    if (logits[i] != golden[i]) {
      return Divergence{static_cast<std::int64_t>(i),
                        "logit " + std::to_string(i) + " diverged: got " +
                            std::to_string(logits[i]) + ", golden " +
                            std::to_string(golden[i])};
    }
  }
  return std::nullopt;
}

}  // namespace

const char* preservation_mode_name(PreservationMode mode) {
  switch (mode) {
    case PreservationMode::kImmediate:
      return "immediate";
    case PreservationMode::kTaskAtomic:
      return "task";
    case PreservationMode::kAccumulateInVm:
      return "accumulate";
  }
  return "?";
}

PreservationMode parse_preservation_mode(const std::string& name) {
  if (name == "immediate") {
    return PreservationMode::kImmediate;
  }
  if (name == "task") {
    return PreservationMode::kTaskAtomic;
  }
  if (name == "accumulate") {
    return PreservationMode::kAccumulateInVm;
  }
  throw std::invalid_argument("unknown preservation mode '" + name + "'");
}

std::string ScheduleOutcome::repro() const {
  return std::string("mode=") + preservation_mode_name(mode) +
         ";schedule=" + schedule.describe();
}

std::string ScheduleOutcome::to_string() const {
  std::string out = repro();
  if (passed) {
    out += " :: ok";
  } else {
    out += " :: FAIL: " + failure;
  }
  out += " (outages=" + std::to_string(injected_outages) +
         " failures=" + std::to_string(power_failures) +
         " reexecuted=" + std::to_string(reexecuted_jobs) +
         " last_commit=" + std::to_string(last_committed_job) + ")";
  return out;
}

std::size_t CheckReport::failed() const {
  std::size_t count = 0;
  for (const ScheduleOutcome& o : outcomes) {
    if (!o.passed) {
      ++count;
    }
  }
  return count;
}

const ScheduleOutcome* CheckReport::first_failure() const {
  for (const ScheduleOutcome& o : outcomes) {
    if (!o.passed) {
      return &o;
    }
  }
  return nullptr;
}

const char* integrity_verdict_name(IntegrityVerdict verdict) {
  switch (verdict) {
    case IntegrityVerdict::kConsistent:
      return "consistent";
    case IntegrityVerdict::kRecovered:
      return "recovered";
    case IntegrityVerdict::kDetected:
      return "detected";
    case IntegrityVerdict::kSilent:
      return "SILENT";
    case IntegrityVerdict::kCrashed:
      return "CRASHED";
  }
  return "?";
}

std::string ScenarioOutcome::to_string() const {
  std::string out = label + " mode=" + preservation_mode_name(mode) +
                    (protect ? " protected" : " unprotected") +
                    " :: " + integrity_verdict_name(verdict);
  if (!detail.empty()) {
    out += ": " + detail;
  }
  out += " (failures=" + std::to_string(power_failures) +
         " rollbacks=" + std::to_string(integrity_rollbacks) +
         " scrub_fail=" + std::to_string(scrub_failures) +
         " flips=" + std::to_string(write_flips) + "w/" +
         std::to_string(read_flips) + "r stuck=" +
         std::to_string(stuck_hits) + ")";
  return out;
}

std::size_t IntegrityReport::count(IntegrityVerdict verdict) const {
  std::size_t n = 0;
  for (const ScenarioOutcome& o : outcomes) {
    if (o.verdict == verdict) {
      ++n;
    }
  }
  return n;
}

const ScenarioOutcome* IntegrityReport::first(
    IntegrityVerdict verdict) const {
  for (const ScenarioOutcome& o : outcomes) {
    if (o.verdict == verdict) {
      return &o;
    }
  }
  return nullptr;
}

int IntegrityReport::exit_code() const {
  bool contained = false;
  for (const ScenarioOutcome& o : outcomes) {
    switch (o.verdict) {
      case IntegrityVerdict::kSilent:
      case IntegrityVerdict::kCrashed:
        return 2;
      case IntegrityVerdict::kRecovered:
      case IntegrityVerdict::kDetected:
        contained = true;
        break;
      case IntegrityVerdict::kConsistent:
        break;
    }
  }
  return contained ? 1 : 0;
}

/// Everything one replay leaves behind; the verdicts read only this.
struct Checker::Replay {
  engine::InferenceResult result;
  bool threw = false;
  bool integrity_error = false;  // the exception was an IntegrityError
  std::string error;
  std::uint64_t injected = 0;
  std::uint64_t total_events = 0;
  std::uint64_t write_events = 0;
  /// From the device, so a run that threw still reports its failures.
  std::size_t power_failures = 0;
  std::vector<std::uint64_t> outage_events;
  std::string commit_violation;
  std::uint32_t last_commit = 0;
  std::string layout_error;
  std::uint32_t persisted_counter = 0;
  std::uint64_t write_flips = 0;
  std::uint64_t read_flips = 0;
  std::uint64_t stuck_hits = 0;
};

struct Checker::Batch {
  std::vector<float> golden;
  std::vector<Replay> replays;
};

Checker::Checker(const nn::Graph& graph, nn::Tensor calibration,
                 CheckerConfig config)
    : graph_(graph.clone()),
      calibration_(std::move(calibration)),
      config_(config) {
  // Jobs per atomic task: a kTaskAtomic failure re-executes at most one
  // task — (block rows x spatial tile) outputs for a GEMM, one output row
  // for a pool, one chunk for a copy.
  nn::Graph probe = graph_.clone();
  const engine::LoweredGraph lowered = engine::lower_graph(
      probe, engine_config(PreservationMode::kTaskAtomic),
      config_.device.memory);
  for (const engine::LoweredNode& ln : lowered.nodes) {
    std::size_t jobs = 1;
    if (ln.is_gemm()) {
      jobs = std::min(ln.plan.br, ln.plan.rows) *
             std::min(ln.plan.bc, ln.plan.cols);
    } else if (ln.kind == engine::LoweredKind::kMaxPool ||
               ln.kind == engine::LoweredKind::kAvgPool) {
      jobs = ln.out_shape.back();
    }
    max_task_jobs_ = std::max(max_task_jobs_, jobs);
  }
}

engine::EngineConfig Checker::engine_config(PreservationMode mode) const {
  engine::EngineConfig ecfg = config_.engine;
  ecfg.mode = mode;
  return ecfg;
}

/// The corruption model and the injector are installed *before*
/// deployment, so deploy-time write faults land in sealed regions exactly
/// like field corruption would (the seal covers intended content).
/// Deployment writes charge no event, so the injector's ordinals are the
/// same as if it were hooked after. Region specs are resolved against an
/// uncorrupted probe deployment — the layout is deterministic for a given
/// (graph, config).
Checker::Replay Checker::replay(const nn::Tensor& sample,
                                const CorruptionScenario& load,
                                const engine::EngineConfig& ecfg,
                                std::uint64_t event_budget) const {
  device::CorruptionConfig ccfg;
  ccfg.seed = load.seed;
  ccfg.write_ber = load.write_ber;
  ccfg.read_ber = load.read_ber;
  if (!load.window_region.empty() || !load.stuck.empty()) {
    nn::Graph probe_graph = graph_.clone();
    device::Msp430Device probe(
        config_.device,
        std::make_unique<power::ConstantSupply>(config_.supply_w),
        config_.buffer);
    const engine::DeployedModel layout(probe_graph, ecfg, probe,
                                       calibration_);
    if (!load.window_region.empty()) {
      const auto& r = find_region(layout, load.window_region);
      ccfg.window_begin = r.begin;
      ccfg.window_end = r.begin + r.bytes;
    }
    for (const StuckSpec& s : load.stuck) {
      const auto& r = find_region(layout, s.region);
      if (s.offset >= r.bytes) {
        throw std::invalid_argument("integrity scenario: stuck offset " +
                                    std::to_string(s.offset) +
                                    " outside region '" + r.label + "'");
      }
      ccfg.stuck.push_back({r.begin + s.offset, s.bit, s.value});
    }
  }

  Replay art;
  nn::Graph graph = graph_.clone();
  device::Msp430Device device(
      config_.device,
      std::make_unique<power::ConstantSupply>(config_.supply_w),
      config_.buffer);
  device::CorruptionModel corruption(ccfg);
  if (load.has_corruption()) {
    device.nvm().set_corruption(&corruption);
  }
  FaultInjector injector(load.schedule);
  injector.set_event_budget(event_budget);
  device.set_fault_hook(&injector);
  CommitMonitor monitor;
  std::optional<engine::DeployedModel> model;
  try {
    model.emplace(graph, ecfg, device, calibration_);
    engine::IntermittentEngine eng(*model, device);
    eng.max_restarts = config_.max_restarts;
    eng.set_probe(&monitor);
    art.result = eng.run(sample);
  } catch (const engine::IntegrityError& e) {
    art.threw = true;
    art.integrity_error = true;
    art.error = e.what();
  } catch (const std::exception& e) {
    art.threw = true;
    art.error = e.what();
  }
  device.set_fault_hook(nullptr);
  device.nvm().set_corruption(nullptr);

  art.injected = injector.injected();
  art.total_events = injector.total_events();
  art.write_events = injector.write_events();
  art.power_failures = device.stats().power_failures;
  art.outage_events = injector.outage_events();
  art.commit_violation = monitor.violation();
  art.last_commit = monitor.last_commit();
  art.write_flips = corruption.write_flips();
  art.read_flips = corruption.read_flips();
  art.stuck_hits = corruption.stuck_hits();
  if (model) {
    art.layout_error = model->validate_layout(device.nvm());
    try {
      art.persisted_counter = model->read_progress(device.nvm());
    } catch (const engine::IntegrityError&) {
      // Both protected records corrupt — only reachable when the run
      // itself already failed; leave the counter at 0 and let the run's
      // own verdict (exception / divergence) carry the failure.
      art.persisted_counter = 0;
    }
  }
  return art;
}

std::vector<float> Checker::golden(const nn::Tensor& sample) const {
  const Replay art =
      replay(sample, {}, engine_config(PreservationMode::kAccumulateInVm),
             FaultInjector::kNoBudget);
  if (art.threw || !art.result.stats.completed) {
    throw std::runtime_error(
        "Checker: golden run failed under continuous power" +
        (art.error.empty() ? std::string() : ": " + art.error));
  }
  return art.result.logits;
}

Checker::Batch Checker::replay_all(
    const nn::Tensor& sample, const std::vector<CorruptionScenario>& loads,
    const engine::EngineConfig& ecfg, runtime::ThreadPool* pool) const {
  Batch batch;
  batch.golden = golden(sample);
  std::uint64_t budget = config_.event_budget;
  if (budget == 0) {
    budget = replay(sample, {}, ecfg, FaultInjector::kNoBudget).total_events *
                 256 +
             65536;
  }
  batch.replays = runtime::parallel_map(
      runtime::ThreadPool::resolve(pool), loads.size(),
      [&](std::size_t index) {
        return replay(sample, loads[index], ecfg, budget);
      });
  return batch;
}

ScheduleOutcome Checker::judge(const Replay& run,
                               const std::vector<float>& golden,
                               const OutageSchedule& schedule,
                               PreservationMode mode) const {
  ScheduleOutcome o;
  o.schedule = schedule;
  o.mode = mode;
  o.completed = !run.threw && run.result.stats.completed;
  o.injected_outages = run.injected;
  o.total_events = run.total_events;
  o.power_failures = run.power_failures;
  o.reexecuted_jobs = run.result.stats.reexecuted_jobs;
  o.last_committed_job = run.last_commit;
  o.outage_events = run.outage_events;

  const bool preserving = mode != PreservationMode::kAccumulateInVm;

  // Invariants, most fundamental first; the first violation is the verdict.
  if (run.threw) {
    o.failure = "exception: " + run.error;
    return o;
  }
  if (!o.completed) {
    o.failure = "did not complete within " +
                std::to_string(config_.max_restarts) + " restarts";
    return o;
  }
  if (preserving && !run.commit_violation.empty()) {
    o.failure = run.commit_violation;
    return o;
  }
  if (const auto divergence = diverges(run.result.logits, golden)) {
    o.first_divergence = divergence->index;
    o.failure = divergence->what;
    return o;
  }
  if (preserving) {
    const std::size_t bound =
        mode == PreservationMode::kImmediate
            ? o.power_failures
            : o.power_failures * max_task_jobs_;
    if (o.reexecuted_jobs > bound) {
      o.failure = "re-executed " + std::to_string(o.reexecuted_jobs) +
                  " jobs > bound " + std::to_string(bound) + " (" +
                  std::to_string(o.power_failures) + " failures, mode " +
                  preservation_mode_name(mode) + ")";
      return o;
    }
    if (run.persisted_counter != run.last_commit) {
      o.failure = "persisted counter " +
                  std::to_string(run.persisted_counter) +
                  " != committed jobs " + std::to_string(run.last_commit);
      return o;
    }
    // In kImmediate every preserved output is its own commit; kTaskAtomic
    // commits once per task, so only the persisted-counter check applies.
    if (mode == PreservationMode::kImmediate &&
        run.last_commit != run.result.stats.preserved_outputs) {
      o.failure = "committed jobs " + std::to_string(run.last_commit) +
                  " != preserved outputs " +
                  std::to_string(run.result.stats.preserved_outputs);
      return o;
    }
  }
  if (!run.layout_error.empty()) {
    o.failure = "NVM layout invalid after run: " + run.layout_error;
    return o;
  }
  o.passed = true;
  return o;
}

ScenarioOutcome Checker::judge(const Replay& run,
                               const std::vector<float>& golden,
                               const CorruptionScenario& scenario,
                               PreservationMode mode, bool protect) const {
  ScenarioOutcome o;
  o.label = scenario.label;
  o.mode = mode;
  o.protect = protect;
  o.power_failures = run.power_failures;
  o.integrity_rollbacks = run.result.stats.integrity_rollbacks;
  o.scrub_failures = run.result.stats.scrub_failures;
  o.write_flips = run.write_flips;
  o.read_flips = run.read_flips;
  o.stuck_hits = run.stuck_hits;

  if (run.threw) {
    o.verdict = run.integrity_error ? IntegrityVerdict::kDetected
                                    : IntegrityVerdict::kCrashed;
    o.detail = run.error;
    return o;
  }
  if (!run.result.stats.completed) {
    o.verdict = IntegrityVerdict::kCrashed;
    o.detail = "did not complete within " +
               std::to_string(config_.max_restarts) + " restarts";
    return o;
  }
  if (const auto divergence = diverges(run.result.logits, golden)) {
    o.verdict = IntegrityVerdict::kSilent;
    o.detail = divergence->what;
    return o;
  }
  o.verdict = o.integrity_rollbacks > 0 ? IntegrityVerdict::kRecovered
                                        : IntegrityVerdict::kConsistent;
  return o;
}

ScheduleOutcome Checker::check(const nn::Tensor& sample,
                               const OutageSchedule& schedule,
                               PreservationMode mode) const {
  return check_schedules(sample, {schedule}, mode).outcomes.front();
}

ScenarioOutcome Checker::check(const nn::Tensor& sample,
                               const CorruptionScenario& scenario,
                               PreservationMode mode, bool protect) const {
  return check_scenarios(sample, {scenario}, mode, protect)
      .outcomes.front();
}

CheckReport Checker::check_schedules(
    const nn::Tensor& sample, const std::vector<OutageSchedule>& schedules,
    PreservationMode mode, runtime::ThreadPool* pool) const {
  std::vector<CorruptionScenario> loads(schedules.size());
  for (std::size_t i = 0; i < schedules.size(); ++i) {
    loads[i].schedule = schedules[i];
  }
  const Batch batch = replay_all(sample, loads, engine_config(mode), pool);
  CheckReport report;
  report.outcomes.reserve(schedules.size());
  for (std::size_t i = 0; i < schedules.size(); ++i) {
    report.outcomes.push_back(
        judge(batch.replays[i], batch.golden, schedules[i], mode));
  }
  return report;
}

IntegrityReport Checker::check_scenarios(
    const nn::Tensor& sample,
    const std::vector<CorruptionScenario>& scenarios, PreservationMode mode,
    bool protect, runtime::ThreadPool* pool) const {
  engine::EngineConfig ecfg = engine_config(mode);
  ecfg.integrity.protect_progress = protect;
  ecfg.integrity.seal_regions = protect;
  ecfg.integrity.scrub_on_boot = protect;
  const Batch batch = replay_all(sample, scenarios, ecfg, pool);
  IntegrityReport report;
  report.outcomes.reserve(scenarios.size());
  for (std::size_t i = 0; i < scenarios.size(); ++i) {
    report.outcomes.push_back(judge(batch.replays[i], batch.golden,
                                    scenarios[i], mode, protect));
  }
  return report;
}

std::uint64_t Checker::count_events(const nn::Tensor& sample,
                                    PreservationMode mode) const {
  return replay(sample, {}, engine_config(mode), FaultInjector::kNoBudget)
      .total_events;
}

std::uint64_t Checker::count_write_boundaries(const nn::Tensor& sample,
                                              PreservationMode mode) const {
  return replay(sample, {}, engine_config(mode), FaultInjector::kNoBudget)
      .write_events;
}

std::vector<OutageSchedule> Checker::exhaustive_write_schedules(
    const nn::Tensor& sample, PreservationMode mode) const {
  const std::uint64_t boundaries = count_write_boundaries(sample, mode);
  std::vector<OutageSchedule> schedules;
  schedules.reserve(boundaries);
  for (std::uint64_t k = 0; k < boundaries; ++k) {
    schedules.push_back(OutageSchedule::at_write(k));
  }
  return schedules;
}

std::vector<CorruptionScenario> Checker::torn_commit_sweep(
    std::uint64_t boundaries, std::uint64_t stride,
    const std::vector<std::uint64_t>& keeps) {
  if (stride == 0) {
    stride = 1;
  }
  std::vector<CorruptionScenario> scenarios;
  for (std::uint64_t k = 0; k < boundaries; k += stride) {
    for (const std::uint64_t keep : keeps) {
      CorruptionScenario s;
      s.label = "torn@" + std::to_string(k) + ";keep=" + std::to_string(keep);
      s.schedule = OutageSchedule::at_write(k).with_torn_keep(keep);
      scenarios.push_back(std::move(s));
    }
    CorruptionScenario r;
    r.label = "torn@" + std::to_string(k) + ";rand";
    r.schedule = OutageSchedule::at_write(k).with_torn_random();
    scenarios.push_back(std::move(r));
  }
  return scenarios;
}

ScheduleOutcome Checker::shrink(const nn::Tensor& sample,
                                const ScheduleOutcome& failed) const {
  // The realized outage ordinals replayed as a fixed schedule reproduce
  // the run exactly (deterministic simulation); if they somehow don't, the
  // original outcome is already the best repro we have.
  std::vector<std::uint64_t> events = failed.outage_events;
  ScheduleOutcome best =
      check(sample, OutageSchedule::at_events(events), failed.mode);
  if (best.passed) {
    return failed;
  }

  // ddmin: drop chunks while the failure persists, halving the chunk size
  // whenever a full scan removes nothing. A scan replays its candidates
  // as one batch and keeps the first that still fails — the one a
  // candidate-by-candidate scan would stop at.
  std::size_t chunk = (events.size() + 1) / 2;
  while (chunk >= 1 && events.size() > 1) {
    std::vector<OutageSchedule> candidates;
    for (std::size_t start = 0; start < events.size(); start += chunk) {
      std::vector<std::uint64_t> candidate;
      candidate.reserve(events.size());
      for (std::size_t i = 0; i < events.size(); ++i) {
        if (i < start || i >= start + chunk) {
          candidate.push_back(events[i]);
        }
      }
      if (!candidate.empty()) {
        candidates.push_back(OutageSchedule::at_events(candidate));
      }
    }
    const CheckReport scan = check_schedules(sample, candidates, failed.mode);
    if (const ScheduleOutcome* fail = scan.first_failure()) {
      // The candidates are sorted, duplicate-free subsets, which
      // at_events keeps as they are.
      events = fail->schedule.fixed_events;
      best = *fail;
      chunk = std::min(chunk, (events.size() + 1) / 2);
    } else {
      if (chunk == 1) {
        break;
      }
      chunk = (chunk + 1) / 2;
    }
  }
  return best;
}

}  // namespace iprune::fault
