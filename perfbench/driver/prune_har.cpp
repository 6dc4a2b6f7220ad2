// prune_har: the paper's pipeline on HAR as apps::make_workload registers
// it (full config). Set-up generates the data and trains the baseline; the
// timed job is core::IterativePruner::run with IPruneAllocator; then the
// pruned model is deployed and runs the whole validation split on the
// cycle backend at the paper's weak 4 mW supply.
//
// The seed orders the on-device validation stream (a seeded permutation,
// fresh device per pass). The prune trajectory stays the registered one:
// its iteration count is chaotic in the training and annealing seeds, so
// varying them would make prune time differ by ~2x from seed to seed.
//
// Traced runs wrap the allocator in a timing decorator inside the real
// loop, replay one iteration's phase calls on a copy of the trained
// baseline, and time every inference.

#include <algorithm>
#include <numeric>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "apps/workloads.hpp"
#include "core/criterion.hpp"
#include "core/pruner.hpp"
#include "core/ratio_search.hpp"
#include "engine/backend.hpp"
#include "engine/deploy.hpp"
#include "engine/engine.hpp"
#include "fault/injector.hpp"
#include "power/supply.hpp"
#include "report.hpp"
#include "util/hash.hpp"
#include "util/rng.hpp"
#include "util/scratch_pool.hpp"

namespace perfbench {
namespace {

namespace apps = iprune::apps;
namespace core = iprune::core;
namespace engine = iprune::engine;
namespace nn = iprune::nn;

constexpr std::size_t kSetupReps = 2;
// Prune loops per untraced run, each on the same trained baseline.
constexpr std::size_t kJobReps = 2;
constexpr std::size_t kMinPasses = 3;
// Host-speed samples taken on either side of set-up and the prune loop,
// and at each estimate inside the loop.
constexpr std::size_t kEdgeSamples = 3;
// As the repro benches deploy: calibrate on the first validation samples.
constexpr std::size_t kCalibrationSamples = 8;

struct Baseline {
  apps::Workload workload;
  double generate_s = 0.0;
  double train_s = 0.0;
};

/// Data and the trained baseline. `clock`, if given, samples the host
/// speed after every training epoch.
Baseline set_up(Tracer& tracer, PhaseClock* clock) {
  const Tracer::Scope root(tracer, "har.setup");
  Baseline b;
  double start = now_s();
  {
    const Tracer::Scope span(tracer, "data.make_workload");
    b.workload = apps::make_workload(apps::WorkloadId::kHar);
  }
  b.generate_s = since(start);
  start = now_s();
  {
    const Tracer::Scope span(tracer, "nn.train");
    apps::Workload& w = b.workload;
    nn::Trainer(w.graph).train(
        w.train.inputs, w.train.labels, w.initial_training,
        [clock](std::size_t, double) {
          if (clock != nullptr) {
            clock->sample();
          }
        });
  }
  b.train_s = since(start);
  return b;
}

/// Times and counts the RatioAllocator calls made by the real loop, and
/// samples the host speed through `clock` (if set) before each estimate:
/// the loop offers no other hook, so each takes several samples.
/// The loop asks for the overall ratio right after every
/// analyze_sensitivities call (also the last one, whose ratio may be too
/// small to go on), and prunes every layer after every allocate call.
class TimedAllocator final : public core::RatioAllocator {
 public:
  TimedAllocator(std::unique_ptr<core::RatioAllocator> inner, Tracer& tracer)
      : inner_(std::move(inner)), tracer_(&tracer) {}

  void set_clock(PhaseClock* clock) { clock_ = clock; }

  [[nodiscard]] const char* name() const override { return inner_->name(); }
  [[nodiscard]] double overall_ratio(
      const std::vector<core::LayerStats>& stats,
      double gamma_hat) const override {
    if (clock_ != nullptr) {
      clock_->sample(kEdgeSamples);
    }
    const Tracer::Scope span(*tracer_, "core.allocate");
    ++overall_ratio_calls_;
    return inner_->overall_ratio(stats, gamma_hat);
  }
  [[nodiscard]] std::vector<double> allocate(
      const std::vector<core::LayerStats>& stats, double gamma,
      iprune::util::Rng& rng) const override {
    const Tracer::Scope span(*tracer_, "core.allocate");
    ++allocate_calls_;
    return inner_->allocate(stats, gamma, rng);
  }

  /// Equals the loop's analyze_sensitivities calls.
  [[nodiscard]] std::size_t overall_ratio_calls() const {
    return overall_ratio_calls_;
  }
  /// Equals the loop's passes of prune_layer over every layer.
  [[nodiscard]] std::size_t allocate_calls() const { return allocate_calls_; }

 private:
  std::unique_ptr<core::RatioAllocator> inner_;
  Tracer* tracer_;
  PhaseClock* clock_ = nullptr;
  mutable std::size_t overall_ratio_calls_ = 0;
  mutable std::size_t allocate_calls_ = 0;
};

/// One iteration's phase calls, each timed once, on the trained baseline.
struct Replay {
  double sensitivity_s = 0.0;
  double criterion_s = 0.0;
  double prune_layer_s = 0.0;
  double probe_eval_s = 0.0;
  double finetune_s = 0.0;
  double full_eval_s = 0.0;
  std::size_t finetune_samples = 0;
};

Replay replay_iteration(const apps::Workload& w, Tracer& tracer) {
  const Tracer::Scope root(tracer, "har.replay");
  Replay r;
  nn::Graph graph = w.graph.clone();
  std::vector<engine::PrunableLayer> layers = engine::prunable_layers(
      graph, w.prune.engine, w.prune.backend.device.memory);
  core::SensitivityConfig sens = w.prune.sensitivity;
  sens.granularity = w.prune.granularity;

  double start = now_s();
  std::vector<double> sensitivities;
  {
    const Tracer::Scope span(tracer, "core.sensitivity");
    sensitivities = core::analyze_sensitivities(graph, layers, w.val.inputs,
                                                w.val.labels, sens);
  }
  r.sensitivity_s = since(start);

  start = now_s();
  std::vector<core::LayerStats> stats;
  {
    const Tracer::Scope span(tracer, "core.criterion");
    stats = core::collect_layer_stats(layers, w.prune.backend.device);
  }
  r.criterion_s = since(start);
  for (std::size_t i = 0; i < stats.size(); ++i) {
    stats[i].sensitivity = sensitivities[i];
  }
  const core::IPruneAllocator allocator;
  iprune::util::Rng rng(w.prune.seed);
  const double gamma = allocator.overall_ratio(stats, w.prune.gamma_hat);
  const std::vector<double> ratios = allocator.allocate(stats, gamma, rng);

  start = now_s();
  {
    const Tracer::Scope span(tracer, "core.prune_layer");
    for (std::size_t i = 0; i < layers.size(); ++i) {
      core::prune_layer(layers[i], ratios[i], w.prune.granularity);
    }
  }
  r.prune_layer_s = since(start);

  nn::Trainer trainer(graph);
  const std::size_t probe = std::min(sens.max_samples, w.val.size());
  std::vector<std::size_t> idx(probe);
  std::iota(idx.begin(), idx.end(), 0);
  start = now_s();
  {
    const Tracer::Scope span(tracer, "nn.evaluate");
    (void)trainer.evaluate(nn::gather_rows(w.val.inputs, idx),
                           std::span(w.val.labels).subspan(0, probe));
  }
  r.probe_eval_s = since(start);

  nn::TrainConfig ft = w.prune.finetune;
  ft.shuffle_seed = w.prune.finetune.shuffle_seed + 1;
  start = now_s();
  {
    const Tracer::Scope span(tracer, "nn.train");
    trainer.train(w.train.inputs, w.train.labels, ft);
  }
  r.finetune_s = since(start);
  r.finetune_samples = ft.epochs * w.train.size();

  start = now_s();
  {
    const Tracer::Scope span(tracer, "nn.evaluate");
    (void)trainer.evaluate(w.val.inputs, w.val.labels);
  }
  r.full_eval_s = since(start);
  return r;
}

nn::Tensor sample_of(const iprune::data::Dataset& d, std::size_t index) {
  nn::Tensor sample(d.sample_shape());
  const std::size_t elems = sample.numel();
  for (std::size_t i = 0; i < elems; ++i) {
    sample[i] = d.inputs[index * elems + i];
  }
  return sample;
}

/// One validation pass on a fresh device: deployment, then every sample
/// in `order`.
struct Pass {
  double deploy_s = 0.0;
  double infer_s = 0.0;
  std::vector<std::vector<float>> logits;  // by sample index
  std::size_t incomplete = 0;
  std::uint64_t events = 0;
  double latency_s = 0.0;  // summed simulated latency
  double sim_s = 0.0;      // device clock across the inferences
  std::size_t nvm_read_bytes = 0;
  std::size_t nvm_write_bytes = 0;
  std::size_t macs = 0;
  std::size_t reexecuted_jobs = 0;
  std::size_t integrity_rollbacks = 0;
  std::size_t power_failures = 0;
  double off_s = 0.0;
  double wasted_j = 0.0;
};

Pass run_pass(nn::Graph& graph, const apps::Workload& w,
              std::unique_ptr<engine::Backend> backend,
              const std::vector<std::size_t>& order, Tracer& tracer) {
  const Tracer::Scope root(tracer, "engine.pass");
  Pass p;
  std::vector<std::size_t> calib(kCalibrationSamples);
  std::iota(calib.begin(), calib.end(), 0);
  double start = now_s();
  std::unique_ptr<engine::DeployedModel> model;
  {
    const Tracer::Scope span(tracer, "engine.deploy");
    model = std::make_unique<engine::DeployedModel>(
        graph, w.prune.engine, *backend,
        nn::gather_rows(w.val.inputs, calib));
  }
  p.deploy_s = since(start);

  std::vector<nn::Tensor> samples;
  samples.reserve(order.size());
  for (const std::size_t i : order) {
    samples.push_back(sample_of(w.val, i));
  }
  // A schedule-free injector injects nothing; it counts chargeable events
  // exactly as every fleet device does.
  iprune::fault::FaultInjector counter(iprune::fault::OutageSchedule::none());
  backend->set_fault_hook(&counter);
  engine::IntermittentEngine eng(*model, *backend);
  p.logits.resize(w.val.size());
  const double clock0 = backend->now_us();
  start = now_s();
  for (std::size_t k = 0; k < order.size(); ++k) {
    const Tracer::Scope span(tracer, "engine.infer");
    engine::InferenceResult result = eng.run(samples[k]);
    const engine::InferenceStats& s = result.stats;
    p.incomplete += s.completed ? 0 : 1;
    p.latency_s += s.latency_s;
    p.nvm_read_bytes += s.nvm_bytes_read;
    p.nvm_write_bytes += s.nvm_bytes_written;
    p.macs += s.macs;
    p.reexecuted_jobs += s.reexecuted_jobs;
    p.integrity_rollbacks += s.integrity_rollbacks;
    p.power_failures += s.power_failures;
    p.off_s += s.off_s;
    p.logits[order[k]] = std::move(result.logits);
  }
  p.infer_s = since(start);
  p.sim_s = (backend->now_us() - clock0) / 1e6;
  p.events = counter.total_events();
  backend->set_fault_hook(nullptr);
  if (const iprune::power::PowerManager* pm = backend->power(); pm != nullptr) {
    p.wasted_j = pm->stats().wasted_j;
  }
  return p;
}

std::unique_ptr<engine::Backend> weak_device(const apps::Workload& w) {
  return engine::make_backend(w.prune.backend,
                              iprune::power::SupplyPresets::weak());
}

std::uint64_t logits_digest(const std::vector<std::vector<float>>& logits) {
  iprune::util::Fnv1a digest;
  for (const std::vector<float>& row : logits) {
    digest.fold_f32(row.data(), row.size());
  }
  return digest.value();
}

/// Folds the pruned weights and masks into `digest`.
void fold_params(iprune::util::Fnv1a& digest, nn::Graph& graph) {
  for (const nn::ParamRef& p : graph.params()) {
    digest.fold_f32(p.value->data(), p.value->numel());
    if (p.mask != nullptr) {
      digest.fold_f32(p.mask->data(), p.mask->numel());
    }
  }
}

std::uint64_t params_digest(nn::Graph& graph) {
  iprune::util::Fnv1a digest;
  fold_params(digest, graph);
  return digest.value();
}

/// Pruned masks and weights, then the logits of every validation sample.
std::uint64_t model_digest(nn::Graph& graph,
                           const std::vector<std::vector<float>>& logits) {
  iprune::util::Fnv1a digest;
  fold_params(digest, graph);
  digest.fold_u64(logits_digest(logits));
  return digest.value();
}

double device_accuracy(const apps::Workload& w,
                       const std::vector<std::vector<float>>& logits) {
  std::size_t correct = 0;
  for (std::size_t i = 0; i < logits.size(); ++i) {
    const auto& row = logits[i];
    const auto best = std::max_element(row.begin(), row.end()) - row.begin();
    correct += best == w.val.labels[i] ? 1 : 0;
  }
  return static_cast<double>(correct) / static_cast<double>(logits.size());
}

/// Host seconds of inference over the validation split in index order on
/// `backend` (deployment excluded), with the logits it produced.
std::pair<double, std::vector<std::vector<float>>> timed_backend_pass(
    nn::Graph& graph, const apps::Workload& w,
    std::unique_ptr<engine::Backend> backend, Tracer& tracer,
    const char* name) {
  const Tracer::Scope span(tracer, name);
  std::vector<std::size_t> order(w.val.size());
  std::iota(order.begin(), order.end(), 0);
  Tracer quiet(false);
  Pass p = run_pass(graph, w, std::move(backend), order, quiet);
  return {p.infer_s, std::move(p.logits)};
}

}  // namespace

void run_prune_har(const Options& options, Report& report) {
  Tracer tracer(options.trace);
  HostSpeed host;

  // Set-up once before the job; its other repetitions run between the
  // validation passes below, so the samples span the run (host speed on a
  // shared machine drifts over seconds to minutes). Each timed phase
  // reports the host speed sampled around it and, in untraced runs,
  // inside it (traced runs keep samples out of the spans).
  const std::size_t setup_reps = options.trace ? 1 : kSetupReps;
  std::vector<double> setup_s;
  std::vector<double> setup_speed;
  const auto timed_set_up = [&] {
    PhaseClock clock(host, kEdgeSamples);
    Baseline b = set_up(tracer, options.trace ? nullptr : &clock);
    const PhaseClock::Result t = clock.stop();
    setup_s.push_back(t.seconds);
    setup_speed.push_back(t.speed);
    return b;
  };
  Baseline base = timed_set_up();
  apps::Workload& w = base.workload;

  std::vector<std::size_t> order(w.val.size());
  std::iota(order.begin(), order.end(), 0);
  iprune::util::Rng rng(options.seed);
  for (std::size_t i = order.size(); i > 1; --i) {
    std::swap(order[i - 1], order[rng.next_u64() % i]);
  }

  Replay replay;
  if (options.trace) {
    replay = replay_iteration(w, tracer);
  }

  iprune::util::ScratchPool& scratch = iprune::util::ScratchPool::local();
  const std::uint64_t alloc0 = scratch.allocations();
  const std::uint64_t reuse0 = scratch.reuses();

  // Timed job: the iterative prune loop, with the allocator decorator
  // (spans only when traced; host-speed samples only when not). Untraced
  // runs prune copies of the trained baseline first, then the baseline
  // itself, and report every loop (run.py takes the median); each must
  // reach the same pruned model.
  const std::size_t job_reps = options.trace ? 1 : kJobReps;
  std::vector<double> job_s;
  std::vector<double> job_speed;
  std::vector<std::uint64_t> pruned;
  core::PruneOutcome outcome;
  std::size_t sensitivity_calls = 0;  // of the last loop
  std::size_t allocate_calls = 0;
  for (std::size_t rep = 0; rep < job_reps; ++rep) {
    std::optional<nn::Graph> copy;
    if (rep + 1 < job_reps) {
      copy.emplace(w.graph.clone());
    }
    nn::Graph& graph = copy ? *copy : w.graph;
    auto decorated = std::make_unique<TimedAllocator>(
        std::make_unique<core::IPruneAllocator>(), tracer);
    TimedAllocator* timed = decorated.get();  // owned by the pruner
    core::IterativePruner pruner(w.prune, std::move(decorated));
    PhaseClock clock(host, kEdgeSamples);
    if (!options.trace) {
      timed->set_clock(&clock);
    }
    {
      const Tracer::Scope span(tracer, "core.prune");
      outcome = pruner.run(graph, w.train.inputs, w.train.labels,
                           w.val.inputs, w.val.labels);
    }
    const PhaseClock::Result job = clock.stop();
    timed->set_clock(nullptr);
    sensitivity_calls = timed->overall_ratio_calls();
    allocate_calls = timed->allocate_calls();
    job_s.push_back(job.seconds);
    job_speed.push_back(job.speed);
    pruned.push_back(params_digest(graph));
  }
  const double prune_s = job_s.back();

  // Validation passes until their inferences total --seconds; the
  // other set-up repetitions run between them at even intervals. Traced
  // runs pair each pass with one without spans as the overhead baseline.
  Tracer quiet(false);
  std::vector<Pass> passes;
  double speed_weighted_s = 0.0;  // inference seconds times pass speed
  double infer_s = 0.0;
  double quiet_s = 0.0;
  const double infer_budget_s = options.seconds;
  while (passes.size() < kMinPasses || infer_s < infer_budget_s ||
         setup_s.size() < setup_reps) {
    const double share = static_cast<double>(setup_s.size()) / kSetupReps;
    if (setup_s.size() < setup_reps && infer_s >= share * infer_budget_s) {
      (void)timed_set_up();
      continue;
    }
    if (options.trace) {
      quiet_s += run_pass(w.graph, w, weak_device(w), order, quiet).infer_s;
    }
    PhaseClock pass_clock(host, 1);
    passes.push_back(run_pass(w.graph, w, weak_device(w), order, tracer));
    infer_s += passes.back().infer_s;
    speed_weighted_s += passes.back().infer_s * pass_clock.stop().speed;
  }
  report.samples("setup_s", setup_s);
  report.samples("setup_s.speed", setup_speed);
  report.samples("host.speed", host.samples());
  const double allocations =
      static_cast<double>(scratch.allocations() - alloc0);
  const double reuses = static_cast<double>(scratch.reuses() - reuse0);

  const Pass& first = passes.front();
  const std::uint64_t first_logits = logits_digest(first.logits);
  bool passes_agree = true;
  std::uint64_t incomplete = 0;
  std::vector<double> deploy_s;
  for (const Pass& p : passes) {
    passes_agree = passes_agree && logits_digest(p.logits) == first_logits &&
                   p.events == first.events;
    incomplete += p.incomplete;
    deploy_s.push_back(p.deploy_s);
  }
  report.operations(passes.size() * order.size(), incomplete);
  report.promise("every pass reproduces the first pass's logits and events",
                 passes_agree, std::to_string(passes.size()) + " passes");
  const double epsilon = w.prune.epsilon;
  report.promise(
      "pruned accuracy within epsilon of the baseline",
      outcome.final_accuracy >= outcome.baseline_accuracy - epsilon,
      std::to_string(outcome.final_accuracy) + " vs baseline " +
          std::to_string(outcome.baseline_accuracy) + ", epsilon " +
          std::to_string(epsilon));
  report.digest(options.trace ? "traced" : "run",
                model_digest(w.graph, first.logits));

  const auto inferences = static_cast<double>(order.size());
  report.samples("job_s", job_s);
  report.samples("job_s.speed", job_speed);
  report.promise("every prune loop reaches the same pruned model",
                 std::all_of(pruned.begin(), pruned.end(),
                             [&](std::uint64_t d) { return d == pruned[0]; }),
                 std::to_string(pruned.size()) + " loops");
  // One rate over all passes, at their time-weighted speed: the pass
  // rates are often bimodal within a run, so a median would flip between
  // the modes while totals stay put.
  report.samples("infer_per_s",
                 {static_cast<double>(passes.size() * order.size()) / infer_s});
  report.samples("infer_per_s.speed", {speed_weighted_s / infer_s});
  report.value("sim_latency_s", first.latency_s / inferences);
  report.value("sim_inferences_per_h", inferences * 3600.0 / first.sim_s);
  if (!options.trace) {
    return;
  }

  // Backend share: the same model and inputs at continuous power, values
  // only vs the cycle-level device, alternated so host drift hits both.
  double functional_s = 0.0;
  double cycle_s = 0.0;
  bool backends_agree = true;
  for (std::size_t rep = 0; rep < kMinPasses; ++rep) {
    const auto functional = timed_backend_pass(
        w.graph, w, engine::make_backend(engine::BackendConfig::functional()),
        tracer, "engine.functional_pass");
    const auto cycle = timed_backend_pass(
        w.graph, w,
        engine::make_backend(w.prune.backend,
                             iprune::power::SupplyPresets::continuous()),
        tracer, "engine.cycle_pass");
    functional_s += functional.first;
    cycle_s += cycle.first;
    backends_agree = backends_agree &&
                     logits_digest(functional.second) == first_logits &&
                     logits_digest(cycle.second) == first_logits;
  }
  report.promise("functional and cycle backends agree with the 4 mW logits",
                 backends_agree, "bitwise over the validation split");
  tracer.write(options.trace_out);

  const auto iterations = static_cast<double>(outcome.history.size());
  const auto calls = static_cast<double>(sensitivity_calls);
  const auto prunes = static_cast<double>(allocate_calls);
  const double allocate_s = tracer.total_s("core.allocate");
  const double train_s = base.train_s + replay.finetune_s;
  const double train_samples = static_cast<double>(
      w.initial_training.epochs * w.train.size() + replay.finetune_samples);
  // The loop's time as its phases predict it: estimation once per
  // sensitivity call, pruning once per allocation, recovery once per
  // iteration, plus the baseline evaluation.
  const double covered =
      (replay.sensitivity_s + replay.criterion_s) * calls +
      replay.prune_layer_s * prunes + allocate_s +
      (replay.probe_eval_s + replay.finetune_s + replay.full_eval_s) *
          iterations +
      replay.full_eval_s;

  std::vector<double> infer_us = tracer.durations_s("engine.infer");
  for (double& value : infer_us) {
    value *= 1e6;
  }

  report.value("data.generate_s", base.generate_s);
  report.value("nn.train_s", train_s);
  report.value("nn.train_samples_per_s", train_samples / train_s);
  report.value("nn.eval_s", replay.probe_eval_s + replay.full_eval_s);
  report.value("core.sensitivity_s", replay.sensitivity_s);
  report.value("core.sensitivity_calls", calls);
  report.value("core.allocate_s", allocate_s);
  report.value("core.prune_layer_s", replay.prune_layer_s);
  report.value("core.iterations", iterations);
  report.value("core.strikes", static_cast<double>(outcome.strikes));
  report.value("core.acc_outputs",
               static_cast<double>(outcome.final_acc_outputs));
  report.samples("engine.deploy_s", deploy_s);
  report.dist("engine.infer_us", infer_us);
  report.value("engine.backend_share", 1.0 - functional_s / cycle_s);
  report.value("engine.accuracy", device_accuracy(w, first.logits));
  report.value("engine.nvm_read_bytes",
               static_cast<double>(first.nvm_read_bytes));
  report.value("engine.nvm_write_bytes",
               static_cast<double>(first.nvm_write_bytes));
  report.value("engine.macs", static_cast<double>(first.macs));
  report.value("engine.reexecuted_jobs",
               static_cast<double>(first.reexecuted_jobs));
  report.value("engine.integrity_rollbacks",
               static_cast<double>(first.integrity_rollbacks));
  report.value("device.events", static_cast<double>(first.events));
  report.value("device.host_ns_per_event",
               infer_s * 1e9 /
                   (static_cast<double>(passes.size()) *
                    static_cast<double>(first.events)));
  report.value("power.failures", static_cast<double>(first.power_failures));
  report.value("power.off_s", first.off_s);
  report.value("power.wasted_j", first.wasted_j);
  report.value("util.scratch_allocations", allocations);
  report.value("util.scratch_reuse_ratio",
               reuses + allocations > 0.0 ? reuses / (reuses + allocations)
                                          : 0.0);
  report.value("telemetry.trace_overhead", infer_s / quiet_s - 1.0);
  report.value("telemetry.span_coverage", covered / prune_s);
}

}  // namespace perfbench
