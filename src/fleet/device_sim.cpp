#include "fleet/device_sim.hpp"

#include <exception>
#include <utility>

#include "device/config.hpp"
#include "engine/integrity.hpp"
#include "fault/testbed.hpp"
#include "util/hash.hpp"

namespace iprune::fleet {

namespace {

constexpr std::size_t kCalibrationSamples = 8;

nn::Graph build_graph(ModelKind model, util::Rng& rng) {
  switch (model) {
    case ModelKind::kTiny:
      return fault::make_tiny_graph(rng);
    case ModelKind::kMultipath:
      return fault::make_multipath_graph(rng);
  }
  throw std::logic_error("fleet: bad model kind");
}

}  // namespace

DeviceSim::DeviceSim(const DeviceSpec& spec)
    : spec_(spec),
      rng_(spec.model_seed),
      graph_(build_graph(spec.model, rng_)) {
  result_.index = spec_.index;
  result_.group = spec_.group;

  // Draw order matters (calibration before samples): it is part of the
  // reproducibility contract with the differential test.
  const nn::Tensor calibration =
      fault::make_batch(rng_, graph_, kCalibrationSamples);
  samples_ = fault::make_batch(rng_, graph_, spec_.inferences);

  backend_ = engine::make_backend(spec_.backend, spec_.power.make());

  engine::EngineConfig config;
  config.mode = spec_.mode;
  const bool corrupted = spec_.write_ber > 0.0 || spec_.read_ber > 0.0;
  // kAuto arms the integrity layer exactly when corruption is injected;
  // kOn forces it on clean devices too (overhead measurement), kOff runs
  // corrupted devices as the unprotected baseline (silent divergence is
  // the expected — and deterministic — outcome).
  const bool protect =
      spec_.integrity == IntegrityMode::kOn ||
      (spec_.integrity == IntegrityMode::kAuto && corrupted);
  if (protect) {
    config.integrity.protect_progress = true;
    config.integrity.seal_regions = true;
    config.integrity.scrub_on_boot = true;
  }
  model_ =
      std::make_unique<engine::DeployedModel>(graph_, config, *backend_,
                                              calibration);

  if (corrupted) {
    device::CorruptionConfig cc;
    cc.seed = spec_.stream_seed;
    cc.write_ber = spec_.write_ber;
    cc.read_ber = spec_.read_ber;
    corruption_ = std::make_unique<device::CorruptionModel>(cc);
    backend_->nvm().set_corruption(corruption_.get());
  }

  // Always install an injector — a kNone schedule injects nothing but
  // still counts chargeable events (the fleet throughput metric) and
  // arms the nontermination watchdog.
  injector_ = std::make_unique<fault::FaultInjector>(spec_.schedule);
  injector_->set_event_budget(spec_.event_budget != 0
                                  ? spec_.event_budget
                                  : fault::FaultInjector::kNoBudget);
  backend_->set_fault_hook(injector_.get());

  if (spec_.telemetry) {
    sink_ = std::make_unique<telemetry::RegistrySink>();
    backend_->set_trace_sink(sink_.get());
  }

  engine_ = std::make_unique<engine::IntermittentEngine>(*model_, *backend_);
}

bool DeviceSim::step() {
  if (done_) {
    return false;
  }
  const double deadline_us = spec_.deadline_s * 1e6;
  if (spec_.deadline_s > 0.0 && backend_->now_us() >= deadline_us) {
    result_.deadline_missed = true;
    done_ = true;
    return false;
  }
  try {
    const nn::Tensor sample = fault::slice_sample(samples_, next_);
    engine::InferenceResult inference = engine_->run(sample);
    result_.reexecuted_jobs += inference.stats.reexecuted_jobs;
    result_.integrity_rollbacks += inference.stats.integrity_rollbacks;
    if (!inference.stats.completed) {
      result_.failed = true;
      result_.error = "inference exceeded the engine restart budget";
      done_ = true;
    } else if (spec_.deadline_s > 0.0 && backend_->now_us() > deadline_us) {
      // Finished, but past the deadline: the inference does not count.
      result_.deadline_missed = true;
      done_ = true;
    } else {
      ++result_.inferences_done;
      result_.latency_us.record(inference.stats.latency_s * 1e6);
      util::Fnv1a digest;
      digest.fold_u64(result_.logits_checksum);
      digest.fold_f32(inference.logits.data(), inference.logits.size());
      result_.logits_checksum = digest.value();
      result_.last_logits = std::move(inference.logits);
      if (++next_ == spec_.inferences) {
        result_.completed = true;
        done_ = true;
      }
    }
  } catch (const engine::IntegrityError& e) {
    // Detected-but-unrecoverable corruption: the device cannot be trusted.
    result_.failed = true;
    result_.error = e.what();
    result_.verdict = IntegrityVerdict::kCompromised;
    done_ = true;
  } catch (const std::exception& e) {
    // The event-budget watchdog, dead-supply recharge, restart budget —
    // all demote to a failed device instead of aborting the fleet. An
    // unprotected progress counter that lost a committed record surfaces
    // as a crash-consistency violation: also an integrity compromise.
    result_.failed = true;
    result_.error = e.what();
    if (result_.error.find("crash-consistency") != std::string::npos) {
      result_.verdict = IntegrityVerdict::kCompromised;
    }
    done_ = true;
  }
  return !done_;
}

DeviceResult DeviceSim::finish() {
  backend_->set_fault_hook(nullptr);
  backend_->set_trace_sink(nullptr);
  backend_->nvm().set_corruption(nullptr);

  const device::DeviceStats& ds = backend_->stats();
  result_.sim_s = backend_->now_us() / 1e6;
  result_.on_s = ds.on_time_us / 1e6;
  result_.off_s = ds.off_time_us / 1e6;
  if (const power::PowerManager* pm = backend_->power(); pm != nullptr) {
    const power::PowerStats& ps = pm->stats();
    result_.consumed_j = ps.consumed_j;
    result_.harvested_j = ps.harvested_j;
    result_.wasted_j = ps.wasted_j;
    result_.power_failures = ps.power_failures;
    result_.injected_outages = ps.injected_failures;
  }
  result_.events = injector_->total_events();
  result_.nvm_bytes_read = ds.nvm_bytes_read;
  result_.nvm_bytes_written = ds.nvm_bytes_written;
  result_.macs = ds.macs;
  if (result_.verdict != IntegrityVerdict::kCompromised &&
      result_.integrity_rollbacks > 0) {
    result_.verdict = IntegrityVerdict::kRecovered;
  }
  if (sink_ != nullptr) {
    result_.registry = sink_->take_registry();
  }
  done_ = true;
  return std::move(result_);
}

DeviceResult run_device(const DeviceSpec& spec) {
  DeviceSim sim(spec);
  while (sim.step()) {
  }
  return sim.finish();
}

}  // namespace iprune::fleet
