#include "fleet/device_sim.hpp"

#include <cstdint>
#include <exception>
#include <utility>

#include "device/config.hpp"
#include "engine/integrity.hpp"
#include "fault/testbed.hpp"
#include "util/hash.hpp"

namespace iprune::fleet {

nn::Graph build_graph(ModelKind model, util::Rng& rng) {
  switch (model) {
    case ModelKind::kTiny:
      return fault::make_tiny_graph(rng);
    case ModelKind::kMultipath:
      return fault::make_multipath_graph(rng);
  }
  throw std::logic_error("fleet: bad model kind");
}

DeviceSim::DeviceSim(const DeviceSpec& spec)
    : spec_(spec),
      rng_(spec.model_seed),
      graph_(build_graph(spec.model, rng_)) {
  result_.index = spec_.index;
  result_.group = spec_.group;
  // A device asked for no inferences has nothing to run.
  done_ = spec_.inferences == 0;
  result_.completed = done_;

  // Draw order matters (calibration before samples): it is part of the
  // reproducibility contract with the differential test.
  const nn::Tensor calibration =
      fault::make_batch(rng_, graph_, fault::kCalibrationSamples);
  const nn::Tensor samples =
      fault::make_batch(rng_, graph_, spec_.inferences);

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
  // The engine's input quantization is elementwise, so the whole stream is
  // quantized once here rather than one sample per round.
  inputs_ = engine::IntermittentEngine::quantize_input(
      {samples.data(), samples.numel()}, model_->input_scale());

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
}

bool DeviceSim::step() {
  if (!done_) {
    // Built on the first step: a cohort member runs through the cohort's
    // engine and never needs one of its own.
    if (engine_ == nullptr) {
      engine_ =
          std::make_unique<engine::IntermittentEngine>(*model_, *backend_);
    }
    DeviceSim* const self[] = {this};
    step_all(self, *engine_);
  }
  return !done_;
}

void DeviceSim::step_all(std::span<DeviceSim* const> sims,
                         engine::IntermittentEngine& engine) {
  const DeviceSim& lead = *sims[0];
  const auto end_all = [sims](const auto& mark) {
    for (DeviceSim* sim : sims) {
      mark(sim->result_);
      sim->done_ = true;
    }
  };
  const double deadline_us = lead.spec_.deadline_s * 1e6;
  const bool has_deadline = lead.spec_.deadline_s > 0.0;
  if (has_deadline && lead.backend_->now_us() >= deadline_us) {
    end_all([](DeviceResult& r) { r.deadline_missed = true; });
    return;
  }
  try {
    std::vector<std::span<const std::int16_t>> inputs;
    inputs.reserve(sims.size());
    for (const DeviceSim* sim : sims) {
      const std::size_t elems = nn::shape_numel(sim->graph_.input_shape());
      inputs.push_back({sim->inputs_.data() + sim->next_ * elems, elems});
    }
    std::vector<engine::InferenceResult> inferences =
        engine.run_quantized(inputs);
    for (std::size_t m = 0; m < sims.size(); ++m) {
      DeviceResult& r = sims[m]->result_;
      r.reexecuted_jobs += inferences[m].stats.reexecuted_jobs;
      r.integrity_rollbacks += inferences[m].stats.integrity_rollbacks;
    }
    if (!inferences[0].stats.completed) {
      end_all([](DeviceResult& r) {
        r.failed = true;
        r.error = "inference exceeded the engine restart budget";
      });
    } else if (has_deadline && lead.backend_->now_us() > deadline_us) {
      // Finished, but past the deadline: the inference does not count.
      end_all([](DeviceResult& r) { r.deadline_missed = true; });
    } else {
      for (std::size_t m = 0; m < sims.size(); ++m) {
        DeviceResult& r = sims[m]->result_;
        ++r.inferences_done;
        r.latency_us.record(inferences[m].stats.latency_s * 1e6);
        util::Fnv1a digest;
        digest.fold_u64(r.logits_checksum);
        digest.fold_f32(inferences[m].logits.data(),
                        inferences[m].logits.size());
        r.logits_checksum = digest.value();
        r.last_logits = std::move(inferences[m].logits);
        ++sims[m]->next_;
      }
      if (lead.next_ == lead.spec_.inferences) {
        end_all([](DeviceResult& r) { r.completed = true; });
      }
    }
  } catch (const engine::IntegrityError& e) {
    // Detected-but-unrecoverable corruption: the device cannot be trusted.
    end_all([&e](DeviceResult& r) {
      r.failed = true;
      r.error = e.what();
      r.verdict = IntegrityVerdict::kCompromised;
    });
  } catch (const std::exception& e) {
    // The event-budget watchdog, dead-supply recharge, restart budget —
    // all demote to a failed device instead of aborting the fleet. An
    // unprotected progress counter that lost a committed record surfaces
    // as a crash-consistency violation: also an integrity compromise.
    end_all([&e](DeviceResult& r) {
      r.failed = true;
      r.error = e.what();
      if (r.error.find("crash-consistency") != std::string::npos) {
        r.verdict = IntegrityVerdict::kCompromised;
      }
    });
  }
}

DeviceResult DeviceSim::finish() { return finish(*this); }

DeviceResult DeviceSim::finish(const DeviceSim& timeline) {
  backend_->set_fault_hook(nullptr);
  backend_->set_trace_sink(nullptr);
  backend_->nvm().set_corruption(nullptr);

  const engine::Backend& clock = *timeline.backend_;
  const device::DeviceStats& ds = clock.stats();
  result_.sim_s = clock.now_us() / 1e6;
  result_.on_s = ds.on_time_us / 1e6;
  result_.off_s = ds.off_time_us / 1e6;
  if (const power::PowerManager* pm = clock.power(); pm != nullptr) {
    const power::PowerStats& ps = pm->stats();
    result_.consumed_j = ps.consumed_j;
    result_.harvested_j = ps.harvested_j;
    result_.wasted_j = ps.wasted_j;
    result_.power_failures = ps.power_failures;
    result_.injected_outages = ps.injected_failures;
  }
  result_.events = timeline.injector_->total_events();
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
