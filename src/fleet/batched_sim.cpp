#include "fleet/batched_sim.hpp"

#include <exception>
#include <memory>
#include <stdexcept>
#include <utility>

#include "device/config.hpp"
#include "engine/engine.hpp"
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

/// One cohort member's stack. Mirrors DeviceSim's construction recipe
/// exactly (same draw order, same configuration) — the lockstep results
/// must be bit-identical to a standalone run of the same DeviceSpec.
struct MemberStack {
  util::Rng rng;
  nn::Graph graph;
  nn::Tensor samples;
  std::unique_ptr<device::Msp430Device> device;
  std::unique_ptr<engine::DeployedModel> model;

  explicit MemberStack(const DeviceSpec& spec)
      : rng(spec.model_seed), graph(build_graph(spec.model, rng)) {
    const nn::Tensor calibration =
        fault::make_batch(rng, graph, kCalibrationSamples);
    samples = fault::make_batch(rng, graph, spec.inferences);
    device = std::make_unique<device::Msp430Device>(spec.backend.device,
                                                    spec.power.make());
    engine::EngineConfig config;
    config.mode = spec.mode;  // eligibility guarantees write/read_ber == 0
    model = std::make_unique<engine::DeployedModel>(graph, config, *device,
                                                    calibration);
  }
};

std::vector<DeviceResult> run_standalone(std::span<const DeviceSpec> specs) {
  std::vector<DeviceResult> results;
  results.reserve(specs.size());
  for (const DeviceSpec& spec : specs) {
    results.push_back(run_device(spec));
  }
  return results;
}

}  // namespace

bool batched_eligible(const DeviceSpec& spec) {
  // integrity=on arms the CRC/scrub layer on a clean device, which is
  // outside the lockstep envelope (MemberStack deploys without it) — such
  // devices fall back to the standalone per-device path. The functional
  // backend has no device timeline at all (batching is a timeline
  // optimization), so only cycle-class backends qualify.
  return spec.schedule.mode != fault::ScheduleMode::kRandom &&
         spec.write_ber == 0.0 && spec.read_ber == 0.0 && !spec.telemetry &&
         spec.integrity != IntegrityMode::kOn &&
         spec.backend.kind != engine::BackendKind::kFunctional;
}

std::vector<DeviceResult> run_cohort(std::span<const DeviceSpec> specs) {
  if (specs.size() < 2) {
    return run_standalone(specs);
  }

  std::vector<MemberStack> stacks;
  stacks.reserve(specs.size());
  for (const DeviceSpec& spec : specs) {
    stacks.emplace_back(spec);
  }
  for (std::size_t m = 1; m < stacks.size(); ++m) {
    if (!engine::IntermittentEngine::lockstep_compatible(*stacks[0].model,
                                                         *stacks[m].model)) {
      return run_standalone(specs);
    }
  }

  // Injector on the leader only — installed after deployment (same as
  // DeviceSim), and its counters are member-invariant by construction.
  const DeviceSpec& lead_spec = specs[0];
  fault::FaultInjector injector(lead_spec.schedule);
  injector.set_event_budget(lead_spec.event_budget != 0
                                ? lead_spec.event_budget
                                : fault::FaultInjector::kNoBudget);
  stacks[0].device->set_fault_hook(&injector);

  std::vector<engine::CohortMember> members;
  members.reserve(stacks.size());
  for (MemberStack& stack : stacks) {
    members.push_back({stack.model.get(), stack.device.get()});
  }

  std::vector<DeviceResult> results(specs.size());
  for (std::size_t m = 0; m < specs.size(); ++m) {
    results[m].index = specs[m].index;
    results[m].group = specs[m].group;
  }

  device::Msp430Device& leader = *stacks[0].device;
  std::unique_ptr<engine::IntermittentEngine> engine;
  try {
    engine = std::make_unique<engine::IntermittentEngine>(
        std::span<const engine::CohortMember>(members));
  } catch (const std::invalid_argument&) {
    // Outside the lockstep envelope after all — simulate standalone.
    leader.set_fault_hook(nullptr);
    return run_standalone(specs);
  }

  try {
    const double deadline_us = lead_spec.deadline_s * 1e6;
    // Quantize every member's sample stream once. The engine's input
    // staging consumes i16 payloads; re-slicing the batch tensor and
    // re-quantizing floats every round was pure per-member overhead
    // (quantize_input reproduces stepping mode's rounding bit-exactly).
    const std::size_t rounds = lead_spec.inferences;
    const std::size_t stride =
        rounds > 0 ? stacks[0].samples.numel() / rounds : 0;
    std::vector<std::vector<std::int16_t>> quantized;
    quantized.reserve(specs.size() * rounds);
    for (std::size_t m = 0; m < specs.size(); ++m) {
      const float scale = stacks[m].model->input_scale();
      const float* base = stacks[m].samples.data();
      for (std::size_t i = 0; i < rounds; ++i) {
        quantized.push_back(engine::IntermittentEngine::quantize_input(
            {base + i * stride, stride}, scale));
      }
    }
    std::vector<std::span<const std::int16_t>> inputs(specs.size());
    std::size_t next = 0;
    bool done = false;
    while (!done) {
      // Deadline / step logic mirrors DeviceSim::step — the timeline is
      // member-invariant, so every outcome flag is cohort-wide.
      if (lead_spec.deadline_s > 0.0 && leader.now_us() >= deadline_us) {
        for (DeviceResult& r : results) {
          r.deadline_missed = true;
        }
        break;
      }
      for (std::size_t m = 0; m < specs.size(); ++m) {
        inputs[m] = quantized[m * rounds + next];
      }
      std::vector<engine::InferenceResult> inferences =
          engine->run_quantized(inputs);
      for (std::size_t m = 0; m < specs.size(); ++m) {
        results[m].reexecuted_jobs += inferences[m].stats.reexecuted_jobs;
        results[m].integrity_rollbacks +=
            inferences[m].stats.integrity_rollbacks;
      }
      if (!inferences[0].stats.completed) {
        for (DeviceResult& r : results) {
          r.failed = true;
          r.error = "inference exceeded the engine restart budget";
        }
        done = true;
      } else if (lead_spec.deadline_s > 0.0 &&
                 leader.now_us() > deadline_us) {
        for (DeviceResult& r : results) {
          r.deadline_missed = true;
        }
        done = true;
      } else {
        for (std::size_t m = 0; m < specs.size(); ++m) {
          DeviceResult& r = results[m];
          ++r.inferences_done;
          r.latency_us.record(inferences[m].stats.latency_s * 1e6);
          util::Fnv1a digest;
          digest.fold_u64(r.logits_checksum);
          digest.fold_f32(inferences[m].logits.data(),
                          inferences[m].logits.size());
          r.logits_checksum = digest.value();
          r.last_logits = std::move(inferences[m].logits);
        }
        if (++next == lead_spec.inferences) {
          for (DeviceResult& r : results) {
            r.completed = true;
          }
          done = true;
        }
      }
    }
  } catch (const engine::IntegrityError& e) {
    for (DeviceResult& r : results) {
      r.failed = true;
      r.error = e.what();
      r.verdict = IntegrityVerdict::kCompromised;
    }
  } catch (const std::exception& e) {
    // Same demotion as DeviceSim::step: watchdog, dead supply, restart
    // budget, crash-consistency — cohort-wide by timeline invariance.
    for (DeviceResult& r : results) {
      r.failed = true;
      r.error = e.what();
      if (r.error.find("crash-consistency") != std::string::npos) {
        r.verdict = IntegrityVerdict::kCompromised;
      }
    }
  }

  // Harvest the (member-invariant) timeline from the leader.
  leader.set_fault_hook(nullptr);
  const device::DeviceStats& ds = leader.stats();
  const power::PowerStats& ps = leader.power().stats();
  for (DeviceResult& r : results) {
    r.sim_s = leader.now_us() / 1e6;
    r.on_s = ds.on_time_us / 1e6;
    r.off_s = ds.off_time_us / 1e6;
    r.consumed_j = ps.consumed_j;
    r.harvested_j = ps.harvested_j;
    r.wasted_j = ps.wasted_j;
    r.power_failures = ps.power_failures;
    r.injected_outages = ps.injected_failures;
    r.events = injector.total_events();
    r.nvm_bytes_read = ds.nvm_bytes_read;
    r.nvm_bytes_written = ds.nvm_bytes_written;
    r.macs = ds.macs;
    if (r.verdict != IntegrityVerdict::kCompromised &&
        r.integrity_rollbacks > 0) {
      r.verdict = IntegrityVerdict::kRecovered;
    }
  }
  return results;
}

}  // namespace iprune::fleet
