#pragma once
// One simulated fleet member: the full device stack (graph, deployment,
// power, fault injector, optional corruption + telemetry) built from a
// resolved DeviceSpec, stepped one inference at a time.
//
// This is the fleet's one device recipe: a stepped device and every
// member of a lockstep cohort (fleet/batched_sim.hpp) are DeviceSims, and
// one round loop advances 1..N of them — step() is a round over {this}
// through the sim's own engine. The fleet differential test rebuilds the
// stack by hand from the same DeviceSpec and requires bit-identical
// logits and telemetry. Keep the two in sync: any change to seeding,
// construction order, or engine configuration is an observable behaviour
// change for every fleet spec.

#include <memory>
#include <span>
#include <string>
#include <vector>

#include "device/corruption.hpp"
#include "device/msp430.hpp"
#include "engine/backend.hpp"
#include "engine/engine.hpp"
#include "fault/injector.hpp"
#include "fleet/result.hpp"
#include "fleet/spec.hpp"
#include "telemetry/registry.hpp"
#include "telemetry/sink.hpp"
#include "util/rng.hpp"

namespace iprune::fleet {

/// Final outcome + aggregates of one device's simulation. Everything the
/// orchestrator folds fleet-wide, in plain-data form so results survive
/// the (deliberately short-lived) device stack.
struct DeviceResult {
  std::size_t index = 0;
  std::string group;

  bool completed = false;        // all requested inferences finished
  bool deadline_missed = false;  // ran out of simulated time
  bool failed = false;           // engine error / integrity / watchdog
  std::string error;
  /// NVM-integrity outcome: consistent, recovered (rollbacks happened but
  /// every inference finished on verified state), or compromised (the
  /// integrity layer gave up, or a crash-consistency violation surfaced).
  IntegrityVerdict verdict = IntegrityVerdict::kConsistent;

  std::size_t inferences_done = 0;
  double sim_s = 0.0;  // simulated wall-clock at shutdown
  double on_s = 0.0;
  double off_s = 0.0;
  double consumed_j = 0.0;
  double harvested_j = 0.0;
  double wasted_j = 0.0;
  std::size_t power_failures = 0;
  std::size_t injected_outages = 0;
  std::uint64_t events = 0;  // chargeable events (fleet "device steps")
  std::size_t nvm_bytes_read = 0;
  std::size_t nvm_bytes_written = 0;
  std::size_t macs = 0;
  std::size_t reexecuted_jobs = 0;
  std::size_t integrity_rollbacks = 0;

  /// Per-inference end-to-end latency in microseconds.
  telemetry::Histogram latency_us;
  /// FNV-1a over the logit bytes of every completed inference, in order.
  std::uint64_t logits_checksum = 0;
  std::vector<float> last_logits;
  /// Per-device telemetry aggregates (FleetSpec::telemetry only).
  telemetry::MetricsRegistry registry;
};

/// The testbed graph of `model`, drawn first from `rng`: a device's
/// model stream, or a scenario check's testbed stream.
nn::Graph build_graph(ModelKind model, util::Rng& rng);

class DeviceSim {
 public:
  /// Builds the full stack. Deterministic given the spec: the model and
  /// samples come from Rng(model_seed); corruption (if any) is seeded
  /// from stream_seed and installed AFTER deployment, so bit faults
  /// strike runtime NVM traffic, not the deployment image itself — any
  /// non-zero rate arms the engine's full integrity layer.
  explicit DeviceSim(const DeviceSpec& spec);

  /// Run the next inference. Returns true while the device remains
  /// active; engine failures and deadline exhaustion end the device (the
  /// outcome lands in the result, never escapes as an exception).
  bool step();

  [[nodiscard]] bool active() const { return !done_; }
  [[nodiscard]] const DeviceSpec& spec() const { return spec_; }

  /// Detach hooks, harvest final device/power stats, and surrender the
  /// result. The sim is spent afterwards.
  [[nodiscard]] DeviceResult finish();

 private:
  friend std::vector<DeviceResult> run_cohort(
      std::span<const DeviceSpec> specs);

  /// One round: every sim runs its next inference through `engine`, whose
  /// members are the sims' {model, backend} pairs led by sims[0].
  /// The timeline is member-invariant, so the leader's clock and restart
  /// budget decide every outcome flag, and any failure ends every sim.
  static void step_all(std::span<DeviceSim* const> sims,
                       engine::IntermittentEngine& engine);

  /// finish() with the timeline (clock, energy ledger, power failures,
  /// events, NVM traffic, MACs) read from `timeline`: the sim itself, or
  /// the cohort leader for a follower, whose own device never runs.
  [[nodiscard]] DeviceResult finish(const DeviceSim& timeline);

  DeviceSpec spec_;
  DeviceResult result_;
  util::Rng rng_;
  nn::Graph graph_;
  /// The sample stream as engine inputs: spec.inferences samples of the
  /// graph's input size each, quantized once after deployment.
  std::vector<std::int16_t> inputs_;
  /// Built by engine::make_backend from spec.backend: a CycleBackend-owned
  /// Msp430Device for cycle/custom groups, a bare-Nvm FunctionalBackend
  /// for functional groups (no power model — harvest/outage stats stay 0).
  std::unique_ptr<engine::Backend> backend_;
  std::unique_ptr<engine::DeployedModel> model_;
  std::unique_ptr<device::CorruptionModel> corruption_;
  std::unique_ptr<fault::FaultInjector> injector_;
  std::unique_ptr<telemetry::RegistrySink> sink_;
  /// The sim's own engine, built by the first step(); cohort members,
  /// which run through the cohort's engine, never build one.
  std::unique_ptr<engine::IntermittentEngine> engine_;
  std::size_t next_ = 0;
  bool done_ = false;
};

/// Convenience: construct, run to completion, finish.
DeviceResult run_device(const DeviceSpec& spec);

}  // namespace iprune::fleet
