#pragma once
// Energy accounting for the on/off duty-cycling of an intermittently
// powered device: while the device runs, harvested power partially offsets
// the load; when the buffer empties the device browns out and the manager
// computes the recharge time until the on-threshold is reached again.
//
// A FaultHook (fault_hook.hpp) can additionally force a brown-out at a
// precise chargeable-operation index, independent of the energy balance —
// the substrate of the src/fault crash-consistency harness.

#include <memory>

#include "power/energy_buffer.hpp"
#include "power/fault_hook.hpp"
#include "power/supply.hpp"
#include "telemetry/sink.hpp"

namespace iprune::power {

/// Energy ledger. Conservation invariant (pinned by tests):
///   initial_stored + harvested_j == consumed_j + wasted_j + stored_j
/// where wasted_j covers harvest that overflowed the full buffer, recharge
/// overshoot beyond the on-threshold, and charge discarded by an injected
/// outage.
struct PowerStats {
  std::size_t power_failures = 0;
  /// Failures forced by the fault hook (subset of power_failures).
  std::size_t injected_failures = 0;
  double harvested_j = 0.0;
  double consumed_j = 0.0;
  double wasted_j = 0.0;
  double off_time_s = 0.0;
};

class PowerManager {
 public:
  PowerManager(std::unique_ptr<PowerSupply> supply, BufferConfig buffer);

  /// Account one device operation of `duration_s` drawing `energy_j`
  /// starting at simulated time `now_s`. Returns true if the buffer
  /// sustained it; false on brown-out (buffer left empty; call recharge()).
  /// `point` names the operation kind for the fault hook.
  [[nodiscard]] bool consume(double now_s, double duration_s, double energy_j,
                             FaultPoint point = FaultPoint::kOther);

  /// Recharge from empty to the on-threshold starting at `now_s`.
  /// Returns the recharge duration in seconds. Throws if the supply
  /// cannot ever refill the buffer (dead supply).
  [[nodiscard]] double recharge(double now_s);

  [[nodiscard]] const PowerStats& stats() const { return stats_; }
  [[nodiscard]] const EnergyBuffer& buffer() const { return buffer_; }
  [[nodiscard]] const PowerSupply& supply() const { return *supply_; }

  /// True when the most recent consume() failure was forced by the fault
  /// hook rather than by the energy balance. Lets the device distinguish
  /// an injected reboot outage (retry) from a misconfigured reboot cost
  /// (fatal).
  [[nodiscard]] bool last_outage_injected() const {
    return last_outage_injected_;
  }

  void reset_stats() { stats_ = {}; }

  /// Install a deterministic outage-injection hook (nullptr removes it).
  /// Non-owning; the hook must outlive the manager.
  void set_fault_hook(FaultHook* hook) { fault_hook_ = hook; }

  /// Route brown-out / recharge telemetry to `sink` (nullptr restores the
  /// null sink). Non-owning; the sink must outlive the manager.
  void set_trace_sink(telemetry::TraceSink* sink) {
    sink_ = sink != nullptr ? sink : &telemetry::NullSink::instance();
    trace_on_ = sink_->enabled();
  }

 private:
  void record_recharge(double now_s, double duration_s, double harvested_j);

  std::unique_ptr<PowerSupply> supply_;
  EnergyBuffer buffer_;
  PowerStats stats_;
  FaultHook* fault_hook_ = nullptr;
  bool last_outage_injected_ = false;
  telemetry::TraceSink* sink_ = &telemetry::NullSink::instance();
  // Cached sink_->enabled() so the consume() hot path tests one member
  // bool instead of chasing the sink pointer per charge.
  bool trace_on_ = false;
};

}  // namespace iprune::power
