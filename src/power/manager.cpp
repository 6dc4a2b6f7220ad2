#include "power/manager.hpp"

#include <stdexcept>

namespace iprune::power {

PowerManager::PowerManager(std::unique_ptr<PowerSupply> supply,
                           BufferConfig buffer)
    : supply_(std::move(supply)), buffer_(buffer) {
  if (supply_ == nullptr) {
    throw std::invalid_argument("PowerManager: null supply");
  }
}

bool PowerManager::consume(double now_s, double duration_s, double energy_j,
                           FaultPoint point) {
  const double harvested = supply_->power_w(now_s) * duration_s;
  stats_.harvested_j += harvested;
  stats_.wasted_j += buffer_.deposit(harvested);

  last_outage_injected_ =
      fault_hook_ != nullptr && fault_hook_->should_fail(point);
  if (!last_outage_injected_) {
    const double stored = buffer_.stored_j();
    if (buffer_.withdraw(energy_j)) {
      stats_.consumed_j += energy_j;
      return true;
    }
    // Organic brown-out: the device drew everything the buffer held
    // before dying partway through the operation (withdraw() drained it).
    stats_.consumed_j += stored;
  } else {
    // Injected outage: the supply is cut at this exact event regardless of
    // the energy balance; the residual charge is discarded, not consumed.
    stats_.wasted_j += buffer_.stored_j();
    buffer_.drain();
    ++stats_.injected_failures;
  }
  ++stats_.power_failures;
  if (trace_on_) {
    telemetry::Event event;
    event.cls = telemetry::EventClass::kBrownOut;
    event.phase = telemetry::EventPhase::kInstant;
    event.t_us = (now_s + duration_s) * 1e6;
    event.energy_j = energy_j;
    event.seq = stats_.power_failures;
    sink_->record(event);
    if (last_outage_injected_) {
      telemetry::Event inject;
      inject.cls = telemetry::EventClass::kFaultInject;
      inject.phase = telemetry::EventPhase::kInstant;
      inject.t_us = event.t_us;
      inject.seq = stats_.injected_failures;
      inject.name = fault_point_name(point);
      sink_->record(inject);
    }
  }
  return false;
}

void PowerManager::record_recharge(double now_s, double duration_s,
                                   double harvested_j) {
  if (!trace_on_) {
    return;
  }
  telemetry::Event event;
  event.cls = telemetry::EventClass::kRecharge;
  event.phase = telemetry::EventPhase::kSpan;
  event.t_us = now_s * 1e6;
  event.dur_us = duration_s * 1e6;
  // Recharge dead time is exposed wall-clock by definition.
  event.attributed_us = event.dur_us;
  event.energy_j = harvested_j;
  event.seq = stats_.power_failures;
  sink_->record(event);
}

double PowerManager::recharge(double now_s) {
  // Integrate the (possibly time-varying) supply in fixed steps until the
  // buffer is full. Constant supplies converge in one closed-form step.
  const double needed = buffer_.usable_j() - buffer_.stored_j();
  const double p0 = supply_->power_w(now_s);

  double elapsed = 0.0;
  double accumulated = 0.0;
  if (p0 > 0.0) {
    const double estimate = needed / p0;
    // Probe whether the supply is constant over the estimated window; if
    // so, finish in closed form.
    if (supply_->power_w(now_s + estimate) == p0 &&
        supply_->power_w(now_s + estimate * 0.5) == p0) {
      buffer_.refill();
      stats_.harvested_j += needed;
      stats_.off_time_s += estimate;
      record_recharge(now_s, estimate, needed);
      return estimate;
    }
  }

  constexpr double kStepS = 1e-3;
  constexpr double kMaxRechargeS = 3600.0 * 24.0;
  // Segment-cached stepping: each step still samples the supply at its
  // start time like the original per-step loop, but within a declared
  // constant window the cached value substitutes for the virtual call.
  // SupplySegment's contract (power_w(t) == seg.power_w for t < end_s)
  // makes the sum bit-identical to per-step power_w() queries.
  SupplySegment seg{0.0, now_s};
  while (accumulated < needed) {
    const double t = now_s + elapsed;
    if (t >= seg.end_s) {
      seg = supply_->segment(t);
    }
    accumulated += seg.power_w * kStepS;
    elapsed += kStepS;
    if (elapsed > kMaxRechargeS) {
      throw std::runtime_error(
          "PowerManager::recharge: supply cannot refill the buffer within "
          "24 simulated hours (dead energy source)");
    }
  }
  buffer_.refill();
  // The last integration step overshoots the on-threshold; the overshoot
  // is harvested but not storable (the converter stops charging).
  stats_.harvested_j += accumulated;
  stats_.wasted_j += accumulated - needed;
  stats_.off_time_s += elapsed;
  record_recharge(now_s, elapsed, needed);
  return elapsed;
}

}  // namespace iprune::power
