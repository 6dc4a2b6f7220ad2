#pragma once
// Deterministic outage injector: the bridge between an OutageSchedule and
// the PowerManager's fault hook.
//
// Every PowerManager::consume call is one chargeable event; the injector
// assigns it the next global ordinal (starting at 0), bumps the per-point
// counters, and answers whether the schedule forces an outage there. The
// decision is a pure function of the event-stream prefix, so an identical
// simulation replays identically — which is what lets the consistency
// checker turn any failing schedule into a kFixed repro from the realized
// outage ordinals.

#include <array>
#include <cstdint>
#include <vector>

#include "fault/schedule.hpp"
#include "power/fault_hook.hpp"
#include "util/rng.hpp"

namespace iprune::fault {

class FaultInjector final : public power::FaultHook {
 public:
  static constexpr std::uint64_t kNoBudget =
      std::numeric_limits<std::uint64_t>::max();

  explicit FaultInjector(OutageSchedule schedule);

  /// FaultHook: called once per chargeable event, in simulation order.
  /// Throws std::runtime_error if the event budget is exhausted (the
  /// nontermination watchdog for schedules denser than one inference).
  bool should_fail(power::FaultPoint point) override;

  /// FaultHook: torn-write prefix for the staged NVM commit interrupted
  /// by the outage just injected, per the schedule's TornMode. kRandom
  /// draws from the schedule RNG stream (after the outage decision), so
  /// replays with the same seed tear at the same offsets.
  std::size_t torn_write_bytes(std::size_t total_bytes) override;

  /// Rewind to the pre-run state (counters, RNG stream, realized outages)
  /// so one injector can drive several runs of the same schedule.
  void reset();

  /// Abort the run (std::runtime_error from should_fail) once more than
  /// `budget` events have been observed. kNoBudget disables the watchdog.
  void set_event_budget(std::uint64_t budget) { event_budget_ = budget; }

  [[nodiscard]] const OutageSchedule& schedule() const { return schedule_; }
  /// Total chargeable events observed so far.
  [[nodiscard]] std::uint64_t total_events() const { return events_; }
  /// Events observed at one fault point (e.g. NVM-write boundaries).
  [[nodiscard]] std::uint64_t events_at(power::FaultPoint point) const {
    return point_events_[static_cast<std::size_t>(point)];
  }
  [[nodiscard]] std::uint64_t write_events() const {
    return events_at(power::FaultPoint::kNvmWrite);
  }
  /// Outages actually forced so far.
  [[nodiscard]] std::uint64_t injected() const { return outages_.size(); }
  /// Global ordinals of every forced outage, in order — replaying them as
  /// OutageSchedule::at_events reproduces this run exactly.
  [[nodiscard]] const std::vector<std::uint64_t>& outage_events() const {
    return outages_;
  }

 private:
  [[nodiscard]] bool decide(power::FaultPoint point, std::uint64_t ordinal,
                            std::uint64_t write_ordinal);

  OutageSchedule schedule_;
  util::Rng rng_;
  std::uint64_t events_ = 0;
  std::array<std::uint64_t,
             static_cast<std::size_t>(power::FaultPoint::kPointCount)>
      point_events_{};
  std::vector<std::uint64_t> outages_;
  std::uint64_t event_budget_ = kNoBudget;
};

}  // namespace iprune::fault
