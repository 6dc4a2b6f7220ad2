#include "fault/injector.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>

namespace iprune::fault {

FaultInjector::FaultInjector(OutageSchedule schedule)
    : schedule_(std::move(schedule)), rng_(schedule_.seed) {}

void FaultInjector::reset() {
  rng_ = util::Rng(schedule_.seed);
  events_ = 0;
  point_events_.fill(0);
  outages_.clear();
}

bool FaultInjector::should_fail(power::FaultPoint point) {
  if (events_ >= event_budget_) {
    throw std::runtime_error(
        "FaultInjector: event budget exhausted after " +
        std::to_string(events_) +
        " chargeable events (schedule \"" + schedule_.describe() +
        "\" appears to prevent forward progress)");
  }
  const std::uint64_t ordinal = events_++;
  const std::uint64_t write_ordinal =
      point_events_[static_cast<std::size_t>(point)]++;
  if (outages_.size() >= schedule_.max_outages) {
    return false;
  }
  const bool fail = decide(point, ordinal, write_ordinal);
  if (fail) {
    outages_.push_back(ordinal);
  }
  return fail;
}

std::size_t FaultInjector::torn_write_bytes(std::size_t total_bytes) {
  switch (schedule_.torn) {
    case TornMode::kDropAll:
      return 0;
    case TornMode::kKeep:
      return static_cast<std::size_t>(
          std::min<std::uint64_t>(schedule_.torn_keep, total_bytes));
    case TornMode::kRandom:
      return total_bytes == 0 ? 0 : rng_.uniform_index(total_bytes);
  }
  return 0;
}

bool FaultInjector::decide(power::FaultPoint point, std::uint64_t ordinal,
                           std::uint64_t write_ordinal) {
  switch (schedule_.mode) {
    case ScheduleMode::kNone:
      return false;
    case ScheduleMode::kFixed:
      return std::binary_search(schedule_.fixed_events.begin(),
                                schedule_.fixed_events.end(), ordinal);
    case ScheduleMode::kEveryNth:
      return (ordinal + 1) % schedule_.every_n == 0;
    case ScheduleMode::kRandom:
      return rng_.bernoulli(schedule_.probability);
    case ScheduleMode::kAtWrite:
      return point == power::FaultPoint::kNvmWrite &&
             write_ordinal == schedule_.write_index;
  }
  return false;
}

}  // namespace iprune::fault
