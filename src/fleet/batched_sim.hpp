#pragma once
// Lockstep simulation of a cohort of devices from one fleet group.
//
// Eligible cohorts (same group, deterministic group-wide outage schedule,
// perfect NVM, telemetry off) share a member-invariant timeline: the
// engine's control flow never branches on data values, so every member
// performs the same chargeable events at the same instants with the same
// fault ordinals. run_cohort() builds one DeviceSim per member, then
// advances them all through one engine::IntermittentEngine cohort over
// the sims' {model, backend} pairs — member 0's backend carries the real
// charge timeline, the followers do only value work. Results are
// bit-identical to stepping each member standalone (the fleet batched
// differential test pins this); a cohort the engine rejects steps the
// sims it already built, one by one.

#include <span>
#include <vector>

#include "fleet/device_sim.hpp"
#include "fleet/spec.hpp"

namespace iprune::fleet {

/// Cap on cohort width: bounds peak memory (one NVM image per member is
/// live) and keeps the value-work inner loop cache-resident.
inline constexpr std::size_t kMaxCohort = 64;

/// True when `spec` can share a lockstep timeline with its group peers.
/// Random schedules are re-seeded per device (timelines diverge), any
/// bit-error rate arms the per-device corruption stream, and telemetry
/// records per-device traces — all outside the envelope.
[[nodiscard]] bool batched_eligible(const DeviceSpec& spec);

/// Simulate `specs` (consecutive devices of one group) in lockstep.
/// Returns one DeviceResult per spec, in order. One spec is one stepped
/// DeviceSim; a cohort the engine rejects (outside the lockstep envelope,
/// or not lockstep-compatible after deployment) steps each member alone.
[[nodiscard]] std::vector<DeviceResult> run_cohort(
    std::span<const DeviceSpec> specs);

}  // namespace iprune::fleet
