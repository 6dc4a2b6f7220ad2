#pragma once
// Lockstep simulation of a cohort of devices from one fleet group.
//
// Eligible cohorts (same group, deterministic group-wide outage schedule,
// perfect NVM, telemetry off) share a member-invariant timeline: the
// engine's control flow never branches on data values, so every member
// performs the same chargeable events at the same instants with the same
// fault ordinals. run_cohort() builds all member stacks, then advances
// them through one engine::IntermittentEngine cohort — member 0's device
// carries the real charge timeline, the followers do only value work.
// Results are bit-identical to simulating each member standalone (the
// fleet batched differential test pins this); anything that falls outside
// the lockstep envelope silently falls back to per-device simulation.

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

/// Simulate `specs` (>= 2 consecutive devices of one group) in lockstep.
/// Returns one DeviceResult per spec, in order. Falls back to standalone
/// run_device() per member when the cohort turns out not to be
/// lockstep-compatible after deployment.
[[nodiscard]] std::vector<DeviceResult> run_cohort(
    std::span<const DeviceSpec> specs);

}  // namespace iprune::fleet
