// Analytic harvest models (RF, kinetic, indoor-solar, diurnal).
// PowerManager::recharge caches segment() and skips per-step power_w()
// calls, so the contract under test is bit-exactness: within a segment,
// every power_w(t) equals the cached segment power to the last ulp, and
// the step-by-step oracle (dense power_w sampling) integrates to the same
// energy as walking segments. Any epsilon here would change recharge
// times, and with them every fleet digest on these supplies.

#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <numbers>
#include <vector>

#include "power/supply.hpp"

namespace iprune::power {
namespace {

/// For a dense grid of query times, the segment returned at t must cover
/// power_w exactly until its end: same bits, no tolerance.
void expect_segment_matches_stepping(const PowerSupply& supply,
                                     double horizon_s) {
  const int queries = 400;
  for (int i = 0; i < queries; ++i) {
    const double t = horizon_s * i / queries;
    const SupplySegment seg = supply.segment(t);
    ASSERT_GE(seg.end_s, t);
    ASSERT_EQ(seg.power_w, supply.power_w(t)) << "at t=" << t;
    // Sample inside the window, including a point snug against the end.
    const double span = seg.end_s - t;
    for (const double f : {0.0, 0.25, 0.5, 0.75, 0.999}) {
      const double inside = t + span * f;
      ASSERT_EQ(supply.power_w(inside), seg.power_w)
          << "segment [" << t << ", " << seg.end_s << ") broken at "
          << inside;
    }
  }
}

/// Energy over one cycle from the analytic phase table equals the
/// closed-form mean-power expectation of the model.
void expect_cycle_energy(const PhasedSupply& supply, double expected_j) {
  double walked = 0.0;
  for (const PhasedSupply::Phase& phase : supply.phases()) {
    walked += phase.power_w * phase.duration_s;
  }
  EXPECT_NEAR(walked, expected_j, 1e-12 + 1e-9 * expected_j);
}

/// Inside the guard band before a phase boundary, segment() degrades to a
/// zero-length window (end_s == query time) — "query afresh" — and
/// never stretches the cached power across the boundary.
void expect_guard_band_degrades(const PhasedSupply& supply) {
  const double guard = supply.cycle_s() * 1e-9;
  double end = 0.0;
  for (const PhasedSupply::Phase& phase : supply.phases()) {
    end += phase.duration_s;
    const double inside = end - 0.5 * guard;
    const SupplySegment seg = supply.segment(inside);
    ASSERT_EQ(seg.end_s, inside) << "boundary " << end;
    ASSERT_EQ(seg.power_w, supply.power_w(inside)) << "boundary " << end;
  }
}

TEST(HarvestModels, RfSegmentIsBitExact) {
  const RfSupply rf(0.015, 0.02, 0.6);
  expect_segment_matches_stepping(rf, 0.1);
  // Burst for the leading duty fraction, silent after.
  EXPECT_EQ(rf.power_w(0.0), 0.015);
  EXPECT_EQ(rf.power_w(0.0119), 0.015);
  EXPECT_EQ(rf.power_w(0.0121), 0.0);
  // Cyclic: one full period later the same phase holds.
  EXPECT_EQ(rf.power_w(0.0201), rf.power_w(0.0001));
}

TEST(HarvestModels, RfMeanPowerMatchesDutyCycle) {
  const RfSupply rf(0.01, 0.5, 0.2);
  expect_cycle_energy(rf, 0.01 * 0.5 * 0.2);
}

TEST(HarvestModels, GuardBandDegradesToTheSlowPath) {
  expect_guard_band_degrades(RfSupply(0.015, 0.02, 0.6));
  expect_guard_band_degrades(KineticSupply(0.02, 0.05, 4, 0.8));
  expect_guard_band_degrades(IndoorSolarSupply(0.008, 0.002, 4.0, 0.7));
  expect_guard_band_degrades(DiurnalSupply(0.016, 8.0, 0.5));
}

TEST(HarvestModels, KineticImpulseDecaysGeometrically) {
  const KineticSupply kinetic(0.02, 0.05, 4, 0.8);
  expect_segment_matches_stepping(kinetic, 0.2);
  // Four slots spanning the first half-period, geometric decay, then
  // quiet: p_k = impulse * decay^k with slot width T/(2*steps).
  const double slot = 0.05 / (2.0 * 4);
  for (int k = 0; k < 4; ++k) {
    const double expected = 0.02 * std::pow(0.8, k);
    EXPECT_DOUBLE_EQ(kinetic.power_w((k + 0.5) * slot), expected);
  }
  EXPECT_EQ(kinetic.power_w(0.03), 0.0);  // second half is quiet
}

TEST(HarvestModels, IndoorSolarHoldsADimFloor) {
  const IndoorSolarSupply indoor(0.008, 0.002, 4.0, 0.7);
  expect_segment_matches_stepping(indoor, 12.0);
  EXPECT_EQ(indoor.power_w(1.0), 0.008);   // lights on
  EXPECT_EQ(indoor.power_w(3.0), 0.002);   // dim floor, never zero
  expect_cycle_energy(indoor, 0.008 * 4.0 * 0.7 + 0.002 * 4.0 * 0.3);
}

TEST(HarvestModels, DiurnalQuantizesASinSquaredArc) {
  const DiurnalSupply diurnal(0.016, 8.0, 0.5);
  expect_segment_matches_stepping(diurnal, 20.0);
  // Slot k carries peak * sin^2(pi * (k + 0.5) / kSlots) across the
  // daylight window; the night half is exactly zero.
  const double daylight = 8.0 * 0.5;
  const double slot = daylight / DiurnalSupply::kSlots;
  const std::size_t mid = DiurnalSupply::kSlots / 2;
  const double expected =
      0.016 * std::pow(std::sin(std::numbers::pi * (mid + 0.5) /
                                DiurnalSupply::kSlots),
                       2.0);
  EXPECT_DOUBLE_EQ(diurnal.power_w((mid + 0.5) * slot), expected);
  EXPECT_EQ(diurnal.power_w(daylight + 1.0), 0.0);
  EXPECT_EQ(diurnal.power_w(7.999), 0.0);
  // Noon beats morning beats night.
  EXPECT_GT(diurnal.power_w(2.0), diurnal.power_w(0.1));
}

TEST(HarvestModels, PhasedSupplyRejectsBadPhases) {
  EXPECT_THROW(PhasedSupply({}), std::invalid_argument);
  EXPECT_THROW(PhasedSupply({{0.01, 0.0}}), std::invalid_argument);
  EXPECT_THROW(PhasedSupply({{-0.01, 1.0}}), std::invalid_argument);
  EXPECT_THROW(PhasedSupply({{std::nan(""), 1.0}}),
               std::invalid_argument);
}

TEST(HarvestModels, CyclesRepeatExactly) {
  // fmod-based phase lookup must agree with itself across many cycles —
  // the diurnal model runs for thousands of simulated days.
  const DiurnalSupply diurnal(0.016, 8.0, 0.5);
  const RfSupply rf(0.015, 0.02, 0.6);
  for (int cycle = 1; cycle < 64; cycle *= 2) {
    EXPECT_EQ(diurnal.power_w(1.0), diurnal.power_w(1.0 + 8.0 * cycle));
    EXPECT_EQ(rf.power_w(0.005), rf.power_w(0.005 + 0.02 * cycle));
  }
}

}  // namespace
}  // namespace iprune::power
