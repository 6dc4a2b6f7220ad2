// Fleet-orchestrator scaling check, two sections:
//
//  1. Lane sweep: simulates the same fixed fleet on a widening lane sweep
//     (1, 2, 4, ... up to IPRUNE_THREADS), verifies that every run
//     produces the exact same fleet checksum — the orchestrator's
//     bit-determinism contract — and reports throughput in simulated
//     device steps (chargeable device events) per wall-second.
//
//  2. Sim-mode comparison: the same lockstep-eligible single-group fleet
//     under both SimKinds (stepping oracle, batched lockstep cohorts) on
//     one lane. Both modes must produce the identical fleet digest (exit
//     1 otherwise); the report states each mode's
//     device-events-per-wall-second, the batched speedup over the
//     stepping oracle, and where that lands against the
//     >=5x acceptance floor / >=10x roadmap target. Pass --floor X to
//     turn the floor into a hard gate (exit 1 when the batched speedup
//     is below X).
//
// Writes a BENCH_PERF-schema JSON report (one entry per lane count plus
// one per sim mode, the fleet checksum as the entry checksum) for
// plotting / archiving; the curated perf-gate baseline carries the
// separate single-entry `fleet_sim_*` scenarios from bench_perf_gate.
// Exits nonzero on any cross-lane or cross-mode checksum mismatch.
//
// IPRUNE_FAST=1 shrinks the fleet for quick CI runs.

#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <vector>

#include "fleet/orchestrator.hpp"
#include "util/perf_gate.hpp"
#include "util/table.hpp"

namespace {

double seconds_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

bool fast_mode() {
  const char* value = std::getenv("IPRUNE_FAST");
  return value != nullptr && value[0] == '1';
}

}  // namespace

int main(int argc, char** argv) {
  using namespace iprune;

  std::string out_path = "BENCH_FLEET.json";
  double floor = 0.0;  // 0 = report-only
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--out" && i + 1 < argc) {
      out_path = argv[++i];
    } else if (arg == "--floor" && i + 1 < argc) {
      floor = std::atof(argv[++i]);
    } else {
      std::fprintf(stderr, "usage: %s [--out FILE] [--floor X]\n", argv[0]);
      return 2;
    }
  }

  const std::size_t devices = fast_mode() ? 24 : 96;
  fleet::FleetSpec spec = fleet::FleetSpec::example(devices);
  spec.inferences = fast_mode() ? 2 : 4;

  const std::size_t max_lanes = runtime::default_lane_count();
  std::printf("== Fleet scaling: %zu devices x %zu inferences "
              "(IPRUNE_THREADS=%zu) ==\n\n",
              spec.total_devices(), spec.inferences, max_lanes);

  util::Table table({"Lanes", "Wall (s)", "Device steps", "Steps/s",
                     "Speedup", "Checksum"});
  util::PerfReport report;
  std::uint64_t reference_checksum = 0;
  double serial_wall = 0.0;
  bool deterministic = true;

  std::vector<std::size_t> lane_counts;
  for (std::size_t lanes = 1; lanes < max_lanes; lanes *= 2) {
    lane_counts.push_back(lanes);
  }
  lane_counts.push_back(max_lanes);

  for (const std::size_t lanes : lane_counts) {
    runtime::ThreadPool pool(lanes);
    const fleet::FleetOrchestrator orchestrator(spec);
    const auto t0 = std::chrono::steady_clock::now();
    const fleet::FleetResult result = orchestrator.run(&pool);
    const double wall = seconds_since(t0);

    if (lanes == 1) {
      reference_checksum = result.checksum;
      serial_wall = wall;
    } else if (result.checksum != reference_checksum) {
      deterministic = false;
    }

    const double steps_per_s =
        wall > 0.0 ? static_cast<double>(result.total.events) / wall : 0.0;
    char checksum_hex[24];
    std::snprintf(checksum_hex, sizeof(checksum_hex), "%016" PRIx64,
                  result.checksum);
    table.row()
        .cell(lanes)
        .cell(wall, 4)
        .cell(static_cast<std::size_t>(result.total.events))
        .cell(steps_per_s, 0)
        .cell(util::Table::format(wall > 0.0 ? serial_wall / wall : 0.0, 2) +
              "x")
        .cell(checksum_hex);

    util::PerfEntry entry;
    entry.name = "fleet_scaling_lanes" + std::to_string(lanes);
    entry.backend = spec.groups[0].backend.describe();
    entry.iters = 1;
    entry.median_ns = static_cast<std::uint64_t>(wall * 1e9);
    entry.checksum = result.checksum;
    report.add(entry);
  }

  std::printf("%s\n", table.str().c_str());

  // -- Section 2: sim-mode comparison -------------------------------------
  // Lockstep-eligible single group (deterministic schedule, perfect NVM,
  // telemetry off) so the batched path actually engages; enough
  // inferences that steady-state advance dominates stack construction.
  fleet::FleetSpec mode_spec;
  mode_spec.seed = 2026;
  mode_spec.inferences = fast_mode() ? 8 : 256;
  mode_spec.batch = 64;
  {
    fleet::DeviceGroup group;
    group.name = "cohort";
    group.count = fast_mode() ? 16 : 64;
    group.model = fleet::ModelKind::kTiny;
    group.mode = engine::PreservationMode::kImmediate;
    group.power = fleet::PowerProfile::strong();
    mode_spec.groups = {group};
  }

  std::printf("== Sim-mode comparison: %zu devices x %zu inferences, "
              "1 lane ==\n\n",
              mode_spec.total_devices(), mode_spec.inferences);
  util::Table mode_table({"Mode", "Wall (s)", "Device events", "Events/s",
                          "Speedup", "Checksum"});
  std::uint64_t mode_checksum = 0;
  double stepping_wall = 0.0;
  double batched_speedup = 0.0;
  bool modes_identical = true;
  for (const fleet::SimKind sim :
       {fleet::SimKind::kStepping, fleet::SimKind::kBatched}) {
    fleet::FleetSpec spec_for_mode = mode_spec;
    spec_for_mode.sim = sim;
    runtime::ThreadPool pool(1);
    const fleet::FleetOrchestrator orchestrator(spec_for_mode);
    (void)orchestrator.run(&pool);  // warmup (page-in, allocator steady state)
    double wall = 0.0;
    fleet::FleetResult result;
    for (int rep = 0; rep < 3; ++rep) {  // best-of-3: lane sweep noise
      const auto t0 = std::chrono::steady_clock::now();
      result = orchestrator.run(&pool);
      const double w = seconds_since(t0);
      if (rep == 0 || w < wall) {
        wall = w;
      }
    }

    if (sim == fleet::SimKind::kStepping) {
      mode_checksum = result.checksum;
      stepping_wall = wall;
    } else if (result.checksum != mode_checksum) {
      modes_identical = false;
    }
    const double speedup = wall > 0.0 ? stepping_wall / wall : 0.0;
    if (sim == fleet::SimKind::kBatched) {
      batched_speedup = speedup;
    }

    char checksum_hex[24];
    std::snprintf(checksum_hex, sizeof(checksum_hex), "%016" PRIx64,
                  result.checksum);
    mode_table.row()
        .cell(fleet::sim_kind_name(sim))
        .cell(wall, 4)
        .cell(static_cast<std::size_t>(result.total.events))
        .cell(wall > 0.0
                  ? static_cast<double>(result.total.events) / wall
                  : 0.0,
              0)
        .cell(util::Table::format(speedup, 2) + "x")
        .cell(checksum_hex);

    util::PerfEntry entry;
    entry.name = std::string("fleet_modes_") + fleet::sim_kind_name(sim);
    entry.backend = mode_spec.groups[0].backend.describe();
    entry.iters = 3;
    entry.median_ns = static_cast<std::uint64_t>(wall * 1e9);
    entry.checksum = result.checksum;
    report.add(entry);
  }
  std::printf("%s\n", mode_table.str().c_str());
  std::printf("batched device-events-per-wall-second speedup vs stepping "
              "oracle: %.2fx\n",
              batched_speedup);
  std::printf("  acceptance floor >=5x: %s; roadmap target >=10x: %s\n",
              batched_speedup >= 5.0 ? "met" : "NOT met",
              batched_speedup >= 10.0 ? "met" : "NOT met");

  std::ofstream out(out_path, std::ios::binary | std::ios::trunc);
  if (out) {
    out << report.to_json();
    std::printf("report written to %s (%zu entries)\n", out_path.c_str(),
                report.entries.size());
  } else {
    std::fprintf(stderr, "cannot write %s\n", out_path.c_str());
    return 2;
  }

  if (!deterministic) {
    std::fprintf(stderr,
                 "FAIL: fleet checksum differs across lane counts\n");
    return 1;
  }
  if (!modes_identical) {
    std::fprintf(stderr,
                 "FAIL: fleet checksum differs across sim modes\n");
    return 1;
  }
  if (floor > 0.0 && batched_speedup < floor) {
    std::fprintf(stderr,
                 "FAIL: batched speedup %.2fx below the --floor %.2fx gate\n",
                 batched_speedup, floor);
    return 1;
  }
  std::printf(
      "fleet results bit-identical across all lane counts and sim modes\n");
  return 0;
}
