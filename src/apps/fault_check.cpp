// fault_check: differential crash-consistency checking under forced
// power failures and injected NVM corruption.
//
// Usage: fault_check [--smoke] [--random N] [--seed S] [--repro TOKEN]
//                    [--corrupt] [--scrub-only]
//   (no args)    exhaustive write-boundary sweep + 200 random schedules,
//                both preservation modes, on the tiny testbed model
//   --smoke      reduced sweep for CI gating (exhaustive kImmediate sweep
//                + 24 random schedules per mode; with --corrupt, a strided
//                torn-commit sweep)
//   --random N   number of seeded-random schedules per mode
//   --seed S     base seed for the random schedules (default 2023)
//   --repro T    replay one repro token printed by a failing run, e.g.
//                  fault_check --repro 'mode=immediate;schedule=fixed:3,17'
//   --corrupt    NVM data-integrity suite: torn-commit sweeps, bit-error
//                rates, and stuck-at cells replayed with the integrity
//                layer armed, plus an unprotected baseline demonstrating
//                the silent escapes the layer exists to stop
//   --scrub-only self-test of the seal/scrub machinery: deploy a sealed
//                model, verify a clean scrub, corrupt one weight cell,
//                verify the scrub detects it
//
// Exit status (crash-consistency modes): 0 only when every schedule is
// bit-identical to the golden run; on failure the first divergence is
// minimized (ddmin over the realized outages) and printed as a replayable
// repro line.
//
// Exit status (--corrupt / --scrub-only), designed for CI gating with
// `test $? -le 1`:
//   0  every protected scenario was consistent (no corruption detected)
//   1  corruption occurred but was always detected and/or recovered
//   2  silent corruption escaped (or an unrecovered crash) with the
//      integrity layer armed

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <exception>
#include <string>
#include <vector>

#include "apps/cli_args.hpp"
#include "engine/deploy.hpp"
#include "fault/checker.hpp"
#include "fault/injector.hpp"
#include "fault/integrity.hpp"
#include "fault/testbed.hpp"
#include "power/supply.hpp"
#include "util/log.hpp"

namespace {

using namespace iprune;
using apps::parse_u64_arg;

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s [--smoke] [--random N] [--seed S] "
               "[--repro TOKEN] [--corrupt] [--scrub-only]\n",
               argv0);
  return 2;
}

struct Workbench {
  util::Rng rng{2023};
  nn::Graph graph;
  nn::Tensor calibration;
  nn::Tensor sample;
  fault::ConsistencyChecker checker;

  Workbench()
      : graph(fault::make_tiny_graph(rng)),
        calibration(fault::make_batch(rng, graph, 8)),
        sample(fault::slice_sample(calibration, 0)),
        checker(graph, calibration) {}
};

/// Replay one "mode=<m>;schedule=<s>" token; returns the process status.
int run_repro(Workbench& bench, const std::string& token) {
  const std::string mode_key = "mode=";
  const std::string sched_key = ";schedule=";
  const std::size_t sched_at = token.find(sched_key);
  if (token.rfind(mode_key, 0) != 0 || sched_at == std::string::npos) {
    std::fprintf(stderr,
                 "malformed repro token (want mode=<m>;schedule=<s>): %s\n",
                 token.c_str());
    return 2;
  }
  const engine::PreservationMode mode = fault::parse_preservation_mode(
      token.substr(mode_key.size(), sched_at - mode_key.size()));
  const fault::OutageSchedule schedule =
      fault::OutageSchedule::parse(token.substr(sched_at + sched_key.size()));

  const fault::ScheduleOutcome outcome =
      bench.checker.check(bench.sample, schedule, mode);
  std::printf("%s\n", outcome.to_string().c_str());
  return outcome.passed ? 0 : 1;
}

/// Check a batch, print a summary line, and on failure print the
/// minimized repro. Returns the number of failures.
std::size_t run_batch(Workbench& bench, const char* label,
                      const std::vector<fault::OutageSchedule>& schedules,
                      engine::PreservationMode mode) {
  const fault::CheckReport report =
      bench.checker.check_schedules(bench.sample, schedules, mode);
  std::printf("%-26s mode=%-9s %4zu schedules  %4zu failed\n", label,
              fault::preservation_mode_name(mode), report.outcomes.size(),
              report.failed());
  if (const fault::ScheduleOutcome* fail = report.first_failure()) {
    const fault::ScheduleOutcome minimized =
        bench.checker.shrink(bench.sample, *fail);
    std::printf("  first failure : %s\n", fail->to_string().c_str());
    std::printf("  minimized     : %s\n", minimized.to_string().c_str());
    std::printf("  replay with   : fault_check --repro '%s'\n",
                minimized.repro().c_str());
  }
  return report.failed();
}

/// Check one scenario batch, print its verdict histogram, and print the
/// first silent/crashed outcome in full. Returns the batch exit code
/// (0 consistent / 1 contained / 2 escaped).
int run_integrity_batch(const fault::IntegrityChecker& checker,
                        Workbench& bench, const char* label,
                        const std::vector<fault::CorruptionScenario>& batch,
                        engine::PreservationMode mode, bool protect) {
  using fault::IntegrityVerdict;
  const fault::IntegrityReport report =
      checker.check_scenarios(bench.sample, batch, mode, protect);
  std::printf(
      "%-26s mode=%-9s %-11s %4zu scenarios: "
      "%zu consistent %zu recovered %zu detected %zu silent %zu crashed\n",
      label, fault::preservation_mode_name(mode),
      protect ? "protected" : "unprotected", report.outcomes.size(),
      report.count(IntegrityVerdict::kConsistent),
      report.count(IntegrityVerdict::kRecovered),
      report.count(IntegrityVerdict::kDetected),
      report.count(IntegrityVerdict::kSilent),
      report.count(IntegrityVerdict::kCrashed));
  const fault::ScenarioOutcome* bad = report.first(IntegrityVerdict::kSilent);
  if (bad == nullptr) {
    bad = report.first(IntegrityVerdict::kCrashed);
  }
  if (bad != nullptr) {
    std::printf("  first escape  : %s\n", bad->to_string().c_str());
  }
  return report.exit_code();
}

/// NVM data-integrity suite (--corrupt). The protected batches gate the
/// exit code; the unprotected baseline demonstrates the silent escapes
/// the integrity layer exists to stop and is informational only.
int run_corrupt(Workbench& bench, bool smoke) {
  using engine::PreservationMode;
  const fault::IntegrityChecker checker(bench.graph, bench.calibration);

  const std::uint64_t boundaries = checker.count_write_boundaries(
      bench.sample, PreservationMode::kImmediate, /*protect=*/true);
  const std::uint64_t stride = smoke ? 7 : 1;
  const std::vector<fault::CorruptionScenario> torn =
      fault::IntegrityChecker::torn_commit_sweep(boundaries, stride,
                                                 {1, 2, 3, 5});

  std::vector<fault::CorruptionScenario> faults;
  {
    // Persistent cell fault inside a sealed BSR region: invisible to the
    // dataflow (the accelerator model reads host-side weights), so only
    // the boot scrub can catch it. row_ptr[0] is always 0, so forcing
    // its MSB guarantees a real storage change.
    fault::CorruptionScenario s;
    s.label = "stuck-bit(bsr)";
    s.stuck.push_back({".bsr_rowptr", /*offset=*/0, /*bit=*/7, true});
    faults.push_back(s);
  }
  {
    // Transient read noise confined to the progress records while
    // outages force recovery re-reads.
    fault::CorruptionScenario s;
    s.label = "read-noise(progress)";
    s.seed = 7;
    s.read_ber = 0.02;
    s.window_region = "progress";
    s.schedule = fault::OutageSchedule::every_nth(97, 8);
    faults.push_back(s);
  }

  int exit_code = 0;
  exit_code = std::max(
      exit_code, run_integrity_batch(checker, bench, "torn-commit sweep",
                                     torn, PreservationMode::kImmediate,
                                     /*protect=*/true));
  if (!smoke) {
    exit_code = std::max(
        exit_code, run_integrity_batch(checker, bench, "torn-commit sweep",
                                       torn, PreservationMode::kTaskAtomic,
                                       /*protect=*/true));
  }
  exit_code = std::max(
      exit_code, run_integrity_batch(checker, bench, "data faults", faults,
                                     PreservationMode::kImmediate,
                                     /*protect=*/true));

  const int baseline = run_integrity_batch(
      checker, bench, "baseline (no integrity)", torn,
      PreservationMode::kImmediate, /*protect=*/false);
  if (baseline >= 2) {
    std::printf("baseline escapes confirm the threat model "
                "(not counted against the exit code)\n");
  }

  if (exit_code == 0) {
    std::printf("OK (0): every protected scenario consistent\n");
  } else if (exit_code == 1) {
    std::printf(
        "OK (1): corruption always detected and/or recovered; protected "
        "logits stayed bit-identical to the golden run\n");
  } else {
    std::printf("FAIL (2): corruption escaped the integrity layer\n");
  }
  return exit_code;
}

/// Seal/scrub self-test (--scrub-only): a sealed deployment must scrub
/// clean, and flipping one bit in a sealed region must be detected.
int run_scrub_only(Workbench& bench) {
  engine::EngineConfig ecfg;
  ecfg.integrity.protect_progress = true;
  ecfg.integrity.seal_regions = true;
  ecfg.integrity.scrub_on_boot = true;
  device::Msp430Device device(device::DeviceConfig::msp430fr5994(),
                              power::SupplyPresets::continuous(), {});
  nn::Graph graph = bench.graph.clone();
  engine::DeployedModel model(graph, ecfg, device, bench.calibration);

  const std::vector<std::string> clean = model.scrub_errors(device.nvm());
  if (!clean.empty()) {
    std::printf("FAIL (2): fresh deployment failed scrub: %s\n",
                clean.front().c_str());
    return 2;
  }
  std::printf("scrub clean: %zu sealed regions verified\n",
              model.sealed_regions());

  const engine::DeployedModel::Region* target = nullptr;
  for (const auto& r : model.regions()) {
    if (r.sealed) {
      target = &r;
      break;
    }
  }
  if (target == nullptr) {
    std::printf("FAIL (2): no sealed regions deployed\n");
    return 2;
  }
  const std::uint8_t flipped[1] = {
      static_cast<std::uint8_t>(device.nvm().peek(target->begin) ^ 0x10)};
  device.nvm().write(target->begin, flipped);
  const std::vector<std::string> dirty = model.scrub_errors(device.nvm());
  for (const std::string& label : dirty) {
    if (label == target->label) {
      std::printf("OK (1): injected bit-flip in '%s' detected by scrub\n",
                  target->label.c_str());
      return 1;
    }
  }
  std::printf("FAIL (2): bit-flip in '%s' escaped the scrub\n",
              target->label.c_str());
  return 2;
}

std::vector<fault::OutageSchedule> random_schedules(std::size_t count,
                                                    std::uint64_t base_seed) {
  std::vector<fault::OutageSchedule> schedules;
  schedules.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    // Mix of densities; max_outages keeps the densest runs bounded.
    const double p = 0.002 + 0.05 * static_cast<double>(i % 7) / 6.0;
    schedules.push_back(
        fault::OutageSchedule::random(base_seed + i, p, 64));
  }
  return schedules;
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  bool corrupt = false;
  bool scrub_only = false;
  std::size_t random_count = 200;
  std::uint64_t seed = 2023;
  std::string repro;

  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
    } else if (std::strcmp(argv[i], "--corrupt") == 0) {
      corrupt = true;
    } else if (std::strcmp(argv[i], "--scrub-only") == 0) {
      scrub_only = true;
    } else if (std::strcmp(argv[i], "--random") == 0 && i + 1 < argc) {
      random_count = static_cast<std::size_t>(
          parse_u64_arg(argv[0], "--random", argv[++i]));
    } else if (std::strcmp(argv[i], "--seed") == 0 && i + 1 < argc) {
      seed = parse_u64_arg(argv[0], "--seed", argv[++i]);
    } else if (std::strcmp(argv[i], "--repro") == 0 && i + 1 < argc) {
      repro = argv[++i];
    } else {
      return usage(argv[0]);
    }
  }

  Workbench bench;
  if (!repro.empty()) {
    return run_repro(bench, repro);
  }
  if (scrub_only) {
    return run_scrub_only(bench);
  }
  if (corrupt) {
    return run_corrupt(bench, smoke);
  }
  if (smoke) {
    random_count = 24;
  }

  using engine::PreservationMode;
  std::size_t failures = 0;

  const auto writes_imm = bench.checker.exhaustive_write_schedules(
      bench.sample, PreservationMode::kImmediate);
  failures += run_batch(bench, "exhaustive write sweep", writes_imm,
                        PreservationMode::kImmediate);
  if (!smoke) {
    const auto writes_task = bench.checker.exhaustive_write_schedules(
        bench.sample, PreservationMode::kTaskAtomic);
    failures += run_batch(bench, "exhaustive write sweep", writes_task,
                          PreservationMode::kTaskAtomic);
  }

  const auto randoms = random_schedules(random_count, seed);
  failures += run_batch(bench, "random schedules", randoms,
                        PreservationMode::kImmediate);
  failures += run_batch(bench, "random schedules", randoms,
                        PreservationMode::kTaskAtomic);

  if (failures != 0) {
    std::printf("FAIL: %zu schedule(s) violated crash consistency\n",
                failures);
    return 1;
  }
  std::printf("OK: all schedules bit-identical to the golden run\n");
  return 0;
}
