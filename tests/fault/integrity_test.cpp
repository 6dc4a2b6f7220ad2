// Differential NVM data-integrity suite: with the integrity layer armed,
// every torn-write / bit-flip / stuck-cell scenario must end consistent,
// recovered, or fail-stopped (never silent); with the layer disarmed the
// same faults demonstrably escape — wrong logits with a clean exit — or
// crash the consistency contract. Plus the zero-corruption overhead
// assertion: arming the layer on a fault-free run adds exactly the
// record-widening bytes, and scrubbing adds exactly the sealed-region
// reads.

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "device/msp430.hpp"
#include "engine/deploy.hpp"
#include "engine/engine.hpp"
#include "fault/checker.hpp"
#include "fault/testbed.hpp"
#include "power/supply.hpp"

namespace iprune::fault {
namespace {

using engine::PreservationMode;

class IntegritySuite : public ::testing::Test {
 protected:
  void SetUp() override {
    util::Rng rng(2023);
    graph_ = std::make_unique<nn::Graph>(make_tiny_graph(rng));
    calib_ = make_batch(rng, *graph_, 8);
    sample_ = slice_sample(calib_, 0);
    checker_ = std::make_unique<Checker>(*graph_, calib_);
  }

  /// Tears every `stride`-th write boundary of a clean run in `mode`; a
  /// sweep built from another mode's boundaries would aim past the end of
  /// the run and inject nothing.
  std::vector<CorruptionScenario> torn_sweep(PreservationMode mode,
                                             std::uint64_t stride) const {
    return Checker::torn_commit_sweep(
        checker_->count_write_boundaries(sample_, mode), stride, {1, 3});
  }

  /// Every scenario of a torn sweep must actually lose power.
  static void expect_every_outage_fired(const IntegrityReport& report) {
    for (const ScenarioOutcome& outcome : report.outcomes) {
      EXPECT_GE(outcome.power_failures, 1u) << outcome.to_string();
    }
  }

  std::unique_ptr<nn::Graph> graph_;
  nn::Tensor calib_;
  nn::Tensor sample_;
  std::unique_ptr<Checker> checker_;
};

// The tentpole guarantee: under protection, every torn-commit schedule in
// the sweep produces logits bit-identical to the golden run (verdicts
// kConsistent/kRecovered only — a tear that loses the progress record
// rolls back and re-executes).
TEST_F(IntegritySuite, ProtectedTornSweepIsBitIdenticalToGolden) {
  const auto sweep = torn_sweep(PreservationMode::kImmediate, /*stride=*/5);
  ASSERT_GT(sweep.size(), 10u);
  const IntegrityReport report = checker_->check_scenarios(
      sample_, sweep, PreservationMode::kImmediate, /*protect=*/true);
  ASSERT_EQ(report.outcomes.size(), sweep.size());
  expect_every_outage_fired(report);
  EXPECT_EQ(report.count(IntegrityVerdict::kSilent), 0u)
      << report.first(IntegrityVerdict::kSilent)->to_string();
  EXPECT_EQ(report.count(IntegrityVerdict::kCrashed), 0u)
      << report.first(IntegrityVerdict::kCrashed)->to_string();
  EXPECT_EQ(report.count(IntegrityVerdict::kDetected), 0u)
      << "torn commits must recover, not fail-stop";
  EXPECT_LE(report.exit_code(), 1);
  // The sweep must actually exercise the rollback path.
  EXPECT_GT(report.count(IntegrityVerdict::kRecovered), 0u);
}

// kTaskAtomic commits once per task, so it has few write boundaries:
// tear every one of them.
TEST_F(IntegritySuite, ProtectedTornSweepSurvivesTaskAtomicMode) {
  const auto sweep = torn_sweep(PreservationMode::kTaskAtomic, /*stride=*/1);
  ASSERT_GT(sweep.size(), 10u);
  const IntegrityReport report = checker_->check_scenarios(
      sample_, sweep, PreservationMode::kTaskAtomic, /*protect=*/true);
  ASSERT_EQ(report.outcomes.size(), sweep.size());
  expect_every_outage_fired(report);
  EXPECT_EQ(report.count(IntegrityVerdict::kSilent), 0u);
  EXPECT_EQ(report.count(IntegrityVerdict::kCrashed), 0u);
  EXPECT_LE(report.exit_code(), 1);
}

// With protection disabled the very same sweep must demonstrate at least
// one silent-data-corruption escape — wrong logits, clean completion —
// proving the checker can catch what the CRC layer prevents.
TEST_F(IntegritySuite, UnprotectedTornSweepEscapesSilently) {
  const auto sweep = torn_sweep(PreservationMode::kImmediate, /*stride=*/5);
  const IntegrityReport report = checker_->check_scenarios(
      sample_, sweep, PreservationMode::kImmediate, /*protect=*/false);
  ASSERT_EQ(report.outcomes.size(), sweep.size());
  expect_every_outage_fired(report);
  EXPECT_GT(report.count(IntegrityVerdict::kSilent) +
                report.count(IntegrityVerdict::kCrashed),
            0u)
      << "torn commits should break the unprotected contract";
  EXPECT_GE(report.count(IntegrityVerdict::kSilent), 1u)
      << "expected at least one silent escape (wrong logits, clean exit)";
  EXPECT_EQ(report.exit_code(), 2);
}

// A stuck cell inside a sealed BSR region: invisible to the dataflow (the
// accelerator reads host-side weights), so only the boot scrub can catch
// it. row_ptr[0] is always 0, so forcing its MSB guarantees the stored
// byte differs from the sealed content.
TEST_F(IntegritySuite, StuckWeightCellIsDetectedByBootScrub) {
  CorruptionScenario s;
  s.label = "stuck(bsr_rowptr)";
  s.stuck.push_back({".bsr_rowptr", /*offset=*/0, /*bit=*/7, true});

  const ScenarioOutcome armed = checker_->check(
      sample_, s, PreservationMode::kImmediate, /*protect=*/true);
  EXPECT_EQ(armed.verdict, IntegrityVerdict::kDetected) << armed.to_string();
  EXPECT_NE(armed.detail.find("scrub"), std::string::npos) << armed.detail;

  // Unprotected: the corruption is latent — the run completes with
  // correct logits because the engine never reads those cells, and
  // nothing ever notices the NVM image is bad. Exactly why the scrub
  // exists.
  const ScenarioOutcome disarmed = checker_->check(
      sample_, s, PreservationMode::kImmediate, /*protect=*/false);
  EXPECT_EQ(disarmed.verdict, IntegrityVerdict::kConsistent)
      << disarmed.to_string();
  EXPECT_GT(disarmed.stuck_hits, 0u);
}

// A stuck cell in an activation buffer corrupts the dataflow itself.
// Without protection this is the canonical silent escape. (Activations
// are not sealed — docs/nvm_integrity.md documents the gap.)
TEST_F(IntegritySuite, StuckActivationCellEscapesSilentlyWhenUnprotected) {
  CorruptionScenario s;
  s.label = "stuck(input act)";
  // Force the high byte of input element 0 to a large value.
  s.stuck.push_back({".ofm", /*offset=*/1, /*bit=*/6, true});
  s.stuck.push_back({".ofm", /*offset=*/1, /*bit=*/3, true});
  s.stuck.push_back({".ofm", /*offset=*/0, /*bit=*/0, true});

  const ScenarioOutcome outcome = checker_->check(
      sample_, s, PreservationMode::kImmediate, /*protect=*/false);
  EXPECT_EQ(outcome.verdict, IntegrityVerdict::kSilent)
      << outcome.to_string();
  EXPECT_GT(outcome.stuck_hits, 0u);
}

// Transient read noise confined to the progress records while outages
// force recovery re-reads: the CRC layer must contain it (roll back,
// re-read, or fail-stop) — never silently diverge.
TEST_F(IntegritySuite, ProgressReadNoiseIsContainedUnderProtection) {
  CorruptionScenario s;
  s.label = "read-noise(progress)";
  s.seed = 7;
  s.read_ber = 0.05;
  s.window_region = "progress";
  s.schedule = OutageSchedule::every_nth(61, 6);

  const ScenarioOutcome outcome = checker_->check(
      sample_, s, PreservationMode::kImmediate, /*protect=*/true);
  EXPECT_NE(outcome.verdict, IntegrityVerdict::kSilent)
      << outcome.to_string();
  EXPECT_NE(outcome.verdict, IntegrityVerdict::kCrashed)
      << outcome.to_string();
  EXPECT_GT(outcome.read_flips, 0u);
}

TEST_F(IntegritySuite, UnknownRegionSpecThrows) {
  CorruptionScenario s;
  s.label = "bad region";
  s.window_region = "no-such-region";
  s.read_ber = 0.01;
  EXPECT_THROW((void)checker_->check(sample_, s,
                                     PreservationMode::kImmediate, true),
               std::invalid_argument);
}

TEST(IntegrityReportTest, ExitCodeMapping) {
  const auto outcome = [](IntegrityVerdict v) {
    ScenarioOutcome o;
    o.verdict = v;
    return o;
  };
  IntegrityReport all_clean;
  all_clean.outcomes = {outcome(IntegrityVerdict::kConsistent)};
  EXPECT_EQ(all_clean.exit_code(), 0);

  IntegrityReport contained;
  contained.outcomes = {outcome(IntegrityVerdict::kConsistent),
                        outcome(IntegrityVerdict::kRecovered),
                        outcome(IntegrityVerdict::kDetected)};
  EXPECT_EQ(contained.exit_code(), 1);
  EXPECT_EQ(contained.count(IntegrityVerdict::kRecovered), 1u);
  EXPECT_EQ(contained.first(IntegrityVerdict::kDetected)->verdict,
            IntegrityVerdict::kDetected);
  EXPECT_EQ(contained.first(IntegrityVerdict::kSilent), nullptr);

  IntegrityReport escaped;
  escaped.outcomes = {outcome(IntegrityVerdict::kRecovered),
                      outcome(IntegrityVerdict::kSilent)};
  EXPECT_EQ(escaped.exit_code(), 2);

  IntegrityReport crashed;
  crashed.outcomes = {outcome(IntegrityVerdict::kCrashed)};
  EXPECT_EQ(crashed.exit_code(), 2);
}

// --- zero-corruption overhead ---

struct OverheadRun {
  std::vector<float> logits;
  engine::InferenceStats stats;
  device::DeviceStats device;
  std::size_t sealed_bytes = 0;  // sum of sealed region payloads
  std::size_t sealed_regions = 0;
};

OverheadRun run_clean(const engine::IntegrityConfig& integrity) {
  util::Rng rng(2023);
  nn::Graph graph = make_tiny_graph(rng);
  const nn::Tensor calib = make_batch(rng, graph, 8);
  const nn::Tensor sample = slice_sample(calib, 0);

  device::Msp430Device device(device::DeviceConfig::msp430fr5994(),
                              power::SupplyPresets::continuous(), {});
  engine::EngineConfig ecfg;
  ecfg.mode = PreservationMode::kImmediate;
  ecfg.integrity = integrity;
  engine::DeployedModel model(graph, ecfg, device, calib);
  engine::IntermittentEngine eng(model, device);

  OverheadRun run;
  const engine::InferenceResult result = eng.run(sample);
  run.logits = result.logits;
  run.stats = result.stats;
  run.device = device.stats();
  for (const auto& r : model.regions()) {
    if (r.sealed) {
      run.sealed_bytes += r.bytes;
      ++run.sealed_regions;
    }
  }
  return run;
}

// Arming the integrity layer on a fault-free run must not change the
// logits and must add NO NVM traffic beyond the documented protocol
// bytes: +2 per commit (6-byte record vs 4-byte counter), +4 at the
// progress init (two records vs one counter), and — only when scrubbing —
// one boot read of each sealed region plus its 2-byte checksum word.
TEST(IntegrityOverhead, ZeroCorruptionConfigsAddOnlyTheChecksumBytes) {
  const OverheadRun base = run_clean({});  // integrity off

  engine::IntegrityConfig protect_only;
  protect_only.protect_progress = true;
  const OverheadRun prot = run_clean(protect_only);

  EXPECT_EQ(prot.logits, base.logits);
  EXPECT_EQ(prot.stats.preserved_outputs, base.stats.preserved_outputs);
  EXPECT_EQ(prot.stats.power_failures, 0u);
  EXPECT_EQ(prot.stats.integrity_rollbacks, 0u);

  const std::size_t commits = base.stats.preserved_outputs;
  EXPECT_EQ(prot.device.nvm_bytes_written,
            base.device.nvm_bytes_written + 2 * commits + 4);
  EXPECT_EQ(prot.device.nvm_bytes_read, base.device.nvm_bytes_read);

  engine::IntegrityConfig full;
  full.protect_progress = true;
  full.seal_regions = true;
  full.scrub_on_boot = true;
  const OverheadRun sealed = run_clean(full);

  EXPECT_EQ(sealed.logits, base.logits);
  EXPECT_GT(sealed.sealed_regions, 0u);
  EXPECT_EQ(sealed.stats.scrub_failures, 0u);
  EXPECT_EQ(sealed.device.nvm_bytes_written,
            prot.device.nvm_bytes_written);
  EXPECT_EQ(sealed.device.nvm_bytes_read,
            base.device.nvm_bytes_read + sealed.sealed_bytes +
                2 * sealed.sealed_regions);
}

}  // namespace
}  // namespace iprune::fault
