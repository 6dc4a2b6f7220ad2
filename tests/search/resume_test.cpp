// Resume pins for the crash-resumable search stack (docs/search_cache.md):
// core-level checkpoint/restore bit-identity for the annealer and the
// architecture search, then end-to-end run_search digest equality across
// fresh / resumed / torn-state legs. These are the tier-1 counterparts of
// the CI resume-smoke job, which adds a real SIGKILL.

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "core/arch_search.hpp"
#include "core/ratio_search.hpp"
#include "nn/activation.hpp"
#include "nn/dense.hpp"
#include "search/run.hpp"
#include "search/vault.hpp"
#include "support/test_dir.hpp"
#include "util/rng.hpp"

namespace iprune {
namespace {

namespace fs = std::filesystem;

// ---------------------------------------------------------------------------
// Annealer checkpoint/restore (core::AnnealHooks).

std::vector<core::LayerStats> anneal_stats() {
  std::vector<core::LayerStats> stats;
  const std::size_t weights[] = {1000, 400, 250};
  const std::size_t outputs[] = {120, 400, 80};
  const double sens[] = {0.05, 0.4, 0.15};
  for (std::size_t i = 0; i < 3; ++i) {
    core::LayerStats s;
    s.index = i;
    s.name = "layer" + std::to_string(i);
    s.alive_weights = weights[i];
    s.total_weights = weights[i];
    s.acc_outputs = outputs[i];
    s.nvm_write_bytes = outputs[i] * 2;
    s.sensitivity = sens[i];
    stats.push_back(s);
  }
  return stats;
}

TEST(AnnealResume, EveryCheckpointRestartsBitIdentically) {
  const auto stats = anneal_stats();

  core::AnnealingConfig cfg;
  cfg.iterations = 300;

  std::vector<core::AnnealCheckpoint> checkpoints;
  core::AnnealHooks hooks;
  hooks.checkpoint_stride = 60;
  hooks.on_checkpoint = [&](const core::AnnealCheckpoint& snap) {
    checkpoints.push_back(snap);
  };
  cfg.hooks = &hooks;

  util::Rng full_rng(21);
  const std::vector<double> full =
      core::IPruneAllocator(cfg).allocate(stats, 0.3, full_rng);

  ASSERT_FALSE(checkpoints.empty());
  EXPECT_EQ(checkpoints.back().step, 300u);

  // Restarting from ANY sealed checkpoint must replay the remaining steps
  // draw-for-draw: the final ratios are bit-identical (EXPECT_EQ on
  // doubles, not EXPECT_NEAR).
  for (const core::AnnealCheckpoint& snap : checkpoints) {
    core::AnnealHooks resume_hooks;
    resume_hooks.resume = snap;
    core::AnnealingConfig resume_cfg;
    resume_cfg.iterations = 300;
    resume_cfg.hooks = &resume_hooks;
    util::Rng resumed_rng(9999);  // overwritten by the checkpoint's state
    const std::vector<double> resumed =
        core::IPruneAllocator(resume_cfg).allocate(stats, 0.3, resumed_rng);
    EXPECT_EQ(resumed, full) << "diverged resuming from step " << snap.step;
  }
}

TEST(AnnealResume, HooklessRunMatchesHookedRun) {
  // Journaling must be a pure observer: wiring hooks in cannot move a
  // single RNG draw.
  const auto stats = anneal_stats();
  core::AnnealingConfig plain_cfg;
  plain_cfg.iterations = 300;
  util::Rng a(33);
  const auto plain = core::IPruneAllocator(plain_cfg).allocate(stats, 0.3, a);

  core::AnnealHooks hooks;
  hooks.checkpoint_stride = 7;  // deliberately ragged stride
  hooks.on_checkpoint = [](const core::AnnealCheckpoint&) {};
  core::AnnealingConfig hooked_cfg;
  hooked_cfg.iterations = 300;
  hooked_cfg.hooks = &hooks;
  util::Rng b(33);
  const auto hooked = core::IPruneAllocator(hooked_cfg).allocate(stats, 0.3, b);
  EXPECT_EQ(plain, hooked);
}

// ---------------------------------------------------------------------------
// Architecture-search checkpoint/restore (core::ArchSearchHooks).

struct ArchFixture {
  data::Dataset train, val;

  ArchFixture() {
    util::Rng rng(5);
    auto fill = [&](data::Dataset& d, std::size_t count) {
      d.num_classes = 2;
      d.inputs = nn::Tensor({count, 4});
      d.labels.resize(count);
      for (std::size_t i = 0; i < count; ++i) {
        const bool cls = rng.bernoulli(0.5);
        for (std::size_t k = 0; k < 4; ++k) {
          d.inputs.at(i, k) = static_cast<float>(
              (cls ? 1.0 : -1.0) * (k < 2 ? 1.0 : 0.1) + rng.normal(0, 0.3));
        }
        d.labels[i] = cls ? 1 : 0;
      }
    };
    fill(train, 120);
    fill(val, 60);
  }

  static nn::Graph build(const std::vector<std::size_t>& widths,
                         util::Rng& rng) {
    nn::Graph g({4});
    const auto h = g.add(
        std::make_unique<nn::Dense>("h", 4, widths.at(0), rng), {g.input()});
    const auto r = g.add(std::make_unique<nn::Relu>("r"), {h});
    const auto o = g.add(
        std::make_unique<nn::Dense>("o", widths.at(0), 2, rng), {r});
    g.set_output(o);
    return g;
  }

  core::ArchSearchConfig config() const {
    core::ArchSearchConfig cfg;
    cfg.min_widths = {4};
    cfg.max_widths = {24};
    cfg.evaluations = 8;
    cfg.initial_random = 3;
    cfg.batch_size = 2;
    cfg.proxy_training.epochs = 3;
    return cfg;
  }
};

void expect_same_front(const core::ArchSearchResult& a,
                       const core::ArchSearchResult& b) {
  EXPECT_EQ(a.evaluated, b.evaluated);
  EXPECT_EQ(a.infeasible, b.infeasible);
  ASSERT_EQ(a.pareto_front.size(), b.pareto_front.size());
  for (std::size_t i = 0; i < a.pareto_front.size(); ++i) {
    EXPECT_EQ(a.pareto_front[i].widths, b.pareto_front[i].widths);
    EXPECT_EQ(a.pareto_front[i].accuracy, b.pareto_front[i].accuracy);
    EXPECT_EQ(a.pareto_front[i].acc_outputs, b.pareto_front[i].acc_outputs);
  }
}

TEST(ArchResume, GenerationCheckpointRestartsBitIdentically) {
  ArchFixture f;
  core::ArchSearchConfig cfg = f.config();

  std::vector<core::ArchSearchCheckpoint> checkpoints;
  core::ArchSearchHooks hooks;
  hooks.on_generation = [&](const core::ArchSearchCheckpoint& snap) {
    checkpoints.push_back(snap);
  };
  cfg.hooks = &hooks;
  const core::ArchSearchResult full =
      core::search_architectures(&ArchFixture::build, cfg, f.train, f.val);

  ASSERT_GE(checkpoints.size(), 2u);
  EXPECT_EQ(checkpoints.back().next_evaluation, 8u);

  for (const core::ArchSearchCheckpoint& snap : checkpoints) {
    core::ArchSearchHooks resume_hooks;
    resume_hooks.resume = snap;
    core::ArchSearchConfig resume_cfg = f.config();
    resume_cfg.hooks = &resume_hooks;
    const core::ArchSearchResult resumed = core::search_architectures(
        &ArchFixture::build, resume_cfg, f.train, f.val);
    expect_same_front(full, resumed);
  }
}

TEST(ArchResume, InterceptCanReplayFromRecordedVerdicts) {
  // Candidate evaluation is a pure function of the widths (fixed init
  // seed, no shared state) — the property the content-addressed cache
  // leans on. Record every verdict, then replay the whole search answering
  // from the recording without ever invoking the real evaluator.
  ArchFixture f;

  std::map<std::vector<std::size_t>, core::ArchVerdict> recorded;
  core::ArchSearchHooks record_hooks;
  record_hooks.intercept =
      [&](const std::vector<std::size_t>& widths,
          const std::function<core::ArchVerdict()>& evaluate) {
        const core::ArchVerdict verdict = evaluate();
        recorded[widths] = verdict;
        return verdict;
      };
  core::ArchSearchConfig record_cfg = f.config();
  record_cfg.hooks = &record_hooks;
  const auto full = core::search_architectures(&ArchFixture::build,
                                               record_cfg, f.train, f.val);

  std::size_t replays = 0;
  core::ArchSearchHooks replay_hooks;
  replay_hooks.intercept =
      [&](const std::vector<std::size_t>& widths,
          const std::function<core::ArchVerdict()>&) {
        ++replays;
        const auto hit = recorded.find(widths);
        EXPECT_NE(hit, recorded.end()) << "unrecorded candidate";
        return hit->second;
      };
  core::ArchSearchConfig replay_cfg = f.config();
  replay_cfg.hooks = &replay_hooks;
  const auto replayed = core::search_architectures(&ArchFixture::build,
                                                   replay_cfg, f.train, f.val);
  EXPECT_EQ(replays, full.evaluated + full.infeasible);
  expect_same_front(full, replayed);
}

// ---------------------------------------------------------------------------
// End-to-end run_search resume pins.

struct RunSearchResume : ::testing::Test {
  std::string dir;

  void SetUp() override { dir = test::unique_test_dir(); }
  void TearDown() override { fs::remove_all(dir); }

  static search::RunConfig small_config() {
    search::RunConfig cfg;
    cfg.seed = 7;
    cfg.evaluations = 6;
    cfg.initial_random = 2;
    cfg.batch_size = 2;
    cfg.anneal_iterations = 300;
    cfg.anneal_checkpoint_stride = 100;
    return cfg;
  }
};

TEST_F(RunSearchResume, StatefulRunMatchesInMemoryRun) {
  search::RunConfig memory_cfg = small_config();
  const search::RunReport in_memory = search::run_search(memory_cfg);

  search::RunConfig stateful_cfg = small_config();
  stateful_cfg.state_dir = dir + "/state";
  const search::RunReport stateful = search::run_search(stateful_cfg);

  EXPECT_EQ(in_memory.digest, stateful.digest);
  EXPECT_EQ(in_memory.sensitivities, stateful.sensitivities);
  EXPECT_EQ(in_memory.ratios, stateful.ratios);
}

TEST_F(RunSearchResume, ResumeAfterCompletionIsFullyCached) {
  search::RunConfig cfg = small_config();
  cfg.state_dir = dir + "/state";
  const search::RunReport fresh = search::run_search(cfg);
  EXPECT_FALSE(fresh.resumed_anneal);
  EXPECT_FALSE(fresh.resumed_arch);
  EXPECT_GT(fresh.cache.misses, 0u);

  cfg.resume = true;
  const search::RunReport resumed = search::run_search(cfg);
  EXPECT_EQ(resumed.digest, fresh.digest);
  EXPECT_EQ(resumed.sensitivities, fresh.sensitivities);
  EXPECT_EQ(resumed.ratios, fresh.ratios);
  EXPECT_TRUE(resumed.resumed_anneal);
  EXPECT_TRUE(resumed.resumed_arch);
  // Every evaluation the fresh leg performed answers from the vault.
  EXPECT_EQ(resumed.vault_records, fresh.cache.misses);
  EXPECT_EQ(resumed.cache.misses, 0u);
  EXPECT_DOUBLE_EQ(resumed.cache.hit_rate(), 1.0);
}

TEST_F(RunSearchResume, TornStateStillConvergesToTheSameDigest) {
  search::RunConfig cfg = small_config();
  cfg.state_dir = dir + "/state";
  const search::RunReport fresh = search::run_search(cfg);

  // Forge a crash mid-arch-search: tear the vault mid-record (the scrub
  // must drop the torn tail) and destroy the arch journal entirely (the
  // replay path must still reach the same trajectory from the cache).
  const std::string vault_path = cfg.state_dir + "/eval_cache.bin";
  {
    std::ifstream in(vault_path, std::ios::binary);
    std::ostringstream buf;
    buf << in.rdbuf();
    std::string bytes = buf.str();
    ASSERT_GT(bytes.size(), 2 * search::CacheVault::kRecordBytes);
    bytes.resize(bytes.size() - 3 * search::CacheVault::kRecordBytes / 2);
    std::ofstream out(vault_path, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  }
  fs::remove(cfg.state_dir + "/arch.a");
  fs::remove(cfg.state_dir + "/arch.b");

  cfg.resume = true;
  const search::RunReport resumed = search::run_search(cfg);
  EXPECT_EQ(resumed.digest, fresh.digest);
  EXPECT_TRUE(resumed.resumed_anneal);
  EXPECT_FALSE(resumed.resumed_arch);  // journal gone -> replay from zero
  EXPECT_GT(resumed.cache.hits, 0u);   // the salvaged prefix still answers
  EXPECT_GT(resumed.cache.misses, 0u);  // the torn records re-evaluate
}

TEST_F(RunSearchResume, MismatchedJournalsAreIgnored) {
  search::RunConfig cfg = small_config();
  cfg.state_dir = dir + "/state";
  (void)search::run_search(cfg);

  // Same state dir, different run configuration: journals and cached keys
  // must not leak across configurations.
  search::RunConfig other = small_config();
  other.seed = 8;
  other.state_dir = cfg.state_dir;
  other.resume = true;
  const search::RunReport crossed = search::run_search(other);
  EXPECT_FALSE(crossed.resumed_anneal);
  EXPECT_FALSE(crossed.resumed_arch);

  search::RunConfig clean = small_config();
  clean.seed = 8;
  const search::RunReport reference = search::run_search(clean);
  EXPECT_EQ(crossed.digest, reference.digest);
  // No cross-configuration hits: the stale seed-7 vault answers nothing,
  // so the hit/miss pattern matches a run with no prior state at all
  // (intra-run duplicate candidates may still hit — in both runs equally).
  EXPECT_EQ(crossed.cache.hits, reference.cache.hits);
  EXPECT_EQ(crossed.cache.misses, reference.cache.misses);
}

}  // namespace
}  // namespace iprune
