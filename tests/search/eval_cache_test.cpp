#include "search/eval_cache.hpp"

#include <gtest/gtest.h>

#include <filesystem>
#include <memory>

#include "device/config.hpp"
#include "nn/dense.hpp"
#include "search/eval_key.hpp"
#include "search/vault.hpp"
#include "support/test_dir.hpp"
#include "util/rng.hpp"

namespace iprune::search {
namespace {

namespace fs = std::filesystem;

EvalKey key_of(std::uint64_t a, std::uint64_t b) { return {a, b}; }

TEST(EvalKey, HexIs32LowercaseDigits) {
  const EvalKey key{0x0123456789abcdefull, 0xfedcba9876543210ull};
  EXPECT_EQ(key.hex(), "0123456789abcdeffedcba9876543210");
  EXPECT_EQ(EvalKey{}.hex(),
            "0000000000000000""0000000000000000");
}

TEST(KeyHasher, SameFoldsSameKey) {
  KeyHasher a, b;
  a.str("stage");
  a.u64(7);
  a.f64(0.25);
  b.str("stage");
  b.u64(7);
  b.f64(0.25);
  EXPECT_EQ(a.key(), b.key());
}

TEST(KeyHasher, FoldOrderMatters) {
  KeyHasher a, b;
  a.u64(1);
  a.u64(2);
  b.u64(2);
  b.u64(1);
  EXPECT_FALSE(a.key() == b.key());
}

TEST(KeyHasher, StringLengthPrefixPreventsConcatenationCollisions) {
  KeyHasher a, b;
  a.str("ab");
  a.str("c");
  b.str("a");
  b.str("bc");
  EXPECT_FALSE(a.key() == b.key());
}

TEST(KeyHasher, BothStreamsAreIndependent) {
  // A single folded byte must move both 64-bit words; otherwise the key
  // is effectively 64-bit.
  KeyHasher a, b;
  a.u8(0);
  b.u8(1);
  const EvalKey ka = a.key();
  const EvalKey kb = b.key();
  EXPECT_NE(ka.hi, kb.hi);
  EXPECT_NE(ka.lo, kb.lo);
}

TEST(FoldGraph, MaskChangeChangesTheKey) {
  util::Rng rng(3);
  auto build = [&]() {
    nn::Graph g({4});
    util::Rng init(3);
    g.add(std::make_unique<nn::Dense>("fc", 4, 3, init), {g.input()});
    return g;
  };
  nn::Graph base = build();
  nn::Graph pruned = build();

  KeyHasher ha, hb;
  fold_graph(ha, base);
  // Prune one weight: mask and weight both flip; the key must move.
  auto params = pruned.params();
  ASSERT_FALSE(params.empty());
  ASSERT_NE(params[0].mask, nullptr);
  params[0].mask->data()[0] = 0.0f;
  params[0].value->data()[0] = 0.0f;
  fold_graph(hb, pruned);
  EXPECT_FALSE(ha.key() == hb.key());
}

TEST(FoldEngineConfig, EveryPricedKnobMoves) {
  const engine::EngineConfig base;
  const device::MemoryConfig memory;
  KeyHasher ha;
  fold_engine_config(ha, base, memory);

  engine::EngineConfig tweaked = base;
  tweaked.block_rows = base.block_rows + 1;
  KeyHasher hb;
  fold_engine_config(hb, tweaked, memory);
  EXPECT_FALSE(ha.key() == hb.key());

  device::MemoryConfig small = memory;
  small.vm_bytes /= 2;
  KeyHasher hc;
  fold_engine_config(hc, base, small);
  EXPECT_FALSE(ha.key() == hc.key());
}

TEST(DatasetFingerprint, SensitiveToSamplesAndLabels) {
  nn::Tensor x({2, 3});
  std::vector<int> y = {0, 1};
  const std::uint64_t base = dataset_fingerprint(x, y);

  nn::Tensor x2 = x;
  x2.data()[0] = 1.0f;
  EXPECT_NE(dataset_fingerprint(x2, y), base);

  std::vector<int> y2 = {1, 1};
  EXPECT_NE(dataset_fingerprint(x, y2), base);
}

TEST(EvalCache, MissThenHitWithStats) {
  EvalCache cache;
  EXPECT_FALSE(cache.lookup(key_of(1, 2)).has_value());
  EvalValue value;
  value.accuracy = 0.75;
  value.aux0 = 9;
  cache.insert(key_of(1, 2), value);
  const auto hit = cache.lookup(key_of(1, 2));
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(*hit, value);

  const CacheStats stats = cache.stats();
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.inserts, 1u);
  EXPECT_DOUBLE_EQ(stats.hit_rate(), 0.5);
  EXPECT_EQ(cache.size(), 1u);
}

TEST(EvalCache, DuplicateInsertKeepsFirstValue) {
  EvalCache cache;
  EvalValue first;
  first.accuracy = 0.5;
  EvalValue second;
  second.accuracy = 0.9;
  cache.insert(key_of(3, 4), first);
  cache.insert(key_of(3, 4), second);
  EXPECT_EQ(cache.stats().inserts, 1u);
  EXPECT_DOUBLE_EQ(cache.lookup(key_of(3, 4))->accuracy, 0.5);
}

TEST(EvalCache, WriteThroughVaultSurvivesReopen) {
  const std::string dir = test::unique_test_dir();
  const std::string path = dir + "/vault.bin";

  {
    CacheVault vault;
    vault.open(path);
    EvalCache cache(&vault);
    EvalValue value;
    value.accuracy = 0.875;
    value.latency_us = 123.5;
    value.checksum = 0xC0FFEE;
    cache.insert(key_of(7, 8), value);
  }

  CacheVault vault;
  const VaultScrub scrub = vault.open(path);
  EXPECT_EQ(scrub.records, 1u);
  EXPECT_EQ(scrub.dropped_bytes, 0u);
  EvalCache cache(&vault);
  const auto hit = cache.lookup(key_of(7, 8));
  ASSERT_TRUE(hit.has_value());
  EXPECT_DOUBLE_EQ(hit->accuracy, 0.875);
  EXPECT_DOUBLE_EQ(hit->latency_us, 123.5);
  EXPECT_EQ(hit->checksum, 0xC0FFEEu);
  fs::remove_all(dir);
}

}  // namespace
}  // namespace iprune::search
