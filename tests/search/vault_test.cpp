#include "search/vault.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "support/test_dir.hpp"

namespace iprune::search {
namespace {

namespace fs = std::filesystem;

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

void spill(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

EvalValue value_of(double accuracy, std::uint64_t aux) {
  EvalValue value;
  value.accuracy = accuracy;
  value.aux0 = aux;
  return value;
}

struct VaultTest : ::testing::Test {
  std::string dir;

  void SetUp() override { dir = test::unique_test_dir(); }
  void TearDown() override { fs::remove_all(dir); }

  std::string vault_path() const { return dir + "/cache.vault"; }

  /// Write `count` sealed records and close the vault.
  void seed_vault(std::size_t count) {
    CacheVault vault;
    vault.open(vault_path());
    for (std::size_t i = 0; i < count; ++i) {
      vault.append({i + 1, i + 100}, value_of(0.5 + 0.01 * double(i), i));
    }
  }
};

TEST_F(VaultTest, FreshFileOpensEmptyAndWritesHeader) {
  CacheVault vault;
  const VaultScrub scrub = vault.open(vault_path());
  EXPECT_EQ(scrub.records, 0u);
  EXPECT_EQ(scrub.dropped_bytes, 0u);
  EXPECT_TRUE(scrub.rewrote_header);
  EXPECT_TRUE(vault.is_open());
  EXPECT_TRUE(fs::exists(vault_path()));
}

TEST_F(VaultTest, AppendedRecordsRoundTrip) {
  seed_vault(5);
  CacheVault vault;
  const VaultScrub scrub = vault.open(vault_path());
  EXPECT_EQ(scrub.records, 5u);
  EXPECT_EQ(scrub.dropped_bytes, 0u);
  EXPECT_FALSE(scrub.rewrote_header);
  ASSERT_EQ(vault.records().size(), 5u);
  for (std::size_t i = 0; i < 5; ++i) {
    EXPECT_EQ(vault.records()[i].key, (EvalKey{i + 1, i + 100}));
    EXPECT_DOUBLE_EQ(vault.records()[i].value.accuracy, 0.5 + 0.01 * double(i));
    EXPECT_EQ(vault.records()[i].value.aux0, i);
  }
}

TEST_F(VaultTest, TruncatedTailRecordIsScrubbedCleanly) {
  seed_vault(4);
  // Simulate a crash mid-append: chop the final record in half.
  std::string bytes = slurp(vault_path());
  const std::size_t torn = CacheVault::kRecordBytes / 2;
  bytes.resize(bytes.size() - torn);
  spill(vault_path(), bytes);

  CacheVault vault;
  const VaultScrub scrub = vault.open(vault_path());
  EXPECT_EQ(scrub.records, 3u);
  EXPECT_EQ(scrub.dropped_bytes, CacheVault::kRecordBytes - torn);
  // The file itself was rewritten to the valid prefix: a second open sees
  // a clean log and appends land after record 3.
  vault.append({99, 99}, value_of(0.9, 99));
  vault.close();

  CacheVault reopened;
  const VaultScrub rescrub = reopened.open(vault_path());
  EXPECT_EQ(rescrub.records, 4u);
  EXPECT_EQ(rescrub.dropped_bytes, 0u);
  EXPECT_EQ(reopened.records().back().key, (EvalKey{99, 99}));
}

TEST_F(VaultTest, BitFlippedRecordTruncatesFromThatRecordOn) {
  seed_vault(6);
  std::string bytes = slurp(vault_path());
  // Flip one payload bit inside record index 2 (0-based): CRC must catch it
  // and the scrub must drop records 2..5, keeping 0..1.
  const std::size_t header = bytes.size() - 6 * CacheVault::kRecordBytes;
  const std::size_t victim = header + 2 * CacheVault::kRecordBytes + 10;
  bytes[victim] = static_cast<char>(bytes[victim] ^ 0x40);
  spill(vault_path(), bytes);

  CacheVault vault;
  const VaultScrub scrub = vault.open(vault_path());
  EXPECT_EQ(scrub.records, 2u);
  EXPECT_EQ(scrub.dropped_bytes, 4 * CacheVault::kRecordBytes);
  ASSERT_EQ(vault.records().size(), 2u);
  EXPECT_EQ(vault.records()[1].key, (EvalKey{2, 101}));
}

TEST_F(VaultTest, GarbageHeaderIsRecreatedEmpty) {
  spill(vault_path(), "definitely not a vault file, but long enough to scan");
  CacheVault vault;
  const VaultScrub scrub = vault.open(vault_path());
  EXPECT_EQ(scrub.records, 0u);
  EXPECT_TRUE(scrub.rewrote_header);
  // Usable immediately after recovery.
  vault.append({1, 2}, value_of(0.7, 0));
  vault.close();
  CacheVault reopened;
  EXPECT_EQ(reopened.open(vault_path()).records, 1u);
}

TEST_F(VaultTest, CorruptionNeverThrows) {
  // A pile of hostile inputs — every one must scrub, not throw.
  const std::vector<std::string> hostile = {
      "",                      // empty file
      "I",                     // shorter than the magic
      std::string(1, '\0'),    // single NUL
      std::string(4096, 'x'),  // big garbage blob
  };
  for (std::size_t i = 0; i < hostile.size(); ++i) {
    const std::string path = dir + "/hostile" + std::to_string(i);
    spill(path, hostile[i]);
    CacheVault vault;
    EXPECT_NO_THROW((void)vault.open(path)) << "input " << i;
    EXPECT_TRUE(vault.is_open()) << "input " << i;
  }
}

TEST_F(VaultTest, SnapshotSlotsRoundTripAndAlternate) {
  SnapshotSlots slots(dir + "/journal");
  const std::vector<std::uint8_t> first = {1, 2, 3};
  const std::vector<std::uint8_t> second = {9, 8, 7, 6};
  slots.store(0, first);
  slots.store(1, second);
  EXPECT_TRUE(fs::exists(slots.slot_path(0)));
  EXPECT_TRUE(fs::exists(slots.slot_path(1)));

  const auto snapshot = slots.load();
  ASSERT_TRUE(snapshot.has_value());
  EXPECT_EQ(snapshot->seq, 1u);
  EXPECT_EQ(snapshot->payload, second);
}

TEST_F(VaultTest, StaleSlotSurvivesCorruptionOfTheNewerOne) {
  SnapshotSlots slots(dir + "/journal");
  const std::vector<std::uint8_t> old_payload = {4, 4, 4};
  const std::vector<std::uint8_t> new_payload = {5, 5, 5, 5};
  slots.store(6, old_payload);  // slot 0
  slots.store(7, new_payload);  // slot 1

  // Corrupt the newer slot as a torn write would: flip a payload byte.
  std::string bytes = slurp(slots.slot_path(1));
  bytes[bytes.size() / 2] =
      static_cast<char>(bytes[bytes.size() / 2] ^ 0x01);
  spill(slots.slot_path(1), bytes);

  const auto snapshot = slots.load();
  ASSERT_TRUE(snapshot.has_value());
  EXPECT_EQ(snapshot->seq, 6u);  // fell back to the stale-but-sealed slot
  EXPECT_EQ(snapshot->payload, old_payload);
}

TEST_F(VaultTest, BothSlotsCorruptMeansFreshStart) {
  SnapshotSlots slots(dir + "/journal");
  slots.store(0, {1});
  slots.store(1, {2});
  spill(slots.slot_path(0), "junk");
  spill(slots.slot_path(1), "more junk");
  EXPECT_FALSE(slots.load().has_value());
}

TEST_F(VaultTest, MissingSlotsLoadAsNullopt) {
  SnapshotSlots slots(dir + "/never_written");
  EXPECT_FALSE(slots.load().has_value());
}

TEST_F(VaultTest, TruncatedSnapshotIsRejected) {
  SnapshotSlots slots(dir + "/journal");
  const std::vector<std::uint8_t> payload(100, 0xAB);
  slots.store(2, payload);
  std::string bytes = slurp(slots.slot_path(0));
  bytes.resize(bytes.size() / 2);
  spill(slots.slot_path(0), bytes);
  EXPECT_FALSE(slots.load().has_value());
}

}  // namespace
}  // namespace iprune::search
