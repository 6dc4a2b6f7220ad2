#include "util/atomic_write.hpp"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>

#include "support/test_dir.hpp"

namespace iprune::util {
namespace {

namespace fs = std::filesystem;

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

struct AtomicWriteTest : ::testing::Test {
  std::string dir;

  void SetUp() override { dir = test::unique_test_dir(); }
  void TearDown() override { fs::remove_all(dir); }
};

TEST_F(AtomicWriteTest, CreatesFileWithExactBytes) {
  const std::string path = dir + "/fresh.txt";
  const std::string payload("line1\nline2\n\0binary ok", 22);
  ASSERT_TRUE(atomic_write(path, payload));
  EXPECT_EQ(slurp(path), payload);
}

TEST_F(AtomicWriteTest, ReplacesExistingContentCompletely) {
  const std::string path = dir + "/replace.txt";
  ASSERT_TRUE(atomic_write(path, "a much longer original payload"));
  ASSERT_TRUE(atomic_write(path, "short"));
  // Full replacement, never an in-place partial overwrite.
  EXPECT_EQ(slurp(path), "short");
}

TEST_F(AtomicWriteTest, LeavesNoTempFileBehind) {
  const std::string path = dir + "/clean.txt";
  ASSERT_TRUE(atomic_write(path, "payload"));
  std::size_t entries = 0;
  for (const auto& entry : fs::directory_iterator(dir)) {
    (void)entry;
    ++entries;
  }
  EXPECT_EQ(entries, 1u);
}

TEST_F(AtomicWriteTest, FailsCleanlyWhenDirectoryMissing) {
  const std::string path = dir + "/no/such/dir/file.txt";
  EXPECT_FALSE(atomic_write(path, "payload"));
  EXPECT_FALSE(fs::exists(dir + "/no"));
}

TEST_F(AtomicWriteTest, OrThrowNamesTheCallerAndPath) {
  const std::string path = dir + "/missing/file.txt";
  try {
    atomic_write_or_throw(path, "x", "gateway");
    FAIL() << "expected std::runtime_error";
  } catch (const std::runtime_error& error) {
    const std::string what = error.what();
    EXPECT_NE(what.find("gateway"), std::string::npos) << what;
    EXPECT_NE(what.find(path), std::string::npos) << what;
  }
}

TEST_F(AtomicWriteTest, EmptyPayloadTruncates) {
  const std::string path = dir + "/empty.txt";
  ASSERT_TRUE(atomic_write(path, "not empty"));
  ASSERT_TRUE(atomic_write(path, ""));
  EXPECT_EQ(slurp(path), "");
}

}  // namespace
}  // namespace iprune::util
