#pragma once
// Per-test scratch directories for fixtures that write files.
//
// ctest runs every gtest case as its own process, several at once. A
// fixture that reuses one fixed directory under ::testing::TempDir()
// therefore races with its siblings: one test's TearDown deletes the
// directory another test is still writing into. unique_test_dir() names
// the directory from the running suite, the test name and the pid, so no
// two test processes ever share one.

#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <filesystem>
#include <string>

namespace iprune::test {

/// Create an empty directory under ::testing::TempDir() unique to the
/// running test and process, and return its path. The caller removes it
/// (fixtures do so in TearDown).
inline std::string unique_test_dir() {
  const ::testing::TestInfo* info =
      ::testing::UnitTest::GetInstance()->current_test_info();
  std::string name = std::string(info->test_suite_name()) + "." +
                     info->name() + "." + std::to_string(::getpid());
  // Parameterized suites and tests carry '/' in their names.
  std::replace(name.begin(), name.end(), '/', '_');
  const std::filesystem::path dir =
      std::filesystem::path(::testing::TempDir()) / name;
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir.string();
}

}  // namespace iprune::test
