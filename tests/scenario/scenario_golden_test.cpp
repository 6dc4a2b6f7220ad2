// Golden scenario library: every document under scenarios/ must parse
// canonically (the file on disk IS its canonical form), pass all of its
// checks, and reproduce a pinned FNV-1a fleet digest. The digests are the
// regression tripwire for the whole stack — supply models, outage
// schedules, integrity layer, and both sim strategies feed them.

#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <string>

#include "scenario/runner.hpp"

#ifndef IPRUNE_SCENARIO_DIR
#error "IPRUNE_SCENARIO_DIR must point at the scenarios/ library"
#endif

namespace iprune::scenario {
namespace {

struct Golden {
  const char* file;
  std::uint64_t digest;
};

// Without a printer gtest lists the case as its raw bytes, pointers
// included, so the test names would change with every process.
void PrintTo(const Golden& g, std::ostream* os) { *os << g.file; }

// Regenerate with: build/src/apps/scenario_run scenarios/<file> | head -1
constexpr Golden kGoldens[] = {
    {"baseline_strong.json", 0x501137a4a4f59d22ull},
    {"diurnal_campus.json", 0xabfd75360271eb88ull},
    {"indoor_shelf.json", 0xa1e9c5e94d59d159ull},
    {"kinetic_wearable.json", 0x5fa2000dae23deedull},
    {"mixed_fleet.json", 0x0d5436245497efd9ull},
    {"noisy_nvm.json", 0x30afe07e97ee1057ull},
    {"outage_storm.json", 0xb68ff82336c05d58ull},
    {"rf_backscatter.json", 0x6323c05b8cd6ff35ull},
    {"solar_farm.json", 0x506fbf77004734eeull},
    {"torn_write_audit.json", 0xd5b4cc3e8b8b73cfull},
};

std::string read_file(const std::string& path) {
  std::ifstream file(path);
  EXPECT_TRUE(file.good()) << "cannot open " << path;
  std::ostringstream out;
  out << file.rdbuf();
  return out.str();
}

class ScenarioGolden : public ::testing::TestWithParam<Golden> {};

TEST_P(ScenarioGolden, FileIsCanonical) {
  const std::string path =
      std::string(IPRUNE_SCENARIO_DIR) + "/" + GetParam().file;
  const std::string text = read_file(path);
  const Scenario sc = Scenario::parse(text);
  EXPECT_EQ(sc.describe(), text)
      << path << " is not in canonical form; rewrite it with "
      << "`scenario_run " << path << " --print`";
}

TEST_P(ScenarioGolden, ChecksPassAndDigestIsPinned) {
  const std::string path =
      std::string(IPRUNE_SCENARIO_DIR) + "/" + GetParam().file;
  const Scenario sc = Scenario::load(path);
  const ScenarioReport report = run_scenario(sc);
  EXPECT_TRUE(report.passed()) << report.to_string();
  EXPECT_EQ(report.digest, GetParam().digest)
      << GetParam().file << ": fleet digest drifted — an intentional "
      << "simulation change must repin this constant";
}

INSTANTIATE_TEST_SUITE_P(
    Library, ScenarioGolden, ::testing::ValuesIn(kGoldens),
    [](const ::testing::TestParamInfo<Golden>& info) {
      std::string name = info.param.file;
      for (char& c : name) {
        if (c == '.' || c == '-') {
          c = '_';
        }
      }
      return name;
    });

}  // namespace
}  // namespace iprune::scenario
