// scenario_fuzz: seeded random-scenario campaign over the differential
// oracles.
//
// Generates `--count` random valid scenarios from `--seed` (scenario i is
// a pure function of (seed, i) — reproducible across machines and lane
// counts), runs each through scenario::run_scenario, and for every
// failing scenario ddmin-shrinks the document to a minimal one that still
// fails, writing it to `--out` as repro_<name>.json. Replay a repro with
// `scenario_run <file>`.
//
// Exit status: 0 no scenario failed, 1 failures found (repros written),
// 2 usage errors.

#include <cstdio>
#include <cstring>
#include <exception>
#include <filesystem>
#include <fstream>
#include <string>

#include "apps/cli_args.hpp"
#include "scenario/fuzz.hpp"
#include "scenario/runner.hpp"
#include "util/atomic_write.hpp"

namespace {

using iprune::apps::parse_u64_arg;

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s [--seed S] [--count N] [--out DIR] "
               "[--max-shrink N] [--verbose]\n",
               argv0);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace iprune;

  std::uint64_t seed = 1;
  std::uint64_t count = 100;
  std::size_t max_shrink = 64;
  std::string out_dir = "artifacts/scenario";
  bool verbose = false;

  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    const auto value = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "%s: %s needs a value\n", argv[0], arg);
        std::exit(2);
      }
      return argv[++i];
    };
    if (std::strcmp(arg, "--seed") == 0) {
      seed = parse_u64_arg(argv[0], arg, value());
    } else if (std::strcmp(arg, "--count") == 0) {
      count = parse_u64_arg(argv[0], arg, value());
    } else if (std::strcmp(arg, "--max-shrink") == 0) {
      max_shrink =
          static_cast<std::size_t>(parse_u64_arg(argv[0], arg, value()));
    } else if (std::strcmp(arg, "--out") == 0) {
      out_dir = value();
    } else if (std::strcmp(arg, "--verbose") == 0) {
      verbose = true;
    } else {
      return usage(argv[0]);
    }
  }

  scenario::FuzzConfig config;
  config.seed = seed;

  scenario::RunOptions options;
  options.shrink = false;  // the scenario-level shrinker owns minimization

  std::size_t failures = 0;
  for (std::uint64_t i = 0; i < count; ++i) {
    const scenario::Scenario sc = scenario::random_scenario(config, i);
    const scenario::ScenarioReport report =
        scenario::run_scenario(sc, options);
    if (verbose || !report.passed()) {
      std::fputs(report.to_string().c_str(), stdout);
    }
    if (report.passed()) {
      continue;
    }
    ++failures;

    const auto still_fails = [&](const scenario::Scenario& candidate) {
      return !scenario::run_scenario(candidate, options).passed();
    };
    const scenario::Scenario shrunk =
        scenario::shrink_scenario(sc, still_fails, max_shrink);

    std::error_code ec;
    std::filesystem::create_directories(out_dir, ec);
    const std::string repro_path =
        out_dir + "/repro_" + shrunk.name + ".json";
    // Atomic: an interrupted campaign never leaves a torn repro document.
    if (!util::atomic_write(repro_path, shrunk.describe())) {
      std::fprintf(stderr, "scenario_fuzz: cannot write %s\n",
                   repro_path.c_str());
    }
    std::printf("  shrunk to %zu schema field(s): %s\n",
                shrunk.schema_fields(), repro_path.c_str());
    std::printf("  replay with: scenario_run %s\n", repro_path.c_str());
  }

  std::printf("scenario_fuzz: seed %llu, %llu scenario(s), %zu failure(s)\n",
              static_cast<unsigned long long>(seed),
              static_cast<unsigned long long>(count), failures);
  return failures == 0 ? 0 : 1;
}
