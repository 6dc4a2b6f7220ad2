// search_run: crash-resumable search demo driver (docs/search_cache.md).
//
// Runs the three-stage search pipeline (sensitivity -> annealed ratios ->
// architecture search) with every candidate evaluation content-addressed
// into a CRC-sealed on-disk vault and every long-running stage journaled.
// Kill the process at any point, re-run with --resume, and the final
// digest is bit-identical to an uninterrupted run — the CI resume-smoke
// job does exactly that with SIGKILL.
//
// Exit status: 0 success (all assertions held), 1 an assertion failed
// (--min-hit-rate / --expect-digest), 2 usage or runtime errors.

#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <limits>
#include <string>

#include "apps/cli_args.hpp"
#include "search/run.hpp"
#include "util/atomic_write.hpp"

namespace {

int usage(const char* argv0) {
  std::fprintf(
      stderr,
      "usage: %s [options]\n"
      "  --seed N             search seed (default 77)\n"
      "  --evals N            architecture-search evaluations (default 12)\n"
      "  --batch N            evaluations per generation (default 4)\n"
      "  --anneal-iters N     annealing steps (default 2000)\n"
      "  --anneal-stride N    annealing journal stride (default 200)\n"
      "  --state DIR          vault + journal directory (default none:\n"
      "                       fully in-memory, no crash resume)\n"
      "  --resume             restore vault + journals from --state\n"
      "  --eval-delay-ms N    slow each uncached evaluation by N ms\n"
      "                       (stretches the CI kill window)\n"
      "  --digest-out FILE    write the final digest (hex + newline)\n"
      "  --min-hit-rate F     fail (exit 1) if this leg's cache hit rate\n"
      "                       is below F in [0,1]\n"
      "  --expect-digest HEX  fail (exit 1) on digest mismatch\n",
      argv0);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace iprune;

  search::RunConfig config;
  std::string digest_out;
  double min_hit_rate = -1.0;
  std::string expect_digest;

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
      config.seed = apps::parse_u64_arg(argv[0], arg, value());
    } else if (std::strcmp(arg, "--evals") == 0) {
      config.evaluations = apps::parse_u64_arg(argv[0], arg, value());
    } else if (std::strcmp(arg, "--batch") == 0) {
      config.batch_size = apps::parse_u64_arg(argv[0], arg, value());
    } else if (std::strcmp(arg, "--anneal-iters") == 0) {
      config.anneal_iterations = apps::parse_u64_arg(argv[0], arg, value());
    } else if (std::strcmp(arg, "--anneal-stride") == 0) {
      config.anneal_checkpoint_stride =
          apps::parse_u64_arg(argv[0], arg, value());
    } else if (std::strcmp(arg, "--state") == 0) {
      config.state_dir = value();
    } else if (std::strcmp(arg, "--resume") == 0) {
      config.resume = true;
    } else if (std::strcmp(arg, "--eval-delay-ms") == 0) {
      config.eval_delay_ms = static_cast<int>(apps::parse_u64_arg(
          argv[0], arg, value(), std::numeric_limits<int>::max()));
    } else if (std::strcmp(arg, "--digest-out") == 0) {
      digest_out = value();
    } else if (std::strcmp(arg, "--min-hit-rate") == 0) {
      min_hit_rate = apps::parse_fraction_arg(argv[0], arg, value());
    } else if (std::strcmp(arg, "--expect-digest") == 0) {
      expect_digest = value();
    } else {
      return usage(argv[0]);
    }
  }
  if (config.resume && config.state_dir.empty()) {
    std::fprintf(stderr, "%s: --resume requires --state DIR\n", argv[0]);
    return 2;
  }

  try {
    const search::RunReport report = search::run_search(config);

    char digest_hex[20];
    std::snprintf(digest_hex, sizeof(digest_hex), "%016" PRIx64,
                  report.digest);
    std::printf("digest %s\n", digest_hex);
    std::printf("pareto %zu evaluated %zu infeasible %zu\n",
                report.arch.pareto_front.size(), report.arch.evaluated,
                report.arch.infeasible);
    std::printf("cache hits %" PRIu64 " misses %" PRIu64
                " hit-rate %.3f vault-records %zu\n",
                report.cache.hits, report.cache.misses,
                report.cache.hit_rate(), report.vault_records);
    std::printf("resumed anneal=%d arch=%d\n", report.resumed_anneal ? 1 : 0,
                report.resumed_arch ? 1 : 0);

    if (!digest_out.empty()) {
      util::atomic_write_or_throw(digest_out,
                                  std::string(digest_hex) + "\n",
                                  "search_run");
    }

    bool failed = false;
    if (min_hit_rate >= 0.0 && report.cache.hit_rate() < min_hit_rate) {
      std::fprintf(stderr,
                   "search_run: FAIL cache hit rate %.3f < required %.3f\n",
                   report.cache.hit_rate(), min_hit_rate);
      failed = true;
    }
    if (!expect_digest.empty() && expect_digest != digest_hex) {
      std::fprintf(stderr, "search_run: FAIL digest %s != expected %s\n",
                   digest_hex, expect_digest.c_str());
      failed = true;
    }
    return failed ? 1 : 0;
  } catch (const std::exception& error) {
    std::fprintf(stderr, "search_run: %s\n", error.what());
    return 2;
  }
}
