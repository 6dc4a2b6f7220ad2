// perfbench_driver: runs one benchmark workload and prints its raw report
// (one JSON line) for run.py, which owns summaries and pass/fail.
//
//   perfbench_driver --workload prune_har|fleet_harvest|fleet_cohort
//                    --seed N --seconds S --trace 0|1 [--trace-out FILE]
//
// Exit status: 0 with a report, 1 on a run error, 2 on bad usage or an
// environment the benchmark does not accept (see check_environment).

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <string>

#include "apps/workloads.hpp"
#include "report.hpp"
#include "runtime/thread_pool.hpp"

namespace {

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --workload prune_har|fleet_harvest|fleet_cohort "
               "--seed N --seconds S --trace 0|1 [--trace-out FILE]\n",
               argv0);
  return 2;
}

bool parse_u64(const char* text, std::uint64_t& out) {
  if (text == nullptr || *text < '0' || *text > '9') {
    return false;
  }
  char* end = nullptr;
  out = std::strtoull(text, &end, 10);
  return *end == '\0';
}

// Lanes are pinned to 1 by run.py (IPRUNE_THREADS=1): lane-local scratch
// counters are then exact and host timings carry no cross-lane scaling
// noise. Fast mode would silently shrink HAR into a degenerate run.
bool check_environment() {
  if (iprune::apps::fast_mode()) {
    std::fprintf(stderr, "perfbench: IPRUNE_FAST must not be set\n");
    return false;
  }
  const std::size_t lanes = iprune::runtime::ThreadPool::shared().lanes();
  if (lanes != 1) {
    std::fprintf(stderr, "perfbench: expected 1 lane, shared pool has %zu\n",
                 lanes);
    return false;
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload;
  perfbench::Options options;
  bool have_seed = false;
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    const char* value = i + 1 < argc ? argv[i + 1] : nullptr;
    std::uint64_t number = 0;
    if (std::strcmp(arg, "--workload") == 0 && value != nullptr) {
      workload = value;
    } else if (std::strcmp(arg, "--seed") == 0 && parse_u64(value, number)) {
      options.seed = number;
      have_seed = true;
    } else if (std::strcmp(arg, "--seconds") == 0 &&
               parse_u64(value, number) && number >= 1 && number <= 3600) {
      options.seconds = static_cast<double>(number);
    } else if (std::strcmp(arg, "--trace") == 0 && value != nullptr &&
               (std::strcmp(value, "0") == 0 || std::strcmp(value, "1") == 0)) {
      options.trace = value[0] == '1';
    } else if (std::strcmp(arg, "--trace-out") == 0 && value != nullptr) {
      options.trace_out = value;
    } else {
      return usage(argv[0]);
    }
    ++i;
  }
  if (!have_seed || (options.trace && options.trace_out.empty())) {
    return usage(argv[0]);
  }
  if (!check_environment()) {
    return 2;
  }

  perfbench::Report report(workload, options.seed, options.trace);
  try {
    if (workload == "prune_har") {
      perfbench::run_prune_har(options, report);
    } else if (workload == "fleet_harvest") {
      perfbench::run_fleet_harvest(options, report);
    } else if (workload == "fleet_cohort") {
      perfbench::run_fleet_cohort(options, report);
    } else {
      return usage(argv[0]);
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s failed: %s\n", workload.c_str(),
                 e.what());
    return 1;
  }
  report.value("peak_rss_mb", perfbench::peak_rss_mb());
  report.print();
  return 0;
}
