// scenario_run: run one declarative scenario through the differential
// oracles.
//
// Loads a scenario JSON document (docs/scenarios.md), simulates its fleet
// under every requested sim strategy, and asserts the scenario's checks
// (sim-digest equality, lane determinism, crash consistency, integrity
// containment). Gateways observe the reference run only — the first sim
// kind — so the exported metrics are the oracle's.
//
// Exit status: 0 every check passed, 1 at least one check failed, 2
// usage/parse/validation errors.

#include <cstdio>
#include <cstring>
#include <exception>
#include <memory>
#include <string>

#include "scenario/runner.hpp"

namespace {

int usage(const char* argv0) {
  std::fprintf(
      stderr,
      "usage: %s FILE [options]\n"
      "  --sim KIND           stepping | batched | all —\n"
      "                       override the scenario's sim list\n"
      "  --gateway KIND       null | csv | prom | all (default null)\n"
      "  --out DIR            gateway output directory (default "
      "artifacts/scenario)\n"
      "  --print              print the canonical form and exit\n",
      argv0);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace iprune;

  std::string path;
  std::string sim_kind;
  std::string gateway_kind = "null";
  std::string out_dir = "artifacts/scenario";
  bool print = false;

  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    const auto value = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "%s: %s needs a value\n", argv[0], arg);
        std::exit(2);
      }
      return argv[++i];
    };
    if (std::strcmp(arg, "--sim") == 0) {
      sim_kind = value();
    } else if (std::strcmp(arg, "--gateway") == 0) {
      gateway_kind = value();
    } else if (std::strcmp(arg, "--out") == 0) {
      out_dir = value();
    } else if (std::strcmp(arg, "--print") == 0) {
      print = true;
    } else if (arg[0] == '-') {
      return usage(argv[0]);
    } else if (path.empty()) {
      path = arg;
    } else {
      return usage(argv[0]);
    }
  }
  if (path.empty()) {
    return usage(argv[0]);
  }

  try {
    scenario::Scenario sc = scenario::Scenario::load(path);
    if (!sim_kind.empty()) {
      if (sim_kind == "all") {
        sc.sims.clear();
      } else {
        sc.sims = {fleet::parse_sim_kind(sim_kind)};
      }
    }
    if (print) {
      std::fputs(sc.describe().c_str(), stdout);
      return 0;
    }

    fleet::MultiGateway gateway;
    if (gateway_kind == "csv" || gateway_kind == "all") {
      gateway.add_owned(std::make_unique<fleet::CsvGateway>(out_dir));
    }
    if (gateway_kind == "prom" || gateway_kind == "all") {
      gateway.add_owned(std::make_unique<fleet::PrometheusGateway>(
          out_dir + "/fleet_metrics.prom"));
    }
    if (gateway_kind != "null" && gateway_kind != "csv" &&
        gateway_kind != "prom" && gateway_kind != "all") {
      std::fprintf(stderr, "%s: unknown gateway '%s'\n", argv[0],
                   gateway_kind.c_str());
      return 2;
    }

    scenario::RunOptions options;
    if (gateway_kind != "null") {
      options.gateway = &gateway;
    }
    const scenario::ScenarioReport report =
        scenario::run_scenario(sc, options);
    std::fputs(report.to_string().c_str(), stdout);
    if (gateway_kind != "null") {
      std::printf("gateway: %s\n", gateway.describe().c_str());
    }
    return report.exit_code();
  } catch (const std::exception& e) {
    std::fprintf(stderr, "%s: %s\n", argv[0], e.what());
    return 2;
  }
}
