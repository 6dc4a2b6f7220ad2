// fleet_run: simulate a fleet of intermittently-powered devices.
//
// Drives fleet::FleetOrchestrator over a FleetSpec (a --spec file or the
// built-in heterogeneous example), exports metrics through the chosen
// gateways, and prints a per-group summary. Output is deterministic for a
// fixed spec — independent of IPRUNE_THREADS — which CI checks by
// comparing gateway files across lane counts.
//
// Exit status: 0 success, 1 at least one device failed or reported an
// integrity verdict other than consistent/recovered, 2 usage/spec errors.

#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <string>

#include "apps/cli_args.hpp"
#include "fleet/orchestrator.hpp"

namespace {

using iprune::apps::parse_u64_arg;

int usage(const char* argv0) {
  std::fprintf(
      stderr,
      "usage: %s [options]\n"
      "  --devices N          scale the fleet to N devices (default: spec "
      "counts)\n"
      "  --spec FILE          fleet spec file (default: built-in example)\n"
      "  --seed S             override the fleet seed\n"
      "  --smoke              smoke mode: 1 inference per device, no "
      "deadline\n"
      "  --out DIR            gateway output directory (default "
      "artifacts/fleet)\n"
      "  --gateway KIND       null | csv | prom | all (default all)\n"
      "  --sim KIND           stepping | batched (default: spec)\n"
      "  --print-spec         print the resolved spec and exit\n",
      argv0);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace iprune;

  std::size_t devices = 0;
  bool have_devices = false;
  std::string spec_path;
  std::uint64_t seed = 0;
  bool have_seed = false;
  bool smoke = false;
  std::string out_dir = "artifacts/fleet";
  std::string gateway_kind = "all";
  std::string sim_kind;
  bool print_spec = false;

  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    const auto value = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "%s: %s needs a value\n", argv[0], arg);
        std::exit(2);
      }
      return argv[++i];
    };
    if (std::strcmp(arg, "--devices") == 0) {
      devices =
          static_cast<std::size_t>(parse_u64_arg(argv[0], arg, value()));
      have_devices = true;
    } else if (std::strcmp(arg, "--spec") == 0) {
      spec_path = value();
    } else if (std::strcmp(arg, "--seed") == 0) {
      seed = parse_u64_arg(argv[0], arg, value());
      have_seed = true;
    } else if (std::strcmp(arg, "--smoke") == 0) {
      smoke = true;
    } else if (std::strcmp(arg, "--out") == 0) {
      out_dir = value();
    } else if (std::strcmp(arg, "--gateway") == 0) {
      gateway_kind = value();
    } else if (std::strcmp(arg, "--sim") == 0) {
      sim_kind = value();
    } else if (std::strcmp(arg, "--print-spec") == 0) {
      print_spec = true;
    } else {
      return usage(argv[0]);
    }
  }
  if (have_devices && devices == 0) {
    std::fprintf(stderr, "%s: --devices must be >= 1\n", argv[0]);
    return 2;
  }

  try {
    fleet::FleetSpec spec =
        !spec_path.empty()
            ? fleet::FleetSpec::load(spec_path)
            : fleet::FleetSpec::example(have_devices ? devices : 10);
    if (!spec_path.empty() && have_devices) {
      // Strict rescale: silently dropping a group scaled to zero devices
      // would simulate a different fleet than the spec describes.
      spec = fleet::rescale_strict(spec, devices);
    }
    if (have_seed) {
      spec.seed = seed;
    }
    if (smoke) {
      spec.inferences = 1;
      spec.deadline_s = 0.0;
    }
    if (!sim_kind.empty()) {
      spec.sim = fleet::parse_sim_kind(sim_kind);
    }
    // Post-flag validation: CLI overrides mutate the parsed spec, so the
    // parse-time range checks alone no longer cover what actually runs.
    spec.validate();
    if (print_spec) {
      std::fputs(spec.describe().c_str(), stdout);
      return 0;
    }

    fleet::MultiGateway gateway = fleet::make_gateway(gateway_kind, out_dir);
    const fleet::FleetOrchestrator orchestrator(spec);
    const fleet::FleetResult result = orchestrator.run(nullptr, &gateway);

    std::printf(
        "%-10s %8s %10s %9s %7s %11s %9s %11s\n", "group", "devices",
        "completed", "missed", "failed", "inferences", "outages", "events");
    const auto print_group = [](const fleet::GroupStats& g) {
      std::printf("%-10s %8zu %10zu %9zu %7zu %11" PRIu64 " %9" PRIu64
                  " %11" PRIu64 "\n",
                  g.name.c_str(), g.devices, g.completed, g.deadline_missed,
                  g.failed, g.inferences, g.power_failures, g.events);
    };
    for (const fleet::GroupStats& group : result.groups) {
      print_group(group);
    }
    print_group(result.total);
    if (result.total.compromised > 0) {
      std::printf("integrity: %zu device(s) compromised\n",
                  result.total.compromised);
    }
    std::printf(
        "energy: harvested %.6g J, consumed %.6g J, wasted %.6g J\n"
        "latency p50 %.6g us, p95 %.6g us, max %.6g us\n"
        "fleet checksum %016" PRIx64 "\n",
        result.total.harvested_j, result.total.consumed_j,
        result.total.wasted_j, result.total.latency_us.quantile(0.5),
        result.total.latency_us.quantile(0.95), result.total.latency_us.max(),
        result.checksum);
    if (gateway_kind != "null") {
      std::printf("gateway: %s\n", gateway.describe().c_str());
    }
    return result.total.failed == 0 && result.total.compromised == 0 ? 0
                                                                      : 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "%s: %s\n", argv[0], e.what());
    return 2;
  }
}
