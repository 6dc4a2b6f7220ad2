// Fleet workloads: fleet_harvest (the fleet_run default mix plus torn-write
// sealed devices, stepping) and fleet_cohort (one lockstep-eligible group
// in 64-wide batched cohorts).
//
// Untraced runs time whole FleetOrchestrator::run passes. Traced runs add
// one pass driven unit by unit (DeviceSim or run_cohort, grouped by the
// orchestrator's cohort rule) with a span around every call, and require
// it to reproduce the orchestrator's digest and event total.

#include <algorithm>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "fleet/batched_sim.hpp"
#include "fleet/device_sim.hpp"
#include "fleet/orchestrator.hpp"
#include "report.hpp"
#include "util/hash.hpp"
#include "util/scratch_pool.hpp"

namespace perfbench {
namespace {

using iprune::fleet::DeviceGroup;
using iprune::fleet::DeviceResult;
using iprune::fleet::DeviceSpec;
using iprune::fleet::FleetOrchestrator;
using iprune::fleet::FleetResult;
using iprune::fleet::FleetSpec;
using iprune::fleet::SimKind;

constexpr std::size_t kDevices = 512;
constexpr std::size_t kInferences = 32;
constexpr std::size_t kMinPasses = 3;
// Set-up repetitions take this share of the timed passes' host time.
constexpr double kSetupShare = 0.1;
constexpr double kSetupBlockS = 0.005;

// FleetSpec::example's groups at their registered weights, plus the
// `sealed` group of scenarios/mixed_fleet.json.
std::string harvest_spec(std::uint64_t seed) {
  FleetSpec spec = FleetSpec::example(12);
  spec.groups.push_back(DeviceGroup::parse(
      "name=sealed count=2 model=multipath schedule=fixed:120;torn=keep:2 "
      "integrity=on"));
  spec = spec.with_devices(kDevices);
  spec.seed = seed;
  spec.inferences = kInferences;
  spec.sim = SimKind::kStepping;
  return spec.describe();
}

std::string cohort_spec(std::uint64_t seed) {
  FleetSpec spec;
  spec.groups.push_back(DeviceGroup::parse(
      "name=cohort count=1 model=tiny mode=immediate supply=strong"));
  spec = spec.with_devices(kDevices);
  spec.seed = seed;
  spec.inferences = kInferences;
  spec.sim = SimKind::kBatched;
  return spec.describe();
}

struct Setup {
  FleetSpec spec;
  std::vector<DeviceSpec> devices;
  std::unique_ptr<iprune::runtime::ThreadPool> pool;
  std::unique_ptr<FleetOrchestrator> orchestrator;
};

Setup set_up(const std::string& text) {
  Setup s;
  s.spec = FleetSpec::parse(text);
  s.devices = s.spec.resolve();
  s.pool = std::make_unique<iprune::runtime::ThreadPool>(1);
  s.orchestrator = std::make_unique<FleetOrchestrator>(s.spec);
  return s;
}

// Devices that did not finish every inference cleanly (failed, compromised
// and deadline-missed devices never count as completed).
std::uint64_t incomplete(const FleetResult& r) {
  return r.total.devices - r.total.completed;
}

struct Unit {
  std::size_t begin;
  std::size_t count;
};

// FleetOrchestrator::run's partition: within each batch window, under
// sim=batched, runs of consecutive same-group lockstep-eligible devices
// (at most kMaxCohort) form one cohort; every other device is its own unit.
std::vector<Unit> work_units(const FleetSpec& spec,
                             const std::vector<DeviceSpec>& devices) {
  std::vector<Unit> units;
  const std::size_t batch = std::max<std::size_t>(spec.batch, 1);
  for (std::size_t begin = 0; begin < devices.size(); begin += batch) {
    const std::size_t end = std::min(devices.size(), begin + batch);
    for (std::size_t i = begin; i < end;) {
      std::size_t j = i + 1;
      if (spec.sim == SimKind::kBatched &&
          iprune::fleet::batched_eligible(devices[i])) {
        while (j < end && j - i < iprune::fleet::kMaxCohort &&
               devices[j].group == devices[i].group &&
               iprune::fleet::batched_eligible(devices[j])) {
          ++j;
        }
      }
      units.push_back({i, j - i});
      i = j;
    }
  }
  return units;
}

// The orchestrator's per-device digest fold, in device-index order.
void fold_device(iprune::util::Fnv1a& digest, const DeviceResult& r) {
  digest.fold_u64(r.index);
  digest.fold_u64(r.logits_checksum);
  digest.fold_u64(r.inferences_done);
  digest.fold_u64(r.events);
  digest.fold_u64(r.power_failures);
  digest.fold_u64((r.completed ? 1u : 0u) | (r.deadline_missed ? 2u : 0u) |
                  (r.failed ? 4u : 0u));
}

struct TracedPass {
  double seconds = 0.0;
  std::uint64_t digest = 0;
  std::uint64_t incomplete = 0;
  std::uint64_t events = 0;
  std::uint64_t nvm_read_bytes = 0;
  std::uint64_t nvm_write_bytes = 0;
  std::uint64_t macs = 0;
  std::uint64_t reexecuted_jobs = 0;
  std::uint64_t integrity_rollbacks = 0;
  std::uint64_t power_failures = 0;
  std::uint64_t injected_outages = 0;
  double off_s = 0.0;
  double wasted_j = 0.0;
  std::size_t cohort_devices = 0;
  std::size_t single_devices = 0;
  std::vector<double> device_step_us;  // per single device, summed steps
};

TracedPass traced_pass(const Setup& s, Tracer& tracer) {
  TracedPass pass;
  iprune::util::Fnv1a digest;
  const auto take = [&](const DeviceResult& r) {
    fold_device(digest, r);
    pass.incomplete += r.completed ? 0 : 1;
    pass.events += r.events;
    pass.nvm_read_bytes += r.nvm_bytes_read;
    pass.nvm_write_bytes += r.nvm_bytes_written;
    pass.macs += r.macs;
    pass.reexecuted_jobs += r.reexecuted_jobs;
    pass.integrity_rollbacks += r.integrity_rollbacks;
    pass.power_failures += r.power_failures;
    pass.injected_outages += r.injected_outages;
    pass.off_s += r.off_s;
    pass.wasted_j += r.wasted_j;
  };
  const double start = now_s();
  {
    const Tracer::Scope root(tracer, "fleet.pass");
    for (const Unit& unit : work_units(s.spec, s.devices)) {
      if (unit.count >= 2) {
        std::vector<DeviceResult> results;
        {
          const Tracer::Scope span(tracer, "fleet.cohort");
          results = iprune::fleet::run_cohort(
              std::span(s.devices.data() + unit.begin, unit.count));
        }
        pass.cohort_devices += unit.count;
        for (const DeviceResult& r : results) {
          take(r);
        }
        continue;
      }
      const Tracer::Scope device(tracer, "fleet.device");
      std::unique_ptr<iprune::fleet::DeviceSim> sim;
      {
        const Tracer::Scope span(tracer, "fleet.device_build");
        sim = std::make_unique<iprune::fleet::DeviceSim>(
            s.devices[unit.begin]);
      }
      const double step_start = now_s();
      bool active = true;
      while (active) {
        const Tracer::Scope span(tracer, "fleet.device_step");
        active = sim->step();
      }
      pass.device_step_us.push_back(since(step_start) * 1e6);
      DeviceResult result;
      {
        const Tracer::Scope span(tracer, "fleet.device_finish");
        result = sim->finish();
      }
      ++pass.single_devices;
      take(result);
    }
  }
  pass.seconds = since(start);
  pass.digest = digest.value();
  return pass;
}

void run_fleet(const std::string& text, const Options& options,
               Report& report) {
  // Host speed is sampled before the first pass and after every pass; a
  // pass reports the mean of the samples on either side, a set-up block
  // the sample right before it.
  HostSpeed host;
  double speed = 0.0;

  // Set-up: spec parse, resolve(), pool and orchestrator build. It is far
  // shorter than a pass, so it repeats through the run in blocks of at
  // least kSetupBlockS: before each timed pass, blocks run until they
  // total kSetupShare of the pass time. A sample is a block's time per
  // set-up (run.py takes the median).
  std::vector<double> setup_s;
  std::vector<double> setup_speed;
  double setup_total_s = 0.0;
  const auto timed_set_up_block = [&] {
    const double start = now_s();
    std::size_t count = 0;
    do {
      (void)set_up(text);
      ++count;
    } while (since(start) < kSetupBlockS);
    const double seconds = since(start);
    setup_s.push_back(seconds / static_cast<double>(count));
    setup_speed.push_back(speed);
    setup_total_s += seconds;
  };
  const Setup s = set_up(text);
  // Warm-up pass, untimed: allocator growth and first-touch pages.
  std::vector<std::uint64_t> digests{
      s.orchestrator->run(s.pool.get()).checksum};

  // Timed job: whole orchestrator passes until --seconds have elapsed.
  std::vector<double> pass_s;
  std::vector<double> pass_rate;  // completed inferences per host second
  std::vector<double> pass_speed;
  double pass_total_s = 0.0;
  FleetResult first;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  speed = host.sample();
  const double job_start = now_s();
  while (pass_s.size() < kMinPasses || since(job_start) < options.seconds) {
    while (setup_s.empty() || setup_total_s < kSetupShare * pass_total_s) {
      timed_set_up_block();
    }
    const double start = now_s();
    FleetResult r = s.orchestrator->run(s.pool.get());
    pass_s.push_back(since(start));
    pass_total_s += pass_s.back();
    pass_rate.push_back(static_cast<double>(r.total.inferences) /
                        pass_s.back());
    const double after = host.sample();
    pass_speed.push_back(0.5 * (speed + after));
    speed = after;
    attempted += r.total.devices;
    failed += incomplete(r);
    digests.push_back(r.checksum);
    if (pass_s.size() == 1) {
      first = std::move(r);
    }
  }
  report.samples("host.speed", host.samples());
  report.samples("setup_s", setup_s);
  report.samples("setup_s.speed", setup_speed);
  const bool passes_agree =
      std::all_of(digests.begin(), digests.end(),
                  [&](std::uint64_t d) { return d == first.checksum; });
  report.operations(attempted, failed);
  report.promise("every pass reproduces the first pass's digest",
                 passes_agree, std::to_string(digests.size()) + " passes");
  const auto& t = first.total;
  if (failed > 0) {
    std::fprintf(stderr,
                 "perfbench: first pass: %zu failed (%zu compromised), %zu "
                 "deadline-missed devices\n",
                 t.failed, t.compromised, t.deadline_missed);
  }

  report.samples("job_s", pass_s);
  report.samples("job_s.speed", pass_speed);
  report.samples("infer_per_s", pass_rate);
  report.samples("infer_per_s.speed", pass_speed);
  report.value("sim_latency_s", t.latency_us.mean() / 1e6);
  report.value("sim_inferences_per_h",
               static_cast<double>(t.inferences) * 3600.0 / (t.on_s + t.off_s));

  if (s.spec.sim == SimKind::kBatched) {
    // A fast but wrong cohort path must not count as a gain: the stepping
    // oracle has to agree on the same spec (outside the timed phase).
    FleetSpec stepping = s.spec;
    stepping.sim = SimKind::kStepping;
    const FleetResult oracle =
        FleetOrchestrator(stepping).run(s.pool.get());
    report.digest("stepping", oracle.checksum);
  }

  if (!options.trace) {
    report.digest("run", first.checksum);
    return;
  }

  Tracer tracer(true);
  iprune::util::ScratchPool& scratch = iprune::util::ScratchPool::local();
  const std::uint64_t alloc0 = scratch.allocations();
  const std::uint64_t reuse0 = scratch.reuses();
  const TracedPass pass = traced_pass(s, tracer);
  const double allocations =
      static_cast<double>(scratch.allocations() - alloc0);
  const double reuses = static_cast<double>(scratch.reuses() - reuse0);
  tracer.write(options.trace_out);

  report.digest("untraced", first.checksum);
  report.digest("traced", pass.digest);
  report.promise("traced pass reproduces the untraced event total",
                 pass.events == t.events,
                 std::to_string(pass.events) + " vs " +
                     std::to_string(t.events));
  report.operations(attempted + s.devices.size(), failed + pass.incomplete);

  const double step_s = tracer.total_s("fleet.device_step");
  const double cohort_s = tracer.total_s("fleet.cohort");
  const double events = static_cast<double>(pass.events);
  report.value("device.events", events);
  report.value("device.host_ns_per_event", (step_s + cohort_s) * 1e9 / events);
  report.value("fleet.device_build_s", tracer.total_s("fleet.device_build"));
  report.value("fleet.device_step_s", step_s);
  report.dist("fleet.device_us", pass.device_step_us);
  report.value("fleet.cohort_s", cohort_s);
  report.value("fleet.cohort_devices",
               static_cast<double>(pass.cohort_devices));
  report.value("fleet.single_devices",
               static_cast<double>(pass.single_devices));
  report.value("engine.nvm_read_bytes",
               static_cast<double>(pass.nvm_read_bytes));
  report.value("engine.nvm_write_bytes",
               static_cast<double>(pass.nvm_write_bytes));
  report.value("engine.macs", static_cast<double>(pass.macs));
  report.value("engine.reexecuted_jobs",
               static_cast<double>(pass.reexecuted_jobs));
  report.value("engine.integrity_rollbacks",
               static_cast<double>(pass.integrity_rollbacks));
  report.value("power.failures", static_cast<double>(pass.power_failures));
  report.value("power.off_s", pass.off_s);
  report.value("power.wasted_j", pass.wasted_j);
  report.value("fault.injected_outages",
               static_cast<double>(pass.injected_outages));
  report.value("util.scratch_allocations", allocations);
  report.value("util.scratch_reuse_ratio",
               reuses + allocations > 0.0 ? reuses / (reuses + allocations)
                                          : 0.0);
  double untraced_s = 0.0;
  for (const double seconds : pass_s) {
    untraced_s += seconds;
  }
  report.value("telemetry.trace_overhead",
               pass.seconds * static_cast<double>(pass_s.size()) / untraced_s -
                   1.0);
  report.value("telemetry.span_coverage",
               tracer.children_s("fleet.pass") / tracer.total_s("fleet.pass"));
}

}  // namespace

void run_fleet_harvest(const Options& options, Report& report) {
  run_fleet(harvest_spec(options.seed), options, report);
}

void run_fleet_cohort(const Options& options, Report& report) {
  run_fleet(cohort_spec(options.seed), options, report);
}

}  // namespace perfbench
