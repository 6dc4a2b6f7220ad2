#!/usr/bin/env python3
"""perfbench: end-to-end and per-layer benchmark of the iPrune system.

Usage (from the repository root):

    python3 perfbench/run.py --workload prune_har|fleet_harvest|fleet_cohort \\
        --seed N --seconds S --trace 0|1

Builds perfbench_driver from source into .bench_build/perfbench (first run
only; later runs rebuild incrementally), runs one workload in a child
process with a pinned environment, checks its outputs and prints one JSON
line: {"correct", "attempted", "failed", "metrics"}. With --trace 0 the
metrics are BENCHMARK.json's end_to_end list, with --trace 1 its per_layer
list; traced runs also write a Chrome/Perfetto trace next to the build.
End-to-end host times are scaled to a reference host speed that the driver
samples through the run (design.json, "host_speed"); the log on stderr
gives the raw medians and each measure's spread within the run.

Exits 0 with a result; 1 if the build or the run fails; 2 on bad usage or
when the repository's sources are missing. design.json records why each
workload exists, which layer metric should move which end-to-end metric,
and the pinned digests the output check uses.
"""

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys

sys.dont_write_bytecode = True

import metrics  # noqa: E402  (after the bytecode switch)

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
DRIVER = os.path.join(BUILD, "perfbench_driver")
# prune_har spends about 70 s in set-up and two prune loops besides its
# --seconds of measuring, the fleets under 5 s; traced runs add a replay.
RUN_TIMEOUT_BASE_S = 150

# Lanes are fixed here; fast mode, artifact caches and trace directories
# from the caller would change what is measured, so they are dropped.
PINNED_ENV = {"IPRUNE_THREADS": "1"}


def log(message):
    print("perfbench: " + message, file=sys.stderr, flush=True)


def pinned_environment(environ):
    """The caller's environment without IPRUNE_* settings, plus the pins."""
    dropped = sorted(k for k in environ if k.startswith("IPRUNE_"))
    env = {k: v for k, v in environ.items() if not k.startswith("IPRUNE_")}
    env.update(PINNED_ENV)
    return env, dropped


def build(env):
    """Configure (once) and build the driver; raises on failure."""
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", BUILD,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        subprocess.run(configure, env=env, check=True,
                       stdout=sys.stderr, stderr=sys.stderr)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", BUILD, "--target", "perfbench_driver",
                    "-j", jobs], env=env, check=True,
                   stdout=sys.stderr, stderr=sys.stderr)


def load_json(path):
    with open(path, encoding="utf-8") as f:
        return json.load(f)


def parse_args(argv, workloads):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seed >= 2 ** 64:
        parser.error("--seed must be in [0, 2^64)")
    if not 1 <= args.seconds <= 3600:
        parser.error("--seconds must be in [1, 3600]")
    return args


def run_driver(args, env):
    command = [DRIVER, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        traces = os.path.join(BUILD, "traces")
        os.makedirs(traces, exist_ok=True)
        path = os.path.join(traces, "%s-seed%d.trace.json"
                            % (args.workload, args.seed))
        command += ["--trace-out", path]
        log("trace: " + path)
    timeout = RUN_TIMEOUT_BASE_S + 2 * args.seconds
    proc = subprocess.run(command, env=env, stdout=subprocess.PIPE,
                          stderr=sys.stderr, timeout=timeout, text=True)
    if proc.returncode != 0:
        raise RuntimeError("driver exited with status %d" % proc.returncode)
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise RuntimeError("driver printed no report")
    return json.loads(lines[-1])


def main(argv):
    # A terminated benchmark unwinds through subprocess.run, which kills
    # and reaps the child it is waiting on.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))
    if not os.path.exists(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log("no iPrune sources under %s/src; nothing to benchmark" % ROOT)
        return 2
    bench = load_json(os.path.join(ROOT, "BENCHMARK.json"))
    design = load_json(os.path.join(HERE, "design.json"))
    args = parse_args(argv, [w["name"] for w in bench["workloads"]])

    env, dropped = pinned_environment(os.environ)
    if dropped:
        log("ignoring the caller's " + ", ".join(dropped))
    try:
        build(env)
        report = run_driver(args, env)
    except (OSError, RuntimeError, subprocess.SubprocessError,
            ValueError) as e:
        log("run failed: %s" % e)
        return 1

    pins = design["workloads"][args.workload]["pinned_digests"]
    correct, attempted, failed, problems = metrics.account(report, pins)
    for problem in problems:
        log(problem)
    for name, n, med, q1, q3, spread in metrics.sample_spreads(
            report["entries"]):
        log("%s: median %.6g over %d samples, quartiles %.6g-%.6g "
            "(spread %.3f)" % (name, med, n, q1, q3, spread))
    try:
        values = metrics.summarize(
            metrics.at_reference_speed(report["entries"]))
    except ValueError as e:
        log("run failed: %s" % e)
        return 1
    if args.trace:
        specs = bench["per_layer"]
        here = {name for name, layer in design["per_layer"].items()
                if args.workload in layer["on"]}
    else:
        specs = bench["end_to_end"]
        here = {spec["name"] for spec in specs}
    try:
        selected = metrics.select(values, specs, here)
    except ValueError as e:
        log("run failed: %s" % e)
        return 1
    if args.trace:
        log("telemetry.trace_overhead %.4f, span coverage of the timed job "
            "%.3f" % (selected["telemetry.trace_overhead"]["value"],
                      selected["telemetry.span_coverage"]["value"]))
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": selected}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
