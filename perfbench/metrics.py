"""Statistics, metric summaries and failure accounting for perfbench.

The driver (perfbench_driver) reports raw measurements; everything that
turns them into the benchmark's result lives here so it is tested once
(test_metrics.py) and shared by every workload.
"""

import math
import statistics


def median(values):
    """Median of a non-empty sequence."""
    return statistics.median(values)


def quartiles(values):
    """First and third quartiles, as statistics.quantiles(n=4) gives them."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def relative_spread(values):
    """Interquartile distance as a share of the median."""
    q1, q3 = quartiles(values)
    return (q3 - q1) / median(values)


def tail(values):
    """The highest percentile with at least ten samples beyond it.

    Returns (percentile, value): the value is the 11th-largest sample and
    the percentile its rank, 100 * (n - 10) / n. With fewer than eleven
    samples no percentile qualifies; the maximum is returned with
    percentile 100.
    """
    ordered = sorted(values)
    n = len(ordered)
    if n == 0:
        raise ValueError("tail of no samples")
    if n < 11:
        return 100.0, ordered[-1]
    return 100.0 * (n - 10) / n, ordered[n - 11]


def summarize(entries):
    """Metric values from the driver's entries.

    "samples" entries become their median, "value" entries pass through,
    and a "dist" entry NAME becomes NAME.p50, NAME.tail and NAME.count
    (an empty distribution reports all three as 0).
    """
    metrics = {}
    for name, entry in entries.items():
        kind, values = entry["kind"], entry["values"]
        if kind == "samples":
            metrics[name] = median(values)
        elif kind == "value":
            (metrics[name],) = values
        elif kind == "dist":
            metrics[name + ".count"] = len(values)
            metrics[name + ".p50"] = median(values) if values else 0
            metrics[name + ".tail"] = tail(values)[1] if values else 0
        else:
            raise ValueError("unknown entry kind %r for %s" % (kind, name))
    return metrics


# Host times (power 1) and rates (power -1) reported at the reference host
# speed, with the names their raw samples keep. The driver pairs every
# sample of NAME with a host-speed sample in NAME.speed taken around it
# (HostSpeed in driver/report.hpp).
SCALED = {"setup_s": ("host.setup_raw_s", 1),
          "job_s": ("host.job_raw_s", 1),
          "infer_per_s": ("host.infer_raw_per_s", -1)}


def at_reference_speed(entries):
    """Entries with each SCALED measure at the reference host speed.

    A phase run at half the reference speed takes twice the seconds and
    does half the work per second; times its speed of 0.5 (or divided by
    it) it reads as at the reference. The raw samples stay under their
    host.* names; the .speed entries are used up.
    """
    out = dict(entries)
    for name, (raw_name, power) in SCALED.items():
        raw = entries[name]["values"]
        speed = out.pop(name + ".speed")["values"]
        if len(speed) != len(raw):
            raise ValueError("%s has %d samples but %d speeds"
                             % (name, len(raw), len(speed)))
        if not all(s > 0 for s in speed):
            raise ValueError("%s has a host speed that is not positive"
                             % name)
        out[raw_name] = entries[name]
        out[name] = {"kind": "samples",
                     "values": [r * s ** power for r, s in zip(raw, speed)]}
    return out


def sample_spreads(entries):
    """(name, n, median, q1, q3, spread) for every "samples" entry with at
    least two values: how much the measure varied within the run."""
    out = []
    for name, entry in sorted(entries.items()):
        values = entry["values"]
        if entry["kind"] == "samples" and len(values) >= 2:
            q1, q3 = quartiles(values)
            out.append((name, len(values), median(values), q1, q3,
                        relative_spread(values)))
    return out


def pinned_digest(pins, seed):
    """The pinned digest for `seed`, or the seed-independent pin ("*")."""
    return pins.get(str(seed), pins.get("*"))


def account(report, pins):
    """Check the run's outputs and count failed operations.

    Returns (correct, attempted, failed, problems). The outputs are right
    when every digest label agrees, the agreed digest matches the pin for
    this seed (if one is pinned) and every promise holds. If they are not,
    every attempted operation counts as failed; otherwise only those the
    driver saw not complete. `correct` also requires that none failed.
    """
    problems = []
    digests = report["digests"]
    distinct = sorted(set(digests.values()))
    if not distinct:
        problems.append("no output digest reported")
    elif len(distinct) > 1:
        problems.append("digests disagree: %s" % json_pairs(digests))
    pin = pinned_digest(pins, report["seed"])
    if pin is not None and distinct and distinct != [pin]:
        problems.append("digest %s differs from the pinned %s"
                        % (json_pairs(digests), pin))
    for promise in report["promises"]:
        if not promise["ok"]:
            problems.append("broken promise: %s (%s)"
                            % (promise["name"], promise["detail"]))
    attempted = report["attempted"]
    if attempted < 1:
        problems.append("no operation attempted")
        attempted = 1
    outputs_ok = not problems
    incomplete = report["incomplete"]
    if incomplete:
        problems.append("%d of %d operations did not complete"
                        % (incomplete, attempted))
    failed = incomplete if outputs_ok else attempted
    return not problems, attempted, failed, problems


def json_pairs(mapping):
    return ", ".join("%s=%s" % item for item in sorted(mapping.items()))


def select(metrics, specs, measured_here):
    """The metrics named by `specs` (BENCHMARK.json entries), with units.

    A metric not in `measured_here` is a layer this workload does not put
    on its path; it reports 0. Raises if a metric that should have been
    measured is missing or is not a finite number.
    """
    out = {}
    for spec in specs:
        name = spec["name"]
        if name in metrics:
            value = metrics[name]
        elif name in measured_here:
            raise ValueError("metric %s was not measured" % name)
        else:
            value = 0
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            raise ValueError("metric %s is not a finite number" % name)
        out[name] = {"value": value, "unit": spec["unit"]}
    return out
