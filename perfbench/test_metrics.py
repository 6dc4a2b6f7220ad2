"""Tests of perfbench's statistics and failure accounting.

Run from the repository root:
    python3 -m unittest discover -s perfbench -p 'test_*.py'
"""

import statistics
import unittest

import metrics


def report(**overrides):
    base = {
        "workload": "fleet_harvest",
        "seed": 2026,
        "attempted": 1024,
        "incomplete": 0,
        "digests": {"run": "00000000000000aa"},
        "promises": [{"name": "passes agree", "ok": True, "detail": ""}],
        "entries": {},
    }
    base.update(overrides)
    return base


class StatisticsTest(unittest.TestCase):
    def test_median_odd_and_even(self):
        self.assertEqual(metrics.median([3, 1, 2]), 2)
        self.assertEqual(metrics.median([4, 1, 3, 2]), 2.5)

    def test_quartiles_match_the_acceptance_rule(self):
        values = [0.9, 1.3, 1.0, 1.1, 1.7, 1.2, 1.05, 0.95, 1.15, 1.25]
        q1, _, q3 = statistics.quantiles(values, n=4)
        self.assertEqual(metrics.quartiles(values), (q1, q3))
        self.assertAlmostEqual(metrics.relative_spread(values),
                               (q3 - q1) / statistics.median(values))

    def test_tail_leaves_ten_samples_beyond(self):
        values = list(range(1, 101))  # 1..100, shuffled order irrelevant
        pct, value = metrics.tail(reversed(values))
        self.assertEqual(value, 90)  # 91..100 lie beyond it
        self.assertEqual(sum(v > value for v in values), 10)
        self.assertAlmostEqual(pct, 90.0)

    def test_tail_of_512_devices(self):
        pct, value = metrics.tail([float(i) for i in range(512)])
        self.assertEqual(value, 501.0)
        self.assertAlmostEqual(pct, 100.0 * 502 / 512)

    def test_tail_with_too_few_samples_is_the_maximum(self):
        self.assertEqual(metrics.tail([5, 9, 7]), (100.0, 9))
        self.assertEqual(metrics.tail(list(range(11)))[1], 0)
        with self.assertRaises(ValueError):
            metrics.tail([])

    def test_summarize_counts_samples(self):
        out = metrics.summarize({
            "job_s": {"kind": "samples", "values": [3.0, 1.0, 2.0]},
            "device.events": {"kind": "value", "values": [42]},
            "fleet.device_us": {"kind": "dist",
                                "values": list(range(100, 0, -1))},
            "engine.infer_us": {"kind": "dist", "values": []},
        })
        self.assertEqual(out["job_s"], 2.0)
        self.assertEqual(out["device.events"], 42)
        self.assertEqual(out["fleet.device_us.count"], 100)
        self.assertEqual(out["fleet.device_us.p50"], 50.5)
        self.assertEqual(out["fleet.device_us.tail"], 90)
        self.assertEqual(out["engine.infer_us.count"], 0)
        self.assertEqual(out["engine.infer_us.p50"], 0)
        self.assertEqual(out["engine.infer_us.tail"], 0)

    def test_summarize_rejects_unknown_kinds(self):
        with self.assertRaises(ValueError):
            metrics.summarize({"x": {"kind": "mean", "values": [1]}})


class ReferenceSpeedTest(unittest.TestCase):
    @staticmethod
    def entries(setup, setup_speed, job, job_speed, rate=(100.0,),
                rate_speed=(1.0,)):
        def samples(values):
            return {"kind": "samples", "values": list(values)}
        return {"setup_s": samples(setup),
                "setup_s.speed": samples(setup_speed),
                "job_s": samples(job), "job_s.speed": samples(job_speed),
                "infer_per_s": samples(rate),
                "infer_per_s.speed": samples(rate_speed),
                "device.events": {"kind": "value", "values": [7]}}

    def test_each_sample_scales_by_its_own_speed(self):
        out = metrics.summarize(metrics.at_reference_speed(self.entries(
            [2.0, 3.0, 9.0], [0.5, 1.0, 0.1], [8.0], [0.5],
            [100.0, 30.0], [0.5, 0.25])))
        # 1.0, 3.0 and 0.9 at the reference speed; the raw median is 3.0.
        self.assertEqual(out["setup_s"], 1.0)
        self.assertEqual(out["job_s"], 4.0)
        # Rates divide: 200 and 120 per second at the reference speed.
        self.assertEqual(out["infer_per_s"], 160.0)
        self.assertEqual(out["host.setup_raw_s"], 3.0)
        self.assertEqual(out["host.job_raw_s"], 8.0)
        self.assertEqual(out["host.infer_raw_per_s"], 65.0)
        self.assertEqual(out["device.events"], 7)
        self.assertNotIn("job_s.speed", out)

    def test_speed_must_be_positive_and_paired(self):
        for speed in (0.0, -1.0, float("nan")):
            with self.assertRaises(ValueError):
                metrics.at_reference_speed(
                    self.entries([1.0], [1.0], [1.0], [speed]))
        with self.assertRaises(ValueError):
            metrics.at_reference_speed(
                self.entries([1.0, 2.0], [1.0], [1.0], [1.0]))

    def test_sample_spreads_cover_samples_with_two_or_more(self):
        values = [0.9, 1.3, 1.0, 1.1, 1.7, 1.2, 1.05, 0.95, 1.15, 1.25]
        q1, _, q3 = statistics.quantiles(values, n=4)
        out = metrics.sample_spreads({
            "job_s": {"kind": "samples", "values": values},
            "setup_s": {"kind": "samples", "values": [4.0]},
            "fleet.device_us": {"kind": "dist", "values": values},
        })
        self.assertEqual(len(out), 1)
        name, n, median, lo, hi, spread = out[0]
        self.assertEqual((name, n, lo, hi), ("job_s", 10, q1, q3))
        self.assertEqual(median, statistics.median(values))
        self.assertAlmostEqual(spread, (q3 - q1) / statistics.median(values))


class AccountingTest(unittest.TestCase):
    PINS = {"2026": "00000000000000aa"}

    def test_clean_run(self):
        self.assertEqual(metrics.account(report(), self.PINS),
                         (True, 1024, 0, []))

    def test_forced_digest_mismatch_fails_every_operation(self):
        correct, attempted, failed, problems = metrics.account(
            report(digests={"run": "00000000000000bb"}), self.PINS)
        self.assertFalse(correct)
        self.assertEqual(failed, attempted)
        self.assertIn("pinned", problems[0])

    def test_labels_that_disagree_fail_every_operation(self):
        correct, attempted, failed, _ = metrics.account(
            report(seed=7, digests={"run": "01", "stepping": "02"}),
            self.PINS)
        self.assertFalse(correct)
        self.assertEqual(failed, attempted)

    def test_unpinned_seed_checks_agreement_only(self):
        result = metrics.account(
            report(seed=7, digests={"untraced": "0c", "traced": "0c"}),
            self.PINS)
        self.assertEqual(result, (True, 1024, 0, []))

    def test_seed_independent_pin(self):
        pins = {"*": "0d"}
        self.assertTrue(metrics.account(
            report(seed=99, digests={"run": "0d"}), pins)[0])
        self.assertFalse(metrics.account(
            report(seed=99, digests={"run": "0e"}), pins)[0])

    def test_a_failed_device_raises_failed(self):
        correct, attempted, failed, problems = metrics.account(
            report(incomplete=1), self.PINS)
        self.assertFalse(correct)
        self.assertEqual((attempted, failed), (1024, 1))
        self.assertIn("did not complete", problems[0])

    def test_broken_promise_fails_every_operation(self):
        broken = [{"name": "accuracy within epsilon", "ok": False,
                   "detail": "0.80 vs 0.86"}]
        correct, attempted, failed, _ = metrics.account(
            report(promises=broken), self.PINS)
        self.assertFalse(correct)
        self.assertEqual(failed, attempted)

    def test_missing_digest_or_operations_fail(self):
        self.assertFalse(metrics.account(report(digests={}), self.PINS)[0])
        correct, attempted, failed, _ = metrics.account(
            report(attempted=0), self.PINS)
        self.assertEqual((correct, attempted, failed), (False, 1, 1))


class SelectTest(unittest.TestCase):
    SPECS = [{"name": "device.events", "unit": "count"},
             {"name": "core.iterations", "unit": "count"}]

    def test_layers_off_the_path_report_zero(self):
        out = metrics.select({"device.events": 12}, self.SPECS,
                             {"device.events"})
        self.assertEqual(out, {
            "device.events": {"value": 12, "unit": "count"},
            "core.iterations": {"value": 0, "unit": "count"},
        })

    def test_a_layer_on_the_path_must_be_measured(self):
        with self.assertRaises(ValueError):
            metrics.select({}, self.SPECS, {"device.events"})

    def test_non_finite_values_are_rejected(self):
        with self.assertRaises(ValueError):
            metrics.select({"device.events": float("nan")}, self.SPECS[:1],
                           set())


if __name__ == "__main__":
    unittest.main()
