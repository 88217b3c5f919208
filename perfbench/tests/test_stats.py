"""Self-tests of the benchmark's statistics.

    python3 -m unittest discover -s perfbench/tests
"""

import math
import os
import random
import sys
import unittest

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), ".."))
import stats  # noqa: E402


class PercentileRuleTest(unittest.TestCase):
    def test_highest_percentile_with_ten_beyond(self):
        for n in list(range(11, 400)) + [999, 1000, 1001, 5000]:
            values = list(range(1, n + 1))
            q = stats.tail_quantile(n)
            t = stats.tail(values)
            self.assertGreaterEqual(sum(v > t for v in values), 10, n)
            # Any higher quantile (up to the p99 cap) leaves fewer than ten.
            if q < 0.99:
                self.assertLess(sum(v > stats.percentile(values, q + 1.0 / n) for v in values), 10, n)

    def test_p99_once_the_sample_supports_it(self):
        self.assertEqual(stats.tail_quantile(1000), 0.99)
        self.assertEqual(stats.tail(list(range(1, 1001))), 990)
        self.assertEqual(stats.tail_quantile(5000), 0.99)
        self.assertAlmostEqual(stats.tail_quantile(500), 0.98)
        self.assertIsNone(stats.tail_quantile(10))
        self.assertEqual(stats.tail([3.0, 1.0, 2.0]), 3.0)

    def test_nearest_rank_median(self):
        self.assertEqual(stats.percentile([5, 1, 4, 2, 3], 0.5), 3)
        self.assertEqual(stats.percentile([4, 1, 3, 2], 0.5), 2)

    def test_robust_tail_ignores_one_stalled_segment(self):
        rng = random.Random(3)
        lat = [rng.uniform(0.5, 1.5) for _ in range(5000)]
        lat[2000:2080] = [40.0] * 80  # one stall inside the third segment
        self.assertGreater(stats.tail(lat), 20.0)
        self.assertLess(stats.robust_tail(lat), 2.0)


def synthetic_trial(rate, capacity, n=2000, base_ms=0.6):
    """Open-loop latencies of a queue served at `capacity` req/s: flat below
    capacity, a backlog growing by (rate - capacity) / rate per request
    above it."""
    period_ms = 1000.0 / rate
    service_ms = 1000.0 / capacity
    lat, free_at = [], 0.0
    for i in range(n):
        arrive = i * period_ms
        start = max(arrive, free_at)
        free_at = start + service_ms
        lat.append(free_at - arrive + base_ms)
    return lat


class CapacitySearchTest(unittest.TestCase):
    def search(self, true_capacity, start, resolution=0.05):
        def passes(rate):
            lat = synthetic_trial(rate, true_capacity)
            return stats.trial_passes(lat, len(lat), len(lat))
        return stats.capacity_search(passes, start, resolution)

    def test_finds_the_knee_within_the_step(self):
        for true_capacity in (350.0, 1375.0, 2600.0):
            for start in (100.0, 800.0, 5000.0):
                capacity, trials = self.search(true_capacity, start)
                passed = [r for r, ok in trials if ok]
                failed = [r for r, ok in trials if not ok]
                self.assertEqual(capacity, max(passed))
                # The bracket closed to the resolution, which is finer than
                # capacity_rps's bound in BENCHMARK.json.
                self.assertLessEqual(min(r for r in failed if r > capacity) / capacity, 1.05 + 1e-9)
                # A queue saturates a little above its service rate (the
                # trial is finite), never below it.
                self.assertGreater(capacity, 0.9 * true_capacity, (true_capacity, start))
                self.assertLess(capacity, 1.3 * true_capacity, (true_capacity, start))
                self.assertLessEqual(len(trials), 12)

    def test_nothing_passes(self):
        capacity, trials = stats.capacity_search(lambda r: False, 100.0, 0.05, max_trials=5)
        self.assertEqual(len(trials), 5)
        self.assertLess(capacity, min(r for r, _ in trials))
        self.assertGreater(capacity, 0.0)

    def test_trial_criteria(self):
        flat = [1.0] * 2000
        self.assertTrue(stats.trial_passes(flat, 2000, 2000))
        self.assertFalse(stats.trial_passes(flat, 2000, 1990))  # < 99.9% OK
        growing = flat[:1800] + [25.0 + i for i in range(200)]
        self.assertFalse(stats.trial_passes(growing, 2000, 2000))


class SelfTimeTest(unittest.TestCase):
    def test_children_are_subtracted_once(self):
        spans = [
            [0, -1, 7, "serve.request", 0.0, 10.0],
            [1, 0, 7, "core.sync", 1.0, 3.0],
            [2, 0, 7, "core.score", 2.0, 5.0],   # overlaps the sync span
            [3, 0, 7, "geo.generate", 7.0, 8.0],
            [4, 2, 7, "tensor.gemm", 2.5, 3.5],
            [5, -1, 8, "eval.evaluate", 12.0, 15.0],
            [6, 5, 8, "core.score_batch", 14.0, 16.0],  # overruns its parent
        ]
        layers, unattributed = stats.self_times(spans)
        self.assertAlmostEqual(layers["serve"], 10.0 - 5.0)
        self.assertAlmostEqual(layers["core"], 2.0 + (3.0 - 1.0) + 2.0)
        self.assertAlmostEqual(layers["tensor"], 1.0)
        self.assertAlmostEqual(layers["geo"], 1.0)
        self.assertAlmostEqual(layers["eval"], 3.0 - 1.0)
        # Window 0..16, roots cover 0..10 and 12..15.
        self.assertAlmostEqual(unattributed, 16.0 - 13.0)

    def test_union_length(self):
        self.assertEqual(stats.union_length([]), 0.0)
        self.assertAlmostEqual(stats.union_length([(0, 2), (1, 3), (5, 6)]), 4.0)
        self.assertEqual(stats.self_times([]), ({}, 0.0))


class ResultSchemaTest(unittest.TestCase):
    UNITS = {"p50_ms": "ms", "setup_s": "s"}

    def result(self, **over):
        r = {"correct": True, "attempted": 10, "failed": 0,
             "metrics": {"p50_ms": {"value": 1.25, "unit": "ms"},
                         "setup_s": {"value": 0.8, "unit": "s"}}}
        r.update(over)
        return r

    def test_valid(self):
        self.assertEqual(stats.validate_result(self.result(), self.UNITS), [])

    def test_invalid(self):
        bad = [
            self.result(attempted=0),
            self.result(failed=1.5),
            self.result(correct="yes"),
            self.result(metrics={"p50_ms": {"value": 1.0, "unit": "ms"}}),
            self.result(metrics={"p50_ms": {"value": 1.0, "unit": "s"},
                                 "setup_s": {"value": 1.0, "unit": "s"}}),
            self.result(metrics={"p50_ms": {"value": math.nan, "unit": "ms"},
                                 "setup_s": {"value": 1.0, "unit": "s"}}),
        ]
        for r in bad:
            self.assertNotEqual(stats.validate_result(r, self.UNITS), [], r)
        extra = self.result()
        extra["note"] = "x"
        self.assertNotEqual(stats.validate_result(extra, self.UNITS), [])


class StealAdjustmentTest(unittest.TestCase):
    def test_recovers_the_undisturbed_rate(self):
        # Each point of steal costs four points of speed (a 4-thread pool).
        rng = random.Random(5)
        samples = []
        for _ in range(30):
            steal = rng.uniform(0.0, 0.15)
            samples.append((100.0 * (1.0 - 4.0 * steal) * rng.uniform(0.98, 1.02), steal))
        self.assertAlmostEqual(stats.at_zero_steal(samples), 100.0, delta=2.0)

    def test_no_steal_spread_gives_the_mean(self):
        self.assertAlmostEqual(stats.at_zero_steal([(1.0, 0.0), (3.0, 0.0)]), 2.0)
        self.assertAlmostEqual(stats.at_zero_steal([(1.0, 0.1), (3.0, 0.1)]), 2.0)

    def test_rising_slope_counts_as_none(self):
        # A rate that rose with steal: noise, not the host's doing.
        self.assertAlmostEqual(stats.at_zero_steal([(90.0, 0.0), (110.0, 0.1)]), 100.0)
        self.assertAlmostEqual(stats.at_zero_steal([(110.0, 0.0), (90.0, 0.1)]), 110.0)


class VerdictTest(unittest.TestCase):
    def test_verdicts(self):
        base = [10.0, 10.2, 9.9, 10.1, 10.0, 9.8, 10.3, 10.1, 9.9, 10.0]
        faster = [x * 0.8 for x in base]
        v = stats.verdict(base, faster, "lower", 0.1)
        self.assertEqual(v["verdict"], "better")
        self.assertTrue(v["within_bound"])
        v = stats.verdict(base, [x * 1.2 for x in base], "lower", 0.1)
        self.assertEqual(v["verdict"], "worse")
        self.assertFalse(v["within_bound"])
        v = stats.verdict(base, list(reversed(base)), "lower", 0.1)
        self.assertEqual(v["verdict"], "unresolved")
        self.assertTrue(v["within_bound"])
        v = stats.verdict(base, faster, "higher", 0.1)
        self.assertEqual(v["verdict"], "worse")

    def test_spread(self):
        self.assertAlmostEqual(stats.spread([1.0, 2.0, 3.0, 4.0, 5.0]), (4.5 - 1.5) / 3.0)


if __name__ == "__main__":
    unittest.main()
