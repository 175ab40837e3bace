"""Self-tests of the benchmark's metric arithmetic on hand-built inputs.

  python3 -m unittest discover -s benchmark -p 'test_*.py'
  python3 benchmark/run.py --self-test     (also runs the driver's span tests)
"""

import json
import os
import statistics
import subprocess
import sys
import tempfile
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import compare  # noqa: E402
import metrics as m  # noqa: E402
import workloads  # noqa: E402


def record(job, wall_ms, workers, trial_sum=0.0, outcome="ok", queries_mean=10.0, trials=2,
           defense="none", scenario="seqpair/swap"):
    return {"job": job, "scenario": scenario, "outcome": outcome,
            "point": {"trials": trials, "defense": defense},
            "result": {"queries": {"mean": queries_mean}},
            "timing": {"wall_ms": wall_ms, "workers": workers, "trial_wall_ms_sum": trial_sum}}


class Percentiles(unittest.TestCase):
    def test_median_odd_and_even(self):
        self.assertEqual(m.median([3, 1, 2]), 2)
        self.assertEqual(m.median([4, 1, 3, 2]), 2.5)
        with self.assertRaises(ValueError):
            m.median([])

    def test_nearest_rank_percentile_and_samples_beyond(self):
        values = list(range(1, 1001))  # 1..1000
        self.assertEqual(m.percentile(values, 50), 500)
        self.assertEqual(m.percentile(values, 99), 990)
        self.assertEqual(m.samples_beyond(values, 99), 10)
        self.assertEqual(m.samples_beyond(values, 50), 500)
        self.assertEqual(m.percentile([7.0], 99), 7.0)
        self.assertEqual(m.samples_beyond([7.0], 99), 0)

    def test_quartile_spread_matches_statistics_quantiles(self):
        values = [1.0, 1.1, 0.9, 1.05, 0.95, 1.2, 1.0, 0.98, 1.02, 1.01]
        q1, _, q3 = statistics.quantiles(values, n=4)
        self.assertAlmostEqual(m.quartile_spread(values), (q3 - q1) / statistics.median(values))


class Ratios(unittest.TestCase):
    def test_campaign_efficiency(self):
        recs = [record("a", 10.0, 4, trial_sum=30.0), record("b", 5.0, 2, trial_sum=10.0)]
        # (30 + 10) / (10*4 + 5*2) = 40 / 50
        self.assertAlmostEqual(m.campaign_efficiency(recs), 0.8)
        self.assertEqual(m.campaign_efficiency([]), 0.0)

    def test_fleet_efficiency(self):
        recs = [record(str(i), 2.0, 4) for i in range(6)]
        # 12 ms of shard work on 4 workers over 5 ms of campaign wall
        self.assertAlmostEqual(m.fleet_efficiency(recs, 0.005, 4), 0.6)

    def test_job_overhead_ms(self):
        recs = [record("a", 100.0, 4), record("b", 50.0, 4), record("c", 30.0, 4)]
        # (0.210 s wall - 180 ms inside jobs) / 3 jobs
        self.assertAlmostEqual(m.job_overhead_ms(recs, 0.210), 10.0)
        self.assertEqual(m.job_overhead_ms([], 1.0), 0.0)

    def test_failed_frac(self):
        self.assertEqual(m.failed_frac(8, 8), 0.0)
        self.assertEqual(m.failed_frac(8, 6), 0.25)
        self.assertEqual(m.failed_frac(0, 0), 1.0)


class Invariants(unittest.TestCase):
    def test_check_records_counts_failures_duplicates_and_missing(self):
        ok, problems = m.check_records([record("a", 1, 1), record("b", 1, 1)], 2)
        self.assertEqual((ok, problems), (2, []))
        ok, problems = m.check_records(
            [record("a", 1, 1), record("a", 1, 1), record("b", 1, 1, outcome="job_failed")], 3)
        self.assertEqual(ok, 0)
        self.assertEqual(len(problems), 3)  # job_failed, duplicate, 2 of 3 planned

    def test_digest_ignores_host_bound_keys_and_order(self):
        a = [record("a", 1.0, 1), record("b", 2.0, 1)]
        b = [record("b", 9.0, 4), record("a", 7.0, 2)]
        b[0]["obs"] = {"counters": {"x": 1}}
        self.assertEqual(m.digest(a), m.digest(b))
        b[1]["result"]["queries"]["mean"] = 11.0
        self.assertNotEqual(m.digest(a), m.digest(b))

    def test_compare_names_the_differing_field(self):
        a = [record("a", 1.0, 1)]
        b = [record("a", 5.0, 4, queries_mean=12.0)]
        self.assertIsNone(m.compare_deterministic(a, [record("a", 3.0, 2)]))
        self.assertEqual(m.compare_deterministic(a, b), "job a: result.queries.mean: 10.0 != 12.0")
        self.assertEqual(m.compare_deterministic(a, []), "job a: missing from the fresh run")

    def test_total_queries(self):
        recs = [record("a", 1, 1, queries_mean=172.5, trials=2),
                record("b", 1, 1, queries_mean=53.0)]
        self.assertEqual(m.total_queries(recs), 345 + 106)


class Workloads(unittest.TestCase):
    def test_same_seed_same_spec_and_planned_counts(self):
        for w in workloads.WORKLOADS:
            self.assertEqual(workloads.generate(w, 5), workloads.generate(w, 5))
            self.assertNotEqual(workloads.generate(w, 5)[0], workloads.generate(w, 6)[0])
        self.assertEqual(workloads.generate("paper_sweep", 1)[1], 12)
        self.assertEqual(workloads.generate("defense_grid", 1)[1], 8 * 7 * 3 * 2)
        self.assertEqual(workloads.generate("fleet_population", 1)[1], 1563)
        self.assertNotIn("-defended", workloads.generate("paper_sweep", 1)[0])


class Compare(unittest.TestCase):
    def write(self, directory, name, stamp, value):
        path = os.path.join(directory, name)
        with open(path, "w") as f:
            json.dump({"correct": True, "attempted": 1, "failed": 0, "provenance": stamp,
                       "metrics": {"wall_s": {"value": value, "unit": "s"}}}, f)
        return path

    def test_refuses_differing_stamps(self):
        stamp = {"build_type": "Release", "sanitize": "none", "simd": "avx512", "nproc": 4,
                 "workers": 4, "compiler": "c++ 12", "workload": "paper_sweep", "size": "full",
                 "trace": 0, "seed": 1, "commit": "x", "source_digest": "a"}
        with tempfile.TemporaryDirectory() as d:
            a = self.write(d, "a.json", stamp, 1.0)
            b = self.write(d, "b.json", dict(stamp, seed=2, commit="y", source_digest="b"), 1.1)
            c = self.write(d, "c.json", dict(stamp, nproc=2), 1.0)
            self.assertIsNone(compare.incomparable([a], [b]))
            self.assertIn("nproc", compare.incomparable([a], [c]))


class DriverSpans(unittest.TestCase):
    """Self time with nested and cross-thread overlapping children, and
    unattributed time, as the traced driver computes them (driver/spans.hpp)."""

    def test_driver_self_test(self):
        root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        build = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
        driver = os.path.join(build if os.path.isabs(build) else os.path.join(root, build),
                              "bench_trace_driver")
        if not os.path.exists(driver):
            self.skipTest("driver not built yet (python3 benchmark/run.py --self-test builds it)")
        self.assertEqual(subprocess.call([driver, "self-test"], stdout=subprocess.DEVNULL), 0)


if __name__ == "__main__":
    unittest.main()
