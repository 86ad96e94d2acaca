"""Tests of the benchmark's statistics helpers and metric definitions.

    python3 -m unittest discover -s perfbench -p 'test_*.py'
"""

import json
import statistics
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
import run  # noqa: E402
import stats  # noqa: E402


class MedianAndQuartiles(unittest.TestCase):
    def test_median_of_odd_and_even_counts(self):
        self.assertEqual(stats.median([3, 1, 2]), 2)
        self.assertEqual(stats.median([4, 1, 3, 2]), 2.5)

    def test_quartiles_match_statistics_quantiles(self):
        values = [9.1, 8.7, 8.2, 7.9, 8.4, 8.0, 8.8, 8.1, 8.3, 9.4]
        q1, q2, q3 = stats.quartiles(values)
        self.assertEqual([q1, q2, q3], statistics.quantiles(values, n=4))
        self.assertEqual(q2, stats.median(values))

    def test_spread_is_iqr_over_median(self):
        values = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0]
        q1, q2, q3 = stats.quartiles(values)
        self.assertAlmostEqual(stats.spread(values), (q3 - q1) / q2)
        self.assertEqual(stats.spread([5.0] * 10), 0.0)

    def test_single_value_is_its_own_quartiles(self):
        self.assertEqual(stats.quartiles([0.5]), (0.5, 0.5, 0.5))


class TailPercentile(unittest.TestCase):
    def test_highest_percentile_with_ten_samples_beyond(self):
        values = list(range(1, 101))  # 100 samples
        pct, value = stats.tail(values)
        # p99 and p95 leave 1 and 5 samples beyond; p90 leaves exactly 10.
        self.assertEqual((pct, value), (90.0, 90))
        self.assertEqual(sum(v > value for v in values), 10)

    def test_more_samples_reach_a_higher_percentile(self):
        self.assertEqual(stats.tail(list(range(1, 201)))[0], 95.0)
        self.assertEqual(stats.tail(list(range(1, 1001)))[0], 99.0)
        self.assertEqual(stats.tail(list(range(1, 252 + 1)))[0], 95.0)

    def test_order_of_samples_does_not_matter(self):
        values = [0.05 * ((i * 37) % 101) for i in range(101)]
        self.assertEqual(stats.tail(values), stats.tail(sorted(values)))

    def test_too_few_samples_fall_back_to_the_median(self):
        self.assertEqual(stats.tail([3.0, 1.0, 2.0]), (50.0, 2.0))


class MetricNames(unittest.TestCase):
    def test_valid_definitions_pass(self):
        ok = [{"name": "wall_s", "unit": "s", "better": "lower"},
              {"name": "core.batch.ff_share", "unit": "ratio", "better": "higher"},
              {"name": "sim_mips", "unit": "Minsn/s", "better": "higher"}]
        self.assertEqual(stats.metric_errors(ok), [])

    def test_malformed_names_units_and_directions_are_reported(self):
        bad = [{"name": "_starts_badly", "unit": "s", "better": "lower"},
               {"name": "x" * 65, "unit": "s", "better": "lower"},
               {"name": "has space", "unit": "s", "better": "lower"},
               {"name": "dup", "unit": "s", "better": "lower"},
               {"name": "dup", "unit": "s", "better": "lower"},
               {"name": "unit", "unit": "a unit that is too long", "better": "lower"},
               {"name": "dir", "unit": "s", "better": "faster"}]
        self.assertEqual(len(stats.metric_errors(bad)), 6)

    def test_benchmark_json_matches_the_runner(self):
        doc = json.loads((HERE.parent / "BENCHMARK.json").read_text())
        self.assertEqual(set(doc), {"command", "paths", "run_seconds", "workloads",
                                    "end_to_end", "per_layer"})
        self.assertEqual(stats.metric_errors(doc["end_to_end"] + doc["per_layer"]), [])
        self.assertEqual({m["name"]: (m["unit"], m["better"], m["bound"]) for m in doc["end_to_end"]},
                         run.END_TO_END)
        self.assertEqual({m["name"]: m["unit"] for m in doc["per_layer"]}, run.PER_LAYER)
        self.assertEqual([w["name"] for w in doc["workloads"]], list(run.WORKLOADS))
        for m in doc["end_to_end"]:
            self.assertLessEqual(m["bound"], 0.25)
        setup = next(m for m in doc["end_to_end"] if m["name"] == "setup_s")
        self.assertEqual(setup["bound"], max(m["bound"] for m in doc["end_to_end"]))


class SweepSchedule(unittest.TestCase):
    def test_same_seed_same_requests_and_distinct_cold_jobs(self):
        a = run.make_spec(7, 3)
        self.assertEqual(a, run.make_spec(7, 3))
        self.assertNotEqual(a["sweeps"], run.make_spec(8, 3)["sweeps"])
        configs = [(v["sb"], v["rob"], v["prf"]) for sweep in a["sweeps"] for v in sweep]
        self.assertEqual(len(configs), len(set(configs)))


if __name__ == "__main__":
    unittest.main()
