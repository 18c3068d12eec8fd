"""Tests for the benchmark's own arithmetic and argument checks.

    python3 -m unittest discover -s perfbench -p 'test_*.py'
"""

import io
import json
import os
import sys
import unittest
from contextlib import redirect_stderr

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import layers  # noqa: E402
import run  # noqa: E402
import stats  # noqa: E402


def span(id_, start, end, name="x.y", parent=0, thread=0, **counts):
    return {"id": id_, "parent": parent, "name": name, "job": 0,
            "thread": thread, "start_ns": start, "end_ns": end,
            "counts": counts}


class OrderStatistics(unittest.TestCase):
    def test_median_odd_and_even(self):
        self.assertEqual(stats.median([3, 1, 2]), 2)
        self.assertEqual(stats.median([4, 1, 3, 2]), 2.5)

    def test_nearest_rank_percentile(self):
        values = list(range(1, 21))  # 1..20
        self.assertEqual(stats.percentile(values, 50), 10)
        self.assertEqual(stats.percentile(values, 90), 18)
        self.assertEqual(stats.percentile(values, 100), 20)
        self.assertEqual(stats.percentile([7], 99), 7)

    def test_samples_beyond(self):
        self.assertEqual(stats.samples_beyond(20, 50), 10)
        self.assertEqual(stats.samples_beyond(20, 90), 2)
        self.assertEqual(stats.samples_beyond(1000, 99), 10)

    def test_highest_percentile_needs_ten_beyond(self):
        self.assertIsNone(stats.highest_percentile(19))
        self.assertEqual(stats.highest_percentile(20), 50)
        self.assertEqual(stats.highest_percentile(40), 75)
        self.assertEqual(stats.highest_percentile(100), 90)
        self.assertEqual(stats.highest_percentile(200), 95)
        self.assertEqual(stats.highest_percentile(1000), 99)
        self.assertEqual(stats.highest_percentile(10000), 99.9)


class SelfTime(unittest.TestCase):
    def test_no_children(self):
        self.assertEqual(stats.self_time(span(1, 0, 100), []), 100)

    def test_disjoint_children(self):
        kids = [span(2, 10, 20, parent=1), span(3, 50, 80, parent=1)]
        self.assertEqual(stats.self_time(span(1, 0, 100), kids), 60)

    def test_children_overlapping_across_threads_count_once(self):
        # Three pool threads run cells at once under one parent span.
        kids = [span(2, 10, 60, parent=1, thread=1),
                span(3, 20, 70, parent=1, thread=2),
                span(4, 30, 40, parent=1, thread=3)]
        self.assertEqual(stats.self_time(span(1, 0, 100), kids), 40)

    def test_children_are_clipped_to_the_parent(self):
        kids = [span(2, -50, 10, parent=1), span(3, 90, 200, parent=1)]
        self.assertEqual(stats.self_time(span(1, 0, 100), kids), 80)

    def test_nested_intervals(self):
        kids = [span(2, 10, 90, parent=1), span(3, 20, 30, parent=1)]
        self.assertEqual(stats.self_time(span(1, 0, 100), kids), 20)


class FlashReplayAttribution(unittest.TestCase):
    def test_calls_before_the_first_return_replay(self):
        calls = [span(1, 0, 100, flash_key=0),    # replays
                 span(2, 50, 140, flash_key=0),   # racing duplicate
                 span(3, 100, 101, flash_key=0),  # cache hit
                 span(4, 10, 60, flash_key=1)]    # other benchmark
        self.assertEqual([c["id"] for c in stats.flash_replays(calls)],
                         [1, 2, 4])

    def test_layer_metrics_sum_replays_only(self):
        spans = [span(1, 0, 2_000_000_000, name="flashcache.perfOptionsFor",
                      flash_key=0, hit_ratio=0.5),
                 span(2, 3_000_000_000, 3_000_000_100,
                      name="flashcache.perfOptionsFor",
                      flash_key=0, hit_ratio=0.5)]
        m = layers.layer_metrics(spans)
        self.assertAlmostEqual(m["flashcache.hit_rate_s"], 2.0)
        self.assertAlmostEqual(m["flashcache.hit_rate_max_s"], 2.0)
        self.assertAlmostEqual(m["flashcache.hit_ratio"], 0.5)


class ModelError(unittest.TestCase):
    def test_design_eval_is_mean_relative_error_vs_fig5(self):
        self.assertAlmostEqual(stats.design_eval_err_pct(1.5, 2.0), 0.0)
        # 1.65 is 10% over 1.5; 1.9 is 5% under 2.0.
        self.assertAlmostEqual(stats.design_eval_err_pct(1.65, 1.9), 7.5)

    def test_trace_replay_is_mean_abs_pp_error_vs_fig4b(self):
        exact = [0.047, 0.002, 0.014, 0.007, 0.007]
        self.assertAlmostEqual(stats.trace_replay_err_pct(exact), 0.0)
        # Off by +0.3, -0.2, 0, 0, +0.4 percentage points.
        off = [0.050, 0.000, 0.014, 0.007, 0.011]
        self.assertAlmostEqual(stats.trace_replay_err_pct(off), 0.18)
        with self.assertRaises(ValueError):
            stats.trace_replay_err_pct([0.047])


class BenchmarkDefinition(unittest.TestCase):
    def test_per_layer_metrics_match_benchmark_json(self):
        root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        with open(os.path.join(root, "BENCHMARK.json")) as f:
            declared = json.load(f)["per_layer"]
        self.assertEqual([(m["name"], m["unit"], m["better"])
                          for m in declared], layers.per_layer_names())


class Arguments(unittest.TestCase):
    def test_seed_accepts_u64(self):
        self.assertEqual(stats.parse_seed("0"), 0)
        self.assertEqual(stats.parse_seed(str(2**64 - 1)), 2**64 - 1)

    def test_seed_refuses_negative_nan_and_overflow(self):
        for bad in ("-1", "nan", "NaN", "inf", "1e3", "+5", " 5", "",
                    str(2**64), "18446744073709551616000"):
            with self.assertRaises(ValueError, msg=bad):
                stats.parse_seed(bad)

    def parse_fails(self, argv):
        with redirect_stderr(io.StringIO()), self.assertRaises(SystemExit) as e:
            run.parse_args(argv)
        self.assertNotEqual(e.exception.code, 0)

    def test_cli_rejects_bad_arguments(self):
        ok = ["--seconds", "5", "--trace", "0"]
        self.parse_fails(["--workload", "nope", "--seed", "1"] + ok)
        self.parse_fails(["--workload", "design-eval", "--seed", "-1"] + ok)
        self.parse_fails(["--workload", "design-eval", "--seed", "nan"] + ok)
        self.parse_fails(["--workload", "design-eval",
                          "--seed", str(2**64)] + ok)
        self.parse_fails(["--workload", "design-eval", "--seed", "1",
                          "--seconds", "0", "--trace", "0"])
        args = run.parse_args(["--workload", "trace-replay", "--seed", "7"]
                              + ok)
        self.assertEqual((args.workload, args.seed), ("trace-replay", 7))


if __name__ == "__main__":
    unittest.main()
