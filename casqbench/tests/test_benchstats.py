"""Tests of the benchmark's own helpers.

    python3 -m unittest discover -s casqbench/tests
"""

import json
import os
import statistics
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
sys.path.insert(0, BENCH)

import benchstats as bs  # noqa: E402
import run  # noqa: E402


def span(id_, parent, layer, start, end):
    return {"id": id_, "parent": parent, "layer": layer,
            "start": start, "end": end}


class PercentileTest(unittest.TestCase):
    def test_interpolates_between_ranks(self):
        values = [10.0, 1.0, 4.0, 7.0]  # sorted: 1 4 7 10
        self.assertEqual(bs.percentile(values, 0), 1.0)
        self.assertEqual(bs.percentile(values, 100), 10.0)
        self.assertAlmostEqual(bs.percentile(values, 50), 5.5)
        self.assertAlmostEqual(bs.percentile(values, 90), 9.1)

    def test_median_matches_statistics(self):
        for values in ([3.0], [2.0, 9.0], [5.0, 1.0, 4.0, 2.0, 8.0]):
            self.assertAlmostEqual(bs.median(values),
                                   statistics.median(values))

    def test_rejects_empty_and_out_of_range(self):
        with self.assertRaises(ValueError):
            bs.percentile([], 50)
        with self.assertRaises(ValueError):
            bs.percentile([1.0], 101)


class QuartileTest(unittest.TestCase):
    def test_quartiles_are_statistics_quantiles(self):
        values = [12.0, 10.0, 11.0, 15.0, 9.0, 10.5, 13.0, 10.2, 11.1, 9.9]
        self.assertEqual(bs.quartiles(values),
                         statistics.quantiles(values, n=4))

    def test_spread_is_iqr_over_median(self):
        values = [1.0, 2.0, 3.0, 4.0, 5.0]
        q1, q2, q3 = statistics.quantiles(values, n=4)
        self.assertAlmostEqual(bs.spread(values), (q3 - q1) / q2)
        self.assertEqual(bs.spread([7.0] * 10), 0.0)

    def test_needs_two_values(self):
        with self.assertRaises(ValueError):
            bs.quartiles([1.0])


class SpanTest(unittest.TestCase):
    def test_union_length(self):
        self.assertEqual(bs.union_length([]), 0.0)
        self.assertEqual(bs.union_length([(0, 2), (5, 6)]), 3.0)
        self.assertEqual(bs.union_length([(0, 4), (1, 2), (3, 6)]), 6.0)
        self.assertEqual(bs.union_length([(3, 3), (4, 2)]), 0.0)

    def test_self_time_subtracts_covered_children(self):
        spans = [
            span(0, -1, "shard", 0, 100),
            # Overlapping children count once: they cover 10..60.
            span(1, 0, "passes", 10, 40),
            span(2, 0, "sim", 30, 60),
            # A grandchild reduces its parent, not the root.
            span(3, 2, "circuit", 35, 45),
        ]
        self_ms = bs.layer_self_times(spans, (0, 100))
        self.assertEqual(self_ms["shard"], 50.0)
        self.assertEqual(self_ms["passes"], 30.0)
        self.assertEqual(self_ms["sim"], 20.0)
        self.assertEqual(self_ms["circuit"], 10.0)
        self.assertEqual(sum(self_ms.values()), 110.0)

    def test_self_time_sums_by_layer_and_clips_to_window(self):
        spans = [
            span(0, -1, "service", -50, 20),  # starts before the window
            span(1, -1, "service", 30, 40),
            span(2, -1, "sim", 90, 150),      # ends after it
        ]
        self_ms = bs.layer_self_times(spans, (0, 100))
        self.assertEqual(self_ms["service"], 30.0)
        self.assertEqual(self_ms["sim"], 10.0)

    def test_uncovered_time(self):
        spans = [span(0, -1, "a", 10, 30), span(1, -1, "b", 20, 50),
                 span(2, 1, "c", 25, 26), span(3, -1, "d", 80, 120)]
        self.assertEqual(bs.uncovered_time(spans, (0, 100)), 40.0)
        self.assertEqual(bs.uncovered_time([], (0, 100)), 100.0)

    def test_reads_chrome_trace_events(self):
        trace = {"traceEvents": [
            {"ph": "X", "cat": "sim", "name": "run", "ts": 5.0,
             "dur": 2.5, "pid": 1, "tid": 0,
             "args": {"id": 4, "parent": -1, "request": "job1"}},
            {"ph": "M", "name": "process_name", "args": {}},
        ]}
        spans = bs.spans_from_chrome_trace(json.loads(json.dumps(trace)))
        self.assertEqual(spans, [{"id": 4, "parent": -1, "layer": "sim",
                                  "name": "run", "start": 5.0,
                                  "end": 7.5}])


class AccountingTest(unittest.TestCase):
    def test_requests_and_checks_are_operations(self):
        checks = [{"name": "a", "ok": True}, {"name": "b", "ok": False},
                  {"name": "c", "ok": False}]
        self.assertEqual(bs.account(100, 3, checks), (103, 5))
        self.assertEqual(bs.account(7, 0, []), (7, 0))

    def test_failed_ratio(self):
        self.assertEqual(bs.failed_ratio(103, 5), 5 / 103)
        self.assertEqual(bs.failed_ratio(1, 0), 0.0)
        with self.assertRaises(ValueError):
            bs.failed_ratio(0, 0)

    def test_rejects_impossible_counts(self):
        with self.assertRaises(ValueError):
            bs.account(2, 3, [])
        with self.assertRaises(ValueError):
            bs.account(-1, 0, [])


class CatalogueTest(unittest.TestCase):
    """run.py prints exactly the metrics BENCHMARK.json declares."""

    def test_matches_benchmark_json(self):
        with open(os.path.join(BENCH, "..", "BENCHMARK.json")) as f:
            spec = json.load(f)
        self.assertEqual([(m["name"], m["unit"]) for m in spec["end_to_end"]],
                         run.END_TO_END)
        self.assertEqual([(m["name"], m["unit"]) for m in spec["per_layer"]],
                         run.PER_LAYER)
        self.assertEqual([w["name"] for w in spec["workloads"]],
                         list(run.WORKLOADS))


if __name__ == "__main__":
    unittest.main()
