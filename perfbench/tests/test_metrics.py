"""Unit tests of the benchmark's metric helpers.

    python3 -m unittest discover -s perfbench/tests
"""

import math
import os
import sys
import unittest

sys.path.insert(0, os.path.join(os.path.dirname(__file__), ".."))

import metrics  # noqa: E402


class TailPercentileRule(unittest.TestCase):
    def test_samples_beyond_counts_order_statistics_above(self):
        self.assertEqual(metrics.samples_beyond(100, 0.9), 10)
        self.assertEqual(metrics.samples_beyond(99, 0.9), 9)
        self.assertEqual(metrics.samples_beyond(200, 0.95), 10)
        self.assertEqual(metrics.samples_beyond(1000, 0.99), 10)
        self.assertEqual(metrics.samples_beyond(999, 0.99), 9)

    def test_tail_needs_ten_beyond(self):
        values = list(range(100))
        self.assertAlmostEqual(metrics.tail_percentile(values, 0.9), 89.1)
        with self.assertRaises(metrics.MetricError):
            metrics.tail_percentile(values[:99], 0.9)
        with self.assertRaises(metrics.MetricError):
            metrics.tail_percentile(list(range(999)), 0.99)

    def test_median_needs_no_tail(self):
        self.assertEqual(metrics.percentile([3.0, 1.0, 2.0], 0.5), 2.0)
        with self.assertRaises(metrics.MetricError):
            metrics.percentile([], 0.5)


class SelfTime(unittest.TestCase):
    def test_nested_children_are_subtracted_once(self):
        spans = [
            ("calibrate", 1, 0, 100, -1),
            ("preprocess", 1, 10, 20, -1),   # [10, 30)
            ("unwrap", 1, 15, 5, -1),        # inside preprocess
            ("radical", 1, 40, 20, -1),      # [40, 60)
            ("radical", 2, 0, 1000, -1),     # another thread: no effect
        ]
        selfs = metrics.self_times(spans)
        self.assertEqual(selfs["calibrate"], [60])  # 100 - 20 - 20
        self.assertEqual(selfs["preprocess"], [15])  # 20 - 5
        self.assertEqual(selfs["unwrap"], [5])
        self.assertEqual(sorted(selfs["radical"]), [20, 1000])

    def test_unnested_spans_neither_nest_nor_count(self):
        spans = [
            ("serve_solve", 3, 100, 50, 7),
            ("queue_wait", 3, 0, 100, 7),  # overlaps the previous solve
            ("calibrate", 3, 110, 30, -1),
        ]
        selfs = metrics.self_times(spans)
        self.assertNotIn("queue_wait", selfs)
        self.assertEqual(selfs["serve_solve"], [20])
        self.assertEqual(selfs["calibrate"], [30])

    def test_critical_path_adds_up_to_the_latency(self):
        ms = 1_000_000
        ingest = ("ingest", 1, 10 * ms, 4 * ms, -1)       # 10..14
        queue = ("queue_wait", 5, 12 * ms, 3 * ms, 9)     # 12..15
        solve = ("serve_solve", 5, 15 * ms, 100 * ms, 9)  # 15..115
        emit = ("emit", 5, 116 * ms, 1 * ms, -1)          # 116..117
        hold = ("reorder", 6, 116 * ms, 4 * ms, 3)        # released at 120
        parts = metrics.critical_path(0, 125 * ms, ingest, queue, solve,
                                      emit, hold)
        self.assertEqual(parts, {"ingest": 2.0, "queue_wait": 3.0,
                                 "serve_solve": 100.0, "emit_reorder": 4.0,
                                 "unattributed": 16.0})
        self.assertAlmostEqual(sum(parts.values()), 125.0)


def open_loop(stall_at=None, stall_s=0.0, n=200, gap=0.01, service=0.001):
    """Ops due every `gap` seconds; the generator freezes for `stall_s` at
    `stall_at`, so every op due during the stall leaves when it ends."""
    ops = []
    for k in range(n):
        s = k * gap
        t = s
        if stall_at is not None and stall_at <= s < stall_at + stall_s:
            t = stall_at + stall_s
        ops.append({"k": "F", "s": s, "t": t, "r": t + service, "ok": 1})
    return ops


class Lateness(unittest.TestCase):
    def test_latency_counts_from_the_scheduled_send(self):
        ops = open_loop(stall_at=1.0, stall_s=0.3)
        lags, latency = metrics.lateness(ops)
        # The first op caught by the stall waited the whole stall.
        self.assertAlmostEqual(max(latency), 301.0, places=6)
        self.assertAlmostEqual(max(lags), 300.0, places=6)
        # Timed from the actual send, every op would read 1 ms.
        self.assertAlmostEqual(min(latency), 1.0, places=6)

    def test_stall_flags_the_run(self):
        lag, _, reasons = metrics.generator_verdict(
            open_loop(stall_at=1.0, stall_s=0.3), [], [])
        self.assertGreater(lag, metrics.LAG_LIMIT_MS)
        self.assertEqual(len(reasons), 1)
        _, _, reasons = metrics.generator_verdict(open_loop(), [], [])
        self.assertEqual(reasons, [])

    def test_growing_backlog_flags_the_run(self):
        ts = [0.1 * k for k in range(100)]
        steady = [5 + (k % 3) for k in range(100)]
        growing = [k for k in range(100)]
        _, slope, reasons = metrics.generator_verdict(open_loop(), ts, steady)
        self.assertAlmostEqual(slope, 0.0, delta=0.05)
        self.assertEqual(reasons, [])
        _, slope, reasons = metrics.generator_verdict(open_loop(), ts,
                                                      growing)
        self.assertAlmostEqual(slope, 10.0)
        self.assertEqual(len(reasons), 1)

    def test_unsent_or_unanswered_ops_miss_every_limit(self):
        ops = [{"s": 0.0, "t": -1.0, "r": -1.0},
               {"s": 0.0, "t": 0.0, "r": -1.0},
               {"s": 0.0, "t": 0.0, "r": 0.002}]
        lags, latency = metrics.lateness(ops)
        self.assertEqual(len(lags), 2)
        self.assertEqual(latency[:2], [math.inf, math.inf])
        self.assertAlmostEqual(latency[2], 2.0)


class FailedOperations(unittest.TestCase):
    def test_counts_sections_and_op_verdicts(self):
        raw = {
            "setup": {"attempted": 7, "failed": 0},
            "batch": {"attempted": 100, "failed": 2},
            "ingest": {"attempted": 30, "failed": 1},
            "flush": {"attempted": 10, "failed": 0, "ops": [
                {"ok": 1, "r": 1.0},
                {"ok": 0, "r": 1.0},    # answered, failed its check
                {"ok": 0, "r": -1.0},   # never answered
                {"ok": 1, "r": 2.0},
            ]},
        }
        self.assertEqual(metrics.count_operations(raw), (151, 5))

    def test_clean_run_has_no_failures(self):
        raw = {"setup": {"attempted": 1, "failed": 0},
               "flush": {"attempted": 2, "failed": 0,
                         "ops": [{"ok": 1, "r": 0.5}]}}
        self.assertEqual(metrics.count_operations(raw), (4, 0))


if __name__ == "__main__":
    unittest.main()
