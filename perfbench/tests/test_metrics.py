"""Tests of the benchmark's own arithmetic (perfbench/metrics.py).

    python3 -m unittest discover -s perfbench/tests
"""

import sys
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))
import metrics  # noqa: E402


class TailRule(unittest.TestCase):
    def test_highest_ladder_percentile_with_ten_beyond(self):
        # 1000 samples: p99 leaves 10 beyond, p99.9 only 1.
        q, value, n = metrics.tail(list(range(1, 1001)))
        self.assertEqual((q, value, n), (99.0, 990, 1000))
        self.assertEqual(metrics.samples_beyond(1000, 99.0), 10)

    def test_one_sample_short_falls_back_a_rung(self):
        # 999 samples: p99 is rank 990, 9 beyond -- too few; p90 it is.
        q, value, _ = metrics.tail(list(range(1, 1000)))
        self.assertEqual(q, 90.0)
        self.assertEqual(value, 900)
        self.assertGreaterEqual(metrics.samples_beyond(999, q), 10)

    def test_twenty_samples_only_support_the_median(self):
        q, value, _ = metrics.tail(list(range(20, 0, -1)))
        self.assertEqual((q, value), (50.0, 10))
        # An even count: the tail's fallback rung is the p50 itself.
        self.assertEqual(metrics.windowed_p50(list(range(20, 0, -1))),
                         (10, 1))

    def test_too_few_samples_have_no_tail(self):
        with self.assertRaises(ValueError):
            metrics.tail(list(range(19)))

    def test_every_reported_tail_has_ten_beyond(self):
        for n in range(20, 3000, 37):
            values = list(range(n))
            q, value, _ = metrics.tail(values)
            self.assertGreaterEqual(sum(v > value for v in values), 10)
            higher = [r for r in metrics.TAIL_LADDER if r > q]
            if higher:
                self.assertLess(metrics.samples_beyond(n, higher[0]), 10)


class Windows(unittest.TestCase):
    def test_equal_consecutive_windows(self):
        parts = metrics.windows(list(range(2500)), 1000)
        self.assertEqual([len(p) for p in parts], [1250, 1250])
        self.assertEqual(parts[1][0], 1250)
        self.assertEqual(len(metrics.windows(list(range(21)), 500)), 1)

    def test_windowed_tail_keeps_ten_beyond_in_every_window(self):
        values = [float(i % 1000) for i in range(3000)]
        q, value, size, count = metrics.windowed_tail(values)
        self.assertEqual((q, size, count), (99.0, 1000, 3))
        self.assertEqual(value, 989.0)
        self.assertGreaterEqual(metrics.samples_beyond(size, q), 10)

    def test_a_burst_moves_only_its_window(self):
        # Six windows of 500; one of them hit by a stall.
        values = [1.0] * 3000
        values[1000:1500] = [100.0] * 500
        self.assertEqual(metrics.windowed_p50(values), (1.0, 6))
        tail_values = [1.0] * 3000
        tail_values[0:40] = [50.0] * 40
        self.assertEqual(metrics.windowed_tail(tail_values)[1], 1.0)
        self.assertEqual(metrics.tail(tail_values)[1], 50.0)


class SelfTime(unittest.TestCase):
    def span(self, begin, end, parent=0):
        return {"begin": begin, "end": end, "parent": parent, "layer": "x",
                "op": 1}

    def test_span_minus_children(self):
        spans = {1: self.span(0.0, 10.0), 2: self.span(1.0, 3.0, 1),
                 3: self.span(4.0, 6.0, 1)}
        own = metrics.self_times(spans)
        self.assertAlmostEqual(own[1], 6.0)
        self.assertAlmostEqual(own[2], 2.0)
        self.assertAlmostEqual(own[3], 2.0)

    def test_overlapping_and_overhanging_children_count_once(self):
        # Children cover [1, 5] and [8, 10] of the parent: 6 of its 10.
        spans = {1: self.span(0.0, 10.0), 2: self.span(1.0, 3.0, 1),
                 3: self.span(2.0, 5.0, 1), 4: self.span(8.0, 12.0, 1)}
        self.assertAlmostEqual(metrics.self_times(spans)[1], 4.0)

    def test_grandchildren_only_reduce_their_parent(self):
        spans = {1: self.span(0.0, 10.0), 2: self.span(0.0, 4.0, 1),
                 3: self.span(1.0, 2.0, 2)}
        own = metrics.self_times(spans)
        self.assertAlmostEqual(own[1], 6.0)
        self.assertAlmostEqual(own[2], 3.0)
        self.assertAlmostEqual(sum(own.values()), 10.0)

    def test_layer_self_time_per_operation(self):
        spans = {
            1: {"begin": 0.0, "end": 4.0, "parent": 0, "layer": "service",
                "op": 1},
            2: {"begin": 1.0, "end": 3.0, "parent": 1, "layer": "engine",
                "op": 1},
            3: {"begin": 5.0, "end": 7.0, "parent": 0, "layer": "service",
                "op": 2},
            # Set-up spans (op 0) are not part of any operation.
            4: {"begin": 0.0, "end": 100.0, "parent": 0, "layer": "engine",
                "op": 0},
        }
        self.assertEqual(metrics.layer_self_ms_per_op(spans),
                         {"service": 2.0, "engine": 1.0})


class FailFrac(unittest.TestCase):
    def test_refusals_and_expiries_are_failures(self):
        self.assertAlmostEqual(metrics.fail_frac(100, 1, 2, 3), 0.06)
        self.assertEqual(metrics.fail_frac(100, 0, 0, 0), 0.0)
        self.assertEqual(metrics.fail_frac(4, 0, 4, 0), 1.0)
        self.assertEqual(metrics.fail_frac(4, 0, 0, 4), 1.0)

    def test_nothing_attempted_is_an_error(self):
        with self.assertRaises(ValueError):
            metrics.fail_frac(0, 0, 0, 0)


class DowndateCounts(unittest.TestCase):
    # Two leaves under a root, batch size 2:
    #   leaf A: 2 atoms (n = 6), 3 constraints -> batches of 2 and 1
    #   leaf B: 1 atom  (n = 3), 1 constraint  -> one batch of 1
    #   root:   3 atoms (n = 9), 5 constraints -> batches of 2, 2 and 1
    # Per batch: flops 2*m*n^2, bytes 8*(2*n^2 + m*n).
    SHAPE = {"batch_size": 2, "nodes": [[6, 3], [3, 1], [9, 5]]}

    def test_hand_counted_two_leaf_hierarchy(self):
        flops, moved = metrics.downdate_counts(self.SHAPE)
        leaf_a = (2 * 2 * 36 + 2 * 1 * 36, 8 * (72 + 12) + 8 * (72 + 6))
        leaf_b = (2 * 1 * 9, 8 * (18 + 3))
        root = (2 * (2 * 2 * 81) + 2 * 1 * 81,
                2 * 8 * (162 + 18) + 8 * (162 + 9))
        self.assertEqual(flops, 216 + 18 + 810)
        self.assertEqual(flops, leaf_a[0] + leaf_b[0] + root[0])
        self.assertEqual(moved, 1296 + 168 + 4248)
        self.assertEqual(moved, leaf_a[1] + leaf_b[1] + root[1])

    def test_batches_match_the_sweep(self):
        self.assertEqual(metrics.batch_sizes(5, 2), [2, 2, 1])
        self.assertEqual(metrics.batch_sizes(4, 2), [2, 2])
        self.assertEqual(metrics.batch_sizes(0, 16), [])
        self.assertEqual(metrics.total_batches(self.SHAPE), 6)


class AccuracyCheck(unittest.TestCase):
    @staticmethod
    def record(workload, rmsd, start):
        return {"workload": workload, "checks": {}, "shapes": {},
                "solves": [], "samples": {"rmsd_A": [rmsd] * 5},
                "values": {"initial_rmsd_A": start}}

    def accuracy(self, rec):
        return [ok for name, ok, _ in metrics.correctness(rec)
                if name.startswith("rmsd_A")]

    def test_a_solver_that_returns_its_start_fails(self):
        for workload, bound in metrics.RMSD_BOUND_A.items():
            start = bound * 1.1
            self.assertEqual(self.accuracy(self.record(workload, start,
                                                       start)), [False])
            self.assertEqual(self.accuracy(self.record(workload, bound,
                                                       start)), [True])

    def test_a_bound_at_or_above_the_start_fails(self):
        bound = metrics.RMSD_BOUND_A["helix-serve"]
        self.assertEqual(self.accuracy(self.record("helix-serve", 0.1,
                                                   bound)), [False])


class Percentile(unittest.TestCase):
    def test_nearest_rank(self):
        values = [5, 1, 4, 2, 3]
        self.assertEqual(metrics.percentile(values, 50), 3)
        self.assertEqual(metrics.percentile(values, 99), 5)
        self.assertEqual(metrics.percentile(values, 1), 1)

    def test_rank_is_not_pushed_up_by_float_noise(self):
        # 99.9 / 100 * 1000 is 999.0000000000001 in floating point.
        self.assertEqual(metrics.nearest_rank(1000, 99.9), 999)
        self.assertEqual(metrics.samples_beyond(10000, 99.9), 10)


if __name__ == "__main__":
    unittest.main()
