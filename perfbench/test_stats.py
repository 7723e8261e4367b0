"""Tests for the benchmark's own arithmetic (stats.py).

    python3 -m unittest discover -s perfbench
"""

import random
import statistics
import unittest

import stats


class OrderStatistics(unittest.TestCase):
    def test_median(self):
        self.assertEqual(stats.median([3, 1, 2]), 2)
        self.assertEqual(stats.median([4, 1, 3, 2]), 2.5)

    def test_quartiles_are_the_exclusive_quantiles(self):
        self.assertEqual(stats.quartiles(list(range(1, 10))), (2.5, 7.5))
        rng = random.Random(7)
        sample = [rng.uniform(0, 100) for _ in range(10)]
        q1, _, q3 = statistics.quantiles(sample, n=4)
        self.assertEqual(stats.quartiles(sample), (q1, q3))

    def test_spread_is_iqr_over_median(self):
        self.assertAlmostEqual(stats.spread(list(range(1, 10))), 1.0)
        self.assertEqual(stats.spread([5.0] * 10), 0.0)


class TailRule(unittest.TestCase):
    def test_no_tail_with_fewer_than_ten_samples_beyond_p90(self):
        self.assertIsNone(stats.tail(list(range(99))))
        self.assertIsNone(stats.tail([]))

    def test_p90_needs_one_hundred_samples(self):
        self.assertEqual(stats.tail(list(range(1, 101))), (90.0, 90))

    def test_highest_percentile_with_ten_beyond(self):
        self.assertEqual(stats.tail(list(range(1, 201))), (95.0, 190))
        self.assertEqual(stats.tail(list(range(1, 1001))), (99.0, 990))
        self.assertEqual(stats.tail(list(range(1, 10001))), (99.9, 9990))
        self.assertEqual(stats.tail(list(range(1, 9999))), (99.0, 9899))

    def test_tail_ignores_input_order(self):
        values = list(range(1, 101))
        random.Random(3).shuffle(values)
        self.assertEqual(stats.tail(values), (90.0, 90))


class VmHwm(unittest.TestCase):
    def test_parses_proc_status_line(self):
        self.assertEqual(stats.parse_vmhwm_kb("VmHWM:\t  123456 kB"), 123456)
        self.assertEqual(stats.parse_vmhwm_kb("VmHWM: 7 kB\n"), 7)

    def test_rejects_other_lines(self):
        for line in ("", "VmRSS:\t 10 kB", "VmHWM:\t kB", "VmHWM: 10 MB"):
            with self.assertRaises(ValueError):
                stats.parse_vmhwm_kb(line)


# An episode span (0..100) whose two workers' clone spans overlap:
# worker 0 runs clone 2 (10..60) with a reset child (20..30), worker 1 runs
# clone 3 (40..90).
EPISODE = {
    1: (0, 0.0, 100.0),
    2: (1, 10.0, 60.0),
    3: (1, 40.0, 90.0),
    4: (2, 20.0, 30.0),
}
NAMES = {1: "other", 2: "clone", 3: "clone", 4: "reset"}
WORKERS = {1: 0, 2: 0, 3: 1, 4: 0}


class SelfTime(unittest.TestCase):
    def test_union_length_counts_overlap_once(self):
        self.assertEqual(stats.union_length([(10, 60), (40, 90)]), 80)
        self.assertEqual(stats.union_length([(0, 1), (2, 3), (2.5, 2.7)]), 2)
        self.assertEqual(stats.union_length([]), 0)

    def test_parent_self_time_subtracts_union_of_children(self):
        selfs = stats.self_times(EPISODE)
        self.assertEqual(selfs[1], 20.0)  # 100 - |10..90|
        self.assertEqual(selfs[2], 40.0)  # 50 - the reset child
        self.assertEqual(selfs[3], 50.0)
        self.assertEqual(selfs[4], 10.0)

    def test_busy_time_is_summed_per_worker(self):
        busy = stats.busy_by_name(EPISODE, NAMES, WORKERS)
        self.assertEqual(busy, {"other": 20.0, "clone": 90.0, "reset": 10.0})

    def test_wall_split_sums_to_the_op(self):
        wall = stats.wall_by_name(EPISODE, NAMES, 1)
        # 0..10 and 90..100 the op alone; 10..20 and 30..40 clone 2 alone;
        # 20..30 the reset; 40..60 both clones split it; 60..90 clone 3.
        self.assertEqual(wall, {"other": 20.0, "clone": 70.0, "reset": 10.0})

    def test_wall_split_sums_to_the_op_on_random_trees(self):
        rng = random.Random(11)
        for _ in range(50):
            spans = {1: (0, 0.0, 1000.0)}
            for span_id in range(2, 40):
                parent = rng.randrange(1, span_id)
                _, start, end = spans[parent]
                a, b = sorted(rng.uniform(start, end) for _ in range(2))
                spans[span_id] = (parent, a, b)
            names = {s: "n%d" % (s % 5) for s in spans}
            wall = stats.wall_by_name(spans, names, 1)
            self.assertAlmostEqual(sum(wall.values()), 1000.0, places=6)


if __name__ == "__main__":
    unittest.main()
