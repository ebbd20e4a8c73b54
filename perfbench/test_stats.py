"""Pins the benchmark's quantiles against known distributions.

Run: python3 -m unittest discover -s perfbench -p 'test_*.py'
"""

import os
import random
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import stats  # noqa: E402


class QuantileTest(unittest.TestCase):
    def test_uniform_grid(self):
        values = list(range(101))  # 0..100
        self.assertEqual(stats.quantile(values, 0.5), 50)
        self.assertEqual(stats.quantile(values, 0.95), 95)
        self.assertEqual(stats.quantile(values, 0.0), 0)
        self.assertEqual(stats.quantile(values, 1.0), 100)

    def test_interpolates_between_order_statistics(self):
        values = list(range(1, 1001))  # 1..1000
        self.assertAlmostEqual(stats.quantile(values, 0.5), 500.5)
        self.assertAlmostEqual(stats.quantile(values, 0.95), 950.05)

    def test_order_of_input_does_not_matter(self):
        values = list(range(1, 1001))
        shuffled = values[:]
        random.Random(7).shuffle(shuffled)
        self.assertEqual(stats.quantile(values, 0.95),
                         stats.quantile(shuffled, 0.95))

    def test_zero_stays_zero(self):
        values = [0.0] * 90 + [1.0] * 10
        self.assertEqual(stats.median(values), 0.0)

    def test_exponential_sample_matches_analytic_quantiles(self):
        rng = random.Random(11)
        values = [rng.expovariate(1.0) for _ in range(200000)]
        # Exp(1): median ln 2, p95 ln 20.
        self.assertAlmostEqual(stats.median(values), 0.6931, delta=0.01)
        self.assertAlmostEqual(stats.quantile(values, 0.95), 2.9957,
                               delta=0.04)

    def test_counts_samples_beyond_the_tail(self):
        # p95 is reportable from 200 samples on: 10 lie beyond it.
        self.assertEqual(stats.beyond(list(range(100)), 0.95), 5)
        self.assertEqual(stats.beyond(list(range(200)), 0.95), 10)
        self.assertAlmostEqual(stats.quantile(list(range(200)), 0.95), 189.05)

    def test_empty_sample_rejected(self):
        with self.assertRaises(ValueError):
            stats.quantile([], 0.5)


if __name__ == "__main__":
    unittest.main()
