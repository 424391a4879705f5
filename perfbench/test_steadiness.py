"""Tests of steadiness.py's quartiles and spread.

    python3 -m unittest discover -s perfbench -p 'test_*.py'
"""
import unittest

from steadiness import spread


class SpreadTest(unittest.TestCase):
    def test_quartiles_are_pythons_exclusive_method(self):
        med, q1, q3, s = spread(list(range(10, 0, -1)))
        self.assertEqual((med, q1, q3), (5.5, 2.75, 8.25))
        self.assertAlmostEqual(s, (8.25 - 2.75) / 5.5)

    def test_two_values_extrapolate(self):
        med, q1, q3, s = spread([2.0, 1.0])
        self.assertEqual((med, q1, q3), (1.5, 0.75, 2.25))
        self.assertAlmostEqual(s, 1.0)

    def test_identical_values_have_no_spread(self):
        self.assertEqual(spread([3.0] * 10)[3], 0.0)

    def test_zero_median_is_infinitely_spread(self):
        self.assertEqual(spread([-1.0, 0.0, 1.0])[3], float("inf"))


if __name__ == "__main__":
    unittest.main()
