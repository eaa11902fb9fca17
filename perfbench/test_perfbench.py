"""Tests of the harness's own arithmetic; they need no asdcong.

    python3 -m unittest discover -s perfbench
"""

from __future__ import annotations

import copy
import statistics
import unittest

from stats import TermLog, pair_wins, quartiles, spread, verdict, verdict_digest
from tracer import Span, timed


class UsefulRatio(unittest.TestCase):
    def test_synthetic_call_log(self):
        log = TermLog()
        # Two sums of one series (p=3, m=1): a single running sum to 300 would do.
        log.add((3, 1, "corrected"), 100, prec=5)
        log.add((3, 1, "corrected"), 300, prec=7)
        # Another series needs all of its 50 terms.
        log.add((3, 2, "corrected"), 50, prec=5)
        self.assertEqual(log.calls, 3)
        self.assertEqual(log.terms, 450)
        self.assertAlmostEqual(log.useful_ratio, (300 + 50) / 450)
        self.assertAlmostEqual(log.prec_weighted, (100 * 5 + 300 * 7 + 50 * 5) / 450)

    def test_empty_log(self):
        self.assertEqual(TermLog().useful_ratio, 0.0)
        self.assertEqual(TermLog().prec_weighted, 0.0)

    def test_recursion_counts_once(self):
        span = Span()

        def countdown(n):
            return 0 if n == 0 else wrapped(n - 1)

        wrapped = timed(countdown, span)
        wrapped(5)
        self.assertEqual(span.calls, 1)


class Quartiles(unittest.TestCase):
    def test_matches_statistics_quantiles(self):
        values = [3.1, 2.9, 3.3, 3.0, 3.6, 2.8, 3.2, 3.05, 3.15, 3.4]
        self.assertEqual(quartiles(values), tuple(statistics.quantiles(values, n=4)))

    def test_spread_is_iqr_over_median(self):
        values = [1.0, 2.0, 3.0, 4.0, 5.0]
        q1, q2, q3 = statistics.quantiles(values, n=4)
        self.assertAlmostEqual(spread(values), (q3 - q1) / q2)

    def test_single_value(self):
        self.assertEqual(quartiles([2.5]), (2.5, 2.5, 2.5))


class PairsAndVerdicts(unittest.TestCase):
    parent = [10.0, 10.2, 9.9, 10.1, 10.0, 10.3, 9.8, 10.1, 10.0, 10.2]

    def test_pair_wins_ties_are_no_win(self):
        self.assertEqual(pair_wins([1.0, 2.0, 3.0], [0.5, 2.0, 4.0], "lower"), (3, 1))
        self.assertEqual(pair_wins([1.0, 2.0], [1.5, 2.5], "higher"), (2, 2))

    def test_improved(self):
        change = [v * 0.8 for v in self.parent]
        self.assertEqual(verdict(self.parent, change, "lower", 0.1), "improved")

    def test_nine_tenths_needed(self):
        change = [v * 0.8 for v in self.parent]
        change[0] = change[1] = 11.0  # the change loses two pairs of ten
        self.assertNotEqual(verdict(self.parent, change, "lower", 0.1), "improved")

    def test_no_worse_within_bound(self):
        change = [v * 1.03 for v in self.parent]
        self.assertEqual(verdict(self.parent, change, "lower", 0.1), "no worse within bound")

    def test_regressed(self):
        change = [v * 1.3 for v in self.parent]
        self.assertEqual(verdict(self.parent, change, "lower", 0.1), "regressed")

    def test_unresolved_when_parent_spread_exceeds_bound(self):
        noisy = [8.0, 12.0, 9.0, 11.0, 10.0, 13.0, 7.0, 10.5, 9.5, 12.5]
        change = [v * 1.02 for v in noisy]
        self.assertEqual(verdict(noisy, change, "lower", 0.1), "unresolved")

    def test_identical_counts_are_unchanged(self):
        self.assertEqual(verdict([42, 42], [42, 42], "lower", None), "unchanged")


class Digest(unittest.TestCase):
    cases = [
        {"suite": "thm-main", "params": {"p": 3, "m": 1, "n": 1, "alpha": 1, "variant": "corrected"},
         "required_exponent": 2, "achieved_valuation": 3, "pass": True, "error": None},
        {"suite": "lemma-2-2", "params": {"m": 2, "n": 5},
         "required_exponent": "inf", "achieved_valuation": "inf", "pass": True, "error": None},
    ]

    def test_one_flipped_verdict_changes_digest(self):
        flipped = copy.deepcopy(self.cases)
        flipped[1]["pass"] = False
        self.assertNotEqual(verdict_digest(self.cases), verdict_digest(flipped))

    def test_error_changes_digest(self):
        errored = copy.deepcopy(self.cases)
        errored[0]["error"] = "p divides m"
        self.assertNotEqual(verdict_digest(self.cases), verdict_digest(errored))

    def test_valuations_and_order_do_not_matter(self):
        other = copy.deepcopy(self.cases)[::-1]
        other[0]["achieved_valuation"] = ">=12"
        self.assertEqual(verdict_digest(self.cases), verdict_digest(other))

    def test_case_count_matters(self):
        self.assertNotEqual(verdict_digest(self.cases), verdict_digest(self.cases[:1]))


if __name__ == "__main__":
    unittest.main()
