"""Self-tests of the comparison rule and of run.py's build tree (run:
python3 perfbench/run.py --self-test, or python3 -m unittest discover
perfbench)."""

import os
import unittest
from pathlib import Path
from unittest import mock

import compare
import run


class PairWinRule(unittest.TestCase):
    def test_ties_count_for_neither(self):
        # 8 wins, 2 ties of 10 pairs: a 0.8 share, not 8/8.
        base = [10.0] * 10
        change = [9.0] * 8 + [10.0] * 2
        self.assertAlmostEqual(compare.pair_wins(base, change, "lower"), 0.8)

    def test_direction(self):
        base, change = [1.0, 2.0], [2.0, 3.0]
        self.assertEqual(compare.pair_wins(base, change, "higher"), 1.0)
        self.assertEqual(compare.pair_wins(base, change, "lower"), 0.0)

    def test_improved_needs_nine_tenths_and_a_gap_beyond_the_spread(self):
        base = [100.0, 101.0, 99.0, 100.5, 99.5, 100.0, 100.2, 99.8, 100.1,
                99.9]
        faster = [v * 0.8 for v in base]
        self.assertEqual(compare.verdict(base, faster, "lower", 0.1),
                         "improved")
        # Nine wins of ten still qualify; eight do not.
        nine = faster[:9] + [base[9] + 1.0]
        self.assertEqual(compare.verdict(base, nine, "lower", 0.1),
                         "improved")
        eight = faster[:8] + [base[8] + 1.0, base[9] + 1.0]
        self.assertNotEqual(compare.verdict(base, eight, "lower", 0.1),
                            "improved")

    def test_regressed_beyond_the_bound(self):
        base = [100.0 + 0.1 * i for i in range(10)]
        slower = [v * 1.3 for v in base]
        self.assertEqual(compare.verdict(base, slower, "lower", 0.1),
                         "regressed")
        within = [v * 1.05 for v in base]
        self.assertEqual(compare.verdict(base, within, "lower", 0.1),
                         "no regression")

    def test_unresolved_when_the_base_spreads_wider_than_the_bound(self):
        base = [50.0, 150.0, 60.0, 140.0, 70.0, 130.0, 80.0, 120.0, 90.0,
                110.0]
        same = list(reversed(base))
        self.assertEqual(compare.verdict(base, same, "lower", 0.1),
                         "unresolved")
        # ... unless every change run beats every base run.
        better = [45.0] * 10
        self.assertEqual(compare.verdict(base, better, "lower", 0.1),
                         "no regression")

    def test_quartiles(self):
        # statistics.quantiles' exclusive method, as the contract check
        # computes spreads; a single run is its own quartiles.
        self.assertEqual(compare.quartiles(list(range(1, 11))),
                         [2.75, 5.5, 8.25])
        self.assertEqual(compare.quartiles([3.0]), [3.0, 3.0, 3.0])


class BuildTreePerCheckout(unittest.TestCase):
    def test_checkouts_sharing_a_target_dir_get_their_own_build(self):
        with mock.patch.dict(os.environ, {"CARGO_TARGET_DIR": "/shared"}):
            a = run.build_dir(Path("/work/base"))
            b = run.build_dir(Path("/work/change"))
            again = run.build_dir(Path("/work/base"))
        self.assertNotEqual(a, b)
        self.assertEqual(a, again)
        self.assertEqual(a.parent, Path("/shared"))

    def test_relative_target_dir_is_under_the_checkout(self):
        with mock.patch.dict(os.environ, {"CARGO_TARGET_DIR": ".bench_build"}):
            d = run.build_dir(Path("/work/base"))
        self.assertEqual(d.parent, Path("/work/base/.bench_build"))


if __name__ == "__main__":
    unittest.main()
