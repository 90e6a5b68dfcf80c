"""The verdict rules of scripts/bench_pairs.py: the claim and no-regression
readings of one metric's paired runs."""

import importlib.util
import re
from pathlib import Path

import numpy as np
import pytest

_PATH = Path(__file__).resolve().parents[1] / "scripts" / "bench_pairs.py"
_spec = importlib.util.spec_from_file_location("bench_pairs", _PATH)
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)

_VERDICT = re.compile(
    r"claim (met|not met|too few pairs) \(wins (\d+)/(\d+), .*\); no regression (ok|regressed|unresolved|too few pairs) "
)


def verdict(parent, change, better="lower", bound=0.1) -> tuple[str, int, str]:
    """(claim, wins, regression) of the verdict line."""
    line = bench_pairs.verdict(np.asarray(parent, float), np.asarray(change, float), better, bound)
    claim, wins, pairs, regression = _VERDICT.match(line).groups()
    assert int(pairs) == len(parent)
    return claim, int(wins), regression


# ten parent runs: median 1.045, quartiles 1.0225 .. 1.0675 (spread 0.045)
PARENT = 1.0 + 0.01 * np.arange(10)


class TestClaim:
    def test_met_at_nine_wins_with_a_gain_beyond_the_parent_spread(self):
        change = PARENT - 0.2
        change[0] = PARENT[0] + 0.01
        assert verdict(PARENT, change) == ("met", 9, "ok")

    def test_not_met_at_eight_wins(self):
        change = PARENT - 0.2
        change[:2] = PARENT[:2] + 0.01
        assert verdict(PARENT, change) == ("not met", 8, "ok")

    def test_not_met_when_the_gain_is_within_the_parent_spread(self):
        # every pair won, but the medians differ by 0.01 < 0.045
        assert verdict(PARENT, PARENT - 0.01) == ("not met", 10, "ok")

    def test_the_gain_is_printed_as_a_share_of_the_parent_median(self):
        # a gain that wins every pair shows how small it is: 0.0021 of 1.045
        line = bench_pairs.verdict(PARENT, PARENT - 0.0021, "lower", 0.1)
        assert "gain 0.0021 (0.20% of the parent median) vs parent spread 0.045)" in line
        line = bench_pairs.verdict(PARENT, PARENT * 1.05, "lower", 0.1)
        assert "gain -0.05225 (-5.00% of the parent median)" in line

    def test_ties_count_for_neither_side(self):
        assert verdict(PARENT, PARENT) == ("not met", 0, "ok")

    @pytest.mark.parametrize("pairs", [1, 9])
    def test_too_few_pairs_below_ten_whatever_the_gain(self, pairs):
        # every pair won by 0.2; a single run's quartile spread is 0
        parent = PARENT[:pairs]
        assert verdict(parent, parent - 0.2) == ("too few pairs", pairs, "too few pairs")


class TestRegression:
    def test_regressed_beyond_the_bound(self):
        # limit 1.045 * 1.1 = 1.1495; change median 1.045 * 1.12
        assert verdict(PARENT, PARENT * 1.12)[2] == "regressed"

    # a single run's quartile spread is 0, so below ten pairs noise would read
    # as a regression
    @pytest.mark.parametrize("pairs, reading", [(1, "too few pairs"), (9, "too few pairs"),
                                                (10, "regressed")])
    def test_a_clear_regression_needs_ten_pairs(self, pairs, reading):
        parent = PARENT[:pairs]
        assert verdict(parent, parent * 1.5)[2] == reading

    def test_ok_within_the_bound(self):
        assert verdict(PARENT, PARENT * 1.08)[2] == "ok"

    def test_limit_is_parent_median_times_one_plus_bound(self):
        line = bench_pairs.verdict(PARENT, PARENT * 1.08, "lower", 0.1)
        assert f"within {1.045 * 1.1:.4g}" in line

    def test_unresolved_when_the_parent_spread_exceeds_the_bound(self):
        # quartiles 1.0 .. 2.0 around a median of 1.5: spread 0.667 of it
        parent = np.tile([1.0, 2.0], 5)
        assert verdict(parent, parent * 1.01)[2] == "unresolved"
        assert verdict(parent, parent * 0.99)[2] == "unresolved"

    def test_resolved_when_every_change_run_beats_every_parent_run(self):
        parent = np.tile([1.0, 2.0], 5)
        # every pair won, but the gain of 0.6 is within the parent spread of 1
        assert verdict(parent, np.full(10, 0.9)) == ("not met", 10, "ok")
        # one change run tied with the best parent run leaves it unresolved
        change = np.full(10, 0.9)
        change[3] = 1.0
        assert verdict(parent, change)[2] == "unresolved"


class TestHigherIsBetter:
    PARENT = 100.0 + np.arange(10)  # median 104.5, spread 4.5

    def test_claim_met_on_a_rise(self):
        assert verdict(self.PARENT, self.PARENT + 20, "higher", 0.2) == ("met", 10, "ok")

    def test_a_fall_within_the_bound_is_ok(self):
        assert verdict(self.PARENT, self.PARENT * 0.85, "higher", 0.2) == ("not met", 0, "ok")

    @pytest.mark.parametrize("factor", [0.75, 0.5])
    def test_regressed_below_parent_times_one_minus_bound(self, factor):
        assert verdict(self.PARENT, self.PARENT * factor, "higher", 0.2) == (
            "not met", 0, "regressed"
        )
