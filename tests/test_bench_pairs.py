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


# the output of `perfbench/run.py --workload all --seed 1 --seconds 0.5`,
# shortened to the lines the pair tool reads and their neighbours
CANNED_ALL = """\
workload train-warm  seed 1  trace 0
  env numpy: 2.4.6
  ok   landscape.csv has 2625 rows (2625)
  fail_ratio: 0/15 = 0
  setup_s: 0.0983 s (median of 3 set-ups)
  wall_s: 2.2987 s (median of 1 cycles)
  peak_rss_mb: 56.9 MB
  train_s: 2.1086 s
  sample_s: 0.0632 s
  report_s: 0.1269 s
  best_loss: -0.1226265636981753
{"correct": true, "attempted": 15, "failed": 0, "metrics": {"setup_s": {"value": 0.0982549519976601, "unit": "s"}, "wall_s": {"value": 2.298720507998951, "unit": "s"}, "peak_rss_mb": {"value": 56.9140625, "unit": "MB"}}}
workload search-2cycle  seed 1  trace 0
  env numpy: 2.4.6
  fail_ratio: 0/10 = 0
  setup_s: 0.0172 s (median of 3 set-ups)
  wall_s: 0.2247 s (median of 3 cycles)
  peak_rss_mb: 44.1 MB
  baseline_random_s: 0.0363 s
  baseline_tpe_s: 0.1901 s
  best_loss: -0.09858188171184928
{"correct": true, "attempted": 10, "failed": 0, "metrics": {"setup_s": {"value": 0.017196162007167004, "unit": "s"}, "wall_s": {"value": 0.22468444400874432, "unit": "s"}, "peak_rss_mb": {"value": 44.14453125, "unit": "MB"}}}
{"correct": true, "attempted": 25, "failed": 0, "metrics": {"train-warm/setup_s": {"value": 0.0982549519976601, "unit": "s"}, "train-warm/wall_s": {"value": 2.298720507998951, "unit": "s"}, "train-warm/peak_rss_mb": {"value": 56.9140625, "unit": "MB"}, "search-2cycle/setup_s": {"value": 0.017196162007167004, "unit": "s"}, "search-2cycle/wall_s": {"value": 0.22468444400874432, "unit": "s"}, "search-2cycle/peak_rss_mb": {"value": 44.14453125, "unit": "MB"}}}
"""

GATED = [(w, m) for w in ("train-warm", "search-2cycle")
         for m in ("setup_s", "wall_s", "peak_rss_mb")]
STAGES = [("train-warm", "train_s"), ("train-warm", "sample_s"), ("train-warm", "report_s"),
          ("search-2cycle", "baseline_random_s"), ("search-2cycle", "baseline_tpe_s")]


class TestStageTimes:
    def test_readings_hold_the_gated_metrics_then_the_stage_times(self):
        readings = bench_pairs.readings_of(CANNED_ALL.splitlines(), "all")
        assert list(readings) == GATED + STAGES
        assert readings["train-warm", "wall_s"] == 2.298720507998951
        assert readings["train-warm", "train_s"] == 2.1086
        assert readings["search-2cycle", "baseline_tpe_s"] == 0.1901

    def test_one_workload_keys_its_stages_by_that_workload(self):
        lines = CANNED_ALL.splitlines()[:12]  # train-warm's block, its own last line
        readings = bench_pairs.readings_of(lines, "train-warm")
        assert list(readings) == GATED[:3] + STAGES[:3]

    def test_stage_lines_give_medians_and_per_pair_ratios_without_verdicts(self):
        run = bench_pairs.readings_of(CANNED_ALL.splitlines(), "all")
        slower = {key: value * 1.25 for key, value in run.items()}
        readings = {"parent": [run, run, slower], "change": [slower, run, run]}
        lines = bench_pairs.stage_lines(readings, GATED)
        assert [line.split(":")[0] for line in lines] == [f"stage {w}/{s}" for w, s in STAGES]
        assert lines[0] == ("stage train-warm/train_s: parent median 2.109 s, change median "
                            "2.109 s, change/parent medians 1.000; per-pair ratios "
                            "change/parent: 1.250 1.000 0.800")
        assert not any("verdict" in line or "claim" in line for line in lines)

    def test_a_stage_missing_from_a_run_is_left_out(self):
        run = bench_pairs.readings_of(CANNED_ALL.splitlines(), "all")
        renamed = {key: value for key, value in run.items() if key[1] != "report_s"}
        lines = bench_pairs.stage_lines({"parent": [run], "change": [renamed]}, GATED)
        assert len(lines) == 4 and not any("report_s" in line for line in lines)
