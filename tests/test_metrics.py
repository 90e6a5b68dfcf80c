import csv
import json

import numpy as np
import pytest

from gfnadapt.landscape import LandscapeTable
from gfnadapt.metrics import (
    RetrievalReport,
    best_so_far,
    compare_methods,
    export_comparison_csv,
    export_report_json,
    top20_stats,
    topk_recovery,
)


def small_table():
    keys = [(0, 0), (0, 1), (1, 0), (1, 1)]
    rewards = np.array([4.0, 2.0, 1.0, 1.0])
    return LandscapeTable(
        keys=keys,
        aggregates=-np.log(rewards),
        rewards=rewards,
        target_prob=rewards / rewards.sum(),
    )


def report(method, seed, best, med=0.2, ham=2.0):
    return RetrievalReport(
        method=method,
        seed=seed,
        best_loss=best,
        median_top20_loss=med,
        mean_hamming_top20=ham,
        sample_deficient=False,
    )


class TestBestSoFar:
    def test_hand_example(self):
        rows = best_so_far([0.5, 0.4, 0.6], l_star=0.3, beta=4.0)
        assert [n for n, _, _ in rows] == [1, 2, 3]
        assert [g for _, g, _ in rows] == pytest.approx([0.2, 0.1, 0.1], abs=1e-12)
        assert rows[0][2] == pytest.approx(np.exp(-2.0), rel=1e-12)
        assert rows[2][2] == pytest.approx(np.exp(-1.6), rel=1e-12)

    def test_gap_non_increasing(self):
        rows = best_so_far([0.9, 0.2, 0.5, 0.1, 0.4], 0.0, 4.0)
        gaps = [g for _, g, _ in rows]
        assert gaps == sorted(gaps, reverse=True)

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            best_so_far([], 0.0, 4.0)

    def test_change_points_rebuild_the_running_min(self):
        # ties among the improvements and a tail that never improves
        rng = np.random.default_rng(12)
        losses = [*(rng.integers(0, 40, 300) / 20.0 - 0.5), *(rng.random(50) + 2.0)]
        l_star, beta = -0.6, 4.0
        reference, best = [], float("inf")
        for loss in losses:
            best = min(best, loss)
            reference.append((best - l_star, float(np.exp(-beta * best))))
        rows = best_so_far(losses, l_star, beta)
        ns = [n for n, _, _ in rows]
        assert ns[0] == 1 and ns[-1] == len(losses)
        assert ns == sorted(set(ns)) and len(rows) < 20
        rebuilt = []
        for (n, gap, rew), following in zip(rows, [*ns[1:], len(losses) + 1]):
            rebuilt += [(gap, rew)] * (following - n)
        assert rebuilt == reference


class TestTopkRecovery:
    def test_full_and_empty(self):
        table = small_table()
        all_keys = set(table.keys)
        assert topk_recovery(all_keys, table, [1, 2, 4]) == [(1, 1), (2, 2), (4, 4)]
        assert topk_recovery(set(), table, [1, 4]) == [(1, 0), (4, 0)]

    def test_partial(self):
        table = small_table()
        # top-2 by probability are (0,0) then (0,1)
        assert topk_recovery({(0, 0), (1, 1)}, table, [1, 2]) == [(1, 1), (2, 1)]

    def test_tie_break_canonical(self):
        table = small_table()
        # (1,0) and (1,1) have equal probability; rank 3 goes to (1,0)
        assert topk_recovery({(1, 0)}, table, [3]) == [(3, 1)]
        assert topk_recovery({(1, 1)}, table, [3]) == [(3, 0)]

    def test_monotone_in_k(self):
        table = small_table()
        found = {(0, 1), (1, 0)}
        counts = [c for _, c in topk_recovery(found, table, [1, 2, 3, 4])]
        assert counts == sorted(counts)

    def test_k_exceeds_support(self):
        with pytest.raises(ValueError, match="exceeds"):
            topk_recovery(set(), small_table(), [5])


class TestTop20Stats:
    def test_duplicates_keep_minimum(self):
        # 21 distinct keys; (0, 0) is among the 20 lowest only at its minimum
        others = [((1, i), 0.5 + 0.01 * i) for i in range(20)]
        med, _, deficient = top20_stats([((0, 0), 0.8), ((0, 0), 0.3), *others])
        assert med == pytest.approx(0.585)  # median of {0.3, 0.50, ..., 0.68}
        assert not deficient

    def test_mean_pairwise_hamming(self):
        # 20 keys (i, 0) and one (0, 1): the top 20 are (0, 0)..(19, 0), each
        # pair one slot apart
        evaluated = [((i, 0), float(i)) for i in range(20)] + [((0, 1), 99.0)]
        _, ham, _ = top20_stats(evaluated)
        assert ham == 1.0

    def test_deficiency_flag(self):
        evaluated = [((0, 0), 0.1), ((0, 1), 0.2)]
        _, _, deficient = top20_stats(evaluated)
        assert deficient

    def test_single_key(self):
        med, ham, deficient = top20_stats([((1, 2), 0.7)])
        assert med == 0.7
        assert ham == 0.0
        assert deficient

    def test_selects_lowest_losses(self):
        evaluated = [((i, 0), float(i)) for i in range(30)]
        med, _, deficient = top20_stats(evaluated)
        assert med == pytest.approx(9.5)  # median of 0..19
        assert not deficient

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            top20_stats([])


class TestCompareMethods:
    def test_mean_and_sample_std(self):
        rows = compare_methods(
            [report("random", 1, 0.5), report("random", 2, 0.6)]
        )
        assert len(rows) == 1
        assert rows[0]["best_loss"] == pytest.approx(0.55)
        assert rows[0]["best_loss_std"] == pytest.approx(0.0707106781, abs=1e-9)

    def test_single_seed_std_zero(self):
        rows = compare_methods([report("tpe", 1, 0.4)])
        assert rows[0]["best_loss_std"] == 0.0

    def test_methods_sorted(self):
        rows = compare_methods(
            [report("tpe", 1, 0.4), report("gflownet", 1, 0.3), report("random", 1, 0.5)]
        )
        assert [r["method"] for r in rows] == ["gflownet", "random", "tpe"]

    def test_column_order_snapshot(self, tmp_path):
        path = tmp_path / "comparison.csv"
        export_comparison_csv(path, compare_methods([report("tpe", 1, 0.4)]), "beef")
        assert path.read_text().splitlines()[1] == (
            "method,best_loss,best_loss_std,median_top20,median_top20_std,"
            "mean_hamming_top20,mean_hamming_top20_std"
        )


class TestExports:
    def test_comparison_csv(self, tmp_path):
        rows = compare_methods(
            [report("random", 1, 0.5, med=0.2), report("random", 2, 0.7, med=0.4)]
        )
        path = tmp_path / "comparison.csv"
        export_comparison_csv(path, rows, config_hash="beef")
        with open(path) as fh:
            assert fh.readline().strip() == "# config_hash=beef"
            table = list(csv.DictReader(fh))
        assert table[0]["method"] == "random"
        assert float(table[0]["best_loss"]) == pytest.approx(0.6)
        assert float(table[0]["median_top20"]) == pytest.approx(0.3)
        assert "best_loss_std" in table[0]

    def test_report_json(self, tmp_path):
        r = report("gflownet", 3, 0.25)
        r.best_so_far.append((1, 0.1, 0.9))
        r.topk_recovery.append((10, 7))
        path = tmp_path / "report.json"
        export_report_json(path, [r], {"config_hash": "abcd", "l_star": 0.15})
        doc = json.loads(path.read_text())
        assert doc["config_hash"] == "abcd"
        assert doc["l_star"] == 0.15
        assert doc["reports"][0]["method"] == "gflownet"
        assert doc["reports"][0]["seed"] == 3
        assert doc["reports"][0]["topk_recovery"] == [[10, 7]]
