import csv
import json
import statistics

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gfnadapt.landscape import LandscapeTable, build_landscape
from gfnadapt.metrics import (
    RetrievalReport,
    best_so_far,
    compare_methods,
    export_comparison_csv,
    export_report_json,
    top20_stats,
    topk_recovery,
)
from gfnadapt.space import ActionSpec, GroupSpec, ParameterSpec, all_keys, build_space, key_tuples

from conftest import StubScorer, make_tiny_space


def square_space():
    """Two groups of two actions: the four terminals (0,0), (0,1), (1,0), (1,1)."""
    params = [ParameterSpec("a", 0.0, 1.0, 0.5, group=1), ParameterSpec("b", 0.0, 1.0, 0.5, group=2)]
    groups = [GroupSpec(1, "g1", (ActionSpec("none", {}), ActionSpec("up", {"a": 1}))),
              GroupSpec(2, "g2", (ActionSpec("none", {}), ActionSpec("up", {"b": 1})))]
    return build_space(groups, params, 1, 0.3)


SQUARE = square_space()


def small_table():
    rewards = np.array([4.0, 2.0, 1.0, 1.0])
    return LandscapeTable(
        keys=all_keys(SQUARE),
        aggregates=-np.log(rewards),
        log_rewards=np.log(rewards),
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
        assert rows[0][2] == -4.0 * 0.5
        assert rows[2][2] == -4.0 * 0.4

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
            reference.append((best - l_star, -beta * best))
        rows = best_so_far(losses, l_star, beta)
        ns = [n for n, _, _ in rows]
        assert ns[0] == 1 and ns[-1] == len(losses)
        assert ns == sorted(set(ns)) and len(rows) < 20
        rebuilt = []
        for (n, gap, log_r), following in zip(rows, [*ns[1:], len(losses) + 1]):
            rebuilt += [(gap, log_r)] * (following - n)
        assert rebuilt == reference


def keys_of(*keys):
    """An (n, 2) int array of keys, (0, 2) when none is given."""
    return np.array(keys, dtype=np.int64).reshape(len(keys), 2)


def scored(pairs):
    """The scored set (keys, losses) of (key, loss) pairs."""
    keys, losses = zip(*pairs)
    return np.array(keys), np.array(losses, dtype=float)


def recovery_by_sets(keys, table, ks):
    """topk_recovery's counts from Python sets: the top-k keys by (-target
    probability, key), counted among the given keys."""
    terminals = key_tuples(table.keys)
    ranked = sorted(range(len(terminals)), key=lambda i: (-table.target_prob[i], terminals[i]))
    found = set(key_tuples(keys))
    return [(k, sum(terminals[i] in found for i in ranked[:k])) for k in ks]


class TestTopkRecovery:
    def test_full_and_empty(self):
        table = small_table()
        terminals = keys_of(*key_tuples(table.keys))
        assert topk_recovery(terminals, table, SQUARE, [1, 2, 4]) == [(1, 1), (2, 2), (4, 4)]
        assert topk_recovery(keys_of(), table, SQUARE, [1, 4]) == [(1, 0), (4, 0)]

    def test_partial(self):
        table = small_table()
        # top-2 by probability are (0,0) then (0,1); a repeated key counts once
        found = keys_of((0, 0), (1, 1), (0, 0))
        assert topk_recovery(found, table, SQUARE, [1, 2]) == [(1, 1), (2, 1)]

    def test_tie_break_canonical(self):
        table = small_table()
        # (1,0) and (1,1) have equal probability; rank 3 goes to (1,0)
        assert topk_recovery(keys_of((1, 0)), table, SQUARE, [3]) == [(3, 1)]
        assert topk_recovery(keys_of((1, 1)), table, SQUARE, [3]) == [(3, 0)]

    def test_monotone_in_k(self):
        table = small_table()
        found = keys_of((0, 1), (1, 0))
        counts = [c for _, c in topk_recovery(found, table, SQUARE, [1, 2, 3, 4])]
        assert counts == sorted(counts)

    def test_k_exceeds_support(self):
        with pytest.raises(ValueError, match="exceeds"):
            topk_recovery(keys_of(), small_table(), SQUARE, [5])

    def test_tiny_space_equals_sets(self, tiny_space):
        rng = np.random.default_rng(31)
        terminals = key_tuples(all_keys(tiny_space))
        rewards = dict(zip(terminals, rng.integers(1, 4, len(terminals)).astype(float).tolist()))
        table = build_landscape(tiny_space, StubScorer(rewards))
        for n in (0, 1, 3, 6, 10):
            keys = rng.integers(0, tiny_space.slot_radices, (n, tiny_space.slots))
            ks = [1, 2, 4, 6]
            assert topk_recovery(keys, table, tiny_space, ks) == recovery_by_sets(keys, table, ks)

    def test_builtin_space_equals_sets(self, space, full_landscape):
        rng = np.random.default_rng(32)
        for n in (1, 50, 2000):
            keys = rng.integers(0, space.slot_radices, (n, space.slots))
            ks = [10, 20, 50, 2625]
            assert (topk_recovery(keys, full_landscape, space, ks)
                    == recovery_by_sets(keys, full_landscape, ks))


def pair_distance(a, b):
    """The Hamming distance of two keys: the mean pairwise distance of the
    scored set {a, b}, whose one pair it is (0 when a == b, one key)."""
    return top20_stats(np.array([a, b]), np.array([0.0, 1.0]))[1]


class TestTop20Stats:
    def test_duplicates_keep_minimum(self):
        # 21 distinct keys; (0, 0) is among the 20 lowest only at its minimum
        others = [((1, i), 0.5 + 0.01 * i) for i in range(20)]
        med, _, deficient = top20_stats(*scored([((0, 0), 0.8), ((0, 0), 0.3), *others]))
        assert med == pytest.approx(0.585)  # median of {0.3, 0.50, ..., 0.68}
        assert not deficient

    def test_mean_pairwise_hamming(self):
        # 20 keys (i, 0) and one (0, 1): the top 20 are (0, 0)..(19, 0), each
        # pair one slot apart
        evaluated = [((i, 0), float(i)) for i in range(20)] + [((0, 1), 99.0)]
        _, ham, _ = top20_stats(*scored(evaluated))
        assert ham == 1.0

    def test_pair_distance_by_example(self):
        assert pair_distance((1, 2, 3), (1, 2, 3)) == 0
        assert pair_distance((1, 2, 3), (0, 2, 4)) == 2
        with pytest.raises(ValueError):
            top20_stats(np.array([(1, 2)]), np.array([0.0, 1.0]))

    @given(st.data())
    @settings(max_examples=100, deadline=None)
    def test_pair_distance_is_a_metric(self, data):
        sp = make_tiny_space(cycles=2)
        strat = st.tuples(*(st.integers(0, r - 1) for r in sp.slot_radices))
        a, b, c = data.draw(strat), data.draw(strat), data.draw(strat)
        assert pair_distance(a, b) == pair_distance(b, a)
        assert (pair_distance(a, b) == 0) == (a == b)
        assert pair_distance(a, c) <= pair_distance(a, b) + pair_distance(b, c)
        assert pair_distance(a, b) <= sp.slots

    def test_deficiency_flag(self):
        evaluated = [((0, 0), 0.1), ((0, 1), 0.2)]
        _, _, deficient = top20_stats(*scored(evaluated))
        assert deficient

    def test_single_key(self):
        med, ham, deficient = top20_stats(*scored([((1, 2), 0.7)]))
        assert med == 0.7
        assert ham == 0.0
        assert deficient

    def test_selects_lowest_losses(self):
        evaluated = [((i, 0), float(i)) for i in range(30)]
        med, _, deficient = top20_stats(*scored(evaluated))
        assert med == pytest.approx(9.5)  # median of 0..19
        assert not deficient

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            top20_stats(keys_of(), np.array([]))

    @pytest.mark.parametrize("seed", range(5))
    def test_equals_the_per_key_reference(self, seed):
        # repeated keys at several losses each, tied losses across keys, and
        # more than 20 distinct keys: the (median, mean distance) of the 20
        # distinct lowest (loss, key) pairs, each key at its lowest loss
        rng = np.random.default_rng(seed)
        keys = rng.integers(0, 3, (400, 4))
        losses = rng.integers(0, 30, 400) / 8.0
        by_key = {}
        for key, loss in zip(map(tuple, keys.tolist()), losses.tolist()):
            by_key[key] = min(loss, by_key.get(key, loss))
        ranked = sorted(by_key.items(), key=lambda kv: (kv[1], kv[0]))[:20]
        top = [key for key, _ in ranked]
        dists = [sum(x != y for x, y in zip(a, b)) for i, a in enumerate(top) for b in top[i + 1:]]
        med, ham, deficient = top20_stats(keys, losses)
        assert med == statistics.median([loss for _, loss in ranked])
        assert ham == float(np.mean(dists))
        assert not deficient


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
