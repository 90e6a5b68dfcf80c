import csv

import numpy as np
import pytest

from gfnadapt.landscape import (
    BasinAssignment,
    LandscapeTable,
    basin_map,
    build_landscape,
    export_grid_json,
    export_landscape_csv,
    grid_split,
    l1_distance,
    project_grid,
)
from gfnadapt import gflownet as gf
from gfnadapt.space import all_keys, key_tuples, place_values

from conftest import StubScorer, make_tiny_space, neighbors


def table_from_rewards(space, rewards):
    return build_landscape(space, StubScorer(rewards))


def basins_of(space, dist):
    """basin_map of the landscape whose target distribution is dist."""
    return basin_map(table_from_rewards(space, dict(zip(key_tuples(all_keys(space)), dist))), space)


def index_of(space, key):
    """A terminal's index in enumeration order: its place-value sum."""
    return sum(a * pv for a, pv in zip(key, place_values(space.slot_radices)))


def brute_force_ascent(space, table):
    """Independent probability-ascent oracle used to cross-check basin_map."""
    keys = key_tuples(table.keys)
    index = {k: i for i, k in enumerate(keys)}
    probs = table.target_prob

    def step(key):
        best = key
        for nb in sorted(neighbors(space, key)):
            if probs[index[nb]] > probs[index[best]]:
                best = nb
        return best

    mode_of = np.empty(len(keys), dtype=np.int64)
    for i, key in enumerate(keys):
        cur = key
        while True:
            nxt = step(cur)
            if nxt == cur:
                break
            cur = nxt
        mode_of[i] = index[cur]
    return mode_of


class TestBuildLandscape:
    def test_two_state_target(self):
        from gfnadapt.space import ActionSpec, GroupSpec, ParameterSpec, build_space

        sp = build_space(
            [GroupSpec(1, "g", (ActionSpec("none", {}), ActionSpec("up", {"p": 1})))],
            [ParameterSpec("p", 0.0, 1.0, 0.5, group=1)],
            1,
            0.3,
        )
        table = table_from_rewards(sp, {(0,): 1.0, (1,): 3.0})
        assert table.target_prob.tolist() == [0.25, 0.75]

    def test_uniform_rewards(self, tiny_space):
        rewards = {k: 2.0 for k in key_tuples(all_keys(tiny_space))}
        table = table_from_rewards(tiny_space, rewards)
        assert np.allclose(table.target_prob, 1.0 / 6)

    def test_probabilities_sum_to_one(self, full_landscape, space):
        assert full_landscape.target_prob.sum() == pytest.approx(1.0, abs=1e-12)
        assert np.all(full_landscape.target_prob > 0)
        assert len(full_landscape.keys) == 2625
        assert np.array_equal(full_landscape.keys, all_keys(space))

    def test_index_of(self, tiny_space):
        rewards = {k: 1.0 for k in key_tuples(all_keys(tiny_space))}
        table = table_from_rewards(tiny_space, rewards)
        for i, key in enumerate(table.keys):
            assert index_of(tiny_space, key) == i


class TestBasins:
    def test_unimodal(self, tiny_space):
        # one dominant peak at (1, 2); everything must drain into it
        rewards = {
            k: 10.0 if k == (1, 2) else 1.0 + 0.1 * sum(k)
            for k in key_tuples(all_keys(tiny_space))
        }
        table = table_from_rewards(tiny_space, rewards)
        basins = basin_map(table, tiny_space)
        peak = index_of(tiny_space, (1, 2))
        assert set(basins.mode_of.tolist()) == {peak}
        assert basins.basin_mass[peak] == pytest.approx(1.0, abs=1e-12)

    def test_two_peaks_match_brute_force(self, tiny_space):
        rewards = {
            (0, 0): 8.0,
            (0, 1): 2.0,
            (0, 2): 1.0,
            (1, 0): 1.5,
            (1, 1): 0.5,
            (1, 2): 9.0,
        }
        table = table_from_rewards(tiny_space, rewards)
        basins = basin_map(table, tiny_space)
        oracle = brute_force_ascent(tiny_space, table)
        assert np.array_equal(basins.mode_of, oracle)
        modes = set(basins.mode_of.tolist())
        assert modes == {index_of(tiny_space, (0, 0)), index_of(tiny_space, (1, 2))}

    def test_mass_partitions_probability(self, full_landscape, space):
        basins = basin_map(full_landscape, space)
        assert sum(basins.basin_mass.values()) == pytest.approx(1.0, abs=1e-9)
        # every mode is its own fixed point
        for m in basins.basin_mass:
            assert basins.mode_of[m] == m

    def test_full_landscape_matches_brute_force(self, full_landscape, space):
        basins = basin_map(full_landscape, space)
        assert np.array_equal(basins.mode_of, brute_force_ascent(space, full_landscape))

    def test_flat_landscape_ties_break_canonically(self, tiny_space):
        rewards = {k: 1.0 for k in key_tuples(all_keys(tiny_space))}
        table = table_from_rewards(tiny_space, rewards)
        basins = basin_map(table, tiny_space)
        # no strict improvement anywhere, so every state is its own mode
        assert np.array_equal(basins.mode_of, np.arange(6))

    def test_random_landscapes_match_brute_force(self):
        sp = make_tiny_space(cycles=2)
        keys = key_tuples(all_keys(sp))
        for seed in range(5):
            rng = np.random.default_rng(seed)
            rewards = {k: float(rng.uniform(0.1, 5.0)) for k in keys}
            table = table_from_rewards(sp, rewards)
            assert np.array_equal(
                basin_map(table, sp).mode_of, brute_force_ascent(sp, table)
            )

    @pytest.mark.parametrize("cycles", [2, 3])
    def test_tied_rewards_match_brute_force(self, cycles):
        # rewards from {1, 2, 3}: many states have several equally best
        # improving neighbors, so the smallest-key rule decides
        sp = make_tiny_space(cycles=cycles)
        keys = key_tuples(all_keys(sp))
        for seed in range(20):
            rng = np.random.default_rng(seed)
            rewards = dict(zip(keys, rng.integers(1, 4, len(keys)).astype(float).tolist()))
            table = table_from_rewards(sp, rewards)
            basins = basin_map(table, sp)
            oracle = brute_force_ascent(sp, table)
            assert np.array_equal(basins.mode_of, oracle)
            # masses summed in index order, as a loop over the terminals would
            mass = {}
            for i, m in enumerate(oracle.tolist()):
                mass[m] = mass.get(m, 0.0) + float(table.target_prob[i])
            assert basins.basin_mass == mass


class TestAlignment:
    @pytest.mark.parametrize("cycles", [1, 2])
    def test_rows_follow_all_keys(self, cycles):
        # row i of every enumerated array belongs to all_keys' row i
        sp = make_tiny_space(cycles=cycles)
        keys = all_keys(sp)
        tuples = key_tuples(keys)
        rng = np.random.default_rng(cycles)
        rewards = dict(zip(tuples, rng.uniform(0.1, 5.0, len(tuples)).tolist()))
        table = table_from_rewards(sp, rewards)
        assert np.array_equal(table.keys, keys)
        assert table.rewards.tolist() == [rewards[key] for key in tuples]

        basins = basin_map(table, sp)
        assert np.array_equal(basins.mode_of, brute_force_ascent(sp, table))

        grid = project_grid(table.target_prob, sp, basins)
        split = len(grid["row_radices"])
        row_pv = place_values(grid["row_radices"])
        col_pv = place_values(grid["col_radices"])
        for i, key in enumerate(tuples):
            r = sum(a * pv for a, pv in zip(key[:split], row_pv))
            c = sum(a * pv for a, pv in zip(key[split:], col_pv))
            assert grid["mass"][r, c] == table.target_prob[i]
            assert grid["dominant_basin"][r, c] == basins.mode_of[i]

        net = gf.new_policy(sp, (16,), rng, dtype=np.float64)
        for head in net.head_w:
            head += rng.normal(0, 0.5, head.shape)
        learned = gf.exact_terminal_distribution(net, sp)
        assert learned.sum() == pytest.approx(1.0, abs=1e-12)
        for i in range(len(keys)):
            [alone] = np.exp(gf.log_pf(gf._rollout(net, sp, keys=keys[i : i + 1])))
            assert learned[i] == pytest.approx(alone, rel=1e-12)


class TestDistances:
    def test_l1_hand_value(self):
        assert l1_distance([0.2, 0.8], [0.5, 0.5]) == pytest.approx(0.6)

    def test_l1_symmetric_and_zero(self):
        p = np.array([0.1, 0.4, 0.5])
        q = np.array([0.3, 0.3, 0.4])
        assert l1_distance(p, q) == l1_distance(q, p)
        assert l1_distance(p, p) == 0.0

    def test_l1_bounds(self):
        assert l1_distance([1.0, 0.0], [0.0, 1.0]) == 2.0

    def test_shape_mismatch(self):
        with pytest.raises(ValueError, match="mismatch"):
            l1_distance([0.5, 0.5], [1.0])


class TestGrid:
    def test_split_builtin(self, space):
        # radices (3,5,5,5,7): 75x35 is the most nearly square split
        assert grid_split(space) == 3

    def test_split_tiny(self, tiny_space):
        assert grid_split(tiny_space) == 1

    def test_projection_preserves_mass(self, tiny_space):
        dist = np.array([0.05, 0.1, 0.15, 0.2, 0.25, 0.25])
        grid = project_grid(dist, tiny_space, basins_of(tiny_space, dist))
        assert grid["mass"].shape == (2, 3)
        assert grid["mass"].sum() == pytest.approx(1.0)
        # row-major alignment with lexicographic terminal order
        for r in range(2):
            for c in range(3):
                assert grid["mass"][r, c] == dist[r * 3 + c]

    def test_projection_dominant_basin(self, tiny_space):
        rewards = {k: 1.0 for k in key_tuples(all_keys(tiny_space))}
        table = table_from_rewards(tiny_space, rewards)
        basins = basin_map(table, tiny_space)
        grid = project_grid(table.target_prob, tiny_space, basins)
        assert grid["dominant_basin"].shape == (2, 3)
        assert grid["dominant_basin"].ravel().tolist() == basins.mode_of.tolist()


class TestExports:
    def test_csv_roundtrip(self, tiny_space, tmp_path):
        rewards = {k: 1.0 + sum(k) for k in key_tuples(all_keys(tiny_space))}
        table = table_from_rewards(tiny_space, rewards)
        basins = basin_map(table, tiny_space)
        path = tmp_path / "landscape.csv"
        export_landscape_csv(path, table, basins, config_hash="abc123")
        with open(path) as fh:
            first = fh.readline().strip()
            assert first == "# config_hash=abc123"
            rows = list(csv.DictReader(fh))
        assert len(rows) == 6
        for i, row in enumerate(rows):
            assert row["key"] == "-".join(map(str, table.keys[i]))
            assert float(row["reward"]) == table.rewards[i]
            assert float(row["target_prob"]) == table.target_prob[i]

    def test_grid_json(self, tiny_space, tmp_path):
        import json

        dist = np.full(6, 1.0 / 6)
        basins = basins_of(tiny_space, dist)
        grid = project_grid(dist, tiny_space, basins)
        path = tmp_path / "grid.json"
        export_grid_json(path, grid, config_hash="deadbeef")
        doc = json.loads(path.read_text())
        assert doc["config_hash"] == "deadbeef"
        assert doc["row_radices"] == [2]
        assert doc["col_radices"] == [3]
        assert np.array(doc["mass"]).shape == (2, 3)
        assert doc["dominant_basin"] == basins.mode_of.reshape(2, 3).tolist()

    def test_csv_bytes_equal_csv_writer(self, tmp_path):
        # special floats, and keys whose modes lie elsewhere in the table
        sp = make_tiny_space(cycles=2)
        keys = all_keys(sp)
        rng = np.random.default_rng(3)
        special = [np.nan, np.inf, -np.inf, -0.0, 5e-324, 1e-300, -1.25e17, 0.1]
        aggregates = np.array([*special, *rng.normal(0, 1e3, len(keys) - len(special))])
        rewards = rng.random(len(keys))
        table = LandscapeTable(keys, aggregates, rewards, rewards / rewards.sum())
        basins = BasinAssignment(rng.integers(0, len(keys), len(keys)), {})
        path, ref = tmp_path / "landscape.csv", tmp_path / "ref.csv"
        export_landscape_csv(path, table, basins, config_hash="abc123")
        with open(ref, "w", newline="") as fh:  # one csv.writer row per terminal
            writer = csv.writer(fh)
            writer.writerow(["# config_hash=abc123"])
            writer.writerow(["key", "loss", "reward", "target_prob", "mode_key"])
            tuples = key_tuples(keys)
            for i, key in enumerate(tuples):
                writer.writerow(["-".join(map(str, key)), repr(float(aggregates[i])),
                                 repr(float(rewards[i])), repr(float(table.target_prob[i])),
                                 "-".join(map(str, tuples[int(basins.mode_of[i])]))])
        assert path.read_bytes() == ref.read_bytes()

    def test_grid_json_bytes_equal_json_dump(self, tmp_path):
        import json

        sp = make_tiny_space(cycles=2)
        dist = np.random.default_rng(4).random(sp.terminal_count())
        dist /= dist.sum()
        grid = project_grid(dist, sp, basins_of(sp, dist))
        path, ref = tmp_path / "grid.json", tmp_path / "ref.json"
        export_grid_json(path, grid, config_hash="deadbeef")
        with open(ref, "w") as fh:
            json.dump({"config_hash": "deadbeef", "row_radices": grid["row_radices"],
                       "col_radices": grid["col_radices"], "mass": grid["mass"].tolist(),
                       "dominant_basin": grid["dominant_basin"].tolist()}, fh)
        assert path.read_bytes() == ref.read_bytes()
