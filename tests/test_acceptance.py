"""End-to-end acceptance checks for the whole package.

Each test prints one PASS line (visible with -s or -rA); the test name states
the behavior under check. Several tests carry explicit runtime budgets.
"""

import csv
import json
import time

import numpy as np
import pytest

from gfnadapt import gflownet as gf
from gfnadapt.cli import main as cli_main
from gfnadapt.config import load_config
from gfnadapt.landscape import basin_map, build_landscape, l1_distance
from gfnadapt.rewards import TerminalScorer, aggregate, normalize
from gfnadapt.simulator import (
    DEFAULT_TRUTH_KEY,
    generate_contexts,
    simulate,
    synthesize_observations,
)
from gfnadapt.space import all_keys, decode_state, key_tuples, place_values

from conftest import (
    DEFAULT_CFG, StubScorer, fixed_passes, make_tiny_space, neighbors, tb_fresh,
)


def _ok(line):
    print(f"PASS {line}")


def test_builtin_space_structure(space):
    start = time.monotonic()
    assert [len(g.actions) for g in space.groups] == [3, 5, 5, 5, 7]
    keys = key_tuples(all_keys(space))
    assert len(keys) == 2625 == space.terminal_count()
    assert len(set(keys)) == 2625
    elapsed = time.monotonic() - start
    assert elapsed < 1.0
    _ok(f"space structure: 2625 terminals, action counts (3,5,5,5,7) [{elapsed:.2f}s]")


def test_decode_matches_bruteforce_oracle(space):
    import dataclasses

    def oracle_decode(sp, key):
        # independent straight-line reimplementation of the update rule
        theta = {p.name: p.baseline for p in sp.parameters}
        n_groups = len(sp.groups)
        for t, a in enumerate(key):
            group = sp.groups[t % n_groups]
            cycle = t // n_groups + 1
            eta = 0.5 ** (cycle - 1)
            action = group.actions[a]
            for pname, sign in action.signs.items():
                if sign == 0:
                    continue
                p = next(q for q in sp.parameters if q.name == pname)
                val = theta[pname] + eta * sp.step_fraction * sign * (p.upper - p.lower)
                theta[pname] = min(max(val, p.lower), p.upper)
        return theta

    start = time.monotonic()
    rng = np.random.default_rng(0)
    for cycles in (1, 2):
        sp = space if cycles == 1 else dataclasses.replace(space, cycles=2)
        radices = sp.slot_radices
        for _ in range(5000):
            key = tuple(int(rng.integers(r)) for r in radices)
            got = decode_state(sp, key)
            want = oracle_decode(sp, key)
            for name, value in want.items():
                assert got[name] == pytest.approx(value, rel=1e-12, abs=1e-15)
    elapsed = time.monotonic() - start
    assert elapsed < 5.0
    _ok(f"decode oracle: 10^4 random keys, cycles 1-2, 1e-12 relative [{elapsed:.2f}s]")


def test_loss_records_match_independent_recomputation(space, obs_contexts, fitted_scorer):
    rng = np.random.default_rng(1)
    radices = space.slot_radices
    q = fitted_scorer.quantiles
    cfg = fitted_scorer.config
    lam, k = cfg["reward.lambda"], cfg["reward.k_tail"]
    for _ in range(100):
        key = tuple(int(rng.integers(r)) for r in radices)
        [loss], [rew] = fitted_scorer.score([key])
        [got_raw] = fitted_scorer.raw_losses([key])
        params = decode_state(space, key)
        raw = np.array(
            [
                np.mean(
                    np.abs(simulate(params, ctx) - ctx.obs_values)
                    / (np.abs(ctx.obs_values) + 1e-6)
                )
                for ctx in obs_contexts
            ]
        )
        assert got_raw == pytest.approx(raw, rel=1e-10)
        norm = (raw - q.q_lo) / (q.q_hi - q.q_lo + 1e-8)
        assert normalize(got_raw, q) == pytest.approx(norm, rel=1e-10)
        ordered = sorted(norm, reverse=True)
        agg = 0.75 * np.mean(norm) + 0.25 * np.mean(ordered[:2])
        assert loss == pytest.approx(agg, rel=1e-10)
        for beta in (2.0, 4.0, 8.0):
            assert np.exp(-beta * loss) == pytest.approx(
                np.exp(-beta * agg), rel=1e-10
            )
        assert rew == pytest.approx(np.exp(-cfg["reward.beta"] * agg), rel=1e-10)
        # tail blend is exactly invariant to the order of context losses
        perm = rng.permutation(norm)
        assert aggregate(perm, lam, k) == aggregate(norm, lam, k)
    _ok("reward pipeline: 100 terminals recomputed to 1e-10, order invariance exact")


def test_distributions_are_normalized(space, full_landscape):
    assert abs(full_landscape.target_prob.sum() - 1.0) < 1e-9
    rng = np.random.default_rng(2)
    net = gf.new_policy(space, (32, 32), rng)
    for head in net.head_w:
        head += rng.normal(0, 1.0, head.shape)
    probs = gf.exact_terminal_distribution(net, space)
    assert abs(probs.sum() - 1.0) < 1e-9
    _ok("normalization: landscape target and exact policy distribution sum to 1")


def test_gradients_match_finite_differences():
    start = time.monotonic()
    sp = make_tiny_space()
    rng = np.random.default_rng(3)
    net = gf.new_policy(sp, (8, 8, 8), rng, dtype=np.float64)
    for head in net.head_w:
        head += rng.normal(0, 0.3, head.shape)
    keys = [(0, 0), (1, 2), (0, 1), (1, 0)]
    log_r = np.array([0.0, 0.7, -0.5, 1.1])
    _, grads = tb_fresh(net, fixed_passes(net, sp, keys), log_r)
    h = 1e-4
    worst = 0.0
    idx_rng = np.random.default_rng(4)
    for arr, g in zip(net.params(), grads.params()):
        flat, gflat = arr.ravel(), g.ravel()
        for idx in idx_rng.choice(flat.size, size=min(15, flat.size), replace=False):
            orig = flat[idx]
            flat[idx] = orig + h
            up, _ = tb_fresh(net, fixed_passes(net, sp, keys), log_r)
            flat[idx] = orig - h
            down, _ = tb_fresh(net, fixed_passes(net, sp, keys), log_r)
            flat[idx] = orig
            fd = (up - down) / (2 * h)
            rel = abs(fd - gflat[idx]) / max(abs(fd), abs(gflat[idx]), 1e-8)
            worst = max(worst, rel)
            assert rel <= 1e-4
    elapsed = time.monotonic() - start
    assert elapsed < 10.0
    _ok(f"gradient check: worst relative error {worst:.2e} [{elapsed:.2f}s]")


def test_small_space_learning_fidelity(tiny_space):
    start = time.monotonic()
    rewards = {
        (0, 0): 1.0, (0, 1): 2.0, (0, 2): 0.5,
        (1, 0): 3.0, (1, 1): 1.5, (1, 2): 0.25,
    }
    target = np.array([rewards[k] for k in key_tuples(all_keys(tiny_space))])
    target = target / target.sum()
    l1s = []
    for seed in (1, 2, 3):
        result = gf.train(
            tiny_space,
            StubScorer(dict(rewards)),
            {**DEFAULT_CFG, "train.steps": 1500, "train.batch": 16, "train.lr": 5e-4,
             "train.hidden": [64, 64]},
            seed,
        )
        learned = gf.exact_terminal_distribution(result.net, tiny_space)
        l1s.append(l1_distance(learned, target))
    elapsed = time.monotonic() - start
    assert float(np.median(l1s)) <= 0.05
    assert elapsed < 30.0
    _ok(f"small-space fidelity: median L1 {np.median(l1s):.4f} <= 0.05 [{elapsed:.1f}s]")


def test_full_space_learning_fidelity(space, fitted_scorer, full_landscape):
    start = time.monotonic()
    keys = key_tuples(full_landscape.keys)
    top50 = {
        keys[i]
        for i in sorted(range(2625), key=lambda i: (-full_landscape.target_prob[i], keys[i]))[:50]
    }
    l1s, recoveries = [], []
    for seed in (1, 2, 3):
        result = gf.train(
            space, fitted_scorer, {**DEFAULT_CFG, "train.steps": 1000, "train.batch": 16}, seed
        )
        learned = gf.exact_terminal_distribution(result.net, space)
        l1s.append(l1_distance(learned, full_landscape.target_prob))
        samples = set(key_tuples(
            gf.sample_terminals(result.net, space, 5000, np.random.default_rng(seed))
        ))
        recoveries.append(len(samples & top50) / 50.0)
    elapsed = time.monotonic() - start
    assert float(np.median(l1s)) <= 0.30
    assert float(np.median(recoveries)) >= 0.50
    assert elapsed < 900.0
    _ok(
        f"full-space fidelity: median L1 {np.median(l1s):.3f} <= 0.30, "
        f"median top-50 recovery {np.median(recoveries):.0%} >= 50% [{elapsed:.0f}s]"
    )


def test_basin_analysis(tiny_space, space, full_landscape):
    from test_landscape import brute_force_ascent

    # crafted unimodal landscape: one basin, membership matches exhaustive ascent
    uni = build_landscape(
        tiny_space,
        StubScorer(
            {k: (10.0 if k == (1, 1) else 1.0 + 0.1 * sum(k))
             for k in key_tuples(all_keys(tiny_space))}
        ),
    )
    uni_basins = basin_map(uni, tiny_space)
    assert len(uni_basins.basin_mass) == 1
    assert np.array_equal(uni_basins.mode_of, brute_force_ascent(tiny_space, uni))

    # crafted two-peak landscape: two basins, membership matches exhaustive ascent
    two = build_landscape(
        tiny_space,
        StubScorer(
            {(0, 0): 8.0, (0, 1): 2.0, (0, 2): 1.0,
             (1, 0): 1.5, (1, 1): 0.5, (1, 2): 9.0}
        ),
    )
    two_basins = basin_map(two, tiny_space)
    assert len(two_basins.basin_mass) == 2
    assert np.array_equal(two_basins.mode_of, brute_force_ascent(tiny_space, two))

    # full landscape: every mode locally maximal, masses partition the total
    basins = basin_map(full_landscape, space)
    keys = key_tuples(full_landscape.keys)
    index = {k: i for i, k in enumerate(keys)}
    for m in basins.basin_mass:
        p = full_landscape.target_prob[m]
        for nb in neighbors(space, keys[m]):
            assert full_landscape.target_prob[index[nb]] <= p
    assert abs(sum(basins.basin_mass.values()) - 1.0) < 1e-9
    _ok(
        f"basins: fixtures match exhaustive ascent; full landscape has "
        f"{len(basins.basin_mass)} locally maximal modes, mass partition exact"
    )


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    """Full comparison harness on the built-in space: enumerate, train and
    both baselines at a 2000-evaluation budget with 3 seeds, then report."""
    out_dir = tmp_path_factory.mktemp("harness")
    overrides = [
        f"run.out_dir={out_dir}",
        "train.budget=2000",
    ]

    def run(command, *extra):
        argv = [command]
        for pair in overrides + list(extra):
            argv += ["--set", pair]
        return cli_main(argv)

    start = time.monotonic()
    assert run("enumerate") == 0
    assert run("train") == 0
    assert run("baseline", "run.method=random") == 0
    assert run("baseline", "run.method=tpe") == 0
    assert run("report") == 0
    elapsed = time.monotonic() - start
    cfg = load_config(overrides=overrides)
    return cfg, run, elapsed


def test_budget_matched_comparison_harness(pipeline):
    cfg, _, elapsed = pipeline
    root = cfg.out_root()
    with open(root / "report" / "comparison.csv") as fh:
        fh.readline()
        rows = list(csv.DictReader(fh))
    assert [r["method"] for r in rows] == ["gflownet", "random", "tpe"]
    for col in ("best_loss", "median_top20", "mean_hamming_top20"):
        for row in rows:
            assert np.isfinite(float(row[col]))
            assert np.isfinite(float(row[col + "_std"]))
    doc = json.loads((root / "report" / "report.json").read_text())
    assert {r["seed"] for r in doc["reports"]} == {1, 2, 3}
    for method in ("random", "tpe"):
        for seed in (1, 2, 3):
            trace = root / f"baseline-{method}" / str(seed) / "trace.csv"
            assert sum(1 for _ in open(trace)) == 2000 + 2
    assert elapsed < 1800.0
    _ok(
        f"comparison harness: 3 methods x 3 seeds at budget 2000, "
        f"comparison table written [{elapsed:.0f}s]"
    )


def test_cold_enumerate_simulates_each_terminal_once(pipeline):
    # runs before test_cache_reuse_and_byte_identical_outputs re-runs the stages
    cfg, _, _ = pipeline
    root = cfg.out_root()
    meta = json.loads((root / "enumerate" / "meta.json").read_text())
    assert meta["simulated"] == meta["requested"] == meta["cache_hits"] == 2625
    assert meta["sim_evals"] == 2625 * 6  # simulated keys x contexts
    for seed in (1, 2, 3):  # train runs after enumerate filled the cache
        meta = json.loads((root / "train" / str(seed) / "meta.json").read_text())
        assert meta["simulated"] == 0
        assert meta["cache_hits"] == meta["requested"]
    _ok("scoring counts: a cold enumerate simulates 2625 terminals once; train only reads")


def test_cache_reuse_and_byte_identical_outputs(pipeline):
    cfg, run, _ = pipeline
    root = cfg.out_root()

    # completed directories are skipped untouched on identical re-runs
    targets = {
        "enumerate": ["landscape.csv", "grid.json", "basins.json"],
        "train/2": ["checkpoint.bin", "train_log.csv", "trace.csv"],
        "baseline-random/2": ["trace.csv"],
    }
    before = {
        f"{d}/{f}": (root / d / f).read_bytes() for d, fs in targets.items() for f in fs
    }
    assert run("enumerate") == 0
    assert run("train") == 0
    assert run("baseline", "run.method=random") == 0
    for rel, blob in before.items():
        assert (root / rel).read_bytes() == blob, rel

    # forced re-execution is served entirely from the reward cache and
    # reproduces every data artifact byte for byte
    for d in targets:
        (root / d / "done").unlink()
    assert run("enumerate") == 0
    assert run("train") == 0
    assert run("baseline", "run.method=random") == 0
    for d in targets:
        meta = json.loads((root / d / "meta.json").read_text())
        assert meta["sim_evals"] == 0, d
    for rel, blob in before.items():
        assert (root / rel).read_bytes() == blob, rel
    _ok("cache semantics: re-runs hit the cache only and outputs are byte-identical")


def test_truth_state_is_optimal_without_noise(space, tmp_path):
    contexts = generate_contexts(7)
    truth = decode_state(space, DEFAULT_TRUTH_KEY)
    obs = synthesize_observations(contexts, truth, 0.0, seed=8)
    scorer = TerminalScorer(space, obs, DEFAULT_CFG, cache_path=tmp_path / "rewards.bin")
    scorer.fit_on_enumeration()
    [raw] = scorer.raw_losses([DEFAULT_TRUTH_KEY])
    assert np.all(np.abs(raw) <= 1e-12)
    table = build_landscape(space, scorer)
    idx = sum(a * pv for a, pv in zip(DEFAULT_TRUTH_KEY, place_values(space.slot_radices)))
    keys = key_tuples(table.keys)
    assert keys[idx] == DEFAULT_TRUTH_KEY
    assert table.aggregates[idx] == table.aggregates.min()
    order = sorted(range(2625), key=lambda i: (-table.target_prob[i], keys[i]))
    assert order[0] == idx
    _ok(
        "truth retrievability: zero raw loss, minimum aggregate loss, "
        "target-probability rank 1"
    )
