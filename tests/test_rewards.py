import json
import re
import tracemalloc
import weakref
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gfnadapt.rewards import (
    QuantileTable,
    SimulatorError,
    TerminalScorer,
    aggregate,
    context_loss,
    fit_quantiles,
    normalize,
    reward,
)
from gfnadapt import rewards, simulator
from gfnadapt.simulator import (
    DEFAULT_TRUTH_KEY,
    generate_contexts,
    simulate,
    simulate_batch,
    synthesize_observations,
)
from gfnadapt.space import all_keys, decode_batch, decode_state, key_tuples, uniform_keys

from conftest import DEFAULT_CFG, record_passes


class TestContextLoss:
    def test_identical_trajectories(self):
        assert context_loss(np.array([1.0, 2.0]), np.array([1.0, 2.0])) == 0.0

    def test_hand_value(self):
        # obs=(1,2), sim=(2,2) -> (1/1 + 0/2)/2 = 0.5 up to the residual guard
        assert context_loss(np.array([2.0, 2.0]), np.array([1.0, 2.0])) == pytest.approx(
            0.5, abs=1e-5
        )

    def test_scale_invariance(self):
        sim = np.array([0.3, 1.4, 2.2])
        obs = np.array([0.5, 1.0, 2.5])
        assert context_loss(10 * sim, 10 * obs) == pytest.approx(
            context_loss(sim, obs), abs=1e-5
        )

    def test_length_mismatch(self):
        with pytest.raises(ValueError, match="mismatch"):
            context_loss(np.array([1.0]), np.array([1.0, 2.0]))

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError, match="finite"):
            context_loss(np.array([np.nan]), np.array([1.0]))


class TestQuantiles:
    def test_interpolated_sample(self):
        q = fit_quantiles(np.arange(101.0)[:, None], 0.05, 0.95)
        assert q.q_lo[0] == pytest.approx(5.0)
        assert q.q_hi[0] == pytest.approx(95.0)

    def test_constant_sample(self):
        q = fit_quantiles(np.full((10, 1), 3.3), 0.05, 0.95)
        assert q.q_lo[0] == q.q_hi[0] == 3.3

    def test_empty_sample_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            fit_quantiles(np.empty((0, 6)), 0.05, 0.95)

    @pytest.mark.parametrize("rows", [1, 2, 6, 255, 256, 2625])
    def test_table_matches_per_column_quantiles(self, rows):
        # one call over the table's axis 0 gives each column's own quantiles,
        # bit for bit, on this numpy
        rng = np.random.default_rng(rows)
        for table in (rng.random((rows, 6)), rng.lognormal(0.0, 2.0, (rows, 6)),
                      rng.integers(0, 3, (rows, 6)).astype(float)):
            q = fit_quantiles(table, 0.05, 0.95)
            for c, column in enumerate(table.T):
                assert q.q_lo[c] == np.quantile(column, 0.05)
                assert q.q_hi[c] == np.quantile(column, 0.95)

    def test_normalize_endpoints(self):
        q = QuantileTable(np.array([1.0]), np.array([3.0]), 0.05, 0.95)
        assert normalize(np.array([1.0]), q)[0] == 0.0
        assert normalize(np.array([3.0]), q)[0] == pytest.approx(1.0, abs=1e-7)

    def test_normalize_degenerate(self):
        q = QuantileTable(np.array([2.0]), np.array([2.0]), 0.05, 0.95)
        assert normalize(np.array([2.0]), q)[0] == 0.0

    def test_json_roundtrip(self, tmp_path):
        q = fit_quantiles(np.arange(20.0).reshape(10, 2), 0.1, 0.9)
        q.to_json(tmp_path / "q.json")
        loaded = QuantileTable.from_json(tmp_path / "q.json")
        assert np.array_equal(loaded.q_lo, q.q_lo)
        assert np.array_equal(loaded.q_hi, q.q_hi)

    def test_crash_mid_write_keeps_the_old_table(self, tmp_path, monkeypatch):
        path = tmp_path / "q.json"
        fit_quantiles(np.arange(20.0).reshape(10, 2), 0.1, 0.9).to_json(path)
        whole = path.read_bytes()

        def torn_dump(doc, fh, **kwargs):
            fh.write('{"q_lo": [')
            raise OSError("no space left on device")

        monkeypatch.setattr(json, "dump", torn_dump)
        with pytest.raises(OSError):
            fit_quantiles(np.arange(20.0).reshape(10, 2), 0.2, 0.8).to_json(path)
        assert path.read_bytes() == whole

    @pytest.mark.parametrize("text", ['{"q_lo": [0.5', '{"q_lo": [0.5]}', "[1, 2]"])
    def test_unreadable_table_names_its_path(self, tmp_path, text):
        path = tmp_path / "q.json"
        path.write_text(text)
        named = f"{re.escape(str(path))} is unreadable .*delete it to refit"
        with pytest.raises(ValueError, match=named):
            QuantileTable.from_json(path)


class TestAggregate:
    def test_hand_value(self):
        # mean 0.3333..., tail over worst 2 = 0.4 -> 0.75*1/3 + 0.25*0.4 = 0.35
        assert aggregate(np.array([0.2, 0.5, 0.3]), lam=0.25, k=2) == pytest.approx(
            0.35, abs=1e-12
        )

    def test_lambda_zero_is_mean(self):
        x = np.array([0.1, 0.9, 0.4])
        for k in (1, 2, 3):
            assert aggregate(x, 0.0, k) == pytest.approx(x.mean(), abs=1e-12)

    def test_k_equals_c_is_mean(self):
        x = np.array([0.1, 0.9, 0.4])
        for lam in (0.0, 0.5, 1.0):
            assert aggregate(x, lam, 3) == pytest.approx(x.mean(), abs=1e-12)

    def test_k_out_of_range(self):
        with pytest.raises(ValueError, match="out of range"):
            aggregate(np.array([0.1]), 0.5, 2)

    @given(
        st.lists(st.floats(-5, 5), min_size=2, max_size=8),
        st.floats(0, 1),
        st.data(),
    )
    @settings(max_examples=200, deadline=None)
    def test_permutation_invariance(self, xs, lam, data):
        k = data.draw(st.integers(1, len(xs)))
        perm = data.draw(st.permutations(xs))
        assert aggregate(np.array(xs), lam, k) == pytest.approx(
            aggregate(np.array(perm), lam, k), rel=1e-9, abs=1e-12
        )

    @given(st.lists(st.floats(-5, 5), min_size=2, max_size=8), st.data())
    @settings(max_examples=200, deadline=None)
    def test_monotone_in_each_loss(self, xs, data):
        k = data.draw(st.integers(1, len(xs)))
        lam = data.draw(st.floats(0, 1))
        i = data.draw(st.integers(0, len(xs) - 1))
        bumped = list(xs)
        bumped[i] += data.draw(st.floats(0.0, 3.0))
        assert aggregate(np.array(bumped), lam, k) >= aggregate(np.array(xs), lam, k) - 1e-12


class TestReward:
    def test_zero_loss(self):
        for beta in (2.0, 4.0, 8.0):
            assert reward(0.0, beta) == 1.0

    def test_hand_value(self):
        assert reward(0.35, 4.0) == pytest.approx(np.exp(-1.4), rel=1e-12)
        assert reward(0.35, 4.0) == pytest.approx(0.24660, abs=5e-6)

    def test_strictly_decreasing(self):
        assert reward(0.1, 4.0) > reward(0.2, 4.0) > reward(0.9, 4.0) > 0.0

    def test_ordering_invariant_in_beta(self):
        losses = np.array([0.8, 0.1, 0.4, 0.2])
        orders = [
            np.argsort([reward(l, beta) for l in losses]).tolist()
            for beta in (0.5, 2.0, 4.0, 8.0)
        ]
        assert all(o == orders[0] for o in orders)

    @pytest.mark.parametrize(
        "loss, beta",
        [(-0.2, 20000.0), (2.75, 400.0), (np.nan, 4.0)],
        ids=["overflow", "underflow", "nan"],
    )
    def test_refuses_a_reward_outside_the_float64_range(self, loss, beta):
        losses = np.array([[0.0, loss], [0.0, 0.0]])
        with pytest.raises(ValueError, match=f"reward.beta={beta:g} .* loss {loss!r} "):
            reward(losses, beta)

    def test_keeps_the_smallest_normal_and_subnormal_rewards(self):
        # exp(-745) is the smallest positive float64 the exponential gives
        assert reward(np.array([708.0, 745.0]), 1.0).tolist() == [np.exp(-708.0), np.exp(-745.0)]


class TestTerminalScorer:
    @pytest.fixture()
    def mini_space(self):
        from conftest import make_mini_sim_space

        return make_mini_sim_space()

    @pytest.fixture()
    def obs(self, mini_space):
        contexts = generate_contexts(3, days=60)
        truth = decode_state(mini_space, (1, 2))
        return synthesize_observations(contexts, truth, 0.05, seed=4)

    @pytest.fixture()
    def scorer(self, mini_space, obs, tmp_path):
        scorer = TerminalScorer(
            mini_space, obs, DEFAULT_CFG, cache_path=tmp_path / "rewards.bin"
        )
        scorer.fit_on_enumeration()
        return scorer

    def test_cache_hit_skips_simulation(self, scorer):
        first = scorer.score([(1, 1)])
        simulated = scorer.simulated
        second = scorer.score([(1, 1)])
        assert scorer.simulated == simulated
        assert np.array_equal(first, second)

    def test_enumeration_fit_fills_the_cache(self, scorer, mini_space):
        keys = key_tuples(all_keys(mini_space))
        assert len(scorer.cache) == len(keys) == scorer.simulated
        scorer.score(keys)
        assert scorer.simulated == len(keys)  # every score was a cache hit
        assert scorer.cache_hits == scorer.requested == len(keys)

    def test_reward_positive_everywhere(self, scorer, mini_space):
        _, rewards = scorer.score(key_tuples(all_keys(mini_space)))
        assert np.all(rewards > 0.0)

    def test_repeats_scored_once_and_counted(self, mini_space, obs, tmp_path):
        scorer = TerminalScorer(
            mini_space, obs, DEFAULT_CFG, cache_path=tmp_path / "rewards.bin",
            quantiles=QuantileTable(np.zeros(len(obs)), np.ones(len(obs)), 0.05, 0.95),
        )
        a, b, c = (0, 1), (1, 2), (2, 0)
        first = np.array(scorer.score([a, b, a]))
        assert np.array_equal(first[:, 0], first[:, 2])
        assert (scorer.requested, scorer.cache_hits, scorer.simulated) == (3, 0, 2)
        assert len(scorer.cache) == 2
        second = np.array(scorer.score([b, c, b]))
        assert np.array_equal(second[:, 0], first[:, 1])
        assert (scorer.requested, scorer.cache_hits, scorer.simulated) == (6, 2, 3)

    def test_record_consistency(self, scorer):
        [agg], [rew] = scorer.score([(0, 2)])
        [raw] = scorer.raw_losses([(0, 2)])
        cfg = scorer.config
        assert agg == aggregate(normalize(raw, scorer.quantiles), cfg["reward.lambda"],
                                cfg["reward.k_tail"])
        assert rew == reward(agg, cfg["reward.beta"])

    def test_persistence_roundtrip(self, scorer, mini_space, obs, tmp_path):
        [agg], [rew] = scorer.score([(1, 0)])
        reopened = TerminalScorer(
            mini_space, obs, scorer.config,
            cache_path=tmp_path / "rewards.bin", quantiles=scorer.quantiles,
        )
        assert reopened.cache.get((1, 0)) == (agg, rew)

    def test_records_follow_the_current_quantile_table(self, scorer, mini_space, obs,
                                                        tmp_path):
        a = scorer.quantiles
        b = QuantileTable(a.q_lo * 0.5, a.q_hi * 2.0, a.lo_level, a.hi_level)
        reopened = TerminalScorer(
            mini_space, obs, scorer.config,
            cache_path=tmp_path / "rewards.bin", quantiles=b,
        )
        lam, k = scorer.config["reward.lambda"], scorer.config["reward.k_tail"]
        keys = key_tuples(all_keys(mini_space))
        new, _ = reopened.score(keys)
        old, _ = scorer.score(keys)
        for agg, old_agg, raw in zip(new, old, scorer.raw_losses(keys)):
            assert agg == aggregate(normalize(raw, b), lam, k)
            assert agg != old_agg
        assert reopened.simulated == 0

    def test_cache_freed_with_its_scorer(self, mini_space, obs, tmp_path):
        # no reference cycle: a stage's records go as soon as its scorer does
        scorer = TerminalScorer(
            mini_space, obs, DEFAULT_CFG, cache_path=tmp_path / "rewards.bin",
            quantiles=QuantileTable(np.zeros(len(obs)), np.ones(len(obs)), 0.05, 0.95),
        )
        cache = weakref.ref(scorer.cache)
        del scorer
        assert cache() is None

    def test_unfitted_scorer_rejected(self, mini_space, tmp_path):
        contexts = generate_contexts(3, days=60)
        scorer = TerminalScorer(
            mini_space, contexts, DEFAULT_CFG, cache_path=tmp_path / "rewards.bin"
        )
        with pytest.raises(RuntimeError, match="quantile"):
            scorer.score([(0, 0)])

    def test_warmup_fit_freezes_quantiles(self, mini_space, obs, tmp_path):
        scorer = TerminalScorer(
            mini_space, obs, {**DEFAULT_CFG, "reward.warmup": 4},
            cache_path=tmp_path / "rewards.bin",
        )
        q = scorer.fit_on_warmup(np.random.default_rng(0))
        assert np.all(q.q_lo <= q.q_hi)
        assert len(scorer.cache) == 0  # warm-up losses stay out of the cache
        frozen = scorer.quantiles
        scorer.score([(0, 0)])
        assert scorer.quantiles is frozen


def test_non_terminal_key_refused_before_simulating(fitted_scorer):
    # a prefix of the built-in space's five slots is a cache miss; it must
    # fail naming itself, before it is simulated or counted
    counts = (fitted_scorer.simulated, fitted_scorer.requested, len(fitted_scorer.cache))
    with pytest.raises(ValueError, match=re.escape("key (1, 2, 3, 4) is not terminal")):
        fitted_scorer.score([(0, 0, 0, 0, 0), (1, 2, 3, 4)])
    assert (fitted_scorer.simulated, fitted_scorer.requested,
            len(fitted_scorer.cache)) == counts


def test_loaded_records_equal_their_own_row(space, obs_contexts, fitted_scorer):
    # the one-pass derivation over all records of a file is bit-identical to
    # deriving each record's row on its own
    reopened = TerminalScorer(
        space, obs_contexts, fitted_scorer.config,
        cache_path=fitted_scorer.cache_path, quantiles=fitted_scorer.quantiles,
    )
    assert len(reopened.cache) == 2625
    q, cfg = fitted_scorer.quantiles, fitted_scorer.config
    keys = key_tuples(all_keys(space))
    for key, raw in zip(keys, reopened.raw_losses(keys)):
        agg = aggregate(normalize(raw, q), cfg["reward.lambda"], cfg["reward.k_tail"])
        assert reopened.cache.get(key) == (agg, reward(agg, cfg["reward.beta"]))


def scalar_raw_losses(space, contexts, key):
    params = decode_state(space, key)
    return np.array([context_loss(simulate(params, c), c.obs_values) for c in contexts])


def test_batched_raw_losses_match_scalar_oracle(space, obs_contexts, fitted_scorer):
    rng = np.random.default_rng(11)
    keys = [tuple(int(rng.integers(r)) for r in space.slot_radices) for _ in range(80)]
    keys.append(DEFAULT_TRUTH_KEY)
    for key, raw in zip(keys, fitted_scorer.raw_losses(keys)):
        assert raw == pytest.approx(scalar_raw_losses(space, obs_contexts, key), rel=1e-10)


@pytest.mark.parametrize("cells", [1, 16, 45, None],
                         ids=["SIM_CELLS-1", "SIM_CELLS-16", "SIM_CELLS-45", "SIM_CELLS-default"])
def test_raw_losses_do_not_depend_on_the_batch(space, fitted_scorer, monkeypatch, cells):
    # raw_losses simulates passes of at most SIM_CELLS consecutive keys, and
    # SIM_CELLS caps a block's day-series cells too: at 16 the enumerate's
    # first keys take three passes, whose p_f (8, 8 and 4 distinct rows)
    # runs in blocks of one day and a single key's in blocks of five
    if cells is not None:
        monkeypatch.setattr(simulator, "SIM_CELLS", cells)
    cells = simulator.SIM_CELLS
    passes = record_passes(monkeypatch)
    keys = key_tuples(all_keys(space))[:40]
    batch = fitted_scorer.raw_losses(keys)
    assert [p[0] for p in passes] == [min(cells, 40 - lo) for lo in range(0, 40, cells)]
    reversed_batch = fitted_scorer.raw_losses(keys[::-1])[::-1]
    # every key, so the first and last key of each pass and the last pass
    for key, row, reversed_row in zip(keys, batch, reversed_batch):
        [alone] = fitted_scorer.raw_losses([key])
        assert np.array_equal(alone, row)
        assert np.array_equal(alone, reversed_row)


def test_raw_losses_hold_one_pass_of_trajectories(space, obs_contexts, tmp_path, monkeypatch):
    # 5000 random 2-cycle keys in passes of 500: scoring holds one pass's
    # (500, C, T) trajectories and the (n, C) result, well below one
    # (n, C, T) float64 array, where the whole batch's trajectories and
    # their residual temporaries would take about four
    monkeypatch.setattr(simulator, "SIM_CELLS", 500)
    space2 = replace(space, cycles=2)
    keys = uniform_keys(space2, 5000, np.random.default_rng(5))
    scorer = TerminalScorer(space2, obs_contexts, DEFAULT_CFG, cache_path=tmp_path / "r.bin")
    tracemalloc.start()
    try:
        raw = scorer.raw_losses(keys)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert raw.shape == (5000, len(obs_contexts))
    trajectories = raw.size * len(obs_contexts[0].obs_times) * raw.itemsize
    assert peak < trajectories, f"peak {peak} bytes, one (n, C, T) array {trajectories}"


def test_non_finite_trajectory_names_its_context(space, obs_contexts, tmp_path, monkeypatch):
    # negative light and CO2 make assimilation infinite in context 3 only
    bad = replace(obs_contexts[2], light=np.full(obs_contexts[2].days, -1e6),
                  co2=np.full(obs_contexts[2].days, -1.0))
    contexts = [*obs_contexts[:2], bad, *obs_contexts[3:]]
    scorer = TerminalScorer(space, contexts, DEFAULT_CFG, cache_path=tmp_path / "r.bin")
    for cells in (simulator.SIM_CELLS, 1):  # one pass, then one pass per key
        monkeypatch.setattr(simulator, "SIM_CELLS", cells)
        with pytest.raises(SimulatorError, match="context 3"):
            scorer.raw_losses([(0, 0, 0, 0, 0), (1, 2, 3, 4, 5)])
    assert scorer.simulated == 0
    with pytest.raises(OverflowError):  # the scalar oracle fails on it too
        simulate(decode_state(space, (1, 2, 3, 4, 5)), bad)


def test_non_finite_trajectories_name_the_first_context(space, obs_contexts, tmp_path,
                                                        monkeypatch):
    contexts = [
        replace(c, light=np.full(c.days, -1e6), co2=np.full(c.days, -1.0)) if j in (2, 4) else c
        for j, c in enumerate(obs_contexts)
    ]
    scorer = TerminalScorer(space, contexts, DEFAULT_CFG, cache_path=tmp_path / "r.bin")
    for cells in (simulator.SIM_CELLS, 1):
        monkeypatch.setattr(simulator, "SIM_CELLS", cells)
        with pytest.raises(SimulatorError, match="context 3"):
            scorer.raw_losses([(1, 2, 3, 4, 5)])


@pytest.mark.parametrize("cells", [None, 1], ids=["SIM_CELLS-default", "SIM_CELLS-1"])
def test_non_finite_context_is_the_first_of_any_pass(space, obs_contexts, tmp_path,
                                                     monkeypatch, cells):
    # the first key's trajectories are NaN in context 5 only and the
    # second's in context 3 only: in one pass or in two, the batch's first
    # non-finite context is 3
    nan_in = {(0, 0, 0, 0, 0): 4, (1, 2, 3, 4, 5): 2}

    def marked(params, contexts):
        sims = simulate_batch(params, contexts)
        rows = np.column_stack([params[p.name] for p in space.parameters])
        for key, j in nan_in.items():
            sims[(rows == decode_batch(space, [key])).all(axis=1), j] = np.nan
        return sims

    monkeypatch.setattr(rewards, "simulate_batch", marked)
    if cells is not None:
        monkeypatch.setattr(simulator, "SIM_CELLS", cells)
    scorer = TerminalScorer(space, obs_contexts, DEFAULT_CFG, cache_path=tmp_path / "r.bin")
    with pytest.raises(SimulatorError, match="context 3"):
        scorer.raw_losses(list(nan_in))


def test_truth_key_scores_zero_without_noise(space, tmp_path):
    contexts = generate_contexts(7)
    truth = decode_state(space, DEFAULT_TRUTH_KEY)
    obs = synthesize_observations(contexts, truth, 0.0, seed=9)
    scorer = TerminalScorer(space, obs, DEFAULT_CFG, cache_path=tmp_path / "rewards.bin")
    [raw] = scorer.raw_losses([DEFAULT_TRUTH_KEY])
    assert np.allclose(raw, 0.0, atol=1e-12)
