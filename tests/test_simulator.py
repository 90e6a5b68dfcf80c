import warnings
from dataclasses import replace

import numpy as np
import pytest

from gfnadapt import simulator
from gfnadapt.rewards import TerminalScorer
from gfnadapt.simulator import (
    DEFAULT_TRUTH_KEY,
    SIM_PARAM_NAMES,
    ContextDataset,
    generate_contexts,
    simulate,
    simulate_batch,
    synthesize_observations,
)
from gfnadapt.simulator import _inhibition
from gfnadapt.space import all_keys, decode_batch, decode_state, key_tuples

from conftest import DEFAULT_CFG, record_passes

# Baseline-parameter trajectory for context 1 (contexts_seed=7), frozen from
# an independent straight-line reimplementation of the daily recurrence.
GOLDEN_CONTEXT1 = [
    0.0,
    0.006224889083315,
    0.02670535567251,
    0.05501319843248,
    0.07885975640947,
    0.0996843502612,
    0.1173656156021,
    0.1321785335589,
    0.1463535527822,
    0.1580196778149,
    0.1685993046042,
    0.1799951033697,
]


def test_golden_baseline_trajectory(space):
    ctx = generate_contexts(7)[0]
    traj = simulate(decode_state(space, ()), ctx)
    assert traj == pytest.approx(GOLDEN_CONTEXT1, rel=1e-11, abs=1e-13)


def test_zero_light_means_zero_yield(space):
    ctx = generate_contexts(7)[0]
    dark = ContextDataset(
        context_id=1,
        days=ctx.days,
        t_day=ctx.t_day,
        t_24=ctx.t_24,
        light=np.full(ctx.days, 1e-300),
        co2=ctx.co2,
        obs_times=ctx.obs_times,
        obs_values=ctx.obs_values,
    )
    traj = simulate(decode_state(space, ()), dark)
    assert np.allclose(traj, 0.0, atol=1e-12)


def test_trajectory_non_decreasing(space, obs_contexts):
    rng = np.random.default_rng(3)
    radices = space.slot_radices
    for _ in range(20):
        key = tuple(int(rng.integers(r)) for r in radices)
        for ctx in obs_contexts:
            traj = simulate(decode_state(space, key), ctx)
            assert np.all(traj >= 0)
            assert np.all(np.diff(traj) >= 0)


def test_missing_parameter_rejected(space):
    ctx = generate_contexts(7)[0]
    params = decode_state(space, ())
    del params["P_max"]
    with pytest.raises(ValueError, match="P_max"):
        simulate(params, ctx)
    with pytest.raises(ValueError, match="P_max"):
        simulate_batch({k: np.array([v]) for k, v in params.items()}, [ctx])


def columns(space, keys):
    """simulate_batch's parameter columns for the given keys."""
    return dict(zip((p.name for p in space.parameters), decode_batch(space, keys).T))


def test_batch_matches_scalar_on_a_shared_grid(space):
    # 60-day contexts observed every 5 days, not the default 180 and 14
    contexts = [
        replace(ctx, obs_times=np.arange(5, 61, 5), obs_values=np.zeros(12))
        for ctx in generate_contexts(3, days=60)
    ]
    contexts = synthesize_observations(contexts, decode_state(space, DEFAULT_TRUTH_KEY), 0.05, 3)
    rng = np.random.default_rng(5)
    keys = [tuple(int(rng.integers(r)) for r in space.slot_radices) for _ in range(70)]
    sims = simulate_batch(columns(space, keys), contexts)
    assert sims.shape == (len(keys), len(contexts), 12)
    for key, row in zip(keys, sims):
        for ctx, sim in zip(contexts, row):
            assert sim == pytest.approx(simulate(decode_state(space, key), ctx), rel=1e-10)


@pytest.mark.parametrize(
    "odd, named",
    [
        (lambda ctx: generate_contexts(7, days=90)[3], "days"),
        (lambda ctx: replace(ctx, obs_times=np.arange(7, 169, 7), obs_values=np.zeros(24)),
         "obs_times"),
        (lambda ctx: replace(ctx, obs_times=np.arange(15, 170, 14), obs_values=np.zeros(12)),
         "obs_times"),
    ],
    ids=["days", "obs-count", "obs-days"],
)
def test_batch_refuses_contexts_on_different_grids(space, odd, named):
    contexts = generate_contexts(7)
    contexts[3] = odd(contexts[3])
    with pytest.raises(ValueError, match=f"context 4 .*{named}"):
        simulate_batch(columns(space, [(0, 0, 0, 0, 0)]), contexts)


@pytest.mark.parametrize(
    "obs_times, obs_values, message",
    [
        ([0, 14, 28], [0.0, 0.1, 0.2], "first observation"),
        ([], [], "at least one observation"),
        ([14, 28], [0.1], "one obs_value per"),
        ([14, 28], [0.1, 0.2, 0.3], "one obs_value per"),
    ],
    ids=["day-0", "no-observations", "fewer-values", "more-values"],
)
def test_context_rejects_bad_observation_grid(obs_times, obs_values, message):
    ctx = generate_contexts(7, days=60)[0]
    with pytest.raises(ValueError, match=message):
        replace(ctx, obs_times=np.array(obs_times, dtype=int),
                obs_values=np.array(obs_values, dtype=float))


def test_enumerate_rows_equal_single_key_batches(space, obs_contexts, monkeypatch):
    # the enumerate is one pass whose day series hold 25, 5 and 15 distinct
    # rows, gathered per key; a single key reads its own rows
    passes = record_passes(monkeypatch)
    params = columns(space, all_keys(space))
    sims = simulate_batch(params, obs_contexts)
    assert passes == [(2625, 25, 5, 15)]
    assert sims.shape == (2625, len(obs_contexts), 12)
    alone = [
        simulate_batch({name: col[i : i + 1] for name, col in params.items()}, obs_contexts)
        for i in range(len(sims))
    ]
    assert sims.tobytes() == np.concatenate(alone).tobytes()


# The parameters each factor of simulate's state-free day series reads, in
# the order its block function unpacks them. The crop-state update reads
# the other three, LAI_max, SLA and n_plants, key by key.
DAY_SERIES_PARAMS = {
    "light_co2": ("P_max", "alpha_light", "co2_half"),
    "inhibition": ("T_opt", "T_width", "s_sharp"),
    "maint_rate": ("c_maint", "Q10"),
    "temp_sum": ("dev_rate",),
    "fruit_share": ("TS_start", "TS_end", "rg_fruit"),
}

# The day series, each as the factors it is built from: assimilation at full
# light cover is light_co2 times inhibition at t_day and at t_24, the
# maintenance rate is its own factor, and p_f's growth coefficients are the
# fruit share over the temperature sum. record_passes reports the series'
# rows in this order.
DAY_SERIES = {
    "assim_max": ("light_co2", "inhibition"),
    "maint_rate": ("maint_rate",),
    "p_f": ("temp_sum", "fruit_share"),
}

# Each function that computes a block of a day-series factor or assembles a
# series from its factors, with the DAY_SERIES_PARAMS entries whose distinct
# rows it runs over and its planes: the inhibition at t_day and at t_24, and
# p_f's three stacked growth coefficients
BLOCK_FUNCTIONS = {
    "_light_co2": (("light_co2",), 1),
    "_inhibition_planes": (("inhibition",), 2),
    "_assim_max": (DAY_SERIES["assim_max"], 1),
    "_maint_rate": (DAY_SERIES["maint_rate"], 1),
    "_temp_sum": (("temp_sum",), 1),
    "_growth_coefficients": (DAY_SERIES["p_f"], 3),
}
FACTORS = ("_light_co2", "_inhibition_planes", "_maint_rate", "_temp_sum")


def record_blocks(monkeypatch) -> list[tuple[str, int, int, int]]:
    """Wrap the BLOCK_FUNCTIONS to record each block they compute as its
    (function, days, distinct rows, planes), the days counted from the
    array's size."""
    blocks = []

    def recording(name, compute):
        planes = BLOCK_FUNCTIONS[name][1]

        def recorded(*args):
            result = compute(*args)
            values = result[0] if isinstance(result, tuple) else result
            *_, rows, contexts = values.shape
            blocks.append((name, values.size // (planes * rows * contexts), rows, planes))
            return result

        return recorded

    for name in BLOCK_FUNCTIONS:
        monkeypatch.setattr(simulator, name, recording(name, getattr(simulator, name)))
    return blocks


def distinct_rows(params, factors, keys: slice) -> int:
    """The distinct rows of the factors' parameter columns over the keys."""
    names = [name for factor in factors for name in DAY_SERIES_PARAMS[factor]]
    return len(np.unique(np.column_stack([params[name][keys] for name in names]), axis=0))


def one_key_batches(params, contexts):
    return np.concatenate([
        simulate_batch({name: col[i : i + 1] for name, col in params.items()}, contexts)
        for i in range(len(params["P_max"]))
    ])


@pytest.mark.parametrize(
    "batch, cells",
    [
        pytest.param(batch, cells, id=f"{prefix}SIM_CELLS-{cells}")
        for batch, prefix in (("random", ""), ("groups-2-3", "groups-2-3-"))
        for cells in (1, 5, 7, 45)
    ],
)
def test_pass_splits_leave_bytes_unchanged(space, obs_contexts, tmp_path, monkeypatch, batch,
                                           cells):
    space2 = replace(space, cycles=2)
    rng = np.random.default_rng(9)
    keys = [tuple(int(rng.integers(r)) for r in space2.slot_radices) for _ in range(60)]
    if batch == "groups-2-3":  # groups 1, 4 and 5 as in the first key, in both cycles
        keys = [
            tuple(a if space2.slot_group(t).order in (2, 3) else keys[0][t]
                  for t, a in enumerate(key))
            for key in keys
        ]
    keys += keys[:15]  # rows repeated across passes
    params = columns(space2, keys)
    blocks = record_blocks(monkeypatch)
    whole = simulate_batch(params, obs_contexts)
    if batch == "groups-2-3":
        # assim_max's rows set the block length, so p_f's one row carries its
        # temperature sum across blocks shorter than p_f alone would take
        for name in ("_temp_sum", "_growth_coefficients"):
            rows = [rows for function, _, rows, _ in blocks if function == name]
            assert len(rows) > 1 and set(rows) == {1}
    blocks.clear()
    alone = one_key_batches(params, obs_contexts)
    # the bytes of one-key batches, whose p_f is one block of every day
    assert {days for name, days, *_ in blocks
            if name in ("_temp_sum", "_growth_coefficients")} == {168}
    assert whole.tobytes() == alone.tobytes()
    # scoring splits a batch into passes of SIM_CELLS consecutive keys
    scorer = TerminalScorer(space2, obs_contexts, DEFAULT_CFG, cache_path=tmp_path / "r.bin")
    one_pass = scorer.raw_losses(keys)
    monkeypatch.setattr(simulator, "SIM_CELLS", cells)
    passes = record_passes(monkeypatch)
    blocks.clear()
    split = scorer.raw_losses(keys)
    assert one_pass.tobytes() == split.tobytes()
    # ceil(n / SIM_CELLS) passes of consecutive keys, SIM_CELLS in all but the
    # last, each series over the distinct rows of its factors' parameters
    pass_keys = [slice(lo, min(lo + cells, len(keys))) for lo in range(0, len(keys), cells)]
    assert passes == [
        (k.stop - k.start, *(distinct_rows(params, factors, k) for factors in DAY_SERIES.values()))
        for k in pass_keys
    ]
    # every pass's widest series has more than half of SIM_CELLS rows, so
    # its blocks hold one day, up to the last observation day, each factor
    # over the distinct rows of its own parameters
    per_day = [
        [(name, 1, distinct_rows(params, factors, k), planes)
         for name, (factors, planes) in BLOCK_FUNCTIONS.items()] * 168
        for k in pass_keys
    ]
    assert blocks == [block for pass_blocks in per_day for block in pass_blocks]


def test_random_2cycle_batch_is_one_pass(space, obs_contexts, monkeypatch):
    # most keys have series rows of their own, so each series is computed in
    # blocks of a few days; a single key reads one block of every day
    space2 = replace(space, cycles=2)
    rng = np.random.default_rng(12)
    keys = [tuple(int(rng.integers(r)) for r in space2.slot_radices) for _ in range(1000)]
    params = columns(space2, keys)
    passes = record_passes(monkeypatch)
    blocks = record_blocks(monkeypatch)
    sims = simulate_batch(params, obs_contexts)
    assert len(passes) == 1 and passes[0][0] == 1000
    assert max(passes[0][1:]) > simulator.SIM_CELLS // 180  # more than one block
    # every block fits in SIM_CELLS, stacked planes counting once each
    assert all(days * rows * planes <= simulator.SIM_CELLS for _, days, rows, planes in blocks)
    assert {name for name, *_ in blocks} == set(BLOCK_FUNCTIONS)
    # each factor reads one group's parameters, whose distinct rows over two
    # cycles number at most 25 here (22, 21, 21 and 7), while the series
    # assembled from two factors hold hundreds (395 and 158)
    rows = {name: {rows for function, _, rows, _ in blocks if function == name}
            for name in BLOCK_FUNCTIONS}
    assert max(max(rows[name]) for name in FACTORS) <= 25
    assert min(min(rows["_assim_max"]), min(rows["_growth_coefficients"])) >= 100
    assert sims.tobytes() == one_key_batches(params, obs_contexts).tobytes()


@pytest.mark.parametrize("cells", [None, 5, 45], ids=["SIM_CELLS-default", "SIM_CELLS-5",
                                                     "SIM_CELLS-45"])
def test_factor_rows_stay_with_their_keys(space, obs_contexts, monkeypatch, cells):
    # on the 3-cycle space, pairs of keys that share one factor of a series
    # but not the other: a factor row gathered into the wrong series row
    # changes some key's bytes
    space3 = replace(space, cycles=3)
    rng = np.random.default_rng(21)
    base = [int(rng.integers(r)) for r in space3.slot_radices]
    groups = [space3.slot_group(t).order for t in range(space3.slots)]

    def varied(actions):
        """base with each slot of the groups in actions drawn from its actions."""
        return tuple(int(rng.choice(actions[g])) if g in actions else a
                     for g, a in zip(groups, base))

    light_shared = {3: range(5)}  # photosynthesis as in base, inhibition drawn
    inhibition_shared = {2: range(5)}
    # no action that moves dev_rate; TS_start, TS_end and rg_fruit drawn
    dev_rate_shared = {4: (0, 3, 4), 5: (0, 1, 2)}
    keys = [tuple(base)] * 4
    for _ in range(8):
        for actions in (light_shared, inhibition_shared, dev_rate_shared):
            keys += [varied(actions), varied(actions)]
    keys += [tuple(int(rng.integers(r)) for r in space3.slot_radices) for _ in range(100)]
    params = columns(space3, keys)
    for i, name in enumerate(("P_max", "T_opt", "dev_rate"), start=1):  # keys 1-3: base with a NaN
        params[name] = params[name].copy()
        params[name][i] = np.nan
    if cells is not None:
        monkeypatch.setattr(simulator, "SIM_CELLS", cells)
    blocks = record_blocks(monkeypatch)
    sims = simulate_batch(params, obs_contexts)
    if cells is None:  # one pass, whose series rows are assembled from fewer factor rows
        rows = {name: rows for name, _, rows, _ in blocks}
        assert rows["_light_co2"] < rows["_assim_max"]
        assert rows["_inhibition_planes"] < rows["_assim_max"]
        assert rows["_temp_sum"] < rows["_growth_coefficients"]
    assert sims.tobytes() == one_key_batches(params, obs_contexts).tobytes()
    # each NaN stays in its own key: no assimilation where P_max or T_opt is
    # NaN, and the fruit share from day 1 where dev_rate is
    assert not sims[1].any() and not sims[2].any()
    assert sims[0].all() and sims[3].tobytes() != sims[0].tobytes()
    assert np.isfinite(sims).all()


def test_nan_parameter_row_stays_in_its_row(space, obs_contexts):
    keys = key_tuples(all_keys(space))[:50]
    keys.append(keys[10])  # bit-identical to key 10 in every parameter row
    params = columns(space, keys)
    clean = simulate_batch(params, obs_contexts)
    params["rg_fruit"] = params["rg_fruit"].copy()
    params["rg_fruit"][10] = np.nan
    dirty = simulate_batch(params, obs_contexts)
    others = np.arange(len(keys)) != 10
    assert not np.isfinite(dirty[10]).all(axis=1).any()  # in every context
    assert clean[others].tobytes() == dirty[others].tobytes()


@pytest.mark.parametrize("name", SIM_PARAM_NAMES)
def test_each_parameter_moves_the_rows_that_read_it(space, obs_contexts, monkeypatch, name):
    # two keys whose columns differ in one parameter only: two rows in
    # exactly the block functions whose factor or series reads it by the
    # tables above, one in every other; the crop-state parameters move no
    # block function's rows, and every parameter moves the outputs
    params = {n: np.array([v, v]) for n, v in decode_state(space, ()).items()}
    params[name][1] *= 0.5
    blocks = record_blocks(monkeypatch)
    sims = simulate_batch(params, obs_contexts)
    rows = {function: {rows for f, _, rows, _ in blocks if f == function}
            for function in BLOCK_FUNCTIONS}
    assert rows == {
        function: {2} if any(name in DAY_SERIES_PARAMS[f] for f in factors) else {1}
        for function, (factors, _) in BLOCK_FUNCTIONS.items()
    }
    assert sims[0].tobytes() != sims[1].tobytes()
    if name in ("LAI_max", "SLA", "n_plants"):
        assert rows == dict.fromkeys(BLOCK_FUNCTIONS, {1})


def test_obs_times_biweekly():
    for ctx in generate_contexts(0, days=180):
        assert ctx.obs_times.tolist() == list(range(14, 169, 14))


def test_contexts_deterministic():
    a = generate_contexts(42)
    b = generate_contexts(42)
    for ca, cb in zip(a, b):
        assert np.array_equal(ca.t_day, cb.t_day)
        assert np.array_equal(ca.light, cb.light)
        assert np.array_equal(ca.co2, cb.co2)


def test_regimes_pairwise_distinct():
    contexts = generate_contexts(11)
    stats = [(c.t_24.mean(), c.co2.mean()) for c in contexts]
    for i in range(len(stats)):
        for j in range(i + 1, len(stats)):
            t_diff = abs(stats[i][0] - stats[j][0])
            c_diff = abs(stats[i][1] - stats[j][1])
            assert t_diff > 0.5 or c_diff > 50.0


def test_noise_free_observations_match_truth(space):
    contexts = generate_contexts(7)
    truth = decode_state(space, DEFAULT_TRUTH_KEY)
    obs = synthesize_observations(contexts, truth, 0.0, seed=1)
    for ctx in obs:
        assert np.array_equal(ctx.obs_values, simulate(truth, ctx))


def test_noisy_observations_keep_invariants(space):
    contexts = generate_contexts(7)
    truth = decode_state(space, DEFAULT_TRUTH_KEY)
    obs = synthesize_observations(contexts, truth, 0.2, seed=5)
    for ctx in obs:
        assert np.all(ctx.obs_values >= 0)
        assert np.all(np.diff(ctx.obs_values) >= 0)


def test_overflowing_noise_is_refused_naming_it(space):
    contexts = generate_contexts(7)
    truth = decode_state(space, DEFAULT_TRUTH_KEY)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # numpy's overflow warning must not escape
        with pytest.raises(ValueError, match=r"noise_rel=1e\+308 .* context \d+ "):
            synthesize_observations(contexts, truth, 1e308, seed=1)
        for ctx in synthesize_observations(contexts, truth, 1e300, seed=1):
            assert np.isfinite(ctx.obs_values).all()


def test_inhibition_bounded_and_peaks_at_optimum():
    grid = np.linspace(-20, 60, 1601)
    for t_opt, t_width, s in [(22.0, 8.0, 0.6), (16.0, 4.0, 1.5), (28.0, 14.0, 0.2)]:
        vals = np.array([_inhibition(t, t_opt, t_width, s) for t in grid])
        assert np.all((vals >= 0.0) & (vals <= 1.0))
        assert abs(grid[np.argmax(vals)] - t_opt) <= grid[1] - grid[0] + 1e-9


def test_pmax_monotone_response(space, obs_contexts):
    base = decode_state(space, ())
    for ctx in obs_contexts:
        prev = None
        for p_max in np.linspace(0.005, 0.04, 6):
            params = dict(base, P_max=float(p_max))
            final = simulate(params, ctx)[-1]
            if prev is not None:
                assert final >= prev - 1e-15
            prev = final


def test_simulate_pure(space, obs_contexts):
    params = decode_state(space, (1, 1, 1, 1, 1))
    a = simulate(params, obs_contexts[0])
    b = simulate(params, obs_contexts[0])
    assert np.array_equal(a, b)


@pytest.mark.parametrize("days", [180, 60, 45])
def test_scalar_simulate_stops_after_the_last_observation(space, days, monkeypatch):
    # the grid of generate_contexts ends before the season (168 of 180, 56 of
    # 60, 42 of 45). Observed on its last day too, a context runs every day of
    # the season, so its outputs before that day are a full season's
    contexts = generate_contexts(7, days=days)
    assert contexts[0].obs_times[-1] < days
    rng = np.random.default_rng(days)
    keys = [DEFAULT_TRUTH_KEY, *key_tuples(rng.integers(0, space.slot_radices, (20, space.slots)))]
    calls = []
    monkeypatch.setattr(simulator, "_inhibition", lambda *a: calls.append(1) or _inhibition(*a))
    for key in keys:
        params = decode_state(space, key)
        for ctx in contexts:
            full = replace(ctx, obs_times=np.r_[ctx.obs_times, days],
                           obs_values=np.zeros(len(ctx.obs_times) + 1))
            calls.clear()
            short = simulate(params, ctx)
            assert len(calls) == 2 * ctx.obs_times[-1]  # two per day run
            assert short.tobytes() == simulate(params, full)[:-1].tobytes()
