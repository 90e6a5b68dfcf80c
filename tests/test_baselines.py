import csv
import dataclasses
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gfnadapt.baselines import (
    _CHUNK,
    _sorted_quantile,
    export_trace_csv,
    random_search,
    read_trace_csv,
    tpe_search,
)
from gfnadapt.metrics import best_so_far
from gfnadapt.rewards import TerminalScorer
from gfnadapt.simulator import builtin_space
from gfnadapt.space import (
    ActionSpec,
    GroupSpec,
    ParameterSpec,
    all_keys,
    build_space,
    key_text,
    key_tuples,
)

from conftest import DEFAULT_CFG, make_tiny_space


class AggScorer:
    """Scorer stand-in returning a fixed aggregate loss per key."""

    def __init__(self, loss_fn):
        self.loss_fn = loss_fn
        self.calls = []

    def score(self, keys):
        self.calls.append(list(keys))
        losses = np.array([self.loss_fn(key) for key in keys], dtype=float)
        return losses, np.exp(-4.0 * losses)


def pairs(scored):
    """The (key tuple, loss) pairs of a scored set (keys, losses), after
    checking its shape: an (n, slots) int64 array and an (n,) float64 one."""
    keys, losses = scored
    assert keys.dtype == np.int64 and losses.dtype == np.float64
    assert keys.ndim == 2 and losses.shape == (len(keys),)
    return list(zip(key_tuples(keys), losses.tolist()))


def separable_loss(key):
    # per-slot penalty, minimized at action 1 in slot 0 and action 2 in slot 1
    penalties = [{0: 0.4, 1: 0.0}, {0: 0.5, 1: 0.3, 2: 0.0}]
    return sum(penalties[t % 2][a] for t, a in enumerate(key))


class TestRandomSearch:
    def test_budget_zero(self, tiny_space):
        keys, losses = random_search(tiny_space, AggScorer(separable_loss), 0, seed=0)
        assert keys.shape == (0, tiny_space.slots) and losses.shape == (0,)

    def test_negative_budget_rejected(self, tiny_space):
        with pytest.raises(ValueError, match="budget"):
            random_search(tiny_space, AggScorer(separable_loss), -1, seed=0)

    def test_keys_valid_and_count(self, tiny_space):
        trace = pairs(random_search(tiny_space, AggScorer(separable_loss), 200, seed=1))
        assert len(trace) == 200
        valid = set(key_tuples(all_keys(tiny_space)))
        assert all(key in valid for key, _ in trace)

    def test_marginals_uniform(self, tiny_space):
        n = 6000
        keys, _ = random_search(tiny_space, AggScorer(separable_loss), n, seed=2)
        for t, r in enumerate(tiny_space.slot_radices):
            counts = np.bincount(keys[:, t], minlength=r)
            p = 1.0 / r
            sigma = np.sqrt(n * p * (1 - p))
            assert np.all(np.abs(counts - n * p) <= 4 * sigma)

    def test_deterministic_per_seed(self, tiny_space):
        a = pairs(random_search(tiny_space, AggScorer(separable_loss), 50, seed=3))
        b = pairs(random_search(tiny_space, AggScorer(separable_loss), 50, seed=3))
        c = pairs(random_search(tiny_space, AggScorer(separable_loss), 50, seed=4))
        assert a == b
        assert a != c

    def test_keys_drawn_as_one_key_at_a_time(self, tiny_space):
        # all keys are drawn before the one scoring call, in the rng order
        # of drawing and scoring key by key
        rng = np.random.default_rng(8)
        expected = [
            tuple(int(rng.integers(r)) for r in tiny_space.slot_radices) for _ in range(40)
        ]
        scorer = AggScorer(separable_loss)
        keys, _ = random_search(tiny_space, scorer, 40, seed=8)
        assert key_tuples(keys) == expected
        assert scorer.calls == [expected]

    def test_losses_match_scorer_exactly(self, tiny_space):
        scorer = AggScorer(separable_loss)
        trace = pairs(random_search(tiny_space, scorer, 30, seed=5))
        for key, loss in trace:
            assert loss == separable_loss(key)


def reference_tpe(space, scorer, budget, seed, gamma=0.25, n_candidates=24, startup=10):
    """TPE with one scalar `rng.choice` per candidate slot and Python-list
    history: the oracle the array-pass proposals must match draw for draw."""
    rng = np.random.default_rng(seed)
    radices = space.slot_radices
    evaluated = []
    for it in range(budget):
        if it < startup:
            key = tuple(int(rng.integers(r)) for r in radices)
        else:
            losses = np.array([loss for _, loss in evaluated])
            threshold = np.quantile(losses, gamma)
            good = [k for k, loss in evaluated if loss <= threshold]
            bad = [k for k, loss in evaluated if loss > threshold] or good
            l_dens, g_dens = [], []
            for t, r in enumerate(radices):
                gc = np.bincount([k[t] for k in good], minlength=r).astype(float)
                bc = np.bincount([k[t] for k in bad], minlength=r).astype(float)
                l_dens.append((gc + 1.0) / (len(good) + r))
                g_dens.append((bc + 1.0) / (len(bad) + r))
            candidates = [
                tuple(int(rng.choice(r, p=l_dens[t])) for t, r in enumerate(radices))
                for _ in range(n_candidates)
            ]
            scores = [
                float(np.prod([l_dens[t][k[t]] / g_dens[t][k[t]] for t in range(len(radices))]))
                for k in candidates
            ]
            key = candidates[int(np.argmax(scores))]
        evaluated.append((key, float(scorer.score([key])[0][0])))
    return evaluated


def mixed_loss(key):
    # deterministic, uneven, with ties: exercises quantile splits and argmax ties
    return sum(((a + 1) * (t + 3)) % 7 for t, a in enumerate(key)) / 10.0


def tail_inf_loss(key):
    # most keys infinite: the gamma quantile itself can be inf or nan
    return mixed_loss(key) if key[0] == 1 and key[1] == 0 else float("inf")


def few_values_loss(key):
    # four distinct losses, so the split jumps across runs of tied rows
    return float(sum(key) % 4)


def some_nan_loss(key):
    # NaN for the lowest losses, which TPE reaches after its start-up
    loss = mixed_loss(key)
    return float("nan") if loss < 1.5 else loss


def bitwise(trace):
    return [(key, np.float64(loss).tobytes()) for key, loss in trace]


class TestTPEMatchesReference:
    """`tpe_search` proposes in array passes; its trace must equal the
    per-candidate sampler's exactly (keys, losses and order)."""

    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("which", ["tiny", "builtin-2cycle"])
    def test_seeds(self, tiny_space, which, seed):
        sp = tiny_space if which == "tiny" else dataclasses.replace(builtin_space(), cycles=2)
        budget = 150 if which == "tiny" else 80
        got = pairs(tpe_search(sp, AggScorer(mixed_loss), budget, seed))
        assert got == reference_tpe(sp, AggScorer(mixed_loss), budget, seed)

    def test_deep_history(self):
        # 290 proposals on the built-in 2-cycle space: the bad counts, taken
        # as the history's totals minus the good ones, against the reference's
        # own bincount of the bad set over a long and uneven history
        sp = dataclasses.replace(builtin_space(), cycles=2)
        got = pairs(tpe_search(sp, AggScorer(mixed_loss), 300, 11))
        assert got == reference_tpe(sp, AggScorer(mixed_loss), 300, 11)
        assert len({key for key, _ in got}) > 20

    def test_long_history(self):
        # 990 proposals on the built-in 2-cycle space: the running good-set
        # counts and the sorted inserts over a full-size history
        sp = dataclasses.replace(builtin_space(), cycles=2)
        got = pairs(tpe_search(sp, AggScorer(mixed_loss), 1000, 2))
        assert got == reference_tpe(sp, AggScorer(mixed_loss), 1000, 2)

    @pytest.mark.parametrize("loss_fn", [few_values_loss, some_nan_loss],
                             ids=["few-values", "some-nan"])
    def test_split_moves_many_rows(self, loss_fn):
        # 90 proposals on the built-in 2-cycle space. Few values: the split
        # jumps across runs of tied rows, up and down; some NaN: after a few
        # dozen proposals the first NaN loss empties both sets for good
        sp = dataclasses.replace(builtin_space(), cycles=2)
        for seed in range(3):
            got = pairs(tpe_search(sp, AggScorer(loss_fn), 100, seed))
            expected = reference_tpe(sp, AggScorer(loss_fn), 100, seed)
            assert bitwise(got) == bitwise(expected)  # NaN != NaN
        if loss_fn is some_nan_loss:
            assert np.isnan([loss for _, loss in got]).any()

    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")  # quantile of infs
    @pytest.mark.parametrize(
        "loss_fn", [lambda k: 0.5, tail_inf_loss], ids=["constant", "tail-inf"]
    )
    def test_degenerate_splits(self, loss_fn):
        # constant: no key is bad, so the bad density falls back to the good one
        sp = make_tiny_space(cycles=2)
        for seed in range(3):
            got = pairs(tpe_search(sp, AggScorer(loss_fn), 60, seed))
            assert got == reference_tpe(sp, AggScorer(loss_fn), 60, seed)

    @pytest.mark.parametrize(
        "budget, kwargs",
        [
            (40, {"n_candidates": 1}),
            (40, {"startup": 1}),
            (40, {"startup": 1, "n_candidates": 1, "gamma": 0.9}),
            (10, {"startup": 10}),
            (7, {"startup": 12}),
            (0, {}),
        ],
    )
    def test_edge_parameters(self, budget, kwargs):
        sp = make_tiny_space(cycles=2)
        got = pairs(tpe_search(sp, AggScorer(mixed_loss), budget, 5, **kwargs))
        assert got == reference_tpe(sp, AggScorer(mixed_loss), budget, 5, **kwargs)


class TestTPE:
    def test_budget_zero(self, tiny_space):
        keys, losses = tpe_search(tiny_space, AggScorer(separable_loss), 0, seed=0)
        assert keys.shape == (0, tiny_space.slots) and losses.shape == (0,)

    def test_parameter_validation(self, tiny_space):
        scorer = AggScorer(separable_loss)
        with pytest.raises(ValueError, match="gamma"):
            tpe_search(tiny_space, scorer, 10, 0, gamma=0.0)
        with pytest.raises(ValueError, match="gamma"):
            tpe_search(tiny_space, scorer, 10, 0, gamma=1.0)
        with pytest.raises(ValueError):
            tpe_search(tiny_space, scorer, 10, 0, n_candidates=0)
        with pytest.raises(ValueError):
            tpe_search(tiny_space, scorer, 10, 0, startup=0)

    def test_degenerate_equal_losses(self, tiny_space):
        trace = pairs(tpe_search(tiny_space, AggScorer(lambda k: 0.5), 40, seed=1))
        assert len(trace) == 40
        valid = set(key_tuples(all_keys(tiny_space)))
        assert all(key in valid for key, _ in trace)
        assert all(loss == 0.5 for _, loss in trace)

    def test_deterministic_per_seed(self, tiny_space):
        a = pairs(tpe_search(tiny_space, AggScorer(separable_loss), 60, seed=6))
        b = pairs(tpe_search(tiny_space, AggScorer(separable_loss), 60, seed=6))
        assert a == b

    def test_concentrates_on_good_actions(self):
        # on a separable landscape TPE should spend its post-startup budget
        # on lower-loss keys than uniform sampling does
        sp = make_tiny_space(cycles=2)
        budget, startup = 120, 10
        tpe_means, rnd_means = [], []
        for seed in range(5):
            _, tpe = tpe_search(sp, AggScorer(separable_loss), budget, seed, startup=startup)
            _, rnd = random_search(sp, AggScorer(separable_loss), budget, seed)
            tpe_means.append(np.mean(tpe[startup:]))
            rnd_means.append(np.mean(rnd[startup:]))
        assert np.mean(tpe_means) < np.mean(rnd_means)

    def test_finds_low_loss_region(self):
        sp = make_tiny_space(cycles=2)
        for seed in range(5):
            _, tpe = tpe_search(sp, AggScorer(separable_loss), 120, seed)
            # the optimum is 0; staying within one bad slot of it is expected
            assert tpe.min() <= 0.5


def per_slot_keys(space, n, rng):
    """n keys drawn slot by slot, one rng.integers(r) call each: the draws
    every uniform key must reproduce."""
    return [tuple(int(rng.integers(r)) for r in space.slot_radices) for _ in range(n)]


class TestUniformDraws:
    """Uniform keys are drawn in one rng.integers call over every slot's
    radix; they must be the keys of a per-slot loop, draw for draw."""

    @pytest.fixture(scope="class", params=[1, 2], ids=["builtin", "builtin-2cycle"])
    def space_of(self, request):
        return dataclasses.replace(builtin_space(), cycles=request.param)

    @pytest.mark.parametrize("seed", range(1, 6))
    @pytest.mark.parametrize("budget", [1, 7])
    def test_random_search(self, space_of, seed, budget):
        keys, _ = random_search(space_of, AggScorer(mixed_loss), budget, seed)
        assert key_tuples(keys) == per_slot_keys(space_of, budget, np.random.default_rng(seed))

    @pytest.mark.parametrize("seed", range(1, 6))
    @pytest.mark.parametrize("budget", [1, 7, 25])
    def test_tpe_startup(self, space_of, seed, budget):
        # the first `startup` proposals, all drawn before any candidate
        keys, _ = tpe_search(space_of, AggScorer(mixed_loss), budget, seed, startup=10)
        startup = min(budget, 10)
        expected = per_slot_keys(space_of, startup, np.random.default_rng(seed))
        assert key_tuples(keys[:startup]) == expected

    @pytest.mark.parametrize("seed", range(1, 6))
    @pytest.mark.parametrize("warmup", [1, 7, 256])
    def test_fit_on_warmup(self, space_of, obs_contexts, seed, warmup, tmp_path):
        scorer = TerminalScorer(space_of, obs_contexts, {**DEFAULT_CFG, "reward.warmup": warmup},
                                cache_path=tmp_path / "rewards.bin")
        simulated = []

        def raw_losses(keys):  # the keys the warm-up would simulate
            simulated.append(keys)
            return np.zeros((len(keys), len(obs_contexts)))

        scorer.raw_losses = raw_losses
        rng, reference = np.random.default_rng(seed), np.random.default_rng(seed)
        scorer.fit_on_warmup(rng)
        assert simulated == [sorted(set(per_slot_keys(space_of, warmup, reference)))]
        assert rng.random() == reference.random()  # the streams continue alike


# float64 values with ties, signed zeros and both infinities, and NaN
_LOSS = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, 2.5, -1.0, np.inf, -np.inf, np.nan, 1e308, -1e308]),
    st.floats(allow_nan=True, allow_infinity=True),
    st.integers(-3, 3).map(float),
)


class TestQuantile:
    """The TPE split threshold: np.quantile's linear method read from the
    sorted history. It must return np.quantile's value bit for bit, but for
    the sign of a zero and the payload of a NaN (np.sort may canonicalize
    NaNs, and orders 0.0 and -0.0 unlike np.partition), which no comparison
    against the threshold sees."""

    @settings(max_examples=400, deadline=None)
    @given(
        losses=st.lists(_LOSS, min_size=1, max_size=1000),
        gamma=st.one_of(st.sampled_from([0.25, 0.1, 0.5, 0.75, 0.9, 1 / 3]),
                        st.floats(0.0, 1.0, exclude_min=True, exclude_max=True)),
    )
    def test_equals_np_quantile(self, losses, gamma):
        losses = np.array(losses)
        with np.errstate(invalid="ignore"):  # inf - inf in the interpolation
            expected = np.quantile(losses, gamma)
        got = _sorted_quantile(np.sort(losses), gamma)
        if np.isnan(expected):
            assert np.isnan(got)
        else:  # a nonzero float equals only itself bit for bit
            assert got == expected

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 10, 999, 1000])
    @pytest.mark.parametrize("gamma", [0.25, 0.5, 0.75, 0.999])
    def test_every_length_and_level(self, n, gamma):
        rng = np.random.default_rng(n)
        normal = rng.normal(size=n)
        for losses in (normal, rng.integers(0, 3, n).astype(float),
                       np.where(normal > 0.5, np.inf, normal),
                       np.where(normal < -0.5, -np.inf, normal),
                       np.where(normal > 1.0, np.nan, normal)):
            with np.errstate(invalid="ignore"):  # inf - inf in the interpolation
                expected = np.quantile(losses, gamma)
            got = _sorted_quantile(np.sort(losses), gamma)
            assert got == expected or (np.isnan(got) and np.isnan(expected))


class TestSearchTrace:
    def test_best_so_far_monotone(self, tiny_space):
        _, losses = random_search(tiny_space, AggScorer(separable_loss), 100, seed=7)
        losses = losses.tolist()
        series = best_so_far(losses, l_star=0.0, beta=4.0)
        gaps = [gap for _, gap, _ in series]
        # change points: n rises to the last evaluation, the gap falls at each
        ns = [n for n, _, _ in series]
        assert ns[0] == 1 and ns[-1] == 100 and np.all(np.diff(ns) > 0)
        assert np.all(np.diff(gaps[:-1]) < 0) and np.all(np.diff(gaps) <= 0)
        assert gaps[-1] == min(losses)
        assert np.all(np.diff([r for _, _, r in series]) >= 0)

    def test_csv_roundtrip(self, tiny_space, tmp_path):
        trace = tpe_search(tiny_space, AggScorer(separable_loss), 25, seed=8)
        path = tmp_path / "trace.csv"
        export_trace_csv(path, *trace, config_hash="cafef00d")
        assert path.read_text().splitlines()[0] == "# config_hash=cafef00d"
        assert pairs(read_trace_csv(path, tiny_space, "cafef00d")) == pairs(trace)
        with pytest.raises(ValueError, match="expected config hash beef"):
            read_trace_csv(path, tiny_space, "beef")

    def test_csv_floats_exact(self, tiny_space, tmp_path):
        # repr() serialization keeps losses bit-identical through the file
        scorer = AggScorer(lambda k: 1.0 / 3.0 + sum(k) * 1e-17)
        trace = random_search(tiny_space, scorer, 10, seed=9)
        path = tmp_path / "trace.csv"
        export_trace_csv(path, *trace, "beef")
        back = read_trace_csv(path, tiny_space, "beef")
        for (k1, l1), (k2, l2) in zip(pairs(trace), pairs(back)):
            assert k1 == k2
            assert l1 == l2


def csv_writer_trace(path, evaluated, config_hash):
    """A trace file written field by field through csv.writer."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow([f"# config_hash={config_hash}"])
        writer.writerow(["iteration", "key", "loss", "best_so_far"])
        best = float("inf")
        for i, (key, loss) in enumerate(evaluated, start=1):
            best = min(best, loss)
            writer.writerow(["%d" % i, "-".join(map(str, key)), repr(float(loss)), repr(float(best))])


def wide_space():
    """Radices (12, 3) over two cycles: keys with two-digit actions."""
    params = [ParameterSpec("a", 0.0, 1.0, 0.5, group=1), ParameterSpec("b", 0.0, 1.0, 0.5, group=2)]
    groups = [
        GroupSpec(1, "g1", tuple(ActionSpec(f"a{i}", {"a": int(i > 0)}) for i in range(12))),
        GroupSpec(2, "g2", tuple(ActionSpec(f"b{i}", {"b": int(i > 0)}) for i in range(3))),
    ]
    return build_space(groups, params, cycles=2, step_fraction=0.1)


class TestTraceBytes:
    LOSSES = [float("nan"), float("inf"), -0.0, 1e-300, 5e-324, -float("inf"), 0.5, -1.25e17]

    # one row, a part of a chunk, and two whole chunks and a part: the
    # running minimum carries across chunks
    @pytest.mark.parametrize("rows", [0, 1, 300, 2 * _CHUNK + 3])
    def test_bytes_equal_csv_writer_and_read_back(self, tmp_path, rows):
        sp = wide_space()
        rng = np.random.default_rng(rows)
        keys = rng.integers(0, sp.slot_radices, (rows, sp.slots))
        losses = np.array([*self.LOSSES, *rng.normal(0, 1e3, rows).tolist()][:rows])
        if rows:
            keys[0] = (11, 2, 10, 0)
        trace = pairs((keys, losses))
        path, ref = tmp_path / "trace.csv", tmp_path / "ref.csv"
        export_trace_csv(path, keys, losses, "cafef00d")
        csv_writer_trace(ref, trace, "cafef00d")
        assert path.read_bytes() == ref.read_bytes()
        if not rows:  # no stage writes an empty trace, so reading one is an error
            with pytest.raises(ValueError, match=f"{re.escape(str(path))} holds no trace rows"):
                read_trace_csv(path, sp, "cafef00d")
            return
        # any float keeps its bytes on the way out, but a reader refuses a
        # loss that is not finite, such as the first row's nan
        with pytest.raises(ValueError, match="line 3: .*loss nan is not finite"):
            read_trace_csv(path, sp, "cafef00d")
        finite = np.isfinite(losses)
        if finite.any():
            export_trace_csv(path, keys[finite], losses[finite], "cafef00d")
            back = pairs(read_trace_csv(path, sp, "cafef00d"))
            assert [(k, repr(l)) for k, l in back] == [
                (k, repr(float(l))) for k, l in trace if math.isfinite(l)
            ]

    def test_key_text_round_trips_through_the_reader(self, tmp_path):
        sp = wide_space()  # keys with two-digit actions
        keys = all_keys(sp)
        path = tmp_path / "trace.csv"
        export_trace_csv(path, keys, np.zeros(len(keys)), "cafef00d")
        fields = [line.split(",")[1] for line in path.read_text().splitlines()[2:]]
        assert fields == [key_text(key) for key in key_tuples(keys)]
        back, _ = read_trace_csv(path, sp, "cafef00d")
        assert np.array_equal(back, keys)

    def test_bad_row_named_by_its_line(self, tiny_space, tmp_path):
        path = tmp_path / "trace.csv"
        export_trace_csv(path, np.array([(1, 2)] * 6), np.full(6, 0.5), "beef")
        lines = path.read_text().splitlines()
        for rows, error in [
            ({4: "3,1-3,0.5,0.5"}, "line 5: .*action index 3 out of range"),
            ({6: "5,1,0.5,0.5"}, "line 7: .*not terminal"),
            ({5: "4,1-99999999999999999999,0.5,0.5"}, "line 6: .*out of range"),
            # the first bad row in file order is named, whatever is wrong with it
            ({3: "2,1-3,0.5,0.5", 6: "5,1-2,0.5"}, "line 4: .*action index 3 out of range"),
            ({3: "2,1-2,0.5", 6: "5,1-3,0.5,0.5"}, "line 4: .*3 fields"),
            ({3: "2,1-2,x,0.5", 4: "3,1,0.5,0.5"}, "line 4: .*could not convert"),
        ]:
            bad = lines.copy()
            for at, row in rows.items():
                bad[at] = row
            path.write_text("\n".join(bad) + "\n")
            with pytest.raises(ValueError, match=error):
                read_trace_csv(path, tiny_space, "beef")
