import dataclasses

import numpy as np
import pytest

from gfnadapt.baselines import SearchTrace, random_search, tpe_search
from gfnadapt.metrics import best_so_far
from gfnadapt.simulator import builtin_space
from gfnadapt.space import enumerate_terminals

from conftest import make_tiny_space


class AggScorer:
    """Scorer stand-in returning a fixed aggregate loss per key."""

    def __init__(self, loss_fn):
        self.loss_fn = loss_fn
        self.calls = []

    def score(self, keys):
        class Rec:
            pass

        self.calls.append(list(keys))
        records = []
        for key in keys:
            rec = Rec()
            rec.aggregate = self.loss_fn(key)
            rec.reward = float(np.exp(-4.0 * rec.aggregate))
            records.append(rec)
        return records


def separable_loss(key):
    # per-slot penalty, minimized at action 1 in slot 0 and action 2 in slot 1
    penalties = [{0: 0.4, 1: 0.0}, {0: 0.5, 1: 0.3, 2: 0.0}]
    return sum(penalties[t % 2][a] for t, a in enumerate(key))


class TestRandomSearch:
    def test_budget_zero(self, tiny_space):
        trace = random_search(tiny_space, AggScorer(separable_loss), 0, seed=0)
        assert trace.evaluated == []
        assert trace.method == "random"

    def test_negative_budget_rejected(self, tiny_space):
        with pytest.raises(ValueError, match="budget"):
            random_search(tiny_space, AggScorer(separable_loss), -1, seed=0)

    def test_keys_valid_and_count(self, tiny_space):
        trace = random_search(tiny_space, AggScorer(separable_loss), 200, seed=1)
        assert len(trace.evaluated) == 200
        valid = set(enumerate_terminals(tiny_space))
        assert all(key in valid for key, _ in trace.evaluated)

    def test_marginals_uniform(self, tiny_space):
        n = 6000
        trace = random_search(tiny_space, AggScorer(separable_loss), n, seed=2)
        for t, r in enumerate(tiny_space.slot_radices):
            counts = np.bincount([k[t] for k, _ in trace.evaluated], minlength=r)
            p = 1.0 / r
            sigma = np.sqrt(n * p * (1 - p))
            assert np.all(np.abs(counts - n * p) <= 4 * sigma)

    def test_deterministic_per_seed(self, tiny_space):
        a = random_search(tiny_space, AggScorer(separable_loss), 50, seed=3)
        b = random_search(tiny_space, AggScorer(separable_loss), 50, seed=3)
        c = random_search(tiny_space, AggScorer(separable_loss), 50, seed=4)
        assert a.evaluated == b.evaluated
        assert a.evaluated != c.evaluated

    def test_keys_drawn_as_one_key_at_a_time(self, tiny_space):
        # all keys are drawn before the one scoring call, in the rng order
        # of drawing and scoring key by key
        rng = np.random.default_rng(8)
        expected = [
            tuple(int(rng.integers(r)) for r in tiny_space.slot_radices) for _ in range(40)
        ]
        scorer = AggScorer(separable_loss)
        trace = random_search(tiny_space, scorer, 40, seed=8)
        assert [key for key, _ in trace.evaluated] == expected
        assert scorer.calls == [expected]

    def test_losses_match_scorer_exactly(self, tiny_space):
        scorer = AggScorer(separable_loss)
        trace = random_search(tiny_space, scorer, 30, seed=5)
        for key, loss in trace.evaluated:
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
        evaluated.append((key, scorer.score([key])[0].aggregate))
    return evaluated


def mixed_loss(key):
    # deterministic, uneven, with ties: exercises quantile splits and argmax ties
    return sum(((a + 1) * (t + 3)) % 7 for t, a in enumerate(key)) / 10.0


def tail_inf_loss(key):
    # most keys infinite: the gamma quantile itself can be inf or nan
    return mixed_loss(key) if key[0] == 1 and key[1] == 0 else float("inf")


class TestTPEMatchesReference:
    """`tpe_search` proposes in array passes; its trace must equal the
    per-candidate sampler's exactly (keys, losses and order)."""

    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("which", ["tiny", "builtin-2cycle"])
    def test_seeds(self, tiny_space, which, seed):
        sp = tiny_space if which == "tiny" else dataclasses.replace(builtin_space(), cycles=2)
        budget = 150 if which == "tiny" else 80
        got = tpe_search(sp, AggScorer(mixed_loss), budget, seed).evaluated
        assert got == reference_tpe(sp, AggScorer(mixed_loss), budget, seed)

    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")  # quantile of infs
    @pytest.mark.parametrize(
        "loss_fn", [lambda k: 0.5, tail_inf_loss], ids=["constant", "tail-inf"]
    )
    def test_degenerate_splits(self, loss_fn):
        # constant: no key is bad, so the bad density falls back to the good one
        sp = make_tiny_space(cycles=2)
        for seed in range(3):
            got = tpe_search(sp, AggScorer(loss_fn), 60, seed).evaluated
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
        got = tpe_search(sp, AggScorer(mixed_loss), budget, 5, **kwargs).evaluated
        assert got == reference_tpe(sp, AggScorer(mixed_loss), budget, 5, **kwargs)


class TestTPE:
    def test_budget_zero(self, tiny_space):
        trace = tpe_search(tiny_space, AggScorer(separable_loss), 0, seed=0)
        assert trace.evaluated == []

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
        trace = tpe_search(tiny_space, AggScorer(lambda k: 0.5), 40, seed=1)
        assert len(trace.evaluated) == 40
        valid = set(enumerate_terminals(tiny_space))
        assert all(key in valid for key, _ in trace.evaluated)
        assert all(loss == 0.5 for _, loss in trace.evaluated)

    def test_deterministic_per_seed(self, tiny_space):
        a = tpe_search(tiny_space, AggScorer(separable_loss), 60, seed=6)
        b = tpe_search(tiny_space, AggScorer(separable_loss), 60, seed=6)
        assert a.evaluated == b.evaluated

    def test_concentrates_on_good_actions(self):
        # on a separable landscape TPE should spend its post-startup budget
        # on lower-loss keys than uniform sampling does
        sp = make_tiny_space(cycles=2)
        budget, startup = 120, 10
        tpe_means, rnd_means = [], []
        for seed in range(5):
            tpe = tpe_search(sp, AggScorer(separable_loss), budget, seed, startup=startup)
            rnd = random_search(sp, AggScorer(separable_loss), budget, seed)
            tpe_means.append(np.mean([l for _, l in tpe.evaluated[startup:]]))
            rnd_means.append(np.mean([l for _, l in rnd.evaluated[startup:]]))
        assert np.mean(tpe_means) < np.mean(rnd_means)

    def test_finds_low_loss_region(self):
        sp = make_tiny_space(cycles=2)
        for seed in range(5):
            tpe = tpe_search(sp, AggScorer(separable_loss), 120, seed)
            # the optimum is 0; staying within one bad slot of it is expected
            assert min(l for _, l in tpe.evaluated) <= 0.5


class TestSearchTrace:
    def test_best_so_far_monotone(self, tiny_space):
        trace = random_search(tiny_space, AggScorer(separable_loss), 100, seed=7)
        losses = [l for _, l in trace.evaluated]
        series = best_so_far(losses, l_star=0.0, beta=4.0)
        gaps = [gap for _, gap, _ in series]
        assert [n for n, _, _ in series] == list(range(1, 101))
        assert np.all(np.diff(gaps) <= 0)
        assert gaps[-1] == min(losses)
        assert np.all(np.diff([r for _, _, r in series]) >= 0)

    def test_csv_roundtrip(self, tiny_space, tmp_path):
        trace = tpe_search(tiny_space, AggScorer(separable_loss), 25, seed=8)
        path = tmp_path / "trace.csv"
        trace.export_csv(path, config_hash="cafef00d")
        assert path.read_text().splitlines()[0] == "# config_hash=cafef00d"
        loaded = SearchTrace.from_csv(path, method="tpe", seed=8)
        assert loaded.evaluated == trace.evaluated

    def test_csv_floats_exact(self, tiny_space, tmp_path):
        # repr() serialization keeps losses bit-identical through the file
        scorer = AggScorer(lambda k: 1.0 / 3.0 + sum(k) * 1e-17)
        trace = random_search(tiny_space, scorer, 10, seed=9)
        path = tmp_path / "trace.csv"
        trace.export_csv(path)
        loaded = SearchTrace.from_csv(path)
        for (k1, l1), (k2, l2) in zip(trace.evaluated, loaded.evaluated):
            assert k1 == k2
            assert l1 == l2
