import re

import numpy as np
import pytest

from gfnadapt import gflownet as gf
from gfnadapt.nn import Adam, PolicyNet
from gfnadapt.space import enumerate_terminals

from conftest import StubScorer, fixed_passes, make_tiny_space

TINY_REWARDS = {
    (0, 0): 1.0,
    (0, 1): 2.0,
    (0, 2): 0.5,
    (1, 0): 3.0,
    (1, 1): 1.5,
    (1, 2): 0.25,
}


def tiny_stub():
    return StubScorer(dict(TINY_REWARDS))


def delta_net(space, key):
    net = gf.new_policy(space, gf.TrainConfig(), np.random.default_rng(0))
    for t, a in enumerate(key):
        net.head_b[t][a] = 50.0
    return net


def chosen_logp_sum(passes):
    """Per-trajectory sum of the recorded chosen-action log-probs."""
    n = len(passes[0].chosen)
    total = np.zeros(n)
    for p in passes:
        total += p.logp[np.arange(n), p.chosen]
    return total


class TestEncoding:
    def test_dimension_builtin(self, space):
        assert gf.feature_dim(space) == (4 + 6 + 6 + 6 + 8) + 5 == 35

    def test_empty_key(self, space):
        feat = gf.encode_batch(space, [()])[0]
        radices = space.slot_radices
        offsets = np.cumsum([0] + [r + 1 for r in radices])
        for t in range(space.slots):
            assert feat[offsets[t]] == 1.0  # undecided marker
        assert feat[offsets[-1]] == 1.0  # current slot 0
        assert feat.sum() == space.slots + 1

    def test_equal_prefixes_encode_identically(self, space):
        a, b = gf.encode_batch(space, [(1, 2), (1, 2)])
        assert np.array_equal(a, b)
        assert np.array_equal(a, gf.encode_batch(space, [(1, 2)])[0])


class TestForwardPolicy:
    def test_fresh_model_is_uniform(self, tiny_space):
        net = gf.new_policy(tiny_space, gf.TrainConfig(), np.random.default_rng(1))
        for t, r in enumerate(tiny_space.slot_radices):
            _, logp = gf.slot_forward(net, tiny_space, [(0,) * t], t)
            assert np.allclose(np.exp(logp[0]), 1.0 / r, atol=1e-12)

    def test_normalization_random_weights(self, tiny_space):
        rng = np.random.default_rng(2)
        net = gf.new_policy(tiny_space, gf.TrainConfig(hidden=(16, 16)), rng)
        for head in net.head_w:
            head += rng.normal(0, 1, head.shape)
        for t in range(tiny_space.slots):
            _, logp = gf.slot_forward(net, tiny_space, [(1,) * t], t)
            assert abs(np.exp(logp[0]).sum() - 1.0) < 1e-6

    def test_deterministic(self, tiny_space):
        net = gf.new_policy(tiny_space, gf.TrainConfig(), np.random.default_rng(3))
        _, a = gf.slot_forward(net, tiny_space, [()], 0)
        _, b = gf.slot_forward(net, tiny_space, [()], 0)
        assert np.array_equal(a, b)


class TestSampling:
    def test_near_uniform_under_full_exploration(self, tiny_space):
        # delta policy, but eps ~ 1 forces near-uniform action marginals
        net = delta_net(tiny_space, (0, 0))
        rng = np.random.default_rng(4)
        n = 10_000
        keys, _ = gf._rollout(net, tiny_space, n, rng, explore_eps=0.999)
        for t, r in enumerate(tiny_space.slot_radices):
            counts = np.bincount([key[t] for key in keys], minlength=r)
            p = 1.0 / r
            sigma = np.sqrt(n * p * (1 - p))
            assert np.all(np.abs(counts - n * p) <= 3.5 * sigma + n * 0.001)

    def test_delta_policy_without_exploration(self, tiny_space):
        net = delta_net(tiny_space, (1, 2))
        rng = np.random.default_rng(5)
        keys, _ = gf._rollout(net, tiny_space, 50, rng, explore_eps=0.0)
        assert keys == [(1, 2)] * 50

    def test_logp_bookkeeping(self, tiny_space):
        # actions come from the eps-mixed policy, log-probs from the pure one
        rng = np.random.default_rng(6)
        net = gf.new_policy(tiny_space, gf.TrainConfig(hidden=(8, 8)), rng)
        for head in net.head_w:
            head += rng.normal(0, 0.5, head.shape)
        keys, passes = gf._rollout(net, tiny_space, 20, rng, 0.3, keep_caches=True)
        assert len(passes) == tiny_space.slots
        recorded = chosen_logp_sum(passes)
        for i, key in enumerate(keys):
            recomputed = sum(
                net.log_probs(gf.encode_batch(tiny_space, [key[:t]]), t)[0][key[t]]
                for t in range(tiny_space.slots)
            )
            assert recorded[i] == pytest.approx(recomputed, abs=1e-10)
        for t, p in enumerate(passes):
            assert np.array_equal(p.chosen, [key[t] for key in keys])
            assert np.all(p.logp <= 0.0)
            assert np.allclose(np.exp(p.logp).sum(axis=1), 1.0, atol=1e-12)

    def test_recorded_passes_match_fresh_forward(self, space):
        # train's gradient reuses the rollout's passes; they must equal a
        # fresh forward pass over the sampled prefixes bit for bit
        rng = np.random.default_rng(14)
        net = gf.new_policy(space, gf.TrainConfig(), rng)
        for head in net.head_w:
            head += rng.normal(0, 0.05, head.shape)
        keys, passes = gf._rollout(
            net, space, 16, np.random.default_rng(15), 0.2, keep_caches=True
        )
        fresh = fixed_passes(net, space, keys)
        assert len(passes) == len(fresh) == space.slots
        for rec, new in zip(passes, fresh):
            assert len(rec.acts) == len(new.acts)
            for a, b in zip(rec.acts, new.acts):
                assert np.array_equal(a, b)
            assert np.array_equal(rec.logp, new.logp)
            assert np.array_equal(rec.chosen, new.chosen)

    def test_passes_dropped_without_keep_caches(self, tiny_space):
        net = gf.new_policy(tiny_space, gf.TrainConfig(hidden=(8,)), np.random.default_rng(0))
        _, passes = gf._rollout(net, tiny_space, 5, np.random.default_rng(1), 0.0)
        assert passes == []


def random_net(space, seed, hidden=(8, 8)):
    rng = np.random.default_rng(seed)
    net = gf.new_policy(space, gf.TrainConfig(hidden=hidden), rng)
    for head in net.head_w:
        head += rng.normal(0, 0.5, head.shape)
    return net


class TestTBLoss:
    def test_matched_model_zero(self, tiny_space):
        net = random_net(tiny_space, 0)
        keys = [(0, 0), (1, 2), (0, 1)]
        passes = fixed_passes(net, tiny_space, keys)
        log_r = net.log_z + chosen_logp_sum(passes)
        loss, grads = gf.tb_loss_and_grads(net, passes, log_r)
        assert loss == pytest.approx(0.0, abs=1e-12)
        assert grads.log_z == 0.0
        assert all(not g.any() for g in grads.params())

    def test_batch_order_invariant(self, tiny_space):
        net = random_net(tiny_space, 0)
        keys = [(0, 0), (1, 1), (0, 2), (1, 0)]
        log_r = np.array([-1.0, -2.0, 0.5, 0.0])
        perm = [2, 0, 3, 1]
        loss_a, grads_a = gf.tb_loss_and_grads(
            net, fixed_passes(net, tiny_space, keys), log_r
        )
        loss_b, grads_b = gf.tb_loss_and_grads(
            net, fixed_passes(net, tiny_space, [keys[i] for i in perm]), log_r[perm]
        )
        assert loss_a == pytest.approx(loss_b, rel=1e-12)
        assert grads_a.log_z == pytest.approx(grads_b.log_z, rel=1e-12)
        for a, b in zip(grads_a.params(), grads_b.params()):
            assert np.allclose(a, b, rtol=1e-10, atol=1e-15)

    def test_non_finite_rejected(self, tiny_space):
        # a zero reward gives log R = -inf, which train reports as divergence
        scorer = StubScorer({**TINY_REWARDS, (1, 2): 0.0})
        with np.errstate(divide="ignore", invalid="ignore"):
            with pytest.raises(RuntimeError, match="diverged"):
                gf.train(tiny_space, scorer, gf.TrainConfig(steps=50, hidden=(8,)), seed=0)


class TestGradients:
    def test_matches_central_differences(self):
        sp = make_tiny_space()
        rng = np.random.default_rng(7)
        net = gf.new_policy(sp, gf.TrainConfig(hidden=(8, 8, 8)), rng)
        for head in net.head_w:
            head += rng.normal(0, 0.3, head.shape)
        keys = [(0, 0), (1, 2), (0, 1), (1, 0)]
        log_r = np.array([0.0, 0.7, -0.5, 1.1])

        def loss_and_grads():
            return gf.tb_loss_and_grads(net, fixed_passes(net, sp, keys), log_r)

        _, grads = loss_and_grads()
        h = 1e-4
        params = net.params()
        gparams = grads.params()
        rng_idx = np.random.default_rng(8)
        for arr, g in zip(params, gparams):
            flat = arr.ravel()
            gflat = g.ravel()
            for idx in rng_idx.choice(flat.size, size=min(25, flat.size), replace=False):
                orig = flat[idx]
                flat[idx] = orig + h
                up, _ = loss_and_grads()
                flat[idx] = orig - h
                down, _ = loss_and_grads()
                flat[idx] = orig
                fd = (up - down) / (2 * h)
                denom = max(abs(fd), abs(gflat[idx]), 1e-8)
                assert abs(fd - gflat[idx]) / denom <= 1e-4

    def test_log_z_gradient(self):
        sp = make_tiny_space()
        net = gf.new_policy(sp, gf.TrainConfig(hidden=(8,)), np.random.default_rng(9))
        keys = [(0, 0), (1, 1)]
        log_r = np.array([0.2, -0.3])

        def loss_and_grads():
            return gf.tb_loss_and_grads(net, fixed_passes(net, sp, keys), log_r)

        _, grads = loss_and_grads()
        h = 1e-5
        net.log_z += h
        up, _ = loss_and_grads()
        net.log_z -= 2 * h
        down, _ = loss_and_grads()
        net.log_z += h
        fd = (up - down) / (2 * h)
        assert grads.log_z == pytest.approx(fd, rel=1e-6)


class TestTraining:
    def test_tiny_space_learns_target(self, tiny_space):
        rewards = np.array([TINY_REWARDS[k] for k in enumerate_terminals(tiny_space)])
        target = rewards / rewards.sum()
        l1s = []
        for seed in (1, 2, 3):
            result = gf.train(
                tiny_space,
                tiny_stub(),
                gf.TrainConfig(steps=1500, batch=16, hidden=(64, 64)),
                seed,
            )
            learned = gf.exact_terminal_distribution(result.net, tiny_space)
            l1s.append(np.abs(learned - target).sum())
        assert np.median(l1s) <= 0.05

    def test_loss_decreases(self, tiny_space):
        result = gf.train(
            tiny_space, tiny_stub(), gf.TrainConfig(steps=1000, hidden=(32, 32)), seed=0
        )
        losses = [row[1] for row in result.log_rows]
        tenth = len(losses) // 10
        assert np.mean(losses[-tenth:]) < 0.1 * np.mean(losses[:tenth])

    def test_budget_stops_training(self, tiny_space):
        result = gf.train(
            tiny_space,
            tiny_stub(),
            gf.TrainConfig(steps=500, batch=8, budget=3),
            seed=0,
        )
        assert result.stopped_early
        assert len(result.log_rows) < 500

    def test_single_terminal_space_optimum(self):
        import itertools

        from gfnadapt.space import ActionSpec, GroupSpec, ParameterSpec, build_space

        sp = build_space(
            [GroupSpec(1, "g", (ActionSpec("none", {}),))],
            [ParameterSpec("p", 0.0, 1.0, 0.5, group=1)],
            1,
            0.3,
        )
        scorer = StubScorer({(0,): 0.7})
        result = gf.train(sp, scorer, gf.TrainConfig(steps=400, hidden=(8,)), seed=0)
        # with one trajectory, the optimum is log_z = log R and P_F = 1
        assert result.net.log_z == pytest.approx(np.log(0.7), abs=1e-2)
        assert result.log_rows[-1][1] < 1e-4


class TestExactDistribution:
    def test_uniform_policy_builtin(self, space):
        net = gf.new_policy(space, gf.TrainConfig(), np.random.default_rng(0))
        probs = gf.exact_terminal_distribution(net, space)
        assert probs.shape == (2625,)
        assert np.allclose(probs, 1.0 / 2625, atol=1e-15)

    def test_sums_to_one_random_model(self, tiny_space):
        rng = np.random.default_rng(10)
        net = gf.new_policy(tiny_space, gf.TrainConfig(hidden=(16,)), rng)
        for head in net.head_w:
            head += rng.normal(0, 2, head.shape)
        assert abs(gf.exact_terminal_distribution(net, tiny_space).sum() - 1.0) < 1e-9

    def test_cap_enforced(self, space):
        net = gf.new_policy(space, gf.TrainConfig(), np.random.default_rng(0))
        with pytest.raises(ValueError, match="cap"):
            gf.exact_terminal_distribution(net, space, cap=100)

    def test_sampling_consistency_chi_square(self, tiny_space):
        rng = np.random.default_rng(11)
        net = gf.new_policy(tiny_space, gf.TrainConfig(hidden=(16,)), rng)
        for head in net.head_w:
            head += rng.normal(0, 0.5, head.shape)
        probs = gf.exact_terminal_distribution(net, tiny_space)
        n = 100_000
        keys = gf.sample_terminals(net, tiny_space, n, np.random.default_rng(12))
        index = {k: i for i, k in enumerate(enumerate_terminals(tiny_space))}
        counts = np.bincount([index[k] for k in keys], minlength=len(probs))
        chi2 = float((((counts - n * probs) ** 2) / (n * probs)).sum())
        assert chi2 < 15.086  # chi-square critical value, df=5, alpha=0.01


class TabularOptimalPolicy:
    """Exact reward-proportional policy over a tiny space, duck-typed to the
    PolicyNet interface used by exact_terminal_distribution."""

    def __init__(self, space, rewards):
        self.space = space
        self.rewards = rewards
        self.log_z = float(np.log(sum(rewards.values())))

    def _flow(self, prefix):
        return sum(
            r for k, r in self.rewards.items() if k[: len(prefix)] == prefix
        )

    def _decode_prefix(self, feat):
        radices = self.space.slot_radices
        offsets = np.cumsum([0] + [r + 1 for r in radices])
        length = int(np.argmax(feat[offsets[-1] :]))
        return tuple(
            int(np.argmax(feat[offsets[t] : offsets[t + 1]])) - 1 for t in range(length)
        )

    def log_probs(self, feats, slot):
        out = []
        for feat in feats:
            prefix = self._decode_prefix(feat)
            flows = np.array(
                [
                    self._flow(prefix + (a,))
                    for a in range(self.space.slot_radices[slot])
                ]
            )
            out.append(np.log(flows / flows.sum()))
        return np.array(out)


def test_optimal_tabular_policy_matches_target(tiny_space):
    policy = TabularOptimalPolicy(tiny_space, TINY_REWARDS)
    probs = gf.exact_terminal_distribution(policy, tiny_space)
    rewards = np.array([TINY_REWARDS[k] for k in enumerate_terminals(tiny_space)])
    target = rewards / rewards.sum()
    assert np.allclose(probs, target, atol=1e-12)
    # trajectory balance holds exactly along every trajectory
    for i, key in enumerate(enumerate_terminals(tiny_space)):
        assert policy.log_z + np.log(probs[i]) == pytest.approx(
            np.log(TINY_REWARDS[key]), abs=1e-12
        )


class TestSampleTerminals:
    def test_zero_draws(self, tiny_space):
        net = gf.new_policy(tiny_space, gf.TrainConfig(), np.random.default_rng(0))
        assert gf.sample_terminals(net, tiny_space, 0, np.random.default_rng(0)) == []

    def test_reproducible(self, tiny_space):
        net = gf.new_policy(tiny_space, gf.TrainConfig(), np.random.default_rng(0))
        a = gf.sample_terminals(net, tiny_space, 20, np.random.default_rng(5))
        b = gf.sample_terminals(net, tiny_space, 20, np.random.default_rng(5))
        assert a == b

    def test_delta_policy(self, tiny_space):
        net = delta_net(tiny_space, (1, 0))
        keys = gf.sample_terminals(net, tiny_space, 10, np.random.default_rng(0))
        assert keys == [(1, 0)] * 10


class TestCheckpoint:
    def test_roundtrip(self, tiny_space, tmp_path):
        rng = np.random.default_rng(13)
        net = gf.new_policy(tiny_space, gf.TrainConfig(hidden=(8, 8)), rng)
        net.log_z = 1.25
        for head in net.head_w:
            head += rng.normal(0, 1, head.shape)
        path = tmp_path / "ckpt.bin"
        signature = gf.checkpoint_signature(tiny_space, "0123456789ab")
        gf.save_checkpoint(path, net, signature, rng_state={"seed": 13})
        loaded, rng_state = gf.load_checkpoint(path, signature)
        assert rng_state == {"seed": 13}
        assert loaded.log_z == net.log_z
        for a, b in zip(net.params(), loaded.params()):
            assert np.array_equal(a, b)

    def test_deterministic_bytes(self, tiny_space, tmp_path):
        net = gf.new_policy(tiny_space, gf.TrainConfig(hidden=(8,)), np.random.default_rng(1))
        signature = gf.checkpoint_signature(tiny_space, "0123456789ab")
        gf.save_checkpoint(tmp_path / "a.bin", net, signature)
        gf.save_checkpoint(tmp_path / "b.bin", net, signature)
        assert (tmp_path / "a.bin").read_bytes() == (tmp_path / "b.bin").read_bytes()

    @pytest.mark.parametrize("field", ["slot_radices", "feature_dim", "run_hash"])
    def test_signature_mismatch_refused(self, tiny_space, tmp_path, field):
        net = gf.new_policy(tiny_space, gf.TrainConfig(hidden=(8,)), np.random.default_rng(1))
        signature = gf.checkpoint_signature(tiny_space, "0123456789ab")
        gf.save_checkpoint(tmp_path / "a.bin", net, signature)
        other = dict(signature, **{field: "something else"})
        with pytest.raises(ValueError, match=re.escape(f"{field} is {signature[field]!r}, expected")):
            gf.load_checkpoint(tmp_path / "a.bin", other)


def test_unique_trajectory_per_terminal(tiny_space):
    # tree property: the only trajectory to a terminal is its prefix chain,
    # so the parent of any non-empty key is its one-shorter prefix
    for key in enumerate_terminals(tiny_space):
        for t in range(1, len(key) + 1):
            assert key[:t][:-1] == key[: t - 1]


def test_adam_moves_toward_minimum():
    net = PolicyNet(
        trunk_w=[np.array([[1.0]])],
        trunk_b=[np.array([0.0])],
        head_w=[np.array([[0.0]])],
        head_b=[np.array([0.0])],
        log_z=5.0,
    )
    opt = Adam(lr=0.1, log_z_lr=0.1)
    from gfnadapt.nn import Gradients

    for _ in range(200):
        grads = Gradients.zeros_like(net)
        grads.log_z = 2 * net.log_z  # d/dz of z^2
        opt.step(net, grads)
    assert abs(net.log_z) < 0.1
