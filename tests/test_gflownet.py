import dataclasses
import itertools
import json
import re
import struct

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from gfnadapt import gflownet as gf
from gfnadapt import nn
from gfnadapt.nn import Adam, Gradients, PolicyNet
from gfnadapt.space import all_keys, key_tuples

from conftest import DEFAULT_CFG, StubScorer, fixed_passes, make_tiny_space, tb_fresh

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


def tiny_target():
    """The tiny space's six terminal keys in enumeration order, as an int
    array, and their TINY_REWARDS normalised."""
    keys = np.array(sorted(TINY_REWARDS))
    rewards = np.array([TINY_REWARDS[key] for key in sorted(TINY_REWARDS)])
    return keys, rewards / rewards.sum()


def forward_kl_fresh(net, space, keys, target):
    """(forward KL to `target` over the terminals `keys`, less the target's
    entropy: -sum p*(x) log P_F(x); its gradients, written by the shared
    backward into a new buffer). d loss / d log P_F(x) is -p*(x)."""
    passes = gf._rollout(net, space, keys=keys, keep_caches=True)
    grads = Gradients.zeros_like(net)
    gf._backward(net, passes, -target, grads)
    return -float(target @ gf.log_pf(passes)), grads


def delta_net(space, key):
    net = gf.new_policy(space, DEFAULT_CFG["train.hidden"], np.random.default_rng(0))
    for t, a in enumerate(key):
        net.head_b[t][a] = 50.0
    return net


def per_row_logp(passes):
    """Each slot's recorded log-probs gathered to one row per trajectory,
    (n, radix), by the trajectory's prefix row."""
    return [logp[inv] for logp, inv in zip(passes.logp, passes.inv)]


def chosen_logp_sum(passes):
    """Per-trajectory sum of the recorded chosen-action log-probs."""
    n = len(passes.chosen)
    total = np.zeros(n)
    for t, logp in enumerate(per_row_logp(passes)):
        total += logp[np.arange(n), passes.chosen[:, t]]
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

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("which", ["tiny", "builtin", "two_cycle"])
    def test_every_prefix_length_matches_a_per_row_reference(self, space, tiny_space, which,
                                                             dtype):
        spaces = {"tiny": tiny_space, "builtin": space,
                  "two_cycle": dataclasses.replace(space, cycles=2)}
        s = spaces[which]
        radices = s.slot_radices
        rng = np.random.default_rng(3)
        for t in range(s.slots):
            keys = [[int(rng.integers(r)) for r in radices[:t]] for _ in range(6)]
            keys[0] = [r - 1 for r in radices[:t]]  # each slot's last action
            expected = []
            for key in keys:
                row = []
                for slot, r in enumerate(radices):
                    block = [0.0] * (r + 1)  # undecided, then one column per action
                    block[1 + key[slot] if slot < t else 0] = 1.0
                    row += block
                current = [0.0] * s.slots
                current[t] = 1.0
                expected.append(row + current)
            got = gf.encode_batch(s, np.array(keys, dtype=np.int64).reshape(6, t), dtype)
            assert got.dtype == dtype and got.shape == (6, gf.feature_dim(s))
            assert np.array_equal(got, np.array(expected, dtype=dtype))


class TestForwardPolicy:
    def test_fresh_model_is_uniform(self, tiny_space):
        net = gf.new_policy(tiny_space, DEFAULT_CFG["train.hidden"], np.random.default_rng(1))
        for t, r in enumerate(tiny_space.slot_radices):
            _, logp = gf.slot_forward(net, tiny_space, [(0,) * t], t)
            assert np.allclose(np.exp(logp[0]), 1.0 / r, atol=1e-12)

    def test_normalization_random_weights(self, tiny_space):
        rng = np.random.default_rng(2)
        net = gf.new_policy(tiny_space, (16, 16), rng)
        for head in net.head_w:
            head += rng.normal(0, 1, head.shape)
        for t in range(tiny_space.slots):
            _, logp = gf.slot_forward(net, tiny_space, [(1,) * t], t)
            assert abs(np.exp(logp[0]).sum() - 1.0) < 1e-6

    def test_deterministic(self, tiny_space):
        net = gf.new_policy(tiny_space, DEFAULT_CFG["train.hidden"], np.random.default_rng(3))
        _, a = gf.slot_forward(net, tiny_space, [()], 0)
        _, b = gf.slot_forward(net, tiny_space, [()], 0)
        assert np.array_equal(a, b)


class TestSampling:
    def test_near_uniform_under_full_exploration(self, tiny_space):
        # delta policy, but eps ~ 1 forces near-uniform action marginals
        net = delta_net(tiny_space, (0, 0))
        rng = np.random.default_rng(4)
        n = 10_000
        keys = gf._rollout(net, tiny_space, rng.random((2, n)), explore_eps=0.999).chosen
        for t, r in enumerate(tiny_space.slot_radices):
            counts = np.bincount([key[t] for key in keys], minlength=r)
            p = 1.0 / r
            sigma = np.sqrt(n * p * (1 - p))
            assert np.all(np.abs(counts - n * p) <= 3.5 * sigma + n * 0.001)

    def test_delta_policy_without_exploration(self, tiny_space):
        net = delta_net(tiny_space, (1, 2))
        rng = np.random.default_rng(5)
        keys = gf._rollout(net, tiny_space, rng.random((2, 50)), explore_eps=0.0).chosen
        assert keys.tolist() == [[1, 2]] * 50

    def test_logp_bookkeeping(self, tiny_space):
        # actions come from the eps-mixed policy, log-probs from the pure one
        rng = np.random.default_rng(6)
        net = gf.new_policy(tiny_space, (8, 8), rng)
        for head in net.head_w:
            head += rng.normal(0, 0.5, head.shape)
        passes = gf._rollout(net, tiny_space, rng.random((2, 20)), 0.3, keep_caches=True)
        assert len(passes.logp) == tiny_space.slots
        recorded = gf.log_pf(passes)
        assert np.array_equal(recorded, chosen_logp_sum(passes))
        for i, key in enumerate(passes.chosen):
            recomputed = sum(
                gf.slot_forward(net, tiny_space, [key[:t]], t)[1][0][key[t]]
                for t in range(tiny_space.slots)
            )
            assert recorded[i] == pytest.approx(recomputed, abs=1e-10)
        for logp in passes.logp:
            assert np.all(logp <= 0.0)
            assert np.allclose(np.exp(logp).sum(axis=1), 1.0, atol=1e-12)

    def test_recorded_passes_match_fresh_forward(self, space):
        # train's gradient reuses the rollout's passes; they must equal a
        # fresh forward pass over the same distinct prefixes bit for bit
        rng = np.random.default_rng(14)
        net = gf.new_policy(space, DEFAULT_CFG["train.hidden"], rng)
        for head in net.head_w:
            head += rng.normal(0, 0.05, head.shape)
        passes = gf._rollout(
            net, space, np.random.default_rng(15).random((space.slots, 16)), 0.2,
            keep_caches=True,
        )
        fresh = fixed_passes(net, space, passes.chosen)
        assert [len(logp) for logp in passes.logp] == [len(logp) for logp in fresh.logp]
        assert len(passes.acts) == len(fresh.acts) == len(net.trunk_w) + 1
        for a, b in zip(passes.acts, fresh.acts):
            assert a.shape == (sum(map(len, passes.logp)), b.shape[1])
            assert np.array_equal(a, b)
        assert len(passes.logp) == len(fresh.logp) == space.slots
        for a, b in zip(passes.logp, fresh.logp):
            assert np.array_equal(a, b)
        for a, b in zip(passes.inv, fresh.inv):
            assert np.array_equal(a, b)
        assert np.array_equal(passes.chosen, fresh.chosen)

    @pytest.mark.parametrize("eps, n", [(0.0, 16), (0.9, 16), (0.2, 64)])
    def test_one_row_per_distinct_prefix(self, space, eps, n):
        rng = np.random.default_rng(16)
        net = gf.new_policy(space, (32, 32), rng)
        for head in net.head_w:
            head += rng.normal(0, 1.0, head.shape)
        passes = gf._rollout(net, space, rng.random((space.slots, n)), eps, True)
        keys = passes.chosen.tolist()
        distinct = [len({tuple(k[:t]) for k in keys}) for t in range(space.slots)]
        assert distinct[0] == 1
        assert [len(logp) for logp in passes.logp] == distinct
        assert all(len(a) == sum(distinct) for a in passes.acts)
        for inv, logp in zip(passes.inv, passes.logp):
            assert inv.shape == (n,)
            assert np.array_equal(np.unique(inv), np.arange(len(logp)))

    def test_gathered_logp_match_per_row_forward(self, space):
        # a GEMM over fewer rows may round differently in the last place
        rng = np.random.default_rng(17)
        net = gf.new_policy(space, DEFAULT_CFG["train.hidden"], rng, dtype=np.float64)
        for head in net.head_w:
            head += rng.normal(0, 0.5, head.shape)
        passes = gf._rollout(net, space, rng.random((space.slots, 64)), 0.3, True)
        for t, logp in enumerate(per_row_logp(passes)):
            _, fresh = gf.slot_forward(net, space, passes.chosen[:, :t], t)
            assert np.abs(logp - fresh).max() <= 1e-12

    @pytest.mark.parametrize("cycles", [1, 2])
    def test_teacher_forced_passes_match_fresh_forward(self, space, cycles):
        # keys read instead of drawn give the passes of those keys' prefixes
        sp = dataclasses.replace(space, cycles=cycles)
        rng = np.random.default_rng(18)
        net = random_net(sp, 19, hidden=(32, 32))
        keys = rng.integers(0, sp.slot_radices, size=(24, sp.slots))
        keys = np.concatenate([keys, keys[:8], keys[3:5]])  # repeated keys
        passes = gf._rollout(net, sp, keys=keys, keep_caches=True)
        fresh = fixed_passes(net, sp, keys)
        assert len(passes.acts) == len(fresh.acts)
        for field in ("acts", "logp", "inv"):
            for a, b in zip(getattr(passes, field), getattr(fresh, field)):
                assert a.dtype == b.dtype and np.array_equal(a, b)
        assert np.array_equal(passes.chosen, keys)

    def test_passes_dropped_without_keep_caches(self, tiny_space):
        net = gf.new_policy(tiny_space, (8,), np.random.default_rng(0))
        passes = gf._rollout(net, tiny_space, np.random.default_rng(1).random((2, 5)), 0.0)
        assert passes.acts is None


@given(st.integers(1, 6), st.integers(1, 5), st.lists(st.integers(0, 10**6), min_size=1, max_size=64))
@example(3, 4, [5] * 9)  # all equal
@example(3, 4, list(range(12))[::-1])  # all distinct, every code
@example(3, 4, [11, 0, 11, 11])  # the largest code, repeated
@example(1, 1, [0])
def test_distinct_codes_match_np_unique(parents, radix, raw):
    # codes as _rollout forms them: a parent prefix's row times the radix
    # plus an action; the prefix a code stands for is (parent row, action)
    bound = parents * radix
    codes = np.array(raw, dtype=np.int64) % bound
    first, inv = gf._distinct_codes(codes, bound)
    _, ref_first, ref_inv = np.unique(codes, return_index=True, return_inverse=True)
    assert np.array_equal(inv, ref_inv.ravel())
    prefixes = np.column_stack([codes // radix, codes % radix])
    assert np.array_equal(prefixes[first], prefixes[ref_first])


def unique_rollout(net, space, u, explore_eps):
    """A rollout whose distinct prefixes come from np.unique over each
    slot's codes."""
    slots, n = u.shape
    keys = np.zeros((n, slots), dtype=np.int64)
    per_slot, inverses = [], []
    first, inv = np.zeros(1, dtype=np.intp), np.zeros(n, dtype=np.intp)
    for t, n_actions in enumerate(space.slot_radices):
        if t:
            _, first, inv = np.unique(codes, return_index=True, return_inverse=True)
            inv = inv.ravel()
        acts, logp = gf.slot_forward(net, space, keys[first, :t], t)
        mixed = (1.0 - explore_eps) * np.exp(logp) + explore_eps / n_actions
        cdf = mixed.cumsum(axis=1)[inv]
        keys[:, t] = (cdf < u[t, :, None]).sum(axis=1).clip(max=n_actions - 1)
        codes = inv * n_actions + keys[:, t]
        per_slot.append((acts, logp))
        inverses.append(inv)
    acts = [np.concatenate(layer) for layer in zip(*(a for a, _ in per_slot))]
    return keys, gf.RolloutPasses(acts, [logp for _, logp in per_slot], keys, inverses)


@pytest.mark.parametrize("n", [1, 16, 64])
@pytest.mark.parametrize("eps", [0.0, 0.2, 0.9])
def test_rollout_equals_np_unique_rollout(space, eps, n):
    rng = np.random.default_rng(40)
    net = gf.new_policy(space, DEFAULT_CFG["train.hidden"], rng)
    for head in net.head_w:
        head += rng.normal(0, 0.5, head.shape)
    u = rng.random((space.slots, n))
    passes = gf._rollout(net, space, u, eps, keep_caches=True)
    ref_keys, ref = unique_rollout(net, space, u, eps)
    assert np.array_equal(passes.chosen, ref_keys)
    assert np.array_equal(gf._rollout(net, space, u, eps).chosen, ref_keys)
    for field, ref_field in zip(passes, ref):
        if isinstance(field, list):
            assert len(field) == len(ref_field)
            for a, b in zip(field, ref_field):
                assert a.dtype == b.dtype and np.array_equal(a, b)
        else:
            assert np.array_equal(field, ref_field)


def random_net(space, seed, hidden=(8, 8), dtype=np.float32):
    rng = np.random.default_rng(seed)
    net = gf.new_policy(space, hidden, rng, dtype=dtype)
    for head in net.head_w:
        head += rng.normal(0, 0.5, head.shape)
    return net


class TestTBLoss:
    def test_matched_model_zero(self, tiny_space):
        net = random_net(tiny_space, 0)
        keys = [(0, 0), (1, 2), (0, 1)]
        passes = fixed_passes(net, tiny_space, keys)
        log_r = net.log_z + chosen_logp_sum(passes)
        loss, grads = tb_fresh(net, passes, log_r)
        assert loss == pytest.approx(0.0, abs=1e-12)
        assert grads.log_z == 0.0
        assert all(not g.any() for g in grads.params())

    def test_batch_order_invariant(self, tiny_space):
        net = random_net(tiny_space, 0)
        keys = [(0, 0), (1, 1), (0, 2), (1, 0)]
        log_r = np.array([-1.0, -2.0, 0.5, 0.0])
        perm = [2, 0, 3, 1]
        loss_a, grads_a = tb_fresh(
            net, fixed_passes(net, tiny_space, keys), log_r
        )
        loss_b, grads_b = tb_fresh(
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
                cfg = {**DEFAULT_CFG, "train.steps": 50, "train.hidden": [8]}
                gf.train(tiny_space, scorer, cfg, seed=0)


class TestGradients:
    @pytest.mark.parametrize("objective", ["tb", "forward-kl"])
    def test_matches_central_differences(self, objective):
        sp = make_tiny_space()
        rng = np.random.default_rng(7)
        net = gf.new_policy(sp, (8, 8, 8), rng, dtype=np.float64)
        for head in net.head_w:
            head += rng.normal(0, 0.3, head.shape)
        keys = [(0, 0), (1, 2), (0, 1), (1, 0)]
        log_r = np.array([0.0, 0.7, -0.5, 1.1])
        every_key, target = tiny_target()

        def loss_and_grads():
            if objective == "forward-kl":
                return forward_kl_fresh(net, sp, every_key, target)
            return tb_fresh(net, fixed_passes(net, sp, keys), log_r)

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
        net = gf.new_policy(sp, (8,), np.random.default_rng(9))
        keys = [(0, 0), (1, 1)]
        log_r = np.array([0.2, -0.3])

        def loss_and_grads():
            return tb_fresh(net, fixed_passes(net, sp, keys), log_r)

        _, grads = loss_and_grads()
        h = 1e-5
        net.log_z += h
        up, _ = loss_and_grads()
        net.log_z -= 2 * h
        down, _ = loss_and_grads()
        net.log_z += h
        fd = (up - down) / (2 * h)
        assert grads.log_z == pytest.approx(fd, rel=1e-6)

    def test_forward_kl_fit_reaches_the_tiny_target(self, tiny_space):
        keys, target = tiny_target()
        net = gf.new_policy(tiny_space, (16, 16), np.random.default_rng(0))
        opt = Adam(lr=5e-3, log_z_lr=0.1)
        for _ in range(300):
            _, grads = forward_kl_fresh(net, tiny_space, keys, target)
            opt.step(net, grads)
        learned = gf.exact_terminal_distribution(net, tiny_space)
        assert np.abs(learned - target).sum() <= 0.01


def reference_grads(net, passes, dlogp):
    """Gradient of a loss whose d loss / d log P_F per trajectory is `dlogp`,
    by the per-row, per-slot backward: the recorded passes expanded to one
    row per trajectory at every slot, and every slot's head and trunk
    gradients accumulated from those rows, one slot at a time. log_z's
    gradient is left at 0."""
    rows = np.arange(len(dlogp))
    grads = Gradients.zeros_like(net)
    starts = np.cumsum([0, *map(len, passes.logp)])  # each slot's first row in acts
    for t, logp in enumerate(per_row_logp(passes)):
        dlogits = -np.exp(logp) * dlogp[:, None]
        dlogits[rows, passes.chosen[:, t]] += dlogp
        block = starts[t] + passes.inv[t]
        acts = [a[block] for a in passes.acts]
        grads.head_w[t][...] += acts[-1].T @ dlogits
        grads.head_b[t][...] += dlogits.sum(axis=0)
        dh = dlogits @ net.head_w[t].T
        for i in range(len(net.trunk_w) - 1, -1, -1):
            dh = dh * (acts[i + 1] > 0.0)
            grads.trunk_w[i][...] += acts[i].T @ dh
            grads.trunk_b[i][...] += dh.sum(axis=0)
            dh = dh @ net.trunk_w[i].T
    return grads


def reference_tb_grads(net, passes, log_rewards):
    """TB's gradient by reference_grads, and its log_z gradient."""
    residual = net.log_z + chosen_logp_sum(passes) - log_rewards
    grads = reference_grads(net, passes, 2.0 * residual / len(log_rewards))
    grads.log_z = float(np.mean(2.0 * residual))
    return grads


def assert_grads_close(grads, ref, rel):
    assert grads.log_z == pytest.approx(ref.log_z, rel=1e-15, abs=0.0)
    for a, b in zip(grads.params(), ref.params()):
        assert np.linalg.norm(a - b) <= rel * np.linalg.norm(b)


class ReferenceAdam:
    """Adam as one expression per parameter array, moments per array."""

    def __init__(self, lr, log_z_lr, beta1=0.9, beta2=0.999, eps=1e-8):
        self.lr, self.log_z_lr, self.beta1, self.beta2, self.eps = lr, log_z_lr, beta1, beta2, eps
        self.t, self.m, self.v, self.mz, self.vz = 0, None, None, 0.0, 0.0

    def step(self, net, grads):
        params, gs = net.params(), grads.params()
        if self.m is None:
            self.m = [np.zeros_like(p) for p in params]
            self.v = [np.zeros_like(p) for p in params]
        self.t += 1
        bc1 = 1.0 - self.beta1**self.t
        bc2 = 1.0 - self.beta2**self.t
        for p, g, m, v in zip(params, gs, self.m, self.v):
            m *= self.beta1
            m += (1.0 - self.beta1) * g
            v *= self.beta2
            v += (1.0 - self.beta2) * g * g
            p -= self.lr * (m / bc1) / (np.sqrt(v / bc2) + self.eps)
        self.mz = self.beta1 * self.mz + (1.0 - self.beta1) * grads.log_z
        self.vz = self.beta2 * self.vz + (1.0 - self.beta2) * grads.log_z**2
        net.log_z = float(
            net.log_z - self.log_z_lr * (self.mz / bc1) / (np.sqrt(self.vz / bc2) + self.eps)
        )


class TestFlatParameters:
    def test_views_share_the_flat_buffer(self, space):
        net = gf.new_policy(space, (16, 16), np.random.default_rng(0))
        sizes = [p.size for p in net.params()]
        assert net.flat.size == sum(sizes)
        assert np.array_equal(net.flat, np.concatenate([p.ravel() for p in net.params()]))
        for t, head in enumerate(net.head_w):
            assert np.shares_memory(net.flat, head)
            head += float(t + 1)
        start = sum(sizes[: 2 * len(net.trunk_w)])
        assert np.array_equal(net.flat[start : start + net.head_w[0].size], np.ones(net.head_w[0].size))

    def test_stacked_backward_matches_per_slot_reference(self, space):
        rng = np.random.default_rng(21)
        net = gf.new_policy(space, DEFAULT_CFG["train.hidden"], rng, dtype=np.float64)
        for head in net.head_w:
            head += rng.normal(0, 0.05, head.shape)
        net.log_z = 0.3
        passes = gf._rollout(net, space, rng.random((space.slots, 16)), 0.2, keep_caches=True)
        log_r = rng.normal(-1.0, 0.5, 16)
        _, grads = tb_fresh(net, passes, log_r)
        ref = reference_tb_grads(net, passes, log_r)
        assert grads.log_z == ref.log_z
        assert_grads_close(grads, ref, 1e-12)

    def test_forward_kl_backward_matches_per_row_reference(self, space):
        # the shared backward under a second objective: the forward KL over a
        # scored set of 64 terminals, teacher-forced through the rollout
        rng = np.random.default_rng(27)
        net = gf.new_policy(space, DEFAULT_CFG["train.hidden"], rng, dtype=np.float64)
        for head in net.head_w:
            head += rng.normal(0, 0.05, head.shape)
        terminals = all_keys(space)
        keys = terminals[rng.choice(len(terminals), size=64, replace=False)]
        target = rng.random(64)
        target /= target.sum()
        passes = gf._rollout(net, space, keys=keys, keep_caches=True)
        grads = Gradients.zeros_like(net)
        gf._backward(net, passes, -target, grads)
        assert_grads_close(grads, reference_grads(net, passes, -target), 1e-12)

    @pytest.mark.parametrize("batch", ["all-identical", "all-distinct"])
    def test_extreme_batches_match_per_row_reference(self, space, batch):
        rng = np.random.default_rng(26)
        net = gf.new_policy(space, (64, 64), rng, dtype=np.float64)
        for head in net.head_w:
            head += rng.normal(0, 0.5, head.shape)
        net.log_z = -0.4
        terminals = all_keys(space)
        if batch == "all-identical":
            keys = np.repeat(terminals[[1234]], 16, axis=0)
        else:  # every prefix of slot 1 on is distinct: radix-3 slot 0, radix-5 slot 1
            keys = terminals[rng.permutation(len(terminals))[:3]]
            keys[:, 0] = [0, 1, 2]
        passes = fixed_passes(net, space, keys)
        expected = 1 if batch == "all-identical" else len(keys)
        assert [len(logp) for logp in passes.logp[1:]] == [expected] * (space.slots - 1)
        log_r = rng.normal(-1.0, 0.5, len(keys))
        _, grads = tb_fresh(net, passes, log_r)
        assert_grads_close(grads, reference_tb_grads(net, passes, log_r), 1e-12)

    @staticmethod
    def assert_adam_matches_reference(net, ref_net, seed):
        opt, ref_opt = Adam(lr=0.01, log_z_lr=0.1), ReferenceAdam(lr=0.01, log_z_lr=0.1)
        rng = np.random.default_rng(seed)
        grads = Gradients.zeros_like(net)
        for _ in range(5):
            grads.flat[:] = rng.normal(0, 1, grads.flat.shape)
            grads.log_z = float(rng.normal())
            opt.step(net, grads)
            ref_opt.step(ref_net, grads)
            assert np.array_equal(net.flat, ref_net.flat)
            assert net.log_z == ref_net.log_z

    def test_flat_adam_matches_per_array_reference_exactly(self, tiny_space):
        for dtype in (np.float64, np.float32):
            net, ref_net = (random_net(tiny_space, 22, hidden=(8, 8), dtype=dtype) for _ in range(2))
            self.assert_adam_matches_reference(net, ref_net, 23)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_adam_matches_reference_across_the_bias_correction_switch(self, tiny_space, dtype):
        # from the step where 1 - beta1**t rounds to 1 in the parameters'
        # dtype, Adam skips dividing by it: start both optimizers a few steps
        # before the switch and step past it
        switch = next(t for t in itertools.count(1) if dtype(1.0 - nn.BETA1**t) == 1.0)
        net, ref_net = (random_net(tiny_space, 31, dtype=dtype) for _ in range(2))
        opt, ref_opt = Adam(lr=0.01, log_z_lr=0.1), ReferenceAdam(lr=0.01, log_z_lr=0.1)
        opt.t = ref_opt.t = switch - 4
        rng = np.random.default_rng(32)
        grads = Gradients.zeros_like(net)
        for _ in range(8):
            grads.flat[:] = rng.normal(0, 1, grads.flat.shape)
            grads.log_z = float(rng.normal())
            opt.step(net, grads)
            ref_opt.step(ref_net, grads)
            assert np.array_equal(net.flat, ref_net.flat)
            assert net.log_z == ref_net.log_z
        assert opt.t == switch + 4

    def test_whole_vector_adam_matches_per_array_reference_exactly(self, space):
        # the built-in space's policy at the default hidden sizes: one step
        # runs each elementwise pass over all of its parameters at once
        for dtype in (np.float64, np.float32):
            net, ref_net = (random_net(space, 27, hidden=DEFAULT_CFG["train.hidden"], dtype=dtype)
                            for _ in range(2))
            assert net.flat.size > 100_000
            self.assert_adam_matches_reference(net, ref_net, 28)


class TestTraining:
    def test_tiny_space_learns_target(self, tiny_space):
        rewards = np.array([TINY_REWARDS[k] for k in key_tuples(all_keys(tiny_space))])
        target = rewards / rewards.sum()
        l1s = []
        for seed in (1, 2, 3):
            result = gf.train(
                tiny_space,
                tiny_stub(),
                {**DEFAULT_CFG, "train.steps": 1500, "train.batch": 16, "train.hidden": [64, 64]},
                seed,
            )
            learned = gf.exact_terminal_distribution(result.net, tiny_space)
            l1s.append(np.abs(learned - target).sum())
        assert np.median(l1s) <= 0.05

    def test_loss_decreases(self, tiny_space):
        result = gf.train(
            tiny_space, tiny_stub(),
            {**DEFAULT_CFG, "train.steps": 1000, "train.hidden": [32, 32]}, seed=0,
        )
        losses = [row[1] for row in result.log_rows]
        tenth = len(losses) // 10
        assert np.mean(losses[-tenth:]) < 0.1 * np.mean(losses[:tenth])

    def test_budget_stops_training(self, tiny_space):
        result = gf.train(
            tiny_space,
            tiny_stub(),
            {**DEFAULT_CFG, "train.steps": 500, "train.batch": 8, "train.budget": 3},
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
        cfg = {**DEFAULT_CFG, "train.steps": 400, "train.hidden": [8]}
        result = gf.train(sp, scorer, cfg, seed=0)
        # with one trajectory, the optimum is log_z = log R and P_F = 1
        assert result.net.log_z == pytest.approx(np.log(0.7), abs=1e-2)
        assert result.log_rows[-1][1] < 1e-4


class TestExactDistribution:
    def test_uniform_policy_builtin(self, space):
        net = gf.new_policy(space, DEFAULT_CFG["train.hidden"], np.random.default_rng(0))
        probs = gf.exact_terminal_distribution(net, space)
        assert probs.shape == (2625,)
        assert np.allclose(probs, 1.0 / 2625, atol=1e-15)

    def test_sums_to_one_random_model(self, tiny_space):
        rng = np.random.default_rng(10)
        net = gf.new_policy(tiny_space, (16,), rng)
        for head in net.head_w:
            head += rng.normal(0, 2, head.shape)
        assert abs(gf.exact_terminal_distribution(net, tiny_space).sum() - 1.0) < 1e-9

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_equals_prefix_expansion(self, space, dtype):
        # the teacher-forced rollout over every terminal against the outer
        # sums of one forward per slot over every prefix, in enumeration order
        net = random_net(space, 13, hidden=(32, 32), dtype=dtype)
        prefixes, logps = np.zeros((1, 0), dtype=np.int64), np.zeros(1)
        for t, r in enumerate(space.slot_radices):
            _, logp = gf.slot_forward(net, space, prefixes, t)
            logps = (logps[:, None] + logp).ravel()
            prefixes = np.column_stack(
                [np.repeat(prefixes, r, axis=0), np.tile(np.arange(r), len(prefixes))]
            )
        assert gf.exact_terminal_distribution(net, space).tobytes() == np.exp(logps).tobytes()

    def test_sampling_consistency_chi_square(self, tiny_space):
        rng = np.random.default_rng(11)
        net = gf.new_policy(tiny_space, (16,), rng)
        for head in net.head_w:
            head += rng.normal(0, 0.5, head.shape)
        probs = gf.exact_terminal_distribution(net, tiny_space)
        n = 100_000
        keys = gf.sample_terminals(net, tiny_space, n, np.random.default_rng(12))
        index = {k: i for i, k in enumerate(key_tuples(all_keys(tiny_space)))}
        counts = np.bincount([index[k] for k in key_tuples(keys)], minlength=len(probs))
        chi2 = float((((counts - n * probs) ** 2) / (n * probs)).sum())
        assert chi2 < 15.086  # chi-square critical value, df=5, alpha=0.01


class TabularOptimalPolicy:
    """Exact reward-proportional policy over a tiny space, duck-typed to the
    PolicyNet interface that slot_forward uses: the trunk passes the
    features through, and a slot's logits are the log flows of its
    children."""

    dtype = np.float64

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

    def trunk_forward(self, x):
        return [x]

    def logits(self, feats, slot):
        return np.array([
            np.log([self._flow(self._decode_prefix(feat) + (a,))
                    for a in range(self.space.slot_radices[slot])])
            for feat in feats
        ])


def test_optimal_tabular_policy_matches_target(tiny_space):
    policy = TabularOptimalPolicy(tiny_space, TINY_REWARDS)
    probs = gf.exact_terminal_distribution(policy, tiny_space)
    rewards = np.array([TINY_REWARDS[k] for k in key_tuples(all_keys(tiny_space))])
    target = rewards / rewards.sum()
    assert np.allclose(probs, target, atol=1e-12)
    # trajectory balance holds exactly along every trajectory
    for i, key in enumerate(key_tuples(all_keys(tiny_space))):
        assert policy.log_z + np.log(probs[i]) == pytest.approx(
            np.log(TINY_REWARDS[key]), abs=1e-12
        )


class TestSampleTerminals:
    def test_zero_draws(self, tiny_space):
        net = gf.new_policy(tiny_space, DEFAULT_CFG["train.hidden"], np.random.default_rng(0))
        keys = gf.sample_terminals(net, tiny_space, 0, np.random.default_rng(0))
        assert keys.shape == (0, tiny_space.slots) and keys.dtype == np.int64

    def test_reproducible(self, tiny_space):
        net = gf.new_policy(tiny_space, DEFAULT_CFG["train.hidden"], np.random.default_rng(0))
        a = gf.sample_terminals(net, tiny_space, 20, np.random.default_rng(5))
        b = gf.sample_terminals(net, tiny_space, 20, np.random.default_rng(5))
        assert a.shape == (20, tiny_space.slots) and np.array_equal(a, b)

    def test_delta_policy(self, tiny_space):
        net = delta_net(tiny_space, (1, 0))
        keys = gf.sample_terminals(net, tiny_space, 10, np.random.default_rng(0))
        assert key_tuples(keys) == [(1, 0)] * 10

    @pytest.mark.parametrize(
        "n", [1, gf.SAMPLE_CHUNK - 1, gf.SAMPLE_CHUNK, 2 * gf.SAMPLE_CHUNK + 3]
    )
    def test_chunks_equal_one_rollout(self, space, n):
        rng = np.random.default_rng(24)
        net = gf.new_policy(space, DEFAULT_CFG["train.hidden"], rng)
        for head in net.head_w:
            head += rng.normal(0, 1.0, head.shape)
        keys = gf.sample_terminals(net, space, n, np.random.default_rng(25))
        whole = gf._rollout(
            net, space, np.random.default_rng(25).random((space.slots, n)), explore_eps=0.0
        ).chosen
        assert np.array_equal(keys, whole)
        assert len(set(key_tuples(keys))) > min(n, 20) // 2


def read_checkpoint(path):
    """(header, parameter block bytes) of a checkpoint file."""
    blob = path.read_bytes()
    hlen = struct.unpack("<I", blob[:4])[0]
    return json.loads(blob[4 : 4 + hlen]), blob[4 + hlen :]


class TestCheckpoint:
    def test_roundtrip(self, tiny_space, tmp_path):
        signature = gf.checkpoint_signature(tiny_space, "0123456789ab")
        for dtype, block in ((np.float32, "<f4"), (np.float64, "<f8")):
            rng = np.random.default_rng(13)
            net = gf.new_policy(tiny_space, (8, 8), rng, dtype=dtype)
            net.log_z = 1.25
            for head in net.head_w:
                head += rng.normal(0, 1, head.shape)
            path = tmp_path / f"ckpt{block[1:]}.bin"
            gf.save_checkpoint(path, net, signature)
            header, body = read_checkpoint(path)
            assert (header["version"], header["dtype"]) == (4, np.dtype(dtype).name)
            assert body == net.flat.astype(block).tobytes()
            loaded = gf.load_checkpoint(path, signature)
            assert loaded.dtype == dtype
            assert loaded.log_z == net.log_z
            assert loaded.flat.tobytes() == net.flat.tobytes()
            for a, b in zip(net.params(), loaded.params()):
                assert np.array_equal(a, b)
                assert np.shares_memory(loaded.flat, b)

    def test_unknown_dtype_refused(self, tiny_space, tmp_path):
        net = gf.new_policy(tiny_space, (8,), np.random.default_rng(1))
        signature = gf.checkpoint_signature(tiny_space, "0123456789ab")
        path = tmp_path / "a.bin"
        gf.save_checkpoint(path, net, signature)
        header, body = read_checkpoint(path)
        blob = json.dumps(dict(header, dtype="float16"), sort_keys=True).encode()
        path.write_bytes(struct.pack("<I", len(blob)) + blob + body)
        with pytest.raises(ValueError, match="unknown dtype 'float16'"):
            gf.load_checkpoint(path, signature)

    def test_torn_parameter_block_refused(self, tiny_space, tmp_path):
        net = gf.new_policy(tiny_space, (8,), np.random.default_rng(1))
        signature = gf.checkpoint_signature(tiny_space, "0123456789ab")
        path = tmp_path / "a.bin"
        gf.save_checkpoint(path, net, signature)
        path.write_bytes(path.read_bytes()[:-8])
        with pytest.raises(ValueError, match="parameter bytes"):
            gf.load_checkpoint(path, signature)

    def test_deterministic_bytes(self, tiny_space, tmp_path):
        net = gf.new_policy(tiny_space, (8,), np.random.default_rng(1))
        signature = gf.checkpoint_signature(tiny_space, "0123456789ab")
        gf.save_checkpoint(tmp_path / "a.bin", net, signature)
        gf.save_checkpoint(tmp_path / "b.bin", net, signature)
        assert (tmp_path / "a.bin").read_bytes() == (tmp_path / "b.bin").read_bytes()

    @pytest.mark.parametrize("field", ["slot_radices", "feature_dim", "run_hash"])
    def test_signature_mismatch_refused(self, tiny_space, tmp_path, field):
        net = gf.new_policy(tiny_space, (8,), np.random.default_rng(1))
        signature = gf.checkpoint_signature(tiny_space, "0123456789ab")
        gf.save_checkpoint(tmp_path / "a.bin", net, signature)
        other = dict(signature, **{field: "something else"})
        with pytest.raises(ValueError, match=re.escape(f"{field} is {signature[field]!r}, expected")):
            gf.load_checkpoint(tmp_path / "a.bin", other)


def test_unique_trajectory_per_terminal(tiny_space):
    # tree property: the only trajectory to a terminal is its prefix chain,
    # so the parent of any non-empty key is its one-shorter prefix
    for key in key_tuples(all_keys(tiny_space)):
        for t in range(1, len(key) + 1):
            assert key[:t][:-1] == key[: t - 1]


class TestPrecision:
    def test_default_policy_is_float32_with_float64_reductions(self, space):
        rng = np.random.default_rng(31)
        net = gf.new_policy(space, DEFAULT_CFG["train.hidden"], rng)
        assert net.dtype == np.float32
        for head in net.head_w:
            head += rng.normal(0, 0.5, head.shape)
        net.log_z = 0.3
        net64 = PolicyNet(net.trunk_shapes, net.head_shapes, log_z=net.log_z, dtype=np.float64)
        net64.flat[:] = net.flat
        passes = gf._rollout(net, space, rng.random((space.slots, 16)), 0.2, True)
        keys = passes.chosen
        assert all(a.dtype == np.float32 for a in passes.acts)
        assert all(logp.dtype == np.float64 for logp in passes.logp)
        log_r = rng.normal(-1.0, 0.5, len(keys))
        loss, grads = tb_fresh(net, passes, log_r)
        # the backward's products take float32 logit gradients: each head's
        # gradient is, bit for bit, the float32 product of its slot's stacked
        # activations and its float64 logit gradient cast to float32. A
        # float64 logit gradient would be promoted, and only its product
        # rounded to float32 on the way out
        dlogp = 2.0 * (net.log_z + gf.log_pf(passes) - log_r) / len(keys)
        lo, promoted = 0, []
        for t, (logp, inv) in enumerate(zip(passes.logp, passes.inv)):
            rows, radix = logp.shape
            d = -np.exp(logp) * np.bincount(inv, weights=dlogp, minlength=rows)[:, None]
            d += np.bincount(
                inv * radix + keys[:, t], weights=dlogp, minlength=rows * radix
            ).reshape(rows, radix)
            h = passes.acts[-1][lo : lo + rows]
            lo += rows
            assert np.array_equal(grads.head_w[t], h.T @ d.astype(np.float32))
            promoted.append(np.array_equal(grads.head_w[t], (h.T @ d).astype(np.float32)))
        assert not all(promoted)  # the two products differ, so the check can fail
        loss64, ref = tb_fresh(net64, fixed_passes(net64, space, keys), log_r)
        assert type(loss) is float
        assert loss == pytest.approx(loss64, rel=1e-3)
        assert grads.dtype == np.float32
        assert grads.log_z == pytest.approx(ref.log_z, rel=1e-3)
        for a, b in zip(grads.params(), ref.params()):
            assert np.linalg.norm(a - b) <= 1e-3 * np.linalg.norm(b)

    def test_float32_exact_distribution_sums_to_one(self, space):
        rng = np.random.default_rng(2)
        net = gf.new_policy(space, (32, 32), rng)
        assert net.dtype == np.float32
        for head in net.head_w:
            head += rng.normal(0, 1.0, head.shape)
        probs = gf.exact_terminal_distribution(net, space)
        assert probs.dtype == np.float64
        assert abs(probs.sum() - 1.0) < 1e-9

    def test_adam_moments_never_go_subnormal(self):
        # gradients over 32 decades, zero after step 10: left alone, the
        # large ones' m (decaying by beta1) and the small ones' v (by beta2),
        # and the update's lr * m, would be subnormal at step 1000
        net = PolicyNet([(8, 16)], [(16, 2)])
        grads = Gradients.zeros_like(net)
        n = grads.flat.size
        signs = np.where(np.arange(n) % 2, -1.0, 1.0)
        opt = Adam(lr=5e-4, log_z_lr=0.1)
        for step in range(1, 1001):
            grads.flat[:] = signs * np.logspace(-22, 10, n) if step <= 10 else 0.0
            opt.step(net, grads)
        tiny = np.finfo(np.float32).tiny
        lr = np.float32(opt.lr)
        for moment in (opt.m, opt.v, lr * opt.m):
            assert moment.dtype == np.float32
            assert not np.any((moment != 0.0) & (np.abs(moment) < tiny))


def test_adam_moves_toward_minimum():
    net = PolicyNet([(1, 1)], [(1, 1)], log_z=5.0)
    net.trunk_w[0][0, 0] = 1.0
    opt = Adam(lr=0.1, log_z_lr=0.1)
    from gfnadapt.nn import Gradients

    for _ in range(200):
        grads = Gradients.zeros_like(net)
        grads.log_z = 2 * net.log_z  # d/dz of z^2
        opt.step(net, grads)
    assert abs(net.log_z) < 0.1
