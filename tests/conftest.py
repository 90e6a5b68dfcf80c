import numpy as np
import pytest

from gfnadapt import gflownet as gf
from gfnadapt.nn import Gradients
from gfnadapt.config import load_config
from gfnadapt.rewards import TerminalScorer
from gfnadapt.simulator import (
    DEFAULT_TRUTH_KEY,
    builtin_space,
    generate_contexts,
    synthesize_observations,
)
from gfnadapt.space import (
    ActionSpec, GroupSpec, ParameterSpec, build_space, decode_state, validate_key,
)

# the resolved default config, {dotted name: value}; a test overrides a
# setting with {**DEFAULT_CFG, "train.steps": 50}
DEFAULT_CFG = load_config().values


def make_tiny_space(cycles=1, step_fraction=0.3):
    """Two groups with action counts (2, 3): six one-cycle terminals."""
    params = [
        ParameterSpec("a", 0.0, 10.0, 5.0, group=1),
        ParameterSpec("b", 0.0, 10.0, 5.0, group=2),
    ]
    groups = [
        GroupSpec(1, "g1", (ActionSpec("none", {}), ActionSpec("up", {"a": 1}))),
        GroupSpec(
            2,
            "g2",
            (
                ActionSpec("none", {}),
                ActionSpec("up", {"b": 1}),
                ActionSpec("down", {"b": -1}),
            ),
        ),
    ]
    return build_space(groups, params, cycles, step_fraction)


def make_mini_sim_space():
    """Built-in crop parameters with only the first two action groups kept:
    15 terminals, cheap to enumerate, still drives the real simulator."""
    import dataclasses

    sp = builtin_space()
    return dataclasses.replace(sp, groups=sp.groups[:2])


def make_two_cycle_space():
    """The built-in space with groups 3 and 5 cut to their identity action,
    over two cycles: 5625 terminals, an enumerable multi-cycle space."""
    import dataclasses

    sp = builtin_space()
    groups = tuple(
        dataclasses.replace(g, actions=g.actions[:1]) if g.order in (3, 5) else g
        for g in sp.groups
    )
    return dataclasses.replace(sp, groups=groups, cycles=2)


def neighbors(space, key):
    """Terminal keys differing from `key` in exactly one slot: the reference
    against which basin_map's array pass over (slot, action) is checked."""
    if len(key) != space.slots:
        raise ValueError("neighbors requires a terminal key")
    validate_key(space, key)
    out = []
    for t, a in enumerate(key):
        for b in range(space.slot_radices[t]):
            if b != a:
                out.append(key[:t] + (b,) + key[t + 1 :])
    return out


def fixed_passes(net, space, keys):
    """Rollout passes over the distinct prefixes of given terminal keys,
    found with Python sets and built by per-slot forward passes, stacked
    afterwards."""
    keys = np.asarray(keys, dtype=np.int64)
    per_slot, inverses = [], []
    for t in range(space.slots):
        prefixes = sorted({tuple(k[:t]) for k in keys.tolist()})
        row = {prefix: i for i, prefix in enumerate(prefixes)}
        inverses.append(np.array([row[tuple(k[:t])] for k in keys.tolist()], dtype=np.int64))
        prefixes = np.array(prefixes, dtype=np.int64).reshape(len(prefixes), t)
        per_slot.append(gf.slot_forward(net, space, prefixes, t))
    acts = [np.concatenate(layer) for layer in zip(*(a for a, _ in per_slot))]
    return gf.RolloutPasses(acts, [logp for _, logp in per_slot], keys, inverses)


def tb_fresh(net, passes, log_rewards):
    """(TB loss, gradients) of the passes, the gradients written into a new
    buffer."""
    grads = Gradients.zeros_like(net)
    return gf.tb_loss_and_grads(net, passes, log_rewards, grads), grads


def record_passes(monkeypatch) -> list[tuple[int, ...]]:
    """Wrap simulate_batch's distinct-rows helper to record each array pass
    as its key count followed by each day series' distinct row count:
    assimilation, maintenance and p_f. A pass calls the helper six times,
    first for those three series over its keys, then for three factors
    among the series rows."""
    from gfnadapt import simulator

    passes, calls = [], []
    distinct = simulator._distinct

    def recorded(*cols):
        result = distinct(*cols)
        calls.append((cols[0].shape[1], result[0][0].shape[1]))
        if len(calls) % 6 == 3:
            series = calls[-3:]
            assert len({keys for keys, _ in series}) == 1, series
            passes.append((series[0][0], *(rows for _, rows in series)))
        return result

    monkeypatch.setattr(simulator, "_distinct", recorded)
    return passes


class StubScorer:
    """Fixed synthetic rewards per terminal key, no simulator behind it."""

    def __init__(self, rewards: dict):
        self.rewards = rewards

    def score(self, keys):
        rewards = np.array([self.rewards[key] for key in keys], dtype=float)
        return -np.log(rewards), rewards


@pytest.fixture(scope="session")
def space():
    return builtin_space()


@pytest.fixture(scope="session")
def tiny_space():
    return make_tiny_space()


@pytest.fixture(scope="session")
def obs_contexts(space):
    contexts = generate_contexts(7, days=180)
    truth = decode_state(space, DEFAULT_TRUTH_KEY)
    return synthesize_observations(contexts, truth, 0.03, seed=8)


@pytest.fixture(scope="session")
def fitted_scorer(space, obs_contexts, tmp_path_factory):
    scorer = TerminalScorer(
        space, obs_contexts, DEFAULT_CFG,
        cache_path=tmp_path_factory.mktemp("cache") / "rewards.bin",
    )
    scorer.fit_on_enumeration()
    return scorer


@pytest.fixture(scope="session")
def full_landscape(space, fitted_scorer):
    from gfnadapt.landscape import build_landscape

    return build_landscape(space, fitted_scorer)
