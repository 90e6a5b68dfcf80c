"""Grouped discrete perturbation space and its construction tree.

A parameterization is built by choosing one action per decision slot. Slots
are cycle-major: all groups in order within cycle 1, then cycle 2, and so on.
Every terminal key is reached by exactly one trajectory (the construction
graph is a tree), which later lets the backward policy be deterministic.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np
import yaml

StateKey = tuple[int, ...]


@dataclass(frozen=True)
class ParameterSpec:
    name: str
    lower: float
    upper: float
    baseline: float
    group: int

    def __post_init__(self):
        if not self.lower < self.upper:
            raise ValueError(f"{self.name}: lower must be < upper")
        if not (self.lower <= self.baseline <= self.upper):
            raise ValueError(f"{self.name}: baseline outside [lower, upper]")


@dataclass(frozen=True)
class ActionSpec:
    name: str
    # parameter name -> -1 | 0 | +1; absent parameters are unchanged
    signs: Mapping[str, int]

    def __post_init__(self):
        for p, s in self.signs.items():
            if s not in (-1, 0, 1):
                raise ValueError(f"action {self.name}: sign for {p} must be -1, 0 or +1")


@dataclass(frozen=True)
class GroupSpec:
    order: int
    name: str
    actions: tuple[ActionSpec, ...]

    def __post_init__(self):
        if len(self.actions) < 1:
            raise ValueError(f"group {self.name}: empty action list")
        if any(s != 0 for s in self.actions[0].signs.values()):
            raise ValueError(f"group {self.name}: action 0 must be the identity")


@dataclass(frozen=True)
class SpaceSpec:
    groups: tuple[GroupSpec, ...]
    parameters: tuple[ParameterSpec, ...]
    cycles: int
    step_fraction: float

    @property
    def n_groups(self) -> int:
        return len(self.groups)

    @property
    def slots(self) -> int:
        return self.cycles * self.n_groups

    def slot_group(self, t: int) -> GroupSpec:
        return self.groups[t % self.n_groups]

    def slot_eta(self, t: int) -> float:
        return 2.0 ** -(t // self.n_groups)

    @functools.cached_property  # built on first access, once per space
    def slot_radices(self) -> tuple[int, ...]:
        return tuple(len(self.slot_group(t).actions) for t in range(self.slots))

    @functools.cached_property
    def slot_steps(self) -> tuple[np.ndarray, ...]:
        """Per slot, the (actions, parameters) table of the move each action
        makes, eta_c * sf * sign * (upper - lower), columns in `parameters`
        order; read-only, built on first access, once per space."""
        column_of = {p.name: j for j, p in enumerate(self.parameters)}
        tables = []
        for t in range(self.slots):
            eta = self.slot_eta(t)
            steps = np.zeros((len(self.slot_group(t).actions), len(self.parameters)))
            for a, action in enumerate(self.slot_group(t).actions):
                for pname, sign in action.signs.items():
                    p = self.parameters[column_of[pname]]
                    steps[a, column_of[pname]] = (
                        eta * self.step_fraction * sign * (p.upper - p.lower)
                    )
            steps.flags.writeable = False
            tables.append(steps)
        return tuple(tables)

    @functools.cached_property
    def parameter_arrays(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(lower, upper, baseline) of the parameters, in `parameters`
        order; read-only, built on first access, once per space."""
        arrays = np.array([[getattr(p, field) for p in self.parameters]
                           for field in ("lower", "upper", "baseline")], dtype=float)
        arrays.flags.writeable = False
        return tuple(arrays)

    def terminal_count(self) -> int:
        n = 1
        for g in self.groups:
            n *= len(g.actions)
        return n**self.cycles


def build_space(
    groups: Sequence[GroupSpec],
    parameters: Sequence[ParameterSpec],
    cycles: int,
    step_fraction: float,
) -> SpaceSpec:
    if cycles < 1:
        raise ValueError("cycles must be >= 1")
    if not 0.0 < step_fraction <= 1.0:
        raise ValueError("step_fraction must be in (0, 1]")
    if not groups:
        raise ValueError("a space needs at least one group")
    orders = sorted(g.order for g in groups)
    if orders != list(range(1, len(groups) + 1)):
        raise ValueError(f"group orders must be contiguous 1..G, got {orders}")
    by_group: dict[int, set[str]] = {}
    for p in parameters:
        if any(p.name in names for names in by_group.values()):
            raise ValueError(f"parameter {p.name} is listed twice")
        by_group.setdefault(p.group, set()).add(p.name)
    for g in groups:
        owned = by_group.get(g.order, set())
        for a in g.actions:
            foreign = set(a.signs) - owned
            if foreign:
                raise ValueError(
                    f"group {g.name} action {a.name} references foreign parameters {sorted(foreign)}"
                )
    ordered = tuple(sorted(groups, key=lambda g: g.order))
    return SpaceSpec(ordered, tuple(parameters), cycles, step_fraction)


def validate_key(space: SpaceSpec, key: StateKey) -> None:
    if len(key) > space.slots:
        raise ValueError(f"key length {len(key)} exceeds {space.slots} slots")
    for t, (a, n) in enumerate(zip(key, space.slot_radices)):
        if not 0 <= a < n:
            raise ValueError(f"slot {t}: action index {a} out of range [0, {n})")


def key_bytes(key: StateKey) -> bytes:
    """Canonical injective encoding: one unsigned byte per slot."""
    return bytes(key)


def decode_state(space: SpaceSpec, key: StateKey) -> dict[str, float]:
    """Apply the chosen perturbations to the baselines, slot by slot.

    Each decided slot moves its group's signed parameters by
    eta_c * sf * (upper - lower), clipped back into bounds. Partial keys
    apply only the decided slots.
    """
    validate_key(space, key)
    theta = {p.name: p.baseline for p in space.parameters}
    specs = {p.name: p for p in space.parameters}
    for t, a in enumerate(key):
        action = space.slot_group(t).actions[a]
        eta = space.slot_eta(t)
        for pname, sign in action.signs.items():
            if sign == 0:
                continue
            p = specs[pname]
            step = eta * space.step_fraction * sign * (p.upper - p.lower)
            theta[pname] = min(max(theta[pname] + step, p.lower), p.upper)
    return theta


def decode_batch(space: SpaceSpec, keys: Sequence[StateKey]) -> np.ndarray:
    """decode_state of many equal-length keys at once: one row per key,
    columns in space.parameters order, each row equal to decode_state.

    Each slot adds its chosen action's row of its step table
    (space.slot_steps), then clips, slot by slot, so saturation happens in
    the same order.
    """
    keys = np.asarray(keys, dtype=np.intp)
    if keys.ndim != 2:
        raise ValueError("keys must be a non-empty sequence of equal-length keys")
    if keys.shape[1] > space.slots:
        raise ValueError(f"key length {keys.shape[1]} exceeds {space.slots} slots")
    radices = np.array(space.slot_radices[: keys.shape[1]], dtype=np.uintp)
    out_of_range = keys.view(np.uintp) >= radices  # a negative index wraps past them
    if out_of_range.any():
        t = int(out_of_range.any(axis=0).argmax())
        bad, n = keys[out_of_range[:, t], t][0], space.slot_radices[t]
        raise ValueError(f"slot {t}: action index {bad} out of range [0, {n})")
    lower, upper, baseline = space.parameter_arrays
    theta = np.tile(baseline, (len(keys), 1))
    for column, steps in zip(keys.T, space.slot_steps):
        theta = np.minimum(np.maximum(theta + steps[column], lower), upper)
    return theta


def all_keys(space: SpaceSpec) -> np.ndarray:
    """Every terminal key exactly once, as an (N, slots) int array in
    place-value order: row i is the key whose mixed-radix index
    (place_values) is i, which is lexicographic action order. The landscape,
    the policy's exact distribution, the basin map and the grid projection
    all index terminals this way."""
    radices = space.slot_radices
    return np.indices(radices).reshape(len(radices), -1).T


def uniform_keys(space: SpaceSpec, n: int, rng: np.random.Generator) -> np.ndarray:
    """n terminal keys as an (n, slots) int array, each slot's action
    uniform, from one rng.integers call over every slot's radix: the same
    draws, in the same order, as a per-slot rng.integers(r) loop, and the
    same rng state after them."""
    radices = space.slot_radices
    return rng.integers(0, radices, size=(n, len(radices)))


def key_tuples(keys: np.ndarray) -> list[StateKey]:
    """The rows of an (n, slots) int array of keys as tuples, the hashable
    form that TerminalScorer.score and RewardCache.put take."""
    return list(map(tuple, keys.tolist()))


def key_text(key: Sequence[int]) -> str:
    """A key as every artifact writes it, its actions joined by '-'
    ("2-1-0-3-4"); baselines.read_trace_csv reads it back."""
    return "-".join(map(str, key))


def place_values(radices: Sequence[int]) -> list[int]:
    """Mixed-radix place value of each slot: the index of a terminal key in
    all_keys order is sum(key[t] * pv[t]).

    basin_map's neighbor indices, topk_recovery's rows and project_grid's
    row-major reshape rely on this same lexicographic order.
    """
    pv = [1] * len(radices)
    for i in range(len(radices) - 2, -1, -1):
        pv[i] = pv[i + 1] * radices[i + 1]
    return pv


# ---------------------------------------------------------------------------
# Space definition files


def load_yaml(stream):
    """yaml.safe_load, parsed by libyaml's C parser when PyYAML has it (the
    built-in space in about a sixth of the time); the documents are equal."""
    return yaml.load(stream, Loader=getattr(yaml, "CSafeLoader", yaml.SafeLoader))


def space_from_dict(doc: dict) -> SpaceSpec:
    # imported here: config imports this module (through simulator)
    from .config import ConfigError

    if not isinstance(doc, dict):
        raise ConfigError("a space definition must be a mapping")
    for name in ("parameters", "groups", "cycles", "step_fraction"):
        if name not in doc:
            raise ConfigError(f"space definition lacks the key '{name}'")
    try:
        parameters = [
            ParameterSpec(
                name=p["name"],
                lower=float(p["lower"]),
                upper=float(p["upper"]),
                baseline=float(p["baseline"]),
                group=int(p["group"]),
            )
            for p in doc["parameters"]
        ]
        groups = [
            GroupSpec(
                order=int(g["order"]),
                name=g["name"],
                actions=tuple(
                    ActionSpec(name=a["name"], signs=dict(a.get("signs") or {}))
                    for a in g["actions"]
                ),
            )
            for g in doc["groups"]
        ]
        return build_space(
            groups, parameters, int(doc["cycles"]), float(doc["step_fraction"])
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"invalid space definition: {type(exc).__name__}: {exc}") from exc
