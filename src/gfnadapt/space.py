"""Grouped discrete perturbation space and its construction tree.

A parameterization is built by choosing one action per decision slot. Slots
are cycle-major: all groups in order within cycle 1, then cycle 2, and so on.
Every terminal key is reached by exactly one trajectory (the construction
graph is a tree), which later lets the backward policy be deterministic.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterator, Mapping, Sequence

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

    def slot_cycle(self, t: int) -> int:
        return t // self.n_groups + 1

    def slot_eta(self, t: int) -> float:
        return 2.0 ** -(self.slot_cycle(t) - 1)

    @property
    def slot_radices(self) -> tuple[int, ...]:
        return tuple(len(self.slot_group(t).actions) for t in range(self.slots))

    def terminal_count(self) -> int:
        n = 1
        for g in self.groups:
            n *= len(g.actions)
        return n**self.cycles

    @property
    def _param_index(self) -> dict[str, ParameterSpec]:
        return {p.name: p for p in self.parameters}


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
    orders = sorted(g.order for g in groups)
    if orders != list(range(1, len(groups) + 1)):
        raise ValueError(f"group orders must be contiguous 1..G, got {orders}")
    by_group: dict[int, set[str]] = {}
    for p in parameters:
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
    for t, a in enumerate(key):
        n = len(space.slot_group(t).actions)
        if not 0 <= a < n:
            raise ValueError(f"slot {t}: action index {a} out of range [0, {n})")


def is_terminal(space: SpaceSpec, key: StateKey) -> bool:
    return len(key) == space.slots


def key_bytes(key: StateKey) -> bytes:
    """Canonical injective encoding: one unsigned byte per slot."""
    return bytes(key)


def key_from_bytes(raw: bytes) -> StateKey:
    return tuple(raw)


def decode_state(space: SpaceSpec, key: StateKey) -> dict[str, float]:
    """Apply the chosen perturbations to the baselines, slot by slot.

    Each decided slot moves its group's signed parameters by
    eta_c * sf * (upper - lower), clipped back into bounds. Partial keys
    apply only the decided slots.
    """
    validate_key(space, key)
    theta = {p.name: p.baseline for p in space.parameters}
    specs = space._param_index
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

    Each slot adds its chosen action's row of a per-slot step table, then
    clips, slot by slot, so saturation happens in the same order.
    """
    keys = np.asarray(keys, dtype=np.intp)
    if keys.ndim != 2:
        raise ValueError("keys must be a non-empty sequence of equal-length keys")
    if keys.shape[1] > space.slots:
        raise ValueError(f"key length {keys.shape[1]} exceeds {space.slots} slots")
    for t, column in enumerate(keys.T):
        n = len(space.slot_group(t).actions)
        if column.min() < 0 or column.max() >= n:
            bad = column[(column < 0) | (column >= n)][0]
            raise ValueError(f"slot {t}: action index {bad} out of range [0, {n})")
    params = space.parameters
    column_of = {p.name: j for j, p in enumerate(params)}
    lower = np.array([p.lower for p in params])
    upper = np.array([p.upper for p in params])
    theta = np.tile([p.baseline for p in params], (len(keys), 1))
    for t, column in enumerate(keys.T):
        eta = space.slot_eta(t)
        steps = np.zeros((len(space.slot_group(t).actions), len(params)))
        for a, action in enumerate(space.slot_group(t).actions):
            for pname, sign in action.signs.items():
                p = params[column_of[pname]]
                steps[a, column_of[pname]] = (
                    eta * space.step_fraction * sign * (p.upper - p.lower)
                )
        theta = np.minimum(np.maximum(theta + steps[column], lower), upper)
    return theta


def enumerate_terminals(space: SpaceSpec) -> Iterator[StateKey]:
    """All terminal keys exactly once, in lexicographic action order."""
    ranges = [range(r) for r in space.slot_radices]
    return iter(itertools.product(*ranges))


def place_values(radices: Sequence[int]) -> list[int]:
    """Mixed-radix place value of each slot: the index of a terminal key in
    enumerate_terminals order is sum(key[t] * pv[t]).

    project_grid's row-major reshape and exact_terminal_distribution's
    slot-by-slot outer products rely on this same lexicographic order.
    """
    pv = [1] * len(radices)
    for i in range(len(radices) - 2, -1, -1):
        pv[i] = pv[i + 1] * radices[i + 1]
    return pv


def neighbors(space: SpaceSpec, key: StateKey) -> list[StateKey]:
    """Terminal keys differing from `key` in exactly one slot."""
    if not is_terminal(space, key):
        raise ValueError("neighbors requires a terminal key")
    validate_key(space, key)
    out = []
    for t, a in enumerate(key):
        for b in range(len(space.slot_group(t).actions)):
            if b != a:
                out.append(key[:t] + (b,) + key[t + 1 :])
    return out


def hamming(a: StateKey, b: StateKey) -> int:
    if len(a) != len(b):
        raise ValueError(f"length mismatch: {len(a)} vs {len(b)}")
    return sum(x != y for x, y in zip(a, b))


# ---------------------------------------------------------------------------
# Space definition files


def load_space_file(path) -> SpaceSpec:
    """Read a YAML space definition (parameters, groups/actions, cycles, sf)."""
    with open(path) as fh:
        doc = yaml.safe_load(fh)
    return space_from_dict(doc)


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
