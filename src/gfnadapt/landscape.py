"""Exact enumerable reward landscape: target distribution, basins, exports.

Terminal states are indexed in lexicographic action order throughout, which
makes the index a mixed-radix encoding of the action sequence and keeps the
landscape, the exact policy distribution, and the grid projection aligned.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass

import numpy as np

from .rewards import TerminalScorer
from .space import SpaceSpec, StateKey, enumerate_terminals, place_values


@dataclass(frozen=True)
class LandscapeTable:
    keys: list[StateKey]          # lexicographic order
    aggregates: np.ndarray
    rewards: np.ndarray
    z: float
    target_prob: np.ndarray

    def index_of(self, key: StateKey) -> int:
        # mixed-radix decode; the last key holds each slot's largest action
        radices = [a + 1 for a in self.keys[-1]]
        if len(key) != len(radices) or not all(0 <= a < r for a, r in zip(key, radices)):
            raise KeyError(key)
        return sum(a * p for a, p in zip(key, place_values(radices)))


@dataclass(frozen=True)
class BasinAssignment:
    mode_of: np.ndarray          # terminal index -> mode terminal index
    basin_mass: dict[int, float]  # mode index -> summed target probability


def build_landscape(
    space: SpaceSpec, scorer: TerminalScorer, cap: int = 100_000
) -> LandscapeTable:
    count = space.terminal_count()
    if count > cap:
        raise ValueError(f"space has {count} terminals, exceeding cap {cap}")
    keys = list(enumerate_terminals(space))
    records = scorer.score(keys)
    aggregates = np.array([rec.aggregate for rec in records])
    rewards = np.array([rec.reward for rec in records])
    z = float(rewards.sum())
    return LandscapeTable(keys, aggregates, rewards, z, rewards / z)


def basin_map(landscape: LandscapeTable, space: SpaceSpec) -> BasinAssignment:
    """Assign each terminal to the local mode reached by probability ascent.

    From each state, move to the neighbor with the greatest target
    probability provided it strictly improves; among equally best improving
    neighbors the canonically smallest key wins. Modes are their own fixed
    points.
    """
    radices = space.slot_radices
    pv = place_values(radices)
    probs = landscape.target_prob
    n = len(probs)
    keys = landscape.keys

    def best_neighbor(idx: int) -> int:
        key = keys[idx]
        best_idx, best_prob, best_key = idx, probs[idx], None
        for t, r in enumerate(radices):
            base = idx - key[t] * pv[t]
            for b in range(r):
                if b == key[t]:
                    continue
                j = base + b * pv[t]
                cand_key = keys[j]
                if probs[j] > best_prob or (
                    best_key is not None and probs[j] == best_prob and cand_key < best_key
                ):
                    best_idx, best_prob, best_key = j, probs[j], cand_key
        return best_idx

    mode_of = np.full(n, -1, dtype=np.int64)
    for start in range(n):
        if mode_of[start] >= 0:
            continue
        path = []
        cur = start
        steps = 0
        while mode_of[cur] < 0:
            path.append(cur)
            nxt = best_neighbor(cur)
            steps += 1
            if steps > n:
                raise RuntimeError("ascent failed to terminate")
            if nxt == cur:
                mode_of[cur] = cur
                break
            cur = nxt
        mode = mode_of[cur]
        for idx in path:
            mode_of[idx] = mode

    basin_mass: dict[int, float] = {}
    for idx in range(n):
        m = int(mode_of[idx])
        basin_mass[m] = basin_mass.get(m, 0.0) + float(probs[idx])
    return BasinAssignment(mode_of=mode_of, basin_mass=basin_mass)


def l1_distance(p: np.ndarray, q: np.ndarray) -> float:
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    if p.shape != q.shape:
        raise ValueError("support mismatch")
    return float(np.abs(p - q).sum())


def ranked_profile(dist: np.ndarray) -> np.ndarray:
    """Probabilities sorted in decreasing order."""
    return np.sort(np.asarray(dist, dtype=float))[::-1]


def ranked_pair_profile(
    exact: np.ndarray, learned: np.ndarray
) -> list[tuple[int, float, float]]:
    """(rank, exact, learned) rows, both series ordered by exact-probability
    rank so the profiles are directly comparable."""
    order = np.argsort(-np.asarray(exact))
    return [
        (rank + 1, float(exact[i]), float(learned[i]))
        for rank, i in enumerate(order)
    ]


def grid_split(space: SpaceSpec) -> int:
    """Number of leading slots mapped to grid rows (remaining slots are
    columns); chosen to make the grid as square as the radices allow."""
    radices = space.slot_radices
    total = float(np.prod(radices))
    best_k, best_ratio = 1, float("inf")
    for k in range(1, len(radices)):
        rows = float(np.prod(radices[:k]))
        ratio = abs(np.log(rows / (total / rows)))
        if ratio < best_ratio:
            best_k, best_ratio = k, ratio
    return best_k


def project_grid(
    dist: np.ndarray,
    space: SpaceSpec,
    basins: BasinAssignment | None = None,
) -> dict:
    """Mixed-radix 2-D projection: per-cell total mass and dominant basin."""
    radices = space.slot_radices
    k = grid_split(space)
    n_rows = int(np.prod(radices[:k]))
    n_cols = int(np.prod(radices[k:]))
    dist = np.asarray(dist, dtype=float)
    mass = dist.reshape(n_rows, n_cols)
    out = {
        "row_radices": list(radices[:k]),
        "col_radices": list(radices[k:]),
        "mass": mass,
    }
    if basins is not None:
        # rows x cols covers the full radix product, so each cell holds
        # exactly one terminal and its basin is the dominant one
        out["dominant_basin"] = basins.mode_of.reshape(n_rows, n_cols)
    return out


# ---------------------------------------------------------------------------
# Exports


def export_landscape_csv(
    path, landscape: LandscapeTable, basins: BasinAssignment | None = None,
    config_hash: str = "",
) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow([f"# config_hash={config_hash}"])
        writer.writerow(["key", "loss", "reward", "target_prob", "mode_key"])
        for i, key in enumerate(landscape.keys):
            mode = (
                "-".join(map(str, landscape.keys[int(basins.mode_of[i])]))
                if basins is not None
                else ""
            )
            writer.writerow(
                [
                    "-".join(map(str, key)),
                    repr(float(landscape.aggregates[i])),
                    repr(float(landscape.rewards[i])),
                    repr(float(landscape.target_prob[i])),
                    mode,
                ]
            )


def export_grid_json(path, grid: dict, config_hash: str = "") -> None:
    doc = {
        "config_hash": config_hash,
        "row_radices": grid["row_radices"],
        "col_radices": grid["col_radices"],
        "mass": grid["mass"].tolist(),
    }
    if "dominant_basin" in grid:
        doc["dominant_basin"] = grid["dominant_basin"].tolist()
    with open(path, "w") as fh:
        json.dump(doc, fh)
