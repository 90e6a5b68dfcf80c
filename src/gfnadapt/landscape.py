"""Exact enumerable reward landscape: target distribution, basins, exports.

Terminal states are indexed in space.all_keys order throughout: the index is
the mixed-radix encoding of the action sequence, which keeps the landscape,
the exact policy distribution, the basins and the grid projection aligned.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass

import numpy as np

from .rewards import TerminalScorer, log_reward
from .space import SpaceSpec, all_keys, key_text, key_tuples, place_values


@dataclass(frozen=True)
class LandscapeTable:
    keys: np.ndarray             # space.all_keys: row i is the terminal of index i
    aggregates: np.ndarray
    log_rewards: np.ndarray
    target_prob: np.ndarray


@dataclass(frozen=True)
class BasinAssignment:
    mode_of: np.ndarray          # terminal index -> mode terminal index
    basin_mass: dict[int, float]  # mode index -> summed target probability


def build_landscape(space: SpaceSpec, scorer: TerminalScorer) -> LandscapeTable:
    """Every terminal scored, in all_keys order (callers check run.enum_cap).
    The target is exp(log R - max log R), normalised: no term overflows,
    and a term that underflows to 0 holds no mass."""
    keys = all_keys(space)
    aggregates = scorer.score(key_tuples(keys))
    log_rewards = log_reward(aggregates, scorer.config["reward.beta"])
    with np.errstate(over="ignore"):  # a shift that overflows to -inf weighs 0
        weights = np.exp(log_rewards - log_rewards.max())
    return LandscapeTable(keys, aggregates, log_rewards, weights / weights.sum())


def basin_map(landscape: LandscapeTable, space: SpaceSpec) -> BasinAssignment:
    """Assign each terminal to the local mode reached by ascent on log R.

    From each state, move to the neighbor with the greatest log-reward
    provided it strictly improves; among equally best improving neighbors
    the canonically smallest key wins. Modes are their own fixed points.
    log R orders the terminals as the target probability does in exact
    arithmetic, so the basins depend neither on beta nor on how the
    normalisation rounds; a basin's mass sums the target probability.

    Indices are mixed-radix place-value sums (row i of the landscape's keys
    is the key of index i), so the smallest index is the smallest key.
    Every terminal's best neighbor is found in one array pass
    per (slot, action); the modes then follow by pointer jumping, which
    doubles the ascent steps covered on each pass.
    """
    log_r = landscape.log_rewards
    n = len(log_r)
    index = np.arange(n)
    best = index.copy()
    radices = space.slot_radices
    for r, pv, actions in zip(radices, place_values(radices), landscape.keys.T):
        base = index - actions * pv  # this slot's action set to 0
        for b in range(r):
            j = base + b * pv
            better = (log_r[j] > log_r) & (
                (log_r[j] > log_r[best]) | ((log_r[j] == log_r[best]) & (j < best))
            )
            best[better] = j[better]
    # every step strictly raises log R, so ascents are at most n
    # long and n.bit_length() doublings cover them
    mode_of = best
    for _ in range(n.bit_length() + 1):
        jumped = mode_of[mode_of]
        if np.array_equal(jumped, mode_of):
            break
        mode_of = jumped
    else:
        raise RuntimeError("ascent failed to terminate")
    mass = np.bincount(mode_of, weights=landscape.target_prob, minlength=n)
    modes = np.unique(mode_of)
    basin_mass = dict(zip(modes.tolist(), mass[modes].tolist()))
    return BasinAssignment(mode_of=mode_of, basin_mass=basin_mass)


def l1_distance(p: np.ndarray, q: np.ndarray) -> float:
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    if p.shape != q.shape:
        raise ValueError("support mismatch")
    return float(np.abs(p - q).sum())


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


def project_grid(dist: np.ndarray, space: SpaceSpec, basins: BasinAssignment) -> dict:
    """Mixed-radix 2-D projection: per-cell total mass and dominant basin."""
    radices = space.slot_radices
    k = grid_split(space)
    n_rows = int(np.prod(radices[:k]))
    n_cols = int(np.prod(radices[k:]))
    return {
        "row_radices": list(radices[:k]),
        "col_radices": list(radices[k:]),
        "mass": np.asarray(dist, dtype=float).reshape(n_rows, n_cols),
        # rows x cols covers the full radix product, so each cell holds
        # exactly one terminal and its basin is the dominant one
        "dominant_basin": basins.mode_of.reshape(n_rows, n_cols),
    }


# ---------------------------------------------------------------------------
# Exports


def export_landscape_csv(
    path, landscape: LandscapeTable, basins: BasinAssignment, config_hash: str
) -> None:
    """One row per terminal with its loss, log-reward, target probability and
    the key of its basin's mode. The rows are the bytes csv.writer writes for
    them (no field needs quoting), formatted and written one at a time."""
    texts = list(map(key_text, landscape.keys.tolist()))
    rows = zip(texts, landscape.aggregates, landscape.log_rewards, landscape.target_prob,
               basins.mode_of.tolist())
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow([f"# config_hash={config_hash}"])
        writer.writerow(["key", "loss", "log_reward", "target_prob", "mode_key"])
        fh.writelines(f"{text},{float(loss)!r},{float(log_r)!r},"
                      f"{float(prob)!r},{texts[mode]}\r\n"
                      for text, loss, log_r, prob, mode in rows)


def export_grid_json(path, grid: dict, config_hash: str) -> None:
    """The grid projection as one JSON object; json.dumps's bytes, which are
    json.dump's, from the C encoder that json.dump never uses."""
    doc = {
        "config_hash": config_hash,
        "row_radices": grid["row_radices"],
        "col_radices": grid["col_radices"],
        "mass": grid["mass"].tolist(),
        "dominant_basin": grid["dominant_basin"].tolist(),
    }
    with open(path, "w") as fh:
        fh.write(json.dumps(doc))
