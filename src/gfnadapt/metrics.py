"""Retrieval and diversity metrics plus cross-method comparison tables."""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .landscape import LandscapeTable
from .rewards import reward
from .space import SpaceSpec, place_values


@dataclass
class RetrievalReport:
    method: str
    seed: int
    best_loss: float
    median_top20_loss: float
    mean_hamming_top20: float
    sample_deficient: bool
    best_so_far: list[tuple[int, float, float]] = field(default_factory=list)
    topk_recovery: list[tuple[int, int]] = field(default_factory=list)


def best_so_far(
    losses: Sequence[float], l_star: float, beta: float
) -> list[tuple[int, float, float]]:
    """The (n, optimality gap, reward of the best state so far) series as its
    change points: the rows where the best loss improves, plus the last n.
    The series at any n is the last change point at or before it. A reward
    outside the float64 range is refused, as rewards.reward refuses it."""
    if len(losses) == 0:
        raise ValueError("empty trace")
    out = []
    best = float("inf")
    for n, loss in enumerate(losses, start=1):
        if loss < best or n == 1:
            best = min(best, loss)
            out.append((n, best - l_star, float(reward(best, beta))))
    if out[-1][0] != len(losses):
        out.append((len(losses), *out[-1][1:]))
    return out


def topk_recovery(
    keys: np.ndarray, landscape: LandscapeTable, space: SpaceSpec, ks: Sequence[int]
) -> list[tuple[int, int]]:
    """How many of the target's top-k states (by probability, ties broken by
    canonical key order) appear among `keys`, an (n, slots) int array of
    terminals of `space`, whose landscape this is."""
    n = len(landscape.keys)
    # a stable sort keeps equal probabilities in index order, which is key order
    order = np.argsort(-landscape.target_prob, kind="stable")
    for k in ks:
        if k > n:
            raise ValueError(f"k={k} exceeds terminal count {n}")
    # the landscape holds every terminal in all_keys order, so a key's row is
    # its mixed-radix index
    found = np.zeros(n, dtype=bool)
    found[keys @ place_values(space.slot_radices)] = True
    return [(k, int(found[order[:k]].sum())) for k in ks]


def top20_stats(keys: np.ndarray, losses: np.ndarray) -> tuple[float, float, bool]:
    """Median loss and mean pairwise Hamming distance over the 20 distinct
    lowest-loss keys of a scored set, (keys, losses), each key at its lowest
    loss and ties broken by key order; flags a sample-deficient input (fewer
    than 20)."""
    if len(losses) == 0:
        raise ValueError("empty input")
    if len(keys) != len(losses):
        raise ValueError(f"{len(keys)} keys for {len(losses)} losses")
    # rows by key, each key's lowest loss first, keep the first row of each
    # run of equal keys; then those by loss, keeping key order among ties
    order = np.lexsort((losses, *keys.T[::-1]))
    keys, losses = keys[order], losses[order]
    first = np.r_[True, (keys[1:] != keys[:-1]).any(axis=1)]
    keys, losses = keys[first], losses[first]
    top = np.argsort(losses, kind="stable")[:20]
    keys, losses = keys[top], losses[top]
    m = len(top)
    # every pair's distance is counted twice over the (m, m) table
    mean_ham = (keys[:, None] != keys).sum() / (m * (m - 1)) if m > 1 else 0.0
    return float(np.median(losses)), float(mean_ham), m < 20


# (comparison.csv column, RetrievalReport field): each column is followed
# by its "_std" column, after the leading "method"
REPORT_COLUMNS = (
    ("best_loss", "best_loss"),
    ("median_top20", "median_top20_loss"),
    ("mean_hamming_top20", "mean_hamming_top20"),
)


def compare_methods(reports: Sequence[RetrievalReport]) -> list[dict]:
    """Per-method mean +/- sample std across seeds, in fixed column order."""
    methods: dict[str, list[RetrievalReport]] = {}
    for r in reports:
        methods.setdefault(r.method, []).append(r)
    rows = []
    for method in sorted(methods):
        row = {"method": method}
        for col, attr in REPORT_COLUMNS:
            values = np.array([getattr(r, attr) for r in methods[method]], dtype=float)
            row[col] = float(values.mean())
            row[col + "_std"] = float(values.std(ddof=1)) if len(values) > 1 else 0.0
        rows.append(row)
    return rows


def export_comparison_csv(path, rows: list[dict], config_hash: str) -> None:
    header = ["method"] + [c + sfx for c, _ in REPORT_COLUMNS for sfx in ("", "_std")]
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow([f"# config_hash={config_hash}"])
        writer.writerow(header)
        for row in rows:
            writer.writerow([row["method"]] + [repr(row[c]) for c in header[1:]])


def export_report_json(path, reports: Sequence[RetrievalReport], manifest: dict) -> None:
    # vars, not asdict: asdict copies every tuple of every best_so_far series
    doc = dict(manifest, reports=[vars(r) for r in reports])
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=2)
