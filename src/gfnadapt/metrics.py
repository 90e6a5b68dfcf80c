"""Retrieval and diversity metrics plus cross-method comparison tables."""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass, field
from statistics import median
from typing import Iterable, Sequence

import numpy as np

from .landscape import LandscapeTable
from .rewards import reward
from .space import StateKey, hamming


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
    found: set[StateKey], landscape: LandscapeTable, ks: Iterable[int]
) -> list[tuple[int, int]]:
    """How many of the target's top-k states (by probability, ties broken by
    canonical key order) appear in the found set."""
    n = len(landscape.keys)
    # a stable sort keeps equal probabilities in index order, which is key order
    order = np.argsort(-landscape.target_prob, kind="stable")
    out = []
    for k in ks:
        if k > n:
            raise ValueError(f"k={k} exceeds terminal count {n}")
        top = {landscape.keys[i] for i in order[:k]}
        out.append((k, len(found & top)))
    return out


def top20_stats(evaluated: Sequence[tuple[StateKey, float]]) -> tuple[float, float, bool]:
    """Median loss and mean pairwise Hamming distance over the 20 distinct
    lowest-loss keys; flags a sample-deficient input (fewer than 20)."""
    if not evaluated:
        raise ValueError("empty input")
    by_key: dict[StateKey, float] = {}
    for key, loss in evaluated:
        if key not in by_key or loss < by_key[key]:
            by_key[key] = loss
    ranked = sorted(by_key.items(), key=lambda kv: (kv[1], kv[0]))[:20]
    deficient = len(ranked) < 20
    losses = [loss for _, loss in ranked]
    keys = [key for key, _ in ranked]
    if len(keys) < 2:
        mean_ham = 0.0
    else:
        dists = [
            hamming(keys[i], keys[j])
            for i in range(len(keys))
            for j in range(i + 1, len(keys))
        ]
        mean_ham = float(np.mean(dists))
    return float(median(losses)), mean_ham, deficient


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
