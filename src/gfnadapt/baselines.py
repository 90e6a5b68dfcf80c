"""Baseline searchers over the grouped discrete space.

Both searchers score proposals through the shared reward cache, so their
recorded losses are bit-identical to the cache records for the same keys.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field

import numpy as np

from .rewards import TerminalScorer
from .space import SpaceSpec, StateKey


@dataclass
class SearchTrace:
    method: str
    budget: int
    seed: int
    evaluated: list[tuple[StateKey, float]] = field(default_factory=list)

    def export_csv(self, path, config_hash: str = "") -> None:
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow([f"# config_hash={config_hash}"])
            writer.writerow(["iteration", "key", "loss", "best_so_far"])
            best = float("inf")
            for i, (key, loss) in enumerate(self.evaluated, start=1):
                best = min(best, loss)
                writer.writerow(
                    ["%d" % i, "-".join(map(str, key)), repr(float(loss)), repr(float(best))]
                )

    @classmethod
    def from_csv(cls, path, method: str = "", seed: int = 0) -> "SearchTrace":
        evaluated = []
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
        for row in rows[2:]:
            key = tuple(int(x) for x in row[1].split("-"))
            evaluated.append((key, float(row[2])))
        return cls(method=method, budget=len(evaluated), seed=seed, evaluated=evaluated)


def _uniform_key(radices: tuple[int, ...], rng: np.random.Generator) -> StateKey:
    return tuple(int(rng.integers(r)) for r in radices)


def random_search(
    space: SpaceSpec,
    scorer: TerminalScorer,
    budget: int,
    seed: int,
) -> SearchTrace:
    """Uniform i.i.d. terminals, each slot's action uniform."""
    if budget < 0:
        raise ValueError("budget must be >= 0")
    rng = np.random.default_rng(seed)
    radices = space.slot_radices
    keys = [_uniform_key(radices, rng) for _ in range(budget)]
    records = scorer.score(keys)
    evaluated = [(key, rec.aggregate) for key, rec in zip(keys, records)]
    return SearchTrace(method="random", budget=budget, seed=seed, evaluated=evaluated)


def tpe_search(
    space: SpaceSpec,
    scorer: TerminalScorer,
    budget: int,
    seed: int,
    gamma: float = 0.25,
    n_candidates: int = 24,
    startup: int = 10,
) -> SearchTrace:
    """Per-slot categorical tree-structured Parzen estimator.

    After `startup` uniform draws, the history is split at the gamma
    quantile of losses; per slot, Laplace-smoothed categorical densities are
    built over the good and bad sets, candidates are drawn from the good
    density, and the candidate maximizing the product of density ratios is
    evaluated.

    Each proposal is a few array passes over the history. Candidates are
    drawn by inverse-CDF lookup of one `rng.random((n_candidates, S))` block,
    which is what `Generator.choice(r, p=l)` does with one double per call, in
    the same candidate-major order: the proposals are draw-for-draw those of
    a per-candidate `rng.choice` loop.
    """
    if not 0.0 < gamma < 1.0:
        raise ValueError("gamma must be in (0, 1)")
    if n_candidates < 1 or startup < 1:
        raise ValueError("n_candidates and startup must be >= 1")
    if budget < 0:
        raise ValueError("budget must be >= 0")
    rng = np.random.default_rng(seed)
    radices = space.slot_radices
    trace = SearchTrace(method="tpe", budget=budget, seed=seed)
    keys = np.zeros((budget, len(radices)), dtype=np.int64)
    losses = np.zeros(budget)
    for it in range(budget):
        if it < startup:
            keys[it] = _uniform_key(radices, rng)
        else:
            threshold = np.quantile(losses[:it], gamma)
            good = losses[:it] <= threshold
            bad = losses[:it] > threshold
            if not bad.any():
                bad = good
            n_good, n_bad = int(good.sum()), int(bad.sum())
            u = rng.random((n_candidates, len(radices)))
            candidates = np.empty((n_candidates, len(radices)), dtype=np.int64)
            ratios = np.empty((n_candidates, len(radices)))
            for t, r in enumerate(radices):
                column = keys[:it, t]
                l = (np.bincount(column[good], minlength=r) + 1.0) / (n_good + r)
                g = (np.bincount(column[bad], minlength=r) + 1.0) / (n_bad + r)
                cdf = l.cumsum()
                cdf /= cdf[-1]
                c = cdf.searchsorted(u[:, t], side="right")
                candidates[:, t] = c
                ratios[:, t] = l[c] / g[c]
            keys[it] = candidates[np.argmax(np.prod(ratios, axis=1))]
        key = tuple(int(a) for a in keys[it])
        loss = scorer.score([key])[0].aggregate
        losses[it] = loss
        trace.evaluated.append((key, loss))
    return trace
