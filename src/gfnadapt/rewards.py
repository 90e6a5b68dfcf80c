"""Contextual losses, quantile normalization, tail-risk aggregation, reward.

The scoring path for one terminal state is: decode -> simulate each context
-> normalized-residual loss per context -> quantile normalization -> blend
of mean and worst-K tail -> Boltzmann reward exp(-beta * loss). The reward
cache stores raw losses only; `derive` computes the rest along the last axis,
for one row or a whole cache file alike.
"""

from __future__ import annotations

import functools
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from .cache import LossRecord, RewardCache
from .simulator import ContextDataset, simulate
from .space import SpaceSpec, StateKey, decode_state, enumerate_terminals

EPS_RESIDUAL = 1e-6   # guard in the normalized-residual denominator
EPS_QUANTILE = 1e-8   # guard in the quantile-normalization denominator


@dataclass(frozen=True)
class RewardConfig:
    beta: float = 4.0
    lam: float = 0.25
    k_tail: int = 2
    lo_level: float = 0.05
    hi_level: float = 0.95
    warmup: int = 256  # quantile-fitting sample size in non-enumerable mode


@dataclass(frozen=True)
class QuantileTable:
    q_lo: np.ndarray
    q_hi: np.ndarray
    lo_level: float
    hi_level: float
    eps: float = EPS_QUANTILE

    def to_json(self, path) -> None:
        with open(path, "w") as fh:
            json.dump(
                {
                    "q_lo": self.q_lo.tolist(),
                    "q_hi": self.q_hi.tolist(),
                    "lo_level": self.lo_level,
                    "hi_level": self.hi_level,
                    "eps": self.eps,
                },
                fh,
                indent=2,
            )

    @classmethod
    def from_json(cls, path) -> "QuantileTable":
        with open(path) as fh:
            doc = json.load(fh)
        return cls(
            q_lo=np.asarray(doc["q_lo"], dtype=float),
            q_hi=np.asarray(doc["q_hi"], dtype=float),
            lo_level=doc["lo_level"],
            hi_level=doc["hi_level"],
            eps=doc["eps"],
        )


def context_loss(sim: np.ndarray, obs: np.ndarray) -> float:
    """Mean normalized absolute residual between trajectories."""
    sim = np.asarray(sim, dtype=float)
    obs = np.asarray(obs, dtype=float)
    if sim.shape != obs.shape:
        raise ValueError(f"length mismatch: {sim.shape} vs {obs.shape}")
    if not (np.all(np.isfinite(sim)) and np.all(np.isfinite(obs))):
        raise ValueError("non-finite trajectory value")
    return float(np.mean(np.abs(sim - obs) / (np.abs(obs) + EPS_RESIDUAL)))


def fit_quantiles(
    losses_per_context: Sequence[np.ndarray],
    lo_level: float,
    hi_level: float,
) -> QuantileTable:
    """Per-context empirical quantiles by linear interpolation."""
    if not 0.0 < lo_level < hi_level < 1.0:
        raise ValueError("quantile levels must satisfy 0 < lo < hi < 1")
    q_lo, q_hi = [], []
    for sample in losses_per_context:
        sample = np.asarray(sample, dtype=float)
        if sample.size == 0:
            raise ValueError("empty loss sample")
        q_lo.append(float(np.quantile(sample, lo_level)))
        q_hi.append(float(np.quantile(sample, hi_level)))
    return QuantileTable(np.array(q_lo), np.array(q_hi), lo_level, hi_level)


def normalize(raw: np.ndarray, q: QuantileTable) -> np.ndarray:
    """Affine quantile normalization; deliberately not clamped to [0, 1]."""
    return (np.asarray(raw, dtype=float) - q.q_lo) / (q.q_hi - q.q_lo + q.eps)


def aggregate(normalized: np.ndarray, lam: float, k: int) -> np.ndarray:
    """Blend of the mean loss and the mean over the K worst contexts (last axis)."""
    normalized = np.asarray(normalized, dtype=float)
    c = normalized.shape[-1]
    if not 1 <= k <= c:
        raise ValueError(f"K={k} out of range [1, {c}]")
    if not 0.0 <= lam <= 1.0:
        raise ValueError("lambda must be in [0, 1]")
    # summing in sorted order keeps the result exactly permutation invariant
    ordered = np.sort(normalized, axis=-1)[..., ::-1]
    tail = np.mean(ordered[..., :k], axis=-1)
    return (1.0 - lam) * np.mean(ordered, axis=-1) + lam * tail


def reward(aggregate_loss, beta: float) -> np.ndarray:
    if beta <= 0:
        raise ValueError("beta must be > 0")
    return np.exp(-beta * np.asarray(aggregate_loss, dtype=float))


def derive(raw: np.ndarray, q: QuantileTable, config: RewardConfig):
    """Normalized losses, aggregate and reward of (..., C) raw losses."""
    norm = normalize(raw, q)
    agg = aggregate(norm, config.lam, config.k_tail)
    return norm, agg, reward(agg, config.beta)


class SimulatorError(RuntimeError):
    def __init__(self, context_id: int, cause: Exception):
        super().__init__(f"simulator failed on context {context_id}: {cause}")
        self.context_id = context_id


class TerminalScorer:
    """Cache-backed scoring of terminal states against all contexts.

    The reward cache at `cache_path` opens once the quantile table is
    frozen: passed in, or fitted by fit_on_enumeration / fit_on_warmup.
    Only keys the cache does not hold are simulated.
    """

    def __init__(
        self,
        space: SpaceSpec,
        contexts: Sequence[ContextDataset],
        config: RewardConfig = RewardConfig(),
        *,
        cache_path,
        quantiles: QuantileTable | None = None,
    ):
        self.space = space
        self.contexts = list(contexts)
        self.config = config
        self.cache_path = Path(cache_path)
        self.sim_evals = 0          # simulator invocations (one per context)
        self.unique_scored = 0      # keys simulated (raw_losses calls)
        self.quantiles: QuantileTable | None = None
        self.cache: RewardCache | None = None
        if quantiles is not None:
            self._freeze(quantiles)

    def _freeze(self, quantiles: QuantileTable) -> None:
        """Fix the quantile table and open the cache derived under it."""
        self.quantiles = quantiles
        self.cache = RewardCache(
            self.cache_path, self.space.slots, len(self.contexts),
            functools.partial(derive, q=quantiles, config=self.config),
        )

    def raw_losses(self, key: StateKey) -> np.ndarray:
        """Simulate every context for one key; no cache lookup."""
        params = decode_state(self.space, key)
        raw = np.empty(len(self.contexts))
        for i, ctx in enumerate(self.contexts):
            try:
                sim = simulate(params, ctx)
            except Exception as exc:
                raise SimulatorError(ctx.context_id, exc) from exc
            raw[i] = context_loss(sim, ctx.obs_values)
        self.sim_evals += len(self.contexts)
        self.unique_scored += 1
        return raw

    def fit_on_enumeration(self) -> QuantileTable:
        """Fit quantiles on the raw losses of every terminal state, then
        commit those losses to the cache."""
        keys = list(enumerate_terminals(self.space))
        table = np.array([self.raw_losses(k) for k in keys])
        cfg = self.config
        self._freeze(fit_quantiles(list(table.T), cfg.lo_level, cfg.hi_level))
        for key, raw in zip(keys, table):
            self.cache.put(key, raw)
        return self.quantiles

    def fit_on_warmup(self, rng: np.random.Generator) -> QuantileTable:
        """Fit quantiles on uniformly random terminals, then freeze. The
        warm-up losses are not cached."""
        radices = self.space.slot_radices
        keys = {
            tuple(int(rng.integers(r)) for r in radices)
            for _ in range(self.config.warmup)
        }
        table = np.array([self.raw_losses(k) for k in sorted(keys)])
        cfg = self.config
        self._freeze(fit_quantiles(list(table.T), cfg.lo_level, cfg.hi_level))
        return self.quantiles

    def score(self, key: StateKey) -> LossRecord:
        if self.quantiles is None:
            raise RuntimeError("quantile table not fitted")
        hit = self.cache.get(key)
        if hit is not None:
            return hit
        return self.cache.put(key, self.raw_losses(key))
