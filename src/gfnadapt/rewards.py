"""Contextual losses, quantile normalization, tail-risk aggregation, reward.

The scoring path for a batch of terminal states is: decode -> simulate each
context -> normalized-residual loss per context -> quantile normalization ->
blend of mean and worst-K tail -> Boltzmann reward exp(-beta * loss), each
step an array pass over the batch. The reward cache stores raw losses only;
`derive` computes the aggregate and reward along the last axis, for one row
or a whole cache file alike. `context_loss` is the one-trajectory form of the
loss, kept as the reference the batched loss is tested against.
"""

from __future__ import annotations

import functools
import json
import os
from dataclasses import dataclass
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np

from . import simulator
from .cache import RewardCache
from .simulator import ContextDataset, simulate_batch
from .space import SpaceSpec, StateKey, all_keys, decode_batch, key_tuples, uniform_keys

EPS_RESIDUAL = 1e-6   # guard in the normalized-residual denominator
EPS_QUANTILE = 1e-8   # guard in the quantile-normalization denominator


@dataclass(frozen=True)
class QuantileTable:
    q_lo: np.ndarray
    q_hi: np.ndarray
    lo_level: float
    hi_level: float
    eps: float = EPS_QUANTILE

    def to_json(self, path) -> None:
        """Written through a sibling temporary file renamed over `path`, so a
        crash mid-write leaves no torn table behind."""
        tmp = f"{path}.{os.getpid()}.tmp"
        with open(tmp, "w") as fh:
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
        os.replace(tmp, path)

    @classmethod
    def from_json(cls, path) -> "QuantileTable":
        """The table written by to_json; q_lo and q_hi must be 1-D lists of
        finite numbers of one length (the caller checks it against its
        contexts), eps a finite number > 0 and the levels numbers with
        0 < lo_level < hi_level < 1 (a bool is not a number here)."""
        try:
            with open(path) as fh:
                doc = json.load(fh)
            table = cls(
                q_lo=np.asarray(doc["q_lo"], dtype=float),
                q_hi=np.asarray(doc["q_hi"], dtype=float),
                lo_level=doc["lo_level"],
                hi_level=doc["hi_level"],
                eps=doc["eps"],
            )
            if not (table.q_lo.ndim == 1 and table.q_lo.shape == table.q_hi.shape
                    and np.isfinite(table.q_lo).all() and np.isfinite(table.q_hi).all()):
                raise ValueError("q_lo and q_hi must be 1-D lists of finite numbers of one length")
            scalars = (table.eps, table.lo_level, table.hi_level)
            if not (all(type(x) in (int, float) for x in scalars) and 0.0 < table.eps < np.inf
                    and 0.0 < table.lo_level < table.hi_level < 1.0):
                raise ValueError("eps must be a finite number > 0 and the levels numbers "
                                 "with 0 < lo_level < hi_level < 1")
            return table
        except (KeyError, TypeError, ValueError) as exc:
            msg = f"quantile table {path} is unreadable ({type(exc).__name__}: {exc})"
            raise ValueError(f"{msg}; delete it to refit") from exc


def context_loss(sim: np.ndarray, obs: np.ndarray) -> float:
    """Mean normalized absolute residual between trajectories."""
    sim = np.asarray(sim, dtype=float)
    obs = np.asarray(obs, dtype=float)
    if sim.shape != obs.shape:
        raise ValueError(f"length mismatch: {sim.shape} vs {obs.shape}")
    if not (np.all(np.isfinite(sim)) and np.all(np.isfinite(obs))):
        raise ValueError("non-finite trajectory value")
    return float(np.mean(np.abs(sim - obs) / (np.abs(obs) + EPS_RESIDUAL)))


def fit_quantiles(table: np.ndarray, lo_level: float, hi_level: float) -> QuantileTable:
    """Per-context empirical quantiles, by linear interpolation, of an
    (n, C) table of raw losses."""
    if not 0.0 < lo_level < hi_level < 1.0:
        raise ValueError("quantile levels must satisfy 0 < lo < hi < 1")
    if len(table) == 0:
        raise ValueError("empty loss sample")
    q_lo, q_hi = np.quantile(table, (lo_level, hi_level), axis=0)
    return QuantileTable(q_lo, q_hi, lo_level, hi_level)


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
    """exp(-beta * loss), refused where it leaves the float64 range: an
    infinite reward cannot be normalised and a zero one has no log."""
    if beta <= 0:
        raise ValueError("beta must be > 0")
    loss = np.asarray(aggregate_loss, dtype=float)
    with np.errstate(over="ignore"):
        r = np.exp(-beta * loss)
    bad = ~((r > 0.0) & (r < np.inf))  # NaN included
    if bad.any():
        raise ValueError(
            f"reward.beta={beta:g} gives the aggregate loss {float(loss[bad].flat[0])!r} "
            f"the reward {float(r[bad].flat[0])!r}, outside the float64 range"
        )
    return r


def derive(raw: np.ndarray, q: QuantileTable, config: Mapping):
    """Aggregate loss and reward of (..., C) raw losses, under the reward.*
    settings that `config` maps by dotted name."""
    agg = aggregate(normalize(raw, q), config["reward.lambda"], config["reward.k_tail"])
    return agg, reward(agg, config["reward.beta"])


class SimulatorError(RuntimeError):
    def __init__(self, context_id: int, cause: Exception):
        super().__init__(f"simulator failed on context {context_id}: {cause}")
        self.context_id = context_id


class TerminalScorer:
    """Cache-backed scoring of terminal states against all contexts.

    `config` maps the reward.* settings by dotted name. The reward cache at
    `cache_path` opens once the quantile table is frozen: passed in, or
    fitted by fit_on_enumeration / fit_on_warmup. Only keys the cache does
    not hold are simulated, all at once.
    """

    def __init__(
        self,
        space: SpaceSpec,
        contexts: Sequence[ContextDataset],
        config: Mapping,
        *,
        cache_path,
        quantiles: QuantileTable | None = None,
    ):
        self.space = space
        self.contexts = list(contexts)
        self.config = config
        self.cache_path = Path(cache_path)
        self.requested = 0   # keys passed to score, repeats included
        self.cache_hits = 0  # requested keys the cache already held
        self.simulated = 0   # keys simulated, quantile fitting included
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

    def raw_losses(self, keys: Sequence[StateKey]) -> np.ndarray:
        """(n, C) raw losses of n terminal keys; no cache lookup. The keys run
        in passes of at most simulator.SIM_CELLS consecutive keys, each
        decoded, simulated and reduced in turn: its residuals are written
        into its trajectories and their means into its rows of the result.
        So scoring holds one pass's trajectories besides the (n, C) result,
        however many keys it is given. A row does not depend on the other
        keys of the batch. A non-finite trajectory raises SimulatorError
        naming the first context that has one in any pass."""
        slots = self.space.slots
        for key in keys:
            if len(key) != slots:
                raise ValueError(f"key {key} is not terminal: it decides "
                                 f"{len(key)} of {slots} slots")
        names = [p.name for p in self.space.parameters]
        obs = np.array([ctx.obs_values for ctx in self.contexts])
        scale = np.abs(obs) + EPS_RESIDUAL
        raw = np.empty((len(keys), len(self.contexts)))
        finite = np.ones(len(self.contexts), dtype=bool)
        for lo in range(0, len(keys), simulator.SIM_CELLS):
            hi = lo + simulator.SIM_CELLS
            theta = decode_batch(self.space, keys[lo:hi])
            sims = simulate_batch(dict(zip(names, theta.T)), self.contexts)
            finite &= np.isfinite(sims).all(axis=(0, 2))
            sims -= obs  # |sims - obs| / (|obs| + EPS_RESIDUAL), in place
            np.abs(sims, out=sims)
            sims /= scale
            np.mean(sims, axis=2, out=raw[lo:hi])
            del theta, sims  # freed before the next pass is simulated
        if not finite.all():
            ctx = self.contexts[int(np.argmin(finite))]
            raise SimulatorError(ctx.context_id, ValueError("non-finite trajectory value"))
        self.simulated += len(keys)
        return raw

    def fit_on_enumeration(self) -> QuantileTable:
        """Fit quantiles on the raw losses of every terminal state, then
        commit those losses to the cache."""
        keys = all_keys(self.space)
        table = self.raw_losses(keys)
        cfg = self.config
        self._freeze(fit_quantiles(table, cfg["reward.lo_level"], cfg["reward.hi_level"]))
        self.cache.put(key_tuples(keys), table)
        return self.quantiles

    def fit_on_warmup(self, rng: np.random.Generator) -> QuantileTable:
        """Fit quantiles on uniformly random terminals, then freeze. The
        warm-up losses are not cached."""
        keys = set(key_tuples(uniform_keys(self.space, self.config["reward.warmup"], rng)))
        table = self.raw_losses(sorted(keys))
        cfg = self.config
        self._freeze(fit_quantiles(table, cfg["reward.lo_level"], cfg["reward.hi_level"]))
        return self.quantiles

    def score(self, keys: Sequence[StateKey]) -> tuple[np.ndarray, np.ndarray]:
        """(aggregate, reward) float arrays aligned with the given terminal
        keys. Repeats are looked up once; the keys the cache lacks are
        simulated in one raw_losses call and committed in one cache put."""
        if self.quantiles is None:
            raise RuntimeError("quantile table not fitted")
        found = {key: self.cache.get(key) for key in dict.fromkeys(keys)}
        misses = [key for key, pair in found.items() if pair is None]
        if misses:
            found.update(zip(misses, self.cache.put(misses, self.raw_losses(misses))))
        missed = set(misses)
        self.requested += len(keys)
        self.cache_hits += sum(key not in missed for key in keys)
        agg, rew = np.array([found[key] for key in keys], dtype=float).reshape(-1, 2).T.copy()
        return agg, rew
