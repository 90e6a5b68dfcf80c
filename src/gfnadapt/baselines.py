"""Baseline searchers over the grouped discrete space, and the trace files.

Both searchers score proposals through the shared reward cache, so their
recorded losses are bit-identical to the cache records for the same keys.
Each returns its scored set, (keys, losses): an (n, slots) int array of the
keys in evaluation order and an (n,) float64 array of their losses.
"""

from __future__ import annotations

import csv
import math
import operator

import numpy as np

from .rewards import TerminalScorer
from .space import SpaceSpec, key_text, key_tuples, uniform_keys, validate_key


_TRACE_HEADER = ["iteration", "key", "loss", "best_so_far"]
_CHUNK = 1024  # rows export_trace_csv turns into Python values at a time


def export_trace_csv(path, keys: np.ndarray, losses: np.ndarray, config_hash: str) -> None:
    """A scored set, one row per key with its loss and the best loss so far;
    the format of every trace.csv and samples.csv. The rows are the bytes
    csv.writer writes for them (no field needs quoting), formatted one at a
    time from chunks of _CHUNK rows, never the whole set at once."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow([f"# config_hash={config_hash}"])
        writer.writerow(_TRACE_HEADER)
        best = float("inf")
        for lo in range(0, len(losses), _CHUNK):
            chunk = zip(keys[lo : lo + _CHUNK].tolist(), losses[lo : lo + _CHUNK].tolist())
            for i, (key, loss) in enumerate(chunk, start=lo + 1):
                best = min(best, loss)
                fh.write(f"{i},{key_text(key)},{loss!r},{best!r}\r\n")


def read_trace_csv(path, space: SpaceSpec, config_hash: str) -> tuple[np.ndarray, np.ndarray]:
    """The scored set, (keys, losses), of a file written by export_trace_csv
    for `space` under `config_hash`. A file stamped with another config hash or
    without its header row, a row that is not four fields (its 1-based
    position, a terminal key of the space, a finite loss and the running
    minimum of the losses; a torn write, say), or a file without rows,
    raises ValueError naming the file (and the line)."""
    keys, losses = [], []
    slots, radices = space.slots, space.slot_radices
    best = math.inf
    try:
        with open(path, newline="") as fh:
            reader = csv.reader(fh)
            stamp = next(reader, [])
            if stamp != [f"# config_hash={config_hash}"]:
                raise ValueError(
                    f"{path} is stamped {','.join(stamp)!r}, expected config hash {config_hash}"
                )
            header = next(reader, None)
            if header is not None and header != _TRACE_HEADER:
                raise ValueError(f"{path}, line 2: header {header} is not {_TRACE_HEADER}")
            for i, row in enumerate(reader, start=1):
                try:
                    if len(row) != 4:
                        raise ValueError(f"{len(row)} fields")
                    if row[0] != str(i):
                        raise ValueError(f"iteration {row[0]} is not the row's position {i}")
                    key = tuple(map(int, row[1].split("-")))
                    # '-' separates the actions, so none parses as negative
                    if len(key) != slots or not all(map(operator.lt, key, radices)):
                        validate_key(space, key)
                        raise ValueError(f"key of {len(key)} slots is not terminal")
                    loss = float(row[2])
                    if not math.isfinite(loss):
                        raise ValueError(f"loss {loss} is not finite")
                    # the writer's repr round-trips, so the minimum reads back exactly
                    best = min(best, loss)
                    if float(row[3]) != best:
                        raise ValueError(f"best_so_far is not the running minimum {best!r}")
                    keys += key
                    losses.append(loss)
                except ValueError as exc:
                    raise ValueError(
                        f"{path}, line {reader.line_num}: malformed trace row {row}: {exc}"
                    ) from None
    except UnicodeDecodeError as exc:
        raise ValueError(f"{path} is not UTF-8 text: {exc}") from None
    if not losses:
        raise ValueError(f"{path} holds no trace rows")
    return np.array(keys).reshape(-1, slots), np.array(losses)


def _sorted_quantile(ordered: np.ndarray, q: float) -> float:
    """np.quantile(losses, q) from `ordered`, the non-empty losses in
    ascending order with NaN last: the value of the two entries numpy's
    linear method interpolates between, with its two formulas split at
    t >= 0.5, and the last value when it is NaN. Only the sign of a zero and
    the payload of a NaN can differ from np.quantile's, which no comparison
    against the threshold sees."""
    n = len(ordered)
    last = float(ordered[-1])
    if math.isnan(last):
        return last
    at = (n - 1) * q
    if at >= n - 1:  # at the top, numpy takes the last value twice, at index -1
        t = at + 1
        return last - (last - last) * (1 - t)
    lo = math.floor(at)
    a, b, t = float(ordered[lo]), float(ordered[lo + 1]), at - lo
    diff = b - a
    return b - diff * (1 - t) if t >= 0.5 else a + diff * t


def random_search(
    space: SpaceSpec,
    scorer: TerminalScorer,
    budget: int,
    seed: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Uniform i.i.d. terminals, each slot's action uniform."""
    if budget < 0:
        raise ValueError("budget must be >= 0")
    keys = uniform_keys(space, budget, np.random.default_rng(seed))
    return keys, scorer.score(key_tuples(keys))[0]


def tpe_search(
    space: SpaceSpec,
    scorer: TerminalScorer,
    budget: int,
    seed: int,
    gamma: float = 0.25,
    n_candidates: int = 24,
    startup: int = 10,
) -> tuple[np.ndarray, np.ndarray]:
    """Per-slot categorical tree-structured Parzen estimator.

    After `startup` uniform draws, all made first in one call, the history
    is split at the gamma quantile of losses (np.quantile's value); per
    slot, Laplace-smoothed categorical densities are built over the good and
    bad sets, candidates are drawn from the good density, and the candidate
    maximizing the product of density ratios is evaluated.

    The history is kept in ascending loss order (NaN last), each loss with
    its key's cells in one (largest radix, slots) table; an evaluation is
    inserted after the equal losses before it. The threshold is read from
    the two entries the quantile interpolates between, and the good set is
    the prefix of losses up to it. Its cell counts are kept running: a
    proposal adds or removes only the rows between the old split and the
    new one, and the bad counts are the history's totals minus the good
    ones. So a proposal's cost does not grow with the history, besides the
    shift of one insert. Candidates are drawn by inverse-CDF lookup of one
    `rng.random((n_candidates, S))` block against every slot's CDF at once,
    which is what `Generator.choice(r, p=l)` does with one double per call,
    in the same candidate-major order: the proposals are draw-for-draw those
    of a per-candidate `rng.choice` loop.
    """
    if not 0.0 < gamma < 1.0:
        raise ValueError("gamma must be in (0, 1)")
    if n_candidates < 1 or startup < 1:
        raise ValueError("n_candidates and startup must be >= 1")
    if budget < 0:
        raise ValueError("budget must be >= 0")
    rng = np.random.default_rng(seed)
    radices = space.slot_radices
    n_slots, width = len(radices), max(radices)
    r = np.array(radices)
    # Laplace smoothing over a slot's actions; a padded cell gets none, so
    # its density is 0 and adds nothing to its slot's CDF
    smoothing = (np.arange(width)[:, None] < r).astype(float)
    slot_of = np.arange(n_slots)
    # action a of slot t is cell a * n_slots + t: each slot's densities run
    # down one column of a (largest radix, slots) table
    cells = np.zeros((budget, n_slots), dtype=np.intp)
    totals = np.zeros(width * n_slots, dtype=np.intp)
    good_counts = np.zeros_like(totals)  # the cells of the first `split` rows of `order`
    ordered = np.zeros(budget)  # the losses so far, ascending, NaN last
    order = np.zeros(budget, dtype=np.intp)  # the evaluation (row of cells) of each
    split = 0
    keys = np.empty((budget, n_slots), dtype=np.int64)
    losses = np.empty(budget)
    keys[:startup] = uniform_keys(space, min(startup, budget), rng)
    for it in range(budget):
        if it >= startup:
            threshold = _sorted_quantile(ordered[:it], gamma)
            # a NaN threshold (a NaN loss, or inf - inf in the quantile's
            # interpolation) puts no key in either set, so the bad density
            # falls back to the (empty) good one; otherwise every key is good
            # or bad, and the bad counts are the rest of the totals
            if math.isnan(threshold):
                n_good = n_bad = 0
            else:
                n_good = int(ordered[:it].searchsorted(threshold, "right"))
                n_bad = it - n_good
            if n_good != split:
                lo, hi = sorted((split, n_good))
                np.add.at(good_counts, cells[order[lo:hi]], 1 if n_good > split else -1)
                split = n_good
            if n_bad:
                bad_counts = totals - good_counts
            else:
                bad_counts, n_bad = good_counts, n_good
            l = (good_counts.reshape(width, n_slots) + smoothing) / (n_good + r)
            g = (bad_counts.reshape(width, n_slots) + smoothing) / (n_bad + r)
            cdf = l.cumsum(axis=0)
            cdf /= cdf[-1]
            u = rng.random((n_candidates, n_slots))
            # the count of CDF values <= u: searchsorted(side="right") per
            # slot, summed over the table's outer axis, a run of fast adds
            candidates = (cdf[:, None] <= u).sum(0)
            at = candidates * n_slots + slot_of
            ratios = l.take(at) / g.take(at)
            keys[it] = candidates[ratios.prod(axis=1).argmax()]
        cells[it] = keys[it] * n_slots + slot_of
        totals[cells[it]] += 1
        loss = losses[it] = scorer.score(key_tuples(keys[it : it + 1]))[0][0]
        pos = int(ordered[:it].searchsorted(loss, "right"))
        ordered[pos + 1 : it + 1] = ordered[pos:it]
        order[pos + 1 : it + 1] = order[pos:it]
        ordered[pos], order[pos] = loss, it
        if pos < split:  # inside the good prefix, which now holds one more row
            good_counts[cells[it]] += 1
            split += 1
    return keys, losses
