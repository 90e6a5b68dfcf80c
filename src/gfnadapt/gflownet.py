"""Forward-policy training with the trajectory balance objective.

Because the construction graph is a tree, every terminal state has a unique
trajectory and the backward policy is deterministic (log P_B = 0), so the
squared residual is (log_z + log P_F(tau) - log R(x))^2. The policy is a
shared MLP trunk with one logit head per decision slot. The rollout is the
policy's only forward path: training backpropagates (`_backward`) through
the per-slot passes the rollout recorded while sampling, and the exact terminal
distribution is the log P_F of a rollout that reads its actions from every
terminal's key.

The forward runs once per slot, since slot t's input depends on the action
drawn at slot t-1. The policy's output at a state depends only on its
prefix, so each slot's forward runs once per distinct prefix in the batch,
not once per row, and the gradient is reduced onto those prefixes before
the backward, which stacks every slot's rows and runs one pass per trunk
layer.
"""

from __future__ import annotations

import functools
import json
import math
import struct
from dataclasses import dataclass
from typing import Mapping, NamedTuple, Sequence

import numpy as np
import numpy.typing as npt

from .nn import Adam, Gradients, PolicyNet, log_softmax
from .rewards import TerminalScorer
from .space import SpaceSpec, StateKey, all_keys, key_tuples

CHECKPOINT_VERSION = 4
SAMPLE_CHUNK = 1024  # rows per rollout in sample_terminals


def feature_dim(space: SpaceSpec) -> int:
    return _feature_layout(space.slot_radices)[1].shape[1]


@functools.lru_cache
def _feature_layout(radices: tuple[int, ...]) -> tuple[np.ndarray, np.ndarray]:
    """The policy's input layout, read-only as every caller shares it: the
    first column of each slot's one-hot block (each with its undecided
    category), then of the current-slot block; and a (slots, width) table
    whose row t, the row every prefix of length t starts from, holds ones at
    the undecided category of slots t onward and at slot t's current-slot
    column."""
    slots = len(radices)
    offsets = np.cumsum([0, *(r + 1 for r in radices)])
    rows = np.zeros((slots, offsets[-1] + slots))
    rows[:, offsets[:-1]] = np.triu(np.ones((slots, slots)))
    rows[:, offsets[-1]:] = np.eye(slots)
    offsets.flags.writeable = rows.flags.writeable = False
    return offsets, rows


def encode_batch(
    space: SpaceSpec, keys: np.ndarray, dtype: npt.DTypeLike = np.float32
) -> np.ndarray:
    """One-hot of each slot's choice (with an undecided category) plus a
    one-hot of the current decision slot, one row per prefix, as an array
    of `dtype`. `keys` holds n prefixes of one length t, as an (n, t) int
    array. Every row starts as the layout's row t; only the decided slots'
    columns are scattered per row."""
    keys = np.asarray(keys, dtype=np.int64)
    n, t = keys.shape
    offsets, rows = _feature_layout(space.slot_radices)
    out = np.empty((n, rows.shape[1]), dtype=dtype)
    out[...] = rows[t]
    out[np.arange(n)[:, None], offsets[:t] + 1 + keys] = 1.0
    return out


def new_policy(
    space: SpaceSpec,
    hidden: Sequence[int],
    rng: np.random.Generator,
    dtype: npt.DTypeLike = np.float32,
) -> PolicyNet:
    """A policy of `hidden` trunk widths whose trunk weights are drawn
    uniform in +-1/sqrt(fan-in); heads (and all biases) start at zero, so
    the initial policy is uniform."""
    dims = (feature_dim(space), *hidden)
    net = PolicyNet(
        list(zip(dims[:-1], dims[1:])), [(dims[-1], r) for r in space.slot_radices], dtype=dtype
    )
    for w in net.trunk_w:
        bound = 1.0 / np.sqrt(w.shape[0])
        w[...] = rng.uniform(-bound, bound, size=w.shape)
    return net


class RolloutPasses(NamedTuple):
    """The per-slot passes of one rollout over its distinct prefixes, as
    log_pf and _backward consume them. Slot t has u_t distinct
    prefixes, in lexicographic order; U is the sum of the u_t."""

    acts: list[np.ndarray] | None  # trunk activations [x, h1, ..., hL], (U, width),
                                   # slot by slot; None unless keep_caches
    logp: list[np.ndarray]  # per slot, pure-policy action log-probs, (u_t, radix),
                            # float64 whatever the net's dtype
    chosen: np.ndarray      # the trajectories' actions, (n, slots)
    inv: list[np.ndarray]   # per slot, (n,): each trajectory's prefix row in logp[t]


def slot_forward(
    net: PolicyNet, space: SpaceSpec, prefixes: np.ndarray, slot: int
) -> tuple[list[np.ndarray], np.ndarray]:
    """Trunk activations [x, h1, ..., hL] (in the net's dtype) and float64
    action log-probs at `slot` for an (n, slot) int array of prefixes."""
    acts = net.trunk_forward(encode_batch(space, prefixes, net.dtype))
    return acts, log_softmax(net.logits(acts[-1], slot))


def _distinct_codes(codes: np.ndarray, bound: int) -> tuple[np.ndarray, np.ndarray]:
    """np.unique(codes, return_index=True, return_inverse=True)[1:] of an
    int array of codes in [0, bound), without a sort: a presence mask's
    running count ranks the distinct codes in ascending order. `first` holds
    one row carrying each distinct code, not necessarily its first; `inv`
    each row's rank."""
    rank = np.zeros(bound, dtype=np.intp)
    rank[codes] = 1
    rank.cumsum(out=rank)
    inv = rank[codes]
    inv -= 1
    first = np.empty(rank[-1], dtype=np.intp)
    first[inv] = np.arange(len(codes))
    return first, inv


def _rollout(
    net: PolicyNet,
    space: SpaceSpec,
    u: np.ndarray | None = None,
    explore_eps: float = 0.0,
    keep_caches: bool = False,
    keys: np.ndarray | None = None,
) -> RolloutPasses:
    """Run n trajectories in lockstep, slot by slot. Their actions are either
    drawn from the eps-mixed policy by inverse CDF, slot t's from the
    uniforms u[t] of a (slots, n) array, or read from `keys`, an (n, slots)
    int array of terminal keys (teacher forcing). The policy runs once per
    distinct prefix, found from a place-value code per row. With
    keep_caches, every slot's activations are kept and stacked once per
    layer for the backward; otherwise acts is None and no slot's
    activations outlive the next slot."""
    if keys is None:
        keys = np.zeros(u.shape[::-1], dtype=np.int64)
    n = len(keys)
    per_slot, inverses, logps = [], [], []
    # slot 0 has one prefix, the empty one
    first, inv = np.zeros(1, dtype=np.intp), np.zeros(n, dtype=np.intp)
    for t, n_actions in enumerate(space.slot_radices):
        if t:
            first, inv = _distinct_codes(codes, len(first) * space.slot_radices[t - 1])
        acts, logp = slot_forward(net, space, keys[first, :t], t)
        if keep_caches:
            per_slot.append(acts)
        if u is not None:
            mixed = (1.0 - explore_eps) * np.exp(logp) + explore_eps / n_actions
            cdf = mixed.cumsum(axis=1)[inv]
            chosen = np.add.reduce(cdf < u[t, :, None], axis=1)
            np.minimum(chosen, n_actions - 1, out=chosen)
            keys[:, t] = chosen
        # the prefix, as the row of its parent prefix in the previous slot's
        # distinct prefixes and its last action in place values: small, ordered
        # like the prefixes, and free of overflow however many slots there are;
        # every row carrying a code holds the same prefix
        codes = inv * n_actions + keys[:, t]
        inverses.append(inv)
        logps.append(logp)
    acts = [np.concatenate(layer) for layer in zip(*per_slot)] if keep_caches else None
    return RolloutPasses(acts, logps, keys, inverses)


def log_pf(passes: RolloutPasses) -> np.ndarray:
    """Each trajectory's log P_F, float64: its chosen actions' log-probs
    summed slot by slot from slot 0."""
    total = np.zeros(len(passes.chosen))
    for t, (logp, inv) in enumerate(zip(passes.logp, passes.inv)):
        total += logp[inv, passes.chosen[:, t]]
    return total


def _backward(
    net: PolicyNet, passes: RolloutPasses, dlogp: np.ndarray, grads: Gradients
) -> None:
    """Write into `grads`, overwriting the net's parameters' part of it, the
    gradient of a loss whose derivative by each trajectory's log P_F is
    `dlogp`, (n,) float64, by backpropagation through the passes (kept with
    keep_caches). Per slot, dlogp is summed onto the distinct prefixes and
    chosen actions in float64; the logit gradient is cast to the net's
    dtype (a float64 one would promote the products) and gives the slot's
    head gradient and its rows of the trunk's output gradient, which each
    trunk layer then takes in one pass over every slot's rows."""
    acts = passes.acts
    dh = np.empty_like(acts[-1])
    lo = 0
    for t, (logp, inv) in enumerate(zip(passes.logp, passes.inv)):
        rows, radix = logp.shape
        per_prefix = np.bincount(inv, weights=dlogp, minlength=rows)
        per_action = np.bincount(
            inv * radix + passes.chosen[:, t], weights=dlogp, minlength=rows * radix
        )
        d = np.exp(logp)
        d *= -per_prefix[:, None]
        d += per_action.reshape(rows, radix)
        d = d.astype(net.dtype, copy=False)
        block = slice(lo, lo + rows)
        lo += rows
        np.matmul(acts[-1][block].T, d, out=grads.head_w[t])
        np.add.reduce(d, axis=0, out=grads.head_b[t])
        np.matmul(d, net.head_w[t].T, out=dh[block])
    for i in range(len(net.trunk_w) - 1, -1, -1):
        dh *= acts[i + 1] > 0.0
        np.matmul(acts[i].T, dh, out=grads.trunk_w[i])
        np.add.reduce(dh, axis=0, out=grads.trunk_b[i])
        if i:
            dh = dh @ net.trunk_w[i].T


def tb_loss_and_grads(
    net: PolicyNet,
    passes: RolloutPasses,
    log_rewards: np.ndarray,
    grads: Gradients,
) -> float:
    """TB objective of the trajectories whose slot passes are given, reduced
    in float64; its gradient is written into `grads`."""
    n = len(log_rewards)
    residual = net.log_z + log_pf(passes) - log_rewards
    _backward(net, passes, 2.0 * residual / n, grads)
    grads.log_z = float(np.add.reduce(2.0 * residual)) / n
    return float(np.add.reduce(residual**2)) / n  # np.mean's sum and divide, unwrapped


@dataclass
class TrainResult:
    net: PolicyNet
    log_rows: list[tuple[int, float, float, int]]  # step, TB loss, log_z, distinct keys
    keys: np.ndarray    # (n, slots) int, every trajectory's terminal key in sampling order
    losses: np.ndarray  # (n,) float64, their losses
    stopped_early: bool


def train(
    space: SpaceSpec,
    scorer: TerminalScorer,
    cfg: Mapping,
    seed: int,
) -> TrainResult:
    """Trajectory-balance training loop with an eps-mixed sampler, whose eps
    decays linearly to 0 over the first half of the steps. `cfg` maps the
    train.* settings by dotted name. The result's keys and losses are the
    scored set of every trajectory sampled. numpy's floating-point warnings
    are silenced: a diverging run stops at the first non-finite loss."""
    rng = np.random.default_rng(seed)
    net = new_policy(space, cfg["train.hidden"], rng)
    opt = Adam(lr=cfg["train.lr"], log_z_lr=cfg["train.log_z_lr"])
    grads = Gradients.zeros_like(net)
    seen: set[StateKey] = set()
    rows = []
    scored = []  # each step's (keys, losses)
    stopped = False
    half = max(1, cfg["train.steps"] // 2)
    with np.errstate(all="ignore"):
        for step in range(1, cfg["train.steps"] + 1):
            eps = cfg["train.explore_eps"] * max(0.0, 1.0 - (step - 1) / half)
            u = rng.random((space.slots, cfg["train.batch"]))
            passes = _rollout(net, space, u, eps, keep_caches=True)
            keys = key_tuples(passes.chosen)
            losses, rewards = scorer.score(keys)
            scored.append((passes.chosen, losses))
            seen.update(keys)
            loss = tb_loss_and_grads(net, passes, np.log(rewards), grads)
            if not np.isfinite(loss):
                raise RuntimeError(f"trajectory balance loss diverged at step {step}")
            opt.step(net, grads)
            rows.append((step, loss, net.log_z, len(seen)))
            # the run's own distinct keys, so the stop does not depend on what
            # the cache already held
            if cfg["train.budget"] is not None and len(seen) >= cfg["train.budget"]:
                stopped = True
                break
    return TrainResult(net, rows, *map(np.concatenate, zip(*scored)), stopped_early=stopped)


def exact_terminal_distribution(net: PolicyNet, space: SpaceSpec) -> np.ndarray:
    """Terminal probabilities in space.all_keys order: exp of the log P_F of
    a rollout that reads every terminal's actions from its key. The caller
    decides whether the space is small enough to enumerate."""
    return np.exp(log_pf(_rollout(net, space, keys=all_keys(space))))


def sample_terminals(
    net: PolicyNet, space: SpaceSpec, n: int, rng: np.random.Generator
) -> np.ndarray:
    """n terminal keys drawn from the policy, an (n, slots) int array. The
    rollout runs over row chunks of SAMPLE_CHUNK, so the activations held at
    once stay bounded whatever n is; the uniforms are drawn up front, so the
    keys do not depend on the chunking."""
    if n < 0:
        raise ValueError("n must be >= 0")
    u = rng.random((space.slots, n))
    keys = np.empty((n, space.slots), dtype=np.int64)
    for lo in range(0, n, SAMPLE_CHUNK):
        keys[lo : lo + SAMPLE_CHUNK] = _rollout(net, space, u[:, lo : lo + SAMPLE_CHUNK]).chosen
    return keys


# ---------------------------------------------------------------------------
# Checkpoints: length-prefixed JSON header followed by the net's flat
# parameter vector as one little-endian block of the net's dtype ("<f4" for
# float32, "<f8" for float64, named in the header's "dtype"). Deterministic
# bytes for identical models. The header carries a signature of the space and
# run the net was trained for; loading refuses a checkpoint whose signature
# differs from the caller's.

_CHECKPOINT_DTYPES = {"float32": "<f4", "float64": "<f8"}


def checkpoint_signature(space: SpaceSpec, run_hash: str) -> dict:
    return {
        "slot_radices": list(space.slot_radices),
        "feature_dim": feature_dim(space),
        "run_hash": run_hash,
    }


def save_checkpoint(path, net: PolicyNet, signature: dict) -> None:
    header = {
        "version": CHECKPOINT_VERSION,
        "dtype": net.dtype.name,
        "signature": signature,
        "trunk_dims": [list(s) for s in net.trunk_shapes],
        "head_dims": [list(s) for s in net.head_shapes],
        "log_z": net.log_z,
    }
    blob = json.dumps(header, sort_keys=True).encode()
    with open(path, "wb") as fh:
        fh.write(struct.pack("<I", len(blob)))
        fh.write(blob)
        fh.write(net.flat.astype(_CHECKPOINT_DTYPES[net.dtype.name], copy=False).tobytes())


def _is_shapes(value) -> bool:
    return isinstance(value, list) and all(
        isinstance(s, list) and len(s) == 2
        and all(type(d) is int and d > 0 for d in s) for s in value
    )


# what load_checkpoint requires of each header field it reads
_HEADER_FIELDS = {
    "signature": lambda v: isinstance(v, dict),
    "trunk_dims": _is_shapes,
    "head_dims": _is_shapes,
    "log_z": lambda v: type(v) is int or (type(v) is float and math.isfinite(v)),
}


def load_checkpoint(path, signature: dict) -> PolicyNet:
    with open(path, "rb") as fh:
        try:
            (hlen,) = struct.unpack("<I", fh.read(4))
            header = json.loads(fh.read(hlen))
        except (struct.error, ValueError) as exc:
            raise ValueError(f"checkpoint {path} has a corrupt header") from exc
        version = header.get("version") if isinstance(header, dict) else None
        if version != CHECKPOINT_VERSION:
            raise ValueError(
                f"checkpoint {path} has version {version}; this program reads version "
                f"{CHECKPOINT_VERSION} only"
            )
        for name, valid in _HEADER_FIELDS.items():
            if not valid(header.get(name)):
                raise ValueError(
                    f"checkpoint {path} has a missing or malformed header field {name!r}"
                )
        stored = header["signature"]
        wrong = [name for name in signature if stored.get(name) != signature[name]]
        if wrong:
            raise ValueError(f"checkpoint {path} was written for another run: " + "; ".join(
                f"{name} is {stored.get(name)!r}, expected {signature[name]!r}"
                for name in wrong
            ))
        # the layer shapes must make a policy of the signature: the trunk
        # chains from the feature width, each head maps its last width to
        # the slot's radix
        widths = [signature["feature_dim"], *(out for _, out in header["trunk_dims"])]
        for name, shapes in (("trunk_dims", [list(p) for p in zip(widths, widths[1:])]),
                             ("head_dims", [[widths[-1], r] for r in signature["slot_radices"]])):
            if header[name] != shapes:
                raise ValueError(
                    f"checkpoint {path} has a missing or malformed header field {name!r}"
                )
        if header.get("dtype") not in _CHECKPOINT_DTYPES:
            raise ValueError(f"checkpoint {path} has an unknown dtype {header.get('dtype')!r}")
        body = fh.read()
    net = PolicyNet(
        header["trunk_dims"], header["head_dims"], log_z=header["log_z"], dtype=header["dtype"]
    )
    if len(body) != net.flat.nbytes:
        raise ValueError(
            f"checkpoint {path} holds {len(body)} parameter bytes, expected {net.flat.nbytes}"
        )
    net.flat[:] = np.frombuffer(body, dtype=_CHECKPOINT_DTYPES[header["dtype"]])
    if not np.isfinite(net.flat).all():
        raise ValueError(f"checkpoint {path} holds parameters that are not finite")
    return net
