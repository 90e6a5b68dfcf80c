"""Forward-policy training with the trajectory balance objective.

Because the construction graph is a tree, every terminal state has a unique
trajectory and the backward policy is deterministic (log P_B = 0), so the
squared residual is (log_z + log P_F(tau) - log R(x))^2. The policy is a
shared MLP trunk with one logit head per decision slot. The rollout is the
policy's only forward path: training backpropagates (see nn.py) through the
per-slot passes the rollout recorded while sampling.
"""

from __future__ import annotations

import json
import struct
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .nn import Adam, Gradients, PolicyNet, log_softmax
from .rewards import TerminalScorer
from .space import SpaceSpec, StateKey

CHECKPOINT_VERSION = 2


@dataclass(frozen=True)
class TrainConfig:
    steps: int = 1000
    batch: int = 16
    lr: float = 5e-4
    log_z_lr: float = 0.1
    hidden: tuple[int, ...] = (256, 256, 256)
    explore_eps: float = 0.05  # decayed linearly to 0 over the first half
    budget: int | None = None  # cap on distinct keys requested; None = unlimited


def feature_dim(space: SpaceSpec) -> int:
    return sum(r + 1 for r in space.slot_radices) + space.slots


def encode_batch(space: SpaceSpec, keys: list[StateKey]) -> np.ndarray:
    """One-hot of each slot's choice (with an undecided category) plus a
    one-hot of the current decision slot, one row per non-terminal key."""
    radices = space.slot_radices
    offsets = np.cumsum([0] + [r + 1 for r in radices])
    slot_base = offsets[-1]
    out = np.zeros((len(keys), slot_base + space.slots))
    for i, key in enumerate(keys):
        for t in range(space.slots):
            if t < len(key):
                out[i, offsets[t] + 1 + key[t]] = 1.0
            else:
                out[i, offsets[t]] = 1.0  # undecided
        out[i, slot_base + len(key)] = 1.0
    return out


def new_policy(space: SpaceSpec, cfg: TrainConfig, rng: np.random.Generator) -> PolicyNet:
    return PolicyNet.init(
        feature_dim(space), list(space.slot_radices), hidden=cfg.hidden, rng=rng
    )


class SlotPass(NamedTuple):
    """One decision slot of a rollout, as tb_loss_and_grads consumes it."""

    acts: list[np.ndarray]  # trunk activations [x, h1, ..., hL]
    logp: np.ndarray        # pure-policy action log-probs, (n, radix)
    chosen: np.ndarray      # sampled action per trajectory


def slot_forward(
    net: PolicyNet, space: SpaceSpec, prefixes: list[StateKey], slot: int
) -> tuple[list[np.ndarray], np.ndarray]:
    """Trunk activations and action log-probs at `slot` for length-`slot`
    prefixes."""
    acts = net.trunk_forward(encode_batch(space, prefixes))
    return acts, log_softmax(net.logits(acts[-1], slot))


def _rollout(
    net: PolicyNet,
    space: SpaceSpec,
    n: int,
    rng: np.random.Generator,
    explore_eps: float,
    keep_caches: bool = False,
) -> tuple[list[StateKey], list[SlotPass]]:
    """Sample n trajectories in lockstep; actions drawn from the eps-mixed
    policy. With keep_caches, each slot's pass is returned for the TB
    gradient; otherwise the list is empty, which bounds memory for large n."""
    keys: list[StateKey] = [() for _ in range(n)]
    passes = []
    for t in range(space.slots):
        acts, logp = slot_forward(net, space, keys, t)
        probs = np.exp(logp)
        n_actions = probs.shape[1]
        mixed = (1.0 - explore_eps) * probs + explore_eps / n_actions
        u = rng.random((n, 1))
        chosen = (mixed.cumsum(axis=1) < u).sum(axis=1).clip(max=n_actions - 1)
        keys = [k + (int(a),) for k, a in zip(keys, chosen)]
        if keep_caches:
            passes.append(SlotPass(acts, logp, chosen))
    return keys, passes


def tb_loss_and_grads(
    net: PolicyNet, passes: list[SlotPass], log_rewards: np.ndarray
) -> tuple[float, Gradients]:
    """TB objective of the trajectories whose slot passes are given, and its
    gradient by backpropagation through those passes."""
    n = len(log_rewards)
    rows = np.arange(n)
    sum_logp = np.zeros(n)
    for p in passes:
        sum_logp += p.logp[rows, p.chosen]
    residual = net.log_z + sum_logp - log_rewards
    loss = float(np.mean(residual**2))
    grads = Gradients.zeros_like(net)
    dlogp = 2.0 * residual / n  # d loss / d (chosen log-prob), per trajectory
    for t, p in enumerate(passes):
        dlogits = -np.exp(p.logp) * dlogp[:, None]
        dlogits[rows, p.chosen] += dlogp
        net.backward_slot(p.acts, t, dlogits, grads)
    grads.log_z = float(np.mean(2.0 * residual))
    return loss, grads


@dataclass
class TrainResult:
    net: PolicyNet
    log_rows: list[tuple[int, float, float, int]] = field(default_factory=list)
    evaluated: list[tuple[StateKey, float]] = field(default_factory=list)
    stopped_early: bool = False


def train(
    space: SpaceSpec,
    scorer: TerminalScorer,
    cfg: TrainConfig,
    seed: int,
) -> TrainResult:
    """Trajectory-balance training loop with an eps-mixed sampler."""
    rng = np.random.default_rng(seed)
    net = new_policy(space, cfg, rng)
    opt = Adam(lr=cfg.lr, log_z_lr=cfg.log_z_lr)
    seen: set[StateKey] = set()
    rows = []
    evaluated: list[tuple[StateKey, float]] = []
    stopped = False
    half = max(1, cfg.steps // 2)
    for step in range(1, cfg.steps + 1):
        eps = cfg.explore_eps * max(0.0, 1.0 - (step - 1) / half)
        keys, passes = _rollout(net, space, cfg.batch, rng, eps, keep_caches=True)
        records = scorer.score(keys)
        log_rewards = np.log([rec.reward for rec in records])
        evaluated.extend((k, rec.aggregate) for k, rec in zip(keys, records))
        seen.update(keys)
        loss, grads = tb_loss_and_grads(net, passes, log_rewards)
        if not np.isfinite(loss):
            raise RuntimeError(f"trajectory balance loss diverged at step {step}")
        opt.step(net, grads)
        rows.append((step, loss, net.log_z, len(seen)))
        # the run's own distinct keys, so the stop does not depend on what
        # the cache already held
        if cfg.budget is not None and len(seen) >= cfg.budget:
            stopped = True
            break
    return TrainResult(net=net, log_rows=rows, evaluated=evaluated, stopped_early=stopped)


def exact_terminal_distribution(
    net: PolicyNet, space: SpaceSpec, cap: int = 100_000
) -> np.ndarray:
    """Terminal probabilities in lexicographic enumeration order."""
    count = space.terminal_count()
    if count > cap:
        raise ValueError(f"space has {count} terminals, exceeding cap {cap}")
    prefixes: list[StateKey] = [()]
    logps = np.zeros(1)
    for t in range(space.slots):
        feats = encode_batch(space, prefixes)
        logp = net.log_probs(feats, t)
        r = logp.shape[1]
        logps = (logps[:, None] + logp).ravel()
        prefixes = [p + (a,) for p in prefixes for a in range(r)]
    return np.exp(logps)


def sample_terminals(
    net: PolicyNet, space: SpaceSpec, n: int, rng: np.random.Generator
) -> list[StateKey]:
    if n < 0:
        raise ValueError("n must be >= 0")
    if n == 0:
        return []
    keys, _ = _rollout(net, space, n, rng, explore_eps=0.0)
    return keys


# ---------------------------------------------------------------------------
# Checkpoints: length-prefixed JSON header followed by raw float64 arrays in
# a fixed order. Deterministic bytes for identical models. The header carries
# a signature of the space and run the net was trained for; loading refuses a
# checkpoint whose signature differs from the caller's.


def checkpoint_signature(space: SpaceSpec, run_hash: str) -> dict:
    return {
        "slot_radices": list(space.slot_radices),
        "feature_dim": feature_dim(space),
        "run_hash": run_hash,
    }


def save_checkpoint(path, net: PolicyNet, signature: dict, rng_state: dict | None = None) -> None:
    header = {
        "version": CHECKPOINT_VERSION,
        "signature": signature,
        "trunk_dims": [list(w.shape) for w in net.trunk_w],
        "head_dims": [list(w.shape) for w in net.head_w],
        "log_z": net.log_z,
        "rng_state": rng_state,
    }
    blob = json.dumps(header, sort_keys=True).encode()
    with open(path, "wb") as fh:
        fh.write(struct.pack("<I", len(blob)))
        fh.write(blob)
        for arr in net.params():
            fh.write(np.ascontiguousarray(arr, dtype="<f8").tobytes())


def load_checkpoint(path, signature: dict) -> tuple[PolicyNet, dict | None]:
    with open(path, "rb") as fh:
        try:
            (hlen,) = struct.unpack("<I", fh.read(4))
            header = json.loads(fh.read(hlen))
        except (struct.error, ValueError) as exc:
            raise ValueError(f"checkpoint {path} has a corrupt header") from exc
        version = header.get("version") if isinstance(header, dict) else None
        if version != CHECKPOINT_VERSION:
            raise ValueError(f"checkpoint {path} has unsupported version {version}")
        stored = header["signature"]
        wrong = [name for name in signature if stored.get(name) != signature[name]]
        if wrong:
            raise ValueError(f"checkpoint {path} was written for another run: " + "; ".join(
                f"{name} is {stored.get(name)!r}, expected {signature[name]!r}"
                for name in wrong
            ))

        def read(shape):
            n = int(np.prod(shape))
            return np.frombuffer(fh.read(8 * n), dtype="<f8").reshape(shape).copy()

        trunk_w = [read(s) for s in header["trunk_dims"]]
        trunk_b = [read([s[1]]) for s in header["trunk_dims"]]
        head_w = [read(s) for s in header["head_dims"]]
        head_b = [read([s[1]]) for s in header["head_dims"]]
    net = PolicyNet(trunk_w, trunk_b, head_w, head_b, log_z=header["log_z"])
    return net, header.get("rng_state")
