"""Minimal dense network with manual reverse-mode gradients.

The forward policy is a shared ReLU trunk with one linear logit head per
decision slot. Differentiation is implemented directly for this fixed
architecture; no learning framework is used.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


def _fan_in_uniform(rng: np.random.Generator, n_in: int, n_out: int) -> np.ndarray:
    bound = 1.0 / np.sqrt(n_in)
    return rng.uniform(-bound, bound, size=(n_in, n_out))


def log_softmax(z: np.ndarray) -> np.ndarray:
    z = z - z.max(axis=-1, keepdims=True)
    return z - np.log(np.exp(z).sum(axis=-1, keepdims=True))


@dataclass
class PolicyNet:
    """Trunk weights/biases plus per-slot head weights/biases and log_z."""

    trunk_w: list[np.ndarray]
    trunk_b: list[np.ndarray]
    head_w: list[np.ndarray]
    head_b: list[np.ndarray]
    log_z: float = 0.0

    @classmethod
    def init(
        cls,
        in_dim: int,
        head_dims: list[int],
        hidden: tuple[int, ...] = (256, 256, 256),
        rng: np.random.Generator | None = None,
    ) -> "PolicyNet":
        rng = rng or np.random.default_rng(0)
        dims = (in_dim, *hidden)
        trunk_w = [_fan_in_uniform(rng, dims[i], dims[i + 1]) for i in range(len(hidden))]
        trunk_b = [np.zeros(d) for d in hidden]
        # heads start at zero so the initial policy is uniform
        head_w = [np.zeros((hidden[-1], d)) for d in head_dims]
        head_b = [np.zeros(d) for d in head_dims]
        return cls(trunk_w, trunk_b, head_w, head_b, log_z=0.0)

    @property
    def head_dims(self) -> list[int]:
        return [b.shape[0] for b in self.head_b]

    def params(self) -> list[np.ndarray]:
        return [*self.trunk_w, *self.trunk_b, *self.head_w, *self.head_b]

    # -- forward / backward -------------------------------------------------

    def trunk_forward(self, x: np.ndarray) -> list[np.ndarray]:
        """Returns activations [x, h1, ..., hL]."""
        acts = [x]
        h = x
        for w, b in zip(self.trunk_w, self.trunk_b):
            h = np.maximum(h @ w + b, 0.0)
            acts.append(h)
        return acts

    def logits(self, h: np.ndarray, slot: int) -> np.ndarray:
        return h @ self.head_w[slot] + self.head_b[slot]

    def log_probs(self, x: np.ndarray, slot: int) -> np.ndarray:
        """Log-softmax over the slot's actions for a batch of features."""
        return log_softmax(self.logits(self.trunk_forward(x)[-1], slot))

    def backward_slot(
        self,
        acts: list[np.ndarray],
        slot: int,
        dlogits: np.ndarray,
        grads: "Gradients",
    ) -> None:
        """Accumulate gradients for one slot's batched forward pass."""
        h_last = acts[-1]
        grads.head_w[slot] += h_last.T @ dlogits
        grads.head_b[slot] += dlogits.sum(axis=0)
        dh = dlogits @ self.head_w[slot].T
        for i in range(len(self.trunk_w) - 1, -1, -1):
            dh = dh * (acts[i + 1] > 0.0)
            grads.trunk_w[i] += acts[i].T @ dh
            grads.trunk_b[i] += dh.sum(axis=0)
            dh = dh @ self.trunk_w[i].T


@dataclass
class Gradients:
    trunk_w: list[np.ndarray]
    trunk_b: list[np.ndarray]
    head_w: list[np.ndarray]
    head_b: list[np.ndarray]
    log_z: float = 0.0

    @classmethod
    def zeros_like(cls, net: PolicyNet) -> "Gradients":
        return cls(
            [np.zeros_like(w) for w in net.trunk_w],
            [np.zeros_like(b) for b in net.trunk_b],
            [np.zeros_like(w) for w in net.head_w],
            [np.zeros_like(b) for b in net.head_b],
        )

    def params(self) -> list[np.ndarray]:
        return [*self.trunk_w, *self.trunk_b, *self.head_w, *self.head_b]


@dataclass
class Adam:
    """Adaptive-moment optimizer over a list of arrays plus the scalar log_z."""

    lr: float = 5e-4
    log_z_lr: float = 0.1
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    _t: int = 0
    _m: list[np.ndarray] = field(default_factory=list)
    _v: list[np.ndarray] = field(default_factory=list)
    _mz: float = 0.0
    _vz: float = 0.0

    def step(self, net: PolicyNet, grads: Gradients) -> None:
        params = net.params()
        gs = grads.params()
        if not self._m:
            self._m = [np.zeros_like(p) for p in params]
            self._v = [np.zeros_like(p) for p in params]
        self._t += 1
        bc1 = 1.0 - self.beta1**self._t
        bc2 = 1.0 - self.beta2**self._t
        for p, g, m, v in zip(params, gs, self._m, self._v):
            m *= self.beta1
            m += (1.0 - self.beta1) * g
            v *= self.beta2
            v += (1.0 - self.beta2) * g * g
            p -= self.lr * (m / bc1) / (np.sqrt(v / bc2) + self.eps)
        self._mz = self.beta1 * self._mz + (1.0 - self.beta1) * grads.log_z
        self._vz = self.beta2 * self._vz + (1.0 - self.beta2) * grads.log_z**2
        net.log_z = float(
            net.log_z
            - self.log_z_lr * (self._mz / bc1) / (np.sqrt(self._vz / bc2) + self.eps)
        )
