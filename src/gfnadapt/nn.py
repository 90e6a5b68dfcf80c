"""The policy network's parameters, its forward pass and Adam.

The forward policy is a shared ReLU trunk with one linear logit head per
decision slot; no learning framework is used. Its gradient is written by
gflownet._backward, through the per-slot passes a rollout records.

All parameters live in one contiguous vector of the net's dtype (float32
unless the net is built otherwise): trunk weights, trunk biases, head
weights, head biases, layer by layer and slot by slot. That is the order of
params() and of a checkpoint's parameter bytes, and gradients and Adam's
moments use the same dtype and the same layout, so an optimizer step is a
few whole-vector passes. Reductions stay in float64: log_softmax upcasts
the logits, so log-probabilities, the trajectory-balance residual, log_z
and the loss are float64 whatever the net's dtype.
"""

from __future__ import annotations

import numpy as np
import numpy.typing as npt

FLUSH_EVERY = 64  # Adam steps between flushes of moments about to go subnormal
BETA1, BETA2, EPS = 0.9, 0.999, 1e-8  # Adam's moment decays and denominator guard


def log_softmax(z: np.ndarray) -> np.ndarray:
    """Log-probabilities in float64 whatever z's dtype, so sums and
    normalisations over them keep double precision."""
    z = z.astype(np.float64, copy=False)
    z = z - np.maximum.reduce(z, axis=-1, keepdims=True)
    z -= np.log(np.add.reduce(np.exp(z), axis=-1, keepdims=True))
    return z


class FlatParams:
    """One contiguous vector `flat` of `dtype`, zero-initialised, viewed as the
    trunk weights, trunk biases, head weights and head biases, in that order
    (the order of params(), and of a checkpoint's bytes), plus the scalar
    log_z. Writing through a view writes the vector."""

    def __init__(
        self,
        trunk_shapes: list[tuple[int, int]],
        head_shapes: list[tuple[int, int]],
        log_z: float = 0.0,
        dtype: npt.DTypeLike = np.float32,
    ):
        trunk_shapes = [tuple(s) for s in trunk_shapes]
        head_shapes = [tuple(s) for s in head_shapes]
        shapes = [
            *trunk_shapes, *[(s[1],) for s in trunk_shapes],
            *head_shapes, *[(s[1],) for s in head_shapes],
        ]
        sizes = [int(np.prod(s)) for s in shapes]
        flat = np.zeros(sum(sizes), dtype=dtype)
        ends = np.cumsum(sizes)
        views = [flat[end - size : end].reshape(s) for s, size, end in zip(shapes, sizes, ends)]
        n_trunk, n_head = len(trunk_shapes), len(head_shapes)
        self.flat = flat
        self.trunk_w = tuple(views[:n_trunk])
        self.trunk_b = tuple(views[n_trunk : 2 * n_trunk])
        self.head_w = tuple(views[2 * n_trunk : 2 * n_trunk + n_head])
        self.head_b = tuple(views[2 * n_trunk + n_head :])
        self.log_z = log_z

    @property
    def dtype(self) -> np.dtype:
        return self.flat.dtype

    @property
    def trunk_shapes(self) -> list[tuple[int, int]]:
        return [w.shape for w in self.trunk_w]

    @property
    def head_shapes(self) -> list[tuple[int, int]]:
        return [w.shape for w in self.head_w]

    def params(self) -> list[np.ndarray]:
        return [*self.trunk_w, *self.trunk_b, *self.head_w, *self.head_b]


class PolicyNet(FlatParams):
    """Trunk weights/biases plus per-slot head weights/biases and log_z."""

    def trunk_forward(self, x: np.ndarray) -> list[np.ndarray]:
        """Returns activations [x, h1, ..., hL]."""
        acts = [x]
        for w, b in zip(self.trunk_w, self.trunk_b):
            h = acts[-1] @ w
            h += b
            np.maximum(h, 0.0, out=h)
            acts.append(h)
        return acts

    def logits(self, h: np.ndarray, slot: int) -> np.ndarray:
        return h @ self.head_w[slot] + self.head_b[slot]


class Gradients(FlatParams):
    """Gradients of a PolicyNet's parameters, in the net's flat layout."""

    @classmethod
    def zeros_like(cls, net: PolicyNet) -> "Gradients":
        return cls(net.trunk_shapes, net.head_shapes, dtype=net.dtype)


class Adam:
    """Adaptive-moment optimizer over a net's flat parameter vector plus the
    scalar log_z, with decays BETA1 and BETA2 and guard EPS; moments and
    scratch space are allocated on the first step, in the net's dtype. Each
    step is a few elementwise passes over the whole vector.

    A parameter whose gradient stays exactly zero (a dead ReLU unit) has its
    moments decay by beta each step until they, or the update's product
    lr * m, go subnormal, and subnormal arithmetic is many times slower.
    Every FLUSH_EVERY steps, v below tiny / beta2**FLUSH_EVERY and m below
    tiny / (min(lr, 1) * beta1**FLUSH_EVERY) are set to zero: above those
    floors, FLUSH_EVERY more decays leave v, m and lr * m normal. A flushed
    m would have moved its parameter by less than
    tiny / (eps * beta1**FLUSH_EVERY) per step, about 1e-27 at float32."""

    def __init__(self, lr: float, log_z_lr: float):
        self.lr = lr
        self.log_z_lr = log_z_lr
        self.t = 0
        self.m: np.ndarray | None = None
        self.v: np.ndarray | None = None
        self.scratch: np.ndarray | None = None  # (2, n): numerator, denominator
        self.mz = self.vz = 0.0

    def step(self, net: PolicyNet, grads: Gradients) -> None:
        p, g = net.flat, grads.flat
        if self.m is None:
            self.m = np.zeros_like(p)
            self.v = np.zeros_like(p)
            self.scratch = np.empty((2, p.size), dtype=p.dtype)
        m, v = self.m, self.v
        num, den = self.scratch
        self.t += 1
        bc1 = 1.0 - BETA1**self.t
        bc2 = 1.0 - BETA2**self.t
        # elementwise: m = b1*m + (1-b1)*g; v = b2*v + ((1-b2)*g)*g;
        # p -= (lr*(m/bc1)) / (sqrt(v/bc2) + eps), in this association order
        m *= BETA1
        np.multiply(g, 1.0 - BETA1, out=num)
        m += num
        v *= BETA2
        np.multiply(g, 1.0 - BETA2, out=num)
        num *= g
        v += num
        # once 1 - beta1**t rounds to 1 in the parameters' dtype, m / bc1 is
        # exactly m, so those steps skip the divide
        if p.dtype.type(bc1) != 1.0:
            np.divide(m, bc1, out=num)
            num *= self.lr
        else:
            np.multiply(m, self.lr, out=num)
        np.divide(v, bc2, out=den)
        np.sqrt(den, out=den)
        den += EPS
        num /= den
        p -= num
        if self.t % FLUSH_EVERY == 0:
            tiny = np.finfo(p.dtype).tiny
            floors = (
                tiny / (min(self.lr, 1.0) * BETA1**FLUSH_EVERY),
                tiny / BETA2**FLUSH_EVERY,
            )
            for moment, floor in zip((m, v), floors):
                np.abs(moment, out=num)
                moment[num < floor] = 0.0
        self.mz = BETA1 * self.mz + (1.0 - BETA1) * grads.log_z
        self.vz = BETA2 * self.vz + (1.0 - BETA2) * grads.log_z**2
        net.log_z = float(
            net.log_z - self.log_z_lr * (self.mz / bc1) / (np.sqrt(self.vz / bc2) + EPS)
        )
