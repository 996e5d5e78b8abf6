"""Shared learner plumbing: a small two-hidden-layer net with exact
backprop, Adam, and the kernel used by the Gaussian-process policy.

The net has rectifier hidden layers and either a linear head (values) or a
softmax head restricted to legal actions (stochastic policies).  Weights
are float64 throughout; initialization is uniform scaled by fan-in.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


@dataclass
class Net2:
    w1: np.ndarray
    b1: np.ndarray
    w2: np.ndarray
    b2: np.ndarray
    w3: np.ndarray
    b3: np.ndarray
    head: str  # "linear" or "softmax"

    def params(self) -> list[np.ndarray]:
        return [self.w1, self.b1, self.w2, self.b2, self.w3, self.b3]

    def named_params(self) -> dict[str, np.ndarray]:
        """Parameters by field name; ``Net2(**named, head=...)`` rebuilds."""
        return dict(zip(("w1", "b1", "w2", "b2", "w3", "b3"), self.params()))

    def copy(self) -> "Net2":
        return Net2(*(p.copy() for p in self.params()), head=self.head)

    @property
    def dims(self) -> tuple[int, int, int, int]:
        return (
            self.w1.shape[0],
            self.w1.shape[1],
            self.w2.shape[1],
            self.w3.shape[1],
        )


def init_net(in_dim: int, hidden1: int, hidden2: int, out_dim: int,
             head: str, rng: np.random.Generator) -> Net2:
    if head not in ("linear", "softmax"):
        raise ValueError(f"unknown head {head!r}")

    def layer(n_in: int, n_out: int) -> tuple[np.ndarray, np.ndarray]:
        bound = 1.0 / np.sqrt(n_in)
        return rng.uniform(-bound, bound, (n_in, n_out)), np.zeros(n_out)

    w1, b1 = layer(in_dim, hidden1)
    w2, b2 = layer(hidden1, hidden2)
    w3, b3 = layer(hidden2, out_dim)
    return Net2(w1, b1, w2, b2, w3, b3, head=head)


@dataclass
class ForwardCache:
    x: np.ndarray
    h1: np.ndarray
    h2: np.ndarray
    z: np.ndarray                 # pre-head output
    out: np.ndarray
    mask: np.ndarray | None
    squeeze: bool


def masked_softmax(z: np.ndarray, mask: np.ndarray | None) -> np.ndarray:
    """Softmax over legal entries; masked-out entries get probability 0."""
    z = np.atleast_2d(z)
    if mask is None:
        legal = np.ones(z.shape, dtype=bool)
    else:
        legal = np.atleast_2d(mask).astype(bool)
        if legal.shape[0] == 1 and z.shape[0] > 1:
            legal = np.broadcast_to(legal, z.shape)
    shifted = np.where(legal, z, -np.inf)
    shifted = shifted - shifted.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    e = np.where(legal, e, 0.0)
    return e / e.sum(axis=1, keepdims=True)


def forward(net: Net2, x: np.ndarray, mask: np.ndarray | None = None) -> np.ndarray:
    return forward_cache(net, x, mask).out


def forward_cache(net: Net2, x: np.ndarray,
                  mask: np.ndarray | None = None) -> ForwardCache:
    x = np.asarray(x, dtype=np.float64)
    squeeze = x.ndim == 1
    xb = np.ascontiguousarray(np.atleast_2d(x))
    h1 = np.maximum(xb @ net.w1 + net.b1, 0.0)
    h2 = np.maximum(h1 @ net.w2 + net.b2, 0.0)
    z = h2 @ net.w3 + net.b3
    if net.head == "softmax":
        out = masked_softmax(z, mask)
    else:
        out = z
    if squeeze:
        out = out[0]
    return ForwardCache(x=xb, h1=h1, h2=h2, z=z, out=out, mask=mask,
                        squeeze=squeeze)


def _net2_backward(w2, w3, x, h1, h2, g_out) -> list[np.ndarray]:
    """Gradients of the two rectifier layers and the linear head, given
    dL/d(pre-head output)."""
    g_w3 = h2.T @ g_out
    g_b3 = g_out.sum(axis=0)
    g_h2 = np.where(h2 > 0.0, g_out @ w3.T, 0.0)
    g_w2 = h1.T @ g_h2
    g_b2 = g_h2.sum(axis=0)
    g_h1 = np.where(h1 > 0.0, g_h2 @ w2.T, 0.0)
    g_w1 = x.T @ g_h1
    g_b1 = g_h1.sum(axis=0)
    return [g_w1, g_b1, g_w2, g_b2, g_w3, g_b3]


def backward(net: Net2, cache: ForwardCache,
             grad_out: np.ndarray) -> list[np.ndarray]:
    """Parameter gradients given dL/d(output of forward).

    For the softmax head grad_out is taken with respect to the
    probabilities; the softmax Jacobian is applied here and masked-out
    logits receive exactly zero gradient.
    """
    g = np.atleast_2d(np.asarray(grad_out, dtype=np.float64))
    if net.head == "softmax":
        p = np.atleast_2d(cache.out)
        inner = (g * p).sum(axis=1, keepdims=True)
        g_z = p * (g - inner)
    else:
        g_z = g
    g_z = np.ascontiguousarray(g_z)
    return _net2_backward(net.w2, net.w3, cache.x, cache.h1, cache.h2, g_z)


def grad_log_prob(net: Net2, cache: ForwardCache, action: int) -> list[np.ndarray]:
    """Gradients of log pi(action | x) for a softmax-head net."""
    if net.head != "softmax":
        raise ValueError("grad_log_prob needs a softmax head")
    p = np.atleast_2d(cache.out)
    g_z = -p.copy()
    g_z[0, action] += 1.0
    if cache.mask is not None:
        g_z[0, ~np.atleast_2d(cache.mask)[0].astype(bool)] = 0.0
    g_z = np.ascontiguousarray(g_z)
    return _net2_backward(net.w2, net.w3, cache.x, cache.h1, cache.h2, g_z)


@dataclass
class AdamState:
    lr: float = 0.001
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    t: int = 0
    m: list[np.ndarray] = field(default_factory=list)
    v: list[np.ndarray] = field(default_factory=list)


def adam_init(params: list[np.ndarray], lr: float = 0.001) -> AdamState:
    return AdamState(
        lr=lr,
        m=[np.zeros_like(p) for p in params],
        v=[np.zeros_like(p) for p in params],
    )


def adam_step(state: AdamState, params: list[np.ndarray],
              grads: list[np.ndarray]) -> None:
    """One Adam update, in place."""
    state.t += 1
    lr, beta1, beta2, eps, t = (state.lr, state.beta1, state.beta2,
                                state.eps, state.t)
    for p, g, m, v in zip(params, grads, state.m, state.v):
        g = np.asarray(g, dtype=np.float64)
        m *= beta1
        m += (1.0 - beta1) * g
        v *= beta2
        v += (1.0 - beta2) * g * g
        m_hat = m / (1.0 - beta1**t)
        v_hat = v / (1.0 - beta2**t)
        p -= lr * m_hat / (np.sqrt(v_hat) + eps)


@dataclass(frozen=True)
class KernelSpec:
    """Linear kernel on the state crossed with a delta kernel on actions."""

    state_kernel: str = "linear"
    action_kernel: str = "delta"

    def __post_init__(self) -> None:
        if self.state_kernel != "linear" or self.action_kernel != "delta":
            raise ValueError("only linear x delta kernels are supported")


def kernel_value(spec: KernelSpec, x1: np.ndarray, a1: int,
                 x2: np.ndarray, a2: int) -> float:
    if a1 != a2:
        return 0.0
    return float(np.dot(x1, x2))


def gram(spec: KernelSpec, points: list[tuple[np.ndarray, int]]) -> np.ndarray:
    """Symmetric positive semi-definite kernel matrix of the points."""
    n = len(points)
    if n == 0:
        return np.zeros((0, 0))
    states = np.stack([x for x, _ in points])
    actions = np.array([a for _, a in points])
    g = states @ states.T
    same = actions[:, None] == actions[None, :]
    return np.where(same, g, 0.0)
