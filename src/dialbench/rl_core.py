"""Shared learner plumbing: a small two-hidden-layer net with exact
backprop, and Adam.

The net has rectifier hidden layers and a linear output layer; a learner
that wants probabilities applies ``masked_softmax`` to the outputs it
reads as logits, and ``grad_log_prob`` differentiates the log of one of
them.  Weights are float64 throughout; initialization is uniform scaled
by fan-in.

A net keeps all its parameters in one flat vector, and gradients come back
as one flat vector with the same layout, so Adam and the natural-gradient
step update a whole net with a few vector operations.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# Order of the parameters inside the flat vector, gradients and checkpoints.
PARAM_NAMES = ("w1", "b1", "w2", "b2", "w3", "b3")


class Net2:
    """Two rectifier layers and a linear output layer over one flat
    parameter vector.

    ``w1, b1, w2, b2, w3, b3`` are C-contiguous views into ``theta``, in
    ``PARAM_NAMES`` order; update them in place so they stay tied to it.
    """

    def __init__(self, dims: tuple[int, int, int, int],
                 theta: np.ndarray | None = None):
        n_in, h1, h2, n_out = dims
        self.dims = (n_in, h1, h2, n_out)
        self._shapes = ((n_in, h1), (h1,), (h1, h2), (h2,), (h2, n_out),
                        (n_out,))
        if theta is None:
            theta = np.zeros(sum(math.prod(s) for s in self._shapes))
        self.theta = theta
        self.w1, self.b1, self.w2, self.b2, self.w3, self.b3 = self.split(theta)

    @classmethod
    def from_arrays(cls, arrays: dict[str, np.ndarray]) -> Net2:
        """Pack named arrays, as ``named_params`` gives them, into a new
        parameter vector."""
        n_in, h1 = arrays["w1"].shape
        net = cls((n_in, h1, arrays["w2"].shape[1], arrays["w3"].shape[1]))
        for name, view in net.named_params().items():
            if arrays[name].shape != view.shape:
                raise ValueError(f"{name} has shape {arrays[name].shape}, "
                                 f"expected {view.shape}")
            view[...] = arrays[name]
        return net

    def split(self, flat: np.ndarray) -> list[np.ndarray]:
        """Views of a vector laid out like ``theta``, one per parameter."""
        views, offset = [], 0
        for shape in self._shapes:
            size = math.prod(shape)
            views.append(flat[offset:offset + size].reshape(shape))
            offset += size
        return views

    def params(self) -> list[np.ndarray]:
        return [self.w1, self.b1, self.w2, self.b2, self.w3, self.b3]

    def named_params(self) -> dict[str, np.ndarray]:
        """Parameters by name; ``Net2.from_arrays(named)`` rebuilds."""
        return dict(zip(PARAM_NAMES, self.params()))

    def copy(self) -> Net2:
        return Net2(self.dims, self.theta.copy())


def init_net(in_dim: int, hidden1: int, hidden2: int, out_dim: int,
             rng: np.random.Generator) -> Net2:
    net = Net2((in_dim, hidden1, hidden2, out_dim))
    for w in (net.w1, net.w2, net.w3):      # biases stay zero
        bound = 1.0 / np.sqrt(w.shape[0])
        w[...] = rng.uniform(-bound, bound, w.shape)
    return net


@dataclass
class ForwardCache:
    x: np.ndarray
    h1: np.ndarray
    h2: np.ndarray
    z: np.ndarray                 # outputs, one row per input
    out: np.ndarray               # z, or its one row for a single input


def masked_softmax(z: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """Softmax over legal entries, one row per row of ``z``; masked-out
    entries get probability 0 (``exp(-inf)``).  A single mask row serves
    every row."""
    shifted = np.where(np.asarray(mask, dtype=bool), np.atleast_2d(z), -np.inf)
    e = np.exp(shifted - shifted.max(axis=1, keepdims=True))
    return e / e.sum(axis=1, keepdims=True)


def forward(net: Net2, x: np.ndarray) -> np.ndarray:
    return forward_cache(net, x).out


def forward_cache(net: Net2, x: np.ndarray) -> ForwardCache:
    x = np.asarray(x, dtype=np.float64)
    xb = np.ascontiguousarray(np.atleast_2d(x))
    h1 = np.maximum(xb @ net.w1 + net.b1, 0.0)
    h2 = np.maximum(h1 @ net.w2 + net.b2, 0.0)
    z = h2 @ net.w3 + net.b3
    return ForwardCache(x=xb, h1=h1, h2=h2, z=z,
                        out=z[0] if x.ndim == 1 else z)


def backward(net: Net2, cache: ForwardCache,
             grad_out: np.ndarray) -> np.ndarray:
    """Parameter gradients given dL/d(outputs), as one flat vector laid
    out like ``net.theta`` (``net.split`` gives the arrays)."""
    g_z = np.ascontiguousarray(
        np.atleast_2d(np.asarray(grad_out, dtype=np.float64)))
    h1, h2 = cache.h1, cache.h2
    grad = np.empty_like(net.theta)
    g_w1, g_b1, g_w2, g_b2, g_w3, g_b3 = net.split(grad)
    np.matmul(h2.T, g_z, out=g_w3)
    g_z.sum(axis=0, out=g_b3)
    g_h2 = np.where(h2 > 0.0, g_z @ net.w3.T, 0.0)
    np.matmul(h1.T, g_h2, out=g_w2)
    g_h2.sum(axis=0, out=g_b2)
    g_h1 = np.where(h1 > 0.0, g_h2 @ net.w2.T, 0.0)
    np.matmul(cache.x.T, g_h1, out=g_w1)
    g_h1.sum(axis=0, out=g_b1)
    return grad


def grad_log_prob(net: Net2, cache: ForwardCache, probs: np.ndarray,
                  mask: np.ndarray, action: int) -> np.ndarray:
    """Gradient of log pi(action | x), flat like ``backward``'s, for one
    input whose outputs are logits: ``probs`` is
    ``masked_softmax(cache.z, mask)``.  Masked-out logits get exactly
    zero gradient."""
    g_z = -np.atleast_2d(probs)
    g_z[0, action] += 1.0
    g_z[0, ~np.asarray(mask, dtype=bool)] = 0.0
    return backward(net, cache, g_z)


@dataclass
class AdamState:
    """Moments for one parameter vector, plus two scratch vectors of its
    size so that a step allocates nothing."""

    m: np.ndarray
    v: np.ndarray
    scratch: tuple[np.ndarray, np.ndarray]
    lr: float = 0.001
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    t: int = 0


def adam_init(theta: np.ndarray, lr: float = 0.001) -> AdamState:
    return AdamState(m=np.zeros_like(theta), v=np.zeros_like(theta),
                     scratch=(np.empty_like(theta), np.empty_like(theta)),
                     lr=lr)


def adam_step(state: AdamState, theta: np.ndarray, grad: np.ndarray) -> None:
    """One Adam update of ``theta``, in place (Kingma & Ba 2015).

    One pass of in-place operations over the whole vector.  Their order
    is that of ``theta -= lr * m_hat / (sqrt(v_hat) + eps)`` written out
    per operation, so results are the same bits as that expression's.
    """
    state.t += 1
    lr, beta1, beta2, eps, t = (state.lr, state.beta1, state.beta2,
                                state.eps, state.t)
    m, v = state.m, state.v
    a, b = state.scratch
    m *= beta1
    np.multiply(1.0 - beta1, grad, out=a)
    m += a
    v *= beta2
    np.multiply(1.0 - beta2, grad, out=a)
    a *= grad
    v += a
    np.divide(m, 1.0 - beta1**t, out=a)      # m_hat
    np.divide(v, 1.0 - beta2**t, out=b)      # v_hat
    np.sqrt(b, out=b)
    b += eps
    np.multiply(lr, a, out=a)
    a /= b
    theta -= a
