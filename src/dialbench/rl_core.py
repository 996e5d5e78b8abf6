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

A learner that runs the same batch shape every step can keep its buffers:
``forward_cache`` fills a ``ForwardCache`` passed to it when the row count
and widths match, and ``backward`` writes into an ``out`` vector passed to
it.  A cache or ``out`` passed in is overwritten, and the arrays returned
alias it, so they hold only until the next call that is given the same
buffer.  Without them, each call returns fresh arrays.
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
        """Parameters by name, as views into ``theta``."""
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
    """One forward pass's inputs and activations, and room for the
    hidden-layer gradients of the backward pass through it."""

    x: np.ndarray
    h1: np.ndarray
    h2: np.ndarray
    z: np.ndarray                 # outputs, one row per input
    out: np.ndarray               # z, or its one row for a single input
    g_h1: np.ndarray              # dL/dh1 and dL/dh2, written by backward
    g_h2: np.ndarray


def masked_softmax(z: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """Softmax over legal entries, one row per row of ``z``; masked-out
    entries get probability 0 (``exp(-inf)``).  A single mask row serves
    every row."""
    shifted = np.where(np.asarray(mask, dtype=bool), np.atleast_2d(z), -np.inf)
    e = np.exp(shifted - shifted.max(axis=1, keepdims=True))
    return e / e.sum(axis=1, keepdims=True)


def forward(net: Net2, x: np.ndarray) -> np.ndarray:
    return forward_cache(net, x).out


def forward_cache(net: Net2, x: np.ndarray,
                  cache: ForwardCache | None = None) -> ForwardCache:
    """Run ``net`` on ``x``, one input or one per row, into ``cache`` if
    it fits that many rows of this net, else into a new one; returns the
    cache filled.  ``cache.x`` is ``x`` itself when ``x`` is already a
    C-contiguous float64 matrix."""
    x = np.asarray(x, dtype=np.float64)
    xb = np.ascontiguousarray(np.atleast_2d(x))
    _, h1, h2, n_out = net.dims
    rows = len(xb)
    if cache is None or (cache.h1.shape, cache.h2.shape, cache.z.shape) != (
            (rows, h1), (rows, h2), (rows, n_out)):
        z = np.empty((rows, n_out))
        cache = ForwardCache(x=xb, h1=np.empty((rows, h1)),
                             h2=np.empty((rows, h2)), z=z, out=z,
                             g_h1=np.empty((rows, h1)),
                             g_h2=np.empty((rows, h2)))
    np.matmul(xb, net.w1, out=cache.h1)
    cache.h1 += net.b1
    np.maximum(cache.h1, 0.0, out=cache.h1)
    np.matmul(cache.h1, net.w2, out=cache.h2)
    cache.h2 += net.b2
    np.maximum(cache.h2, 0.0, out=cache.h2)
    np.matmul(cache.h2, net.w3, out=cache.z)
    cache.z += net.b3
    cache.x = xb
    cache.out = cache.z[0] if x.ndim == 1 else cache.z
    return cache


def backward(net: Net2, cache: ForwardCache, grad_out: np.ndarray,
             out: np.ndarray | None = None) -> np.ndarray:
    """Parameter gradients given dL/d(outputs), as one flat vector laid
    out like ``net.theta`` (``net.split`` gives the arrays), written into
    ``out`` when it is given."""
    g_z = np.ascontiguousarray(
        np.atleast_2d(np.asarray(grad_out, dtype=np.float64)))
    h1, h2, g_h1, g_h2 = cache.h1, cache.h2, cache.g_h1, cache.g_h2
    grad = np.empty_like(net.theta) if out is None else out
    g_w1, g_b1, g_w2, g_b2, g_w3, g_b3 = net.split(grad)
    np.matmul(h2.T, g_z, out=g_w3)
    g_z.sum(axis=0, out=g_b3)
    # rectifier: the gradient passes where h > 0 and is 0 elsewhere (NaN too)
    np.matmul(g_z, net.w3.T, out=g_h2)
    np.copyto(g_h2, 0.0, where=~(h2 > 0.0))
    np.matmul(h1.T, g_h2, out=g_w2)
    g_h2.sum(axis=0, out=g_b2)
    np.matmul(g_h2, net.w2.T, out=g_h1)
    np.copyto(g_h1, 0.0, where=~(h1 > 0.0))
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
    A bias correction that has rounded to 1.0 (from t = 356 for beta1,
    t = 37412 for beta2) is skipped: ``x / 1.0`` is ``x`` for every double.
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
    m_corr, v_corr = 1.0 - beta1**t, 1.0 - beta2**t
    m_hat, v_hat = m, v
    if m_corr != 1.0:
        m_hat = np.divide(m, m_corr, out=a)
    if v_corr != 1.0:
        v_hat = np.divide(v, v_corr, out=b)
    np.sqrt(v_hat, out=b)
    b += eps
    np.multiply(lr, m_hat, out=a)
    a /= b
    theta -= a
