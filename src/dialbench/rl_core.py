"""Shared learner plumbing: a small two-hidden-layer net with exact
backprop, and Adam.

The net has rectifier hidden layers and either a linear head (values) or a
softmax head restricted to legal actions (stochastic policies).  Weights
are float64 throughout; initialization is uniform scaled by fan-in.

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
    """Two rectifier layers and a head over one flat parameter vector.

    ``w1, b1, w2, b2, w3, b3`` are C-contiguous views into ``theta``, in
    ``PARAM_NAMES`` order; update them in place so they stay tied to it.
    """

    def __init__(self, dims: tuple[int, int, int, int], head: str,
                 theta: np.ndarray | None = None):
        if head not in ("linear", "softmax"):
            raise ValueError(f"unknown head {head!r}")
        n_in, h1, h2, n_out = dims
        self.dims = (n_in, h1, h2, n_out)
        self.head = head
        self._shapes = ((n_in, h1), (h1,), (h1, h2), (h2,), (h2, n_out),
                        (n_out,))
        if theta is None:
            theta = np.zeros(sum(math.prod(s) for s in self._shapes))
        self.theta = theta
        self.w1, self.b1, self.w2, self.b2, self.w3, self.b3 = self.split(theta)

    @classmethod
    def from_arrays(cls, arrays: dict[str, np.ndarray], head: str) -> Net2:
        """Pack named arrays, as ``named_params`` gives them, into a new
        parameter vector."""
        n_in, h1 = arrays["w1"].shape
        net = cls((n_in, h1, arrays["w2"].shape[1], arrays["w3"].shape[1]),
                  head)
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
        """Parameters by name; ``Net2.from_arrays(named, head)`` rebuilds."""
        return dict(zip(PARAM_NAMES, self.params()))

    def copy(self) -> Net2:
        return Net2(self.dims, self.head, self.theta.copy())


def init_net(in_dim: int, hidden1: int, hidden2: int, out_dim: int,
             head: str, rng: np.random.Generator) -> Net2:
    net = Net2((in_dim, hidden1, hidden2, out_dim), head)
    for w in (net.w1, net.w2, net.w3):      # biases stay zero
        bound = 1.0 / np.sqrt(w.shape[0])
        w[...] = rng.uniform(-bound, bound, w.shape)
    return net


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


def _net2_backward(net: Net2, x, h1, h2, g_out) -> np.ndarray:
    """Gradients of the two rectifier layers and the linear head, given
    dL/d(pre-head output), in one flat vector laid out like ``theta``."""
    grad = np.empty_like(net.theta)
    g_w1, g_b1, g_w2, g_b2, g_w3, g_b3 = net.split(grad)
    np.matmul(h2.T, g_out, out=g_w3)
    g_out.sum(axis=0, out=g_b3)
    g_h2 = np.where(h2 > 0.0, g_out @ net.w3.T, 0.0)
    np.matmul(h1.T, g_h2, out=g_w2)
    g_h2.sum(axis=0, out=g_b2)
    g_h1 = np.where(h1 > 0.0, g_h2 @ net.w2.T, 0.0)
    np.matmul(x.T, g_h1, out=g_w1)
    g_h1.sum(axis=0, out=g_b1)
    return grad


def backward(net: Net2, cache: ForwardCache,
             grad_out: np.ndarray) -> np.ndarray:
    """Parameter gradients given dL/d(output of forward), as one flat
    vector laid out like ``net.theta`` (``net.split`` gives the arrays).

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
    return _net2_backward(net, cache.x, cache.h1, cache.h2, g_z)


def grad_log_prob(net: Net2, cache: ForwardCache, action: int) -> np.ndarray:
    """Gradient of log pi(action | x) for a softmax-head net, flat like
    ``backward``'s."""
    if net.head != "softmax":
        raise ValueError("grad_log_prob needs a softmax head")
    p = np.atleast_2d(cache.out)
    g_z = -p.copy()
    g_z[0, action] += 1.0
    if cache.mask is not None:
        g_z[0, ~np.atleast_2d(cache.mask)[0].astype(bool)] = 0.0
    g_z = np.ascontiguousarray(g_z)
    return _net2_backward(net, cache.x, cache.h1, cache.h2, g_z)


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
