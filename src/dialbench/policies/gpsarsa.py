"""Gaussian-process SARSA over the linear-state x delta-action kernel.

Because the action kernel is a delta, the joint Gram matrix is block
diagonal by action, so each action keeps its own dictionary.  Per block we
store the points, an aggregated regression target per point (bootstrapped
SARSA target, observations of near-duplicate points are merged), and
maintained inverses of

    A = G + sigma2 * diag(1 / n_i)      (posterior, noise shrinks with n_i)
    K = G + jitter * I                  (novelty test)

updated in O(n^2) per event, as in Engel et al. (2005): an added point
borders both inverses, a removed point is the Schur-complement downdate
that undoes the border, and a raised count changes one diagonal entry of
A, which Sherman-Morrison absorbs.  Only the ``refresh_every`` cadence, a
restore and a vanishing Sherman-Morrison denominator invert from scratch;
the cadence caps the drift of the kept inverses.  The posterior at (x, a)
is the standard GP regression posterior of block a, which is what the
dense-solve oracle in the test suite checks against.

A new point only enters its dictionary when its kernel residual exceeds
nu; when the global budget is full, the most redundant point (largest
diagonal of K^-1, the new point's bordered update included) is merged into
its nearest neighbour: it is removed and its targets and count are
credited to that neighbour.  It is chosen before the add: if it is the new
point itself, the add is skipped and the point is credited at once.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from dialbench.belief_tracker import BeliefState
from dialbench.policies.base import (
    Policy,
    Transition,
    masked_argmax,
    require_counts,
    require_range,
)


@dataclass(frozen=True)
class GPSarsaConfig:
    sigma2: float = 25.0        # observation noise variance
    scale: float = 3.0          # exploration: sample N(mean, scale^2 var)
    nu: float = 0.001           # novelty threshold for dictionary growth
    max_points: int = 1000      # global dictionary budget
    gamma: float = 0.99
    jitter: float = 1e-8
    refresh_every: int = 512    # events per block between full inverse
                                # rebuilds: the cap on downdate drift

    def __post_init__(self) -> None:
        require_counts(self, "max_points", "refresh_every")
        require_range(self, "[0, 1]", "gamma")
        require_range(self, "[0, inf)", "scale", "nu")
        # jitter keeps K = G + jitter * I invertible
        require_range(self, "(0, inf)", "sigma2", "jitter")


def _bordered_inverse(m_inv: np.ndarray, k: np.ndarray, c: float) -> np.ndarray:
    """Inverse of [[M, k], [k^T, c]] given M^-1."""
    n = m_inv.shape[0]
    out = np.empty((n + 1, n + 1))
    u = m_inv @ k
    s = max(c - float(k @ u), 1e-12)
    out[:n, :n] = m_inv + np.outer(u, u) / s
    out[:n, n] = out[n, :n] = -u / s
    out[n, n] = 1.0 / s
    return out


def _removed_inverse(m_inv: np.ndarray, i: int) -> np.ndarray:
    """Inverse of M without row and column i, given M^-1: the
    Schur-complement downdate that undoes ``_bordered_inverse``."""
    keep = np.arange(m_inv.shape[0]) != i
    b = m_inv[keep, i]
    return m_inv[np.ix_(keep, keep)] - np.outer(b, b) / m_inv[i, i]


def _lowest_score(k_inv_diag: np.ndarray) -> tuple[float, int]:
    scores = 1.0 / np.maximum(k_inv_diag, 1e-12)
    i = int(np.argmin(scores))
    return float(scores[i]), i


class _Block:
    """Dictionary and maintained inverses for one action."""

    def __init__(self, dim: int, config: GPSarsaConfig):
        self.config = config
        self.x = np.zeros((0, dim))
        self.ysum = np.zeros(0)
        self.counts = np.zeros(0)
        self.a_inv = np.zeros((0, 0))
        self.k_inv = np.zeros((0, 0))
        self.w = np.zeros(0)
        self._events = 0
        # (score, index) of most_redundant, dropped when k_inv is replaced
        self._redundant = None

    @property
    def n(self) -> int:
        return self.x.shape[0]

    def _refresh(self) -> None:
        self._redundant = None
        g = self.x @ self.x.T
        self.k_inv = np.linalg.inv(g + self.config.jitter * np.eye(self.n))
        self.a_inv = np.linalg.inv(g + self.config.sigma2 * np.diag(1.0 / self.counts))
        self._recompute_w()

    def _recompute_w(self) -> None:
        self.w = self.a_inv @ (self.ysum / self.counts)

    def _tick(self) -> None:
        self._events += 1
        if self._events % self.config.refresh_every == 0:
            self._refresh()

    def posterior(self, x: np.ndarray, k_self: float) -> tuple[float, float]:
        """Mean and variance at ``x``, given ``k_self = x @ x``."""
        k = self.x @ x
        mean = float(k @ self.w)
        var = k_self - float(k @ (self.a_inv @ k))
        return mean, max(var, 0.0)

    def mean(self, x: np.ndarray) -> float:
        return float(self.x @ x @ self.w)

    def novelty(self, x: np.ndarray) -> float:
        k = self.x @ x
        return float(x @ x) + self.config.jitter - float(k @ (self.k_inv @ k))

    def nearest(self, x: np.ndarray) -> int:
        k = self.x @ x
        norms = np.sqrt(np.einsum("ij,ij->i", self.x, self.x) * float(x @ x))
        return int(np.argmax(k / np.maximum(norms, 1e-12)))

    def add(self, x: np.ndarray, y: float) -> None:
        k = self.x @ x
        k_self = float(x @ x)
        self.a_inv = _bordered_inverse(self.a_inv, k, k_self + self.config.sigma2)
        self.k_inv = _bordered_inverse(self.k_inv, k, k_self + self.config.jitter)
        self._redundant = None
        self.x = np.vstack([self.x, x])
        self.ysum = np.append(self.ysum, y)
        self.counts = np.append(self.counts, 1.0)
        self._recompute_w()
        self._tick()

    def reinforce(self, i: int, ysum: float, count: float = 1.0) -> None:
        """Credit ``count`` observations with targets summing to ``ysum`` to
        point i: A's noise entry i changes, which Sherman-Morrison absorbs."""
        n_i = self.counts[i]
        delta = self.config.sigma2 * (1.0 / (n_i + count) - 1.0 / n_i)
        denom = 1.0 + delta * self.a_inv[i, i]
        self.counts[i] += count
        self.ysum[i] += ysum
        if abs(denom) < 1e-12:
            return self._refresh()
        self.a_inv = self.a_inv - (delta / denom) * np.outer(self.a_inv[:, i], self.a_inv[i, :])
        self._recompute_w()
        self._tick()

    def merge_into_nearest(self, i: int) -> None:
        """Remove point i and credit its targets and count to its nearest
        neighbour among the rest: one event."""
        x_i, ysum_i, count_i = self.x[i], self.ysum[i], self.counts[i]
        self.a_inv = _removed_inverse(self.a_inv, i)
        self.k_inv = _removed_inverse(self.k_inv, i)
        self._redundant = None
        keep = np.arange(self.n) != i
        self.x = self.x[keep]
        self.ysum = self.ysum[keep]
        self.counts = self.counts[keep]
        self.reinforce(self.nearest(x_i), ysum_i, count_i)

    def most_redundant(self, x: np.ndarray | None = None) -> tuple[float, int]:
        """(score, index) of the point best explained by the rest of the
        block: the lowest score, first on ties.  Kept until ``k_inv`` is
        replaced.  Given x, scores the block as ``add(x, .)`` would
        border it (n > 0; index n is x)."""
        if x is not None:
            k = self.x @ x
            u = self.k_inv @ k
            s = max(float(x @ x) + self.config.jitter - float(k @ u), 1e-12)
            return _lowest_score(np.append(np.diag(self.k_inv) + u * u / s, 1.0 / s))
        if self._redundant is None:
            self._redundant = _lowest_score(np.diag(self.k_inv))
        return self._redundant


class GPSarsaPolicy(Policy):
    algorithm = "gpsarsa"
    trains = True

    def __init__(self, obs_dim: int, action_count: int,
                 config: GPSarsaConfig | None = None):
        super().__init__(obs_dim, action_count)
        self.config = config if config is not None else GPSarsaConfig()
        self.blocks = [_Block(obs_dim, self.config) for _ in range(action_count)]
        self._pending: Transition | None = None
        self.total_points = 0

    # -- acting --------------------------------------------------------------

    def act(self, observation: np.ndarray, mask: np.ndarray,
            rng: np.random.Generator,
            belief: BeliefState | None = None) -> int:
        x = np.asarray(observation, dtype=float)
        legal = np.flatnonzero(mask)
        scores = np.full(self.action_count, -np.inf)
        if not self.training:
            scores[legal] = [self.blocks[a].mean(x) for a in legal]
            return masked_argmax(scores, mask)
        k_self = float(x @ x)
        for a, z in zip(legal, rng.standard_normal(len(legal))):
            mean, var = self.blocks[a].posterior(x, k_self)
            scores[a] = mean + self.config.scale * np.sqrt(var) * z
        return masked_argmax(scores, mask)

    # -- learning ------------------------------------------------------------

    def observe(self, transition: Transition, rng: np.random.Generator) -> None:
        if self._pending is not None:
            prev = self._pending
            mean = self.blocks[transition.action].mean(prev.next_observation)
            self._ingest(prev.observation, prev.action,
                         prev.reward + self.config.gamma * mean)
            self._pending = None
        if transition.done:
            self._ingest(transition.observation, transition.action, transition.reward)
        else:
            self._pending = transition

    def end_dialogue(self, rng: np.random.Generator) -> None:
        if self._pending is not None:
            self._ingest(self._pending.observation, self._pending.action,
                         self._pending.reward)
            self._pending = None

    def _ingest(self, observation: np.ndarray, action: int, target: float) -> None:
        x = np.asarray(observation, dtype=float)
        target_block = self.blocks[action]
        if target_block.n and not target_block.novelty(x) > self.config.nu:
            return target_block.reinforce(target_block.nearest(x), target)
        # a full budget merges the point with the lowest score once x has
        # joined its block, the first block on a tie; blocks need two points
        victim = i = None
        if self.total_points >= self.config.max_points:
            scored = ((*block.most_redundant(x if block is target_block else None), block)
                      for block in self.blocks
                      if block.n >= 2 or (block is target_block and block.n))
            _, i, victim = min(scored, key=lambda c: c[0], default=(None, None, None))
        if victim is target_block and i == victim.n:
            # x itself merges: its add is skipped but still counts as an
            # event, and x is credited to its nearest neighbour
            victim._tick()
            return victim.reinforce(victim.nearest(x), target)
        target_block.add(x, target)
        if victim is None:
            self.total_points += 1
        else:
            victim.merge_into_nearest(i)

    # -- persistence ---------------------------------------------------------

    def state_arrays(self) -> dict[str, np.ndarray]:
        return {f"{name}_{a}": getattr(block, name)
                for a, block in enumerate(self.blocks)
                for name in ("x", "ysum", "counts")}

    def restore_arrays(self, arrays: dict[str, np.ndarray]) -> None:
        for a, block in enumerate(self.blocks):
            block.x, block.ysum, block.counts = (
                arrays[f"{name}_{a}"] for name in ("x", "ysum", "counts"))
            shapes = (block.x.shape, block.ysum.shape, block.counts.shape)
            n = len(block.x)
            if shapes != ((n, self.obs_dim), (n,), (n,)):
                raise ValueError(f"block {a} has points, sums and counts of "
                                 f"shapes {shapes} for width {self.obs_dim}")
            if not np.all(block.counts >= 1):   # refuses NaN as well
                raise ValueError(f"block {a} has a count below 1")
            block._refresh()
        self.total_points = sum(block.n for block in self.blocks)
