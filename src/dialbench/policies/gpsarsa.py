"""Gaussian-process SARSA over the linear-state x delta-action kernel.

Because the action kernel is a delta, the joint Gram matrix is block
diagonal by action, so each action keeps its own dictionary.  Per block we
store the points, an aggregated regression target per point (bootstrapped
SARSA target, observations of near-duplicate points are merged), and
maintained inverses of

    A = G + sigma2 * diag(1 / n_i)      (posterior, noise shrinks with n_i)
    K = G + jitter * I                  (novelty test)

updated in O(n^2) per event via bordered/Sherman-Morrison identities and
refreshed from scratch periodically to cap drift.  The posterior at (x, a)
is the standard GP regression posterior of block a, which is what the
dense-solve oracle in the test suite checks against.

A new point only enters its dictionary when its kernel residual exceeds
nu; when the global budget is exhausted, the most redundant point (largest
diagonal of K^-1) is merged into its nearest neighbour.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from dialbench.belief_tracker import BeliefState
from dialbench.policies.base import (
    Policy,
    Transition,
    masked_argmax,
)


@dataclass(frozen=True)
class GPSarsaConfig:
    sigma2: float = 25.0        # observation noise variance
    scale: float = 3.0          # exploration: sample N(mean, scale^2 var)
    nu: float = 0.001           # novelty threshold for dictionary growth
    max_points: int = 1000      # global dictionary budget
    gamma: float = 0.99
    jitter: float = 1e-8
    refresh_every: int = 512    # full inverse rebuild cadence per block


def _bordered_inverse(m_inv: np.ndarray, k: np.ndarray, c: float) -> np.ndarray:
    """Inverse of [[M, k], [k^T, c]] given M^-1."""
    n = m_inv.shape[0]
    out = np.empty((n + 1, n + 1))
    if n == 0:
        out[0, 0] = 1.0 / c
        return out
    u = m_inv @ k
    s = max(c - float(k @ u), 1e-12)
    out[:n, :n] = m_inv + np.outer(u, u) / s
    out[:n, n] = -u / s
    out[n, :n] = -u / s
    out[n, n] = 1.0 / s
    return out


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

    @property
    def n(self) -> int:
        return self.x.shape[0]

    @property
    def k_inv(self) -> np.ndarray:
        return self._k_inv

    @k_inv.setter
    def k_inv(self, value: np.ndarray) -> None:
        self._k_inv = value
        self._most_redundant = None

    def _refresh(self) -> None:
        if self.n == 0:
            self.a_inv = np.zeros((0, 0))
            self.k_inv = np.zeros((0, 0))
            self.w = np.zeros(0)
            return
        g = self.x @ self.x.T
        self.a_inv = np.linalg.inv(g + self.config.sigma2 * np.diag(1.0 / self.counts))
        self.k_inv = np.linalg.inv(g + self.config.jitter * np.eye(self.n))
        self._recompute_w()

    def _recompute_w(self) -> None:
        self.w = self.a_inv @ (self.ysum / self.counts) if self.n else np.zeros(0)

    def _tick(self) -> None:
        self._events += 1
        if self._events % self.config.refresh_every == 0:
            self._refresh()

    def posterior(self, x: np.ndarray, k_self: float) -> tuple[float, float]:
        """Mean and variance at ``x``, given ``k_self = x @ x``."""
        if self.n == 0:
            return 0.0, k_self
        k = self.x @ x
        mean = float(k @ self.w)
        var = k_self - float(k @ (self.a_inv @ k))
        return mean, max(var, 0.0)

    def novelty(self, x: np.ndarray) -> float:
        k_self = float(x @ x) + self.config.jitter
        if self.n == 0:
            return k_self
        k = self.x @ x
        return k_self - float(k @ (self.k_inv @ k))

    def nearest(self, x: np.ndarray) -> int:
        k = self.x @ x
        norms = np.sqrt(np.einsum("ij,ij->i", self.x, self.x) * float(x @ x))
        return int(np.argmax(k / np.maximum(norms, 1e-12)))

    def add(self, x: np.ndarray, y: float) -> None:
        k = self.x @ x
        k_self = float(x @ x)
        self.a_inv = _bordered_inverse(self.a_inv, k, k_self + self.config.sigma2)
        self.k_inv = _bordered_inverse(self.k_inv, k, k_self + self.config.jitter)
        self.x = np.vstack([self.x, x])
        self.ysum = np.append(self.ysum, y)
        self.counts = np.append(self.counts, 1.0)
        self._recompute_w()
        self._tick()

    def reinforce(self, i: int, y: float) -> None:
        n_i = self.counts[i]
        delta = self.config.sigma2 * (1.0 / (n_i + 1.0) - 1.0 / n_i)
        col = self.a_inv[:, i].copy()
        denom = 1.0 + delta * self.a_inv[i, i]
        if abs(denom) < 1e-12:
            self.counts[i] += 1.0
            self.ysum[i] += y
            self._refresh()
            return
        self.a_inv = self.a_inv - (delta / denom) * np.outer(col, self.a_inv[i, :])
        self.counts[i] += 1.0
        self.ysum[i] += y
        self._recompute_w()
        self._tick()

    def merge_into_nearest(self, i: int) -> None:
        """Fold point i into its nearest neighbour and rebuild the block.

        The rebuild replaces every maintained quantity, so the downdates
        a removal would make first are skipped; the event still counts
        toward the refresh cadence.
        """
        x_i, ysum_i, count_i = self.x[i], self.ysum[i], self.counts[i]
        keep = np.arange(self.n) != i
        self.x = self.x[keep]
        self.ysum = self.ysum[keep]
        self.counts = self.counts[keep]
        j = self.nearest(x_i)
        self.ysum[j] += ysum_i
        self.counts[j] += count_i
        self._events += 1
        # the noise diagonal of j changed by more than a single count,
        # so rebuild this block exactly
        self._refresh()

    def most_redundant(self) -> tuple[float, int]:
        """(score, index) of the point best explained by the rest of the
        block: the lowest score, first on ties.  Kept until ``k_inv`` is
        next assigned."""
        if self._most_redundant is None:
            scores = 1.0 / np.maximum(np.diag(self.k_inv), 1e-12)
            i = int(np.argmin(scores))
            self._most_redundant = (float(scores[i]), i)
        return self._most_redundant


class GPSarsaPolicy(Policy):
    algorithm = "gpsarsa"
    trains = True

    def __init__(self, obs_dim: int, action_count: int,
                 config: GPSarsaConfig | None = None):
        super().__init__(obs_dim, action_count)
        self.config = config if config is not None else GPSarsaConfig()
        self.blocks = [_Block(obs_dim, self.config) for _ in range(action_count)]
        self._pending: Transition | None = None

    @property
    def total_points(self) -> int:
        return sum(block.n for block in self.blocks)

    # -- acting --------------------------------------------------------------

    def q_posterior(self, observation: np.ndarray, action: int) -> tuple[float, float]:
        x = np.asarray(observation, dtype=float)
        return self.blocks[action].posterior(x, float(x @ x))

    def act(self, observation: np.ndarray, mask: np.ndarray,
            rng: np.random.Generator,
            belief: BeliefState | None = None) -> int:
        x = np.asarray(observation, dtype=float)
        k_self = float(x @ x)
        scores = np.full(self.action_count, -np.inf)
        for a in range(self.action_count):
            if not mask[a]:
                continue
            mean, var = self.blocks[a].posterior(x, k_self)
            if not self.training:
                scores[a] = mean
            else:
                scores[a] = mean + self.config.scale * np.sqrt(var) * rng.standard_normal()
        return masked_argmax(scores, mask)

    # -- learning ------------------------------------------------------------

    def observe(self, transition: Transition, rng: np.random.Generator) -> None:
        if self._pending is not None:
            prev = self._pending
            mean, _ = self.q_posterior(prev.next_observation, transition.action)
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
        block = self.blocks[action]
        if block.n == 0 or block.novelty(x) > self.config.nu:
            block.add(x, target)
            self._enforce_budget()
        else:
            block.reinforce(block.nearest(x), target)

    def _enforce_budget(self) -> None:
        while self.total_points > self.config.max_points:
            best: tuple[float, int, int] | None = None
            for a, block in enumerate(self.blocks):
                if block.n < 2:
                    continue
                score, i = block.most_redundant()
                if best is None or score < best[0]:
                    best = (score, a, i)
            if best is None:
                return
            _, a, i = best
            self.blocks[a].merge_into_nearest(i)

    # -- persistence ---------------------------------------------------------

    def state_arrays(self) -> dict[str, np.ndarray]:
        arrays = {}
        for a, block in enumerate(self.blocks):
            arrays[f"x_{a}"] = block.x
            arrays[f"ysum_{a}"] = block.ysum
            arrays[f"counts_{a}"] = block.counts
        return arrays

    def restore_arrays(self, arrays: dict[str, np.ndarray]) -> None:
        for a, block in enumerate(self.blocks):
            block.x = arrays[f"x_{a}"]
            block.ysum = arrays[f"ysum_{a}"]
            block.counts = arrays[f"counts_{a}"]
            block._refresh()
