"""Episodic natural actor-critic.

Each episode contributes one regression row: the summed score function
of the actions taken against the episode return.  A ridge least-squares
fit with a bias column recovers the natural gradient, which is applied
as a normalized step on the softmax policy parameters.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from dialbench.belief_tracker import BeliefState
from dialbench.policies.base import (
    NetLearner,
    Transition,
    masked_argmax,
    require_counts,
    uniform_legal,
)
from dialbench.rl_core import forward_cache, grad_log_prob, masked_softmax


@dataclass(frozen=True)
class ENACConfig:
    hidden1: int = 130
    hidden2: int = 50
    step_size: float = 0.1
    eps0: float = 0.3
    eps_final: float = 0.05
    anneal_dialogues: int = 4000
    gamma: float = 0.99
    batch_episodes: int = 20
    ridge: float = 1e-4

    def __post_init__(self) -> None:
        require_counts(self, "anneal_dialogues")


def enac_natural_gradient(phis: np.ndarray, returns: np.ndarray,
                          ridge: float = 1e-4) -> np.ndarray:
    """Regress returns on summed scores; the weights (bias dropped) are
    the natural-gradient direction.

    When parameters outnumber episodes the ridge solution is obtained
    in its dual form, which involves only an episodes-sized system.
    """
    phis = np.atleast_2d(np.asarray(phis, dtype=np.float64))
    returns = np.asarray(returns, dtype=np.float64)
    design = np.concatenate([phis, np.ones((phis.shape[0], 1))], axis=1)
    n, p = design.shape
    if p <= n:
        normal = design.T @ design + ridge * np.eye(p)
        coef = np.linalg.solve(normal, design.T @ returns)
    else:
        dual = design @ design.T + ridge * np.eye(n)
        coef = design.T @ np.linalg.solve(dual, returns)
    return coef[:-1]


class ENACPolicy(NetLearner):
    algorithm = "enac"

    def __init__(self, obs_dim: int, action_count: int, config: ENACConfig,
                 init_rng: np.random.Generator | None = None):
        super().__init__(obs_dim, action_count, config, init_rng)
        self._phi: np.ndarray | None = None
        self._rewards: list[float] = []
        self._batch_phis: list[np.ndarray] = []
        self._batch_returns: list[float] = []

    @property
    def param_count(self) -> int:
        return self.net.theta.size

    def begin_dialogue(self, dialogue_index: int, training: bool) -> None:
        super().begin_dialogue(dialogue_index, training)
        self._phi = np.zeros(self.param_count)
        self._rewards = []

    def act(self, observation: np.ndarray, mask: np.ndarray,
            rng: np.random.Generator,
            belief: BeliefState | None = None) -> int:
        cache = forward_cache(self.net, observation)
        # greedy on the probabilities, not the logits: exp rounding can
        # tie two legal actions the logits tell apart
        p = masked_softmax(cache.z, mask)[0]
        if not self.training:
            return masked_argmax(p, mask)
        if rng.random() < self.epsilon:
            action = uniform_legal(mask, rng)
        else:
            action = int(rng.choice(self.action_count, p=p / p.sum()))
        # the uniform branch is treated as on-policy when accumulating
        # scores; the bias this introduces shrinks with epsilon
        self._phi += grad_log_prob(self.net, cache, p, mask, action)
        return action

    def observe(self, transition: Transition, rng: np.random.Generator) -> None:
        if self.training:
            self._rewards.append(transition.reward)

    def end_dialogue(self, rng: np.random.Generator) -> None:
        if not self.training or not self._rewards:
            return
        gam = self.config.gamma ** np.arange(len(self._rewards))
        self._batch_phis.append(self._phi)
        self._batch_returns.append(float(gam @ np.array(self._rewards)))
        if len(self._batch_phis) >= self.config.batch_episodes:
            self.update()

    def update(self) -> None:
        w = enac_natural_gradient(np.stack(self._batch_phis),
                                  np.array(self._batch_returns),
                                  self.config.ridge)
        self._batch_phis, self._batch_returns = [], []
        norm = float(np.linalg.norm(w))
        if norm == 0.0:
            return
        self.net.theta += self.config.step_size * w / norm
