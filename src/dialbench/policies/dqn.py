"""Deep Q-network with replay buffer and a periodically synced target net.

After its first learn step, a step allocates nothing large: the
minibatch's observation, next observation and next-mask arrays, both
nets' forward caches and the gradient are made once, at the size of
``minibatch``, and refilled.
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
    require_range,
    uniform_legal,
)
from dialbench.rl_core import (
    ForwardCache,
    adam_init,
    adam_step,
    backward,
    forward,
    forward_cache,
)


@dataclass(frozen=True)
class DQNConfig:
    hidden1: int = 300
    hidden2: int = 100
    lr: float = 0.001
    buffer_size: int = 6000
    minibatch: int = 64
    train_after: int = 192        # transitions seen before updates start
    target_sync_dialogues: int = 2
    train_steps_per_turn: int = 1
    eps0: float = 0.3
    eps_final: float = 0.05
    anneal_dialogues: int = 4000
    gamma: float = 0.99

    def __post_init__(self) -> None:
        require_counts(self, "hidden1", "hidden2", "buffer_size", "minibatch",
                       "target_sync_dialogues", "anneal_dialogues")
        require_range(self, "[0, 1]", "gamma", "eps0", "eps_final")
        require_range(self, "[0, inf)", "lr", "train_after",
                      "train_steps_per_turn")


def bellman_targets(rewards: np.ndarray, next_q: np.ndarray,
                    next_masks: np.ndarray, dones: np.ndarray,
                    gamma: float) -> np.ndarray:
    """y = r + gamma * max over legal actions of Q_target(s'), 0 at ends."""
    best = np.where(next_masks.astype(bool), next_q, -np.inf).max(axis=1)
    best = np.where(dones.astype(bool), 0.0, best)
    return rewards + gamma * best


class DQNPolicy(NetLearner):
    algorithm = "dqn"

    def __init__(self, obs_dim: int, action_count: int, config: DQNConfig,
                 init_rng: np.random.Generator | None = None):
        super().__init__(obs_dim, action_count, config, init_rng)
        self.target_net = self.net.copy()
        self.adam = adam_init(self.net.theta, lr=config.lr)
        self._buffer: list[Transition] = []
        self._write = 0
        self._dialogues = 0
        batch = config.minibatch
        self._obs = np.zeros((batch, obs_dim))
        self._next_obs = np.zeros((batch, obs_dim))
        self._next_masks = np.zeros((batch, action_count), dtype=bool)
        self._grad = np.empty_like(self.net.theta)
        # made by the first learn step, so that building a policy runs no
        # net; every later step refills them
        self._q_cache: ForwardCache | None = None
        self._target_cache: ForwardCache | None = None

    def act(self, observation: np.ndarray, mask: np.ndarray,
            rng: np.random.Generator,
            belief: BeliefState | None = None) -> int:
        if self.training and rng.random() < self.epsilon:
            return uniform_legal(mask, rng)
        q = forward(self.net, observation)
        return masked_argmax(q, mask)

    def observe(self, transition: Transition, rng: np.random.Generator) -> None:
        if not self.training:
            return
        if len(self._buffer) < self.config.buffer_size:
            self._buffer.append(transition)
        else:
            self._buffer[self._write] = transition
            self._write = (self._write + 1) % self.config.buffer_size
        if len(self._buffer) >= self.config.train_after:
            for _ in range(self.config.train_steps_per_turn):
                self.train_step(rng)

    def train_step(self, rng: np.random.Generator) -> float:
        idx = rng.integers(len(self._buffer), size=self.config.minibatch)
        batch = [self._buffer[i] for i in idx.tolist()]
        obs, next_obs, next_masks = self._obs, self._next_obs, self._next_masks
        for row, t in enumerate(batch):
            obs[row] = t.observation
            next_obs[row] = t.next_observation
            next_masks[row] = t.next_mask
        actions = np.array([t.action for t in batch])
        rewards = np.array([t.reward for t in batch])
        dones = np.array([t.done for t in batch])

        self._target_cache = forward_cache(self.target_net, next_obs,
                                           self._target_cache)
        targets = bellman_targets(rewards, self._target_cache.out, next_masks,
                                  dones, self.config.gamma)

        cache = self._q_cache = forward_cache(self.net, obs, self._q_cache)
        q_taken = cache.out[np.arange(len(batch)), actions]
        err = q_taken - targets
        g_out = np.zeros_like(cache.out)
        g_out[np.arange(len(batch)), actions] = 2.0 * err / len(batch)
        grads = backward(self.net, cache, g_out, out=self._grad)
        adam_step(self.adam, self.net.theta, grads)
        return float(np.mean(err**2))

    def end_dialogue(self, rng: np.random.Generator) -> None:
        if not self.training:
            return
        self._dialogues += 1
        if self._dialogues % self.config.target_sync_dialogues == 0:
            np.copyto(self.target_net.theta, self.net.theta)

    def restore_arrays(self, arrays: dict[str, np.ndarray]) -> None:
        # the target net restarts in sync with the Q-net; Adam starts fresh
        super().restore_arrays(arrays)
        np.copyto(self.target_net.theta, self.net.theta)
