"""Deep Q-network with replay buffer and a periodically synced target net."""

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
from dialbench.rl_core import (
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
        require_counts(self, "buffer_size", "target_sync_dialogues",
                       "anneal_dialogues")


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
        batch = [self._buffer[int(i)] for i in idx]
        obs = np.stack([t.observation for t in batch])
        actions = np.array([t.action for t in batch])
        rewards = np.array([t.reward for t in batch])
        next_obs = np.stack([t.next_observation for t in batch])
        next_masks = np.stack([t.next_mask for t in batch])
        dones = np.array([t.done for t in batch])

        next_q = forward(self.target_net, next_obs)
        targets = bellman_targets(rewards, next_q, next_masks, dones,
                                  self.config.gamma)

        cache = forward_cache(self.net, obs)
        q_taken = cache.out[np.arange(len(batch)), actions]
        err = q_taken - targets
        g_out = np.zeros_like(cache.out)
        g_out[np.arange(len(batch)), actions] = 2.0 * err / len(batch)
        grads = backward(self.net, cache, g_out)
        adam_step(self.adam, self.net.theta, grads)
        return float(np.mean(err**2))

    def end_dialogue(self, rng: np.random.Generator) -> None:
        if not self.training:
            return
        self._dialogues += 1
        if self._dialogues % self.config.target_sync_dialogues == 0:
            self.target_net = self.net.copy()

    def restore_arrays(self, arrays: dict[str, np.ndarray]) -> None:
        # the target net restarts in sync with the Q-net; Adam starts fresh
        super().restore_arrays(arrays)
        self.target_net = self.net.copy()
