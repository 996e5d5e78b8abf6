"""Advantage actor-critic sharing one trunk between policy and value heads.

The network emits A + 1 linear outputs; the first A are logits for a
masked softmax, the last is the state value.  Updates replay the newest
dialogue together with a small sample of recent ones, correcting for
policy drift with truncated importance weights.
"""

from __future__ import annotations

from collections import deque
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
    Net2,
    adam_init,
    adam_step,
    backward,
    forward,
    forward_cache,
    masked_softmax,
)


@dataclass(frozen=True)
class A2CConfig:
    hidden1: int = 200
    hidden2: int = 75
    lr: float = 0.001
    eps0: float = 0.5
    eps_final: float = 0.05
    anneal_dialogues: int = 4000
    gamma: float = 0.99
    window: int = 32              # episodes kept for replay
    update_episodes: int = 8      # newest + sampled older ones per update
    entropy_beta: float = 0.01
    iw_clip: float = 2.0

    def __post_init__(self) -> None:
        require_counts(self, "hidden1", "hidden2", "window",
                       "update_episodes", "anneal_dialogues")
        require_range(self, "[0, 1]", "gamma", "eps0", "eps_final")
        require_range(self, "[0, inf)", "lr", "entropy_beta")
        require_range(self, "(0, inf)", "iw_clip")


@dataclass
class Episode:
    observations: np.ndarray      # [T, obs_dim]
    actions: np.ndarray           # [T]
    masks: np.ndarray             # [T, A]
    returns: np.ndarray           # [T] discounted reward-to-go
    behaviour_probs: np.ndarray   # [T] pi(a_t) at collection time


def returns_to_go(rewards: np.ndarray, gamma: float) -> np.ndarray:
    out = np.empty(len(rewards))
    acc = 0.0
    for t in range(len(rewards) - 1, -1, -1):
        acc = rewards[t] + gamma * acc
        out[t] = acc
    return out


def a2c_loss(net: Net2, cache: ForwardCache, actions: np.ndarray,
             masks: np.ndarray, returns: np.ndarray, advantages: np.ndarray,
             weights: np.ndarray, entropy_beta: float):
    """Surrogate loss and its parameter gradient, one flat vector like
    ``backward``'s, for the batch that ``cache`` holds
    (``forward_cache(net, obs)``).

    advantages and weights enter as constants, so the returned gradients
    are exact derivatives of the returned scalar; finite differences
    over the parameters must agree with them.
    """
    n = len(actions)
    rows = np.arange(n)
    out = cache.z
    v = out[:, -1]
    p = masked_softmax(out[:, :-1], masks)
    logp = np.where(p > 0.0, np.log(np.where(p > 0.0, p, 1.0)), 0.0)
    entropy = -(p * logp).sum(axis=1)
    td = v - returns
    loss = float(np.sum(weights * (-advantages * logp[rows, actions]
                                   + 0.5 * td * td
                                   - entropy_beta * entropy)) / n)

    e = np.zeros_like(p)
    e[rows, actions] = 1.0
    g_z = (-advantages[:, None] * (e - p)
           + entropy_beta * p * (logp + entropy[:, None]))
    g_out = np.zeros_like(out)
    g_out[:, :-1] = weights[:, None] * g_z / n
    g_out[:, -1] = weights * td / n
    return loss, backward(net, cache, g_out)


class A2CPolicy(NetLearner):
    algorithm = "a2c"
    extra_outputs = 1             # the state value, after the logits

    def __init__(self, obs_dim: int, action_count: int, config: A2CConfig,
                 init_rng: np.random.Generator | None = None):
        super().__init__(obs_dim, action_count, config, init_rng)
        self.adam = adam_init(self.net.theta, lr=config.lr)
        self.episodes: deque[Episode] = deque(maxlen=config.window)
        self._obs: list[np.ndarray] = []
        self._actions: list[int] = []
        self._masks: list[np.ndarray] = []
        self._rewards: list[float] = []

    def begin_dialogue(self, dialogue_index: int, training: bool) -> None:
        super().begin_dialogue(dialogue_index, training)
        self._obs, self._actions, self._masks, self._rewards = [], [], [], []

    def act(self, observation: np.ndarray, mask: np.ndarray,
            rng: np.random.Generator,
            belief: BeliefState | None = None) -> int:
        out = forward(self.net, observation)
        if not self.training:
            return masked_argmax(out[:-1], mask)
        if rng.random() < self.epsilon:
            return uniform_legal(mask, rng)
        p = masked_softmax(out[:-1], mask)[0]
        return int(rng.choice(self.action_count, p=p / p.sum()))

    def observe(self, transition: Transition, rng: np.random.Generator) -> None:
        if not self.training:
            return
        self._obs.append(np.asarray(transition.observation, dtype=float))
        self._actions.append(transition.action)
        self._masks.append(np.asarray(transition.mask, dtype=bool))
        self._rewards.append(transition.reward)

    def end_dialogue(self, rng: np.random.Generator) -> None:
        if not self.training or not self._actions:
            return
        obs = np.stack(self._obs)
        actions = np.array(self._actions)
        masks = np.stack(self._masks)
        rets = returns_to_go(np.array(self._rewards), self.config.gamma)
        probs = masked_softmax(forward(self.net, obs)[:, :-1], masks)
        behaviour = probs[np.arange(len(actions)), actions]
        self.episodes.append(Episode(obs, actions, masks, rets, behaviour))
        self.update(rng)

    def update(self, rng: np.random.Generator) -> float:
        batch = [self.episodes[-1]]
        older = len(self.episodes) - 1
        extra = min(self.config.update_episodes - 1, older)
        if extra > 0:
            picks = rng.choice(older, size=extra, replace=False)
            batch.extend(self.episodes[int(i)] for i in picks)

        obs = np.concatenate([e.observations for e in batch])
        actions = np.concatenate([e.actions for e in batch])
        masks = np.concatenate([e.masks for e in batch])
        rets = np.concatenate([e.returns for e in batch])
        behaviour = np.concatenate([e.behaviour_probs for e in batch])

        cache = forward_cache(self.net, obs)
        out = cache.z
        values = out[:, -1]
        probs = masked_softmax(out[:, :-1], masks)
        current = probs[np.arange(len(actions)), actions]
        ratio = np.where(behaviour > 0.0, current / np.maximum(behaviour, 1e-12), 1.0)
        weights = np.minimum(ratio, self.config.iw_clip)
        advantages = rets - values

        loss, grads = a2c_loss(self.net, cache, actions, masks, rets,
                               advantages, weights, self.config.entropy_beta)
        adam_step(self.adam, self.net.theta, grads)
        return loss
