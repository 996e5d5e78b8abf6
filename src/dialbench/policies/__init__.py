"""Policy registry: handcrafted baseline plus four learners."""

from __future__ import annotations

import typing

import numpy as np

from dialbench.domain import Ontology
from dialbench.policies.a2c import A2CConfig, A2CPolicy, a2c_loss
from dialbench.policies.base import (
    CheckpointError,
    EpsilonSchedule,
    Policy,
    Transition,
    load_checkpoint,
    load_policy,
    masked_argmax,
    save_checkpoint,
    uniform_legal,
)
from dialbench.policies.dqn import DQNConfig, DQNPolicy, bellman_targets
from dialbench.policies.enac import ENACConfig, ENACPolicy, enac_natural_gradient
from dialbench.policies.gpsarsa import GPSarsaConfig, GPSarsaPolicy
from dialbench.policies.handcrafted import HandcraftedConfig, HandcraftedPolicy

ALGORITHMS = ("handcrafted", "gpsarsa", "dqn", "a2c", "enac")

CONFIGS = {
    "handcrafted": HandcraftedConfig,
    "gpsarsa": GPSarsaConfig,
    "dqn": DQNConfig,
    "a2c": A2CConfig,
    "enac": ENACConfig,
}


def config_fields(algorithm: str) -> dict[str, type]:
    """Names ``make_policy`` accepts as overrides for ``algorithm``, each
    with the type of its config field."""
    return typing.get_type_hints(CONFIGS[algorithm])


def make_policy(algorithm: str, obs_dim: int, action_count: int,
                ontology: Ontology | None = None,
                init_rng: np.random.Generator | None = None,
                **config_kwargs) -> Policy:
    if algorithm not in CONFIGS:
        raise ValueError(f"unknown algorithm {algorithm!r}; "
                         f"choose from {ALGORITHMS}")
    config = CONFIGS[algorithm](**config_kwargs)
    if algorithm == "handcrafted":
        if ontology is None:
            raise ValueError("handcrafted policy needs the ontology")
        return HandcraftedPolicy(ontology, config)
    if algorithm == "gpsarsa":
        return GPSarsaPolicy(obs_dim, action_count, config)
    learner = {"dqn": DQNPolicy, "a2c": A2CPolicy, "enac": ENACPolicy}
    return learner[algorithm](obs_dim, action_count, config, init_rng=init_rng)


__all__ = [
    "ALGORITHMS",
    "A2CConfig",
    "A2CPolicy",
    "CONFIGS",
    "CheckpointError",
    "DQNConfig",
    "DQNPolicy",
    "ENACConfig",
    "ENACPolicy",
    "EpsilonSchedule",
    "GPSarsaConfig",
    "GPSarsaPolicy",
    "HandcraftedConfig",
    "HandcraftedPolicy",
    "Policy",
    "Transition",
    "a2c_loss",
    "bellman_targets",
    "config_fields",
    "enac_natural_gradient",
    "load_checkpoint",
    "load_policy",
    "make_policy",
    "masked_argmax",
    "save_checkpoint",
    "uniform_legal",
]
