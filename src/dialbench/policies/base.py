"""Common policy interface, exploration schedule, the scaffold of the
net learners, checkpoint format.

A checkpoint is one ``.npz`` file: a JSON header plus the policy's named
arrays.  The header carries everything ``make_policy`` needs to rebuild
the policy (algorithm, dimensions, the complete config, and the domain
for policies bound to one); the arrays are handed to the rebuilt policy's
``restore_arrays``.
"""

from __future__ import annotations

import dataclasses
import json
import zipfile
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from dialbench.artifacts import atomic_writer
from dialbench.belief_tracker import BeliefState, belief_dim
from dialbench.domain import Ontology
from dialbench.rl_core import Net2, init_net

CHECKPOINT_VERSION = 2


class CheckpointError(ValueError):
    """A checkpoint file that cannot be read back: damaged, of another
    format version, missing header fields, or built for another domain."""


def require_counts(config, *names: str) -> None:
    """Each named field of ``config`` counts something of which a learner
    needs at least one (it divides by it or indexes with it)."""
    for name in names:
        value = getattr(config, name)
        if value < 1:
            raise ValueError(f"{name} must be at least 1, got {value}")


@dataclass(frozen=True)
class EpsilonSchedule:
    """Linear anneal from eps0 to eps_final over anneal_dialogues."""

    eps0: float
    eps_final: float = 0.05
    anneal_dialogues: int = 4000

    def at(self, dialogue_index: int) -> float:
        frac = min(1.0, max(0.0, dialogue_index / self.anneal_dialogues))
        return self.eps0 + (self.eps_final - self.eps0) * frac


@dataclass
class Transition:
    observation: np.ndarray
    action: int
    reward: float
    next_observation: np.ndarray
    next_mask: np.ndarray
    done: bool
    mask: np.ndarray              # mask the action was chosen under


class Policy:
    """Dialogue policy over flattened beliefs and action masks.

    ``act`` must be deterministic given (model state, inputs, rng) and must
    return a legal action.  Outside a training dialogue it acts greedily
    and draws nothing from ``rng``.  Training hooks are no-ops by default
    so fixed policies only implement ``act``.
    """

    algorithm = "base"
    trains = False
    config = None                      # frozen config dataclass
    ontology: Ontology | None = None   # set by policies bound to a domain
    training = False                   # mode of the current dialogue

    def __init__(self, obs_dim: int, action_count: int):
        self.obs_dim = obs_dim
        self.action_count = action_count

    def begin_dialogue(self, dialogue_index: int, training: bool) -> None:
        self.training = training

    def act(self, observation: np.ndarray, mask: np.ndarray,
            rng: np.random.Generator,
            belief: BeliefState | None = None) -> int:
        raise NotImplementedError

    def observe(self, transition: Transition, rng: np.random.Generator) -> None:
        pass

    def end_dialogue(self, rng: np.random.Generator) -> None:
        pass

    # -- persistence: subclasses supply only their arrays -------------------

    def state_arrays(self) -> dict[str, np.ndarray]:
        """Named arrays a checkpoint must keep beyond the config."""
        return {}

    def restore_arrays(self, arrays: dict[str, np.ndarray]) -> None:
        """Inverse of ``state_arrays`` on a freshly built policy."""

    def save(self, path: str | Path) -> None:
        header = {
            "obs_dim": self.obs_dim,
            "action_count": self.action_count,
            "config": dataclasses.asdict(self.config),
            "domain": None if self.ontology is None else self.ontology.code,
        }
        save_checkpoint(path, self.algorithm, header, self.state_arrays())


class NetLearner(Policy):
    """A learner over one ``Net2`` with epsilon exploration.

    The net reads the belief vector and has one output per summary
    action plus ``extra_outputs`` (A2C's state value).  Its config names
    the layer widths (``hidden1``, ``hidden2``) and the epsilon schedule
    (``eps0``, ``eps_final``, ``anneal_dialogues``); epsilon follows the
    schedule from one dialogue to the next.  A checkpoint keeps the net's
    parameters.
    """

    trains = True
    extra_outputs = 0

    def __init__(self, obs_dim: int, action_count: int, config,
                 init_rng: np.random.Generator | None = None):
        super().__init__(obs_dim, action_count)
        self.config = config
        rng = init_rng if init_rng is not None else np.random.default_rng(0)
        self.net = init_net(obs_dim, config.hidden1, config.hidden2,
                            action_count + self.extra_outputs, rng)
        self.schedule = EpsilonSchedule(config.eps0, config.eps_final,
                                        config.anneal_dialogues)
        self.epsilon = config.eps0

    def begin_dialogue(self, dialogue_index: int, training: bool) -> None:
        super().begin_dialogue(dialogue_index, training)
        self.epsilon = self.schedule.at(dialogue_index)

    def state_arrays(self) -> dict[str, np.ndarray]:
        return self.net.named_params()

    def restore_arrays(self, arrays: dict[str, np.ndarray]) -> None:
        self.net = Net2.from_arrays(arrays)


def uniform_legal(mask: np.ndarray, rng: np.random.Generator) -> int:
    legal = np.flatnonzero(mask)
    return int(legal[int(rng.integers(len(legal)))])


def masked_argmax(values: np.ndarray, mask: np.ndarray) -> int:
    """Highest value among legal actions; ties go to the lowest index."""
    scores = np.where(mask, values, -np.inf)
    return int(np.argmax(scores))


def save_checkpoint(path: str | Path, algorithm: str, meta: dict,
                    arrays: dict[str, np.ndarray]) -> None:
    header = {
        "format_version": CHECKPOINT_VERSION,
        "algorithm": algorithm,
        **meta,
    }
    with atomic_writer(path) as f:
        np.savez(f, __header__=np.frombuffer(
            json.dumps(header, sort_keys=True).encode(), dtype=np.uint8
        ), **arrays)


def load_checkpoint(path: str | Path) -> tuple[str, dict, dict[str, np.ndarray]]:
    path = Path(path)
    if not path.exists():
        raise FileNotFoundError(path)
    try:
        with np.load(path, allow_pickle=False) as payload:
            header = json.loads(bytes(payload["__header__"]).decode())
            arrays = {k: payload[k] for k in payload.files if k != "__header__"}
    except (OSError, EOFError, KeyError, ValueError, zipfile.BadZipFile) as exc:
        raise CheckpointError(f"unreadable checkpoint {path}: {exc}") from exc
    version = header.pop("format_version", None)
    if version != CHECKPOINT_VERSION:
        raise CheckpointError(
            f"{path}: unsupported checkpoint version {version}")
    algorithm = header.pop("algorithm", None)
    return algorithm, header, arrays


def load_policy(path: str | Path, ontology: Ontology | None = None) -> Policy:
    """Reopen any saved policy; the checkpoint names its algorithm."""
    from dialbench.policies import make_policy  # the registry imports us

    algorithm, header, arrays = load_checkpoint(path)
    missing = {"obs_dim", "action_count", "config"} - header.keys()
    if missing:
        raise CheckpointError(f"checkpoint {path} lacks {sorted(missing)}")
    domain = header.get("domain")
    if ontology is not None:
        # a domain-bound policy names its domain; a learner is checked
        # by the width of the belief vector it reads
        if domain and domain != ontology.code:
            raise CheckpointError(f"checkpoint {path} was built for "
                                  f"{domain}, got ontology {ontology.code}")
        if not domain and header["obs_dim"] != belief_dim(ontology):
            raise CheckpointError(
                f"checkpoint {path} reads beliefs of width "
                f"{header['obs_dim']}, but the {ontology.code} ontology's "
                f"belief has width {belief_dim(ontology)}")
    policy = make_policy(algorithm, header["obs_dim"], header["action_count"],
                         ontology=ontology, **header["config"])
    policy.restore_arrays(arrays)
    return policy
