"""Common policy interface, exploration schedule, the scaffold of the
net learners, checkpoint format.

A checkpoint is one ``.npz`` file: a JSON header plus the policy's named
arrays.  The header carries everything ``make_policy`` needs to rebuild
the policy (algorithm, dimensions, the complete config, and the domain
for policies bound to one); the arrays are copied into the policy
``make_policy`` rebuilds from it, by its ``restore_arrays``.
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
from dialbench.rl_core import init_net, masked_softmax

CHECKPOINT_VERSION = 2


class CheckpointError(ValueError):
    """A checkpoint file that cannot be read back: damaged, of another
    format version, built for another domain, or with a header or arrays
    that do not rebuild a policy."""


def require_counts(config, *names: str) -> None:
    """Each named field of ``config`` counts something of which a learner
    needs at least one (it divides by it or indexes with it)."""
    for name in names:
        value = getattr(config, name)
        if value < 1:
            raise ValueError(f"{name} must be at least 1, got {value}")


# The ranges a learner's real-valued settings take: a probability or a
# discount, a rate or weight, and a quantity it divides by.
_RANGES = {
    "[0, 1]": lambda value: 0.0 <= value <= 1.0,
    "[0, inf)": lambda value: value >= 0.0,
    "(0, inf)": lambda value: value > 0.0,
}


def require_range(config, interval: str, *names: str) -> None:
    """Each named field of ``config`` lies in ``interval``, a key of
    ``_RANGES``; NaN lies in none."""
    holds = _RANGES[interval]
    for name in names:
        value = getattr(config, name)
        if not holds(value):
            raise ValueError(f"{name} must lie in {interval}, got {value}")


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
        """Inverse of ``state_arrays`` on a freshly built policy; raises
        ``KeyError`` or ``ValueError`` for arrays that do not fit it."""

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

    The softmax learners (A2C, eNAC) act through ``softmax_act``, which
    returns the action with the masked probabilities p of the net that
    acted.  p[action] is pi(a), not the epsilon-mixture probability
    mu(a) = epsilon / n_legal + (1 - epsilon) * pi(a) the action was
    drawn with.  A2C stores pi(a) as its behaviour probability, so its
    replay weights divide by the wrong probability.  Storing mu(a)
    instead is the fix that ROADMAP.md holds open; it moves the A2C
    reference digests.
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

    def softmax_act(self, logits: np.ndarray, mask: np.ndarray,
                    rng: np.random.Generator) -> tuple[int, np.ndarray]:
        """The action a softmax learner takes on one row of ``logits``,
        and p, the masked probabilities it read them as.

        Outside training it is greedy on p, not on the logits (exp
        rounding can tie two legal actions the logits tell apart), ties
        going to the lowest index.  In training it draws uniformly over
        the legal actions with probability epsilon, and from p
        otherwise.
        """
        p = masked_softmax(logits, mask)[0]
        if not self.training:
            return masked_argmax(p, mask), p
        if rng.random() < self.epsilon:
            return uniform_legal(mask, rng), p
        return int(rng.choice(self.action_count, p=p / p.sum())), p

    def state_arrays(self) -> dict[str, np.ndarray]:
        return self.net.named_params()

    def restore_arrays(self, arrays: dict[str, np.ndarray]) -> None:
        # into the net the config sized, so its optimizer state and
        # buffers keep fitting it
        for name, view in self.net.named_params().items():
            if arrays[name].shape != view.shape:
                raise ValueError(f"{name} has shape {arrays[name].shape}, "
                                 f"expected {view.shape}")
            view[...] = arrays[name]


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
    try:
        policy = make_policy(algorithm, header["obs_dim"],
                             header["action_count"], ontology=ontology,
                             **header["config"])
        policy.restore_arrays(arrays)
    except (KeyError, TypeError, ValueError) as exc:
        raise CheckpointError(f"checkpoint {path} does not rebuild a policy: "
                              f"{type(exc).__name__}: {exc}") from exc
    if ontology is not None:
        # a domain-bound policy names its domain; a learner is checked
        # by the width of the belief vector it reads
        domain = header.get("domain")
        if domain and domain != ontology.code:
            raise CheckpointError(f"checkpoint {path} was built for "
                                  f"{domain}, got ontology {ontology.code}")
        if not domain and policy.obs_dim != belief_dim(ontology):
            raise CheckpointError(
                f"checkpoint {path} reads beliefs of width "
                f"{policy.obs_dim}, but the {ontology.code} ontology's "
                f"belief has width {belief_dim(ontology)}")
    return policy
