"""Dialogue MDP: 18 standard tasks (6 environments x 3 domains).

Environments differ in error model (an ``error_channel.PRESETS`` entry,
which fixes the semantic error rate), whether action masks apply, and the
user population:

    env  error preset  error rate  masks  users
    1    clean         0.00        on     standard
    2    clean         0.00        off    standard
    3    noisy15       0.15        on     standard
    4    noisy15       0.15        off    standard
    5    noisy15       0.15        on     unfriendly
    6    noisy30       0.30        on     standard

``TASKS`` holds the 18 tasks, each environment crossed with each domain;
a task id such as ``env3-SFR`` names exactly one of them.

An episode runs for at most 25 system turns.  Every system turn costs 1;
a dialogue that fulfils the user's goal earns a +20 bonus on its final
turn, so the undiscounted return is 20 * success - turns.  Each learner
discounts with its own ``gamma``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace
from typing import IO

import numpy as np

from dialbench.action_space import SummaryAction, build_action_set, compute_mask, summary_to_master
from dialbench.belief_tracker import BeliefState, flatten, init_belief, update
from dialbench.domain import DOMAIN_CODES, Ontology, generate_domain
from dialbench.error_channel import PRESETS, ErrorParams, corrupt
from dialbench.semantics import DialogueAct, NBestList, serialize_act
from dialbench.simulated_user import (
    PROFILES,
    ProfileDistribution,
    SimulatedUser,
    is_goal_fulfilled,
    sample_goal,
    sample_params,
)

# Each environment's error preset, whether masks apply, and its users.
_ENV_ROWS = {
    1: ("clean", True, "standard"),
    2: ("clean", False, "standard"),
    3: ("noisy15", True, "standard"),
    4: ("noisy15", False, "standard"),
    5: ("noisy15", True, "unfriendly"),
    6: ("noisy30", True, "standard"),
}

MAX_TURNS = 25
SUCCESS_REWARD = 20.0
TURN_PENALTY = 1.0


@dataclass(frozen=True)
class TaskConfig:
    task_id: str
    env_index: int
    domain_code: str
    error_preset: str
    ser: float
    masks_enabled: bool
    user_profile: str


TASKS = {
    f"env{env}-{code}": TaskConfig(
        task_id=f"env{env}-{code}",
        env_index=env,
        domain_code=code,
        error_preset=preset,
        ser=PRESETS[preset].ser,
        masks_enabled=masks,
        user_profile=profile,
    )
    for env, (preset, masks, profile) in _ENV_ROWS.items()
    for code in DOMAIN_CODES
}


def make_task(task_id: str) -> TaskConfig:
    """The task ``task_id``, one of ``list_tasks()``."""
    try:
        return TASKS[task_id]
    except KeyError:
        raise ValueError(f"unknown task id {task_id!r}") from None


def list_tasks() -> list[str]:
    return list(TASKS)


@dataclass
class StepResult:
    belief: BeliefState
    observation: np.ndarray
    mask: np.ndarray
    reward: float
    done: bool


@dataclass
class TurnRecord:
    turn: int
    system_act: DialogueAct
    user_act: DialogueAct | None
    nbest: NBestList | None
    belief: BeliefState | None
    action_index: int | None
    fallback: bool = False


@dataclass
class EpisodeResult:
    success: bool
    turns: int
    final_reward: float
    trace: list[TurnRecord]


class ContractViolation(RuntimeError):
    """Stepping a finished episode or taking a masked action."""


class DialogueEnv:
    """One reusable environment; reset() starts a fresh dialogue.

    The observation and mask are derived once per belief and kept until
    the next one: ``step`` checks legality against the mask the policy
    was given, and a terminal step hands back those of the final belief.
    """

    def __init__(self, task: TaskConfig, error_params: ErrorParams | None = None,
                 profile: ProfileDistribution | None = None):
        self.task = task
        self.ontology = generate_domain(task.domain_code)
        base = error_params if error_params is not None else PRESETS[task.error_preset]
        # other error params keep the task's fixed rate
        if abs(base.ser - task.ser) > 1e-12:
            base = replace(base, ser=task.ser)
        self.error_params = base
        self.profile = profile if profile is not None else PROFILES[task.user_profile]
        self.actions: tuple[SummaryAction, ...] = build_action_set(self.ontology)
        self._user: SimulatedUser | None = None
        self._belief: BeliefState | None = None
        self._observation: np.ndarray | None = None
        self._mask: np.ndarray | None = None
        self._done = True
        self._success = False
        self._turns = 0
        self._trace: list[TurnRecord] = []

    @property
    def action_count(self) -> int:
        return len(self.actions)

    def _set_belief(self, belief: BeliefState) -> None:
        self._belief = belief
        self._observation = flatten(belief, self.ontology)
        self._mask = compute_mask(belief, self.ontology, self.task.masks_enabled)
        self._mask.flags.writeable = False

    def _step_result(self, reward: float) -> StepResult:
        return StepResult(belief=self._belief, observation=self._observation,
                          mask=self._mask, reward=reward, done=self._done)

    def reset(self, rng: np.random.Generator) -> StepResult:
        params = sample_params(self.profile, rng)
        goal = sample_goal(self.ontology, params, rng)
        self._user = SimulatedUser(self.ontology, params, goal, rng)
        self._done = False
        self._turns = 0

        opening = self._user.opening_act(rng)
        nbest = corrupt(opening, self.error_params, self.ontology, rng)
        hello = DialogueAct("hello")
        self._set_belief(update(init_belief(self.ontology), nbest, hello, self.ontology))
        self._trace = [TurnRecord(0, hello, opening, nbest, self._belief, None)]
        return self._step_result(0.0)

    def step(self, action_index: int, rng: np.random.Generator) -> StepResult:
        if self._done:
            raise ContractViolation("step() on a finished episode")
        if not 0 <= action_index < len(self.actions):
            raise ContractViolation(f"action index {action_index} out of range")
        if not self._mask[action_index]:
            raise ContractViolation(
                f"action {self.actions[action_index].label()} is masked"
            )

        action = self.actions[action_index]
        system_act = summary_to_master(action, self._belief, self.ontology)
        fallback = (action.kind == "inform_requested"
                    and system_act.act_type != "inform_requested")
        self._turns += 1

        # Either side saying bye ends the dialogue on the current belief.
        user_act = nbest = None
        if system_act.act_type != "bye":
            user_act = self._user.respond(system_act, rng)
            if user_act.act_type != "bye":
                nbest = corrupt(user_act, self.error_params, self.ontology, rng)
                self._set_belief(update(self._belief, nbest, system_act, self.ontology))
        record = TurnRecord(self._turns, system_act, user_act, nbest,
                            self._belief, action_index, fallback)
        if nbest is None or self._turns >= MAX_TURNS:
            return self._end(record)

        self._trace.append(record)
        return self._step_result(-TURN_PENALTY)

    def _end(self, record: TurnRecord) -> StepResult:
        """Close the episode on its last turn; success is judged once."""
        self._trace.append(record)
        self._success = is_goal_fulfilled(
            self._user.goal, [t.system_act for t in self._trace], self.ontology)
        reward = -TURN_PENALTY + (SUCCESS_REWARD if self._success else 0.0)
        self._done = True
        return self._step_result(reward)

    def result(self) -> EpisodeResult:
        if not self._done or self._user is None:
            raise ContractViolation("result() before the episode finished")
        return EpisodeResult(
            success=self._success,
            turns=self._turns,
            final_reward=SUCCESS_REWARD * self._success - self._turns,
            trace=self._trace,
        )


def _nbest_payload(nbest: NBestList | None):
    if nbest is None:
        return None
    return {
        "hypotheses": [[serialize_act(h.act), round(h.confidence, 6)] for h in nbest],
        "residual": round(nbest.residual, 6),
    }


def write_trace(episode: EpisodeResult, stream: IO[str],
                ontology: Ontology | None = None) -> None:
    """One JSON line per turn; beliefs serialized sparsely."""
    for rec in episode.trace:
        row = {
            "turn": rec.turn,
            "system_act": serialize_act(rec.system_act) if rec.system_act else None,
            "user_act": serialize_act(rec.user_act) if rec.user_act else None,
            "nbest": _nbest_payload(rec.nbest),
            "action_index": rec.action_index,
            "fallback": rec.fallback,
        }
        if ontology is not None and rec.belief is not None:
            vec = flatten(rec.belief, ontology)
            nz = np.nonzero(vec)[0]
            row["belief"] = [[int(i), round(float(vec[i]), 6)] for i in nz]
        stream.write(json.dumps(row) + "\n")
