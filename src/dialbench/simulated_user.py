"""Agenda-driven user simulator.

A dialogue starts by sampling a behaviour profile (26 parameters, each
uniform on a per-profile interval) and a goal (constraints drawn from a
database entity, so the initial goal is always satisfiable, plus a
non-empty set of requested slots).  The user keeps a stack of pending acts
with ``bye()`` at the bottom; each system act rewrites the stack according
to the rule table in docs/user_rules.md, then the user pops its reply.

``is_goal_fulfilled`` is the single trace-level success criterion used by
the environment: the system must have offered an entity consistent with
every (final) goal constraint, or correctly asserted that nothing matches,
and every requested slot of an accepted entity must have been informed.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from functools import cached_property

import numpy as np

from dialbench.domain import DONTCARE, Entity, Ontology, query
from dialbench.semantics import DialogueAct

_SYSTEM_INFORM_ACTS = frozenset(
    {"inform", "inform_byname", "inform_alternatives", "inform_requested"}
)

_INT_PARAMS = frozenset(
    {
        "max_goal_changes",
        "patience",
        "max_requests_per_turn",
        "goal_min_constraints",
        "goal_max_constraints",
        "goal_min_requests",
        "goal_max_requests",
    }
)


@dataclass(frozen=True)
class UserParams:
    """One sampled behaviour profile.  docs/parameters.md lists semantics."""

    p_inform_all: float            # open with every constraint in one act
    p_extra_info: float            # volunteer an extra constraint when answering
    p_repeat: float                # repeat the previous act verbatim
    p_confirm_when_asked: float    # answer a correct confirm with affirm
    p_affirm_error: float          # wrongly affirm an incorrect confirm
    p_request_alternatives: float  # reqalts instead of correcting a bad offer
    p_by_name: float               # goal opens by naming the target entity
    p_random_goal_change: float    # per-turn chance of re-sampling a constraint
    max_goal_changes: int          # cap on such changes per dialogue
    patience: int                  # tolerated unhelpful turns before hanging up
    p_patience_old_style: float    # frustration never resets when drawn true
    max_requests_per_turn: int     # request slots bundled into one act
    p_open_with_hello: float       # first act is a bare hello()
    p_request_at_start: float      # queue one request before the constraints
    p_silence: float               # respond null() and keep the agenda
    p_ignore_request: float        # ignore the asked slot, pursue own agenda
    p_recheck_request: float       # re-ask an answered request before bye
    p_select_affirm: float         # affirm when a select leads with the truth
    p_deny: float                  # deny(s=wrong) before the correction
    p_relax_on_noentity: float     # drop a constraint after a correct no-match
    p_reqalts_after_offer: float   # ask for alternatives despite a good offer
    goal_min_constraints: int
    goal_max_constraints: int
    goal_min_requests: int
    goal_max_requests: int
    p_abandon: float               # per-turn chance of simply giving up


PARAM_NAMES = tuple(f.name for f in fields(UserParams))
assert len(PARAM_NAMES) == 26


@dataclass(frozen=True)
class ProfileDistribution:
    name: str
    intervals: dict[str, tuple[float, float]]

    def __post_init__(self) -> None:
        missing = set(PARAM_NAMES) - set(self.intervals)
        extra = set(self.intervals) - set(PARAM_NAMES)
        if missing or extra:
            raise ValueError(f"bad profile: missing={missing} extra={extra}")
        for name, (lo, hi) in self.intervals.items():
            if lo > hi:
                raise ValueError(f"{name}: interval [{lo}, {hi}] is inverted")
            if name not in _INT_PARAMS and not (0.0 <= lo and hi <= 1.0):
                raise ValueError(f"{name}: probability interval outside [0, 1]")

    @cached_property
    def rows(self) -> tuple[tuple[str, bool, float, float], ...]:
        """(name, is_int, low, high) per parameter, in ``PARAM_NAMES``
        order; an integer's high is exclusive."""
        rows = []
        for name in PARAM_NAMES:
            lo, hi = self.intervals[name]
            is_int = name in _INT_PARAMS
            rows.append((name, True, int(lo), int(hi) + 1) if is_int
                        else (name, False, float(lo), float(hi)))
        return tuple(rows)


STANDARD_PROFILE = ProfileDistribution(
    "standard",
    {
        "p_inform_all": (0.4, 0.9),
        "p_extra_info": (0.2, 0.6),
        "p_repeat": (0.0, 0.05),
        "p_confirm_when_asked": (0.8, 1.0),
        "p_affirm_error": (0.0, 0.02),
        "p_request_alternatives": (0.3, 0.7),
        "p_by_name": (0.0, 0.1),
        "p_random_goal_change": (0.0, 0.05),
        "max_goal_changes": (0, 2),
        "patience": (2, 5),
        "p_patience_old_style": (0.0, 1.0),
        "max_requests_per_turn": (1, 3),
        "p_open_with_hello": (0.0, 0.3),
        "p_request_at_start": (0.0, 0.2),
        "p_silence": (0.0, 0.03),
        "p_ignore_request": (0.0, 0.1),
        "p_recheck_request": (0.0, 0.15),
        "p_select_affirm": (0.5, 1.0),
        "p_deny": (0.0, 0.3),
        "p_relax_on_noentity": (0.5, 1.0),
        "p_reqalts_after_offer": (0.0, 0.15),
        "goal_min_constraints": (1, 2),
        "goal_max_constraints": (2, 5),
        "goal_min_requests": (1, 1),
        "goal_max_requests": (1, 4),
        "p_abandon": (0.0, 0.005),
    },
)

# The unfriendly population barely volunteers anything: it answers what it
# is asked and nothing more, and runs out of patience sooner.
UNFRIENDLY_PROFILE = ProfileDistribution(
    "unfriendly",
    {
        **STANDARD_PROFILE.intervals,
        "p_inform_all": (0.0, 0.1),
        "p_extra_info": (0.0, 0.1),
        "p_open_with_hello": (0.2, 0.6),
        "p_ignore_request": (0.05, 0.25),
        "p_silence": (0.0, 0.1),
        "patience": (1, 4),
    },
)

PROFILES = {"standard": STANDARD_PROFILE, "unfriendly": UNFRIENDLY_PROFILE}


def sample_params(profile: ProfileDistribution, rng: np.random.Generator) -> UserParams:
    """One profile, drawn in ``PARAM_NAMES`` order.  A probability is
    ``low + (high - low) * rng.random()``, the draw and the arithmetic of
    ``rng.uniform(low, high)``."""
    drawn = {}
    for name, is_int, lo, hi in profile.rows:
        if is_int:
            drawn[name] = int(rng.integers(lo, hi))
        else:
            drawn[name] = lo + (hi - lo) * rng.random()
    return UserParams(**drawn)


@dataclass
class UserGoal:
    constraints: dict[str, str]
    requests: tuple[str, ...]
    satisfiable: bool
    byname_entity: str | None = None


def sample_goal(ontology: Ontology, params: UserParams,
                rng: np.random.Generator) -> UserGoal:
    """Draw a goal whose constraints come from one database entity."""
    entity = ontology.entities[int(rng.integers(len(ontology.entities)))]

    lo = max(1, min(params.goal_min_constraints, ontology.n_constraint))
    hi = max(lo, min(params.goal_max_constraints, ontology.n_constraint))
    k = int(rng.integers(lo, hi + 1))
    order = rng.permutation(ontology.n_constraint)[:k]
    names = [ontology.constraint_slots[int(i)].name for i in sorted(order)]
    constraints = {s: entity.attributes[s] for s in names}

    lo_r = max(1, min(params.goal_min_requests, ontology.n_requestable))
    hi_r = max(lo_r, min(params.goal_max_requests, ontology.n_requestable))
    m = int(rng.integers(lo_r, hi_r + 1))
    req_order = rng.permutation(ontology.n_requestable)[:m]
    requests = tuple(
        ontology.requestable_slots[int(i)].name for i in sorted(req_order)
    )

    byname = entity.id if rng.random() < params.p_by_name else None
    return UserGoal(
        constraints=constraints,
        requests=requests,
        satisfiable=True,
        byname_entity=byname,
    )


class SimulatedUser:
    """Live dialogue-side state of one simulated user."""

    def __init__(self, ontology: Ontology, params: UserParams, goal: UserGoal,
                 rng: np.random.Generator):
        self.ontology = ontology
        self.params = params
        self.goal = goal
        self.old_style_patience = rng.random() < params.p_patience_old_style
        self.informed: dict[str, str] = {}
        self.offered: Entity | None = None
        self.answered: set[str] = set()
        self.frustration = 0
        self.goal_changes = 0
        self.nomatch_ok = False
        self.terminated = False
        self.last_act: DialogueAct | None = None
        self.last_system: DialogueAct | None = None
        self.agenda: list[DialogueAct] = []
        self._build_agenda(rng)

    # -- agenda construction ------------------------------------------------

    def _request_chunks(self, slots: list[str]) -> list[DialogueAct]:
        size = max(1, self.params.max_requests_per_turn)
        return [
            DialogueAct("request", tuple((s, None) for s in slots[i : i + size]))
            for i in range(0, len(slots), size)
        ]

    def _build_agenda(self, rng: np.random.Generator) -> None:
        stack = [DialogueAct("bye")]
        for act in reversed(self._request_chunks(list(self.goal.requests))):
            stack.append(act)
        names = list(self.goal.constraints)
        if rng.random() < self.params.p_inform_all:
            if names:
                stack.append(
                    DialogueAct(
                        "inform",
                        tuple((s, self.goal.constraints[s]) for s in names),
                    )
                )
        else:
            rng.shuffle(names)
            for s in reversed(names):
                stack.append(DialogueAct("inform", ((s, self.goal.constraints[s]),)))
        if self.goal.byname_entity is not None:
            stack.append(DialogueAct("inform", (("name", self.goal.byname_entity),)))
        if self.goal.requests and rng.random() < self.params.p_request_at_start:
            stack.append(DialogueAct("request", ((self.goal.requests[0], None),)))
        if rng.random() < self.params.p_open_with_hello:
            stack.append(DialogueAct("hello"))
        self.agenda = stack

    # -- bookkeeping helpers ------------------------------------------------

    def _drop_pending_informs(self, slot: str) -> None:
        kept = []
        for act in self.agenda:
            if act.act_type == "inform" and any(s == slot for s, _ in act.items):
                remaining = tuple((s, v) for s, v in act.items if s != slot)
                if remaining:
                    kept.append(DialogueAct("inform", remaining))
            else:
                kept.append(act)
        self.agenda = kept

    def _drop_answered_requests(self) -> None:
        kept = []
        for act in self.agenda:
            if act.act_type == "request":
                remaining = tuple(
                    (s, None) for s, _ in act.items if s not in self.answered
                )
                if remaining:
                    kept.append(DialogueAct("request", remaining))
            else:
                kept.append(act)
        self.agenda = kept

    def _ensure_requests_queued(self) -> None:
        pending = {
            s for act in self.agenda if act.act_type == "request" for s, _ in act.items
        }
        missing = [
            s for s in self.goal.requests if s not in self.answered and s not in pending
        ]
        if not missing:
            return
        bottom = self.agenda.pop(0) if self.agenda and self.agenda[0].act_type == "bye" else None
        chunks = self._request_chunks(missing)
        self.agenda = ([bottom] if bottom else []) + list(reversed(chunks)) + self.agenda

    def _pop(self) -> DialogueAct:
        if not self.agenda:
            return DialogueAct("bye")
        return self.agenda.pop()

    def _push(self, act: DialogueAct) -> None:
        self.agenda.append(act)

    def _truth(self, slot: str) -> str:
        return self.goal.constraints.get(slot, DONTCARE)

    def _refresh_satisfiable(self) -> None:
        self.goal.satisfiable = bool(query(self.ontology, self.goal.constraints))

    def fulfilled(self) -> bool:
        if self.nomatch_ok and not self.goal.satisfiable:
            return True
        return self.offered is not None and set(self.goal.requests) <= self.answered

    # -- the response rules -------------------------------------------------

    def opening_act(self, rng: np.random.Generator) -> DialogueAct:
        return self._emit(self._pop())

    def respond(self, system_act: DialogueAct,
                rng: np.random.Generator) -> DialogueAct:
        if self.terminated:
            return DialogueAct("bye")

        if rng.random() < self.params.p_abandon:
            return self._emit(DialogueAct("bye"))

        if self._unhelpful(system_act):
            self.frustration += 1
            if self.frustration > self.params.patience:
                self.last_system = system_act
                return self._emit(DialogueAct("bye"))
        elif not self.old_style_patience:
            self.frustration = 0
        self.last_system = system_act

        if (
            self.goal_changes < self.params.max_goal_changes
            and self.goal.constraints
            and rng.random() < self.params.p_random_goal_change
        ):
            self._change_goal(rng)

        if rng.random() < self.params.p_silence:
            return DialogueAct("null")
        if self.last_act is not None and rng.random() < self.params.p_repeat:
            return self.last_act

        handler = {
            "request": self._on_request,
            "confirm": self._on_confirm,
            "select": self._on_select,
            "reqmore": self._on_reqmore,
        }.get(system_act.act_type)
        if handler is not None:
            handler(system_act, rng)
        elif system_act.act_type in _SYSTEM_INFORM_ACTS:
            self._on_inform(system_act, rng)
        # hello, null and anything else: just work the agenda

        return self._emit(self._pop())

    def _emit(self, act: DialogueAct) -> DialogueAct:
        if act.act_type == "inform":
            for slot, value in act.items:
                if slot != "name" and value is not None:
                    self.informed[slot] = value
        if act.act_type == "bye":
            self.terminated = True
        self.last_act = act
        return act

    def _unhelpful(self, system_act: DialogueAct) -> bool:
        if system_act == self.last_system:
            return True
        if system_act.act_type == "request" and system_act.items:
            slot = system_act.items[0][0]
            if slot in self.informed and self.informed[slot] == self._truth(slot):
                return True
        return False

    def _change_goal(self, rng: np.random.Generator) -> None:
        names = sorted(self.goal.constraints)
        slot_name = names[int(rng.integers(len(names)))]
        slot = self.ontology.slot_by_name[slot_name]
        alternatives = [v for v in slot.values if v != self.goal.constraints[slot_name]]
        if not alternatives:
            return
        new_value = alternatives[int(rng.integers(len(alternatives)))]
        self.goal.constraints[slot_name] = new_value
        self.goal_changes += 1
        self.informed.pop(slot_name, None)
        self.nomatch_ok = False
        self._refresh_satisfiable()
        self._drop_pending_informs(slot_name)
        self._push(DialogueAct("inform", ((slot_name, new_value),)))

    def _answer_slot_items(self, slot: str, rng: np.random.Generator
                           ) -> tuple[tuple[str, str], ...]:
        items = [(slot, self._truth(slot))]
        if self._truth(slot) != DONTCARE and rng.random() < self.params.p_extra_info:
            fresh = [
                s
                for s in self.goal.constraints
                if s != slot and s not in self.informed
            ]
            if fresh:
                extra = fresh[int(rng.integers(len(fresh)))]
                items.append((extra, self.goal.constraints[extra]))
        return tuple(items)

    def _on_request(self, act: DialogueAct, rng: np.random.Generator) -> None:
        if not act.items or rng.random() < self.params.p_ignore_request:
            return
        slot = act.items[0][0]
        if slot not in self.ontology.slot_by_name:
            return
        items = self._answer_slot_items(slot, rng)
        for s, _ in items:
            self._drop_pending_informs(s)
        self._push(DialogueAct("inform", items))

    def _on_confirm(self, act: DialogueAct, rng: np.random.Generator) -> None:
        if not act.items:
            return
        slot, value = act.items[0]
        if slot not in self.ontology.slot_by_name:
            return
        truth = self._truth(slot)
        if value == truth:
            if rng.random() < self.params.p_confirm_when_asked:
                self._push(DialogueAct("affirm"))
            else:
                self._drop_pending_informs(slot)
                self._push(DialogueAct("inform", ((slot, truth),)))
            return
        if rng.random() < self.params.p_affirm_error:
            self._push(DialogueAct("affirm"))
            return
        self._drop_pending_informs(slot)
        self._push(DialogueAct("inform", ((slot, truth),)))
        if rng.random() < self.params.p_deny:
            self._push(DialogueAct("deny", ((slot, value),)))

    def _on_select(self, act: DialogueAct, rng: np.random.Generator) -> None:
        if not act.items:
            return
        slot = act.items[0][0]
        if slot not in self.ontology.slot_by_name:
            return
        truth = self._truth(slot)
        offered = [v for _, v in act.items]
        if offered and offered[0] == truth and rng.random() < self.params.p_select_affirm:
            self._push(DialogueAct("affirm"))
            return
        self._drop_pending_informs(slot)
        self._push(DialogueAct("inform", ((slot, truth),)))

    def _on_reqmore(self, act: DialogueAct, rng: np.random.Generator) -> None:
        if not self.fulfilled():
            return
        if self.goal.requests and rng.random() < self.params.p_recheck_request:
            slot = self.goal.requests[int(rng.integers(len(self.goal.requests)))]
            self._push(DialogueAct("request", ((slot, None),)))
            self.answered.discard(slot)
            return
        self._push(DialogueAct("bye"))

    def _on_inform(self, act: DialogueAct, rng: np.random.Generator) -> None:
        name = act.name_value()
        if name == "none":
            self._on_nomatch(act, rng)
            return
        entity = self.ontology.entity_by_id.get(name) if name else None
        if entity is None:
            # An inform that offers nothing identifiable; treat like chatter.
            return
        consistent = all(
            entity.attributes.get(s) == v for s, v in self.goal.constraints.items()
        )
        if not consistent:
            wrong = next(
                (s, v)
                for s, v in self.goal.constraints.items()
                if entity.attributes.get(s) != v
            )
            if rng.random() < self.params.p_request_alternatives:
                self._push(DialogueAct("reqalts"))
                return
            self._drop_pending_informs(wrong[0])
            self._push(DialogueAct("inform", ((wrong[0], wrong[1]),)))
            if rng.random() < self.params.p_deny:
                actual = entity.attributes.get(wrong[0])
                if actual is not None:
                    self._push(DialogueAct("deny", ((wrong[0], actual),)))
            return

        if self.offered is None or self.offered.id != entity.id:
            self.offered = entity
            self.answered = set()
        for slot, value in act.items:
            if slot == "name" or value is None:
                continue
            if slot in self.goal.requests and entity.attributes.get(slot) == value:
                self.answered.add(slot)
        self._drop_answered_requests()
        self._ensure_requests_queued()
        if rng.random() < self.params.p_reqalts_after_offer:
            self._push(DialogueAct("reqalts"))

    def _on_nomatch(self, act: DialogueAct, rng: np.random.Generator) -> None:
        if self.goal.satisfiable:
            # The system is wrong; restate a constraint it got wrong, or any.
            asserted = {s: v for s, v in act.items if s != "name" and v is not None}
            candidates = [
                s
                for s, v in asserted.items()
                if s in self.goal.constraints and self.goal.constraints[s] != v
            ] or sorted(self.goal.constraints)
            if not candidates:
                return
            slot = candidates[int(rng.integers(len(candidates)))]
            self._drop_pending_informs(slot)
            self._push(DialogueAct("inform", ((slot, self.goal.constraints[slot]),)))
            return
        self.nomatch_ok = True
        if self.goal.constraints and rng.random() < self.params.p_relax_on_noentity:
            names = sorted(self.goal.constraints)
            slot = names[int(rng.integers(len(names)))]
            del self.goal.constraints[slot]
            self.informed.pop(slot, None)
            self._refresh_satisfiable()
            self._drop_pending_informs(slot)
            self._push(DialogueAct("inform", ((slot, DONTCARE),)))
        else:
            self._push(DialogueAct("bye"))


def is_goal_fulfilled(goal: UserGoal, system_acts: list[DialogueAct],
                      ontology: Ontology) -> bool:
    """Trace-level success test against the final goal state."""
    nomatch_correct = False
    offers: list[tuple[int, Entity]] = []
    for i, act in enumerate(system_acts):
        if act.act_type not in _SYSTEM_INFORM_ACTS:
            continue
        name = act.name_value()
        if name is None:
            continue
        if name == "none":
            if not query(ontology, goal.constraints):
                nomatch_correct = True
            continue
        entity = ontology.entity_by_id.get(name)
        if entity is None:
            continue
        if all(entity.attributes.get(s) == v for s, v in goal.constraints.items()):
            offers.append((i, entity))

    if nomatch_correct and not offers:
        return True

    for _, entity in offers:
        answered = set()
        for act in system_acts:
            if act.act_type not in _SYSTEM_INFORM_ACTS:
                continue
            if act.name_value() != entity.id:
                continue
            for slot, value in act.items:
                if slot == "name" or value is None:
                    continue
                if slot in goal.requests and entity.attributes.get(slot) == value:
                    answered.add(slot)
        if set(goal.requests) <= answered:
            return True
    return False
