"""Fixed summary action set, action masks, and the master-act mapping.

The action set is five slot-independent actions followed by three actions
per constraint slot in ontology order:

    inform_byconstraints, inform_requested, inform_alternatives, bye,
    reqmore, then per slot s: request(s), confirm(s), select(s)

so a domain with |S| constraint slots has 5 + 3|S| summary actions.  The
ordering is part of the package contract (see docs/actions.md); learned
policies index Q-values and logits by it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from dialbench.belief_tracker import (
    DONTCARE_IDX,
    VALUE_OFFSET,
    BeliefState,
    method_top,
)
from dialbench.domain import DONTCARE, Ontology, query
from dialbench.semantics import DialogueAct

SLOT_INDEPENDENT = (
    "inform_byconstraints",
    "inform_requested",
    "inform_alternatives",
    "bye",
    "reqmore",
)
PER_SLOT = ("request", "confirm", "select")

# Threshold above which a slot is considered settled and further requests
# for it are masked out.
REQUEST_SETTLED = 0.99
REQUESTED_THRESHOLD = 0.5
OFFERED_THRESHOLD = 0.5


@dataclass(frozen=True)
class SummaryAction:
    kind: str
    slot: str | None
    index: int

    def label(self) -> str:
        return self.kind if self.slot is None else f"{self.kind}({self.slot})"


def build_action_set(ontology: Ontology) -> tuple[SummaryAction, ...]:
    actions = [
        SummaryAction(kind, None, i) for i, kind in enumerate(SLOT_INDEPENDENT)
    ]
    idx = len(actions)
    for slot in ontology.constraint_slots:
        for kind in PER_SLOT:
            actions.append(SummaryAction(kind, slot.name, idx))
            idx += 1
    return tuple(actions)


def compute_mask(belief: BeliefState, ontology: Ontology,
                 masks_enabled: bool = True) -> np.ndarray:
    """Legality vector over the action set; True means executable.

    bye and reqmore stay legal in every state, so the mask never blanks
    out completely.
    """
    n = 5 + 3 * ontology.n_constraint
    legal = np.ones(n, dtype=bool)
    if not masks_enabled:
        return legal

    method = method_top(belief)
    legal[0] = method == "byconstraints"
    legal[1] = bool(np.any(belief.requested > REQUESTED_THRESHOLD))
    legal[2] = method == "byalternatives" or belief.entity_offered > OFFERED_THRESHOLD
    # indices 3 (bye) and 4 (reqmore) always stay legal

    slots = belief.slot_summary
    base = len(SLOT_INDEPENDENT)
    legal[base::3] = slots.best <= REQUEST_SETTLED   # request until settled
    legal[base + 1::3] = ~slots.none_top             # confirm
    legal[base + 2::3] = ~slots.none_top             # select
    return legal


def _top_constraints(belief: BeliefState, ontology: Ontology) -> dict[str, str]:
    """Constraint dict from per-slot belief tops; none/dontcare drop out."""
    return {slot.name: slot.values[idx - VALUE_OFFSET]
            for slot, idx in zip(ontology.constraint_slots,
                                 belief.slot_summary.top.tolist())
            if idx >= VALUE_OFFSET}


def _offer_items(entity, constraints: dict[str, str],
                 ontology: Ontology) -> tuple[tuple[str, str], ...]:
    items = [("name", entity.id)]
    for slot in ontology.constraint_slots:
        if slot.name in constraints:
            items.append((slot.name, entity.attributes[slot.name]))
    return tuple(items)


def _nomatch_items(constraints: dict[str, str], ontology: Ontology
                   ) -> tuple[tuple[str, str], ...]:
    items = [("name", "none")]
    for slot in ontology.constraint_slots:
        if slot.name in constraints:
            items.append((slot.name, constraints[slot.name]))
    return tuple(items)


def summary_to_master(action: SummaryAction, belief: BeliefState,
                      ontology: Ontology) -> DialogueAct:
    """Ground a summary action in the current belief.

    inform_requested with no entity on the table degrades to the
    by-constraints inform; the environment records such fallbacks in the
    episode trace.
    """
    if action.kind == "bye":
        return DialogueAct("bye")
    if action.kind == "reqmore":
        return DialogueAct("reqmore")

    if action.kind == "request":
        return DialogueAct("request", ((action.slot, None),))

    if action.kind in ("confirm", "select"):
        slot = ontology.slot_by_name[action.slot]
        dist = belief.slot_beliefs[action.slot]
        order = np.argsort(-dist[DONTCARE_IDX:], kind="stable") + DONTCARE_IDX
        labels = []
        for idx in order:
            labels.append(
                DONTCARE if idx == DONTCARE_IDX else slot.values[idx - VALUE_OFFSET]
            )
        if action.kind == "confirm":
            return DialogueAct("confirm", ((action.slot, labels[0]),))
        picked = labels[: min(2, len(labels))]
        return DialogueAct("select", tuple((action.slot, v) for v in picked))

    constraints = _top_constraints(belief, ontology)

    if action.kind == "inform_requested" and belief.offered_entity_id in (
        ontology.entity_by_id
    ):
        entity = ontology.entity_by_id[belief.offered_entity_id]
        asked = [
            slot.name
            for i, slot in enumerate(ontology.requestable_slots)
            if belief.requested[i] > REQUESTED_THRESHOLD
        ]
        if not asked:
            order = np.argsort(-belief.requested, kind="stable")
            asked = [ontology.requestable_slots[int(order[0])].name]
        items = [("name", entity.id)]
        items.extend((s, entity.attributes[s]) for s in asked)
        return DialogueAct("inform_requested", tuple(items))

    if action.kind == "inform_alternatives":
        matches = query(ontology, constraints)
        alternatives = [e for e in matches if e.id != belief.offered_entity_id]
        if alternatives:
            return DialogueAct(
                "inform_alternatives",
                _offer_items(alternatives[0], constraints, ontology),
            )
        return DialogueAct("inform_alternatives", _nomatch_items(constraints, ontology))

    # inform_byconstraints, and the inform_requested fallback
    matches = query(ontology, constraints)
    if matches:
        return DialogueAct("inform", _offer_items(matches[0], constraints, ontology))
    return DialogueAct("inform", _nomatch_items(constraints, ontology))
