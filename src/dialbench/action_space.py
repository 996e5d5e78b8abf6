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
    REQUESTED_THRESHOLD,
    VALUE_OFFSET,
    BeliefState,
    layout_for,
)
from dialbench.domain import DONTCARE, Ontology
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

    method = belief.method_top
    legal[0] = method == "byconstraints"
    legal[1] = belief.any_requested
    legal[2] = method == "byalternatives" or belief.entity_offered > OFFERED_THRESHOLD
    # indices 3 (bye) and 4 (reqmore) always stay legal

    slots = belief.slot_summary
    base = len(SLOT_INDEPENDENT)
    legal[base::3] = slots.best <= REQUEST_SETTLED   # request until settled
    legal[base + 1::3] = ~slots.none_top             # confirm
    legal[base + 2::3] = ~slots.none_top             # select
    return legal


def _offer_items(entity, constraints: tuple[tuple[str, str], ...]
                 ) -> tuple[tuple[str, str], ...]:
    return (("name", entity.id),
            *((slot, entity.attributes[slot]) for slot, _ in constraints))


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
        values = ontology.slot_by_name[action.slot].values
        dist = belief.vector[layout_for(ontology).slot_slices[action.slot]]
        order = np.argsort(-dist[DONTCARE_IDX:], kind="stable") + DONTCARE_IDX
        labels = [DONTCARE if idx == DONTCARE_IDX else values[idx - VALUE_OFFSET]
                  for idx in order[:1 if action.kind == "confirm" else 2].tolist()]
        return DialogueAct(action.kind, tuple((action.slot, v) for v in labels))

    if action.kind == "inform_requested" and belief.offered_entity_id in (
        ontology.entity_by_id
    ):
        entity = ontology.entity_by_id[belief.offered_entity_id]
        if belief.any_requested:
            asked = [slot.name for slot, prob in zip(ontology.requestable_slots,
                                                     belief.requested.tolist())
                     if prob > REQUESTED_THRESHOLD]
        else:
            # argmax is the first of the most probable, as a stable sort's
            asked = [ontology.requestable_slots[belief.requested.argmax()].name]
        items = [("name", entity.id)]
        items.extend((s, entity.attributes[s]) for s in asked)
        return DialogueAct("inform_requested", tuple(items))

    constraints = belief.top_constraints
    if action.kind == "inform_alternatives":
        alternative = next((e for e in belief.matches
                            if e.id != belief.offered_entity_id), None)
        if alternative is not None:
            return DialogueAct("inform_alternatives",
                               _offer_items(alternative, constraints))
        return DialogueAct("inform_alternatives", (("name", "none"), *constraints))

    # inform_byconstraints, and the inform_requested fallback
    if belief.matches:
        return DialogueAct("inform", _offer_items(belief.matches[0], constraints))
    return DialogueAct("inform", (("name", "none"), *constraints))
