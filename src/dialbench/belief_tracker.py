"""Rule-based belief tracking over scored n-best input.

Each constraint slot carries a categorical belief over
``[none, dontcare, value...]``; evidence from the n-best list is folded in
with the focus rule

    b'(v) = c_v + (1 - sum_u c_u) * b(v)

where c_v is the total confidence this turn asserting value v.  ``none``
(nothing said yet) absorbs negative evidence such as denials.  Beyond the
slots the state tracks the user's method of interaction, which slots the
user has asked for, and two discourse flags.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from dialbench.domain import DONTCARE, Ontology
from dialbench.semantics import DialogueAct, NBestList

METHOD_VALUES = ("none", "byconstraints", "byname", "byalternatives", "finished")

# Index layout inside each slot distribution.
NONE_IDX = 0
DONTCARE_IDX = 1
VALUE_OFFSET = 2

_SYSTEM_INFORM_ACTS = frozenset(
    {"inform", "inform_byname", "inform_alternatives", "inform_requested"}
)


@dataclass(frozen=True)
class BeliefState:
    """Snapshot of the tracked state; arrays are never mutated in place."""

    slot_beliefs: dict[str, np.ndarray]
    method: np.ndarray
    requested: np.ndarray          # aligned with ontology.requestable_slots
    entity_offered: float
    offered_entity_id: str | None
    last_user_act_null: bool
    last_system_act: DialogueAct


class _Layout:
    """Per-ontology index maps shared by update and flatten."""

    def __init__(self, ontology: Ontology):
        self.constraint_names = [s.name for s in ontology.constraint_slots]
        self.value_index = {
            s.name: {v: VALUE_OFFSET + i for i, v in enumerate(s.values)}
            for s in ontology.constraint_slots
        }
        self.slot_dims = {
            s.name: VALUE_OFFSET + len(s.values) for s in ontology.constraint_slots
        }
        self.requestable_index = {
            s.name: i for i, s in enumerate(ontology.requestable_slots)
        }
        self.dim = (
            sum(self.slot_dims.values())
            + len(METHOD_VALUES)
            + len(self.requestable_index)
            + 2
        )


def layout_for(ontology: Ontology) -> _Layout:
    """The ontology's index maps, built on first use and stored on the
    ontology itself so they can neither outlive it nor be handed to
    another one."""
    found = ontology.derived.get("belief_layout")
    if found is None:
        found = ontology.derived["belief_layout"] = _Layout(ontology)
    return found


def belief_dim(ontology: Ontology) -> int:
    return layout_for(ontology).dim


def init_belief(ontology: Ontology) -> BeliefState:
    """All slots on none, method none, nothing requested."""
    lay = layout_for(ontology)
    slot_beliefs = {}
    for name, dim in lay.slot_dims.items():
        dist = np.zeros(dim)
        dist[NONE_IDX] = 1.0
        slot_beliefs[name] = dist
    method = np.zeros(len(METHOD_VALUES))
    method[0] = 1.0
    return BeliefState(
        slot_beliefs=slot_beliefs,
        method=method,
        requested=np.zeros(len(lay.requestable_index)),
        entity_offered=0.0,
        offered_entity_id=None,
        last_user_act_null=False,
        last_system_act=DialogueAct("hello"),
    )


def _focus(prior: np.ndarray, evidence: np.ndarray) -> np.ndarray:
    mass = evidence.sum()
    if mass > 1.0:
        evidence = evidence / mass
        mass = 1.0
    out = evidence + (1.0 - mass) * prior
    np.clip(out, 0.0, None, out=out)
    return out / out.sum()


def update(belief: BeliefState, nbest: NBestList, system_act: DialogueAct,
           ontology: Ontology) -> BeliefState:
    """Fold one turn of observations into a new belief state."""
    lay = layout_for(ontology)

    # System-side effects are deterministic: an offer flips the discourse
    # flag, and informing a requestable slot clears the standing request.
    entity_offered = belief.entity_offered
    offered_id = belief.offered_entity_id
    requested = belief.requested.copy()
    if system_act.act_type in _SYSTEM_INFORM_ACTS:
        name = system_act.name_value()
        if name is not None and name != "none":
            entity_offered = 1.0
            offered_id = name
        for slot, value in system_act.items:
            if value is None or slot == "name":
                continue
            r_idx = lay.requestable_index.get(slot)
            if r_idx is not None:
                requested[r_idx] = 0.0

    slot_evidence = {
        name: np.zeros(dim) for name, dim in lay.slot_dims.items()
    }
    method_evidence = np.zeros(len(METHOD_VALUES))
    request_evidence = np.zeros(len(requested))

    confirm_item = None
    if system_act.act_type == "confirm" and system_act.items:
        confirm_item = system_act.items[0]

    for hyp in nbest:
        act, conf = hyp.act, hyp.confidence
        if act.act_type == "inform":
            named = act.name_value()
            has_slot_items = False
            for slot, value in act.items:
                if slot == "name" or value is None:
                    continue
                idx_map = lay.value_index.get(slot)
                if idx_map is None:
                    continue
                has_slot_items = True
                if value == DONTCARE:
                    slot_evidence[slot][DONTCARE_IDX] += conf
                elif value in idx_map:
                    slot_evidence[slot][idx_map[value]] += conf
            if named is not None and named != "none":
                method_evidence[METHOD_VALUES.index("byname")] += conf
            elif has_slot_items:
                method_evidence[METHOD_VALUES.index("byconstraints")] += conf
        elif act.act_type == "request":
            for slot, _ in act.items:
                r_idx = lay.requestable_index.get(slot)
                if r_idx is not None:
                    request_evidence[r_idx] += conf
        elif act.act_type == "affirm" and confirm_item is not None:
            slot, value = confirm_item
            idx_map = lay.value_index.get(slot)
            if idx_map is not None:
                if value == DONTCARE:
                    slot_evidence[slot][DONTCARE_IDX] += conf
                elif value in idx_map:
                    slot_evidence[slot][idx_map[value]] += conf
        elif act.act_type == "negate" and confirm_item is not None:
            slot = confirm_item[0]
            if slot in slot_evidence:
                slot_evidence[slot][NONE_IDX] += conf
        elif act.act_type == "deny":
            # A denial retracts the value without telling us the right one.
            for slot, _value in act.items:
                if slot in slot_evidence:
                    slot_evidence[slot][NONE_IDX] += conf
        elif act.act_type == "reqalts":
            method_evidence[METHOD_VALUES.index("byalternatives")] += conf
        elif act.act_type == "bye":
            method_evidence[METHOD_VALUES.index("finished")] += conf

    new_slots = {}
    for name, prior in belief.slot_beliefs.items():
        ev = slot_evidence[name]
        new_slots[name] = _focus(prior, ev) if ev.any() else prior.copy()

    method = (
        _focus(belief.method, method_evidence)
        if method_evidence.any()
        else belief.method.copy()
    )

    for r_idx, conf in enumerate(request_evidence):
        if conf > 0.0:
            c = min(conf, 1.0)
            requested[r_idx] = c + (1.0 - c) * requested[r_idx]

    top = nbest.top
    last_null = top is None or top.act.act_type == "null"

    return BeliefState(
        slot_beliefs=new_slots,
        method=method,
        requested=requested,
        entity_offered=entity_offered,
        offered_entity_id=offered_id,
        last_user_act_null=last_null,
        last_system_act=system_act,
    )


def slot_top(belief: BeliefState, slot: str, ontology: Ontology) -> tuple[str, float]:
    """Most probable entry of a slot distribution as (label, probability).

    The label is ``none``, ``dontcare``, or a value name.
    """
    dist = belief.slot_beliefs[slot]
    idx = int(np.argmax(dist))
    if idx == NONE_IDX:
        return ("none", float(dist[idx]))
    if idx == DONTCARE_IDX:
        return (DONTCARE, float(dist[idx]))
    values = ontology.slot_by_name[slot].values
    return (values[idx - VALUE_OFFSET], float(dist[idx]))


def top_nonnone(belief: BeliefState, slot: str, ontology: Ontology) -> tuple[str, float]:
    """Best entry other than none; dontcare counts as an entry."""
    dist = belief.slot_beliefs[slot]
    sub = dist[DONTCARE_IDX:]
    idx = int(np.argmax(sub)) + DONTCARE_IDX
    if idx == DONTCARE_IDX:
        return (DONTCARE, float(dist[idx]))
    values = ontology.slot_by_name[slot].values
    return (values[idx - VALUE_OFFSET], float(dist[idx]))


def method_top(belief: BeliefState) -> str:
    return METHOD_VALUES[int(np.argmax(belief.method))]


def flatten(belief: BeliefState, ontology: Ontology) -> np.ndarray:
    """Deterministic concatenation of the belief into a fixed-size vector.

    Order: constraint slot distributions in ontology order, then method,
    requested probabilities, and the two discourse flags.
    """
    lay = layout_for(ontology)
    parts = [belief.slot_beliefs[name] for name in lay.constraint_names]
    parts.append(belief.method)
    parts.append(belief.requested)
    parts.append(
        np.array([belief.entity_offered, 1.0 if belief.last_user_act_null else 0.0])
    )
    vec = np.concatenate(parts)
    assert vec.shape == (lay.dim,)
    return vec
