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

from functools import cached_property
from typing import NamedTuple

import numpy as np

from dialbench.domain import DONTCARE, Entity, Ontology, query
from dialbench.semantics import DialogueAct, NBestList

METHOD_VALUES = ("none", "byconstraints", "byname", "byalternatives", "finished")

# Index layout inside each slot distribution.
NONE_IDX = 0
DONTCARE_IDX = 1
VALUE_OFFSET = 2

# A requestable slot counts as asked for above this probability.
REQUESTED_THRESHOLD = 0.5

_SYSTEM_INFORM_ACTS = frozenset(
    {"inform", "inform_byname", "inform_alternatives", "inform_requested"}
)


class SlotSummary(NamedTuple):
    """What a belief says about each constraint slot, in ontology order."""

    top: np.ndarray       # index of the most probable entry (first on ties)
    none_top: np.ndarray  # none is the most probable entry
    best: np.ndarray      # probability of the best entry other than none


class BeliefState:
    """Snapshot of the tracked state; never mutated.

    The numbers live in one read-only float64 ``vector`` in ``flatten``
    order.  ``method`` and ``requested`` are views into it, and the two
    discourse flags are its last two entries.  The vector is a view of
    ``padded``, which carries one more entry, a ``-1.0`` sentinel that the
    layout's gather matrix uses as padding.

    What the mask, the handcrafted rules and the grounding read of a
    belief (its slot summary, method top, whether anything is requested,
    its top constraints and the entities matching them) is worked out on
    first use and kept; the belief never changes, so none of it can go
    stale.
    """

    def __init__(self, padded: np.ndarray, layout: _Layout,
                 offered_entity_id: str | None, last_system_act: DialogueAct):
        padded.flags.writeable = False
        self.padded = padded
        self.vector = vector = padded[:-1]
        self.method = vector[layout.method_slice]
        self.requested = vector[layout.requested_slice]  # requestable_slots order
        self.offered_entity_id = offered_entity_id
        self.last_system_act = last_system_act
        self._layout = layout

    @property
    def entity_offered(self) -> float:
        return float(self.vector[-2])

    @cached_property
    def slot_summary(self) -> SlotSummary:
        """Per-slot tops and best non-none probabilities."""
        return summarise_slots(self.padded, self._layout)

    @cached_property
    def method_top(self) -> str:
        return METHOD_VALUES[self.method.argmax()]

    @cached_property
    def any_requested(self) -> bool:
        return bool((self.requested > REQUESTED_THRESHOLD).any())

    @cached_property
    def top_constraints(self) -> tuple[tuple[str, str], ...]:
        """(slot, value) for each constraint slot, in ontology order, whose
        top entry is a value; none and dontcare drop out."""
        return tuple((slot.name, slot.values[idx - VALUE_OFFSET])
                     for slot, idx in zip(self._layout.ontology.constraint_slots,
                                          self.slot_summary.top.tolist())
                     if idx >= VALUE_OFFSET)

    @cached_property
    def matches(self) -> tuple[Entity, ...]:
        """The entities matching the top constraints, ordered by id."""
        return query(self._layout.ontology, dict(self.top_constraints))


class _Layout:
    """Per-ontology index maps and slices of the belief vector."""

    def __init__(self, ontology: Ontology):
        self.ontology = ontology    # a belief's top constraints and matches read it
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
        self.slot_slices = {}
        start = 0
        for name, width in self.slot_dims.items():
            self.slot_slices[name] = slice(start, start + width)
            start += width
        self.method_slice = slice(start, start + len(METHOD_VALUES))
        start = self.method_slice.stop
        self.requested_slice = slice(start, start + len(self.requestable_index))
        self.dim = self.requested_slice.stop + 2
        # The slot and method slices, in vector order, and their starts as
        # segments of the vector up to the method slice's end.
        self.focus_slices = (*self.slot_slices.values(), self.method_slice)
        self.focus_starts = np.array([sl.start for sl in self.focus_slices])
        # One row per constraint slot, as wide as the widest slot; padding
        # points at the sentinel entry ``dim`` of a padded vector.
        width = max(self.slot_dims.values())
        self.gather = np.full((len(self.slot_slices), width), self.dim)
        for row, sl in zip(self.gather, self.slot_slices.values()):
            row[:sl.stop - sl.start] = np.arange(sl.start, sl.stop)
        # All slots on none, method none, nothing requested or offered,
        # then the sentinel.
        initial = np.zeros(self.dim + 1)
        for sl in self.slot_slices.values():
            initial[sl.start + NONE_IDX] = 1.0
        initial[self.method_slice.start] = 1.0
        initial[-1] = -1.0
        initial.flags.writeable = False
        self.initial = initial

    def evidence_index(self, slot: str, value: str) -> int | None:
        """Position of a constraint slot's value (or dontcare) in the
        vector; None for any other slot or value."""
        sl = self.slot_slices.get(slot)
        if sl is None:
            return None
        idx = DONTCARE_IDX if value == DONTCARE else self.value_index[slot].get(value)
        return None if idx is None else sl.start + idx


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
    return BeliefState(lay.initial, lay, None, DialogueAct("hello"))


def summarise_slots(padded: np.ndarray, layout: _Layout) -> SlotSummary:
    """The per-slot summary of one padded belief vector.

    The sentinel is below every probability, so padding never wins an
    argmax or a max, and ties go to the first entry as in a per-slot
    ``np.argmax``.
    """
    dists = padded[layout.gather]
    top = dists.argmax(axis=1)
    return SlotSummary(top, top == NONE_IDX, dists[:, DONTCARE_IDX:].max(axis=1))


def _focus(prior: np.ndarray, evidence: np.ndarray) -> np.ndarray:
    mass = evidence.sum()
    if mass > 1.0:
        evidence = evidence / mass
        mass = 1.0
    # every term is >= 0, so nothing needs clipping
    out = evidence + (1.0 - mass) * prior
    return out / out.sum()


def update(belief: BeliefState, nbest: NBestList, system_act: DialogueAct,
           ontology: Ontology) -> BeliefState:
    """Fold one turn of observations into a new belief state."""
    lay = layout_for(ontology)
    padded = belief.padded.copy()
    vec = padded[:-1]
    requested = vec[lay.requested_slice]
    method0 = lay.method_slice.start

    # System-side effects are deterministic: an offer flips the discourse
    # flag, and informing a requestable slot clears the standing request.
    offered_id = belief.offered_entity_id
    if system_act.act_type in _SYSTEM_INFORM_ACTS:
        name = system_act.name_value()
        if name is not None and name != "none":
            vec[-2] = 1.0
            offered_id = name
        for slot, value in system_act.items:
            if value is None or slot == "name":
                continue
            r_idx = lay.requestable_index.get(slot)
            if r_idx is not None:
                requested[r_idx] = 0.0

    # Evidence in the vector's layout; the flag entries stay unused.
    evidence = np.zeros(lay.dim)
    request_evidence = evidence[lay.requested_slice]

    confirm_item = None
    if system_act.act_type == "confirm" and system_act.items:
        confirm_item = system_act.items[0]

    for hyp in nbest:
        act, conf = hyp.act, hyp.confidence
        if act.act_type == "inform":
            named = act.name_value()
            has_slot_items = False
            for slot, value in act.items:
                if slot == "name" or value is None or slot not in lay.slot_slices:
                    continue
                has_slot_items = True
                idx = lay.evidence_index(slot, value)
                if idx is not None:
                    evidence[idx] += conf
            if named is not None and named != "none":
                evidence[method0 + METHOD_VALUES.index("byname")] += conf
            elif has_slot_items:
                evidence[method0 + METHOD_VALUES.index("byconstraints")] += conf
        elif act.act_type == "request":
            for slot, _ in act.items:
                r_idx = lay.requestable_index.get(slot)
                if r_idx is not None:
                    request_evidence[r_idx] += conf
        elif act.act_type == "affirm" and confirm_item is not None:
            idx = lay.evidence_index(*confirm_item)
            if idx is not None:
                evidence[idx] += conf
        elif act.act_type == "negate" and confirm_item is not None:
            sl = lay.slot_slices.get(confirm_item[0])
            if sl is not None:
                evidence[sl.start + NONE_IDX] += conf
        elif act.act_type == "deny":
            # A denial retracts the value without telling us the right one.
            for slot, _value in act.items:
                sl = lay.slot_slices.get(slot)
                if sl is not None:
                    evidence[sl.start + NONE_IDX] += conf
        elif act.act_type == "reqalts":
            evidence[method0 + METHOD_VALUES.index("byalternatives")] += conf
        elif act.act_type == "bye":
            evidence[method0 + METHOD_VALUES.index("finished")] += conf

    has_evidence = np.logical_or.reduceat(
        evidence[:lay.method_slice.stop] != 0, lay.focus_starts)
    for k in has_evidence.nonzero()[0].tolist():
        sl = lay.focus_slices[k]
        vec[sl] = _focus(vec[sl], evidence[sl])

    for r_idx, conf in enumerate(request_evidence.tolist()):
        if conf > 0.0:
            c = min(conf, 1.0)
            requested[r_idx] = c + (1.0 - c) * requested[r_idx]

    top = nbest.top
    vec[-1] = top is None or top.act.act_type == "null"
    return BeliefState(padded, lay, offered_id, system_act)


def flatten(belief: BeliefState, ontology: Ontology) -> np.ndarray:
    """The belief as one fixed-size, read-only vector.

    Order: constraint slot distributions in ontology order, then method,
    requested probabilities, and the two discourse flags.
    """
    assert belief.vector.shape == (layout_for(ontology).dim,)
    return belief.vector
