"""Deterministic rule policy; the non-learning baseline.

Ordered rules, each skipped when the mask forbids its action:

1. a slot is requested and an entity is on the table -> inform_requested
2. the user is asking for alternatives -> inform_alternatives
3. a constraint slot is believed but not firmly ([0.3, 0.8)) -> confirm it
4. a slot is still unknown and too many entities match -> request the
   least certain such slot
5. otherwise -> inform_byconstraints
6. the user sounded finished -> bye

with reqmore as the final fallback (always legal).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from dialbench.action_space import OFFERED_THRESHOLD, build_action_set
from dialbench.belief_tracker import BeliefState
from dialbench.domain import Ontology
from dialbench.policies.base import Policy

CONFIRM_LOW = 0.3
CONFIRM_HIGH = 0.8


@dataclass(frozen=True)
class HandcraftedConfig:
    entity_threshold: int = 1     # request more while more entities match


class HandcraftedPolicy(Policy):
    algorithm = "handcrafted"
    trains = False

    def __init__(self, ontology: Ontology,
                 config: HandcraftedConfig | None = None):
        actions = build_action_set(ontology)
        super().__init__(obs_dim=0, action_count=len(actions))
        self.ontology = ontology
        self.config = config if config is not None else HandcraftedConfig()
        self._index = {a.label(): a.index for a in actions}

    def _idx(self, kind: str, slot: str | None = None) -> int:
        label = kind if slot is None else f"{kind}({slot})"
        return self._index[label]

    def act(self, observation: np.ndarray, mask: np.ndarray,
            rng: np.random.Generator,
            belief: BeliefState | None = None) -> int:
        if belief is None:
            raise ValueError("the handcrafted policy needs the belief state")
        return next(idx for idx in self._candidates(belief) if mask[idx])

    def _candidates(self, belief: BeliefState):
        ontology = self.ontology

        if belief.any_requested and belief.entity_offered > OFFERED_THRESHOLD:
            yield self._idx("inform_requested")

        if belief.method_top == "byalternatives":
            yield self._idx("inform_alternatives")

        # rules 3 and 4 take the first slot in ontology order on ties
        slots = belief.slot_summary
        unsure = ((slots.best >= CONFIRM_LOW)
                  & (slots.best < CONFIRM_HIGH)).nonzero()[0]
        if unsure.size:
            yield self._idx("confirm", ontology.constraint_slots[unsure[0]].name)

        unknown = (slots.none_top | (slots.best < CONFIRM_LOW)).nonzero()[0]
        if unknown.size and len(belief.matches) > self.config.entity_threshold:
            least = unknown[slots.best[unknown].argmin()]
            yield self._idx("request", ontology.constraint_slots[least].name)

        yield self._idx("inform_byconstraints")

        if belief.method_top == "finished":
            yield self._idx("bye")

        yield self._idx("reqmore")
