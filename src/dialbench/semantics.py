"""Dialogue acts, their canonical text form, and scored n-best lists.

An act is a type plus a list of (slot, value) items.  The canonical text
form is ``acttype(slot=value,slot2=value2)``; request items carry no value
(``request(area)``) and item-less acts close immediately (``bye()``).
"""

from __future__ import annotations

from dataclasses import dataclass, field

ACT_TYPES = (
    "hello",
    "inform",
    "request",
    "confirm",
    "select",
    "affirm",
    "negate",
    "deny",
    "reqalts",
    "reqmore",
    "bye",
    "repeat",
    "null",
    "inform_byname",
    "inform_alternatives",
    "inform_requested",
)

# Act types that never carry items.
NO_ITEM_ACTS = frozenset(
    {"hello", "bye", "reqmore", "affirm", "negate", "repeat", "null", "reqalts"}
)

# System act types that give the user information about an entity.
SYSTEM_INFORM_ACTS = frozenset(
    {"inform", "inform_byname", "inform_alternatives", "inform_requested"}
)

# Tolerance used when checking that hypothesis confidences plus the
# residual sum to one.
MASS_TOL = 1e-9


@dataclass(frozen=True)
class DialogueAct:
    act_type: str
    items: tuple[tuple[str, str | None], ...] = ()

    def __post_init__(self) -> None:
        if self.act_type not in ACT_TYPES:
            raise ValueError(f"unknown act type {self.act_type!r}")
        if self.act_type in NO_ITEM_ACTS and self.items:
            raise ValueError(f"{self.act_type} takes no items")
        for slot, value in self.items:
            if value is None and self.act_type != "request":
                raise ValueError(
                    f"item {slot!r} without value only allowed in request acts"
                )
            if value is not None and self.act_type == "request":
                raise ValueError("request items carry no value")

    def first_value(self, slot: str) -> str | None:
        for s, v in self.items:
            if s == slot:
                return v
        return None

    def name_value(self) -> str | None:
        """Value of the special ``name`` item, if present."""
        return self.first_value("name")

    def __str__(self) -> str:
        return serialize_act(self)


def serialize_act(act: DialogueAct) -> str:
    parts = []
    for slot, value in act.items:
        parts.append(slot if value is None else f"{slot}={value}")
    return f"{act.act_type}({','.join(parts)})"


@dataclass(frozen=True)
class ScoredHypothesis:
    act: DialogueAct
    confidence: float

    def __post_init__(self) -> None:
        if not 0.0 <= self.confidence <= 1.0:
            raise ValueError("confidence outside [0, 1]")


@dataclass(frozen=True)
class NBestList:
    """Confidence-descending hypotheses plus unallocated residual mass."""

    hypotheses: tuple[ScoredHypothesis, ...]
    residual: float = 0.0

    def __post_init__(self) -> None:
        confs = [h.confidence for h in self.hypotheses]
        if any(a < b - MASS_TOL for a, b in zip(confs, confs[1:])):
            raise ValueError("hypotheses not confidence-descending")
        total = sum(confs) + self.residual
        if abs(total - 1.0) > MASS_TOL:
            raise ValueError(f"mass {total} does not sum to 1")
        if self.residual < -MASS_TOL:
            raise ValueError("negative residual")

    @property
    def top(self) -> ScoredHypothesis | None:
        return self.hypotheses[0] if self.hypotheses else None

    def __iter__(self):
        return iter(self.hypotheses)
