"""Dialogue acts, their canonical text form, and scored n-best lists.

An act is a type plus a list of (slot, value) items.  The canonical text
form is ``acttype(slot=value,slot2=value2)``; request items carry no value
(``request(area)``) and item-less acts close immediately (``bye()``).
"""

from __future__ import annotations

import re
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

_NAME_RE = re.compile(r"[a-z_][a-z0-9_]*")
_VALUE_RE = re.compile(r"[A-Za-z0-9_]+")

# Tolerance used when checking that hypothesis confidences plus the
# residual sum to one.
MASS_TOL = 1e-9


class ParseError(ValueError):
    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


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


def parse_act(text: str) -> DialogueAct:
    """Parse the canonical text form back into an act.

    Raises ParseError carrying the offending position.
    """
    open_paren = text.find("(")
    if open_paren < 0:
        raise ParseError("missing '('", len(text))
    act_type = text[:open_paren]
    if act_type not in ACT_TYPES:
        raise ParseError(f"unknown act type {act_type!r}", 0)
    if not text.endswith(")"):
        raise ParseError("missing ')'", len(text))
    body = text[open_paren + 1 : -1]
    if not body:
        return DialogueAct(act_type)
    items: list[tuple[str, str | None]] = []
    pos = open_paren + 1
    for chunk in body.split(","):
        if not chunk:
            raise ParseError("empty item", pos)
        if "=" in chunk:
            slot, _, value = chunk.partition("=")
            if not _NAME_RE.fullmatch(slot):
                raise ParseError(f"bad slot name {slot!r}", pos)
            if not _VALUE_RE.fullmatch(value):
                raise ParseError(f"bad value {value!r}", pos + len(slot) + 1)
            items.append((slot, value))
        else:
            if not _NAME_RE.fullmatch(chunk):
                raise ParseError(f"bad slot name {chunk!r}", pos)
            items.append((chunk, None))
        pos += len(chunk) + 1
    try:
        return DialogueAct(act_type, tuple(items))
    except ValueError as exc:
        raise ParseError(str(exc), open_paren + 1) from exc


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
