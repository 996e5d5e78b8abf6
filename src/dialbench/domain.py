"""Slot-based domains with synthetic entity databases.

A domain is an ontology (slots with finite value sets) plus a database of
entities, one value per slot.  Three domains ship with the package:

====  =================  ============  ==================  ========
code  constraint slots   requestable   requestable values  entities
====  =================  ============  ==================  ========
CR    3                  9             268                 110
SFR   6                  11            636                 250
LAP   11                 21            257                 120
====  =================  ============  ==================  ========

Constraint slots are the ones a user may restrict when searching; they are
a prefix of the requestable slots, so anything you can constrain you can
also ask back.  The slot/value identifiers are synthetic.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

DOMAIN_CODES = ("CR", "SFR", "LAP")

# Reserved value a user may supply for a constraint slot they have no
# preference about.  It is never part of an ontology value list.
DONTCARE = "dontcare"

# Per-domain value-count layout: (constraint slots, further requestable
# slots).  The totals are fixed by the table above; how they split across
# slots is package configuration.
_VALUE_SPLITS: dict[str, tuple[list[int], list[int]]] = {
    "CR": ([91, 5, 3], [40, 35, 30, 25, 20, 19]),
    "SFR": ([120, 30, 20, 12, 10, 8], [120, 110, 90, 70, 46]),
    "LAP": (
        [60, 40, 30, 25, 20, 15, 12, 10, 8, 6, 4],
        [5, 4, 3, 3, 3, 3, 2, 2, 1, 1],
    ),
}

_ENTITY_COUNTS = {"CR": 110, "SFR": 250, "LAP": 120}

_EXPECTED_COUNTS = {
    # code -> (constraint slots, requestable slots, total requestable values)
    "CR": (3, 9, 268),
    "SFR": (6, 11, 636),
    "LAP": (11, 21, 257),
}

_DOMAIN_SEEDS = {"CR": 11, "SFR": 12, "LAP": 13}


class ConfigurationError(ValueError):
    """Unknown domain code or malformed ontology data."""


@dataclass(frozen=True)
class SlotDef:
    name: str
    values: tuple[str, ...]
    is_constraint: bool
    is_requestable: bool


@dataclass(frozen=True)
class Entity:
    id: str
    attributes: dict[str, str]


@dataclass
class Ontology:
    """Fixed after construction, except ``derived``: other modules fill
    that cache on first use (``belief_tracker`` its belief layout,
    ``error_channel`` its confusable values), so sharing an ontology
    across threads is safe only once those entries exist."""

    code: str
    slots: tuple[SlotDef, ...]
    entities: tuple[Entity, ...]
    # Derived lookups, built once in __post_init__.
    slot_by_name: dict[str, SlotDef] = field(init=False, repr=False)
    entity_by_id: dict[str, Entity] = field(init=False, repr=False)
    sorted_entities: tuple[Entity, ...] = field(init=False, repr=False)  # by id
    _value_index: dict[tuple[str, str], frozenset[str]] = field(init=False, repr=False)
    constraint_slots: tuple[SlotDef, ...] = field(init=False, repr=False)
    requestable_slots: tuple[SlotDef, ...] = field(init=False, repr=False)
    n_constraint: int = field(init=False, repr=False)
    n_requestable: int = field(init=False, repr=False)
    # Lookups other modules derive from this ontology, kept here so they
    # live and die with it (see belief_tracker.layout_for).
    derived: dict[str, object] = field(init=False, repr=False, compare=False,
                                       default_factory=dict)

    def __post_init__(self) -> None:
        self.slot_by_name = {s.name: s for s in self.slots}
        if len(self.slot_by_name) != len(self.slots):
            raise ConfigurationError("duplicate slot names")
        self.entity_by_id = {e.id: e for e in self.entities}
        if len(self.entity_by_id) != len(self.entities):
            raise ConfigurationError("duplicate entity ids")
        self.sorted_entities = tuple(sorted(self.entities, key=lambda e: e.id))
        for ent in self.entities:
            for slot in self.slots:
                value = ent.attributes.get(slot.name)
                if value is None:
                    raise ConfigurationError(
                        f"entity {ent.id} missing slot {slot.name}"
                    )
                if value not in slot.values:
                    raise ConfigurationError(
                        f"entity {ent.id} has out-of-vocabulary value "
                        f"{value!r} for slot {slot.name}"
                    )
        index: dict[tuple[str, str], set[str]] = {}
        for ent in self.entities:
            for slot in self.slots:
                if slot.is_constraint:
                    key = (slot.name, ent.attributes[slot.name])
                    index.setdefault(key, set()).add(ent.id)
        self._value_index = {k: frozenset(v) for k, v in index.items()}
        self.constraint_slots = tuple(s for s in self.slots if s.is_constraint)
        self.requestable_slots = tuple(s for s in self.slots
                                       if s.is_requestable)
        self.n_constraint = len(self.constraint_slots)
        self.n_requestable = len(self.requestable_slots)

    @property
    def total_requestable_values(self) -> int:
        return sum(len(s.values) for s in self.requestable_slots)

    def counts(self) -> tuple[int, int, int]:
        return (self.n_constraint, self.n_requestable, self.total_requestable_values)


def generate_domain(code: str) -> Ontology:
    """Build one of the standard domains deterministically from its
    fixed seed."""
    if code not in DOMAIN_CODES:
        raise ConfigurationError(f"unknown domain code {code!r}")

    constraint_counts, extra_counts = _VALUE_SPLITS[code]
    slots = []
    for i, n_values in enumerate(constraint_counts + extra_counts):
        slots.append(
            SlotDef(
                name=f"slot{i:02d}",
                values=tuple(f"val{j:03d}" for j in range(n_values)),
                is_constraint=i < len(constraint_counts),
                is_requestable=True,
            )
        )

    rng = np.random.default_rng(_DOMAIN_SEEDS[code])
    entities = []
    for k in range(_ENTITY_COUNTS[code]):
        attrs = {
            slot.name: slot.values[int(rng.integers(len(slot.values)))]
            for slot in slots
        }
        entities.append(Entity(id=f"ent{k:04d}", attributes=attrs))

    ontology = Ontology(code=code, slots=tuple(slots), entities=tuple(entities))
    if ontology.counts() != _EXPECTED_COUNTS[code]:
        raise ConfigurationError(
            f"domain {code} has counts {ontology.counts()}, "
            f"expected {_EXPECTED_COUNTS[code]}"
        )
    return ontology


def query(ontology: Ontology, constraints: dict[str, str]) -> tuple[Entity, ...]:
    """Entities matching every constraint, ordered by id.

    Constraint slots must exist and be flagged is_constraint; a dontcare
    value leaves that slot unrestricted.  Unknown values simply match
    nothing.
    """
    matched: frozenset[str] | None = None
    for slot_name, value in constraints.items():
        slot = ontology.slot_by_name.get(slot_name)
        if slot is None or not slot.is_constraint:
            raise ValueError(f"{slot_name!r} is not a constraint slot")
        if value == DONTCARE:
            continue
        ids = ontology._value_index.get((slot_name, value), frozenset())
        matched = ids if matched is None else (matched & ids)
        if not matched:
            return ()
    if matched is None:
        return ontology.sorted_entities
    # ids are unique, so their order is the entities' order by id
    return tuple(ontology.entity_by_id[i] for i in sorted(matched))
