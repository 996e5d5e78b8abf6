import json
from pathlib import Path

import numpy as np
import pytest

from dialbench.domain import (
    DOMAIN_CODES,
    DONTCARE,
    ConfigurationError,
    Ontology,
    SlotDef,
    Entity,
    generate_domain,
    query,
)

EXPECTED = {"CR": (3, 9, 268), "SFR": (6, 11, 636), "LAP": (11, 21, 257)}


def ontology_payload(ontology: Ontology) -> dict:
    """The ontology as the JSON object of the ``data/*.json`` snapshots."""
    return {
        "code": ontology.code,
        "slots": [
            {
                "name": s.name,
                "values": list(s.values),
                "is_constraint": s.is_constraint,
                "is_requestable": s.is_requestable,
            }
            for s in ontology.slots
        ],
        "entities": [
            {"id": e.id, "attributes": dict(e.attributes)} for e in ontology.entities
        ],
    }


@pytest.fixture(scope="module", params=DOMAIN_CODES)
def ontology(request):
    return generate_domain(request.param)


def test_counts_per_domain(ontology):
    assert ontology.counts() == EXPECTED[ontology.code]


def test_constraints_are_requestable_subset(ontology):
    constraint = {s.name for s in ontology.constraint_slots}
    requestable = {s.name for s in ontology.requestable_slots}
    assert constraint <= requestable


def test_total_requestable_values(ontology):
    by_hand = sum(len(s.values) for s in ontology.slots if s.is_requestable)
    assert ontology.total_requestable_values == by_hand


def test_every_entity_covers_every_requestable_slot(ontology):
    names = [s.name for s in ontology.requestable_slots]
    for entity in ontology.entities:
        for name in names:
            value = entity.attributes[name]
            assert value in ontology.slot_by_name[name].values


def test_generation_is_deterministic():
    a = generate_domain("CR")
    b = generate_domain("CR")
    assert a.entities == b.entities
    assert a.slots == b.slots


def test_unknown_code_rejected():
    with pytest.raises(ConfigurationError):
        generate_domain("XX")


def brute_force_query(ontology, constraints):
    hits = []
    for entity in ontology.entities:
        ok = all(entity.attributes[slot] == value
                 for slot, value in constraints.items()
                 if value != DONTCARE)
        if ok:
            hits.append(entity.id)
    return hits


def test_query_matches_brute_force(ontology):
    rng = np.random.default_rng(5)
    slots = ontology.constraint_slots
    for _ in range(200):
        k = int(rng.integers(0, len(slots) + 1))
        picked = rng.choice(len(slots), size=k, replace=False)
        constraints = {}
        for idx in picked:
            slot = slots[int(idx)]
            if rng.random() < 0.2:
                constraints[slot.name] = DONTCARE
            elif rng.random() < 0.5:
                constraints[slot.name] = slot.values[
                    int(rng.integers(len(slot.values)))]
            else:
                entity = ontology.entities[int(rng.integers(len(ontology.entities)))]
                constraints[slot.name] = entity.attributes[slot.name]
        got = [e.id for e in query(ontology, constraints)]
        assert got == sorted(brute_force_query(ontology, constraints))


def test_query_empty_constraints_returns_everything(ontology):
    assert len(query(ontology, {})) == len(ontology.entities)


def test_query_rejects_non_constraint_slot(ontology):
    requestable_only = [s for s in ontology.requestable_slots
                        if not s.is_constraint]
    slot = requestable_only[0]
    with pytest.raises(ValueError):
        query(ontology, {slot.name: slot.values[0]})


def test_query_dontcare_matches_all(ontology):
    slot = ontology.constraint_slots[0]
    assert len(query(ontology, {slot.name: DONTCARE})) == len(ontology.entities)


def test_shipped_files_match_generator():
    data = Path(__file__).resolve().parents[1] / "data"
    for code in DOMAIN_CODES:
        shipped = json.loads((data / f"{code.lower()}.json").read_text())
        assert shipped == ontology_payload(generate_domain(code))


def test_ontology_rejects_entity_with_unknown_value():
    ontology = generate_domain("CR")
    slots = ontology.slots
    bad_attrs = dict(ontology.entities[0].attributes)
    req = [s for s in slots if s.is_requestable][0]
    bad_attrs[req.name] = "not-a-value"
    bad = Entity("entXXXX", bad_attrs)
    with pytest.raises(ConfigurationError):
        Ontology(code="CR", slots=slots,
                 entities=tuple(list(ontology.entities[:-1]) + [bad]))
