"""The error channel's draw tables and value-compared acts against the
code they replaced.

The ``ref_`` functions below are ``corrupt`` and its helpers as they were
when every weighted draw went through ``Generator.choice`` and acts were
compared by their serialized text.  The channel now searches tables built
once per ``ErrorParams``, compares acts by value and picks a confused name
by position.  None of that may change a draw, so every n-best list and
every stream state must be equal, not close.
"""

import dataclasses

import numpy as np
import pytest

from dialbench.domain import DOMAIN_CODES, DONTCARE, Ontology, generate_domain
from dialbench.error_channel import (
    PRESETS,
    ErrorParams,
    _cdf,
    _draw,
    corrupt,
)
from dialbench.semantics import (
    ACT_TYPES,
    NO_ITEM_ACTS,
    DialogueAct,
    NBestList,
    ScoredHypothesis,
    serialize_act,
)

from test_semantics import _NAME_RE, _VALUE_RE, parse_act

# ------------------------------------------------------------ references

_CONFUSION_TARGETS = ("inform", "request", "confirm", "affirm", "negate",
                      "reqalts", "bye", "null")


def ref_length_weights(params: ErrorParams) -> np.ndarray:
    raw = np.array(
        [params.len_w1, params.len_w2, params.len_w3, params.len_w4,
         params.len_w5]
    )
    raw = raw[: params.nbest_max]
    return raw / raw.sum()


def ref_acttype_weights(params: ErrorParams, exclude: str
                        ) -> tuple[list[str], np.ndarray]:
    names, weights = [], []
    for target in _CONFUSION_TARGETS:
        if target == exclude:
            continue
        names.append(target)
        weights.append(getattr(params, f"w_conf_{target}"))
    arr = np.array(weights, dtype=float)
    if arr.sum() <= 0:
        arr = np.ones_like(arr)
    return names, arr / arr.sum()


def ref_weighted_choice(options: list, concentration: float, rng: np.random.Generator):
    """Pick from options; concentration > 0 biases toward earlier entries."""
    if not options:
        return None
    if concentration <= 0.0:
        return options[int(rng.integers(len(options)))]
    weights = np.exp(-concentration * np.arange(len(options)))
    weights /= weights.sum()
    return options[int(rng.choice(len(options), p=weights))]


def ref_random_constraint_item(ontology: Ontology, rng: np.random.Generator,
                               concentration: float = 0.0) -> tuple[str, str]:
    slot = ontology.constraint_slots[int(rng.integers(ontology.n_constraint))]
    value = ref_weighted_choice(list(slot.values), concentration, rng)
    return slot.name, value


def ref_confuse_value(item: tuple[str, str], ontology: Ontology,
                      params: ErrorParams, rng: np.random.Generator) -> tuple[str, str]:
    slot_name, value = item
    if slot_name == "name":
        pool = [e.id for e in ontology.entities if e.id != value]
    else:
        slot = ontology.slot_by_name.get(slot_name)
        pool = [v for v in slot.values if v != value] if slot else []
        if value != DONTCARE:
            pool.append(DONTCARE)
    new_value = ref_weighted_choice(pool, params.value_conf_concentration, rng)
    return (slot_name, new_value if new_value is not None else value)


def ref_confuse_slot(item: tuple[str, str], ontology: Ontology,
                     params: ErrorParams, rng: np.random.Generator) -> tuple[str, str]:
    slot_name, value = item
    pool = [s for s in ontology.constraint_slots if s.name != slot_name]
    if not pool:
        return ref_confuse_value(item, ontology, params, rng)
    new_slot = ref_weighted_choice(pool, params.slot_conf_concentration, rng)
    if value == DONTCARE:
        return (new_slot.name, DONTCARE)
    return (new_slot.name, new_slot.values[int(rng.integers(len(new_slot.values)))])


def ref_confuse_acttype(act: DialogueAct, ontology: Ontology, params: ErrorParams,
                        rng: np.random.Generator) -> DialogueAct:
    names, weights = ref_acttype_weights(params, act.act_type)
    target = names[int(rng.choice(len(names), p=weights))]
    if target in NO_ITEM_ACTS:
        return DialogueAct(target)
    valued = [(s, v) for s, v in act.items if v is not None and s != "name"]
    if target == "request":
        if valued:
            slot = valued[int(rng.integers(len(valued)))][0]
        else:
            slot = ontology.requestable_slots[
                int(rng.integers(ontology.n_requestable))
            ].name
        return DialogueAct("request", ((slot, None),))
    # inform or confirm: carry one concrete constraint item
    if valued and rng.random() < 0.5:
        item = valued[int(rng.integers(len(valued)))]
    else:
        item = ref_random_constraint_item(ontology, rng, params.slot_conf_concentration)
    return DialogueAct(target, (item,))


def ref_confuse(act: DialogueAct, ontology: Ontology, params: ErrorParams,
                rng: np.random.Generator) -> DialogueAct:
    """One corruption of act, guaranteed to differ from it."""
    for _ in range(8):
        candidate = ref_confuse_once(act, ontology, params, rng)
        if serialize_act(candidate) != serialize_act(act):
            return candidate
    # Extremely defensive: flip to null(), or to hello() when act is null.
    return DialogueAct("null" if act.act_type != "null" else "hello")


def ref_confuse_once(act: DialogueAct, ontology: Ontology, params: ErrorParams,
                     rng: np.random.Generator) -> DialogueAct:
    if act.act_type in ("affirm", "negate") and rng.random() < params.p_polarity_flip:
        return DialogueAct("negate" if act.act_type == "affirm" else "affirm")
    if act.act_type == "request" and rng.random() < params.p_request_to_inform:
        slot_name = act.items[0][0] if act.items else None
        slot = ontology.slot_by_name.get(slot_name) if slot_name else None
        if slot is not None and slot.is_constraint:
            value = slot.values[int(rng.integers(len(slot.values)))]
            return DialogueAct("inform", ((slot.name, value),))

    mutable = [
        (s, v)
        for s, v in act.items
        if v is not None and (s == "name" or s in ontology.slot_by_name)
    ]
    u = rng.random()
    if not mutable or u < params.p_confuse_acttype:
        return ref_confuse_acttype(act, ontology, params, rng)

    substitute = (
        ref_confuse_slot
        if u < params.p_confuse_acttype + params.p_confuse_slot
        else ref_confuse_value
    )
    if params.p_corrupt_single_item >= 1.0 or rng.random() < params.p_corrupt_single_item:
        touch = {int(rng.integers(len(mutable)))}
    else:
        touch = set(range(len(mutable)))

    new_items: list[tuple[str, str | None]] = []
    k = 0
    for s, v in act.items:
        if v is None or (s != "name" and s not in ontology.slot_by_name):
            new_items.append((s, v))
            continue
        if k in touch and s != "name":
            new_items.append(substitute((s, v), ontology, params, rng))
        elif k in touch:
            new_items.append(ref_confuse_value((s, v), ontology, params, rng))
        else:
            new_items.append((s, v))
        k += 1

    if len(new_items) >= 2 and rng.random() < params.p_drop_item:
        new_items.pop(int(rng.integers(len(new_items))))
    if act.act_type in ("inform", "confirm") and rng.random() < params.p_add_item:
        extra = ref_random_constraint_item(ontology, rng)
        if extra[0] not in [s for s, _ in new_items]:
            new_items.append(extra)

    try:
        return DialogueAct(act.act_type, tuple(new_items))
    except ValueError:
        return DialogueAct("null")


def ref_corrupt(act: DialogueAct, params: ErrorParams, ontology: Ontology,
                rng: np.random.Generator) -> NBestList:
    """Pass a true user act through the channel."""
    corrupted = rng.random() < params.ser

    if corrupted and rng.random() < params.p_empty_nbest:
        return NBestList((), residual=1.0)

    if corrupted:
        if rng.random() < params.p_null_top:
            top_act = DialogueAct("null") if act.act_type != "null" else DialogueAct("hello")
        else:
            top_act = ref_confuse(act, ontology, params, rng)
        w_top = rng.beta(params.conf_incorrect_a, params.conf_incorrect_b)
    else:
        top_act = act
        w_top = rng.beta(params.conf_correct_a, params.conf_correct_b)
    w_top = max(w_top, 1e-6)

    weights = ref_length_weights(params)
    length = 1 + int(rng.choice(len(weights), p=weights))

    seen = {serialize_act(top_act)}
    tail: list[tuple[DialogueAct, float]] = []

    if corrupted and length > 1 and rng.random() < params.p_true_in_nbest:
        if serialize_act(act) not in seen:
            decay = min(max(params.true_pos_decay, 0.0), 1.0)
            depth = 0
            while depth < length - 2 and rng.random() < decay:
                depth += 1
            raw = rng.beta(params.conf_buried_a, params.conf_buried_b)
            raw *= params.tail_decay ** depth
            tail.append((act, min(raw, 0.999 * w_top)))
            seen.add(serialize_act(act))

    position = len(tail)
    attempts = 0
    while len(tail) < length - 1 and attempts < 4 * length:
        attempts += 1
        source = top_act if (
            position > 0 and rng.random() >= params.p_second_confusion
        ) else act
        candidate = ref_confuse(source, ontology, params, rng)
        position += 1
        key = serialize_act(candidate)
        if key in seen:
            continue
        seen.add(key)
        # tails are absolute scores clipped under the top, so a weak top
        # yields a flat list rather than a proportionally shrunken one
        raw = rng.beta(params.conf_tail_a, params.conf_tail_b)
        raw *= params.tail_decay ** (position - 1)
        tail.append((candidate, min(raw, 0.999 * w_top)))

    w_res = params.residual_floor + params.residual_spread * rng.random()
    total = w_top + sum(raw for _, raw in tail) + w_res

    tail.sort(key=lambda pair: -pair[1])
    hyps = [ScoredHypothesis(top_act, w_top / total)]
    hyps.extend(ScoredHypothesis(a, raw / total) for a, raw in tail)
    residual = 1.0 - sum(h.confidence for h in hyps)
    return NBestList(tuple(hyps), residual=residual)


# ------------------------------------------------------------ inputs

# The presets, plus every act corrupted with both confusion kernels biased,
# several items touched at once and riders on, so that name items, the
# weighted draws and the per-item paths all run often.
PARAMS = dict(PRESETS)
PARAMS["forced"] = dataclasses.replace(
    PRESETS["noisy30"], ser=1.0, p_empty_nbest=0.0, p_null_top=0.0,
    value_conf_concentration=0.3, slot_conf_concentration=0.5,
    p_corrupt_single_item=0.5, p_drop_item=0.3, p_add_item=0.3)


@pytest.fixture(scope="module", params=DOMAIN_CODES)
def ontology(request):
    return generate_domain(request.param)


def user_acts(ontology: Ontology, rng: np.random.Generator, n: int
              ) -> list[DialogueAct]:
    """Acts of every shape a user sends, name items included."""
    slots = ontology.constraint_slots
    ids = [e.id for e in ontology.entities]

    def item(pool=slots):
        slot = pool[int(rng.integers(len(pool)))]
        values = slot.values + (DONTCARE,)
        return slot.name, values[int(rng.integers(len(values)))]

    def constraint_items(k):
        picked = rng.choice(len(slots), size=min(k, len(slots)),
                            replace=False)
        return tuple(item((slots[int(i)],)) for i in picked)

    acts = []
    for _ in range(n):
        kind = int(rng.integers(9))
        if kind == 0:
            acts.append(DialogueAct("inform",
                                    constraint_items(1 + int(rng.integers(3)))))
        elif kind == 1:
            name = ("name", ids[int(rng.integers(len(ids)))])
            extra = constraint_items(int(rng.integers(2)))
            acts.append(DialogueAct("inform", (name,) + extra))
        elif kind == 2:
            picked = rng.choice(ontology.n_requestable,
                                size=1 + int(rng.integers(2)), replace=False)
            acts.append(DialogueAct("request", tuple(
                (ontology.requestable_slots[int(i)].name, None)
                for i in picked)))
        elif kind == 3:
            acts.append(DialogueAct("confirm", (item(),)))
        elif kind == 4:
            acts.append(DialogueAct("deny", (item(),)))
        elif kind == 5:
            acts.append(DialogueAct("inform", (item(ontology.requestable_slots),)))
        elif kind == 6:
            acts.append(DialogueAct("request", (("name", None),)))
        else:
            types = sorted(NO_ITEM_ACTS)
            acts.append(DialogueAct(types[int(rng.integers(len(types)))]))
    return acts


# ------------------------------------------------------------ tests


def test_stored_tables_are_the_tables_choice_searches():
    for params in PARAMS.values():
        assert np.array_equal(params._length_cdf,
                              _cdf(ref_length_weights(params)))
        for exclude in ACT_TYPES:
            names, cdf = params._acttype_tables[exclude]
            ref_names, weights = ref_acttype_weights(params, exclude)
            assert list(names) == ref_names
            assert np.array_equal(cdf, _cdf(weights))


def test_searchsorted_draws_as_choice_does():
    """``_draw`` on a stored table gives ``choice``'s index and leaves the
    stream where ``choice`` leaves it.  This rests on how numpy implements
    ``Generator.choice``, so this test is the guard for a numpy upgrade."""
    tables = {}
    for params in PARAMS.values():
        weights = ref_length_weights(params)
        tables[weights.tobytes()] = (weights, params._length_cdf)
        for exclude in ACT_TYPES:
            _, weights = ref_acttype_weights(params, exclude)
            tables[weights.tobytes()] = (weights,
                                         params._acttype_tables[exclude][1])
    weights = np.exp(-0.3 * np.arange(12))
    weights /= weights.sum()
    tables[weights.tobytes()] = (weights, _cdf(weights))
    for weights, cdf in tables.values():
        for seed in range(200):
            a = np.random.default_rng(seed)
            b = np.random.default_rng(seed)
            for _ in range(200):
                assert int(a.choice(len(weights), p=weights)) == _draw(cdf, b)
            assert a.bit_generator.state == b.bit_generator.state


@pytest.mark.parametrize("preset", sorted(PARAMS))
def test_corrupt_matches_the_reference(ontology, preset):
    params = PARAMS[preset]
    acts = user_acts(ontology, np.random.default_rng(5), 2000)
    new = np.random.default_rng(99)
    ref = np.random.default_rng(99)
    names = 0
    for act in acts:
        got = corrupt(act, params, ontology, new)
        assert got == ref_corrupt(act, params, ontology, ref), act
        assert new.bit_generator.state == ref.bit_generator.state
        names += any(h.act.name_value() not in (None, act.name_value())
                     for h in got)
    if params.ser > 0:
        assert names > 0   # name confusions were drawn


def test_value_equality_is_text_equality(ontology):
    """Every slot name, value and entity id is a token of the text form,
    so two acts are equal exactly when their texts are."""
    assert _NAME_RE.fullmatch("name") and _VALUE_RE.fullmatch(DONTCARE)
    for slot in ontology.slots:
        assert _NAME_RE.fullmatch(slot.name), slot.name
        for value in slot.values:
            assert _VALUE_RE.fullmatch(value), value
    for entity in ontology.entities:
        assert _VALUE_RE.fullmatch(entity.id), entity.id
    rng = np.random.default_rng(8)
    acts = user_acts(ontology, rng, 400)
    acts += [h.act for act in acts
             for h in corrupt(act, PARAMS["forced"], ontology, rng)]
    texts = [serialize_act(a) for a in acts]
    for a, text in zip(acts, texts):
        assert parse_act(text) == a
    for i in range(0, len(acts), 7):
        for j in range(len(acts)):
            assert (acts[i] == acts[j]) == (texts[i] == texts[j])


def test_length_table_needs_mass_within_nbest_max():
    with pytest.raises(ValueError, match="nbest_max"):
        dataclasses.replace(PRESETS["noisy15"], nbest_max=1, len_w1=0.0)
