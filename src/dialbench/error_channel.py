"""Semantic error channel turning a true user act into a scored n-best list.

The channel first decides whether the top hypothesis is corrupted (the
semantic error rate), then builds a short list of alternative hypotheses
whose confidences, together with an unallocated residual, sum to one.
Corruptions rewrite the act type, a slot, or a value, and always produce
acts that are well formed over the active ontology.

The full parameter set (41 scalars) is documented in docs/parameters.md.
Three presets ship with the package: ``clean`` (error rate 0), ``noisy15``
and ``noisy30``, wired to the six standard environments.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

from dialbench.domain import DONTCARE, Ontology
from dialbench.semantics import (
    ACT_TYPES,
    NO_ITEM_ACTS,
    DialogueAct,
    NBestList,
    ScoredHypothesis,
)

# Act types a corrupted hypothesis may be rewritten into.
_CONFUSION_TARGETS = (
    "inform",
    "request",
    "confirm",
    "affirm",
    "negate",
    "reqalts",
    "bye",
    "null",
)


# Below zero, any of these can make a score or the residual mass negative,
# and a confidence then falls outside [0, 1].
_NON_NEGATIVE = frozenset({"residual_floor", "residual_spread", "tail_decay"})


@dataclass(frozen=True)
class ErrorParams:
    """Channel behaviour; every field is exercised by the test suite."""

    ser: float                       # probability the top hypothesis is wrong
    nbest_max: int = 5               # hard cap on list length
    len_w1: float = 0.5              # length distribution over 1..nbest_max
    len_w2: float = 0.25
    len_w3: float = 0.15
    len_w4: float = 0.07
    len_w5: float = 0.03
    conf_correct_a: float = 8.0      # Beta shape of the raw top score, correct top
    conf_correct_b: float = 1.6
    conf_incorrect_a: float = 2.0    # same, corrupted top
    conf_incorrect_b: float = 3.5
    conf_tail_a: float = 1.0         # Beta shape of raw tail scores
    conf_tail_b: float = 4.0
    conf_buried_a: float = 1.5       # raw score of the true act when not on top
    conf_buried_b: float = 3.0
    residual_floor: float = 0.02     # unallocated mass: floor + spread * U(0,1)
    residual_spread: float = 0.08
    p_confuse_acttype: float = 0.2   # confusion kernel split, sums to one
    p_confuse_slot: float = 0.4
    p_confuse_value: float = 0.4
    p_null_top: float = 0.08         # corrupted top degenerates to null()
    p_empty_nbest: float = 0.01      # corrupted turn yields no hypotheses at all
    p_true_in_nbest: float = 0.7     # corrupted list still contains the true act
    true_pos_decay: float = 0.5      # geometric depth of the buried true act
    tail_decay: float = 0.7          # per-position decay of raw tail scores
    w_conf_inform: float = 0.3       # act-type confusion target weights
    w_conf_request: float = 0.2
    w_conf_confirm: float = 0.1
    w_conf_affirm: float = 0.1
    w_conf_negate: float = 0.1
    w_conf_reqalts: float = 0.05
    w_conf_bye: float = 0.05
    w_conf_null: float = 0.1
    p_polarity_flip: float = 0.8     # affirm <-> negate shortcut when corrupted
    p_request_to_inform: float = 0.3 # request(s) misheard as inform(s=...)
    p_corrupt_single_item: float = 0.8  # touch one item of a multi-item act
    p_drop_item: float = 0.1         # rider: lose an item after substitution
    p_add_item: float = 0.1          # rider: gain a spurious constraint item
    p_second_confusion: float = 0.5  # tails: fresh confusion vs mutated top
    value_conf_concentration: float = 0.0  # 0 = uniform wrong value
    slot_conf_concentration: float = 0.0   # 0 = uniform wrong slot

    def __post_init__(self) -> None:
        if not 0.0 <= self.ser <= 1.0:
            raise ValueError("ser outside [0, 1]")
        if self.nbest_max < 1:
            raise ValueError("nbest_max must be >= 1")
        for f in fields(self):
            value = getattr(self, f.name)
            if f.name.startswith("conf_") and value <= 0:
                raise ValueError(f"{f.name} must be positive (a Beta "
                                 f"shape), got {value}")
            if f.name in _NON_NEGATIVE and value < 0:
                raise ValueError(f"{f.name} must not be negative, got {value}")
        split = self.p_confuse_acttype + self.p_confuse_slot + self.p_confuse_value
        if abs(split - 1.0) > 1e-9:
            raise ValueError("confusion kernel weights must sum to 1")
        raw_weights = (self.len_w1, self.len_w2, self.len_w3,
                       self.len_w4, self.len_w5)
        raw = np.array(raw_weights)[: self.nbest_max]
        if any(w < 0 for w in raw_weights) or raw.sum() <= 0:
            raise ValueError("length weights must be non-negative with "
                             "positive mass within nbest_max")
        # The fields are frozen, so each draw table is built once here.
        object.__setattr__(self, "_length_cdf", _cdf(raw / raw.sum()))
        object.__setattr__(self, "_acttype_tables", {
            exclude: self._acttype_table(exclude) for exclude in ACT_TYPES})

    def _acttype_table(self, exclude: str) -> tuple[tuple[str, ...], np.ndarray]:
        names = tuple(t for t in _CONFUSION_TARGETS if t != exclude)
        arr = np.array([getattr(self, f"w_conf_{t}") for t in names],
                       dtype=float)
        if arr.sum() <= 0:
            arr = np.ones_like(arr)
        return names, _cdf(arr / arr.sum())


def _cdf(p: np.ndarray) -> np.ndarray:
    """The table ``Generator.choice(len(p), p=p)`` searches."""
    cdf = p.cumsum()
    cdf /= cdf[-1]
    return cdf


def _draw(cdf: np.ndarray, rng: np.random.Generator) -> int:
    """The index ``choice`` draws from this table, with the same one
    uniform draw, so the stream is left in the same state."""
    return int(cdf.searchsorted(rng.random(), side="right"))


PARAM_NAMES = tuple(f.name for f in fields(ErrorParams))

PRESETS = {
    "clean": ErrorParams(
        ser=0.0,
        len_w1=0.85, len_w2=0.12, len_w3=0.03, len_w4=0.0, len_w5=0.0,
        conf_correct_a=25.0, conf_correct_b=1.0,
        conf_tail_a=1.0, conf_tail_b=6.0,
        residual_floor=0.0, residual_spread=0.03,
        p_null_top=0.03, p_empty_nbest=0.0,
    ),
    "noisy15": ErrorParams(ser=0.15),
    "noisy30": ErrorParams(
        ser=0.30,
        len_w1=0.4, len_w2=0.25, len_w3=0.18, len_w4=0.1, len_w5=0.07,
        conf_correct_a=5.0, conf_correct_b=2.0,
        conf_incorrect_a=2.5, conf_incorrect_b=2.0,
        conf_tail_a=1.0, conf_tail_b=3.5,
        residual_floor=0.03, residual_spread=0.12,
        p_null_top=0.1, p_empty_nbest=0.02, p_true_in_nbest=0.65,
    ),
}


def _weighted_index(n: int, concentration: float,
                    rng: np.random.Generator) -> int | None:
    """Index into n options; concentration > 0 biases toward earlier ones."""
    if n == 0:
        return None
    if concentration <= 0.0:
        return int(rng.integers(n))
    weights = np.exp(-concentration * np.arange(n))
    return _draw(_cdf(weights / weights.sum()), rng)


def _weighted_choice(options, concentration: float, rng: np.random.Generator):
    i = _weighted_index(len(options), concentration, rng)
    return None if i is None else options[i]


def _random_constraint_item(ontology: Ontology, rng: np.random.Generator,
                            concentration: float = 0.0) -> tuple[str, str]:
    slot = ontology.constraint_slots[int(rng.integers(ontology.n_constraint))]
    value = _weighted_choice(slot.values, concentration, rng)
    return slot.name, value


def _value_tables(ontology: Ontology) -> dict:
    """Per slot, the values a confusion picks from (the slot's values, then
    DONTCARE; the entity ids for ``name``) and each one's position, stored
    on the ontology as the belief layout is."""
    found = ontology.derived.get("confusable_values")
    if found is None:
        options = {s.name: s.values + (DONTCARE,) for s in ontology.slots}
        options["name"] = tuple(e.id for e in ontology.entities)
        found = ontology.derived["confusable_values"] = {
            name: (values, {v: i for i, v in enumerate(values)})
            for name, values in options.items()}
    return found


def _confuse_value(item: tuple[str, str], ontology: Ontology,
                   params: ErrorParams, rng: np.random.Generator) -> tuple[str, str]:
    """A different value of the item's slot, drawn as from the list of its
    options without the current value."""
    slot_name, value = item
    options, position = _value_tables(ontology)[slot_name]
    skip = position.get(value)
    n = len(options) if skip is None else len(options) - 1
    i = _weighted_index(n, params.value_conf_concentration, rng)
    if i is None:
        return item
    if skip is not None and i >= skip:
        i += 1
    return (slot_name, options[i])


def _confuse_slot(item: tuple[str, str], ontology: Ontology,
                  params: ErrorParams, rng: np.random.Generator) -> tuple[str, str]:
    slot_name, value = item
    pool = [s for s in ontology.constraint_slots if s.name != slot_name]
    if not pool:
        return _confuse_value(item, ontology, params, rng)
    new_slot = _weighted_choice(pool, params.slot_conf_concentration, rng)
    if value == DONTCARE:
        return (new_slot.name, DONTCARE)
    return (new_slot.name, new_slot.values[int(rng.integers(len(new_slot.values)))])


def _confuse_acttype(act: DialogueAct, ontology: Ontology, params: ErrorParams,
                     rng: np.random.Generator) -> DialogueAct:
    names, cdf = params._acttype_tables[act.act_type]
    target = names[_draw(cdf, rng)]
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
        item = _random_constraint_item(ontology, rng, params.slot_conf_concentration)
    return DialogueAct(target, (item,))


def _confuse(act: DialogueAct, ontology: Ontology, params: ErrorParams,
             rng: np.random.Generator) -> DialogueAct:
    """One corruption of act, guaranteed to differ from it."""
    for _ in range(8):
        candidate = _confuse_once(act, ontology, params, rng)
        if candidate != act:
            return candidate
    # Extremely defensive: flip to null(), or to hello() when act is null.
    return DialogueAct("null" if act.act_type != "null" else "hello")


def _confuse_once(act: DialogueAct, ontology: Ontology, params: ErrorParams,
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
        return _confuse_acttype(act, ontology, params, rng)

    substitute = (
        _confuse_slot
        if u < params.p_confuse_acttype + params.p_confuse_slot
        else _confuse_value
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
            new_items.append(_confuse_value((s, v), ontology, params, rng))
        else:
            new_items.append((s, v))
        k += 1

    if len(new_items) >= 2 and rng.random() < params.p_drop_item:
        new_items.pop(int(rng.integers(len(new_items))))
    if act.act_type in ("inform", "confirm") and rng.random() < params.p_add_item:
        extra = _random_constraint_item(ontology, rng)
        if extra[0] not in [s for s, _ in new_items]:
            new_items.append(extra)

    try:
        return DialogueAct(act.act_type, tuple(new_items))
    except ValueError:
        return DialogueAct("null")


def corrupt(act: DialogueAct, params: ErrorParams, ontology: Ontology,
            rng: np.random.Generator) -> NBestList:
    """Pass a true user act through the channel."""
    corrupted = rng.random() < params.ser

    if corrupted and rng.random() < params.p_empty_nbest:
        return NBestList((), residual=1.0)

    if corrupted:
        if rng.random() < params.p_null_top:
            top_act = DialogueAct("null") if act.act_type != "null" else DialogueAct("hello")
        else:
            top_act = _confuse(act, ontology, params, rng)
        w_top = rng.beta(params.conf_incorrect_a, params.conf_incorrect_b)
    else:
        top_act = act
        w_top = rng.beta(params.conf_correct_a, params.conf_correct_b)
    w_top = max(w_top, 1e-6)

    length = 1 + _draw(params._length_cdf, rng)

    # acts compare by value: equal acts are exactly those with equal text
    seen = {top_act}
    tail: list[tuple[DialogueAct, float]] = []

    # a corrupted top always differs from the true act (see _confuse)
    if corrupted and length > 1 and rng.random() < params.p_true_in_nbest:
        decay = min(max(params.true_pos_decay, 0.0), 1.0)
        depth = 0
        while depth < length - 2 and rng.random() < decay:
            depth += 1
        raw = rng.beta(params.conf_buried_a, params.conf_buried_b)
        raw *= params.tail_decay ** depth
        tail.append((act, min(raw, 0.999 * w_top)))
        seen.add(act)

    position = len(tail)
    attempts = 0
    while len(tail) < length - 1 and attempts < 4 * length:
        attempts += 1
        source = top_act if (
            position > 0 and rng.random() >= params.p_second_confusion
        ) else act
        candidate = _confuse(source, ontology, params, rng)
        position += 1
        if candidate in seen:
            continue
        seen.add(candidate)
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
