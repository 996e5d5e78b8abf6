import re

import pytest
from hypothesis import given, strategies as st

from dialbench.semantics import (
    ACT_TYPES,
    NO_ITEM_ACTS,
    DialogueAct,
    NBestList,
    ScoredHypothesis,
    serialize_act,
)

# ------------------------------------------------------------ the parser

# The canonical text form is only ever written by the package; this parser
# reads it back so the tests can check the form is unambiguous.

_NAME_RE = re.compile(r"[a-z_][a-z0-9_]*")
_VALUE_RE = re.compile(r"[A-Za-z0-9_]+")


class ParseError(ValueError):
    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


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


# ------------------------------------------------------------ tests


def test_sixteen_act_types():
    assert len(ACT_TYPES) == 16
    assert "inform" in ACT_TYPES and "reqalts" in ACT_TYPES


def test_no_item_acts_take_no_items():
    for act_type in NO_ITEM_ACTS:
        DialogueAct(act_type)
        with pytest.raises(ValueError):
            DialogueAct(act_type, (("food", "thai"),))


def test_request_items_are_valueless():
    act = DialogueAct("request", (("food", None),))
    assert act.items == (("food", None),)
    with pytest.raises(ValueError):
        DialogueAct("request", (("food", "thai"),))


def test_inform_items_need_values():
    with pytest.raises(ValueError):
        DialogueAct("inform", (("food", None),))


def test_unknown_act_type_rejected():
    with pytest.raises(ValueError):
        DialogueAct("shout")


def test_serialize_examples():
    assert serialize_act(DialogueAct("hello")) == "hello()"
    act = DialogueAct("inform", (("food", "thai"), ("area", "north")))
    assert serialize_act(act) == "inform(food=thai,area=north)"
    assert serialize_act(DialogueAct("request", (("phone", None),))) == \
        "request(phone)"


def test_parse_examples():
    act = parse_act("inform(food=thai,area=north)")
    assert act.act_type == "inform"
    assert act.items == (("food", "thai"), ("area", "north"))
    assert parse_act("bye()") == DialogueAct("bye")
    assert parse_act("request(phone)") == DialogueAct("request",
                                                      (("phone", None),))


@pytest.mark.parametrize("text", [
    "inform",                 # missing parens
    "inform(food=thai",       # unclosed
    "inform(=thai)",          # empty slot
    "inform(food=)",          # empty value
    "wibble(food=thai)",      # unknown type
    "inform(food=thai)x",     # trailing junk
    "",                       # empty
])
def test_parse_errors_carry_position(text):
    with pytest.raises(ParseError) as err:
        parse_act(text)
    assert err.value.position >= 0


_NAMES = st.sampled_from(["food", "area", "pricerange", "slot00", "name"])
_VALUES = st.sampled_from(["thai", "north", "cheap", "val007", "dontcare",
                           "ent0004"])


@st.composite
def acts(draw):
    act_type = draw(st.sampled_from(sorted(ACT_TYPES)))
    if act_type in NO_ITEM_ACTS:
        return DialogueAct(act_type)
    names = draw(st.lists(_NAMES, min_size=0, max_size=3, unique=True))
    if act_type == "request":
        items = tuple((n, None) for n in names)
    else:
        items = tuple((n, draw(_VALUES)) for n in names)
    return DialogueAct(act_type, items)


@given(acts())
def test_round_trip(act):
    assert parse_act(serialize_act(act)) == act


def test_hypothesis_confidence_range():
    ScoredHypothesis(DialogueAct("hello"), 0.5)
    with pytest.raises(ValueError):
        ScoredHypothesis(DialogueAct("hello"), 1.5)
    with pytest.raises(ValueError):
        ScoredHypothesis(DialogueAct("hello"), -0.1)


def test_nbest_ordering_enforced():
    lo = ScoredHypothesis(DialogueAct("hello"), 0.2)
    hi = ScoredHypothesis(DialogueAct("bye"), 0.6)
    NBestList((hi, lo), residual=0.2)
    with pytest.raises(ValueError):
        NBestList((lo, hi), residual=0.2)


def test_nbest_mass_must_sum_to_one():
    hyp = ScoredHypothesis(DialogueAct("hello"), 0.5)
    with pytest.raises(ValueError):
        NBestList((hyp,), residual=0.6)
    NBestList((hyp,), residual=0.5)


def test_nbest_negative_residual_rejected():
    hyp = ScoredHypothesis(DialogueAct("hello"), 1.0)
    with pytest.raises(ValueError):
        NBestList((hyp,), residual=-0.001)


def test_nbest_top():
    lo = ScoredHypothesis(DialogueAct("hello"), 0.3)
    hi = ScoredHypothesis(DialogueAct("bye"), 0.7)
    nbest = NBestList((hi, lo), residual=0.0)
    assert nbest.top is hi
    empty = NBestList((), residual=1.0)
    assert empty.top is None
