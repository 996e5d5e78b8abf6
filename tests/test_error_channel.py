import dataclasses

import numpy as np
import pytest

from dialbench.domain import generate_domain
from dialbench.environment import make_task
from dialbench.error_channel import (
    PARAM_NAMES,
    PRESETS,
    ErrorParams,
    corrupt,
)
from dialbench.semantics import DialogueAct, NBestList, serialize_act


def is_corrupted(nbest: NBestList, true_act: DialogueAct) -> bool:
    """True when the channel altered the top hypothesis."""
    top = nbest.top
    return top is None or top.act != true_act


@pytest.fixture(scope="module")
def ontology():
    return generate_domain("CR")


def sample_acts(ontology, rng, n):
    slots = ontology.constraint_slots
    acts = []
    for _ in range(n):
        kind = rng.random()
        if kind < 0.5:
            slot = slots[int(rng.integers(len(slots)))]
            value = slot.values[int(rng.integers(len(slot.values)))]
            acts.append(DialogueAct("inform", ((slot.name, value),)))
        elif kind < 0.7:
            slot = ontology.requestable_slots[
                int(rng.integers(len(ontology.requestable_slots)))]
            acts.append(DialogueAct("request", ((slot.name, None),)))
        elif kind < 0.8:
            slot = slots[int(rng.integers(len(slots)))]
            value = slot.values[int(rng.integers(len(slot.values)))]
            acts.append(DialogueAct("confirm", ((slot.name, value),)))
        elif kind < 0.9:
            acts.append(DialogueAct("affirm"))
        else:
            acts.append(DialogueAct("bye"))
    return acts


def test_exactly_41_parameters():
    assert len(PARAM_NAMES) == 41


def test_presets_exist_for_all_envs():
    assert set(PRESETS) == {"clean", "noisy15", "noisy30"}
    def preset_ser(env):
        return PRESETS[make_task(f"env{env}-CR").error_preset].ser
    assert preset_ser(1) == 0.0
    assert preset_ser(2) == 0.0
    assert preset_ser(3) == 0.15
    assert preset_ser(4) == 0.15
    assert preset_ser(5) == 0.15
    assert preset_ser(6) == 0.30


def test_confusion_kernel_must_sum_to_one():
    with pytest.raises(ValueError):
        dataclasses.replace(PRESETS["noisy15"], p_confuse_acttype=0.5,
                            p_confuse_slot=0.5, p_confuse_value=0.5)


def test_ser_range_validated():
    with pytest.raises(ValueError):
        dataclasses.replace(PRESETS["noisy15"], ser=1.5)
    with pytest.raises(ValueError):
        dataclasses.replace(PRESETS["noisy15"], ser=-0.01)


@pytest.mark.parametrize("name,changes", [
    ("p_null_top", {"p_null_top": 1.5}),
    ("p_empty_nbest", {"p_empty_nbest": -0.01}),
    ("p_drop_item", {"p_drop_item": float("nan")}),
    ("true_pos_decay", {"true_pos_decay": 1.5}),
    ("true_pos_decay", {"true_pos_decay": -0.5}),
    ("w_conf_inform", {"w_conf_inform": -0.5}),
    ("w_conf_null", {"w_conf_null": -1e-9}),
    # a split that sums to one, with two parts that are no probability
    ("p_confuse_acttype", {"p_confuse_acttype": 1.1, "p_confuse_slot": -0.5}),
])
def test_probability_and_weight_ranges_validated(name, changes):
    with pytest.raises(ValueError, match=name):
        dataclasses.replace(PRESETS["noisy15"], **changes)


@pytest.mark.parametrize("name,value", [
    ("p_null_top", 0.0), ("p_null_top", 1.0), ("true_pos_decay", 0.0),
    ("true_pos_decay", 1.0), ("w_conf_inform", 0.0),
])
def test_range_bounds_are_legal(name, value):
    assert getattr(dataclasses.replace(PRESETS["noisy15"], **{name: value}),
                   name) == value


def test_length_weights_validated():
    with pytest.raises(ValueError):
        dataclasses.replace(PRESETS["noisy15"], len_w1=-1.0)


@pytest.mark.parametrize("ser", [0.15, 0.30])
def test_empirical_ser_tracks_configured(ontology, ser):
    params = dataclasses.replace(PRESETS["noisy30" if ser == 0.30 else "noisy15"],
                                 ser=ser)
    rng = np.random.default_rng(42)
    acts = sample_acts(ontology, rng, 100_000)
    hits = sum(is_corrupted(corrupt(act, params, ontology, rng), act)
               for act in acts)
    assert abs(hits / len(acts) - ser) < 0.01


def test_zero_ser_never_corrupts(ontology):
    params = PRESETS["clean"]
    assert params.ser == 0.0
    rng = np.random.default_rng(17)
    for act in sample_acts(ontology, rng, 20_000):
        nbest = corrupt(act, params, ontology, rng)
        assert not is_corrupted(nbest, act)
        assert nbest.top.act == act


def test_nbest_is_valid_distribution(ontology):
    params = PRESETS["noisy30"]
    rng = np.random.default_rng(7)
    for act in sample_acts(ontology, rng, 2000):
        nbest = corrupt(act, params, ontology, rng)
        mass = sum(h.confidence for h in nbest.hypotheses) + nbest.residual
        assert abs(mass - 1.0) < 1e-9
        confs = [h.confidence for h in nbest.hypotheses]
        assert confs == sorted(confs, reverse=True)
        assert len(nbest.hypotheses) <= params.nbest_max


def test_hypotheses_are_distinct(ontology):
    params = PRESETS["noisy30"]
    rng = np.random.default_rng(11)
    for act in sample_acts(ontology, rng, 2000):
        nbest = corrupt(act, params, ontology, rng)
        keys = [serialize_act(h.act) for h in nbest.hypotheses]
        assert len(keys) == len(set(keys))


def test_confidence_is_informative(ontology):
    """Correct top hypotheses should carry higher confidence on average
    than corrupted ones; that is what makes belief tracking possible."""
    params = PRESETS["noisy15"]
    rng = np.random.default_rng(3)
    correct, wrong = [], []
    for act in sample_acts(ontology, rng, 30_000):
        nbest = corrupt(act, params, ontology, rng)
        if nbest.top is None:
            continue
        (correct if nbest.top.act == act else wrong).append(
            nbest.top.confidence)
    assert np.mean(correct) > np.mean(wrong) + 0.15


def test_corrupted_top_differs_from_true_act(ontology):
    params = dataclasses.replace(PRESETS["noisy15"], ser=1.0, p_empty_nbest=0.0,
                                 p_null_top=0.0)
    rng = np.random.default_rng(23)
    for act in sample_acts(ontology, rng, 3000):
        nbest = corrupt(act, params, ontology, rng)
        assert nbest.top.act != act


def test_empty_nbest_rate(ontology):
    params = dataclasses.replace(PRESETS["noisy15"], ser=1.0, p_empty_nbest=0.5)
    rng = np.random.default_rng(29)
    acts = sample_acts(ontology, rng, 20_000)
    empties = sum(not corrupt(a, params, ontology, rng).hypotheses
                  for a in acts)
    assert abs(empties / len(acts) - 0.5) < 0.02


def test_null_top_rate(ontology):
    # value-only confusions so no other route can produce a null top
    params = dataclasses.replace(PRESETS["noisy15"], ser=1.0, p_empty_nbest=0.0,
                                 p_null_top=0.5, p_confuse_acttype=0.0,
                                 p_confuse_slot=0.0, p_confuse_value=1.0)
    rng = np.random.default_rng(31)
    acts = sample_acts(ontology, rng, 20_000)
    nulls = 0
    for act in acts:
        nbest = corrupt(act, params, ontology, rng)
        nulls += nbest.top is not None and nbest.top.act.act_type == "null"
    assert abs(nulls / len(acts) - 0.5) < 0.02


def test_true_act_buried_when_kept(ontology):
    params = dataclasses.replace(PRESETS["noisy15"], ser=1.0, p_empty_nbest=0.0,
                                 p_null_top=0.0, p_true_in_nbest=1.0,
                                 len_w1=0.0, len_w2=0.0, len_w3=0.0, len_w4=0.0,
                                 len_w5=1.0)
    rng = np.random.default_rng(37)
    buried = 0
    total = 0
    for act in sample_acts(ontology, rng, 4000):
        nbest = corrupt(act, params, ontology, rng)
        total += 1
        tail = [h.act for h in nbest.hypotheses[1:]]
        if act in tail:
            buried += 1
    # the true act survives below the top slot most of the time
    assert buried / total > 0.8


def test_length_distribution_respected(ontology):
    params = dataclasses.replace(PRESETS["noisy15"], ser=1.0, p_empty_nbest=0.0,
                                 len_w1=1.0, len_w2=0.0, len_w3=0.0, len_w4=0.0,
                                 len_w5=0.0)
    rng = np.random.default_rng(41)
    for act in sample_acts(ontology, rng, 2000):
        nbest = corrupt(act, params, ontology, rng)
        assert len(nbest.hypotheses) <= 1


def test_single_parameter_fields_complete():
    """Every documented parameter is an actual dataclass field."""
    fields = {f.name for f in dataclasses.fields(ErrorParams)}
    assert fields == set(PARAM_NAMES)
    expected = {
        "ser", "nbest_max",
        "len_w1", "len_w2", "len_w3", "len_w4", "len_w5",
        "conf_correct_a", "conf_correct_b", "conf_incorrect_a",
        "conf_incorrect_b", "conf_tail_a", "conf_tail_b",
        "conf_buried_a", "conf_buried_b",
        "residual_floor", "residual_spread",
        "p_confuse_acttype", "p_confuse_slot", "p_confuse_value",
        "p_null_top", "p_empty_nbest", "p_true_in_nbest",
        "true_pos_decay", "tail_decay",
        "w_conf_inform", "w_conf_request", "w_conf_confirm",
        "w_conf_affirm", "w_conf_negate", "w_conf_reqalts",
        "w_conf_bye", "w_conf_null",
        "p_polarity_flip", "p_request_to_inform",
        "p_corrupt_single_item", "p_drop_item", "p_add_item",
        "p_second_confusion",
        "value_conf_concentration", "slot_conf_concentration",
    }
    assert fields == expected
