import gc
import weakref

import numpy as np
import pytest

from dialbench.belief_tracker import (
    DONTCARE_IDX,
    METHOD_VALUES,
    NONE_IDX,
    VALUE_OFFSET,
    belief_dim,
    flatten,
    init_belief,
    layout_for,
    update,
)
from dialbench.domain import DONTCARE, generate_domain
from dialbench.semantics import DialogueAct, NBestList, ScoredHypothesis


@pytest.fixture(scope="module")
def ontology():
    return generate_domain("CR")


def slot_beliefs(belief):
    """Each constraint slot's distribution, a read-only view into the
    belief's vector."""
    return {name: belief.vector[sl]
            for name, sl in belief._layout.slot_slices.items()}


def last_user_act_null(belief):
    return bool(belief.vector[-1])


def nbest_of(*pairs, residual=None):
    hyps = tuple(ScoredHypothesis(act, conf) for act, conf in pairs)
    if residual is None:
        residual = 1.0 - sum(conf for _, conf in pairs)
    return NBestList(hyps, residual=residual)


def inform(slot, value, conf):
    return (DialogueAct("inform", ((slot, value),)), conf)


def test_dims_ordered_across_domains():
    dims = [belief_dim(generate_domain(c)) for c in ("CR", "SFR", "LAP")]
    assert dims[0] < dims[1] < dims[2]


def test_init_belief_shape(ontology):
    belief = init_belief(ontology)
    lay = layout_for(ontology)
    for name, dist in slot_beliefs(belief).items():
        assert dist.shape == (lay.slot_dims[name],)
        assert dist[NONE_IDX] == 1.0
    assert belief.method_top == "none"
    assert belief.entity_offered == 0.0


def test_single_inform_puts_confidence_on_value(ontology):
    slot = ontology.constraint_slots[0]
    value = slot.values[0]
    belief = init_belief(ontology)
    belief = update(belief, nbest_of(inform(slot.name, value, 0.7)),
                    DialogueAct("hello"), ontology)
    dist = slot_beliefs(belief)[slot.name]
    idx = layout_for(ontology).value_index[slot.name][value]
    assert dist[idx] == pytest.approx(0.7, abs=1e-12)
    assert dist[NONE_IDX] == pytest.approx(0.3, abs=1e-12)


def test_two_half_confidence_informs_compound(ontology):
    slot = ontology.constraint_slots[0]
    value = slot.values[0]
    belief = init_belief(ontology)
    for _ in range(2):
        belief = update(belief, nbest_of(inform(slot.name, value, 0.5)),
                        DialogueAct("hello"), ontology)
    idx = layout_for(ontology).value_index[slot.name][value]
    assert slot_beliefs(belief)[slot.name][idx] == pytest.approx(0.75, abs=1e-12)


def test_focus_replaces_competing_value(ontology):
    slot = ontology.constraint_slots[0]
    v1, v2 = slot.values[0], slot.values[1]
    belief = init_belief(ontology)
    belief = update(belief, nbest_of(inform(slot.name, v1, 1.0)),
                    DialogueAct("hello"), ontology)
    belief = update(belief, nbest_of(inform(slot.name, v2, 1.0)),
                    DialogueAct("hello"), ontology)
    lay = layout_for(ontology)
    dist = slot_beliefs(belief)[slot.name]
    assert dist[lay.value_index[slot.name][v2]] == pytest.approx(1.0)
    assert dist[lay.value_index[slot.name][v1]] == pytest.approx(0.0)


def test_dontcare_is_trackable(ontology):
    slot = ontology.constraint_slots[1]
    belief = init_belief(ontology)
    belief = update(belief, nbest_of(inform(slot.name, DONTCARE, 0.9)),
                    DialogueAct("hello"), ontology)
    assert slot_beliefs(belief)[slot.name][DONTCARE_IDX] == pytest.approx(0.9)
    # dontcare counts as the best entry other than none
    assert belief.slot_summary.best[1] == pytest.approx(0.9)


def test_normalization_under_fuzz(ontology):
    rng = np.random.default_rng(13)
    belief = init_belief(ontology)
    slots = ontology.constraint_slots
    for i in range(3000):
        slot = slots[int(rng.integers(len(slots)))]
        value = slot.values[int(rng.integers(len(slot.values)))]
        c1 = rng.random() * 0.7
        c2 = rng.random() * (1.0 - c1)
        other = slot.values[int(rng.integers(len(slot.values)))]
        nbest = nbest_of(*sorted([inform(slot.name, value, c1),
                                  inform(slot.name, other, c2)],
                                 key=lambda p: -p[1]))
        belief = update(belief, nbest, DialogueAct("hello"), ontology)
        for dist in slot_beliefs(belief).values():
            assert abs(dist.sum() - 1.0) < 1e-9
        assert abs(belief.method.sum() - 1.0) < 1e-9


def test_method_byname_on_name_inform(ontology):
    belief = init_belief(ontology)
    entity = ontology.entities[0]
    nbest = nbest_of((DialogueAct("inform", (("name", entity.id),)), 0.9))
    belief = update(belief, nbest, DialogueAct("hello"), ontology)
    assert belief.method_top == "byname"


def test_method_byconstraints_on_slot_inform(ontology):
    slot = ontology.constraint_slots[0]
    belief = init_belief(ontology)
    belief = update(belief, nbest_of(inform(slot.name, slot.values[0], 0.8)),
                    DialogueAct("hello"), ontology)
    assert belief.method_top == "byconstraints"


def test_method_byalternatives_on_reqalts(ontology):
    belief = init_belief(ontology)
    belief = update(belief, nbest_of((DialogueAct("reqalts"), 0.9)),
                    DialogueAct("hello"), ontology)
    assert belief.method_top == "byalternatives"


def test_method_finished_on_bye(ontology):
    belief = init_belief(ontology)
    belief = update(belief, nbest_of((DialogueAct("bye"), 1.0)),
                    DialogueAct("hello"), ontology)
    assert belief.method_top == "finished"


def test_request_raises_requested_flag(ontology):
    req = ontology.requestable_slots[0]
    belief = init_belief(ontology)
    nbest = nbest_of((DialogueAct("request", ((req.name, None),)), 0.8))
    belief = update(belief, nbest, DialogueAct("hello"), ontology)
    idx = layout_for(ontology).requestable_index[req.name]
    assert belief.requested[idx] == pytest.approx(0.8)


def test_system_inform_clears_requested_and_offers(ontology):
    req = ontology.requestable_slots[0]
    entity = ontology.entities[0]
    belief = init_belief(ontology)
    nbest = nbest_of((DialogueAct("request", ((req.name, None),)), 0.9))
    belief = update(belief, nbest, DialogueAct("hello"), ontology)

    system = DialogueAct("inform", (("name", entity.id),
                                    (req.name, entity.attributes[req.name])))
    belief = update(belief, nbest_of((DialogueAct("affirm"), 0.5)),
                    system, ontology)
    idx = layout_for(ontology).requestable_index[req.name]
    assert belief.requested[idx] == 0.0
    assert belief.entity_offered == 1.0
    assert belief.offered_entity_id == entity.id


def test_negate_after_confirm_routes_to_none(ontology):
    slot = ontology.constraint_slots[0]
    value = slot.values[0]
    belief = init_belief(ontology)
    belief = update(belief, nbest_of(inform(slot.name, value, 1.0)),
                    DialogueAct("hello"), ontology)
    confirm = DialogueAct("confirm", ((slot.name, value),))
    belief = update(belief, nbest_of((DialogueAct("negate"), 1.0)),
                    confirm, ontology)
    dist = slot_beliefs(belief)[slot.name]
    assert dist[NONE_IDX] == pytest.approx(1.0)


def test_affirm_after_confirm_boosts_value(ontology):
    slot = ontology.constraint_slots[0]
    value = slot.values[0]
    belief = init_belief(ontology)
    confirm = DialogueAct("confirm", ((slot.name, value),))
    belief = update(belief, nbest_of((DialogueAct("affirm"), 0.9)),
                    confirm, ontology)
    idx = layout_for(ontology).value_index[slot.name][value]
    assert slot_beliefs(belief)[slot.name][idx] == pytest.approx(0.9)


def test_deny_routes_mass_to_none(ontology):
    slot = ontology.constraint_slots[0]
    value = slot.values[0]
    belief = init_belief(ontology)
    belief = update(belief, nbest_of(inform(slot.name, value, 1.0)),
                    DialogueAct("hello"), ontology)
    deny = nbest_of((DialogueAct("deny", ((slot.name, value),)), 1.0))
    belief = update(belief, deny, DialogueAct("hello"), ontology)
    dist = slot_beliefs(belief)[slot.name]
    assert dist[NONE_IDX] == pytest.approx(1.0)


def test_null_observation_flag(ontology):
    belief = init_belief(ontology)
    belief = update(belief, NBestList((), residual=1.0),
                    DialogueAct("hello"), ontology)
    assert last_user_act_null(belief)
    belief = update(belief, nbest_of((DialogueAct("affirm"), 0.6)),
                    DialogueAct("hello"), ontology)
    assert not last_user_act_null(belief)


def test_flatten_shape_and_order(ontology):
    lay = layout_for(ontology)
    belief = init_belief(ontology)
    vec = flatten(belief, ontology)
    assert vec.shape == (lay.dim,)
    assert np.isfinite(vec).all()

    offset = 0
    for slot in ontology.constraint_slots:
        width = lay.slot_dims[slot.name]
        section = vec[offset:offset + width]
        assert np.allclose(section, slot_beliefs(belief)[slot.name])
        offset += width
    assert np.allclose(vec[offset:offset + len(METHOD_VALUES)], belief.method)
    offset += len(METHOD_VALUES)
    offset += len(lay.requestable_index)
    assert vec[offset] == belief.entity_offered
    assert vec[offset + 1] == float(last_user_act_null(belief))


def test_flatten_dim_matches_helper(ontology):
    assert flatten(init_belief(ontology), ontology).shape[0] == \
        belief_dim(ontology)


def test_update_does_not_mutate_input(ontology):
    slot = ontology.constraint_slots[0]
    belief = init_belief(ontology)
    before = {k: v.copy() for k, v in slot_beliefs(belief).items()}
    update(belief, nbest_of(inform(slot.name, slot.values[0], 0.5)),
           DialogueAct("hello"), ontology)
    for k, v in slot_beliefs(belief).items():
        assert np.array_equal(v, before[k])


def test_layout_dies_with_its_ontology():
    ontology = generate_domain("CR")
    layout = weakref.ref(layout_for(ontology))
    assert layout_for(ontology) is layout()
    del ontology
    gc.collect()
    assert layout() is None


def test_each_ontology_gets_its_own_layout():
    cr, lap = generate_domain("CR"), generate_domain("LAP")
    assert layout_for(cr) is not layout_for(lap)
    assert belief_dim(cr) != belief_dim(lap)
    assert list(layout_for(lap).slot_slices) == [
        s.name for s in lap.constraint_slots]



def test_belief_is_read_only(ontology):
    slot = ontology.constraint_slots[0]
    belief = update(init_belief(ontology),
                    nbest_of(inform(slot.name, slot.values[0], 0.5)),
                    DialogueAct("hello"), ontology)
    with pytest.raises(ValueError):
        flatten(belief, ontology)[0] = 0.5
    with pytest.raises(ValueError):
        slot_beliefs(belief)[slot.name][NONE_IDX] = 0.5
    with pytest.raises(ValueError):
        belief.requested[0] = 1.0
