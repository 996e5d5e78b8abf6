"""The per-slot belief summary against the per-slot loops it replaced.

The reference functions below are the loops that ``compute_mask``, the
handcrafted rules 3 and 4 and the top constraints ran before they read
``BeliefState.slot_summary``.  Only argmax, max and comparisons moved into
the summary, so every result must be equal, not close.
"""

import numpy as np
import pytest

from dialbench import action_space, belief_tracker, environment
from dialbench.action_space import (
    REQUEST_SETTLED,
    SLOT_INDEPENDENT,
    build_action_set,
    compute_mask,
    summary_to_master,
)
from dialbench.belief_tracker import (
    DONTCARE_IDX,
    NONE_IDX,
    VALUE_OFFSET,
    BeliefState,
    layout_for,
)
from dialbench.domain import generate_domain, query
from dialbench.environment import DialogueEnv, make_task
from dialbench.policies import HandcraftedPolicy
from dialbench.policies.handcrafted import CONFIRM_HIGH, CONFIRM_LOW
from dialbench.semantics import DialogueAct

from test_belief_tracker import slot_beliefs
from test_env_turn_reference import ref_method_top, ref_summary_to_master

# ------------------------------------------------------------ references


def reference_mask(belief, ontology, masks_enabled=True):
    legal = np.ones(len(SLOT_INDEPENDENT) + 3 * ontology.n_constraint, dtype=bool)
    if not masks_enabled:
        return legal
    method = ref_method_top(belief)
    legal[0] = method == "byconstraints"
    legal[1] = bool(np.any(belief.requested > action_space.REQUESTED_THRESHOLD))
    legal[2] = (method == "byalternatives"
                or belief.entity_offered > action_space.OFFERED_THRESHOLD)
    base = len(SLOT_INDEPENDENT)
    for k, slot in enumerate(ontology.constraint_slots):
        dist = slot_beliefs(belief)[slot.name]
        none_is_top = int(np.argmax(dist)) == NONE_IDX
        settled = float(dist[DONTCARE_IDX:].max()) > REQUEST_SETTLED
        legal[base + 3 * k + 0] = not settled
        legal[base + 3 * k + 1] = not none_is_top
        legal[base + 3 * k + 2] = not none_is_top
    return legal


def reference_top_constraints(belief, ontology):
    constraints = {}
    for slot in ontology.constraint_slots:
        dist = slot_beliefs(belief)[slot.name]
        idx = int(np.argmax(dist))
        if idx >= VALUE_OFFSET:
            constraints[slot.name] = slot.values[idx - VALUE_OFFSET]
    return constraints


def reference_candidates(policy, belief):
    ontology = policy.ontology
    if (np.any(belief.requested > action_space.REQUESTED_THRESHOLD)
            and belief.entity_offered > action_space.OFFERED_THRESHOLD):
        yield policy._idx("inform_requested")
    if ref_method_top(belief) == "byalternatives":
        yield policy._idx("inform_alternatives")
    for slot in ontology.constraint_slots:
        # best entry other than none; dontcare counts as an entry
        prob = float(slot_beliefs(belief)[slot.name][DONTCARE_IDX:].max())
        if CONFIRM_LOW <= prob < CONFIRM_HIGH:
            yield policy._idx("confirm", slot.name)
            break
    unknown = []
    for slot in ontology.constraint_slots:
        dist = slot_beliefs(belief)[slot.name]
        prob = float(dist[DONTCARE_IDX:].max())
        if int(np.argmax(dist)) == NONE_IDX or prob < CONFIRM_LOW:
            unknown.append((prob, slot.name))
    if unknown:
        matches = belief_tracker.query(ontology,
                                       reference_top_constraints(belief, ontology))
        if len(matches) > policy.config.entity_threshold:
            _, slot_name = min(unknown, key=lambda pair: pair[0])
            yield policy._idx("request", slot_name)
    yield policy._idx("inform_byconstraints")
    if ref_method_top(belief) == "finished":
        yield policy._idx("bye")
    yield policy._idx("reqmore")


def reference_act(policy, belief, mask):
    for idx in reference_candidates(policy, belief):
        if mask[idx]:
            return idx
    return int(np.flatnonzero(mask)[0])


# ------------------------------------------------------------ the check


def assert_matches_reference(belief, ontology, policy, monkeypatch):
    slots = belief.slot_summary
    for k, slot in enumerate(ontology.constraint_slots):
        dist = slot_beliefs(belief)[slot.name]
        assert slots.top[k] == np.argmax(dist)
        assert slots.none_top[k] == (np.argmax(dist) == NONE_IDX)
        assert slots.best[k] == dist[DONTCARE_IDX:].max()

    assert dict(belief.top_constraints) == \
        reference_top_constraints(belief, ontology)

    rng = np.random.default_rng(0)
    queries = []
    # the belief makes the query; a fresh copy has not made it yet
    monkeypatch.setattr(belief_tracker, "query",
                        lambda *a: queries.append(1) or query(*a))
    for enabled in (True, False):
        mask = compute_mask(belief, ontology, enabled)
        assert np.array_equal(mask, reference_mask(belief, ontology, enabled))
        del queries[:]
        fresh = BeliefState(belief.padded, layout_for(ontology),
                            belief.offered_entity_id, belief.last_system_act)
        picked = policy.act(None, mask, rng, belief=fresh)
        calls = len(queries)
        assert picked == reference_act(policy, belief, mask)
        assert calls == len(queries) - calls     # rule 4 queries as lazily

    actions = build_action_set(ontology)
    grounded = [summary_to_master(a, belief, ontology) for a in actions]
    expected = [ref_summary_to_master(a, belief, ontology) for a in actions]
    assert grounded == expected


def seeded_beliefs(task_id, dialogues, seed):
    """Every belief of ``dialogues`` episodes that mix handcrafted and
    random legal actions, so confirm, select and alternatives occur."""
    env = DialogueEnv(make_task(task_id))
    policy = HandcraftedPolicy(env.ontology)
    rng = np.random.default_rng(seed)
    beliefs = []
    for _ in range(dialogues):
        step = env.reset(rng)
        beliefs.append(step.belief)
        while not step.done:
            if rng.random() < 0.5:
                action = policy.act(step.observation, step.mask, rng,
                                    belief=step.belief)
            else:
                action = int(rng.choice(np.flatnonzero(step.mask)))
            step = env.step(action, rng)
            beliefs.append(step.belief)
    return env.ontology, policy, beliefs


@pytest.mark.parametrize("task_id", ["env3-CR", "env3-SFR", "env6-LAP"])
def test_summary_readers_match_per_slot_loops(task_id, monkeypatch):
    ontology, policy, beliefs = seeded_beliefs(task_id, 100, seed=5)
    assert len(beliefs) > 500
    for belief in beliefs:
        assert_matches_reference(belief, ontology, policy, monkeypatch)


# ------------------------------------------------------------ ties


def belief_with(ontology, dists):
    """A belief whose constraint slots hold ``dists`` (slot name -> the
    entries to set), everything else at its initial value."""
    lay = layout_for(ontology)
    padded = lay.initial.copy()
    for name, entries in dists.items():
        sl = lay.slot_slices[name]
        padded[sl] = 0.0
        for idx, prob in entries.items():
            padded[sl.start + idx] = prob
    return BeliefState(padded, lay, None, DialogueAct("hello"))


@pytest.fixture(scope="module")
def lap():
    return generate_domain("LAP")


def test_ties_go_to_the_first_entry_and_slot(lap, monkeypatch):
    policy = HandcraftedPolicy(lap)
    a, b, c, d = (s.name for s in lap.constraint_slots[:4])
    v = VALUE_OFFSET
    cases = [
        # none ties with a value: none is top, so confirm stays masked
        {a: {NONE_IDX: 0.5, v: 0.5}},
        # two values tie: the first one is top and becomes the constraint
        {a: {v: 0.4, v + 1: 0.4, NONE_IDX: 0.2}},
        # dontcare ties with a value
        {a: {DONTCARE_IDX: 0.5, v + 2: 0.5}},
        # two slots equally unsure: rule 3 confirms the first
        {a: {v: 0.5, NONE_IDX: 0.5}, b: {v: 0.5, NONE_IDX: 0.5},
         c: {v + 1: 0.5, NONE_IDX: 0.5}},
        # unknown slots tie on their best non-none probability: rule 4
        # requests the first of the least certain ones
        {a: {v: 0.9, NONE_IDX: 0.1}, b: {v: 0.9, NONE_IDX: 0.1},
         c: {v: 0.9, NONE_IDX: 0.1}, d: {v: 0.9, NONE_IDX: 0.1}},
        # a settled slot next to an unsettled one
        {a: {v: 1.0}, b: {v: REQUEST_SETTLED, NONE_IDX: 1 - REQUEST_SETTLED}},
    ]
    for dists in cases:
        belief = belief_with(lap, dists)
        assert_matches_reference(belief, lap, policy, monkeypatch)

    none_tie = belief_with(lap, cases[0]).slot_summary
    assert none_tie.top[0] == NONE_IDX and none_tie.none_top[0]
    value_tie = belief_with(lap, cases[1])
    assert value_tie.slot_summary.top[0] == v
    assert dict(value_tie.top_constraints)[a] == lap.constraint_slots[0].values[0]
    two_unsure = belief_with(lap, cases[3])
    mask = compute_mask(two_unsure, lap, masks_enabled=False)
    assert policy.act(None, mask, np.random.default_rng(0),
                      belief=two_unsure) == policy._idx("confirm", a)


# ------------------------------------------------------------ counts


def test_summary_is_computed_once_per_belief(monkeypatch):
    summaries, masks = [], []
    summarise = belief_tracker.summarise_slots
    mask_of = environment.compute_mask

    def counted_summary(padded, layout):
        summaries.append(id(padded))
        return summarise(padded, layout)

    def counted_mask(belief, *args):
        masks.append(id(belief))
        return mask_of(belief, *args)
    monkeypatch.setattr(belief_tracker, "summarise_slots", counted_summary)
    monkeypatch.setattr(environment, "compute_mask", counted_mask)

    env = DialogueEnv(make_task("env3-SFR"))
    policy = HandcraftedPolicy(env.ontology)
    rng = np.random.default_rng(8)
    beliefs = []    # keeps every belief alive, so no id is reused
    for _ in range(20):
        step = env.reset(rng)
        beliefs.append(step.belief)
        while not step.done:
            # the mask, the policy and the grounding all read the summary
            step = env.step(policy.act(step.observation, step.mask, rng,
                                       belief=step.belief), rng)
            beliefs.append(step.belief)
    distinct = {id(b): b for b in beliefs}
    assert sorted(summaries) == sorted(id(b.padded) for b in distinct.values())
    assert sorted(masks) == sorted(distinct)
