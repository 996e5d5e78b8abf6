"""The env turn against the code it replaced.

The ``ref_`` functions below are the belief update (with ``_focus``'s
clip), ``compute_mask``, the handcrafted rules, ``summary_to_master``,
``query`` and ``sample_params`` as they were when every reader worked its
facts out afresh from the belief vector: the method top by ``np.argmax``,
the requested flag by ``np.any``, the top constraints slot by slot, the
matches by ``query``, which sorted the entities on every call, and each
profile parameter by ``Generator.uniform`` or ``Generator.integers``.  The
package now keeps those facts on the belief, on the ontology and on the
profile.  None of that may change a bit: every belief vector, mask,
action, grounded act, user profile and stream state must be equal, not
close.
"""

import sys
from collections import Counter

import numpy as np
import pytest

from dialbench import environment, simulated_user
from dialbench.action_space import build_action_set, summary_to_master
from dialbench.belief_tracker import (
    DONTCARE_IDX,
    METHOD_VALUES,
    NONE_IDX,
    VALUE_OFFSET,
    BeliefState,
    layout_for,
)
from dialbench.domain import DONTCARE, generate_domain, query
from dialbench.environment import DialogueEnv, list_tasks, make_task
from dialbench.policies import HandcraftedPolicy
from dialbench.policies.handcrafted import CONFIRM_HIGH, CONFIRM_LOW
from dialbench.semantics import DialogueAct
from dialbench.simulated_user import (
    _INT_PARAMS,
    PARAM_NAMES,
    PROFILES,
    UserParams,
    sample_params,
)

REQUEST_SETTLED = 0.99
REQUESTED_THRESHOLD = 0.5
OFFERED_THRESHOLD = 0.5
_SYSTEM_INFORM_ACTS = frozenset(
    {"inform", "inform_byname", "inform_alternatives", "inform_requested"}
)

# ------------------------------------------------------------ references


def ref_query(ontology, constraints):
    matched = None
    for slot_name, value in constraints.items():
        slot = ontology.slot_by_name.get(slot_name)
        if slot is None or not slot.is_constraint:
            raise ValueError(f"{slot_name!r} is not a constraint slot")
        if value == DONTCARE:
            continue
        ids = ontology._value_index.get((slot_name, value), frozenset())
        matched = ids if matched is None else (matched & ids)
        if not matched:
            return []
    if matched is None:
        return sorted(ontology.entities, key=lambda e: e.id)
    return sorted((ontology.entity_by_id[i] for i in matched), key=lambda e: e.id)


def ref_sample_params(profile, rng):
    drawn = {}
    for name in PARAM_NAMES:
        lo, hi = profile.intervals[name]
        if name in _INT_PARAMS:
            drawn[name] = int(rng.integers(int(lo), int(hi) + 1))
        else:
            drawn[name] = float(rng.uniform(lo, hi))
    return UserParams(**drawn)


def ref_focus(prior, evidence):
    mass = evidence.sum()
    if mass > 1.0:
        evidence = evidence / mass
        mass = 1.0
    out = evidence + (1.0 - mass) * prior
    np.clip(out, 0.0, None, out=out)
    return out / out.sum()


def ref_update(belief, nbest, system_act, ontology):
    lay = layout_for(ontology)
    padded = belief.padded.copy()
    vec = padded[:-1]
    requested = vec[lay.requested_slice]
    method0 = lay.method_slice.start

    offered_id = belief.offered_entity_id
    if system_act.act_type in _SYSTEM_INFORM_ACTS:
        name = system_act.name_value()
        if name is not None and name != "none":
            vec[-2] = 1.0
            offered_id = name
        for slot, value in system_act.items:
            if value is None or slot == "name":
                continue
            r_idx = lay.requestable_index.get(slot)
            if r_idx is not None:
                requested[r_idx] = 0.0

    evidence = np.zeros(lay.dim)
    request_evidence = evidence[lay.requested_slice]

    confirm_item = None
    if system_act.act_type == "confirm" and system_act.items:
        confirm_item = system_act.items[0]

    for hyp in nbest:
        act, conf = hyp.act, hyp.confidence
        if act.act_type == "inform":
            named = act.name_value()
            has_slot_items = False
            for slot, value in act.items:
                if slot == "name" or value is None or slot not in lay.slot_slices:
                    continue
                has_slot_items = True
                idx = lay.evidence_index(slot, value)
                if idx is not None:
                    evidence[idx] += conf
            if named is not None and named != "none":
                evidence[method0 + METHOD_VALUES.index("byname")] += conf
            elif has_slot_items:
                evidence[method0 + METHOD_VALUES.index("byconstraints")] += conf
        elif act.act_type == "request":
            for slot, _ in act.items:
                r_idx = lay.requestable_index.get(slot)
                if r_idx is not None:
                    request_evidence[r_idx] += conf
        elif act.act_type == "affirm" and confirm_item is not None:
            idx = lay.evidence_index(*confirm_item)
            if idx is not None:
                evidence[idx] += conf
        elif act.act_type == "negate" and confirm_item is not None:
            sl = lay.slot_slices.get(confirm_item[0])
            if sl is not None:
                evidence[sl.start + NONE_IDX] += conf
        elif act.act_type == "deny":
            for slot, _value in act.items:
                sl = lay.slot_slices.get(slot)
                if sl is not None:
                    evidence[sl.start + NONE_IDX] += conf
        elif act.act_type == "reqalts":
            evidence[method0 + METHOD_VALUES.index("byalternatives")] += conf
        elif act.act_type == "bye":
            evidence[method0 + METHOD_VALUES.index("finished")] += conf

    has_evidence = np.logical_or.reduceat(
        evidence[:lay.method_slice.stop] != 0, lay.focus_starts)
    for k in np.flatnonzero(has_evidence).tolist():
        sl = lay.focus_slices[k]
        vec[sl] = ref_focus(vec[sl], evidence[sl])

    for r_idx, conf in enumerate(request_evidence):
        if conf > 0.0:
            c = min(conf, 1.0)
            requested[r_idx] = c + (1.0 - c) * requested[r_idx]

    top = nbest.top
    vec[-1] = top is None or top.act.act_type == "null"
    return BeliefState(padded, lay, offered_id, system_act)


def ref_slot(belief, ontology, slot):
    return belief.vector[layout_for(ontology).slot_slices[slot.name]]


def ref_method_top(belief):
    return METHOD_VALUES[int(np.argmax(belief.method))]


def ref_top_constraints(belief, ontology):
    constraints = {}
    for slot in ontology.constraint_slots:
        idx = int(np.argmax(ref_slot(belief, ontology, slot)))
        if idx >= VALUE_OFFSET:
            constraints[slot.name] = slot.values[idx - VALUE_OFFSET]
    return constraints


def ref_compute_mask(belief, ontology, masks_enabled=True):
    legal = np.ones(5 + 3 * ontology.n_constraint, dtype=bool)
    if not masks_enabled:
        return legal
    method = ref_method_top(belief)
    legal[0] = method == "byconstraints"
    legal[1] = bool(np.any(belief.requested > REQUESTED_THRESHOLD))
    legal[2] = method == "byalternatives" or belief.entity_offered > OFFERED_THRESHOLD
    for k, slot in enumerate(ontology.constraint_slots):
        dist = ref_slot(belief, ontology, slot)
        none_is_top = int(np.argmax(dist)) == NONE_IDX
        legal[5 + 3 * k] = not float(dist[DONTCARE_IDX:].max()) > REQUEST_SETTLED
        legal[6 + 3 * k] = not none_is_top
        legal[7 + 3 * k] = not none_is_top
    return legal


def ref_candidates(policy, belief):
    ontology = policy.ontology
    if (np.any(belief.requested > REQUESTED_THRESHOLD)
            and belief.entity_offered > OFFERED_THRESHOLD):
        yield policy._idx("inform_requested")
    if ref_method_top(belief) == "byalternatives":
        yield policy._idx("inform_alternatives")
    for slot in ontology.constraint_slots:
        prob = float(ref_slot(belief, ontology, slot)[DONTCARE_IDX:].max())
        if CONFIRM_LOW <= prob < CONFIRM_HIGH:
            yield policy._idx("confirm", slot.name)
            break
    unknown = []
    for slot in ontology.constraint_slots:
        dist = ref_slot(belief, ontology, slot)
        prob = float(dist[DONTCARE_IDX:].max())
        if int(np.argmax(dist)) == NONE_IDX or prob < CONFIRM_LOW:
            unknown.append((prob, slot.name))
    if unknown:
        matches = ref_query(ontology, ref_top_constraints(belief, ontology))
        if len(matches) > policy.config.entity_threshold:
            _, slot_name = min(unknown, key=lambda pair: pair[0])
            yield policy._idx("request", slot_name)
    yield policy._idx("inform_byconstraints")
    if ref_method_top(belief) == "finished":
        yield policy._idx("bye")
    yield policy._idx("reqmore")


def ref_act(policy, belief, mask):
    for idx in ref_candidates(policy, belief):
        if mask[idx]:
            return idx
    return int(np.flatnonzero(mask)[0])


def ref_offer_items(entity, constraints, ontology):
    items = [("name", entity.id)]
    for slot in ontology.constraint_slots:
        if slot.name in constraints:
            items.append((slot.name, entity.attributes[slot.name]))
    return tuple(items)


def ref_nomatch_items(constraints, ontology):
    items = [("name", "none")]
    for slot in ontology.constraint_slots:
        if slot.name in constraints:
            items.append((slot.name, constraints[slot.name]))
    return tuple(items)


def ref_summary_to_master(action, belief, ontology):
    if action.kind == "bye":
        return DialogueAct("bye")
    if action.kind == "reqmore":
        return DialogueAct("reqmore")
    if action.kind == "request":
        return DialogueAct("request", ((action.slot, None),))
    if action.kind in ("confirm", "select"):
        slot = ontology.slot_by_name[action.slot]
        dist = ref_slot(belief, ontology, slot)
        order = np.argsort(-dist[DONTCARE_IDX:], kind="stable") + DONTCARE_IDX
        labels = [DONTCARE if idx == DONTCARE_IDX else slot.values[idx - VALUE_OFFSET]
                  for idx in order]
        if action.kind == "confirm":
            return DialogueAct("confirm", ((action.slot, labels[0]),))
        picked = labels[: min(2, len(labels))]
        return DialogueAct("select", tuple((action.slot, v) for v in picked))

    constraints = ref_top_constraints(belief, ontology)
    if action.kind == "inform_requested" and belief.offered_entity_id in (
        ontology.entity_by_id
    ):
        entity = ontology.entity_by_id[belief.offered_entity_id]
        asked = [slot.name for i, slot in enumerate(ontology.requestable_slots)
                 if belief.requested[i] > REQUESTED_THRESHOLD]
        if not asked:
            order = np.argsort(-belief.requested, kind="stable")
            asked = [ontology.requestable_slots[int(order[0])].name]
        items = [("name", entity.id)]
        items.extend((s, entity.attributes[s]) for s in asked)
        return DialogueAct("inform_requested", tuple(items))
    if action.kind == "inform_alternatives":
        matches = ref_query(ontology, constraints)
        alternatives = [e for e in matches if e.id != belief.offered_entity_id]
        if alternatives:
            return DialogueAct("inform_alternatives",
                               ref_offer_items(alternatives[0], constraints, ontology))
        return DialogueAct("inform_alternatives",
                           ref_nomatch_items(constraints, ontology))
    matches = ref_query(ontology, constraints)
    if matches:
        return DialogueAct("inform", ref_offer_items(matches[0], constraints, ontology))
    return DialogueAct("inform", ref_nomatch_items(constraints, ontology))


# The environment's and the user's module-level names, and the reference
# each is swapped for on the reference side.
REFERENCE_SIDE = {
    (environment, "update"): ref_update,
    (environment, "compute_mask"): ref_compute_mask,
    (environment, "summary_to_master"): ref_summary_to_master,
    (environment, "sample_params"): ref_sample_params,
    (simulated_user, "query"): ref_query,
}

# ------------------------------------------------------------ the check


def assert_same_belief(belief, ref, ontology, policy):
    """The belief, and every fact read of it, equals the reference's."""
    assert belief.padded.tobytes() == ref.padded.tobytes()
    assert belief.offered_entity_id == ref.offered_entity_id
    assert belief.last_system_act == ref.last_system_act
    for enabled in (True, False):
        mask = ref_compute_mask(ref, ontology, enabled)
        picked = policy.act(None, mask, None, belief=belief)
        assert picked == ref_act(policy, ref, mask)
    assert list(belief.matches) == ref_query(
        ontology, ref_top_constraints(ref, ontology))
    for action in build_action_set(ontology):
        assert (summary_to_master(action, belief, ontology)
                == ref_summary_to_master(action, ref, ontology))


def run_both_sides(task_id, dialogues, seed, p_handcrafted, monkeypatch):
    """Drive the package's env and the reference env with one seed, side by
    side, and compare them after the reset and after every turn.  Each
    side picks its own action: the handcrafted rules with probability
    ``p_handcrafted``, else a random legal action from its own stream."""
    env, ref_env = DialogueEnv(make_task(task_id)), DialogueEnv(make_task(task_id))
    ontology = env.ontology
    policy = HandcraftedPolicy(ontology)
    rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)

    def ref_side(call):
        with monkeypatch.context() as patch:
            for (owner, name), ref in REFERENCE_SIDE.items():
                patch.setattr(owner, name, ref)
            return call()

    def choose(step, stream, act):
        if stream.random() < p_handcrafted:
            return act(step.belief, step.mask)
        return int(stream.choice(np.flatnonzero(step.mask)))

    turns = 0
    for _ in range(dialogues):
        step = env.reset(rng)
        ref_step = ref_side(lambda: ref_env.reset(ref_rng))
        assert env._user.params == ref_env._user.params
        while True:
            assert rng.bit_generator.state == ref_rng.bit_generator.state
            assert step.done == ref_step.done
            assert np.array_equal(step.mask, ref_step.mask)
            assert step.observation.tobytes() == ref_step.observation.tobytes()
            assert_same_belief(step.belief, ref_step.belief, ontology, policy)
            if step.done:
                break
            action = choose(step, rng, lambda b, m: policy.act(None, m, None, belief=b))
            ref_action = choose(ref_step, ref_rng,
                                lambda b, m: ref_act(policy, b, m))
            assert action == ref_action
            step = env.step(action, rng)
            ref_step = ref_side(lambda: ref_env.step(ref_action, ref_rng))
            assert env._trace[-1].system_act == ref_env._trace[-1].system_act
            assert env._trace[-1].user_act == ref_env._trace[-1].user_act
            assert env._trace[-1].nbest == ref_env._trace[-1].nbest
            turns += 1
        assert env.result().success == ref_env.result().success
    return turns


@pytest.mark.parametrize("task_id", list_tasks())
def test_env_turn_matches_reference(task_id, monkeypatch):
    seed = list_tasks().index(task_id)
    turns = run_both_sides(task_id, 12, seed, 1.0, monkeypatch)
    turns += run_both_sides(task_id, 12, 100 + seed, 0.5, monkeypatch)
    assert turns > 100


@pytest.mark.parametrize("profile", sorted(PROFILES))
def test_sample_params_matches_reference(profile):
    profile = PROFILES[profile]
    rng, ref_rng = np.random.default_rng(3), np.random.default_rng(3)
    for _ in range(2000):
        assert sample_params(profile, rng) == ref_sample_params(profile, ref_rng)
        assert rng.bit_generator.state == ref_rng.bit_generator.state


@pytest.mark.parametrize("code", ["CR", "SFR", "LAP"])
def test_query_matches_reference(code):
    ontology = generate_domain(code)
    rng = np.random.default_rng(4)
    slots = ontology.constraint_slots
    assert list(query(ontology, {})) == ref_query(ontology, {})
    for _ in range(500):
        picked = rng.permutation(len(slots))[:int(rng.integers(1, 4))]
        constraints = {}
        for k in picked.tolist():
            values = slots[k].values + (DONTCARE,)
            constraints[slots[k].name] = values[int(rng.integers(len(values)))]
        got = query(ontology, constraints)
        assert isinstance(got, tuple)
        assert list(got) == ref_query(ontology, constraints)


# ------------------------------------------------------------ counts


def test_facts_are_worked_out_once_per_belief(monkeypatch):
    """Over 20 handcrafted dialogues, the matches' query and the method
    top's argmax each run at most once per distinct belief."""
    runs = {"matches": [], "method_top": []}
    for name, calls in runs.items():
        prop = vars(BeliefState)[name]

        def counted(belief, func=prop.func, calls=calls):
            calls.append(id(belief))
            return func(belief)
        monkeypatch.setattr(prop, "func", counted)
    # every query of the program, by the module that makes it
    queries = Counter()

    def counted_query(*args):
        queries[sys._getframe(1).f_globals["__name__"]] += 1
        return query(*args)
    for name, module in list(sys.modules.items()):
        if name.startswith("dialbench") and vars(module).get("query") is query:
            monkeypatch.setattr(module, "query", counted_query)

    env = DialogueEnv(make_task("env3-SFR"))
    policy = HandcraftedPolicy(env.ontology)
    rng = np.random.default_rng(8)
    beliefs = []    # keeps every belief alive, so no id is reused
    for _ in range(20):
        step = env.reset(rng)
        beliefs.append(step.belief)
        while not step.done:
            step = env.step(policy.act(step.observation, step.mask, rng,
                                       belief=step.belief), rng)
            beliefs.append(step.belief)
    distinct = {id(b) for b in beliefs}
    for calls in runs.values():
        assert calls and max(Counter(calls).values()) == 1
        assert set(calls) <= distinct
    # the user checks its own goal; every other query is a belief's
    del queries["dialbench.simulated_user"]
    assert list(queries) == ["dialbench.belief_tracker"]
    assert queries["dialbench.belief_tracker"] == len(runs["matches"])
