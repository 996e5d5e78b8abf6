"""Behaviour tests: one or more per user parameter, plus population and
oracle checks."""

import numpy as np
import pytest
from scipy import stats

from dialbench.domain import DONTCARE, generate_domain, query
from dialbench.semantics import DialogueAct
from dialbench.simulated_user import (
    PARAM_NAMES,
    PROFILES,
    STANDARD_PROFILE,
    UNFRIENDLY_PROFILE,
    ProfileDistribution,
    SimulatedUser,
    UserGoal,
    UserParams,
    is_goal_fulfilled,
    sample_goal,
    sample_params,
)


@pytest.fixture(scope="module")
def ontology():
    return generate_domain("CR")


def make_params(**over):
    base = dict(
        p_inform_all=0.0, p_extra_info=0.0, p_repeat=0.0,
        p_confirm_when_asked=1.0, p_affirm_error=0.0,
        p_request_alternatives=0.0, p_by_name=0.0,
        p_random_goal_change=0.0, max_goal_changes=0,
        patience=100, p_patience_old_style=0.0,
        max_requests_per_turn=1, p_open_with_hello=0.0,
        p_request_at_start=0.0, p_silence=0.0, p_ignore_request=0.0,
        p_recheck_request=0.0, p_select_affirm=1.0, p_deny=0.0,
        p_relax_on_noentity=1.0, p_reqalts_after_offer=0.0,
        goal_min_constraints=2, goal_max_constraints=2,
        goal_min_requests=1, goal_max_requests=1, p_abandon=0.0,
    )
    base.update(over)
    return UserParams(**base)


def make_goal(ontology, n_constraints=2, requests=("slot03",),
              entity_index=0, byname=None):
    entity = ontology.entities[entity_index]
    names = [s.name for s in ontology.constraint_slots[:n_constraints]]
    return UserGoal(
        constraints={s: entity.attributes[s] for s in names},
        requests=tuple(requests),
        satisfiable=True,
        byname_entity=entity.id if byname else None,
    )


def make_user(ontology, params=None, goal=None, seed=0):
    params = params if params is not None else make_params()
    goal = goal if goal is not None else make_goal(ontology)
    return SimulatedUser(ontology, params, goal, np.random.default_rng(seed))


def offer_act(ontology, goal):
    entity = query(ontology, goal.constraints)[0]
    return DialogueAct("inform", (("name", entity.id),)), entity


def test_param_names_frozen():
    # guard against accidental field drift
    assert len(PARAM_NAMES) == 26


def test_p_inform_all_bundles_constraints(ontology):
    user = make_user(ontology, make_params(p_inform_all=1.0))
    informs = [a for a in user.agenda if a.act_type == "inform"]
    assert len(informs) == 1 and len(informs[0].items) == 2

    user = make_user(ontology, make_params(p_inform_all=0.0))
    informs = [a for a in user.agenda if a.act_type == "inform"]
    assert len(informs) == 2
    assert all(len(a.items) == 1 for a in informs)


def test_p_extra_info_volunteers_second_constraint(ontology):
    params = make_params(p_extra_info=1.0)
    user = make_user(ontology, params)
    rng = np.random.default_rng(1)
    slot = list(user.goal.constraints)[0]
    act = user.respond(DialogueAct("request", ((slot, None),)), rng)
    assert act.act_type == "inform"
    assert len(act.items) == 2
    slots = {s for s, _ in act.items}
    assert slots <= set(user.goal.constraints)


def test_p_repeat_replays_last_act(ontology):
    params = make_params(p_repeat=1.0)
    user = make_user(ontology, params)
    rng = np.random.default_rng(1)
    first = user.opening_act(rng)
    second = user.respond(DialogueAct("hello"), rng)
    assert second == first


def test_p_confirm_when_asked_affirms_truth(ontology):
    user = make_user(ontology, make_params(p_confirm_when_asked=1.0))
    rng = np.random.default_rng(1)
    slot, value = next(iter(user.goal.constraints.items()))
    act = user.respond(DialogueAct("confirm", ((slot, value),)), rng)
    assert act == DialogueAct("affirm")

    user = make_user(ontology, make_params(p_confirm_when_asked=0.0))
    act = user.respond(DialogueAct("confirm", ((slot, value),)), rng)
    assert act == DialogueAct("inform", ((slot, value),))


def test_p_affirm_error_wrongly_affirms(ontology):
    user = make_user(ontology, make_params(p_affirm_error=1.0))
    rng = np.random.default_rng(1)
    slot = list(user.goal.constraints)[0]
    wrong = next(v for v in ontology.slot_by_name[slot].values
                 if v != user.goal.constraints[slot])
    act = user.respond(DialogueAct("confirm", ((slot, wrong),)), rng)
    assert act == DialogueAct("affirm")


def test_wrong_confirm_corrected_by_default(ontology):
    user = make_user(ontology, make_params())
    rng = np.random.default_rng(1)
    slot = list(user.goal.constraints)[0]
    truth = user.goal.constraints[slot]
    wrong = next(v for v in ontology.slot_by_name[slot].values if v != truth)
    act = user.respond(DialogueAct("confirm", ((slot, wrong),)), rng)
    assert act == DialogueAct("inform", ((slot, truth),))


def test_p_request_alternatives_on_bad_offer(ontology):
    user = make_user(ontology, make_params(p_request_alternatives=1.0))
    rng = np.random.default_rng(1)
    slot = list(user.goal.constraints)[0]
    bad = next(e for e in ontology.entities
               if e.attributes[slot] != user.goal.constraints[slot])
    act = user.respond(DialogueAct("inform", (("name", bad.id),)), rng)
    assert act == DialogueAct("reqalts")


def test_bad_offer_corrected_without_reqalts(ontology):
    user = make_user(ontology, make_params(p_request_alternatives=0.0))
    rng = np.random.default_rng(1)
    bad = next(e for e in ontology.entities
               if any(e.attributes[s] != v
                      for s, v in user.goal.constraints.items()))
    act = user.respond(DialogueAct("inform", (("name", bad.id),)), rng)
    assert act.act_type == "inform"
    slot, value = act.items[0]
    assert user.goal.constraints[slot] == value


def test_p_by_name_opens_with_entity(ontology):
    rng = np.random.default_rng(0)
    params = make_params(p_by_name=1.0)
    goal = sample_goal(ontology, params, rng)
    assert goal.byname_entity is not None
    user = SimulatedUser(ontology, params, goal, np.random.default_rng(1))
    byname = [a for a in user.agenda
              if a.act_type == "inform" and a.name_value() is not None]
    assert byname

    goal = sample_goal(ontology, make_params(p_by_name=0.0), rng)
    assert goal.byname_entity is None


def test_p_random_goal_change_rewrites_constraint(ontology):
    user = make_user(ontology, make_params(p_random_goal_change=1.0,
                                           max_goal_changes=1))
    before = dict(user.goal.constraints)
    rng = np.random.default_rng(1)
    user.respond(DialogueAct("hello"), rng)
    assert user.goal.constraints != before
    assert user.goal_changes == 1


def test_max_goal_changes_caps_rewrites(ontology):
    user = make_user(ontology, make_params(p_random_goal_change=1.0,
                                           max_goal_changes=0))
    before = dict(user.goal.constraints)
    rng = np.random.default_rng(1)
    for _ in range(5):
        user.respond(DialogueAct("hello"), rng)
    assert user.goal.constraints == before


def test_patience_exhaustion_hangs_up(ontology):
    user = make_user(ontology, make_params(patience=2))
    rng = np.random.default_rng(1)
    unhelpful = DialogueAct("request", (("slot08", None),))
    acts = [user.respond(unhelpful, rng) for _ in range(6)]
    assert DialogueAct("bye") in acts
    assert user.terminated
    # repeating the same system act counts as unhelpful from the second
    # occurrence; patience 2 tolerates two strikes
    assert acts.index(DialogueAct("bye")) == 3


def test_p_patience_old_style_never_resets(ontology):
    old = make_user(ontology, make_params(patience=2,
                                          p_patience_old_style=1.0))
    fresh = make_user(ontology, make_params(patience=2,
                                            p_patience_old_style=0.0))
    assert old.old_style_patience and not fresh.old_style_patience

    rng = np.random.default_rng(1)
    repeated = DialogueAct("request", (("slot08", None),))
    relief = DialogueAct("hello")
    for user in (old, fresh):
        user.respond(repeated, rng)
        user.respond(repeated, rng)   # strike 1
        user.respond(repeated, rng)   # strike 2
        user.respond(relief, rng)     # resets only the new style
        user.respond(relief, rng)     # identical relief twice = strike!
    assert old.terminated
    assert not fresh.terminated


def test_max_requests_per_turn_chunks(ontology):
    goal = make_goal(ontology, requests=("slot03", "slot04", "slot05"))
    user = make_user(ontology, make_params(max_requests_per_turn=2),
                     goal=goal)
    chunks = [a for a in user.agenda if a.act_type == "request"]
    sizes = sorted(len(a.items) for a in chunks)
    assert sizes == [1, 2]

    user = make_user(ontology, make_params(max_requests_per_turn=1),
                     goal=goal)
    chunks = [a for a in user.agenda if a.act_type == "request"]
    assert all(len(a.items) == 1 for a in chunks) and len(chunks) == 3


def test_p_open_with_hello(ontology):
    user = make_user(ontology, make_params(p_open_with_hello=1.0))
    assert user.opening_act(np.random.default_rng(1)) == DialogueAct("hello")
    user = make_user(ontology, make_params(p_open_with_hello=0.0))
    assert user.opening_act(np.random.default_rng(1)).act_type != "hello"


def test_p_request_at_start_front_loads_request(ontology):
    user = make_user(ontology, make_params(p_request_at_start=1.0))
    opening = user.opening_act(np.random.default_rng(1))
    assert opening.act_type == "request"
    assert opening.items[0][0] == user.goal.requests[0]


def test_p_silence_returns_null(ontology):
    user = make_user(ontology, make_params(p_silence=1.0))
    before = list(user.agenda)
    act = user.respond(DialogueAct("hello"), np.random.default_rng(1))
    assert act == DialogueAct("null")
    assert user.agenda == before


def test_p_ignore_request_skips_answer(ontology):
    user = make_user(ontology, make_params(p_ignore_request=1.0))
    rng = np.random.default_rng(1)
    slot = list(user.goal.constraints)[0]
    act = user.respond(DialogueAct("request", ((slot, None),)), rng)
    # user pursues its own agenda instead of answering the question
    assert act.act_type == "inform"
    answered = {s for s, _ in act.items}
    assert slot not in answered or user.agenda


def test_p_recheck_request_double_checks(ontology):
    user = make_user(ontology, make_params(p_recheck_request=1.0))
    rng = np.random.default_rng(1)
    offer, entity = offer_act(ontology, user.goal)
    req = user.goal.requests[0]
    full = DialogueAct("inform", (("name", entity.id),
                                  (req, entity.attributes[req])))
    user.respond(full, rng)
    assert user.fulfilled()
    act = user.respond(DialogueAct("reqmore"), rng)
    assert act == DialogueAct("request", ((req, None),))
    assert not user.fulfilled()


def test_reqmore_after_fulfilled_ends(ontology):
    user = make_user(ontology, make_params(p_recheck_request=0.0))
    rng = np.random.default_rng(1)
    _, entity = offer_act(ontology, user.goal)
    req = user.goal.requests[0]
    full = DialogueAct("inform", (("name", entity.id),
                                  (req, entity.attributes[req])))
    user.respond(full, rng)
    act = user.respond(DialogueAct("reqmore"), rng)
    assert act == DialogueAct("bye")


def test_p_select_affirm(ontology):
    user = make_user(ontology, make_params(p_select_affirm=1.0))
    rng = np.random.default_rng(1)
    slot = list(user.goal.constraints)[0]
    truth = user.goal.constraints[slot]
    other = next(v for v in ontology.slot_by_name[slot].values if v != truth)
    act = user.respond(DialogueAct("select", ((slot, truth), (slot, other))),
                       rng)
    assert act == DialogueAct("affirm")

    user = make_user(ontology, make_params(p_select_affirm=0.0))
    act = user.respond(DialogueAct("select", ((slot, truth), (slot, other))),
                       rng)
    assert act == DialogueAct("inform", ((slot, truth),))


def test_select_with_wrong_lead_informs_truth(ontology):
    user = make_user(ontology, make_params(p_select_affirm=1.0))
    rng = np.random.default_rng(1)
    slot = list(user.goal.constraints)[0]
    truth = user.goal.constraints[slot]
    other = next(v for v in ontology.slot_by_name[slot].values if v != truth)
    act = user.respond(DialogueAct("select", ((slot, other), (slot, truth))),
                       rng)
    assert act == DialogueAct("inform", ((slot, truth),))


def test_p_deny_precedes_correction(ontology):
    user = make_user(ontology, make_params(p_deny=1.0))
    rng = np.random.default_rng(1)
    slot = list(user.goal.constraints)[0]
    truth = user.goal.constraints[slot]
    wrong = next(v for v in ontology.slot_by_name[slot].values if v != truth)
    first = user.respond(DialogueAct("confirm", ((slot, wrong),)), rng)
    assert first == DialogueAct("deny", ((slot, wrong),))
    second = user.respond(DialogueAct("hello"), rng)
    assert second == DialogueAct("inform", ((slot, truth),))


def test_p_relax_on_noentity_drops_constraint(ontology):
    user = make_user(ontology, make_params(p_relax_on_noentity=1.0))
    rng = np.random.default_rng(1)
    user.goal.satisfiable = False       # system proved there is no match
    n_before = len(user.goal.constraints)
    act = user.respond(DialogueAct("inform", (("name", "none"),)), rng)
    assert act.act_type == "inform"
    assert act.items[0][1] == DONTCARE
    assert len(user.goal.constraints) == n_before - 1
    assert user.nomatch_ok


def test_noentity_without_relax_ends_dialogue(ontology):
    user = make_user(ontology, make_params(p_relax_on_noentity=0.0))
    rng = np.random.default_rng(1)
    user.goal.satisfiable = False
    act = user.respond(DialogueAct("inform", (("name", "none"),)), rng)
    assert act == DialogueAct("bye")
    assert user.fulfilled()             # a correct no-match counts


def test_wrong_nomatch_is_challenged(ontology):
    user = make_user(ontology, make_params())
    rng = np.random.default_rng(1)
    act = user.respond(DialogueAct("inform", (("name", "none"),)), rng)
    assert act.act_type == "inform"
    slot, value = act.items[0]
    assert user.goal.constraints[slot] == value
    assert not user.nomatch_ok


def test_p_reqalts_after_offer(ontology):
    user = make_user(ontology, make_params(p_reqalts_after_offer=1.0))
    rng = np.random.default_rng(1)
    offer, _ = offer_act(ontology, user.goal)
    act = user.respond(offer, rng)
    assert act == DialogueAct("reqalts")


def test_goal_constraint_bounds(ontology):
    params = make_params(goal_min_constraints=1, goal_max_constraints=3)
    rng = np.random.default_rng(9)
    sizes = {len(sample_goal(ontology, params, rng).constraints)
             for _ in range(300)}
    assert sizes == {1, 2, 3}


def test_goal_constraint_bounds_clamped_to_domain(ontology):
    params = make_params(goal_min_constraints=7, goal_max_constraints=99)
    rng = np.random.default_rng(9)
    for _ in range(20):
        goal = sample_goal(ontology, params, rng)
        assert len(goal.constraints) == ontology.n_constraint


def test_goal_request_bounds(ontology):
    params = make_params(goal_min_requests=1, goal_max_requests=3)
    rng = np.random.default_rng(9)
    sizes = {len(sample_goal(ontology, params, rng).requests)
             for _ in range(300)}
    assert sizes == {1, 2, 3}
    params = make_params(goal_min_requests=2, goal_max_requests=2)
    assert all(len(sample_goal(ontology, params, rng).requests) == 2
               for _ in range(50))


def test_goals_are_satisfiable(ontology):
    rng = np.random.default_rng(11)
    params = make_params(goal_min_constraints=1, goal_max_constraints=3)
    for _ in range(200):
        goal = sample_goal(ontology, params, rng)
        assert query(ontology, goal.constraints)
        assert goal.satisfiable


def test_p_abandon_gives_up(ontology):
    user = make_user(ontology, make_params(p_abandon=1.0))
    act = user.respond(DialogueAct("hello"), np.random.default_rng(1))
    assert act == DialogueAct("bye")
    assert user.terminated


def test_profiles_cover_all_parameters():
    for profile in PROFILES.values():
        assert set(profile.intervals) == set(PARAM_NAMES)


def test_unfriendly_bounds():
    for name in ("p_inform_all", "p_extra_info"):
        lo, hi = UNFRIENDLY_PROFILE.intervals[name]
        assert 0.0 <= lo and hi <= 0.1


def test_profile_validation_rejects_bad_intervals():
    with pytest.raises(ValueError):
        ProfileDistribution("x", {**STANDARD_PROFILE.intervals,
                                  "p_silence": (0.5, 0.2)})
    with pytest.raises(ValueError):
        ProfileDistribution("x", {**STANDARD_PROFILE.intervals,
                                  "p_silence": (0.0, 1.5)})
    bad = dict(STANDARD_PROFILE.intervals)
    del bad["p_abandon"]
    with pytest.raises(ValueError):
        ProfileDistribution("x", bad)


def test_sampled_params_respect_intervals():
    rng = np.random.default_rng(21)
    for profile in PROFILES.values():
        for _ in range(50):
            params = sample_params(profile, rng)
            for name in PARAM_NAMES:
                lo, hi = profile.intervals[name]
                value = getattr(params, name)
                assert lo <= value <= hi


def test_unfriendly_users_inform_less(ontology):
    """Population-level check: unfriendly users volunteer significantly
    fewer constraint items on their first inform."""
    rng = np.random.default_rng(33)

    def first_inform_sizes(profile, n=300):
        sizes = []
        for _ in range(n):
            params = sample_params(profile, rng)
            goal = sample_goal(ontology, params, rng)
            user = SimulatedUser(ontology, params, goal, rng)
            informs = [a for a in user.agenda if a.act_type == "inform"
                       and a.name_value() is None]
            sizes.append(max((len(a.items) for a in informs), default=0))
        return sizes

    std = first_inform_sizes(STANDARD_PROFILE)
    unf = first_inform_sizes(UNFRIENDLY_PROFILE)
    stat = stats.mannwhitneyu(std, unf, alternative="greater")
    assert stat.pvalue < 1e-6


def scripted_dialogue(ontology):
    """Fully deterministic exchange used as a golden trace."""
    goal = make_goal(ontology, n_constraints=2, requests=("slot03",))
    params = make_params(p_inform_all=1.0)
    user = SimulatedUser(ontology, params, goal, np.random.default_rng(5))
    rng = np.random.default_rng(6)
    trace = [("open", user.opening_act(rng))]

    entity = query(ontology, goal.constraints)[0]
    offer = DialogueAct("inform", (("name", entity.id),))
    trace.append(("offer", user.respond(offer, rng)))

    answer = DialogueAct("inform", (("name", entity.id),
                                    ("slot03", entity.attributes["slot03"])))
    trace.append(("answer", user.respond(answer, rng)))
    return user, trace


def test_golden_dialogue(ontology):
    user, trace = scripted_dialogue(ontology)
    opening = trace[0][1]
    assert opening.act_type == "inform" and len(opening.items) == 2
    # after a consistent offer the user asks for its request slot
    assert trace[1][1] == DialogueAct("request", (("slot03", None),))
    # once answered, the agenda ends the dialogue
    assert trace[2][1] == DialogueAct("bye")
    assert user.fulfilled()


def test_fulfillment_oracle_matches_live_state(ontology):
    """The trace-level oracle agrees with the user's own bookkeeping when
    goal-mutating behaviours are disabled."""
    from dialbench.belief_tracker import belief_dim
    from dialbench.environment import DialogueEnv, make_task
    from dialbench.harness import run_episode
    from dialbench.policies import make_policy

    intervals = {name: (0.0, 0.0) for name in PARAM_NAMES}
    intervals.update({
        "p_inform_all": (0.0, 1.0),
        "p_extra_info": (0.0, 0.5),
        "p_confirm_when_asked": (1.0, 1.0),
        "p_select_affirm": (1.0, 1.0),
        "patience": (3, 5),
        "max_requests_per_turn": (1, 3),
        "p_open_with_hello": (0.0, 0.3),
        "goal_min_constraints": (1, 2),
        "goal_max_constraints": (2, 3),
        "goal_min_requests": (1, 1),
        "goal_max_requests": (1, 3),
        "p_request_alternatives": (0.0, 1.0),
    })
    profile = ProfileDistribution("frozen", intervals)

    env = DialogueEnv(make_task("env1-CR"), profile=profile)
    policy = make_policy("handcrafted", belief_dim(env.ontology),
                         env.action_count, ontology=env.ontology)
    for i in range(400):
        rng = np.random.default_rng(5000 + i)
        result = run_episode(env, policy, rng, i, training=False)
        live = env._user.fulfilled()
        oracle = is_goal_fulfilled(env._user.goal,
                                   [t.system_act for t in result.trace],
                                   env.ontology)
        assert oracle == live
        assert result.success == oracle
