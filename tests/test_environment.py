"""Dialogue environment: task catalog, reward arithmetic, episode contract."""

import io
import json

import numpy as np
import pytest

from dialbench import environment
from dialbench.action_space import compute_mask
from dialbench.belief_tracker import flatten
from dialbench.domain import generate_domain
from dialbench.environment import (
    MAX_TURNS,
    SUCCESS_REWARD,
    TURN_PENALTY,
    ContractViolation,
    DialogueEnv,
    list_tasks,
    make_task,
    write_trace,
)
from dialbench.error_channel import PRESETS
from dialbench.policies import HandcraftedPolicy
from dialbench.simulated_user import ProfileDistribution, STANDARD_PROFILE

CATALOG = {
    1: (0.00, True, "standard"),
    2: (0.00, False, "standard"),
    3: (0.15, True, "standard"),
    4: (0.15, False, "standard"),
    5: (0.15, True, "unfriendly"),
    6: (0.30, True, "standard"),
}


def run_random_episode(env, rng, act_rng):
    """Drive one episode with uniformly random legal actions."""
    step = env.reset(rng)
    rewards = []
    while not step.done:
        legal = np.flatnonzero(step.mask)
        step = env.step(int(act_rng.choice(legal)), rng)
        rewards.append(step.reward)
    return env.result(), rewards


# ---------------------------------------------------------------- catalog


def test_task_catalog_is_complete():
    tasks = list_tasks()
    assert len(tasks) == 18
    assert tasks[0] == "env1-CR"
    assert tasks[-1] == "env6-LAP"
    for task_id in tasks:
        cfg = make_task(task_id)
        ser, masks, profile = CATALOG[cfg.env_index]
        assert cfg.ser == ser
        assert cfg.masks_enabled is masks
        assert cfg.user_profile == profile
        assert cfg.task_id == task_id


def test_task_defaults():
    assert MAX_TURNS == 25
    assert SUCCESS_REWARD == 20.0
    assert TURN_PENALTY == 1.0


@pytest.mark.parametrize("bad", ["env7-CR", "env0-CR", "env1-XX", "CR", "env1",
                                 "env1-cr", "", "env01-CR", "env+1-CR",
                                 "env 1-CR", "env\u0663-CR"])
def test_make_task_rejects_unknown_ids(bad):
    with pytest.raises(ValueError):
        make_task(bad)


def test_env_overrides_preset_error_rate():
    # passing a clean preset into a noisy task must not silence the channel
    env = DialogueEnv(make_task("env3-CR"), error_params=PRESETS["clean"])
    assert env.error_params.ser == pytest.approx(0.15)


def test_action_count_matches_domain():
    for task_id, expected in [("env1-CR", 14), ("env1-SFR", 23), ("env1-LAP", 38)]:
        assert DialogueEnv(make_task(task_id)).action_count == expected


# ---------------------------------------------------------------- rewards


def test_reward_identity_random_policy():
    env = DialogueEnv(make_task("env1-CR"))
    rng = np.random.default_rng(7)
    act_rng = np.random.default_rng(8)
    for _ in range(200):
        result, rewards = run_random_episode(env, rng, act_rng)
        assert result.final_reward == SUCCESS_REWARD * result.success - result.turns
        assert -25.0 <= result.final_reward <= 19.0
        assert 1 <= result.turns <= MAX_TURNS
        # the environment's return matches the rewards it emitted
        assert sum(rewards) == pytest.approx(result.final_reward)


def test_reward_identity_under_noise():
    env = DialogueEnv(make_task("env6-SFR"))
    rng = np.random.default_rng(17)
    act_rng = np.random.default_rng(18)
    for _ in range(60):
        result, rewards = run_random_episode(env, rng, act_rng)
        assert result.final_reward == SUCCESS_REWARD * result.success - result.turns
        assert result.turns <= MAX_TURNS
        assert len(rewards) == result.turns


# infinitely patient user; with a policy that only ever asks questions the
# dialogue runs into the turn cap
STUBBORN = ProfileDistribution(
    "stubborn",
    dict(STANDARD_PROFILE.intervals, patience=(60, 60), p_abandon=(0.0, 0.0),
         p_silence=(0.0, 0.0), p_random_goal_change=(0.0, 0.0)),
)


def test_turn_cap_reached_by_stalling():
    env = DialogueEnv(make_task("env4-CR"), profile=STUBBORN)
    request_indices = [i for i, a in enumerate(env.actions) if a.kind == "request"]
    rng = np.random.default_rng(3)
    step = env.reset(rng)
    turn = 0
    while not step.done:
        step = env.step(request_indices[turn % len(request_indices)], rng)
        turn += 1
    result = env.result()
    assert result.turns == MAX_TURNS
    assert result.success is False
    assert result.final_reward == -25.0


# ---------------------------------------------------------------- contract


def test_step_after_done_raises():
    env = DialogueEnv(make_task("env1-CR"))
    rng = np.random.default_rng(0)
    run_random_episode(env, rng, np.random.default_rng(1))
    with pytest.raises(ContractViolation):
        env.step(0, rng)


def test_result_before_done_raises():
    env = DialogueEnv(make_task("env1-CR"))
    env.reset(np.random.default_rng(0))
    with pytest.raises(ContractViolation):
        env.result()


def test_masked_action_raises():
    env = DialogueEnv(make_task("env1-CR"))
    step = env.reset(np.random.default_rng(0))
    masked = np.flatnonzero(~step.mask)
    assert masked.size > 0
    with pytest.raises(ContractViolation):
        env.step(int(masked[0]), np.random.default_rng(1))


def test_out_of_range_action_raises():
    env = DialogueEnv(make_task("env2-CR"))
    env.reset(np.random.default_rng(0))
    with pytest.raises(ContractViolation):
        env.step(env.action_count, np.random.default_rng(1))


def counting(monkeypatch, name):
    """Count the env's calls of one of the functions it imports."""
    calls = []
    original = getattr(environment, name)

    def wrapper(*args, **kwargs):
        calls.append(name)
        return original(*args, **kwargs)
    monkeypatch.setattr(environment, name, wrapper)
    return calls


def test_mask_and_success_computed_once(monkeypatch):
    masks = counting(monkeypatch, "compute_mask")
    goal_checks = counting(monkeypatch, "is_goal_fulfilled")
    env = DialogueEnv(make_task("env3-SFR"))
    policy = HandcraftedPolicy(env.ontology)
    rng = np.random.default_rng(21)
    episodes, steps = 40, 0
    for _ in range(episodes):
        step = env.reset(rng)
        while not step.done:
            assert not step.mask.flags.writeable
            step = env.step(policy.act(step.observation, step.mask, rng,
                                       belief=step.belief), rng)
            steps += 1
        env.result()
        env.result()    # reads the success judged when the episode ended
    assert len(masks) <= steps + episodes
    assert len(goal_checks) == episodes


def drive(env, rng, choose):
    """Run one episode; returns the last two steps and the result."""
    previous = step = env.reset(rng)
    while not step.done:
        previous, step = step, env.step(choose(env, step), rng)
    return previous, step, env.result()


def assert_terminal_contract(env, terminal, result):
    final = result.trace[-1].belief
    assert terminal.belief is final
    assert np.array_equal(terminal.mask,
                          compute_mask(final, env.ontology,
                                       env.task.masks_enabled))
    assert np.array_equal(terminal.observation, flatten(final, env.ontology))


def test_terminal_step_carries_final_mask_and_observation():
    # system bye: the dialogue ends on the belief the policy acted on
    env = DialogueEnv(make_task("env3-CR"))
    bye = next(a.index for a in env.actions if a.kind == "bye")
    previous, terminal, result = drive(env, np.random.default_rng(4),
                                       lambda env, step: bye)
    assert result.trace[-1].system_act.act_type == "bye"
    assert_terminal_contract(env, terminal, result)
    assert terminal.mask is previous.mask

    # user bye, after a handcrafted dialogue
    policy = HandcraftedPolicy(env.ontology)
    rng = np.random.default_rng(5)

    def handcrafted(env, step):
        return policy.act(step.observation, step.mask, rng, belief=step.belief)
    for _ in range(50):
        previous, terminal, result = drive(env, rng, handcrafted)
        last = result.trace[-1]
        if last.system_act.act_type != "bye" and last.user_act.act_type == "bye":
            break
    else:
        pytest.fail("no dialogue ended on a user bye")
    assert_terminal_contract(env, terminal, result)
    assert terminal.mask is previous.mask

    # turn cap: the final belief is the one this last exchange produced
    env = DialogueEnv(make_task("env4-CR"), profile=STUBBORN)
    request = next(a.index for a in env.actions if a.kind == "request")
    previous, terminal, result = drive(env, np.random.default_rng(3),
                                       lambda env, step: request)
    assert result.turns == MAX_TURNS
    assert result.trace[-1].nbest is not None
    assert terminal.belief is not previous.belief
    assert_terminal_contract(env, terminal, result)


def test_env_is_reusable_across_episodes():
    env = DialogueEnv(make_task("env1-CR"))
    rng = np.random.default_rng(5)
    act_rng = np.random.default_rng(6)
    first, _ = run_random_episode(env, rng, act_rng)
    second, _ = run_random_episode(env, rng, act_rng)
    assert first.turns >= 1 and second.turns >= 1


# ---------------------------------------------------------------- determinism


def episode_signature(result):
    return [
        (r.turn,
         r.system_act.act_type if r.system_act else None,
         r.user_act.act_type if r.user_act else None,
         r.action_index)
        for r in result.trace
    ]


def test_identical_seeds_identical_traces():
    sigs = []
    for _ in range(2):
        env = DialogueEnv(make_task("env3-CR"))
        result, _ = run_random_episode(
            env, np.random.default_rng(42), np.random.default_rng(43)
        )
        sigs.append(episode_signature(result))
    assert sigs[0] == sigs[1]


def test_different_seeds_differ():
    traces = []
    env = DialogueEnv(make_task("env3-CR"))
    for seed in (1, 2, 3, 4):
        result, _ = run_random_episode(
            env, np.random.default_rng(seed), np.random.default_rng(seed + 100)
        )
        traces.append(episode_signature(result))
    assert any(traces[0] != t for t in traces[1:])


# ---------------------------------------------------------------- trace


def test_trace_first_record_is_opening():
    env = DialogueEnv(make_task("env1-CR"))
    result, _ = run_random_episode(
        env, np.random.default_rng(9), np.random.default_rng(10)
    )
    assert result.trace[0].turn == 0
    assert result.trace[0].system_act.act_type == "hello"
    assert result.trace[0].action_index is None
    assert len(result.trace) == result.turns + 1


def test_write_trace_jsonl():
    ont = generate_domain("CR")
    env = DialogueEnv(make_task("env3-CR"))
    result, _ = run_random_episode(
        env, np.random.default_rng(11), np.random.default_rng(12)
    )
    buf = io.StringIO()
    write_trace(result, buf, ontology=ont)
    lines = buf.getvalue().splitlines()
    assert len(lines) == len(result.trace)
    for line in lines:
        row = json.loads(line)
        assert {"turn", "system_act", "user_act", "nbest", "action_index",
                "fallback"} <= row.keys()
        if row["belief"]:
            total = sum(v for _, v in row["belief"])
            assert total > 0
    # turn indices ascend
    turns = [json.loads(line)["turn"] for line in lines]
    assert turns == sorted(turns)


def test_write_trace_without_ontology_omits_belief():
    env = DialogueEnv(make_task("env1-CR"))
    result, _ = run_random_episode(
        env, np.random.default_rng(13), np.random.default_rng(14)
    )
    buf = io.StringIO()
    write_trace(result, buf)
    assert "belief" not in json.loads(buf.getvalue().splitlines()[0])


@pytest.mark.parametrize("task_id", ["env1-CR", "env3-SFR", "env6-LAP"])
def test_fallback_flags_inform_requested_grounded_as_inform(task_id):
    env = DialogueEnv(make_task(task_id))
    rng, act_rng = np.random.default_rng(15), np.random.default_rng(16)
    fallbacks = 0
    for _ in range(40):
        result, _ = run_random_episode(env, rng, act_rng)
        for rec in result.trace[1:]:
            kind = env.actions[rec.action_index].kind
            assert rec.fallback == (kind == "inform_requested"
                                    and rec.system_act.act_type == "inform")
            fallbacks += rec.fallback
    assert fallbacks > 0
