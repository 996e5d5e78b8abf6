"""Shared policy machinery: exploration schedule, registry, and a corridor
MDP every learner must solve."""

import dataclasses
import time

import numpy as np
import pytest

from dialbench.belief_tracker import belief_dim
from dialbench.domain import generate_domain
from dialbench.policies import (
    ALGORITHMS,
    CONFIGS,
    A2CConfig,
    A2CPolicy,
    DQNConfig,
    DQNPolicy,
    ENACConfig,
    ENACPolicy,
    EpsilonSchedule,
    GPSarsaConfig,
    GPSarsaPolicy,
    HandcraftedPolicy,
    Transition,
    load_policy,
    make_policy,
    masked_argmax,
    uniform_legal,
)
from dialbench.policies import base
from dialbench.rl_core import forward, masked_softmax

from test_gpsarsa import q_posterior


# ------------------------------------------------------------- schedule


def test_epsilon_schedule_closed_form():
    for eps0 in (0.3, 0.5):
        sched = EpsilonSchedule(eps0)
        for i in (0, 1, 137, 2000, 3999, 4000, 4001, 100_000):
            expected = eps0 + (0.05 - eps0) * min(1.0, i / 4000)
            assert abs(sched.at(i) - expected) < 1e-12
        assert sched.at(0) == eps0
        assert sched.at(4000) == pytest.approx(0.05, abs=1e-12)


def test_epsilon_schedule_monotone_nonincreasing():
    sched = EpsilonSchedule(0.5)
    values = [sched.at(i) for i in range(0, 5000, 50)]
    assert all(a >= b for a, b in zip(values, values[1:]))


def test_epsilon_schedule_custom_horizon():
    sched = EpsilonSchedule(0.4, eps_final=0.1, anneal_dialogues=100)
    assert sched.at(50) == pytest.approx(0.25, abs=1e-12)
    assert sched.at(100) == pytest.approx(0.1, abs=1e-12)
    assert sched.at(500) == pytest.approx(0.1, abs=1e-12)


# ------------------------------------------------------------- selectors


def test_masked_argmax_ties_go_low():
    values = np.array([1.0, 3.0, 3.0, 2.0])
    mask = np.ones(4, dtype=bool)
    assert masked_argmax(values, mask) == 1
    assert masked_argmax(np.zeros(4), mask) == 0
    assert masked_argmax(values, np.array([False, False, True, True])) == 2


def test_masked_argmax_ignores_illegal_maximum():
    values = np.array([5.0, 1.0, 0.0])
    mask = np.array([False, True, True])
    assert masked_argmax(values, mask) == 1


def test_uniform_legal_only_picks_legal():
    rng = np.random.default_rng(0)
    mask = np.array([False, True, False, True, True])
    picks = {uniform_legal(mask, rng) for _ in range(200)}
    assert picks == {1, 3, 4}


# ------------------------------------------------------------- registry


def test_make_policy_dispatch():
    assert isinstance(make_policy("gpsarsa", 4, 3), GPSarsaPolicy)
    assert isinstance(make_policy("dqn", 4, 3), DQNPolicy)
    assert isinstance(make_policy("a2c", 4, 3), A2CPolicy)
    assert isinstance(make_policy("enac", 4, 3), ENACPolicy)


def test_make_policy_passes_config_kwargs():
    policy = make_policy("dqn", 4, 3, hidden1=10, hidden2=6, lr=0.5)
    assert policy.config.hidden1 == 10
    assert policy.config.lr == 0.5
    gp = make_policy("gpsarsa", 4, 3, nu=0.5, max_points=17)
    assert gp.config.nu == 0.5
    assert gp.config.max_points == 17


def test_make_policy_handcrafted_needs_ontology():
    with pytest.raises(ValueError):
        make_policy("handcrafted", 4, 3)
    ont = generate_domain("CR")
    policy = make_policy("handcrafted", 121, 14, ontology=ont)
    assert isinstance(policy, HandcraftedPolicy)
    assert policy.trains is False


def test_make_policy_unknown_algorithm():
    with pytest.raises(ValueError):
        make_policy("q_table", 4, 3)


def test_algorithms_tuple_is_stable():
    assert ALGORITHMS == ("handcrafted", "gpsarsa", "dqn", "a2c", "enac")


def test_load_policy_dispatches_on_header(tmp_path):
    saved = {
        "gpsarsa": make_policy("gpsarsa", 3, 2),
        "dqn": make_policy("dqn", 3, 2, hidden1=8, hidden2=4),
        "a2c": make_policy("a2c", 3, 2, hidden1=8, hidden2=4),
        "enac": make_policy("enac", 3, 2, hidden1=8, hidden2=4),
    }
    for name, policy in saved.items():
        path = tmp_path / f"{name}.npz"
        policy.save(path)
        restored = load_policy(path)
        assert type(restored) is type(policy)
        assert restored.algorithm == name


def test_load_policy_handcrafted_round_trip(tmp_path):
    ont = generate_domain("CR")
    policy = HandcraftedPolicy(ont)
    path = tmp_path / "hc.npz"
    policy.save(path)
    with pytest.raises(ValueError):
        load_policy(path)  # needs the ontology
    restored = load_policy(path, ontology=ont)
    assert isinstance(restored, HandcraftedPolicy)
    with pytest.raises(ValueError, match="built for CR"):
        load_policy(path, ontology=generate_domain("SFR"))


def _off_default(value):
    if isinstance(value, bool):
        return not value
    if isinstance(value, int):
        return value + 1
    return value * 0.5 + 0.001


@pytest.mark.parametrize("algorithm", ALGORITHMS)
def test_every_config_field_survives_a_checkpoint(tmp_path, algorithm):
    defaults = CONFIGS[algorithm]()
    changed = {f.name: _off_default(getattr(defaults, f.name))
               for f in dataclasses.fields(defaults)}
    ont = generate_domain("CR")
    policy = make_policy(algorithm, belief_dim(ont), 2, ontology=ont,
                         **changed)
    assert dataclasses.asdict(policy.config) == changed
    path = tmp_path / f"{algorithm}.npz"
    policy.save(path)
    restored = load_policy(path, ontology=ont)
    assert restored.config == policy.config
    assert type(restored.config) is type(policy.config)


def test_older_checkpoint_versions_are_refused(tmp_path, monkeypatch):
    path = tmp_path / "v1.npz"
    monkeypatch.setattr(base, "CHECKPOINT_VERSION", 1)
    make_policy("dqn", 3, 2, hidden1=4, hidden2=4).save(path)
    monkeypatch.undo()
    with pytest.raises(ValueError, match="unsupported checkpoint version 1"):
        load_policy(path)


# ------------------------------------------------------------- policy mode

# What each learner maximizes when it acts greedily.
GREEDY_VALUES = {
    "gpsarsa": lambda p, obs, mask: np.array(
        [q_posterior(p, obs, a)[0] for a in range(p.action_count)]),
    "dqn": lambda p, obs, mask: forward(p.net, obs),
    "a2c": lambda p, obs, mask: forward(p.net, obs)[:-1],
    "enac": lambda p, obs, mask: masked_softmax(forward(p.net, obs), mask)[0],
}


@pytest.mark.parametrize("algorithm", list(GREEDY_VALUES))
def test_non_training_dialogue_is_greedy(algorithm):
    policy = make_policy(algorithm, 4, 5, init_rng=np.random.default_rng(3))
    data = np.random.default_rng(4)
    if algorithm == "gpsarsa":
        for _ in range(30):
            policy._ingest(data.normal(size=4), int(data.integers(5)),
                           float(data.normal()))
    policy.begin_dialogue(7, training=True)
    policy.begin_dialogue(0, training=False)
    for seed in range(20):
        obs = data.normal(size=4)
        mask = data.random(5) < 0.6
        mask[data.integers(5)] = True
        rng = np.random.default_rng(seed)
        state = rng.bit_generator.state
        action = policy.act(obs, mask, rng)
        values = GREEDY_VALUES[algorithm](policy, obs, mask)
        assert action == masked_argmax(values, mask)
        assert rng.bit_generator.state == state


# ------------------------------------------------------------- corridor MDP


class Corridor:
    """Three rooms and a goal; advancing always beats staying.

    Observations are one-hot over rooms.  Advancing costs 1 until the
    final room, where it pays +10 and ends the episode; staying costs 1
    and goes nowhere.  The optimal return is -1 - 1 + 10 = 8.
    """

    ADVANCE, STAY = 0, 1
    rooms = 3

    def __init__(self):
        self.pos = 0

    def reset(self):
        self.pos = 0
        return self.observation()

    def observation(self):
        one_hot = np.zeros(self.rooms)
        one_hot[self.pos] = 1.0
        return one_hot

    def step(self, action):
        if action == self.ADVANCE:
            if self.pos == self.rooms - 1:
                return self.observation(), 10.0, True
            self.pos += 1
            return self.observation(), -1.0, False
        return self.observation(), -1.0, False


def run_corridor_training(policy, episodes, seed):
    rng = np.random.default_rng(seed)
    env = Corridor()
    mask = np.ones(2, dtype=bool)
    for index in range(episodes):
        policy.begin_dialogue(index, training=True)
        obs = env.reset()
        for _ in range(12):
            a = policy.act(obs, mask, rng)
            next_obs, reward, done = env.step(a)
            policy.observe(Transition(obs, a, reward, next_obs, mask, done,
                                      mask=mask), rng)
            obs = next_obs
            if done:
                break
        policy.end_dialogue(rng)


def greedy_corridor_return(policy, seed=999):
    rng = np.random.default_rng(seed)
    env = Corridor()
    mask = np.ones(2, dtype=bool)
    policy.begin_dialogue(10**6, training=False)
    obs = env.reset()
    total = 0.0
    for _ in range(12):
        a = policy.act(obs, mask, rng)
        obs, reward, done = env.step(a)
        total += reward
        if done:
            return total
    return total


CORRIDOR_SETUPS = [
    ("gpsarsa", lambda: GPSarsaPolicy(3, 2, GPSarsaConfig(nu=1e-6)), 300),
    ("dqn", lambda: DQNPolicy(3, 2, DQNConfig(
        hidden1=32, hidden2=16, lr=0.005, buffer_size=2000, minibatch=16,
        train_after=64, eps0=0.5, anneal_dialogues=300),
        init_rng=np.random.default_rng(1)), 500),
    ("a2c", lambda: A2CPolicy(3, 2, A2CConfig(
        hidden1=32, hidden2=16, lr=0.01, eps0=0.5, anneal_dialogues=400,
        window=16, update_episodes=4),
        init_rng=np.random.default_rng(2)), 900),
    ("enac", lambda: ENACPolicy(3, 2, ENACConfig(
        hidden1=16, hidden2=8, step_size=0.4, eps0=0.3,
        anneal_dialogues=400, batch_episodes=10),
        init_rng=np.random.default_rng(3)), 1200),
]


@pytest.mark.parametrize("name,build,episodes", CORRIDOR_SETUPS,
                         ids=[s[0] for s in CORRIDOR_SETUPS])
def test_every_learner_solves_the_corridor(name, build, episodes):
    assert episodes <= 2000
    start = time.monotonic()
    policy = build()
    run_corridor_training(policy, episodes, seed=42)
    assert greedy_corridor_return(policy) == 8.0
    assert time.monotonic() - start < 120.0
