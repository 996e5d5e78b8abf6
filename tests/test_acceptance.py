"""Release gate, one test per criterion; `-v` prints a line for each.

Criteria 1-12 are properties and oracle equivalences and run in seconds.
Criteria 13-16 train at desk scale on the CR domain (a minute or two of
CPU, fully deterministic).  Criterion 17 checks that the benchmark verb
is byte-reproducible.
"""

import dataclasses
import time

import numpy as np
import pytest

from dialbench.action_space import build_action_set
from dialbench.belief_tracker import init_belief, update
from dialbench.bench_cli import main as cli_main
from dialbench.domain import DOMAIN_CODES, generate_domain
from dialbench.environment import DialogueEnv, list_tasks, make_task
from dialbench.error_channel import PRESETS, corrupt
from dialbench.harness import RunSpec, run_training
from dialbench.policies import (
    A2CConfig,
    DQNConfig,
    ENACConfig,
    EpsilonSchedule,
    GPSarsaConfig,
    GPSarsaPolicy,
)
from dialbench.policies.a2c import a2c_loss
from dialbench.policies.dqn import bellman_targets
from dialbench.policies.enac import enac_natural_gradient
from dialbench.rl_core import (
    backward,
    forward_cache,
    grad_log_prob,
    masked_softmax,
)
from dialbench.semantics import DialogueAct

from test_belief_tracker import slot_beliefs
from test_error_channel import is_corrupted, sample_acts
from test_gpsarsa import dense_posterior, q_posterior
from test_policies_common import (
    CORRIDOR_SETUPS,
    greedy_corridor_return,
    run_corridor_training,
)
from test_rl_core import assert_fd_safe, fd_grads, small_net

EXPECTED_COUNTS = {"CR": (3, 9, 268), "SFR": (6, 11, 636), "LAP": (11, 21, 257)}
EXPECTED_ACTIONS = {"CR": 14, "SFR": 23, "LAP": 38}
ENV_ROWS = {
    1: (0.00, True, "standard"),
    2: (0.00, False, "standard"),
    3: (0.15, True, "standard"),
    4: (0.15, False, "standard"),
    5: (0.15, True, "unfriendly"),
    6: (0.30, True, "standard"),
}

BAND_SEEDS = (0, 1, 2)
BAND_TESTS = 500


def band_run(task_id, algorithm, eval_points, out_dir):
    spec = RunSpec(task_id=task_id, algorithm=algorithm, seeds=BAND_SEEDS,
                   train_dialogues=eval_points[-1], eval_points=eval_points,
                   test_dialogues=BAND_TESTS, out_dir=out_dir)
    return run_training(spec)


def success_mean(summary, point):
    return next(entry["success_mean"] for entry in summary["points"]
                if entry["eval_point"] == point)


@pytest.fixture(scope="session")
def gpsarsa_band(tmp_path_factory):
    return band_run("env1-CR", "gpsarsa", (100, 1000),
                    tmp_path_factory.mktemp("gpsarsa-band"))


@pytest.fixture(scope="session")
def dqn_band(tmp_path_factory):
    return band_run("env1-CR", "dqn", (1000,),
                    tmp_path_factory.mktemp("dqn-band"))


@pytest.fixture(scope="session")
def handcrafted_band(tmp_path_factory):
    out = tmp_path_factory.mktemp("handcrafted-band")
    return {env: success_mean(band_run(f"env{env}-CR", "handcrafted", (1,),
                                       out), 1)
            for env in (1, 3, 6)}


# -------------------------------------------------------- 1-3: catalog


def test_01_ontology_counts():
    for code in DOMAIN_CODES:
        assert generate_domain(code).counts() == EXPECTED_COUNTS[code]


def test_02_action_set_sizes():
    for code in DOMAIN_CODES:
        ontology = generate_domain(code)
        actions = build_action_set(ontology)
        assert len(actions) == EXPECTED_ACTIONS[code]
        assert len(actions) == 5 + 3 * ontology.n_constraint


def test_03_task_catalog():
    tasks = list_tasks()
    assert len(tasks) == 18
    for task_id in tasks:
        cfg = make_task(task_id)
        ser, masks, profile = ENV_ROWS[cfg.env_index]
        assert cfg.ser == ser
        assert cfg.masks_enabled is masks
        assert cfg.user_profile == profile


# ------------------------------------------------- 4-6: channel and env


def test_04_belief_normalization():
    ontology = generate_domain("CR")
    params = PRESETS["noisy30"]
    rng = np.random.default_rng(4)
    hello = DialogueAct("hello")
    belief = init_belief(ontology)
    for i in range(100_000):
        if i % 40 == 0:
            belief = init_belief(ontology)
        act = sample_acts(ontology, rng, 1)[0]
        nbest = corrupt(act, params, ontology, rng)
        belief = update(belief, nbest, hello, ontology)
        for dist in slot_beliefs(belief).values():
            assert abs(float(dist.sum()) - 1.0) < 1e-9
        assert abs(float(belief.method.sum()) - 1.0) < 1e-9


def test_05_error_channel_ser():
    ontology = generate_domain("CR")
    for ser, preset in ((0.15, "noisy15"), (0.30, "noisy30")):
        params = dataclasses.replace(PRESETS[preset], ser=ser)
        rng = np.random.default_rng(5)
        acts = sample_acts(ontology, rng, 100_000)
        hits = sum(is_corrupted(corrupt(act, params, ontology, rng), act)
                   for act in acts)
        assert abs(hits / len(acts) - ser) < 0.01
    rng = np.random.default_rng(5)
    clean = PRESETS["clean"]
    for act in sample_acts(ontology, rng, 100_000):
        assert not is_corrupted(corrupt(act, clean, ontology, rng), act)


def test_06_reward_identity():
    envs = [DialogueEnv(make_task(t))
            for t in ("env1-CR", "env4-CR", "env6-SFR", "env3-LAP")]
    rng = np.random.default_rng(6)
    act_rng = np.random.default_rng(60)
    for i in range(10_000):
        env = envs[i % len(envs)]
        step = env.reset(rng)
        while not step.done:
            legal = np.flatnonzero(step.mask)
            step = env.step(int(act_rng.choice(legal)), rng)
        res = env.result()
        assert res.final_reward == 20 * int(res.success) - res.turns
        assert -25 <= res.final_reward <= 19
        assert res.turns <= 25


# ---------------------------------------------- 7-11: learner oracles


def test_07_epsilon_schedule():
    assert DQNConfig().eps0 == 0.3
    assert A2CConfig().eps0 == 0.5
    assert ENACConfig().eps0 == 0.3
    for eps0 in (0.3, 0.5):
        sched = EpsilonSchedule(eps0)
        assert sched.at(0) == eps0
        assert abs(sched.at(4000) - 0.05) < 1e-12
        assert abs(sched.at(9999) - 0.05) < 1e-12
        for d in (1000, 2000, 3000):
            want = eps0 + (0.05 - eps0) * d / 4000
            assert abs(sched.at(d) - want) < 1e-12


def test_08_gradient_checks():
    start = time.monotonic()
    rng = np.random.default_rng(8)

    net = small_net(seed=8)
    x = rng.normal(size=6)
    c = rng.normal(size=4)
    assert_fd_safe(net, x)

    def linear_loss():
        return float(forward_cache(net, x).out @ c)

    analytic = net.split(backward(net, forward_cache(net, x), c))
    for a, n in zip(analytic, fd_grads(linear_loss, net.params())):
        assert np.allclose(a, n, rtol=1e-4, atol=1e-6)

    # A2C's surrogate: three logits and the state value
    net = small_net(seed=10)
    obs = rng.normal(size=(3, 6))
    actions = np.array([0, 2, 1])
    masks = np.array([[True, True, False],
                      [True, False, True],
                      [False, True, True]])
    returns, advantages = rng.normal(size=3), rng.normal(size=3)
    weights = rng.uniform(0.5, 2.0, size=3)
    assert_fd_safe(net, obs)

    def surrogate():
        return a2c_loss(net, forward_cache(net, obs), actions, masks,
                        returns, advantages, weights, 0.01)[0]

    analytic = net.split(a2c_loss(net, forward_cache(net, obs), actions,
                                  masks, returns, advantages, weights,
                                  0.01)[1])
    for a, n in zip(analytic, fd_grads(surrogate, net.params())):
        assert np.allclose(a, n, rtol=1e-4, atol=1e-6)

    net = small_net(seed=9)
    mask = np.array([True, True, False, True])
    assert_fd_safe(net, x)

    def logp_loss():
        return float(np.log(masked_softmax(forward_cache(net, x).z,
                                           mask)[0, 1]))

    cache = forward_cache(net, x)
    analytic = net.split(grad_log_prob(net, cache,
                                       masked_softmax(cache.z, mask), mask, 1))
    for a, n in zip(analytic, fd_grads(logp_loss, net.params())):
        assert np.allclose(a, n, rtol=1e-4, atol=1e-6)

    assert time.monotonic() - start < 10.0


def test_09_gp_dense_oracle():
    # linear kernel: keep obs_dim above the per-block point count so all
    # 48 points stay novel
    rng = np.random.default_rng(9)
    config = GPSarsaConfig(nu=1e-6)
    policy = GPSarsaPolicy(obs_dim=30, action_count=3, config=config)
    fed = {a: ([], []) for a in range(3)}
    for _ in range(48):
        a = int(rng.integers(3))
        x = rng.random(30)
        y = float(rng.normal())
        policy._ingest(x, a, y)
        fed[a][0].append(x)
        fed[a][1].append(y)
    assert sum(policy.blocks[a].n for a in range(3)) == 48
    for a in range(3):
        xs, ys = fed[a]
        for _ in range(5):
            probe = rng.random(30)
            mean, var = q_posterior(policy, probe, a)
            ref_mean, ref_var = dense_posterior(xs, ys, np.ones(len(xs)),
                                                config.sigma2, probe)
            assert mean == pytest.approx(ref_mean, abs=1e-6)
            assert var == pytest.approx(ref_var, abs=1e-6)


def test_10_dqn_bellman_targets():
    rewards = np.array([-1.0, -1.0, 19.0])
    next_q = np.array([[2.0, 5.0, -1.0],
                       [4.0, 0.5, 3.0],
                       [9.0, 9.0, 9.0]])
    next_masks = np.array([[True, False, True],
                           [True, True, True],
                           [True, True, True]])
    dones = np.array([False, False, True])
    got = bellman_targets(rewards, next_q, next_masks, dones, gamma=0.99)
    want = np.array([-1.0 + 0.99 * 2.0, -1.0 + 0.99 * 4.0, 19.0])
    assert np.array_equal(got, want)


def test_11_enac_bandit_oracle():
    theta = np.array([0.3, -0.2])
    rewards = np.array([2.0, -1.0])
    e = np.exp(theta - theta.max())
    pi = e / e.sum()
    j = float(pi @ rewards)
    fisher = np.diag(pi) - np.outer(pi, pi)
    oracle = np.linalg.pinv(fisher) @ (pi * (rewards - j))

    rng = np.random.default_rng(11)
    n = 10_000
    actions = rng.choice(2, size=n, p=pi)
    phis = np.eye(2)[actions] - pi
    estimate = enac_natural_gradient(phis, rewards[actions], ridge=1e-4)
    assert np.linalg.norm(estimate - oracle) <= 0.05 * np.linalg.norm(oracle)


# ----------------------------------------------------- 12: convergence


def test_12_toy_mdp_convergence():
    start = time.monotonic()
    for name, build, episodes in CORRIDOR_SETUPS:
        assert episodes <= 2000
        policy = build()
        run_corridor_training(policy, episodes, seed=42)
        assert greedy_corridor_return(policy) == 8.0, name
    assert time.monotonic() - start < 120.0


# ------------------------------------------------- 13-16: CR bands


def test_13_handcrafted_env1(handcrafted_band):
    assert handcrafted_band[1] >= 0.95


def test_14_gpsarsa_env1(gpsarsa_band):
    at_100 = success_mean(gpsarsa_band, 100)
    at_1000 = success_mean(gpsarsa_band, 1000)
    assert at_1000 >= 0.85
    assert at_1000 > at_100


def test_15_dqn_env1(dqn_band):
    assert success_mean(dqn_band, 1000) >= 0.70


def test_16_noise_degradation_ordering(handcrafted_band):
    assert handcrafted_band[1] >= handcrafted_band[3] >= handcrafted_band[6]


# ------------------------------------------------- 17: determinism


def test_17_benchmark_determinism(tmp_path):
    def invoke(out_dir):
        code = cli_main(["benchmark", "--task", "env1-CR,env1-SFR",
                         "--algo", "handcrafted", "--seeds", "0,1",
                         "--dialogues", "2", "--test-dialogues", "5",
                         "--out", str(out_dir)])
        assert code == 0
        return {p.relative_to(out_dir): p.read_bytes()
                for p in sorted(out_dir.rglob("*.csv"))}

    first = invoke(tmp_path / "a")
    second = invoke(tmp_path / "b")
    assert first.keys() == second.keys()
    assert first == second
