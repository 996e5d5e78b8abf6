"""Episodic natural actor-critic: estimator correctness and batching."""

import tracemalloc

import numpy as np
import pytest

from dialbench.policies.base import Transition, load_policy, save_checkpoint
from dialbench.policies.enac import ENACConfig, ENACPolicy, enac_natural_gradient
from dialbench.rl_core import forward, forward_cache, grad_log_prob, masked_softmax


def tiny_config(**overrides):
    base = dict(hidden1=12, hidden2=8, step_size=0.3, eps0=0.3,
                anneal_dialogues=100, batch_episodes=5)
    base.update(overrides)
    return ENACConfig(**base)


def transition(obs, action, reward, mask, done=False):
    return Transition(np.asarray(obs, float), action, reward,
                      np.asarray(obs, float), mask, done, mask=mask)


def softmax(z):
    e = np.exp(z - z.max())
    return e / e.sum()


# ------------------------------------------------------------- estimator


def test_primal_and_dual_solutions_agree():
    rng = np.random.default_rng(0)
    phis = rng.normal(size=(10, 20))     # p + bias = 21 > n = 10, dual path
    returns = rng.normal(size=10)
    ridge = 1e-4
    got = enac_natural_gradient(phis, returns, ridge)
    design = np.concatenate([phis, np.ones((10, 1))], axis=1)
    normal = design.T @ design + ridge * np.eye(21)
    expected = np.linalg.solve(normal, design.T @ returns)[:-1]
    assert np.allclose(got, expected, atol=1e-8)


def test_primal_path_small_parameter_count():
    rng = np.random.default_rng(1)
    phis = rng.normal(size=(30, 4))      # p + bias = 5 <= n = 30, primal path
    returns = phis @ np.array([1.0, -2.0, 0.5, 3.0]) + 7.0
    got = enac_natural_gradient(phis, returns, ridge=1e-8)
    assert np.allclose(got, [1.0, -2.0, 0.5, 3.0], atol=1e-3)


def test_single_episode_input_accepted():
    w = enac_natural_gradient(np.array([1.0, 2.0]), np.array([3.0]))
    assert w.shape == (2,)


def test_zero_scores_give_zero_gradient():
    w = enac_natural_gradient(np.zeros((6, 3)), np.full(6, 5.0))
    assert np.allclose(w, 0.0)


def test_bandit_estimate_matches_fisher_pseudoinverse():
    # two-action softmax bandit with deterministic arm rewards; the
    # regression estimate must recover pinv(F) @ grad J
    theta = np.array([0.3, -0.2])
    rewards = np.array([2.0, -1.0])
    pi = softmax(theta)
    j = float(pi @ rewards)
    grad_j = pi * (rewards - j)
    fisher = np.diag(pi) - np.outer(pi, pi)
    oracle = np.linalg.pinv(fisher) @ grad_j

    rng = np.random.default_rng(2)
    n = 10_000
    actions = rng.choice(2, size=n, p=pi)
    eye = np.eye(2)
    phis = eye[actions] - pi
    returns = rewards[actions]
    estimate = enac_natural_gradient(phis, returns, ridge=1e-4)
    assert np.linalg.norm(estimate - oracle) <= 0.05 * np.linalg.norm(oracle)


# ------------------------------------------------------------- batching


def run_dialogue(policy, rewards, rng, index=0, mask=None):
    if mask is None:
        mask = np.ones(policy.action_count, dtype=bool)
    policy.begin_dialogue(index, training=True)
    for r in rewards:
        obs = rng.random(policy.obs_dim)
        a = policy.act(obs, mask, rng)
        policy.observe(transition(obs, a, r, mask), rng)
    policy.end_dialogue(rng)


def test_update_fires_on_batch_boundary():
    policy = ENACPolicy(3, 2, tiny_config(batch_episodes=3))
    rng = np.random.default_rng(3)
    before = [p.copy() for p in policy.net.params()]
    run_dialogue(policy, [-1.0, 4.0], rng, 0)
    run_dialogue(policy, [-1.0, -1.0], rng, 1)
    assert len(policy._batch_phis) == 2
    for b, p in zip(before, policy.net.params()):
        assert np.array_equal(b, p)
    run_dialogue(policy, [2.0], rng, 2)
    assert len(policy._batch_phis) == 0
    assert any(not np.array_equal(b, p)
               for b, p in zip(before, policy.net.params()))


def test_update_step_has_configured_norm():
    step_size = 0.25
    policy = ENACPolicy(3, 2, tiny_config(step_size=step_size, batch_episodes=4))
    rng = np.random.default_rng(4)
    before = np.concatenate([p.ravel().copy() for p in policy.net.params()])
    for i in range(4):
        run_dialogue(policy, [-1.0, float(i)], rng, i)
    after = np.concatenate([p.ravel() for p in policy.net.params()])
    assert np.linalg.norm(after - before) == pytest.approx(step_size, abs=1e-9)


def test_step_size_zero_never_moves_parameters():
    policy = ENACPolicy(2, 2, tiny_config(step_size=0.0, batch_episodes=2))
    rng = np.random.default_rng(5)
    before = [p.copy() for p in policy.net.params()]
    for i in range(6):
        run_dialogue(policy, [1.0, -1.0], rng, i)
    for b, p in zip(before, policy.net.params()):
        assert np.array_equal(b, p)


def test_single_legal_action_contributes_no_score():
    # pi(only action) = 1, so the score function vanishes identically
    policy = ENACPolicy(2, 3, tiny_config(batch_episodes=1))
    rng = np.random.default_rng(6)
    mask = np.array([False, True, False])
    before = [p.copy() for p in policy.net.params()]
    run_dialogue(policy, [5.0, 5.0], rng, 0, mask=mask)
    for b, p in zip(before, policy.net.params()):
        assert np.array_equal(b, p)


def test_phi_accumulates_score_functions():
    policy = ENACPolicy(3, 2, tiny_config(eps0=0.0))
    rng = np.random.default_rng(7)
    mask = np.ones(2, dtype=bool)
    policy.begin_dialogue(0, training=True)
    observations = [np.array([0.5, -0.2, 1.0]), np.array([-1.0, 0.3, 0.0])]
    expected = np.zeros(policy.param_count)
    for obs in observations:
        a = policy.act(obs, mask, rng)
        cache = forward_cache(policy.net, obs)
        grads = grad_log_prob(policy.net, cache,
                              masked_softmax(cache.z, mask), mask, a)
        expected += np.concatenate([g.ravel() for g in grads])
    assert np.allclose(policy._phi, expected, atol=1e-12)


def test_evaluation_mode_keeps_state_frozen():
    policy = ENACPolicy(2, 2, tiny_config(batch_episodes=1))
    rng = np.random.default_rng(8)
    before = [p.copy() for p in policy.net.params()]
    policy.begin_dialogue(0, training=False)
    mask = np.ones(2, dtype=bool)
    a = policy.act(np.zeros(2), mask, rng)
    policy.observe(transition(np.zeros(2), a, 9.0, mask), rng)
    policy.end_dialogue(rng)
    assert policy._batch_phis == []
    for b, p in zip(before, policy.net.params()):
        assert np.array_equal(b, p)


def test_empty_dialogue_contributes_nothing():
    policy = ENACPolicy(2, 2, tiny_config())
    policy.begin_dialogue(0, training=True)
    policy.end_dialogue(np.random.default_rng(9))
    assert policy._batch_phis == []


def test_enac_update_allocates_little():
    """The batch's scores live in one design matrix that the update
    solves on; the update makes no copy of it (stacking the rows and
    appending a bias column made two)."""
    rng = np.random.default_rng(13)
    policy = ENACPolicy(100, 23, ENACConfig(), init_rng=np.random.default_rng(14))
    assert 20_000 < policy.param_count < 21_000
    batch = policy.config.batch_episodes
    for i in range(batch - 1):
        run_dialogue(policy, [-1.0, 2.0], rng, i)
    policy.begin_dialogue(batch - 1, training=True)
    mask = np.ones(23, dtype=bool)
    obs = rng.random(100)
    a = policy.act(obs, mask, rng)
    policy.observe(transition(obs, a, 20.0, mask, done=True), rng)
    before = policy.net.theta.copy()
    tracemalloc.start()
    try:
        policy.end_dialogue(rng)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert not np.array_equal(before, policy.net.theta)   # the update ran
    design_bytes = batch * (policy.param_count + 1) * 8
    assert peak < design_bytes / 2


class StackedENAC(ENACPolicy):
    """eNAC whose update regresses on a stack of the batch's rows."""

    def update(self):
        w = enac_natural_gradient(np.stack(self._batch_phis),
                                  np.array(self._batch_returns),
                                  self.config.ridge)
        self._batch_phis, self._batch_returns = [], []
        norm = float(np.linalg.norm(w))
        if norm:
            self.net.theta += self.config.step_size * w / norm


def test_update_on_the_design_matrix_matches_a_stacked_batch():
    config = ENACConfig(hidden1=32, hidden2=16, batch_episodes=6)
    policy, stacked = (cls(20, 9, config, init_rng=np.random.default_rng(15))
                       for cls in (ENACPolicy, StackedENAC))
    rngs = [np.random.default_rng(16) for _ in range(2)]
    for batch in range(3):
        before = policy.net.theta.copy()
        for i in range(config.batch_episodes):
            rewards = [-1.0] * (i % 3) + [float(i)]
            for p, rng in zip((policy, stacked), rngs):
                run_dialogue(p, rewards, rng, batch * config.batch_episodes + i)
        assert not np.array_equal(before, policy.net.theta)
        assert policy.net.theta.tobytes() == stacked.net.theta.tobytes()


def test_eval_only_policy_holds_no_design_matrix():
    policy = ENACPolicy(4, 3, tiny_config())
    rng = np.random.default_rng(17)
    policy.begin_dialogue(0, training=False)
    policy.act(rng.random(4), np.ones(3, dtype=bool), rng)
    policy.end_dialogue(rng)
    assert policy._design is None


# ------------------------------------------------------------- learning


def test_two_armed_bandit_prefers_better_arm():
    policy = ENACPolicy(2, 2, tiny_config(step_size=0.4, batch_episodes=10,
                                          eps0=0.2, anneal_dialogues=200))
    rng = np.random.default_rng(10)
    obs = np.array([1.0, 0.0])
    mask = np.ones(2, dtype=bool)
    for i in range(300):
        policy.begin_dialogue(i, training=True)
        a = policy.act(obs, mask, rng)
        policy.observe(transition(obs, a, 1.0 if a == 0 else -1.0, mask, True),
                       rng)
        policy.end_dialogue(rng)
    policy.begin_dialogue(0, training=False)
    assert policy.act(obs, mask, rng) == 0
    probs = masked_softmax(forward(policy.net, obs), mask)[0]
    assert probs[0] > 0.8


# ------------------------------------------------------------- persistence


def test_save_load_round_trip(tmp_path):
    policy = ENACPolicy(4, 3, tiny_config(), init_rng=np.random.default_rng(11))
    rng = np.random.default_rng(12)
    for i in range(7):
        run_dialogue(policy, [-1.0, 2.0], rng, i)
    path = tmp_path / "enac.npz"
    policy.save(path)
    restored = load_policy(path)
    probe = rng.random(4)
    mask = np.array([True, True, False])
    assert np.allclose(masked_softmax(forward(restored.net, probe), mask),
                       masked_softmax(forward(policy.net, probe), mask),
                       atol=1e-12)
    assert restored.config.step_size == policy.config.step_size


def test_load_rejects_foreign_checkpoint(tmp_path):
    path = tmp_path / "other.npz"
    save_checkpoint(path, "a2c", {"obs_dim": 2}, {"w": np.zeros(2)})
    with pytest.raises(ValueError):
        load_policy(path)
