"""Actor-critic: loss gradients, sampling behaviour, replay window."""

import numpy as np
import pytest

from dialbench.policies.a2c import A2CConfig, A2CPolicy, Episode, a2c_loss, returns_to_go
from dialbench.policies.base import Transition, load_policy, save_checkpoint
from dialbench.rl_core import forward, forward_cache, init_net, masked_softmax


def tiny_config(**overrides):
    base = dict(hidden1=16, hidden2=8, lr=0.01, eps0=0.5,
                anneal_dialogues=200, window=8, update_episodes=4)
    base.update(overrides)
    return A2CConfig(**base)


def small_net(n_actions, seed=0, in_dim=5):
    rng = np.random.default_rng(seed)
    net = init_net(in_dim, 6, 5, n_actions + 1, rng)
    net.b1[:] = rng.normal(size=net.b1.shape) * 0.3
    net.b2[:] = rng.normal(size=net.b2.shape) * 0.3
    return net


def action_probs(policy, observation, mask):
    """The policy's action probabilities at one observation."""
    return masked_softmax(forward(policy.net, observation)[:-1], mask)[0]


def value(policy, observation):
    """The critic's value at one observation."""
    return float(forward(policy.net, observation)[-1])


def transition(obs, action, reward, mask, done=False):
    return Transition(np.asarray(obs, float), action, reward,
                      np.asarray(obs, float), mask, done, mask=mask)


def loss_inputs(n_actions=3, n=6, seed=1):
    rng = np.random.default_rng(seed)
    obs = rng.normal(size=(n, 5))
    actions = rng.integers(n_actions, size=n)
    masks = np.ones((n, n_actions), dtype=bool)
    masks[0, n_actions - 1] = False
    masks[3, 0] = False
    actions = np.array([a if masks[i, a] else int(np.flatnonzero(masks[i])[0])
                        for i, a in enumerate(actions)])
    returns = rng.normal(size=n) * 5
    advantages = rng.normal(size=n)
    weights = rng.uniform(0.5, 2.0, size=n)
    return obs, actions, masks, returns, advantages, weights


# ------------------------------------------------------------- returns


def test_returns_to_go_fixture():
    got = returns_to_go(np.array([-1.0, -1.0, 19.0]), 0.99)
    expected = np.array([
        -1.0 + 0.99 * (-1.0 + 0.99 * 19.0),
        -1.0 + 0.99 * 19.0,
        19.0,
    ])
    assert np.array_equal(got, expected)
    assert got[0] == pytest.approx(16.6319, abs=1e-10)


def test_returns_to_go_gamma_zero_is_identity():
    r = np.array([3.0, -2.0, 7.0])
    assert np.array_equal(returns_to_go(r, 0.0), r)


# ------------------------------------------------------------- loss


def test_a2c_loss_matches_finite_differences():
    net = small_net(3)
    obs, actions, masks, returns, advantages, weights = loss_inputs()
    xb = np.atleast_2d(obs)
    z1 = xb @ net.w1 + net.b1
    z2 = np.maximum(z1, 0.0) @ net.w2 + net.b2
    assert min(np.abs(z1).min(), np.abs(z2).min()) > 1e-4

    def loss():
        return a2c_loss(net, forward_cache(net, obs), actions, masks,
                        returns, advantages, weights, entropy_beta=0.01)[0]

    _, grads = a2c_loss(net, forward_cache(net, obs), actions, masks,
                        returns, advantages, weights, entropy_beta=0.01)
    h = 1e-6
    for p, g in zip(net.params(), net.split(grads)):
        flat, gf = p.reshape(-1), np.asarray(g).reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + h
            up = loss()
            flat[i] = orig - h
            fd = (up - loss()) / (2 * h)
            flat[i] = orig
            assert gf[i] == pytest.approx(fd, rel=1e-4, abs=1e-6)


def test_a2c_loss_value_recomputation():
    # rebuild the scalar loss from scratch with its published definition
    net = small_net(3, seed=2)
    obs, actions, masks, returns, advantages, weights = loss_inputs(seed=3)
    beta = 0.02
    loss, _ = a2c_loss(net, forward_cache(net, obs), actions, masks,
                       returns, advantages, weights, entropy_beta=beta)
    out = forward(net, obs)
    p = masked_softmax(out[:, :-1], masks)
    rows = np.arange(len(actions))
    logp = np.log(p[rows, actions])
    with np.errstate(divide="ignore", invalid="ignore"):
        full_logp = np.where(p > 0, np.log(np.where(p > 0, p, 1.0)), 0.0)
    entropy = -(p * full_logp).sum(axis=1)
    td = out[:, -1] - returns
    expected = np.mean(weights * (-advantages * logp + 0.5 * td**2
                                  - beta * entropy))
    assert loss == pytest.approx(expected, abs=1e-12)


def test_a2c_loss_zero_advantage_zero_beta_is_value_regression():
    net = small_net(2, seed=4)
    obs, actions, masks, returns, _, weights = loss_inputs(n_actions=2, seed=5)
    loss, grads = a2c_loss(net, forward_cache(net, obs), actions, masks,
                           returns, np.zeros(len(actions)), weights,
                           entropy_beta=0.0)
    td = forward(net, obs)[:, -1] - returns
    assert loss == pytest.approx(np.mean(weights * 0.5 * td**2), abs=1e-12)
    # policy logits get no gradient: their w3 columns stay untouched
    g_w3 = net.split(grads)[4]
    assert np.allclose(g_w3[:, :-1], 0.0, atol=1e-15)
    assert not np.allclose(g_w3[:, -1], 0.0)


def test_a2c_loss_duplicating_rows_preserves_mean():
    net = small_net(3, seed=6)
    obs, actions, masks, returns, advantages, weights = loss_inputs(seed=7)
    once, _ = a2c_loss(net, forward_cache(net, obs), actions, masks,
                       returns, advantages, weights, entropy_beta=0.01)
    twice, _ = a2c_loss(net, forward_cache(net, np.concatenate([obs, obs])),
                        np.concatenate([actions, actions]),
                        np.concatenate([masks, masks]),
                        np.concatenate([returns, returns]),
                        np.concatenate([advantages, advantages]),
                        np.concatenate([weights, weights]),
                        entropy_beta=0.01)
    assert twice == pytest.approx(once, abs=1e-12)


def test_a2c_loss_fully_masked_action_has_zero_logit_grad():
    net = small_net(3, seed=8)
    obs, actions, masks, returns, advantages, weights = loss_inputs(seed=9)
    masks[:, 2] = False
    actions = np.where(actions == 2, 0, actions)
    _, grads = a2c_loss(net, forward_cache(net, obs), actions, masks,
                        returns, advantages, weights, entropy_beta=0.01)
    _, _, _, _, g_w3, g_b3 = net.split(grads)
    assert np.allclose(g_w3[:, 2], 0.0, atol=1e-15)
    assert g_b3[2] == pytest.approx(0.0, abs=1e-15)


# ------------------------------------------------------------- acting


def test_greedy_act_is_argmax_of_logits():
    policy = A2CPolicy(3, 4, tiny_config())
    obs = np.array([0.4, -1.0, 0.2])
    mask = np.array([True, False, True, True])
    a = policy.act(obs, mask, np.random.default_rng(0))
    logits = forward(policy.net, obs)[:-1]
    assert a == int(np.argmax(np.where(mask, logits, -np.inf)))


def test_training_act_samples_from_policy():
    policy = A2CPolicy(2, 3, tiny_config(eps0=0.0))
    policy.begin_dialogue(0, training=True)
    rng = np.random.default_rng(1)
    obs = np.array([1.0, -0.5])
    mask = np.array([True, True, False])
    probs = action_probs(policy, obs, mask)
    counts = np.zeros(3)
    for _ in range(3000):
        counts[policy.act(obs, mask, rng)] += 1
    assert counts[2] == 0
    assert np.allclose(counts / 3000, probs, atol=0.04)


def test_epsilon_mix_hits_low_probability_actions():
    policy = A2CPolicy(2, 2, tiny_config(eps0=1.0))
    policy.begin_dialogue(0, training=True)
    rng = np.random.default_rng(2)
    mask = np.ones(2, dtype=bool)
    seen = {policy.act(np.zeros(2), mask, rng) for _ in range(100)}
    assert seen == {0, 1}


# ------------------------------------------------------------- episodes


def run_scripted_dialogue(policy, rewards, rng, index=0):
    policy.begin_dialogue(index, training=True)
    mask = np.ones(policy.action_count, dtype=bool)
    for r in rewards:
        obs = rng.random(policy.obs_dim)
        a = policy.act(obs, mask, rng)
        policy.observe(transition(obs, a, r, mask), rng)
    policy.end_dialogue(rng)


def test_end_dialogue_stores_episode_and_updates():
    policy = A2CPolicy(3, 2, tiny_config())
    rng = np.random.default_rng(4)
    before = [p.copy() for p in policy.net.params()]
    run_scripted_dialogue(policy, [-1.0, -1.0, 19.0], rng)
    assert len(policy.episodes) == 1
    ep = policy.episodes[0]
    assert np.array_equal(ep.returns, returns_to_go(np.array([-1.0, -1.0, 19.0]),
                                                    policy.config.gamma))
    assert any(not np.array_equal(b, p)
               for b, p in zip(before, policy.net.params()))


def test_behaviour_probs_recorded_under_collection_net():
    policy = A2CPolicy(3, 2, tiny_config(eps0=0.0))
    rng = np.random.default_rng(5)
    policy.begin_dialogue(0, training=True)
    mask = np.ones(2, dtype=bool)
    obs = np.array([0.3, 0.1, -0.2])
    a = policy.act(obs, mask, rng)
    expected = action_probs(policy, obs, mask)[a]
    policy.observe(transition(obs, a, 1.0, mask), rng)
    policy.end_dialogue(rng)
    assert policy.episodes[0].behaviour_probs[0] == pytest.approx(expected)


def test_window_is_bounded():
    policy = A2CPolicy(2, 2, tiny_config(window=4))
    rng = np.random.default_rng(6)
    for i in range(10):
        run_scripted_dialogue(policy, [-1.0, 2.0], rng, index=i)
    assert len(policy.episodes) == 4


def test_empty_dialogue_is_ignored():
    policy = A2CPolicy(2, 2, tiny_config())
    policy.begin_dialogue(0, training=True)
    policy.end_dialogue(np.random.default_rng(7))
    assert len(policy.episodes) == 0


def test_evaluation_leaves_state_untouched():
    policy = A2CPolicy(2, 2, tiny_config())
    rng = np.random.default_rng(8)
    before = [p.copy() for p in policy.net.params()]
    policy.begin_dialogue(0, training=False)
    mask = np.ones(2, dtype=bool)
    obs = np.zeros(2)
    a = policy.act(obs, mask, rng)
    policy.observe(transition(obs, a, 5.0, mask), rng)
    policy.end_dialogue(rng)
    assert len(policy.episodes) == 0
    for b, p in zip(before, policy.net.params()):
        assert np.array_equal(b, p)


# ------------------------------------------------------------- learning


def test_two_armed_bandit_prefers_better_arm():
    policy = A2CPolicy(2, 2, tiny_config(lr=0.02, eps0=0.3,
                                         anneal_dialogues=100))
    rng = np.random.default_rng(9)
    obs = np.array([1.0, 0.0])
    mask = np.ones(2, dtype=bool)
    for i in range(400):
        policy.begin_dialogue(i, training=True)
        a = policy.act(obs, mask, rng)
        policy.observe(transition(obs, a, 1.0 if a == 0 else -1.0, mask, True),
                       rng)
        policy.end_dialogue(rng)
    policy.begin_dialogue(0, training=False)
    assert policy.act(obs, mask, rng) == 0
    assert action_probs(policy, obs, mask)[0] > 0.8
    # the critic converged near the collected mixture's expected reward
    assert -1.0 < value(policy, obs) <= 1.2


# ------------------------------------------------------------- persistence


def test_save_load_round_trip(tmp_path):
    policy = A2CPolicy(4, 3, tiny_config(), init_rng=np.random.default_rng(10))
    rng = np.random.default_rng(11)
    for i in range(5):
        run_scripted_dialogue(policy, [-1.0, -1.0, 5.0], rng, index=i)
    path = tmp_path / "a2c.npz"
    policy.save(path)
    restored = load_policy(path)
    probe = rng.random(4)
    mask = np.array([True, False, True])
    assert np.allclose(action_probs(restored, probe, mask),
                       action_probs(policy, probe, mask), atol=1e-12)
    assert value(restored, probe) == pytest.approx(value(policy, probe))


def test_load_rejects_foreign_checkpoint(tmp_path):
    path = tmp_path / "other.npz"
    save_checkpoint(path, "enac", {"obs_dim": 2}, {"w": np.zeros(2)})
    with pytest.raises(ValueError):
        load_policy(path)
