"""Q-learner: Bellman targets, replay buffer, target sync, learning."""

import hashlib
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import dialbench
from dialbench.policies.base import Transition, load_policy, save_checkpoint
from dialbench.policies.dqn import DQNConfig, DQNPolicy, bellman_targets
from dialbench.rl_core import forward


def transition(obs, action, reward, next_obs, done, n_actions=2):
    m = np.ones(n_actions, dtype=bool)
    return Transition(np.asarray(obs, float), action, reward,
                      np.asarray(next_obs, float), m, done, mask=m)


def tiny_config(**overrides):
    base = dict(hidden1=24, hidden2=12, lr=0.01, buffer_size=500,
                minibatch=16, train_after=32, target_sync_dialogues=2,
                eps0=0.3, anneal_dialogues=200)
    base.update(overrides)
    return DQNConfig(**base)


# ------------------------------------------------------------- targets


def test_bellman_targets_fixture():
    rewards = np.array([-1.0, -1.0, 19.0, 0.0])
    next_q = np.array([
        [2.0, 5.0, 1.0],
        [-3.0, -1.0, 0.0],
        [100.0, 100.0, 100.0],
        [-5.0, -2.0, -7.0],
    ])
    next_masks = np.array([
        [True, False, True],   # the 5.0 is illegal, best legal is 2.0
        [True, True, True],
        [True, True, True],
        [False, True, True],
    ])
    dones = np.array([False, False, True, False])
    expected = np.array([
        -1.0 + 0.99 * 2.0,
        -1.0 + 0.99 * 0.0,
        19.0,
        0.0 + 0.99 * -2.0,
    ])
    got = bellman_targets(rewards, next_q, next_masks, dones, 0.99)
    assert np.array_equal(got, expected)


def test_bellman_targets_all_done_equal_rewards():
    rewards = np.array([3.0, -4.0])
    next_q = np.full((2, 3), 99.0)
    masks = np.ones((2, 3), dtype=bool)
    got = bellman_targets(rewards, next_q, masks, np.array([True, True]), 0.99)
    assert np.array_equal(got, rewards)


def test_bellman_targets_respect_mask_with_one_legal_action():
    rewards = np.zeros(1)
    next_q = np.array([[7.0, -2.0, 4.0]])
    masks = np.array([[False, True, False]])
    got = bellman_targets(rewards, next_q, masks, np.array([False]), 0.5)
    assert got[0] == 0.5 * -2.0


# ------------------------------------------------------------- acting


def test_greedy_act_is_masked_argmax():
    policy = DQNPolicy(3, 4, tiny_config())
    obs = np.array([0.3, -0.2, 1.0])
    q = forward(policy.net, obs)
    mask = np.array([True, True, False, True])
    a = policy.act(obs, mask, np.random.default_rng(0))
    legal = np.where(mask, q, -np.inf)
    assert a == int(np.argmax(legal))


def test_epsilon_one_acts_uniformly():
    policy = DQNPolicy(2, 3, tiny_config(eps0=1.0))
    policy.begin_dialogue(0, training=True)
    rng = np.random.default_rng(1)
    mask = np.array([True, False, True])
    counts = np.zeros(3)
    for _ in range(400):
        counts[policy.act(np.zeros(2), mask, rng)] += 1
    assert counts[1] == 0
    assert abs(counts[0] - counts[2]) < 80


def test_evaluation_mode_ignores_epsilon():
    policy = DQNPolicy(2, 3, tiny_config(eps0=1.0))
    policy.begin_dialogue(0, training=False)
    rng = np.random.default_rng(2)
    mask = np.ones(3, dtype=bool)
    actions = {policy.act(np.array([1.0, 0.5]), mask, rng) for _ in range(50)}
    assert len(actions) == 1


def test_begin_dialogue_applies_schedule():
    policy = DQNPolicy(2, 2, tiny_config(eps0=0.3, anneal_dialogues=200))
    policy.begin_dialogue(0, True)
    assert policy.epsilon == pytest.approx(0.3)
    policy.begin_dialogue(100, True)
    assert policy.epsilon == pytest.approx(0.175)
    policy.begin_dialogue(200, True)
    assert policy.epsilon == pytest.approx(0.05)
    policy.begin_dialogue(9999, True)
    assert policy.epsilon == pytest.approx(0.05)


# ------------------------------------------------------------- buffer


def test_buffer_is_a_ring():
    policy = DQNPolicy(1, 2, tiny_config(buffer_size=5, train_after=999))
    policy.begin_dialogue(0, True)
    rng = np.random.default_rng(3)
    for i in range(8):
        policy.observe(transition([float(i)], 0, float(i), [0.0], False), rng)
    assert len(policy._buffer) == 5
    stored = sorted(t.reward for t in policy._buffer)
    assert stored == [2.0, 3.0, 4.0, 5.0, 6.0, 7.0][:5] or stored == [3.0, 4.0, 5.0, 6.0, 7.0]


def test_no_updates_before_warmup():
    policy = DQNPolicy(2, 2, tiny_config(train_after=50))
    policy.begin_dialogue(0, True)
    before = [p.copy() for p in policy.net.params()]
    rng = np.random.default_rng(4)
    for i in range(20):
        policy.observe(transition([0.1, 0.2], 0, -1.0, [0.3, 0.4], False), rng)
    for b, p in zip(before, policy.net.params()):
        assert np.array_equal(b, p)


def test_updates_start_after_warmup():
    policy = DQNPolicy(2, 2, tiny_config(train_after=10))
    policy.begin_dialogue(0, True)
    before = [p.copy() for p in policy.net.params()]
    rng = np.random.default_rng(5)
    for i in range(15):
        policy.observe(transition([0.1, 0.2], i % 2, -1.0, [0.3, 0.4], False), rng)
    assert any(not np.array_equal(b, p)
               for b, p in zip(before, policy.net.params()))


def test_observe_noop_outside_training():
    policy = DQNPolicy(2, 2, tiny_config())
    policy.begin_dialogue(0, training=False)
    policy.observe(transition([0.0, 0.0], 0, 1.0, [0.0, 0.0], True),
                   np.random.default_rng(6))
    assert len(policy._buffer) == 0


# ------------------------------------------------------------- target net


def test_target_sync_every_second_dialogue():
    policy = DQNPolicy(2, 2, tiny_config(train_after=4, target_sync_dialogues=2))
    rng = np.random.default_rng(7)
    policy.begin_dialogue(0, True)
    for i in range(8):
        policy.observe(transition([0.5, -0.5], i % 2, 1.0, [0.5, -0.5], False), rng)
    # the Q-net moved, target still at init
    assert not np.array_equal(policy.net.w3, policy.target_net.w3)
    policy.end_dialogue(rng)
    assert not np.array_equal(policy.net.w3, policy.target_net.w3)
    policy.end_dialogue(rng)
    assert np.array_equal(policy.net.w3, policy.target_net.w3)


def test_target_not_synced_outside_training():
    policy = DQNPolicy(2, 2, tiny_config(train_after=4))
    rng = np.random.default_rng(8)
    policy.begin_dialogue(0, True)
    for i in range(8):
        policy.observe(transition([0.5, -0.5], i % 2, 1.0, [0.5, -0.5], False), rng)
    policy.begin_dialogue(1, training=False)
    policy.end_dialogue(rng)
    policy.end_dialogue(rng)
    assert not np.array_equal(policy.net.w3, policy.target_net.w3)


# ------------------------------------------------------------- learning


def test_train_step_fits_fixed_targets():
    # every transition terminal: the regression target is just the reward
    policy = DQNPolicy(2, 2, tiny_config(train_after=8, lr=0.005))
    policy.begin_dialogue(0, True)
    rng = np.random.default_rng(9)
    obs = [np.array([1.0, 0.0]), np.array([0.0, 1.0])]
    for i in range(16):
        o = obs[i % 2]
        policy._buffer.append(transition(o, i % 2, 5.0 if i % 2 else -5.0, o, True))
    first = policy.train_step(rng)
    for _ in range(600):
        last = policy.train_step(rng)
    assert last < 0.05 * first


def test_chain_mdp_learns_greedy_advance():
    config = tiny_config(lr=0.005, train_after=64, eps0=0.5,
                         anneal_dialogues=150)
    policy = DQNPolicy(2, 2, config, init_rng=np.random.default_rng(10))
    s0, s1 = np.array([1.0, 0.0]), np.array([0.0, 1.0])
    rng = np.random.default_rng(11)
    mask = np.ones(2, dtype=bool)
    ADV = 0
    for episode in range(250):
        policy.begin_dialogue(episode, training=True)
        state, at_start = s0, True
        for _ in range(12):
            a = policy.act(state, mask, rng)
            if a == ADV:
                if at_start:
                    policy.observe(transition(s0, a, -1.0, s1, False), rng)
                    state, at_start = s1, False
                else:
                    policy.observe(transition(s1, a, 10.0, s1, True), rng)
                    break
            else:
                policy.observe(transition(state, a, -1.0, state, False), rng)
        policy.end_dialogue(rng)
    policy.begin_dialogue(0, training=False)
    assert policy.act(s0, mask, rng) == ADV
    assert policy.act(s1, mask, rng) == ADV
    q1 = forward(policy.net, s1)
    assert q1[ADV] == pytest.approx(10.0, abs=2.0)


def test_dqn_learn_step_allocates_little():
    """After its first step, a learn step of the default net reuses its
    batch, activation and gradient buffers; what it allocates fresh is
    small (with fresh buffers every step, the peak was about 1.6 MiB)."""
    rng = np.random.default_rng(17)
    policy = DQNPolicy(230, 23, DQNConfig(), init_rng=np.random.default_rng(18))
    policy.begin_dialogue(0, True)
    for _ in range(policy.config.train_after):
        mask = rng.random(23) > 0.3
        policy._buffer.append(Transition(
            rng.random(230), int(rng.integers(23)), -1.0, rng.random(230),
            mask, False, mask=mask))
    policy.train_step(rng)
    tracemalloc.start()
    try:
        for _ in range(3):
            policy.train_step(rng)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 256 * 1024


# ------------------------------------------------------------- persistence


def test_save_load_round_trip(tmp_path):
    policy = DQNPolicy(4, 3, tiny_config(), init_rng=np.random.default_rng(12))
    rng = np.random.default_rng(13)
    policy.begin_dialogue(0, True)
    for i in range(40):
        policy.observe(
            transition(rng.random(4), int(rng.integers(3)), float(rng.normal()),
                       rng.random(4), bool(i % 7 == 0), n_actions=3), rng)
    path = tmp_path / "dqn.npz"
    policy.save(path)
    restored = load_policy(path)
    probe = rng.random(4)
    assert np.allclose(forward(restored.net, probe),
                       forward(policy.net, probe), atol=1e-12)
    # target net restarts in sync with the live net
    assert np.array_equal(restored.net.w1, restored.target_net.w1)


def test_restore_fills_the_net_its_config_sized():
    # Adam's moments and the gradient buffer are sized for the net the
    # config built, so the arrays must land in that net
    donor = DQNPolicy(4, 3, tiny_config(), init_rng=np.random.default_rng(1))
    policy = DQNPolicy(4, 3, tiny_config())
    theta, target_theta = policy.net.theta, policy.target_net.theta
    policy.restore_arrays(donor.state_arrays())
    assert policy.net.theta is theta and policy.target_net.theta is target_theta
    assert np.array_equal(theta, donor.net.theta)
    assert np.array_equal(target_theta, theta)
    arrays = DQNPolicy(4, 3, tiny_config(hidden2=11)).state_arrays()
    with pytest.raises(ValueError, match=r"w2 has shape \(24, 11\), "
                                         r"expected \(24, 12\)"):
        policy.restore_arrays(arrays)


def test_load_rejects_foreign_checkpoint(tmp_path):
    path = tmp_path / "other.npz"
    save_checkpoint(path, "gpsarsa", {"obs_dim": 2}, {"w": np.zeros(2)})
    with pytest.raises(ValueError):
        load_policy(path)


# ------------------------------------------------------------- pinned bytes

# SHA-256 of the checkpoint that 40 training dialogues of DQN on env3-SFR,
# run seed 0, leave behind (198 train steps of the 230-300-100-23 net).
# Recorded with numpy 2.4 and its bundled OpenBLAS 0.3.31 on an x86-64 Xeon.
PINNED_DQN_CHECKPOINT = (
    "2d38a8f96f73044c3458826322c8941933d8611c08d161027b27b3e6823ac391")

PINNED_RUN = """
import sys
from pathlib import Path
from dialbench.harness import RunSpec, run_training
from dialbench.policies import DQNPolicy

steps = []
train_step = DQNPolicy.train_step


def counted(self, rng):
    steps.append(1)
    return train_step(self, rng)


DQNPolicy.train_step = counted
run_training(RunSpec("env3-SFR", "dqn", seeds=(0,), train_dialogues=40,
                     eval_points=(40,), test_dialogues=2,
                     out_dir=Path(sys.argv[1])))
print(len(steps))
"""


BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                    "MKL_NUM_THREADS")


def run_pinned(tmp_path, env):
    """Run ``PINNED_RUN`` in a fresh process; return its train-step count
    and the SHA-256 of the checkpoint it wrote."""
    env = dict(env, PYTHONPATH=str(Path(dialbench.__file__).parents[1]))
    done = subprocess.run([sys.executable, "-c", PINNED_RUN, str(tmp_path)],
                          env=env, capture_output=True, text=True,
                          timeout=60, check=True)
    path = tmp_path / "checkpoints" / "env3-SFR" / "dqn" / "seed0-d40.npz"
    return (int(done.stdout.split()[-1]),
            hashlib.sha256(path.read_bytes()).hexdigest())


def test_dqn_checkpoint_bytes_are_pinned(tmp_path):
    """Any change to the floating-point operations of DQN training (the
    net, backprop, Adam, the replay draws) changes these bytes.

    The run gets its own process with one BLAS thread: a threaded BLAS
    splits its sums by the thread count, which would tie the bytes to the
    machine's core count.
    """
    env = dict(os.environ, **{var: "1" for var in BLAS_THREAD_VARS})
    steps, digest = run_pinned(tmp_path, env)
    assert steps == 198
    assert digest == PINNED_DQN_CHECKPOINT


def test_package_pins_one_blas_thread(tmp_path):
    """With no BLAS thread setting in the environment, importing dialbench
    sets one thread, so the pinned bytes come out on any core count."""
    env = {k: v for k, v in os.environ.items() if k not in BLAS_THREAD_VARS}
    assert run_pinned(tmp_path, env) == (198, PINNED_DQN_CHECKPOINT)
