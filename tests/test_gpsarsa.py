"""Gaussian-process SARSA: posterior correctness, dictionary maintenance,
the incremental-inverse identity, and learning on a tiny chain MDP."""

import gc
import hashlib
import os
import subprocess
import sys
import weakref
from pathlib import Path

import numpy as np
import pytest

import dialbench
from dialbench.belief_tracker import belief_dim
from dialbench.environment import DialogueEnv, make_task
from dialbench.harness import run_episode
from dialbench.policies import make_policy
from dialbench.policies.base import (
    CheckpointError,
    Transition,
    load_policy,
    save_checkpoint,
)
from dialbench.policies.gpsarsa import (
    GPSarsaConfig,
    GPSarsaPolicy,
    _Block,
    _bordered_inverse,
)
from dialbench.seeding import INIT_STREAM, TRAIN_STREAM, seed_stream


def transition(obs, action, reward, next_obs, done, n_actions):
    m = np.ones(n_actions, dtype=bool)
    return Transition(np.asarray(obs, float), action, reward,
                      np.asarray(next_obs, float), m, done, mask=m)


def dense_posterior(xs, ys, counts, sigma2, probe):
    """Reference GP regression posterior for one action block."""
    x = np.asarray(xs, float)
    g = x @ x.T
    a = g + sigma2 * np.diag(1.0 / np.asarray(counts, float))
    k = x @ probe
    alpha = np.linalg.solve(a, np.asarray(ys, float) / np.asarray(counts, float))
    mean = float(k @ alpha)
    var = float(probe @ probe) - float(k @ np.linalg.solve(a, k))
    return mean, max(var, 0.0)


def q_posterior(policy, observation, action):
    """Posterior mean and variance of Q(observation, action), from the
    GP of the action's block."""
    x = np.asarray(observation, dtype=float)
    return policy.blocks[action].posterior(x, float(x @ x))


def a_inverse_error(block, config):
    # A has a sigma2/n diagonal so it is always well conditioned
    a = block.x @ block.x.T + config.sigma2 * np.diag(1.0 / block.counts)
    return np.abs(block.a_inv - np.linalg.inv(a)).max()


def k_inverse_relative_error(block, config):
    k = block.x @ block.x.T + config.jitter * np.eye(block.n)
    dense = np.linalg.inv(k)
    return np.abs(block.k_inv - dense).max() / max(np.abs(dense).max(), 1.0)


# ------------------------------------------------------------- inverses


def test_bordered_inverse_identity():
    rng = np.random.default_rng(0)
    for n in (1, 3, 8):
        base = rng.normal(size=(n + 2, n))
        m = base.T @ base + 0.5 * np.eye(n)
        k = rng.normal(size=n)
        c = float(k @ np.linalg.solve(m, k)) + 1.7  # keep the Schur complement positive
        full = np.block([[m, k[:, None]], [k[None, :], np.array([[c]])]])
        out = _bordered_inverse(np.linalg.inv(m), k, c)
        assert np.allclose(out, np.linalg.inv(full), atol=1e-8)


def test_bordered_inverse_from_empty():
    out = _bordered_inverse(np.zeros((0, 0)), np.zeros(0), 4.0)
    assert out.shape == (1, 1)
    assert out[0, 0] == 0.25


# ------------------------------------------------------------- posterior


def test_posterior_matches_dense_oracle():
    # the linear kernel admits at most obs_dim novel points per block, so
    # keep the state dimension above the per-block point count
    rng = np.random.default_rng(2)
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
    for a in range(3):
        xs, ys = fed[a]
        assert policy.blocks[a].n == len(xs)  # distinct points, no merges
        for _ in range(5):
            probe = rng.random(30)
            mean, var = q_posterior(policy, probe, a)
            ref_mean, ref_var = dense_posterior(
                xs, ys, np.ones(len(xs)), config.sigma2, probe
            )
            assert mean == pytest.approx(ref_mean, abs=1e-6)
            assert var == pytest.approx(ref_var, abs=1e-6)


def test_posterior_with_merged_observations():
    config = GPSarsaConfig(nu=0.01)
    policy = GPSarsaPolicy(obs_dim=4, action_count=1, config=config)
    x = np.array([1.0, 0.0, 0.5, 0.0])
    for y in (3.0, 5.0, 1.0):
        policy._ingest(x, 0, y)
    block = policy.blocks[0]
    assert block.n == 1
    assert block.counts[0] == 3.0
    assert block.ysum[0] == 9.0
    mean, var = q_posterior(policy, x, 0)
    ref_mean, ref_var = dense_posterior([x], [9.0], [3.0], config.sigma2, x)
    assert mean == pytest.approx(ref_mean, abs=1e-9)
    assert var == pytest.approx(ref_var, abs=1e-9)


def test_empty_posterior_is_prior():
    policy = GPSarsaPolicy(obs_dim=3, action_count=2)
    mean, var = q_posterior(policy, np.array([0.0, 2.0, 0.0]), 1)
    assert mean == 0.0
    assert var == 4.0


def test_incremental_inverses_track_dense():
    # a generous novelty threshold keeps the admitted points well separated,
    # which keeps K well conditioned enough to compare against a dense solve
    rng = np.random.default_rng(3)
    config = GPSarsaConfig(nu=0.1, refresh_every=10_000)  # never refresh
    policy = GPSarsaPolicy(obs_dim=6, action_count=2, config=config)
    xs = rng.random((40, 6))
    for i, x in enumerate(xs):
        policy._ingest(x, i % 2, float(rng.normal()))
    # merge a few repeats on top
    for i in (0, 5, 8):
        policy._ingest(xs[i], i % 2, 1.0)
    for block in policy.blocks:
        assert 0 < block.n <= 6
        assert a_inverse_error(block, config) < 1e-6
        assert k_inverse_relative_error(block, config) < 1e-6


# ------------------------------------------------------------- dictionary


def test_novelty_gate_blocks_duplicates():
    policy = GPSarsaPolicy(obs_dim=3, action_count=1,
                           config=GPSarsaConfig(nu=0.001))
    x = np.array([0.2, 0.8, 0.0])
    policy._ingest(x, 0, 1.0)
    policy._ingest(x, 0, 2.0)
    assert policy.total_points == 1
    assert policy.blocks[0].counts[0] == 2.0


def test_budget_eviction_caps_points():
    rng = np.random.default_rng(4)
    config = GPSarsaConfig(nu=0.01, max_points=6)
    policy = GPSarsaPolicy(obs_dim=20, action_count=2, config=config)
    for _ in range(40):
        policy._ingest(rng.random(20), int(rng.integers(2)), float(rng.normal()))
    assert policy.total_points <= 6
    # merged mass is conserved
    total_count = sum(block.counts.sum() for block in policy.blocks)
    assert total_count == 40.0
    for block in policy.blocks:
        if block.n:
            assert a_inverse_error(block, config) < 1e-6


def test_cached_redundancy_never_goes_stale():
    # frequent refreshes, merges and evictions all reassign k_inv
    rng = np.random.default_rng(6)
    config = GPSarsaConfig(nu=0.01, max_points=8, refresh_every=7)
    policy = GPSarsaPolicy(obs_dim=12, action_count=3, config=config)
    centres = rng.random((10, 12))
    for _ in range(300):
        x = centres[int(rng.integers(10))] + 0.05 * rng.random(12)
        policy._ingest(x, int(rng.integers(3)), float(rng.normal()))
        for block in policy.blocks:
            if block.n:
                scores = 1.0 / np.maximum(np.diag(block.k_inv), 1e-12)
                i = int(np.argmin(scores))
                assert block.most_redundant() == (scores[i], i)
    assert policy.total_points == 8


def merging_run(monkeypatch, refresh_every):
    """Ingest 1000 random points of growing norm into three blocks under a
    40-point budget, so merges take the new point itself, an old point of
    its block and a point of another block.  Returns the policy, the
    merges of each kind with the ``np.linalg.inv`` calls, and each block's
    event counts at its refreshes."""
    log = {"inv": 0, "the new point": 0, "its block": 0, "another block": 0}
    refreshed = {}
    calls = []      # (method, block) of one ingest
    inv, refresh, ingest = np.linalg.inv, _Block._refresh, GPSarsaPolicy._ingest

    def counted_inv(m):
        log["inv"] += 1
        return inv(m)

    def logged_refresh(block):
        refreshed.setdefault(id(block), []).append(block._events)
        refresh(block)

    def logged(name):
        method = getattr(_Block, name)

        def call(block, *args):
            calls.append((name, block))
            return method(block, *args)
        return call

    def logged_ingest(policy, x, action, target):
        # a merge names its block; a point scored for a merge and never
        # added merged itself
        calls.clear()
        ingest(policy, x, action, target)
        merged = [block for name, block in calls if name == "merge_into_nearest"]
        names = {name for name, _ in calls}
        if merged:
            log["its block" if merged[0] is policy.blocks[action]
                else "another block"] += 1
        elif "most_redundant" in names and "add" not in names:
            log["the new point"] += 1

    monkeypatch.setattr(np.linalg, "inv", counted_inv)
    monkeypatch.setattr(_Block, "_refresh", logged_refresh)
    for name in ("add", "most_redundant", "merge_into_nearest"):
        monkeypatch.setattr(_Block, name, logged(name))
    monkeypatch.setattr(GPSarsaPolicy, "_ingest", logged_ingest)
    rng = np.random.default_rng(12)
    config = GPSarsaConfig(nu=0.01, max_points=40, refresh_every=refresh_every)
    policy = GPSarsaPolicy(obs_dim=30, action_count=3, config=config)
    for step in range(1000):
        x = rng.random(30) * (1.0 + step / 200)
        policy._ingest(x, int(rng.integers(3)), float(rng.normal()))
    assert policy.total_points == 40
    assert min(v for k, v in log.items() if k != "inv") >= 20, log
    return policy, log, [refreshed.get(id(b), []) for b in policy.blocks]


def test_merges_invert_nothing_between_refreshes(monkeypatch):
    """Merges downdate the kept inverses: with no refresh due, a run of
    merges of every kind makes no ``np.linalg.inv`` call at all."""
    policy, log, refreshes = merging_run(monkeypatch, refresh_every=10**6)
    assert max(block._events for block in policy.blocks) < 10**6
    assert refreshes == [[], [], []]
    assert log["inv"] == 0


def test_blocks_refresh_exactly_on_the_cadence(monkeypatch):
    """Every event counts, the add a self-merge skips included: a block
    refreshes when its event count reaches a multiple of refresh_every,
    and at no other event."""
    policy, log, refreshes = merging_run(monkeypatch, refresh_every=7)
    for block, events in zip(policy.blocks, refreshes):
        assert events == list(range(7, block._events + 1, 7))
    assert log["inv"] == 2 * sum(len(events) for events in refreshes)


def test_downdated_inverses_stay_close_without_refresh(monkeypatch):
    """Hundreds of merges with no refresh leave the kept inverses within a
    relative 1e-11 (A^-1) and 1e-10 (K^-1) of fresh ones, the bounds of
    tests/test_gpsarsa_reference.py; this run's worst are 2e-14 and 4e-16."""
    policy, log, _ = merging_run(monkeypatch, refresh_every=10**6)
    assert log["its block"] + log["another block"] >= 200, log
    config = policy.config
    for block in policy.blocks:
        assert a_inverse_error(block, config) <= 1e-11 * np.abs(block.a_inv).max()
        assert k_inverse_relative_error(block, config) <= 1e-10


def relative_drift(kept, m):
    """max|kept - fresh| / max|fresh|, fresh the dense inverse of m."""
    fresh = np.linalg.inv(m)
    return np.abs(kept - fresh).max() / np.abs(fresh).max()


def test_kept_inverses_drift_little_on_a_real_run():
    """The default learner on env3-CR, seed 0: its 1000-point budget
    fills at dialogue 221, so d200 measures bordered adds alone and d400
    and d600 a full dictionary under merges and cadence refreshes.  The
    run's worst are 1.1e-14 (A^-1) and 3.2e-6 (K^-1, at d200)."""
    env = DialogueEnv(make_task("env3-CR"))
    policy = make_policy("gpsarsa", belief_dim(env.ontology),
                         env.action_count, ontology=env.ontology,
                         init_rng=seed_stream(0, INIT_STREAM))
    rng = seed_stream(0, TRAIN_STREAM)
    config = policy.config
    for dialogue in range(600):
        run_episode(env, policy, rng, dialogue_index=dialogue, training=True)
        if dialogue + 1 not in (200, 400, 600):
            continue
        # the budget is full at d400 and d600 only
        assert (policy.total_points == config.max_points) == (dialogue > 200)
        for block in policy.blocks:
            if not block.n:
                continue
            g = block.x @ block.x.T
            a = g + config.sigma2 * np.diag(1.0 / block.counts)
            k = g + config.jitter * np.eye(block.n)
            assert relative_drift(block.a_inv, a) <= 1e-12
            assert relative_drift(block.k_inv, k) <= 1e-5


@pytest.mark.parametrize("event", ["add", "refresh", "merge_into_nearest"])
def test_redundancy_cache_drops_a_replaced_k_inv(event):
    """most_redundant keeps its answer for one K^-1; once K^-1 is
    replaced, nothing keeps the old one alive."""
    rng = np.random.default_rng(10)
    block = _Block(6, GPSarsaConfig())
    for _ in range(5):
        block.add(rng.random(6), float(rng.normal()))
    block.most_redundant()
    old = weakref.ref(block.k_inv)
    x = rng.random(6)
    {"add": lambda: block.add(x, 1.0),
     "refresh": block._refresh,
     "merge_into_nearest": lambda: block.merge_into_nearest(2)}[event]()
    gc.collect()
    assert old() is None
    scores = 1.0 / np.maximum(np.diag(block.k_inv), 1e-12)
    assert block.most_redundant() == (scores.min(), int(np.argmin(scores)))


# ------------------------------------------------------------- sarsa wiring


def test_pending_transition_bootstraps_on_next_action():
    config = GPSarsaConfig(nu=1e-9)
    policy = GPSarsaPolicy(obs_dim=2, action_count=2, config=config)
    s0, s1 = np.array([1.0, 0.0]), np.array([0.0, 1.0])
    # seed block 1 so the bootstrap term is nonzero
    policy._ingest(s1, 1, 4.0)
    boot, _ = q_posterior(policy, s1, 1)
    assert boot != 0.0
    policy.observe(transition(s0, 0, -1.0, s1, False, 2), np.random.default_rng(0))
    assert policy.blocks[0].n == 0  # held until the next action is known
    policy.observe(transition(s1, 1, 19.0, s1, True, 2), np.random.default_rng(0))
    assert policy.blocks[0].n == 1
    assert policy.blocks[0].ysum[0] == pytest.approx(-1.0 + config.gamma * boot)
    # the terminal transition regresses on the raw reward
    assert policy.blocks[1].ysum.sum() == pytest.approx(4.0 + 19.0)


def test_end_dialogue_flushes_pending_without_bootstrap():
    policy = GPSarsaPolicy(obs_dim=2, action_count=1,
                           config=GPSarsaConfig(nu=1e-9))
    s = np.array([1.0, 0.0])
    policy.observe(transition(s, 0, -3.0, s, False, 1), np.random.default_rng(0))
    policy.end_dialogue(np.random.default_rng(0))
    assert policy.blocks[0].n == 1
    assert policy.blocks[0].ysum[0] == -3.0
    assert policy._pending is None


def test_untrained_greedy_tie_breaks_low():
    policy = GPSarsaPolicy(obs_dim=3, action_count=4)
    mask = np.array([False, True, True, True])
    a = policy.act(np.ones(3), mask, np.random.default_rng(0))
    assert a == 1


def test_exploration_varies_actions():
    policy = GPSarsaPolicy(obs_dim=3, action_count=3)
    rng = np.random.default_rng(5)
    mask = np.ones(3, dtype=bool)
    policy.begin_dialogue(0, training=True)
    seen = {policy.act(np.ones(3), mask, rng) for _ in range(60)}
    assert len(seen) > 1


def test_chain_mdp_learns_greedy_advance():
    # two-state chain: advance pays -1 then +10, stay pays -1 forever
    config = GPSarsaConfig(nu=1e-6)
    policy = GPSarsaPolicy(obs_dim=2, action_count=2, config=config)
    s0, s1 = np.array([1.0, 0.0]), np.array([0.0, 1.0])
    rng = np.random.default_rng(6)
    ADV, STAY = 0, 1
    mask = np.ones(2, dtype=bool)
    for episode in range(150):
        policy.begin_dialogue(episode, training=True)
        state, name = s0, 0
        for _step in range(12):
            a = policy.act(state, mask, rng)
            if a == ADV:
                if name == 0:
                    policy.observe(transition(s0, a, -1.0, s1, False, 2), rng)
                    state, name = s1, 1
                else:
                    policy.observe(transition(s1, a, 10.0, s1, True, 2), rng)
                    break
            else:
                policy.observe(transition(state, a, -1.0, state, False, 2), rng)
        policy.end_dialogue(rng)
    policy.begin_dialogue(0, training=False)
    assert policy.act(s0, mask, rng) == ADV
    assert policy.act(s1, mask, rng) == ADV
    q_adv, _ = q_posterior(policy, s1, ADV)
    q_stay, _ = q_posterior(policy, s1, STAY)
    assert q_adv > q_stay
    assert q_adv > 5.0  # shrunk toward the prior but clearly positive


# ------------------------------------------------------------- persistence


def test_save_load_round_trip(tmp_path):
    rng = np.random.default_rng(7)
    config = GPSarsaConfig(nu=1e-6, sigma2=9.0, max_points=77)
    policy = GPSarsaPolicy(obs_dim=5, action_count=3, config=config)
    for _ in range(25):
        policy._ingest(rng.random(5), int(rng.integers(3)), float(rng.normal()))
    path = tmp_path / "gp.npz"
    policy.save(path)
    restored = load_policy(path)
    assert restored.config == config
    assert restored.total_points == policy.total_points
    probe = rng.random(5)
    for a in range(3):
        assert q_posterior(restored, probe, a) == pytest.approx(
            q_posterior(policy, probe, a), abs=1e-9
        )


# ------------------------------------------------------------- pinned bytes

# SHA-256 of the checkpoint that 100 training dialogues of GP-SARSA on
# env3-CR, run seed 0, leave behind with a 120-point budget and a refresh
# every 7 events per block: 618 of the 628 ingests are novel, so 498
# budget merges run.  Recorded with numpy 2.4 and its bundled OpenBLAS
# 0.3.31 on an x86-64 Xeon.
PINNED_GPSARSA_CHECKPOINT = (
    "42509a178860d41cb92e2ddd55dd08ed82c938d967c8b4497af6fffc203ab7bb")

PINNED_RUN = """
import sys
from pathlib import Path
from dialbench.harness import RunSpec, run_training
from dialbench.policies import GPSarsaPolicy

novel = []
ingest = GPSarsaPolicy._ingest


def counted(self, observation, action, target):
    block = self.blocks[action]
    novel.append(block.n == 0 or block.novelty(observation) > self.config.nu)
    ingest(self, observation, action, target)


GPSarsaPolicy._ingest = counted
run_training(RunSpec("env3-CR", "gpsarsa", seeds=(0,), train_dialogues=100,
                     eval_points=(100,), test_dialogues=2,
                     out_dir=Path(sys.argv[1])),
             policy_overrides={"max_points": 120, "refresh_every": 7})
print(sum(novel), len(novel))
"""


def test_gpsarsa_checkpoint_bytes_are_pinned(tmp_path):
    """Any change to the floating-point operations of the dictionary upkeep
    (adds, reinforcements, budget merges, refreshes) or to the exploration
    draws changes these bytes.  The run gets its own process with one BLAS
    thread, as the pinned DQN run does."""
    env = dict(os.environ, PYTHONPATH=str(Path(dialbench.__file__).parents[1]),
               OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               MKL_NUM_THREADS="1")
    done = subprocess.run([sys.executable, "-c", PINNED_RUN, str(tmp_path)],
                          env=env, capture_output=True, text=True,
                          timeout=60, check=True)
    assert done.stdout.split()[-2:] == ["618", "628"]
    path = tmp_path / "checkpoints" / "env3-CR" / "gpsarsa" / "seed0-d100.npz"
    assert hashlib.sha256(path.read_bytes()).hexdigest() == \
        PINNED_GPSARSA_CHECKPOINT


def test_restore_does_not_reuse_the_kept_gram_matrix():
    """A rebuild keeps the Gram matrix and K^-1 of the block's points for
    the next rebuild of the same points; restored points are new points."""
    rng = np.random.default_rng(8)
    config = GPSarsaConfig(nu=1e-6)
    policy, donor = (GPSarsaPolicy(obs_dim=6, action_count=2, config=config)
                     for _ in range(2))
    for i in range(8):
        policy._ingest(rng.random(6), i % 2, float(rng.normal()))
        donor._ingest(rng.random(6), i % 2, float(rng.normal()))
    for block in policy.blocks:
        block._refresh()
    policy.restore_arrays(donor.state_arrays())
    for block, other in zip(policy.blocks, donor.blocks):
        assert np.array_equal(block.x, other.x)
        dense = np.linalg.inv(block.x @ block.x.T + config.jitter * np.eye(block.n))
        assert block.k_inv.tobytes() == dense.tobytes()


def _saved_with(tmp_path, name, change):
    """Path of a four-point GP-SARSA checkpoint whose array ``name`` went
    through ``change``."""
    policy = GPSarsaPolicy(obs_dim=3, action_count=2)
    rng = np.random.default_rng(3)
    for _ in range(4):
        policy._ingest(rng.random(3), 0, 1.0)
    arrays = policy.state_arrays()
    arrays[name] = change(arrays[name])
    path = tmp_path / "gp.npz"
    save_checkpoint(path, "gpsarsa", {"obs_dim": 3, "action_count": 2,
                                      "config": {}, "domain": None}, arrays)
    return path


@pytest.mark.parametrize("name, cut", [("x_0", np.s_[:, :2]),
                                       ("x_0", np.s_[0]),
                                       ("counts_0", np.s_[:-1])])
def test_load_refuses_points_that_do_not_fit(tmp_path, name, cut):
    path = _saved_with(tmp_path, name, lambda array: array[cut])
    with pytest.raises(CheckpointError, match="block 0 has points"):
        load_policy(path)


@pytest.mark.parametrize("count", [0.0, -1.0, np.nan])
def test_load_refuses_counts_below_one(tmp_path, count):
    # every point the learner adds counts at least once; a smaller count
    # would divide by zero or below in the posterior
    path = _saved_with(tmp_path, "counts_0",
                       lambda array: np.full_like(array, count))
    with pytest.raises(CheckpointError, match="block 0 has a count below 1"):
        load_policy(path)


def test_load_rejects_foreign_checkpoint(tmp_path):
    path = tmp_path / "other.npz"
    save_checkpoint(path, "dqn", {"obs_dim": 2}, {"w": np.zeros(2)})
    with pytest.raises(ValueError):
        load_policy(path)
