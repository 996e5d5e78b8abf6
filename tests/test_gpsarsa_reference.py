"""GP-SARSA's dictionary upkeep and acting against the code they replaced.

The ``ref_`` functions below are the dictionary block, ``_ingest``,
``_enforce_budget`` and ``act`` as they were when every novel point was
added with its bordered updates before the budget merge was chosen, every
budget merge rebuilt its block by inverting both G + sigma2 * diag(1 / n)
and G + jitter * I, and acting made one ``posterior`` call and one
``standard_normal()`` per legal action.  The policy now picks the merge
before the add, skips the add when the merge takes the new point itself,
downdates both inverses when a merge removes a point and absorbs the raised
count with Sherman-Morrison, and draws the exploration noise in one call.

What is exact and what is close:

* Until a block's first merge, the two sides make the same floating-point
  operations, so every array of the block is bit-equal.
* The points, counts, target sums, event counts, the number of points, the
  merge chosen at every ingest, the ``most_redundant`` index, the chosen
  actions and the stream states stay bit-equal throughout.  None of them
  reads an inverse except through a comparison (novelty against nu, scores
  against each other, sampled values against each other), and no such
  comparison falls within the drift below.  The targets here are given, so
  the sums are exact; in training the SARSA bootstrap reads ``w``, and
  the sums' low bits move with it.
* After a merge, a downdated inverse differs from a fresh one by rounding:
  ``a_inv``, ``w`` and greedy means within ``A_RTOL`` of the reference,
  ``k_inv`` and redundancy scores within ``K_RTOL``, each relative to the
  reference's largest entry.  K = G + jitter * I is far worse conditioned
  than A, whose diagonal holds sigma2 / n, so its bound is wider.  The
  worst errors over the 200 seeds below were 6.5e-13 (means) and 7.6e-12
  (``k_inv``); each bound leaves a margin above that.
"""

import numpy as np
import pytest

from dialbench.policies.gpsarsa import GPSarsaConfig, GPSarsaPolicy

# ------------------------------------------------------------ references


def ref_bordered_inverse(m_inv, k, c):
    n = m_inv.shape[0]
    out = np.empty((n + 1, n + 1))
    if n == 0:
        out[0, 0] = 1.0 / c
        return out
    u = m_inv @ k
    s = max(c - float(k @ u), 1e-12)
    out[:n, :n] = m_inv + np.outer(u, u) / s
    out[:n, n] = -u / s
    out[n, :n] = -u / s
    out[n, n] = 1.0 / s
    return out


class RefBlock:
    def __init__(self, dim, config):
        self.config = config
        self.x = np.zeros((0, dim))
        self.ysum = np.zeros(0)
        self.counts = np.zeros(0)
        self.a_inv = np.zeros((0, 0))
        self.k_inv = np.zeros((0, 0))
        self.w = np.zeros(0)
        self._events = 0

    @property
    def n(self):
        return self.x.shape[0]

    @property
    def k_inv(self):
        return self._k_inv

    @k_inv.setter
    def k_inv(self, value):
        self._k_inv = value
        self._most_redundant = None

    def _refresh(self):
        if self.n == 0:
            self.a_inv = np.zeros((0, 0))
            self.k_inv = np.zeros((0, 0))
            self.w = np.zeros(0)
            return
        g = self.x @ self.x.T
        self.a_inv = np.linalg.inv(g + self.config.sigma2 * np.diag(1.0 / self.counts))
        self.k_inv = np.linalg.inv(g + self.config.jitter * np.eye(self.n))
        self._recompute_w()

    def _recompute_w(self):
        self.w = self.a_inv @ (self.ysum / self.counts) if self.n else np.zeros(0)

    def _tick(self):
        self._events += 1
        if self._events % self.config.refresh_every == 0:
            self._refresh()

    def posterior(self, x, k_self):
        if self.n == 0:
            return 0.0, k_self
        k = self.x @ x
        mean = float(k @ self.w)
        var = k_self - float(k @ (self.a_inv @ k))
        return mean, max(var, 0.0)

    def novelty(self, x):
        k_self = float(x @ x) + self.config.jitter
        if self.n == 0:
            return k_self
        k = self.x @ x
        return k_self - float(k @ (self.k_inv @ k))

    def nearest(self, x):
        k = self.x @ x
        norms = np.sqrt(np.einsum("ij,ij->i", self.x, self.x) * float(x @ x))
        return int(np.argmax(k / np.maximum(norms, 1e-12)))

    def add(self, x, y):
        k = self.x @ x
        k_self = float(x @ x)
        self.a_inv = ref_bordered_inverse(self.a_inv, k, k_self + self.config.sigma2)
        self.k_inv = ref_bordered_inverse(self.k_inv, k, k_self + self.config.jitter)
        self.x = np.vstack([self.x, x])
        self.ysum = np.append(self.ysum, y)
        self.counts = np.append(self.counts, 1.0)
        self._recompute_w()
        self._tick()

    def reinforce(self, i, y):
        n_i = self.counts[i]
        delta = self.config.sigma2 * (1.0 / (n_i + 1.0) - 1.0 / n_i)
        col = self.a_inv[:, i].copy()
        denom = 1.0 + delta * self.a_inv[i, i]
        if abs(denom) < 1e-12:
            self.counts[i] += 1.0
            self.ysum[i] += y
            self._refresh()
            return
        self.a_inv = self.a_inv - (delta / denom) * np.outer(col, self.a_inv[i, :])
        self.counts[i] += 1.0
        self.ysum[i] += y
        self._recompute_w()
        self._tick()

    def merge_into_nearest(self, i):
        x_i, ysum_i, count_i = self.x[i], self.ysum[i], self.counts[i]
        keep = np.arange(self.n) != i
        self.x = self.x[keep]
        self.ysum = self.ysum[keep]
        self.counts = self.counts[keep]
        j = self.nearest(x_i)
        self.ysum[j] += ysum_i
        self.counts[j] += count_i
        self._events += 1
        self._refresh()

    def most_redundant(self):
        if self._most_redundant is None:
            scores = 1.0 / np.maximum(np.diag(self.k_inv), 1e-12)
            i = int(np.argmin(scores))
            self._most_redundant = (float(scores[i]), i)
        return self._most_redundant


class RefPolicy:
    def __init__(self, obs_dim, action_count, config):
        self.config = config
        self.action_count = action_count
        self.blocks = [RefBlock(obs_dim, config) for _ in range(action_count)]
        # (action added to, merged block, index, its size, its events)
        self.merges = []

    @property
    def total_points(self):
        return sum(block.n for block in self.blocks)


def ref_ingest(policy, observation, action, target):
    x = np.asarray(observation, dtype=float)
    block = policy.blocks[action]
    if block.n == 0 or block.novelty(x) > policy.config.nu:
        block.add(x, target)
        ref_enforce_budget(policy, action)
    else:
        block.reinforce(block.nearest(x), target)


def ref_enforce_budget(policy, action):
    while policy.total_points > policy.config.max_points:
        best = None
        for a, block in enumerate(policy.blocks):
            if block.n < 2:
                continue
            score, i = block.most_redundant()
            if best is None or score < best[0]:
                best = (score, a, i)
        if best is None:
            return
        _, a, i = best
        policy.merges.append((action, a, i, policy.blocks[a].n,
                              policy.blocks[a]._events))
        policy.blocks[a].merge_into_nearest(i)


def ref_act(policy, observation, mask, rng, training):
    x = np.asarray(observation, dtype=float)
    k_self = float(x @ x)
    scores = np.full(policy.action_count, -np.inf)
    for a in range(policy.action_count):
        if not mask[a]:
            continue
        mean, var = policy.blocks[a].posterior(x, k_self)
        if not training:
            scores[a] = mean
        else:
            scores[a] = mean + policy.config.scale * np.sqrt(var) * rng.standard_normal()
    return int(np.argmax(np.where(mask, scores, -np.inf)))


# ------------------------------------------------------------ comparison


def same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


A_RTOL = 1e-11
K_RTOL = 1e-10


def relative_error(a, b):
    """Largest entry of |a - b| over the largest entry of |b|."""
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    assert a.shape == b.shape
    if same_bits(a, b):
        return 0.0
    return float(np.abs(a - b).max() / np.abs(b).max())


def merged_blocks(ref):
    return {merge[1] for merge in ref.merges}


def assert_same_state(policy, ref):
    assert policy.total_points == ref.total_points
    merged = merged_blocks(ref)
    for a, (block, ref_block) in enumerate(zip(policy.blocks, ref.blocks)):
        for name in ("x", "ysum", "counts"):
            assert same_bits(getattr(block, name), getattr(ref_block, name)), name
        assert block._events == ref_block._events
        for name, rtol in (("a_inv", A_RTOL), ("w", A_RTOL), ("k_inv", K_RTOL)):
            mine, theirs = getattr(block, name), getattr(ref_block, name)
            if a in merged:
                assert relative_error(mine, theirs) <= rtol, name
            else:
                assert same_bits(mine, theirs), name
        if block.n:
            (score, i), (ref_score, ref_i) = (block.most_redundant(),
                                              ref_block.most_redundant())
            assert i == ref_i
            assert relative_error(score, ref_score) <= K_RTOL


def run_seed(seed):
    """Feed one policy and one reference the same ingests and acts; return
    the reference's merge log."""
    rng = np.random.default_rng(seed)
    dim = int(rng.integers(4, 13))
    actions = int(rng.integers(2, 6))
    config = GPSarsaConfig(nu=float(rng.choice([1e-3, 1e-2, 5e-2])),
                           max_points=int(rng.integers(2, 16)),
                           refresh_every=int(rng.integers(5, 8)),
                           sigma2=float(rng.choice([1.0, 25.0])))
    policy = GPSarsaPolicy(dim, actions, config)
    ref = RefPolicy(dim, actions, config)
    centres = rng.random((int(rng.integers(3, 12)), dim))
    probe_rng = np.random.default_rng(seed + 10_000)
    for step in range(120):
        x = centres[int(rng.integers(len(centres)))]
        if rng.random() < 0.7:
            x = x + rng.choice([1e-3, 0.05, 0.3]) * rng.standard_normal(dim)
        action = int(rng.integers(actions))
        target = float(rng.normal(0.0, 5.0))
        policy._ingest(x, action, target)
        ref_ingest(ref, x, action, target)
        assert_same_state(policy, ref)
        if step % 3:
            continue
        mask = rng.random(actions) < 0.7
        mask[int(rng.integers(actions))] = True
        probe = probe_rng.random(dim)
        for training in (True, False):
            policy.begin_dialogue(step, training=training)
            mine, theirs = (np.random.default_rng(seed * 1000 + step)
                            for _ in range(2))
            assert (policy.act(probe, mask, mine)
                    == ref_act(ref, probe, mask, theirs, training))
            assert mine.bit_generator.state == theirs.bit_generator.state
        merged = merged_blocks(ref)
        for a in range(actions):
            mine = policy.blocks[a].mean(probe)
            mean = ref.blocks[a].posterior(probe, float(probe @ probe))[0]
            if a in merged:
                assert relative_error(mine, mean) <= A_RTOL
            else:
                assert same_bits(mine, mean)
    return ref.merges, config.refresh_every


def test_upkeep_and_acting_match_the_reference():
    merges = {"the new point": 0, "an old point of its block": 0,
              "another block": 0, "after a cadence refresh": 0}
    for seed in range(200):
        log, refresh_every = run_seed(seed)
        for action, a, i, n, events in log:
            if a != action:
                merges["another block"] += 1
            elif i == n - 1:
                merges["the new point"] += 1
            else:
                merges["an old point of its block"] += 1
            if a == action and events % refresh_every == 0:
                merges["after a cadence refresh"] += 1
    # every branch of the merge-first decision ran, many times
    assert min(merges.values()) >= 50, merges


@pytest.mark.parametrize("seed", [0, 1])
def test_reference_runs_overflow_with_small_blocks(seed):
    """A budget below the action count leaves blocks of one point, which no
    merge may take; both sides must agree there too."""
    rng = np.random.default_rng(seed)
    config = GPSarsaConfig(nu=1e-2, max_points=2, refresh_every=5)
    policy = GPSarsaPolicy(6, 5, config)
    ref = RefPolicy(6, 5, config)
    for _ in range(60):
        x, action, target = rng.random(6), int(rng.integers(5)), float(rng.normal())
        policy._ingest(x, action, target)
        ref_ingest(ref, x, action, target)
        assert_same_state(policy, ref)
    assert ref.total_points > config.max_points


@pytest.mark.parametrize("order", [(1, 1, 0, 0), (0, 0, 1, 1)])
def test_score_ties_go_to_the_first_block(order):
    """Two blocks that hold the same two points score the same; the merge
    falls on the first, whether it is the block just added to or not."""
    rng = np.random.default_rng(9)
    x1, x2 = rng.random(5), rng.random(5)
    config = GPSarsaConfig(nu=1e-6, max_points=3)
    policy = GPSarsaPolicy(5, 2, config)
    ref = RefPolicy(5, 2, config)
    for x, action in zip((x1, x2, x1, x2), order):
        policy._ingest(x, action, 1.0)
        ref_ingest(ref, x, action, 1.0)
        assert_same_state(policy, ref)
    assert [merge[1] for merge in ref.merges] == [0]
