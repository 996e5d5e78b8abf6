"""eNAC on a linear-output net against the softmax head it replaced.

The reference functions below are the softmax-head ``forward_cache``,
``masked_softmax`` and ``grad_log_prob`` that eNAC ran before it applied
``masked_softmax`` to the net's outputs itself.  The arithmetic is the
same, so probabilities, actions, accumulated scores and the stream state
must be equal, not close.
"""

import numpy as np
import pytest

from dialbench.policies import ENACConfig, ENACPolicy
from dialbench.policies.base import masked_argmax, uniform_legal
from dialbench.rl_core import forward_cache, masked_softmax

OBS_DIM, ACTIONS, TURNS = 12, 9, 6

# ------------------------------------------------------------ references


def ref_masked_softmax(z, mask):
    z = np.atleast_2d(z)
    if mask is None:
        legal = np.ones(z.shape, dtype=bool)
    else:
        legal = np.atleast_2d(mask).astype(bool)
        if legal.shape[0] == 1 and z.shape[0] > 1:
            legal = np.broadcast_to(legal, z.shape)
    shifted = np.where(legal, z, -np.inf)
    shifted = shifted - shifted.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    e = np.where(legal, e, 0.0)
    return e / e.sum(axis=1, keepdims=True)


def ref_forward_cache(net, x, mask):
    """Softmax head: ``out`` holds the masked probabilities."""
    x = np.asarray(x, dtype=np.float64)
    squeeze = x.ndim == 1
    xb = np.ascontiguousarray(np.atleast_2d(x))
    h1 = np.maximum(xb @ net.w1 + net.b1, 0.0)
    h2 = np.maximum(h1 @ net.w2 + net.b2, 0.0)
    z = h2 @ net.w3 + net.b3
    out = ref_masked_softmax(z, mask)
    if squeeze:
        out = out[0]
    return {"x": xb, "h1": h1, "h2": h2, "out": out, "mask": mask}


def ref_net2_backward(net, x, h1, h2, g_out):
    grad = np.empty_like(net.theta)
    g_w1, g_b1, g_w2, g_b2, g_w3, g_b3 = net.split(grad)
    np.matmul(h2.T, g_out, out=g_w3)
    g_out.sum(axis=0, out=g_b3)
    g_h2 = np.where(h2 > 0.0, g_out @ net.w3.T, 0.0)
    np.matmul(h1.T, g_h2, out=g_w2)
    g_h2.sum(axis=0, out=g_b2)
    g_h1 = np.where(h1 > 0.0, g_h2 @ net.w2.T, 0.0)
    np.matmul(x.T, g_h1, out=g_w1)
    g_h1.sum(axis=0, out=g_b1)
    return grad


def ref_grad_log_prob(net, cache, action):
    p = np.atleast_2d(cache["out"])
    g_z = -p.copy()
    g_z[0, action] += 1.0
    if cache["mask"] is not None:
        g_z[0, ~np.atleast_2d(cache["mask"])[0].astype(bool)] = 0.0
    g_z = np.ascontiguousarray(g_z)
    return ref_net2_backward(net, cache["x"], cache["h1"], cache["h2"], g_z)


def ref_act(policy, phi, observation, mask, rng):
    """eNAC's ``act`` over the softmax head; returns (action, p)."""
    cache = ref_forward_cache(policy.net, observation, mask)
    p = np.atleast_2d(cache["out"])[0]
    if not policy.training:
        return masked_argmax(p, mask), p
    if rng.random() < policy.epsilon:
        action = uniform_legal(mask, rng)
    else:
        action = int(rng.choice(policy.action_count, p=p / p.sum()))
    phi += ref_grad_log_prob(policy.net, cache, action)
    return action, p


# ------------------------------------------------------------ equivalence


def random_mask(data):
    mask = data.random(ACTIONS) < 0.6
    mask[int(data.integers(ACTIONS))] = True
    return mask


@pytest.mark.parametrize("block", range(4))
def test_enac_act_matches_softmax_head(block):
    for seed in range(50 * block, 50 * block + 50):
        data = np.random.default_rng(seed)
        policy = ENACPolicy(OBS_DIM, ACTIONS, ENACConfig(hidden1=16, hidden2=8),
                            init_rng=np.random.default_rng(seed))
        # large weights drive logits far apart, so some probabilities
        # underflow to zero or round to one
        scale = (0.3, 1.0, 5.0, 20.0)[seed % 4]
        policy.net.theta[:] = data.normal(size=policy.net.theta.size) * scale
        for training in (True, False):
            policy.begin_dialogue(seed, training=training)
            phi = np.zeros(policy.param_count)
            rng, ref_rng = (np.random.default_rng(10_000 + seed)
                            for _ in range(2))
            for _ in range(TURNS):
                obs = data.normal(size=OBS_DIM)
                mask = random_mask(data)
                action = policy.act(obs, mask, rng)
                ref_action, ref_p = ref_act(policy, phi, obs, mask, ref_rng)
                p = masked_softmax(forward_cache(policy.net, obs).z, mask)[0]
                assert p.tobytes() == ref_p.tobytes()
                assert action == ref_action
                assert policy._phi.tobytes() == phi.tobytes()
                assert rng.bit_generator.state == ref_rng.bit_generator.state


def test_greedy_reads_probabilities_not_logits():
    # logits 1e-17 apart round to equal probabilities; the softmax head
    # broke that tie toward the lower index, and so must eNAC
    policy = ENACPolicy(OBS_DIM, ACTIONS, ENACConfig(hidden1=16, hidden2=8))
    policy.net.w3[:] = 0.0
    policy.net.b3[:] = 0.0
    policy.net.b3[1] = 1e-17
    policy.begin_dialogue(0, training=False)
    obs = np.ones(OBS_DIM)
    mask = np.ones(ACTIONS, dtype=bool)
    rng = np.random.default_rng(0)
    ref_action, _ = ref_act(policy, None, obs, mask, rng)
    assert int(np.argmax(forward_cache(policy.net, obs).z[0])) == 1
    assert policy.act(obs, mask, rng) == ref_action == 0
