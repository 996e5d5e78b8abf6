"""Net, backprop and Adam plumbing shared by the learners."""

import numpy as np

from dialbench.policies import DQNConfig, DQNPolicy
from dialbench.rl_core import (
    adam_init,
    adam_step,
    backward,
    forward,
    forward_cache,
    grad_log_prob,
    init_net,
    masked_softmax,
)


def fd_grads(loss_fn, params, h=1e-6):
    """Central finite differences over every parameter entry, in place."""
    grads = []
    for p in params:
        g = np.zeros_like(p)
        flat, gf = p.reshape(-1), g.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + h
            up = loss_fn()
            flat[i] = orig - h
            gf[i] = (up - loss_fn()) / (2 * h)
            flat[i] = orig
        grads.append(g)
    return grads


def small_net(seed=0, in_dim=6, out_dim=4):
    rng = np.random.default_rng(seed)
    net = init_net(in_dim, 5, 4, out_dim, rng)
    # zero biases put dead units exactly on the rectifier kink, which
    # breaks finite differences; nudge them off it
    net.b1[:] = rng.normal(size=net.b1.shape) * 0.3
    net.b2[:] = rng.normal(size=net.b2.shape) * 0.3
    return net


def assert_fd_safe(net, x):
    """No pre-activation may sit within the finite-difference step of 0."""
    xb = np.atleast_2d(x)
    z1 = xb @ net.w1 + net.b1
    z2 = np.maximum(z1, 0.0) @ net.w2 + net.b2
    assert min(np.abs(z1).min(), np.abs(z2).min()) > 1e-4


def assert_grads_close(analytic, numeric):
    for a, n in zip(analytic, numeric):
        assert np.allclose(a, n, rtol=1e-4, atol=1e-6)


# ---------------------------------------------------------------- gradients


def test_backward_linear_head_matches_fd():
    net = small_net()
    rng = np.random.default_rng(1)
    x = rng.normal(size=6)
    c = rng.normal(size=4)

    def loss():
        return float(np.dot(c, forward(net, x)))

    assert_fd_safe(net, x)
    cache = forward_cache(net, x)
    assert_grads_close(net.split(backward(net, cache, c)),
                       fd_grads(loss, net.params()))


def test_backward_batched_matches_fd():
    net = small_net()
    rng = np.random.default_rng(3)
    x = rng.normal(size=(3, 6))
    c = rng.normal(size=(3, 4))

    def loss():
        return float((c * forward(net, x)).sum())

    assert_fd_safe(net, x)
    cache = forward_cache(net, x)
    assert_grads_close(net.split(backward(net, cache, c)),
                       fd_grads(loss, net.params()))


def test_grad_log_prob_matches_fd():
    net = small_net()
    rng = np.random.default_rng(4)
    x = rng.normal(size=6)
    mask = np.array([True, False, True, True])
    action = 2

    def loss():
        return float(np.log(masked_softmax(forward(net, x), mask)[0, action]))

    assert_fd_safe(net, x)
    cache = forward_cache(net, x)
    probs = masked_softmax(cache.z, mask)
    assert_grads_close(net.split(grad_log_prob(net, cache, probs, mask,
                                               action)),
                       fd_grads(loss, net.params()))


def test_masked_logits_get_zero_gradient():
    net = small_net()
    x = np.random.default_rng(5).normal(size=6)
    mask = np.array([True, True, False, True])
    cache = forward_cache(net, x)
    probs = masked_softmax(cache.z, mask)
    grads = net.split(grad_log_prob(net, cache, probs, mask, 0))
    g_w3, g_b3 = grads[4], grads[5]
    assert np.all(g_w3[:, 2] == 0.0)
    assert g_b3[2] == 0.0


# ---------------------------------------------------------------- softmax


def test_masked_softmax_rows_sum_to_one():
    rng = np.random.default_rng(6)
    z = rng.normal(size=(5, 7))
    mask = rng.random((5, 7)) > 0.3
    mask[:, 0] = True  # keep every row feasible
    p = masked_softmax(z, mask)
    assert np.allclose(p.sum(axis=1), 1.0)
    assert np.all(p[~mask] == 0.0)
    assert np.all(p >= 0.0)


def test_masked_softmax_shift_invariant():
    z = np.array([1.0, -2.0, 0.5, 3.0])
    mask = np.array([True, True, True, False])
    assert np.allclose(masked_softmax(z, mask), masked_softmax(z + 123.0, mask))


def test_masked_softmax_no_mask_is_plain_softmax():
    z = np.array([0.2, 1.4, -0.7])
    e = np.exp(z - z.max())
    assert np.allclose(masked_softmax(z, np.ones(3, dtype=bool))[0],
                       e / e.sum())


def test_masked_softmax_single_legal_action():
    p = masked_softmax(np.array([-50.0, 2.0, 7.0]),
                       np.array([True, False, False]))
    assert p[0, 0] == 1.0


def test_masked_softmax_broadcasts_single_mask_row():
    z = np.random.default_rng(7).normal(size=(4, 3))
    p = masked_softmax(z, np.array([True, False, True]))
    assert p.shape == (4, 3)
    assert np.all(p[:, 1] == 0.0)
    assert np.allclose(p.sum(axis=1), 1.0)


def reference_forward_backward(net, x, grad_out):
    """Outputs and flat gradient with a fresh array per operation: the
    reference for the path that reuses a cache and an ``out`` vector."""
    xb = np.atleast_2d(x)
    h1 = np.maximum(xb @ net.w1 + net.b1, 0.0)
    h2 = np.maximum(h1 @ net.w2 + net.b2, 0.0)
    z = h2 @ net.w3 + net.b3
    g_z = np.atleast_2d(grad_out)
    g_h2 = np.where(h2 > 0.0, g_z @ net.w3.T, 0.0)
    g_h1 = np.where(h1 > 0.0, g_h2 @ net.w2.T, 0.0)
    grads = (xb.T @ g_h1, g_h1.sum(axis=0), h1.T @ g_h2, g_h2.sum(axis=0),
             h2.T @ g_z, g_z.sum(axis=0))
    return z, np.concatenate([g.ravel() for g in grads])


def test_reused_cache_and_out_give_the_bytes_of_fresh_calls():
    net = small_net()
    rng = np.random.default_rng(16)
    for x in (rng.normal(size=(5, 6)), rng.normal(size=6)):
        g_out = rng.normal(size=np.shape(forward(net, x)))
        cache = forward_cache(net, rng.normal(size=np.shape(x)))
        backward(net, cache, g_out)          # leaves other gradients inside
        out = np.full_like(net.theta, np.nan)
        reused = forward_cache(net, x, cache)
        assert reused is cache
        assert backward(net, reused, g_out, out=out) is out

        fresh = forward_cache(net, x)
        fresh_grad = backward(net, fresh, g_out)
        ref_z, ref_grad = reference_forward_backward(net, x, g_out)
        assert reused.out.shape == fresh.out.shape == np.shape(x)[:-1] + (4,)
        for name in ("x", "h1", "h2", "z", "out", "g_h1", "g_h2"):
            assert (getattr(reused, name).tobytes()
                    == getattr(fresh, name).tobytes()), name
        assert reused.z.tobytes() == ref_z.tobytes()
        assert out.tobytes() == fresh_grad.tobytes() == ref_grad.tobytes()


def test_cache_that_does_not_fit_is_replaced_not_written():
    net = small_net()
    three = forward_cache(net, np.ones((3, 6)))
    kept = [a.copy() for a in (three.h1, three.h2, three.z)]
    two = forward_cache(net, np.zeros((2, 6)), three)
    assert two is not three and two.z.shape == (2, 4)
    for got, want in zip((three.h1, three.h2, three.z), kept):
        assert np.array_equal(got, want)
    # the same row count from a net of other widths does not fit either
    wide = forward_cache(init_net(6, 7, 4, 4, np.random.default_rng(0)),
                         np.ones((3, 6)))
    assert forward_cache(net, np.ones((3, 6)), wide) is not wide


def test_forward_squeezes_single_observation():
    net = small_net()
    out1 = forward(net, np.zeros(6))
    out2 = forward(net, np.zeros((2, 6)))
    assert out1.shape == (4,)
    assert out2.shape == (2, 4)


# ---------------------------------------------------------------- adam


def test_adam_first_step_closed_form():
    lr = 0.01
    p = np.array([1.0, -2.0, 3.0, 0.5])
    g = np.array([0.5, -0.25, 0.0, 4.0])
    theta = p.copy()
    state = adam_init(theta, lr=lr)
    adam_step(state, theta, g)
    # bias corrections cancel at t=1: step is lr * g / (|g| + eps)
    expected = p - lr * g / (np.abs(g) + state.eps)
    assert np.allclose(theta, expected, atol=1e-12)
    assert state.t == 1


def test_adam_zero_grad_is_identity():
    theta = np.array([[1.0, 2.0], [3.0, 4.0]])
    state = adam_init(theta)
    adam_step(state, theta, np.zeros((2, 2)))
    assert np.allclose(theta, [[1.0, 2.0], [3.0, 4.0]])


def test_adam_descends_quadratic():
    rng = np.random.default_rng(8)
    theta = rng.normal(size=10)
    state = adam_init(theta, lr=0.05)
    start = float(np.sum(theta ** 2))
    for _ in range(400):
        adam_step(state, theta, 2.0 * theta)
    assert float(np.sum(theta ** 2)) < 1e-3 * start


def test_adam_state_shapes_follow_params():
    net = init_net(4, 3, 2, 2, np.random.default_rng(0))
    state = adam_init(net.theta)
    assert state.m.shape == state.v.shape == (4 * 3 + 3 + 3 * 2 + 2 + 2 * 2 + 2,)


def _per_array_adam_step(state, params, grads):
    """Adam as it was written per parameter array, before the flat store."""
    state["t"] += 1
    lr, beta1, beta2, eps, t = 0.001, 0.9, 0.999, 1e-8, state["t"]
    for p, g, m, v in zip(params, grads, state["m"], state["v"]):
        g = np.asarray(g, dtype=np.float64)
        m *= beta1
        m += (1.0 - beta1) * g
        v *= beta2
        v += (1.0 - beta2) * g * g
        m_hat = m / (1.0 - beta1**t)
        v_hat = v / (1.0 - beta2**t)
        p -= lr * m_hat / (np.sqrt(v_hat) + eps)


def test_adam_matches_per_array_reference():
    rng = np.random.default_rng(14)
    net = init_net(230, 300, 100, 23, rng)
    ref_params = [p.copy() for p in net.params()]
    ref = {"t": 0, "m": [np.zeros_like(p) for p in ref_params],
           "v": [np.zeros_like(p) for p in ref_params]}
    state = adam_init(net.theta)
    for _ in range(50):
        grad = rng.normal(size=net.theta.size) * rng.choice([1e-3, 1.0, 30.0])
        adam_step(state, net.theta, grad)
        _per_array_adam_step(ref, ref_params, net.split(grad))
    assert state.t == ref["t"] == 50
    for got, want in zip(net.params(), ref_params):
        assert np.array_equal(got, want)
    for got, want in zip(net.split(state.m) + net.split(state.v),
                         ref["m"] + ref["v"]):
        assert np.array_equal(got, want)


def test_adam_matches_per_array_reference_past_bias_corrections():
    """Past t = 356, 1 - beta1**t rounds to 1.0, and past t = 37412 so
    does 1 - beta2**t; the steps that skip those divisions keep the bits
    of the steps that make them."""
    assert 1.0 - 0.9**355 != 1.0 == 1.0 - 0.9**356
    assert 1.0 - 0.999**37411 != 1.0 == 1.0 - 0.999**37412
    rng = np.random.default_rng(15)
    net = init_net(12, 10, 8, 5, rng)
    for start, steps in ((0, 400), (37400, 30)):
        m0 = rng.normal(size=net.theta.size) * 0.1 if start else 0.0
        v0 = rng.random(net.theta.size) * 0.01 if start else 0.0
        state = adam_init(net.theta)
        state.t = start
        state.m[...], state.v[...] = m0, v0
        ref_params = [p.copy() for p in net.params()]
        ref = {"t": start, "m": [a.copy() for a in net.split(state.m)],
               "v": [a.copy() for a in net.split(state.v)]}
        for _ in range(steps):
            grad = rng.normal(size=net.theta.size) * rng.choice([1e-3, 1.0])
            adam_step(state, net.theta, grad)
            _per_array_adam_step(ref, ref_params, net.split(grad))
        assert state.t == ref["t"] == start + steps
        for got, want in zip(net.params() + net.split(state.m)
                             + net.split(state.v),
                             ref_params + ref["m"] + ref["v"]):
            assert got.tobytes() == want.tobytes()


# ---------------------------------------------------------------- net setup


def test_init_net_shapes_and_bounds():
    net = init_net(10, 8, 6, 4, np.random.default_rng(9))
    assert net.dims == (10, 8, 6, 4)
    assert net.w1.shape == (10, 8) and net.b1.shape == (8,)
    assert net.w2.shape == (8, 6) and net.b2.shape == (6,)
    assert net.w3.shape == (6, 4) and net.b3.shape == (4,)
    assert np.all(np.abs(net.w1) <= 1 / np.sqrt(10))
    assert np.all(np.abs(net.w3) <= 1 / np.sqrt(6))
    assert np.all(net.b1 == 0) and np.all(net.b2 == 0) and np.all(net.b3 == 0)


def test_init_net_deterministic():
    a = init_net(5, 4, 3, 2, np.random.default_rng(11))
    b = init_net(5, 4, 3, 2, np.random.default_rng(11))
    for pa, pb in zip(a.params(), b.params()):
        assert np.array_equal(pa, pb)


def test_net_params_share_one_vector():
    net = small_net()
    assert net.theta.size == sum(p.size for p in net.params())
    for p in net.params():
        assert p.base is net.theta and p.flags.c_contiguous
    assert np.array_equal(net.theta,
                          np.concatenate([p.ravel() for p in net.params()]))

    clone = net.copy()
    assert clone.theta is not net.theta
    clone.theta += 1.0
    assert np.array_equal(clone.w1, net.w1 + 1.0)
    assert not np.shares_memory(clone.theta, net.theta)

    arrays = {name: p.copy() for name, p in net.named_params().items()}
    policy = DQNPolicy(6, 4, DQNConfig(hidden1=5, hidden2=4))
    policy.restore_arrays(arrays)
    packed = policy.net
    assert np.array_equal(packed.theta, net.theta)
    for name, p in packed.named_params().items():
        assert p.base is packed.theta
        assert not np.shares_memory(p, arrays[name])
    assert policy.net.dims == net.dims


def test_net_copy_is_independent():
    net = small_net()
    clone = net.copy()
    clone.w1 += 1.0
    assert not np.array_equal(net.w1, clone.w1)
    assert clone.dims == net.dims
