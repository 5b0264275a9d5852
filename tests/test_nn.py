"""Activation, normalization, schedule, and optimizer building blocks."""

import math

import numpy as np
import pytest

from protflow import nn
from protflow.errors import Diverged
from protflow.numeric import grad_check


def test_gelu_reference_points():
    # tanh approximation of GELU: exact at 0, symmetric-ish behavior
    assert nn.gelu(np.array([0.0]))[0] == 0.0
    x = np.array([1.0])
    expected = 0.5 * 1.0 * (1.0 + math.tanh(math.sqrt(2.0 / math.pi) * (1.0 + 0.044715)))
    assert abs(nn.gelu(x)[0] - expected) < 1e-12
    big = nn.gelu(np.array([10.0]))[0]
    assert abs(big - 10.0) < 1e-6


def test_gelu_grad_matches_numeric():
    rng = np.random.default_rng(1)
    x = rng.normal(size=50) * 2.0
    h = 1e-6
    num = (nn.gelu(x + h) - nn.gelu(x - h)) / (2.0 * h)
    assert np.max(np.abs(num - nn.gelu_grad(x))) < 1e-8


def test_gelu_pow_free_matches_cube_formula():
    # The reference form computes x**3 with numpy's pow. x*x*x can differ from
    # it by an ulp, so the two agree to 1e-15 relative to the input scale.
    # Relative to the output they can differ far more where 1 + tanh(u)
    # cancels (x near -3.5 gives ~3e-13), though the absolute gap stays ~4e-16.
    x = np.linspace(-50.0, 50.0, 200_001)
    c = math.sqrt(2.0 / math.pi)
    ref = 0.5 * x * (1.0 + np.tanh(c * (x + 0.044715 * x**3)))
    assert np.all(np.abs(nn.gelu(x) - ref) <= 1e-15 * np.maximum(np.abs(x), 1.0))
    z, t = nn.gelu(x, return_tanh=True)
    assert np.array_equal(z, nn.gelu(x))
    assert np.array_equal(t, np.tanh(c * (x + 0.044715 * (x * x * x))))


def test_gelu_grad_with_cached_tanh():
    rng = np.random.default_rng(4)
    x = np.concatenate([rng.normal(size=200) * 3.0, np.linspace(-50.0, 50.0, 101)])
    _, t = nn.gelu(x, return_tanh=True)
    cached = nn.gelu_grad(x, t)
    assert np.array_equal(cached, nn.gelu_grad(x))
    h = 1e-6
    num = (nn.gelu(x + h) - nn.gelu(x - h)) / (2.0 * h)
    assert np.max(np.abs(num - cached)) < 1e-8


def test_gelu_in_place_matches_formulas_bitwise():
    # gelu and gelu_grad run through in-place buffers; the results must be
    # bitwise those of the plain formulas, subnormal inputs included.
    rng = np.random.default_rng(9)
    x = np.concatenate(
        [np.linspace(-50.0, 50.0, 200_001), rng.normal(size=(3, 5000)).ravel() * 4.0,
         [0.0, -0.0, 1e-310, -1e-310, 5e-324]]
    )
    c = math.sqrt(2.0 / math.pi)
    t = np.tanh(c * (x + 0.044715 * (x * x * x)))
    z = 0.5 * x * (1.0 + t)
    grad = 0.5 * (1.0 + t) + 0.5 * x * (1.0 - t * t) * c * (1.0 + 3 * 0.044715 * (x * x))
    assert np.array_equal(nn.gelu(x), z)
    z2, t2 = nn.gelu(x, return_tanh=True)
    assert np.array_equal(z2, z) and np.array_equal(t2, t)
    # flow_backward rebuilds the forward's z from the cached tanh, left unwritten
    assert np.array_equal(nn.gelu_from_tanh(x, t2).view(np.uint64), z2.view(np.uint64))
    assert np.array_equal(t2, t)
    assert np.array_equal(nn.gelu_grad(x), grad)
    t_in = t.copy()
    assert np.array_equal(nn.gelu_grad(x, t_in), grad)
    assert np.array_equal(t_in, t)  # the cached tanh is read, never written
    x3 = x[: 4 * 20 * 64].reshape(4, 20, 64)  # activations come in as (n, L, hidden)
    _, t3 = nn.gelu(x3, return_tanh=True)
    assert np.array_equal(nn.gelu_grad(x3, t3), grad[: x3.size].reshape(x3.shape))


def test_layernorm_forward_stats():
    rng = np.random.default_rng(2)
    x = rng.normal(size=(6, 16)) * 3.0 + 1.5
    gamma = np.ones(16)
    beta = np.zeros(16)
    y, _ = nn.layernorm_forward(x, gamma, beta)
    assert np.allclose(y.mean(axis=-1), 0.0, atol=1e-12)
    assert np.allclose(y.std(axis=-1), 1.0, atol=1e-3)


def test_layernorm_backward_matches_numeric():
    rng = np.random.default_rng(3)
    x = rng.normal(size=(4, 8))
    gamma = rng.normal(size=8)
    beta = rng.normal(size=8)
    dy = rng.normal(size=(4, 8))

    def loss_wrt_x(flat):
        y, _ = nn.layernorm_forward(flat.reshape(4, 8), gamma, beta)
        return float((y * dy).sum()), np.zeros_like(flat)

    y, cache = nn.layernorm_forward(x, gamma, beta)
    dx, dgamma, dbeta = nn.layernorm_backward(dy, cache)
    h = 1e-6
    for idx in [(0, 0), (1, 3), (3, 7)]:
        xp = x.copy()
        xp[idx] += h
        xm = x.copy()
        xm[idx] -= h
        num = (loss_wrt_x(xp.ravel())[0] - loss_wrt_x(xm.ravel())[0]) / (2 * h)
        assert abs(num - dx[idx]) < 1e-6
    assert np.allclose(dbeta, dy.sum(axis=0))
    xhat = cache[0]
    assert np.allclose(dgamma, (dy * xhat).sum(axis=0))


def test_softmax_cross_entropy_value_and_grad():
    logits = np.log(np.array([[0.7, 0.2, 0.1], [0.25, 0.5, 0.25]]))
    targets = np.array([0, 1])
    loss, dlogits = nn.softmax_cross_entropy(logits, targets)
    expected = -(math.log(0.7) + math.log(0.5)) / 2.0
    assert abs(loss - expected) < 1e-12

    rng = np.random.default_rng(4)
    raw = rng.normal(size=(5, 7))
    y = rng.integers(0, 7, size=5)

    def f(params):
        val, grad = nn.softmax_cross_entropy(params["logits"], y)
        return val, {"logits": grad}

    assert grad_check(f, {"logits": raw}) < 1e-7


def test_softmax_normalizes():
    rng = np.random.default_rng(5)
    z = rng.normal(size=(3, 9)) * 5
    assert np.allclose(nn.softmax(z).sum(axis=-1), 1.0, atol=1e-12)


def test_sinusoidal_table_values():
    table = nn.sinusoidal_table(4, 6)
    assert table.shape == (4, 6)
    # position 0: sin -> 0, cos -> 1
    assert np.allclose(table[0, 0::2], 0.0)
    assert np.allclose(table[0, 1::2], 1.0)
    # column pair 0 oscillates at frequency 1
    assert abs(table[2, 0] - math.sin(2.0)) < 1e-12
    assert abs(table[2, 1] - math.cos(2.0)) < 1e-12
    with pytest.raises(ValueError):
        nn.sinusoidal_table(4, 5)
    # one cached, read-only table serves every caller, and row i does not
    # depend on the length
    assert nn.sinusoidal_table(4, 6) is table and not table.flags.writeable
    assert np.array_equal(nn.sinusoidal_table(9, 6)[:4], table)


def test_time_features_scale():
    feats = nn.time_features(np.array([0.0, 0.5]), 4, scale=1000.0)
    assert feats.shape == (2, 4)
    assert abs(feats[1, 0] - math.sin(500.0)) < 1e-12
    assert abs(feats[1, 1] - math.cos(500.0)) < 1e-12
    assert np.allclose(feats[0, 0::2], 0.0)


def test_cosine_lr_envelope():
    peak, floor, warm, total = 1e-3, 1e-5, 10, 110
    # linear warmup hits peak at the last warmup step
    assert nn.cosine_lr(0, total, peak, floor, warm) == pytest.approx(peak / 10)
    assert nn.cosine_lr(9, total, peak, floor, warm) == pytest.approx(peak)
    # end of schedule decays to the floor
    assert nn.cosine_lr(total, total, peak, floor, warm) == pytest.approx(floor)
    # midpoint sits between
    mid = nn.cosine_lr(60, total, peak, floor, warm)
    assert floor < mid < peak


def test_cosine_lr_cycles_restart():
    peak, floor, total = 1.0, 0.0, 100
    # with 2 cycles the schedule returns to peak at progress 0.5
    assert nn.cosine_lr(50, total, peak, floor, 0, cycles=2) == pytest.approx(peak)
    just_before = nn.cosine_lr(49, total, peak, floor, 0, cycles=2)
    assert just_before < 0.01


def test_global_norm_and_clip():
    grads = {"a": np.array([3.0, 0.0]), "b": np.array([[4.0]])}
    assert nn.global_norm(grads) == pytest.approx(5.0)
    norm = nn.clip_grads_(grads, 1.0)
    assert norm == pytest.approx(5.0)
    assert nn.global_norm(grads) == pytest.approx(1.0, rel=1e-9)
    # under the cap nothing changes
    grads2 = {"a": np.array([0.3])}
    nn.clip_grads_(grads2, 1.0)
    assert grads2["a"][0] == 0.3


def test_adamw_single_step_oracle():
    params = {"w": np.array([1.0])}
    grads = {"w": np.array([0.5])}
    opt = nn.AdamW(params, betas=(0.9, 0.98), eps=1e-6, weight_decay=0.1)
    opt.step(params, grads, 0.01)
    # decoupled decay first, then bias-corrected adam update
    w = 1.0 - 0.01 * 0.1 * 1.0
    m_hat = (0.1 * 0.5) / (1 - 0.9)
    v_hat = (0.02 * 0.25) / (1 - 0.98)
    w -= 0.01 * m_hat / (math.sqrt(v_hat) + 1e-6)
    assert params["w"][0] == pytest.approx(w, abs=1e-15)


def test_adamw_rejects_non_finite_grad():
    params = {"w": np.ones(2)}
    opt = nn.AdamW(params)
    with pytest.raises(Diverged):
        opt.step(params, {"w": np.array([1.0, np.nan])}, 1e-3)



def test_fit_raises_diverged_at_the_first_non_finite_loss(monkeypatch):
    updates = []
    adamw_step = nn.AdamW.step

    def counted_step(self, params, grads, lr):
        updates.append(lr)
        adamw_step(self, params, grads, lr)

    monkeypatch.setattr(nn.AdamW, "step", counted_step)
    params = {"w": np.array([1.0, -2.0])}

    def loss_and_grad(step):
        loss = math.nan if step == 2 else float((params["w"] ** 2).sum())
        return loss, {"w": 2.0 * params["w"]}

    with pytest.raises(Diverged, match=r"at step 2$"):
        nn.fit(params, loss_and_grad, 5, 1e-2, 1e-3, 0, 1.0, 0.0, betas=(0.9, 0.98), eps=1e-8)
    assert len(updates) == 2
