"""Activation, normalization, schedule, and optimizer building blocks."""

import math

import numpy as np
import pytest

from protflow import flow, latent, nn
from protflow.errors import Diverged
from protflow.numeric import RngStream, grad_check


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
    _, t = nn.gelu(x, return_tanh=True)
    assert np.max(np.abs(num - nn.gelu_grad(x, t))) < 1e-8


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
    assert np.array_equal(nn.gelu_tanh(x), t)  # the tanh a flow block caches
    # flow_forward and flow_backward build z from the cached tanh, left unwritten
    assert np.array_equal(nn.gelu_from_tanh(x, t2).view(np.uint64), z2.view(np.uint64))
    assert np.array_equal(t2, t)
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
    assert nn.cosine_lr(0, total, peak, floor, warm, 1) == pytest.approx(peak / 10)
    assert nn.cosine_lr(9, total, peak, floor, warm, 1) == pytest.approx(peak)
    # end of schedule decays to the floor
    assert nn.cosine_lr(total, total, peak, floor, warm, 1) == pytest.approx(floor)
    # midpoint sits between
    mid = nn.cosine_lr(60, total, peak, floor, warm, 1)
    assert floor < mid < peak


def test_cosine_lr_cycles_restart():
    peak, floor, total = 1.0, 0.0, 100
    # with 2 cycles the schedule returns to peak at progress 0.5
    assert nn.cosine_lr(50, total, peak, floor, 0, cycles=2) == pytest.approx(peak)
    just_before = nn.cosine_lr(49, total, peak, floor, 0, cycles=2)
    assert just_before < 0.01


# --- the per-key optimizer that fit ran before it packed one buffer: the
# reference its flat buffer must match bit for bit


def _ref_global_norm(grads):
    total = 0.0
    for g in grads.values():
        total += float((g * g).sum())
    return math.sqrt(total)


def _ref_clip_grads_(grads, max_norm):
    norm = _ref_global_norm(grads)
    if max_norm > 0 and norm > max_norm:
        scale = max_norm / (norm + 1e-12)
        for g in grads.values():
            g *= scale
    return norm


class _RefAdamW:
    def __init__(self, params, betas, eps, weight_decay):
        self.beta1, self.beta2 = betas
        self.eps = eps
        self.weight_decay = weight_decay
        self.step_count = 0
        self.m = {k: np.zeros_like(v) for k, v in params.items()}
        self.v = {k: np.zeros_like(v) for k, v in params.items()}

    def step(self, params, grads, lr):
        self.step_count += 1
        b1c = 1.0 - self.beta1**self.step_count
        b2c = 1.0 - self.beta2**self.step_count
        for k, p in params.items():
            g = grads[k]
            if not np.all(np.isfinite(g)):
                raise Diverged(f"non-finite gradient for {k}")
            if self.weight_decay > 0:
                p -= lr * self.weight_decay * p
            m = self.m[k]
            v = self.v[k]
            m *= self.beta1
            m += (1.0 - self.beta1) * g
            v *= self.beta2
            v += (1.0 - self.beta2) * g * g
            p -= lr * (m / b1c) / (np.sqrt(v / b2c) + self.eps)


def _ref_fit(params, loss_and_grad, steps, lr, lr_min, warmup, clip, weight_decay, betas, eps,
             cycles=1):
    opt = _RefAdamW(params, betas=betas, eps=eps, weight_decay=weight_decay)
    trace = []
    for step in range(steps):
        loss, grads = loss_and_grad(step)
        if not np.isfinite(loss):
            raise Diverged(f"loss non-finite at step {step}")
        grad_norm = _ref_clip_grads_(grads, clip)
        lr_t = nn.cosine_lr(step, steps, lr, lr_min, warmup, cycles)
        opt.step(params, grads, lr_t)
        trace.append((step, loss, lr_t, grad_norm))
    return trace


def _fit_matches_reference(params, make_loss_and_grad, steps, **settings):
    """Run nn.fit and _ref_fit, each on its own copy of params, through
    make_loss_and_grad(copy); assert that fit packed the copy into one
    buffer and that both give bitwise the same params and trace. Returns
    fit's trace."""
    runs = []
    for fit in (nn.fit, _ref_fit):
        copy = {k: v.copy() for k, v in params.items()}
        runs.append((copy, fit(copy, make_loss_and_grad(copy), steps, **settings)))
    (packed, trace), (ref, ref_trace) = runs
    assert [(k, v.shape, v.dtype) for k, v in packed.items()] == [
        (k, v.shape, np.float64) for k, v in params.items()]
    buffer = next(iter(packed.values())).base
    assert buffer.ndim == 1 and buffer.size == sum(v.size for v in packed.values())
    views = list(packed.values())
    for i, a in enumerate(views):
        assert a.base is buffer and a.flags.c_contiguous
        assert not any(np.shares_memory(a, b) for b in views[i + 1 :])
    for k, v in ref.items():
        assert np.array_equal(packed[k].view(np.uint64), v.view(np.uint64)), k
    assert trace == ref_trace
    return trace


def _flow_loss(cfg, seed):
    """make_loss_and_grad for cfm_loss on a cfg field whose step s draws its
    batch of 8 from substream "step{s}" of RngStream(seed)."""
    shape = (8, cfg.seq_len or 6, cfg.width)

    def make(params):
        model = flow.VectorFieldModel(cfg, params)

        def loss_and_grad(step):
            sub = RngStream(seed).substream(f"step{step}")
            x0 = sub.substream("x0").normal(shape)
            x1 = sub.substream("x1").normal(shape)
            return flow.cfm_loss(model, x0, x1, sub.substream("t").uniform(shape[0]))

        return loss_and_grad

    return make


def _perturbed_flow_params(cfg, seed):
    params = flow.init_flow_model(cfg, RngStream(seed)).params
    noise = RngStream(seed).substream("perturb")
    return {k: v + 0.1 * noise.substream(k).normal(v.shape) for k, v in params.items()}


_FLOW_FIT = dict(lr=1e-2, lr_min=1e-3, warmup=5, weight_decay=0.01, betas=(0.9, 0.98), eps=1e-6)


def test_fit_matches_the_per_key_reference_bitwise():
    cfg = flow.VectorFieldConfig(depth=2, width=4, hidden=16, attention=True, seq_len=6)
    trace = _fit_matches_reference(_perturbed_flow_params(cfg, 1), _flow_loss(cfg, 2), 60,
                                   clip=1.5, **_FLOW_FIT)
    norms = [row[3] for row in trace]
    assert min(norms) < 1.5 < max(norms)  # clipped on some steps, not on others

    plain = flow.VectorFieldConfig(depth=2, width=4, hidden=16, attention=False, seq_len=None)
    _fit_matches_reference(_perturbed_flow_params(plain, 3), _flow_loss(plain, 4), 60,
                           clip=1.0, **_FLOW_FIT)

    gen = np.random.default_rng(5)
    h, y = gen.normal(size=(50, 8)), gen.integers(0, 20, size=50)

    def decoder_loss(params):
        def loss_and_grad(step):
            idx = np.random.default_rng(step).integers(0, 50, size=16)
            return latent.decoder_loss_and_grad(params, h[idx], y[idx])

        return loss_and_grad

    _fit_matches_reference(latent.init_decoder(8, 16, RngStream(6)), decoder_loss, 60,
                           lr=1e-2, lr_min=1e-3, warmup=5, clip=1.0, weight_decay=0.01,
                           betas=(0.9, 0.98), eps=1e-8)

    rows = np.tanh(gen.normal(size=(80, 8)))

    def compressor_loss(params):
        def loss_and_grad(step):
            idx = np.random.default_rng(step).integers(0, 80, size=16)
            return latent.compressor_loss_and_grad(params, rows[idx])

        return loss_and_grad

    _fit_matches_reference(latent.init_compressor(8, 2, RngStream(7)), compressor_loss, 60,
                           lr=1e-2, lr_min=1e-3, warmup=5, clip=1.0, weight_decay=0.01,
                           betas=(0.9, 0.999), eps=1e-8, cycles=2)


def _recorded_steps(monkeypatch):
    """A list that gets a copy of the flat gradient of each AdamW.step call."""
    seen = []
    adamw_step = nn.AdamW.step

    def recorded_step(self, params, grads, lr):
        seen.append(grads.copy())
        adamw_step(self, params, grads, lr)

    monkeypatch.setattr(nn.AdamW, "step", recorded_step)
    return seen


def _fit_constant(params, grads, steps, clip):
    return nn.fit(params, lambda step: (1.0, {k: g.copy() for k, g in grads.items()}), steps,
                  1e-3, 1e-4, 0, clip, 0.0, betas=(0.9, 0.98), eps=1e-8)


def test_fit_clips_to_the_global_norm(monkeypatch):
    seen = _recorded_steps(monkeypatch)
    grads = {"a": np.array([3.0, 0.0]), "b": np.array([[4.0]])}
    trace = _fit_constant({"a": np.zeros(2), "b": np.zeros((1, 1))}, grads, 1, 1.0)
    assert trace[0][3] == pytest.approx(5.0)  # the norm before clipping
    assert math.sqrt(float((seen[0] ** 2).sum())) == pytest.approx(1.0, rel=1e-9)
    # under the cap nothing changes
    _fit_constant({"a": np.zeros(1)}, {"a": np.array([0.3])}, 1, 1.0)
    assert seen[1][0] == 0.3


def test_adamw_single_step_oracle():
    params = np.array([1.0])
    opt = nn.AdamW(params, betas=(0.9, 0.98), eps=1e-6, weight_decay=0.1)
    opt.step(params, np.array([0.5]), 0.01)
    # decoupled decay first, then bias-corrected adam update
    w = 1.0 - 0.01 * 0.1 * 1.0
    m_hat = (0.1 * 0.5) / (1 - 0.9)
    v_hat = (0.02 * 0.25) / (1 - 0.98)
    w -= 0.01 * m_hat / (math.sqrt(v_hat) + 1e-6)
    assert params[0] == pytest.approx(w, abs=1e-15)


def test_fit_rejects_non_finite_grad(monkeypatch):
    seen = _recorded_steps(monkeypatch)
    for bad in (math.nan, math.inf, -math.inf):
        grads = {"a": np.ones(2), "b": np.array([1.0, bad]), "c": np.array([bad])}
        with pytest.raises(Diverged, match=r"non-finite gradient for b$"):
            _fit_constant({k: np.ones_like(g) for k, g in grads.items()}, grads, 3, 1.0)
    assert not seen  # raised before the first update
    # a finite gradient whose squared norm overflows is no divergence: it trains
    # as the per-key loop did, clipped to zero, or unclipped at clip 0
    grads = {"a": np.array([1e200, 1.0]), "b": np.ones(3)}
    for clip in (1.0, 0.0):
        with np.errstate(over="ignore"):
            trace = _fit_matches_reference(
                {"a": np.ones(2), "b": np.ones(3)},
                lambda params: lambda step: (1.0, {k: g.copy() for k, g in grads.items()}), 3,
                lr=1e-3, lr_min=1e-4, warmup=0, clip=clip, weight_decay=0.01,
                betas=(0.9, 0.98), eps=1e-8)
        assert all(row[3] == math.inf for row in trace)


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
