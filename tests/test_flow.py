"""Vector-field network, CFM objective, 1-RF training, and reflow couplings."""

import math
import tracemalloc

import numpy as np
import pytest

from protflow import flow, nn, numeric, ode
from protflow.config import SIZE_CAP, solver_config
from protflow.errors import ShapeMismatch
from protflow.numeric import RngStream, grad_check


def _solver(**settings):
    """The SolverConfig of settings, and config.SCHEMA's default for each other one."""
    return solver_config({"solver." + name: value for name, value in settings.items()})


# train_rf's and train_reflow's optimizer settings before config.SCHEMA held
# the only defaults; the tests below were tuned at them
_RF_SETTINGS = dict(lr=1e-3, lr_min=2e-4, warmup=100, weight_decay=0.01, clip=1.0)


def test_config_validation():
    with pytest.raises(ValueError):
        flow.VectorFieldConfig(0, 2, 8, attention=False, seq_len=None)
    with pytest.raises(ValueError):
        flow.VectorFieldConfig(2, 2, 8, attention=True, seq_len=None)  # needs seq_len
    with pytest.raises(ValueError):
        flow.VectorFieldConfig(2, 2, 8, attention=False, seq_len=None, time_dim=7)
    # sizes are ints (not bools or floats) up to the cap, attention a bool and
    # time_scale a number (not a bool) in (0, float max]
    bad = [dict(depth=1.0), dict(width=True), dict(hidden=SIZE_CAP + 1),
           dict(time_dim=SIZE_CAP + 2), dict(attention=1), dict(seq_len=4.0),
           dict(time_scale=10**400), dict(time_scale=True)]
    for change in bad:
        with pytest.raises(ValueError):
            flow.VectorFieldConfig(**{"depth": 2, "width": 2, "hidden": 8, "attention": False,
                                      "seq_len": None, **change})
    cfg = flow.VectorFieldConfig(2, 2, 8, attention=False, seq_len=None)
    assert cfg.time_dim == 8  # floor of 8
    assert flow.VectorFieldConfig(2, 10, 8, attention=False, seq_len=None).time_dim == 10
    # rounded even
    assert flow.VectorFieldConfig(2, 9, 8, attention=False, seq_len=None).time_dim == 10


def test_config_dict_round_trip():
    cfg = flow.VectorFieldConfig(3, 4, 16, attention=True, seq_len=5, time_dim=12)
    back = flow.VectorFieldConfig.from_dict(cfg.to_dict())
    assert back.to_dict() == cfg.to_dict()


def test_init_is_identity_map():
    cfg = flow.VectorFieldConfig(4, 3, 16, attention=False, seq_len=None)
    model = flow.init_flow_model(cfg, RngStream(0))
    x = np.random.default_rng(1).normal(size=(5, 7, 3))
    v = flow.flow_forward(model, x, 0.3)
    assert np.array_equal(v, x)
    # every time value gives the same identity at init
    assert np.array_equal(flow.flow_forward(model, x, np.linspace(0, 1, 5)), x)


def test_init_with_attention_is_identity_plus_positional():
    cfg = flow.VectorFieldConfig(2, 3, 8, attention=True, seq_len=4)
    model = flow.init_flow_model(cfg, RngStream(0))
    x = np.random.default_rng(2).normal(size=(2, 4, 3))
    v = flow.flow_forward(model, x, 0.5)
    assert np.array_equal(v, x + model.params["pos"][None])


def test_flow_forward_shape_errors():
    cfg = flow.VectorFieldConfig(2, 3, 8, attention=True, seq_len=4)
    model = flow.init_flow_model(cfg, RngStream(0))
    with pytest.raises(ShapeMismatch):
        flow.flow_forward(model, np.zeros((2, 4, 5)), 0.5)  # wrong width
    with pytest.raises(ShapeMismatch):
        flow.flow_forward(model, np.zeros((2, 6, 3)), 0.5)  # wrong length
    with pytest.raises(ShapeMismatch):
        flow.flow_forward(model, np.zeros((2, 3)), 0.5)  # not 3-D


def _perturbed_model(cfg, seed):
    model = flow.init_flow_model(cfg, RngStream(seed))
    noise = RngStream(seed).substream("perturb")
    for k in model.params:
        model.params[k] = model.params[k] + 0.05 * noise.substream(k).normal(
            model.params[k].shape
        )
    return model


def test_cfm_grad_matches_numeric_plain():
    cfg = flow.VectorFieldConfig(3, 2, 6, attention=False, seq_len=None)
    model = _perturbed_model(cfg, 3)
    gen = np.random.default_rng(4)
    x0 = gen.normal(size=(2, 3, 2))
    x1 = gen.normal(size=(2, 3, 2))
    t = gen.uniform(size=2)

    def f(params):
        return flow.cfm_loss(flow.VectorFieldModel(cfg, params), x0, x1, t)

    assert grad_check(f, model.params) < 1e-5


def test_cfm_grad_matches_numeric_attention():
    # At time_scale 10 this draw's central differences lose 3.1e-5 to round-off
    # at the grad_check step of 1e-5 (2.7e-6 at 1e-4); flow_backward does not
    # depend on the scale, so the 1e-5 bound is checked at the scale it was set for.
    cfg = flow.VectorFieldConfig(3, 2, 6, attention=True, seq_len=3, time_scale=1000.0)
    model = _perturbed_model(cfg, 5)
    gen = np.random.default_rng(6)
    x0 = gen.normal(size=(2, 3, 2))
    x1 = gen.normal(size=(2, 3, 2))
    t = gen.uniform(size=2)

    def f(params):
        return flow.cfm_loss(flow.VectorFieldModel(cfg, params), x0, x1, t)

    assert grad_check(f, model.params) < 1e-5


@pytest.mark.parametrize("attention", [False, True])
def test_training_cache_holds_one_hidden_array_per_block(attention):
    # the cache keeps tanh(a) per block; a and gelu(a) are rebuilt in backward
    n, length, hidden = 4, 5, 16
    cfg = flow.VectorFieldConfig(3, 3, hidden, attention=attention, seq_len=length)
    model = _perturbed_model(cfg, 7)
    x = np.random.default_rng(8).normal(size=(n, length, 3))
    _, cache = flow.flow_forward(model, x, np.linspace(0.1, 0.9, n), need_cache=True)

    def arrays(node):
        if isinstance(node, np.ndarray):
            return [node]
        if isinstance(node, (list, tuple)):
            return [a for item in node for a in arrays(item)]
        return []

    shapes = [a.shape for a in arrays(cache)]
    assert shapes.count((n, length, hidden)) == cfg.depth


def _ref_flow_forward(model, x, t):
    """flow_forward(need_cache=True) as it was before its item blocks: each
    block's a = u2 @ w1 + b1, tanh(a) and w2 product as whole arrays, and a
    cache that keeps a beside tanh(a)."""
    cfg = model.cfg
    p = model.params
    n, length, w = x.shape
    temb = nn.time_features(np.broadcast_to(t, (n,)), cfg.time_dim, cfg.time_scale)
    stream = x + p["pos"][None] if cfg.attention else x
    inputs, caches = [], []
    for j, skip_w, (tw, tb, wq, wk, wv, wo, w1, b1, w2, b2) in flow._block_names(cfg.depth):
        x_in = stream + inputs[j] @ p[skip_w] if j >= 0 else stream
        inputs.append(x_in)
        u = x_in + (temb @ p[tw] + p[tb])[:, None, :]
        if cfg.attention:
            q, k, vv = u @ p[wq], u @ p[wk], u @ p[wv]
            att = nn.softmax((q @ k.transpose(0, 2, 1)) * (1.0 / math.sqrt(w)))
            m = att @ vv
            u2 = m @ p[wo] + u
        else:
            q = k = vv = att = m = None
            u2 = u
        a = u2 @ p[w1] + p[b1]
        tanh_a = nn.gelu_tanh(a)
        stream = nn.gelu_from_tanh(a, tanh_a) @ p[w2] + p[b2] + x_in
        caches.append((u, q, k, vv, att, m, u2, a, tanh_a))
    return stream, (x, temb, inputs, caches)


def _ref_flow_backward(model, cache, dv):
    """flow_backward as it was before its item blocks, on _ref_flow_forward's
    cache: each block's z and gelu'(a) as whole arrays from the cached a and
    tanh(a), the cache read and left as it was."""
    cfg = model.cfg
    p = model.params
    x, temb, inputs, caches = cache
    inv_sqrt_w = 1.0 / math.sqrt(x.shape[2])
    grads = {k: np.zeros_like(v) for k, v in p.items()}
    d_inputs_extra = [None] * cfg.depth

    def flat(arr):
        return arr.reshape(-1, arr.shape[-1])

    d_stream = dv
    for b in reversed(range(cfg.depth)):
        j, skip_w, (tw, tb, wq, wk, wv, wo, w1, b1, w2, b2) = flow._block_names(cfg.depth)[b]
        u, q, k, vv, att, m, u2, a, tanh_a = caches[b]
        d_delta = d_stream
        grads[w2] += flat(nn.gelu_from_tanh(a, tanh_a)).T @ flat(d_delta)
        grads[b2] += flat(d_delta).sum(axis=0)
        d_a = nn.gelu_grad(a, tanh_a)
        d_a *= d_delta @ p[w2].T
        grads[w1] += flat(u2).T @ flat(d_a)
        grads[b1] += flat(d_a).sum(axis=0)
        d_u2 = d_a @ p[w1].T
        if cfg.attention:
            d_u = d_u2.copy()
            grads[wo] += flat(m).T @ flat(d_u2)
            d_m = d_u2 @ p[wo].T
            d_att = d_m @ vv.transpose(0, 2, 1)
            d_vv = att.transpose(0, 2, 1) @ d_m
            d_scores = att * (d_att - (d_att * att).sum(axis=-1, keepdims=True))
            d_q = (d_scores @ k) * inv_sqrt_w
            d_k = (d_scores.transpose(0, 2, 1) @ q) * inv_sqrt_w
            grads[wq] += flat(u).T @ flat(d_q)
            grads[wk] += flat(u).T @ flat(d_k)
            grads[wv] += flat(u).T @ flat(d_vv)
            d_u += d_q @ p[wq].T
            d_u += d_k @ p[wk].T
            d_u += d_vv @ p[wv].T
        else:
            d_u = d_u2
        d_tb = d_u.sum(axis=1)
        grads[tw] += temb.T @ d_tb
        grads[tb] += d_tb.sum(axis=0)
        d_x_in = d_stream + d_u
        if d_inputs_extra[b] is not None:
            d_x_in = d_x_in + d_inputs_extra[b]
        if j >= 0:
            grads[skip_w] += flat(inputs[j]).T @ flat(d_x_in)
            extra = d_x_in @ p[skip_w].T
            d_inputs_extra[j] = extra if d_inputs_extra[j] is None else d_inputs_extra[j] + extra
        d_stream = d_x_in
    if cfg.attention:
        grads["pos"] += d_stream.sum(axis=0)
    return grads


@pytest.mark.parametrize("attention", [False, True])
def test_item_blocks_match_whole_array_step_bitwise(attention):
    # Blocks do not divide the batch: the last one holds `short` items. A
    # single item joins the block before it, except where an item alone
    # exceeds HIDDEN_ROWS and every block is one item.
    for length, short in ((1, 1), (5, 3), (21, 2), (flow.HIDDEN_ROWS + 1, 1)):
        per_block = max(1, flow.HIDDEN_ROWS // length)
        n = 2 * per_block + short
        sizes = [b.stop - b.start for b in numeric.item_blocks(n, length, flow.HIDDEN_ROWS)]
        assert sizes[-1] == (per_block + 1 if short == 1 < per_block else short)
        cfg = flow.VectorFieldConfig(3, 4, 16, attention=attention, seq_len=length)
        model = _perturbed_model(cfg, 11)
        gen = np.random.default_rng(12)
        x = gen.normal(size=(n, length, 4))
        t = gen.uniform(size=n)
        want_v, ref_cache = _ref_flow_forward(model, x, t)
        v, cache = flow.flow_forward(model, x, t, need_cache=True)
        assert v.tobytes() == want_v.tobytes(), length
        assert flow.flow_forward(model, x, t).tobytes() == want_v.tobytes(), length
        dv = gen.normal(size=v.shape)
        want = _ref_flow_backward(model, ref_cache, dv)
        got = flow.flow_backward(model, cache, dv)
        assert list(got) == list(want)
        for name in want:
            assert got[name].tobytes() == want[name].tobytes(), (length, name)
        assert cache[3] == []  # every block's activations were handed back
        # the one GELU statement serves both forwards in float32 too, as in training
        x32 = x.astype(np.float32)
        v32 = flow.flow_forward(model, x32, t, need_cache=True)[0]
        assert v32.dtype == np.float32
        assert flow.flow_forward(model, x32, t).tobytes() == v32.tobytes(), length


def _step_model(depth, width, hidden, seed):
    return _perturbed_model(
        flow.VectorFieldConfig(depth, width, hidden, attention=False, seq_len=None), seed
    )


def _traced_peak(fn):
    """Bytes fn allocates at its peak above what was live when it started."""
    fn()  # fills the lru caches
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        fn()
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


def test_training_step_holds_its_cache_and_block_temporaries():
    # One cfm_loss step at batch 64, L 20, width 4, hidden 128, depth 2. The
    # cache holds depth hidden-size arrays and backward one more, z;
    # HIDDEN_ROWS-row temporaries and width-size arrays fit in one more. It
    # peaks at 3.7 hidden-size arrays; with a cached beside tanh(a) it
    # peaked at 4.8, and before the item blocks at 7.4.
    n, length, width, hidden, depth = 64, 20, 4, 128, 2
    model = _step_model(depth, width, hidden, 13)
    gen = np.random.default_rng(14)
    x0, x1 = gen.normal(size=(2, n, length, width))
    t = gen.uniform(size=n)
    peak = _traced_peak(lambda: flow.cfm_loss(model, x0, x1, t))
    assert peak <= (depth + 2) * n * length * hidden * 8


def test_sampling_forward_holds_no_hidden_size_array():
    # the uncached forward at ode.LANES lanes, L 20, width 8, hidden 64, depth
    # 2: width-size arrays and HIDDEN_ROWS-row temporaries stay under one
    # hidden-size array (0.76 measured). Built whole, a, tanh(a) and gelu(a)
    # peaked at 3.4.
    n, length, width, hidden = ode.LANES, 20, 8, 64
    model = _step_model(2, width, hidden, 15)
    x = np.random.default_rng(16).normal(size=(n, length, width))
    peak = _traced_peak(lambda: flow.flow_forward(model, x, 0.5))
    assert peak <= n * length * hidden * 8


def test_interpolate_exact_endpoints():
    gen = np.random.default_rng(7)
    x0 = gen.normal(size=(4, 5, 3))
    x1 = gen.normal(size=(4, 5, 3))
    assert np.array_equal(flow.rf_interpolate(x0, x1, 0.0), x0)
    assert np.array_equal(flow.rf_interpolate(x0, x1, 1.0), x1)
    # per-sample t vector broadcasts over trailing dims
    t = np.array([0.0, 1.0, 0.5, 0.25])
    mid = flow.rf_interpolate(x0, x1, t)
    assert np.array_equal(mid[0], x0[0])
    assert np.array_equal(mid[1], x1[1])
    assert np.allclose(mid[2], 0.5 * (x0[2] + x1[2]))
    with pytest.raises(ShapeMismatch):
        flow.rf_interpolate(x0, x1[:2], 0.5)


def test_rf_target():
    gen = np.random.default_rng(8)
    x0 = gen.normal(size=(3, 2, 2))
    x1 = gen.normal(size=(3, 2, 2))
    assert np.array_equal(flow.rf_target(x0, x1), x1 - x0)
    with pytest.raises(ShapeMismatch):
        flow.rf_target(x0, x1[:1])


def test_cfm_loss_value_at_identity_init():
    # at init v(x_t, t) = x_t, so the loss is mean((x_t - (x1 - x0))^2)
    cfg = flow.VectorFieldConfig(2, 2, 4, attention=False, seq_len=None)
    model = flow.init_flow_model(cfg, RngStream(0))
    gen = np.random.default_rng(9)
    x0 = gen.normal(size=(3, 2, 2))
    x1 = gen.normal(size=(3, 2, 2))
    t = gen.uniform(size=3)
    loss, _ = flow.cfm_loss(model, x0, x1, t)
    x_t = flow.rf_interpolate(x0, x1, t)
    expected = float(((x_t - (x1 - x0)) ** 2).mean())
    assert loss == pytest.approx(expected, abs=1e-14)
    with pytest.raises(ValueError):
        flow.cfm_loss(model, x0, x1, np.array([0.5, 1.5, 0.5]))


def test_planted_constant_offset_field():
    # block bias makes v(x, t) = x - c; one Euler step from noise lands on c
    cfg = flow.VectorFieldConfig(2, 4, 8, attention=False, seq_len=None)
    model = flow.init_flow_model(cfg, RngStream(0))
    c = np.array([0.3, -1.2, 0.05, 2.0])
    model.params["block0.b2"] = -c
    eps = np.random.default_rng(10).normal(size=(3, 2, 4))
    v = flow.flow_forward(model, eps, 1.0)
    assert np.allclose(v, eps - c, atol=1e-15)

    def field(x, t):
        return flow.flow_forward(model, x, np.full(x.shape[0], t))

    res = ode.solve(field, eps, _solver(method="euler", steps=1))
    assert np.allclose(res.x0, np.broadcast_to(c, eps.shape), atol=1e-12)


def test_train_rf_reduces_loss():
    rng = RngStream(11)
    data = rng.substream("data").normal((256, 1, 2)) * 0.5 + 1.0
    cfg = flow.VectorFieldConfig(2, 2, 16, attention=False, seq_len=None)
    model = flow.init_flow_model(cfg, rng.substream("model"))
    model, trace = flow.train_rf(model, data, RngStream(0), steps=300, batch=32,
                                 **dict(_RF_SETTINGS, lr=2e-3, warmup=30))
    assert len(trace) == 300
    first = np.mean([row[1] for row in trace[:50]])
    last = np.mean([row[1] for row in trace[-50:]])
    assert last < first * 0.8
    step, loss, lr, grad_norm = trace[0]
    assert step == 0 and loss > 0 and lr > 0 and grad_norm >= 0


def test_train_rf_rejects_empty_dataset():
    cfg = flow.VectorFieldConfig(2, 2, 8, attention=False, seq_len=None)
    model = flow.init_flow_model(cfg, RngStream(0))
    with pytest.raises(ValueError):
        flow.train_rf(model, np.zeros((0, 1, 2)), RngStream(0), steps=1, batch=4, **_RF_SETTINGS)


def _float32(*arrays):
    return [np.asarray(a, dtype=np.float32) for a in arrays]


def _reference_rf(model, dataset, rng, steps, batch, lr, lr_min, warmup, weight_decay, clip):
    """1-RF training written out step by step: the trace of its own nn.fit.
    Each step's batch is drawn in float64 and handed to cfm_loss in float32."""
    n = dataset.shape[0]
    shape = dataset.shape[1:]
    stream = rng.substream("rf-train")

    def loss_and_grad(step):
        sub = stream.substream(f"step{step}")
        idx = sub.substream("idx").integers(0, n, size=batch)
        x1 = sub.substream("noise").normal((batch,) + shape)
        t = sub.substream("t").uniform(batch)
        return flow.cfm_loss(model, *_float32(dataset[idx], x1, t))

    return nn.fit(model.params, loss_and_grad, steps, lr, lr_min, warmup, clip, weight_decay,
                  betas=(0.9, 0.98), eps=1e-6)


def _reference_reflow(model, z0, z1, rng, steps, batch, lr, lr_min, warmup, weight_decay, clip):
    """Reflow training written out step by step: the trace of its own nn.fit.
    Each step's batch is drawn in float64 and handed to cfm_loss in float32."""
    n = len(z0)
    stream = rng.substream("reflow-train")

    def loss_and_grad(step):
        sub = stream.substream(f"step{step}")
        idx = sub.substream("idx").integers(0, n, size=batch)
        t = sub.substream("t").uniform(batch)
        return flow.cfm_loss(model, *_float32(z0[idx], z1[idx], t))

    return nn.fit(model.params, loss_and_grad, steps, lr, lr_min, warmup, clip, weight_decay,
                  betas=(0.9, 0.98), eps=1e-6)


@pytest.mark.parametrize("attention", [False, True])
def test_training_loops_match_written_out_steps_bitwise(attention):
    # N = 5 rows at batch 8: every step draws rows more than once
    def field():
        cfg = flow.VectorFieldConfig(2, 3, 8, attention=attention, seq_len=4)
        model = flow.init_flow_model(cfg, RngStream(21))
        for name, value in model.params.items():
            value += 0.1 * RngStream(22).substream(name).normal(value.shape)
        return model

    data = RngStream(23).normal((5, 4, 3))
    noise = RngStream(24).normal((5, 4, 3))
    settings = dict(_RF_SETTINGS, steps=30, batch=8, warmup=5)
    runs = (
        (lambda m: _reference_rf(m, data, RngStream(25), **settings),
         lambda m: flow.train_rf(m, data, RngStream(25), **settings)[1]),
        (lambda m: _reference_reflow(m, data, noise, RngStream(26), **settings),
         lambda m: flow.train_reflow(m, data, noise, RngStream(26), **settings)[1]),
    )
    for reference, train in runs:
        expected, model = field(), field()
        assert train(model) == reference(expected)
        for name, value in expected.params.items():
            assert np.array_equal(model.params[name], value), name


def _step_batch(model, n, length, seed):
    """A float32 batch (x0, x1, t) for model and the same values in float64."""
    rng = RngStream(seed)
    shape = (n, length, model.cfg.width)
    batch = _float32(rng.substream("x0").normal(shape), rng.substream("x1").normal(shape),
                     rng.substream("t").uniform(n))
    return batch, [a.astype(np.float64) for a in batch]


@pytest.mark.parametrize("length", [20, 21])
@pytest.mark.parametrize("attention", [False, True])
def test_float32_step_matches_float64_step(attention, length):
    # One step at batch 64, width 8, hidden 64, depth 2 on one batch, in
    # float32 and in float64. Measured over the four cases: the loss agrees
    # within 1.8e-9 relative, and each gradient key within 1.44e-6 of that
    # key's float64 maximum (1.22e-6 without attention). The bounds, 2e-8 and
    # 5e-6, were set from those figures.
    model = _perturbed_model(
        flow.VectorFieldConfig(2, 8, 64, attention=attention, seq_len=length), 31
    )
    batch32, batch64 = _step_batch(model, 64, length, 32)
    loss32, grads32 = flow.cfm_loss(model, *batch32)
    loss64, grads64 = flow.cfm_loss(model, *batch64)
    assert abs(loss32 - loss64) <= 2e-8 * loss64
    assert list(grads32) == list(grads64) == list(model.params)
    for name, want in grads64.items():
        assert grads32[name].dtype == np.float64, name
        assert np.abs(grads32[name] - want).max() <= 5e-6 * np.abs(want).max(), name


@pytest.mark.parametrize("attention", [False, True])
def test_float32_step_peak_is_under_six_tenths_of_float64(attention):
    # At 64 x 20 x 8, hidden 64, depth 2 the float32 step peaked at 0.51 of
    # the float64 step's, with attention and without.
    model = _perturbed_model(flow.VectorFieldConfig(2, 8, 64, attention=attention, seq_len=20), 33)
    batch32, batch64 = _step_batch(model, 64, 20, 34)
    peak32 = _traced_peak(lambda: flow.cfm_loss(model, *batch32))
    peak64 = _traced_peak(lambda: flow.cfm_loss(model, *batch64))
    assert peak32 <= 0.6 * peak64


def test_training_loops_hand_cfm_loss_float32_batches(monkeypatch):
    cfm_loss = flow.cfm_loss
    dtypes = []

    def spy(model, x0, x1, t):
        dtypes.append((x0.dtype, x1.dtype, t.dtype))
        return cfm_loss(model, x0, x1, t)

    monkeypatch.setattr(flow, "cfm_loss", spy)
    model = _step_model(2, 3, 8, 35)
    data = RngStream(36).normal((5, 4, 3))
    settings = dict(_RF_SETTINGS, steps=3, batch=4)
    flow.train_rf(model, data, RngStream(37), **settings)
    flow.train_reflow(model, data, data[::-1], RngStream(38), **settings)
    assert dtypes == [(np.float32,) * 3] * 6
    assert all(value.dtype == np.float64 for value in model.params.values())


def test_flow_forward_keeps_its_lanes_dtype():
    # sampling's float64 lanes stay float64; a float32 batch is evaluated in
    # float32 on float32 copies of the parameters
    model = _step_model(2, 4, 16, 39)
    x = np.random.default_rng(40).normal(size=(3, 5, 4))
    assert flow.flow_forward(model, x, 0.5).dtype == np.float64
    v, cache = flow.flow_forward(model, x, np.full(3, 0.5), need_cache=True)
    assert v.dtype == np.float64 and cache[-1] is model.params
    v32, cache = flow.flow_forward(model, x.astype(np.float32), 0.5, need_cache=True)
    assert v32.dtype == np.float32
    assert {value.dtype for value in cache[-1].values()} == {np.dtype(np.float32)}
    assert np.allclose(v32, v, rtol=1e-5, atol=1e-5)


def test_reflow_pairs_deterministic_and_per_pair():
    cfg = flow.VectorFieldConfig(2, 2, 8, attention=False, seq_len=None)
    model = flow.init_flow_model(cfg, RngStream(3))
    model.params["block0.b2"] = np.array([0.5, -0.5])
    sc = _solver(method="euler", steps=4)
    z0, z1 = flow.reflow_pairs(model, sc, 3, RngStream(99).substream("pairs"))
    again = flow.reflow_pairs(model, sc, 3, RngStream(99).substream("pairs"))
    assert np.array_equal(z0, again[0])
    assert np.array_equal(z1, again[1])
    assert z0.shape == z1.shape == (3, 1, cfg.width)
    # one pair re-solves independently of the rest of the batch
    noise = RngStream(99).substream("pairs").substream("pair1").normal((1, cfg.width))

    def field(x, t):
        return flow.flow_forward(model, x[None], np.full(1, t))[0]

    solo = ode.solve(field, noise, sc)
    assert np.array_equal(z1[1], noise)
    assert np.array_equal(z0[1], solo.x0)


def test_reflow_empty_coupling_rejected():
    cfg = flow.VectorFieldConfig(2, 2, 8, attention=False, seq_len=None)
    model = flow.init_flow_model(cfg, RngStream(0))
    sc = _solver(method="euler", steps=2)
    for m in (0, -1):
        with pytest.raises(ValueError):
            flow.reflow_pairs(model, sc, m, RngStream(0))
    empty = np.zeros((0, 1, 2))
    with pytest.raises(ValueError):
        flow.train_reflow(model, empty, empty, RngStream(0), steps=1, batch=2, **_RF_SETTINGS)
    with pytest.raises(ValueError):
        flow.straightness(model, empty, empty)


def test_straightness_manual_value():
    cfg = flow.VectorFieldConfig(2, 2, 8, attention=False, seq_len=None)
    model = flow.init_flow_model(cfg, RngStream(0))  # v(x, t) = x
    gen = np.random.default_rng(13)
    z0 = gen.normal(size=(5, 1, 2))
    z1 = gen.normal(size=(5, 1, 2))
    u = z1 - z0
    total = 0.0
    for t in (0 / 7, 1 / 7, 2 / 7, 3 / 7, 4 / 7, 5 / 7, 6 / 7, 7 / 7):  # the 8-point grid
        z_t = t * z1 + (1 - t) * z0
        total += float(((u - z_t) ** 2).mean())
    assert flow.straightness(model, z0, z1) == pytest.approx(total / 8, rel=1e-12)


def test_straightness_positive_for_curved_field():
    # the identity field dx/dt = x has curved trajectories x(t) = z1*e^{t-1},
    # so straightness over its own couplings must be strictly positive
    cfg = flow.VectorFieldConfig(2, 2, 8, attention=False, seq_len=None)
    model = flow.init_flow_model(cfg, RngStream(1))
    sc = _solver(method="dopri5-fixed", steps=10)
    z0, z1 = flow.reflow_pairs(model, sc, 4, RngStream(5))
    val = flow.straightness(model, z0, z1)
    assert val > 0.0
