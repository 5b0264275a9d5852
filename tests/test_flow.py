"""Vector-field network, CFM objective, 1-RF training, and reflow couplings."""

import numpy as np
import pytest

from protflow import flow, ode
from protflow.config import SIZE_CAP
from protflow.errors import ShapeMismatch
from protflow.numeric import RngStream, grad_check

# train_rf's and train_reflow's optimizer settings before config.SCHEMA held
# the only defaults; the tests below were tuned at them
_RF_SETTINGS = dict(lr=1e-3, lr_min=2e-4, warmup=100, weight_decay=0.01, clip=1.0)


def test_config_validation():
    with pytest.raises(ValueError):
        flow.VectorFieldConfig(0, 2, 8)
    with pytest.raises(ValueError):
        flow.VectorFieldConfig(2, 2, 8, attention=True)  # needs seq_len
    with pytest.raises(ValueError):
        flow.VectorFieldConfig(2, 2, 8, time_dim=7)
    # sizes are ints (not bools or floats) up to the cap, attention a bool and
    # time_scale a number (not a bool) in (0, float max]
    bad = [dict(depth=1.0), dict(width=True), dict(hidden=SIZE_CAP + 1),
           dict(time_dim=SIZE_CAP + 2), dict(attention=1), dict(seq_len=4.0),
           dict(time_scale=10**400), dict(time_scale=True)]
    for change in bad:
        with pytest.raises(ValueError):
            flow.VectorFieldConfig(**{"depth": 2, "width": 2, "hidden": 8, **change})
    cfg = flow.VectorFieldConfig(2, 2, 8)
    assert cfg.time_dim == 8  # floor of 8
    assert flow.VectorFieldConfig(2, 10, 8).time_dim == 10
    assert flow.VectorFieldConfig(2, 9, 8).time_dim == 10  # rounded even


def test_config_dict_round_trip():
    cfg = flow.VectorFieldConfig(3, 4, 16, attention=True, seq_len=5, time_dim=12)
    back = flow.VectorFieldConfig.from_dict(cfg.to_dict())
    assert back.to_dict() == cfg.to_dict()


def test_init_is_identity_map():
    cfg = flow.VectorFieldConfig(4, 3, 16)
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
    cfg = flow.VectorFieldConfig(3, 2, 6)
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
def test_training_cache_holds_two_hidden_arrays_per_block(attention):
    # the cache keeps a and tanh(a) per block; gelu(a) is rebuilt in backward
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
    assert shapes.count((n, length, hidden)) == 2 * cfg.depth


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
    cfg = flow.VectorFieldConfig(2, 2, 4)
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
    cfg = flow.VectorFieldConfig(2, 4, 8)
    model = flow.init_flow_model(cfg, RngStream(0))
    c = np.array([0.3, -1.2, 0.05, 2.0])
    model.params["block0.b2"] = -c
    eps = np.random.default_rng(10).normal(size=(3, 2, 4))
    v = flow.flow_forward(model, eps, 1.0)
    assert np.allclose(v, eps - c, atol=1e-15)

    def field(x, t):
        return flow.flow_forward(model, x, np.full(x.shape[0], t))

    res = ode.solve(field, eps, ode.SolverConfig(method="euler", steps=1))
    assert np.allclose(res.x0, np.broadcast_to(c, eps.shape), atol=1e-12)


def test_train_rf_reduces_loss():
    rng = RngStream(11)
    data = rng.substream("data").normal((256, 1, 2)) * 0.5 + 1.0
    cfg = flow.VectorFieldConfig(2, 2, 16)
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
    cfg = flow.VectorFieldConfig(2, 2, 8)
    model = flow.init_flow_model(cfg, RngStream(0))
    with pytest.raises(ValueError):
        flow.train_rf(model, np.zeros((0, 1, 2)), RngStream(0), steps=1, batch=4, **_RF_SETTINGS)


def test_ema_fold_in_keeps_params_near_init():
    rng = RngStream(12)
    data = rng.substream("data").normal((64, 1, 2))
    cfg = flow.VectorFieldConfig(2, 2, 8)

    def flat(params):
        return np.concatenate([v.ravel() for v in params.values()])

    def run(decay):
        model = flow.init_flow_model(cfg, RngStream(7))
        model, _ = flow.train_rf(model, data, RngStream(1), steps=100, batch=16,
                                 **dict(_RF_SETTINGS, lr=5e-3, warmup=5), ema_decay=decay)
        return flat(model.params)

    init_vec = flat(flow.init_flow_model(cfg, RngStream(7)).params)
    raw = run(0.0)
    averaged = run(0.9999999)  # EMA this slow barely moves from init
    assert np.linalg.norm(raw - init_vec) > 10 * np.linalg.norm(averaged - init_vec)


def test_reflow_pairs_deterministic_and_per_pair():
    cfg = flow.VectorFieldConfig(2, 2, 8)
    model = flow.init_flow_model(cfg, RngStream(3))
    model.params["block0.b2"] = np.array([0.5, -0.5])
    sc = ode.SolverConfig(method="euler", steps=4)
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
    cfg = flow.VectorFieldConfig(2, 2, 8)
    model = flow.init_flow_model(cfg, RngStream(0))
    sc = ode.SolverConfig(method="euler", steps=2)
    for m in (0, -1):
        with pytest.raises(ValueError):
            flow.reflow_pairs(model, sc, m, RngStream(0))
    empty = np.zeros((0, 1, 2))
    with pytest.raises(ValueError):
        flow.train_reflow(model, empty, empty, RngStream(0), steps=1, batch=2, **_RF_SETTINGS)
    with pytest.raises(ValueError):
        flow.straightness(model, empty, empty, 4)


def test_straightness_manual_value():
    cfg = flow.VectorFieldConfig(2, 2, 8)
    model = flow.init_flow_model(cfg, RngStream(0))  # v(x, t) = x
    gen = np.random.default_rng(13)
    z0 = gen.normal(size=(5, 1, 2))
    z1 = gen.normal(size=(5, 1, 2))
    n_t = 4
    u = z1 - z0
    total = 0.0
    for t in np.linspace(0.0, 1.0, n_t):
        z_t = t * z1 + (1 - t) * z0
        total += float(((u - z_t) ** 2).mean())
    assert flow.straightness(model, z0, z1, n_t) == pytest.approx(total / n_t, rel=1e-12)
    with pytest.raises(ValueError):
        flow.straightness(model, z0, z1, 1)


def test_straightness_positive_for_curved_field():
    # the identity field dx/dt = x has curved trajectories x(t) = z1*e^{t-1},
    # so straightness over its own couplings must be strictly positive
    cfg = flow.VectorFieldConfig(2, 2, 8)
    model = flow.init_flow_model(cfg, RngStream(1))
    sc = ode.SolverConfig(method="dopri5-fixed", steps=10)
    z0, z1 = flow.reflow_pairs(model, sc, 4, RngStream(5))
    val = flow.straightness(model, z0, z1, 6)
    assert val > 0.0
