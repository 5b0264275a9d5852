"""Fixed and adaptive integrators, NFE accounting, and batch sampling."""

import math
import tracemalloc

import numpy as np
import pytest

from protflow import flow, latent, multichain, ode
from protflow.config import SCHEMA, solver_config
from protflow.errors import ConfigError, NfeBudgetExceeded, NonFiniteState, StepUnderflow
from protflow.flow import VectorFieldConfig, init_flow_model
from protflow.numeric import RngStream
from protflow.seqio import LengthDistribution


def _solver(**settings):
    """The SolverConfig of settings, and config.SCHEMA's default for each other one."""
    return solver_config({"solver." + name: value for name, value in settings.items()})


def test_solver_config_normalizes_and_validates():
    defaults = {name: SCHEMA["solver." + name][1] for name in ode.SETTINGS}
    cfg = ode.SolverConfig(**{**defaults, "method": "dopri5"})
    assert cfg.method == "dopri5-fixed"
    assert ode.SolverConfig(**{**defaults, "method": "euler"}).method == "euler"
    assert ode.SolverConfig(**{**defaults, "method": "dopri5-adaptive", "steps": 100}).steps == 100
    # an integer tolerance is a number, kept as its float
    tol = ode.SolverConfig(**{**defaults, "atol": 1, "rtol": 2e-3})
    assert (tol.atol, tol.rtol) == (1.0, 2e-3) and type(tol.atol) is float
    bad = [
        {"method": "rk4"},
        {"method": 5},
        {"method": None},
        {"method": ["euler"]},
        *({"method": m, "steps": s} for m in ode.METHODS for s in (0, 101)),
        {"steps": True},
        {"steps": 7.0},
        {"steps": 2.7},
        {"steps": "7"},
        {"steps": [3]},
        *({key: value} for key in ("atol", "rtol")
          for value in (True, False, "1e-6", math.nan, math.inf, 0, 0.0, -1, -1e-6, 10**400)),
    ]
    for kwargs in bad:
        with pytest.raises(ConfigError):
            ode.SolverConfig(**{**defaults, **kwargs})


def test_euler_linear_field_closed_form():
    x1 = np.array([2.0, -3.0, 0.5])
    for n in (1, 4, 25):
        res = ode.solve(lambda x, t: x, x1, _solver(method="euler", steps=n))
        expected = x1 * (1.0 - 1.0 / n) ** n
        assert np.allclose(res.x0, expected, atol=1e-14)
        assert res.nfe == n
    with pytest.raises(ConfigError):
        ode.solve(lambda x, t: x, x1, _solver(method="euler", steps=0))


def test_euler_one_step_subtracts_field_at_t1():
    x1 = np.array([1.0, 2.0])
    one_step = _solver(method="euler", steps=1)
    res = ode.solve(lambda x, t: x - np.array([5.0, 5.0]), x1, one_step)
    # x0 = x1 - 1*(x1 - c) = c exactly
    assert np.array_equal(res.x0, np.array([5.0, 5.0]))


def test_dopri5_fixed_exponential_accuracy_and_nfe():
    x1 = np.array([1.0, -2.0])
    for n in (5, 25):
        res = ode.solve(lambda x, t: x, x1, _solver(steps=n))
        assert res.nfe == 6 * n
        assert np.max(np.abs(res.x0 - x1 * math.exp(-1.0))) < 1e-7


def test_dopri5_fixed_single_step_quartic_exact():
    # v depends on t alone as a degree-4 polynomial; a 5th-order method
    # integrates it exactly: x0 = x1 - integral_0^1 (t^4 + t + 1) dt
    x1 = np.array([0.25])

    def v(x, t):
        return np.array([t**4 + t + 1.0])

    res = ode.solve(v, x1, _solver(steps=1))
    expected = x1 - (1.0 / 5.0 + 1.0 / 2.0 + 1.0)
    assert np.max(np.abs(res.x0 - expected)) < 1e-12
    assert res.nfe == 6


def test_dopri5_adaptive_accuracy_and_nfe_accounting():
    x1 = np.array([3.0, -1.0, 0.125])
    cfg = _solver(method="dopri5-adaptive", atol=1e-8, rtol=1e-8)
    res = ode.solve(lambda x, t: x, x1, cfg)
    assert np.max(np.abs(res.x0 - x1 * math.exp(-1.0))) < 1e-7
    assert res.nfe == 1 + 6 * (res.accepted + res.rejected)
    assert res.accepted > 0


def test_adaptive_tightening_tolerance_reduces_error():
    x1 = np.array([1.0])
    errs = []
    for tol in (1e-4, 1e-10):
        cfg = _solver(method="dopri5-adaptive", atol=tol, rtol=tol)
        res = ode.solve(lambda x, t: np.sin(3.0 * t) * x, x1, cfg)
        # closed form: x(0) = x1 * exp(-(1 - cos(3))/3) integrated 1 -> 0
        exact = x1 * math.exp(-(1.0 - math.cos(3.0)) / 3.0)
        errs.append(float(np.abs(res.x0 - exact)[0]))
    assert errs[1] < errs[0]
    assert errs[1] < 1e-10


def test_adaptive_nfe_budget(monkeypatch):
    monkeypatch.setattr(ode, "MAX_NFE", 10)
    cfg = _solver(method="dopri5-adaptive", atol=1e-12, rtol=1e-12)
    with pytest.raises(NfeBudgetExceeded):
        ode.solve(lambda x, t: np.sin(100 * t) * x, np.ones(3), cfg)


def test_adaptive_step_underflow():
    def nasty(x, t):
        return np.array([1e16 * math.sin(1e12 * t)])

    cfg = _solver(method="dopri5-adaptive", atol=1e-10, rtol=1e-10)
    with pytest.raises(StepUnderflow):
        ode.solve(nasty, np.array([1.0]), cfg)


def test_non_finite_state_raises():
    with pytest.raises(NonFiniteState):
        ode.solve(lambda x, t: x * np.inf, np.ones(2), _solver(method="euler", steps=4))
    with pytest.raises(NonFiniteState):
        ode.solve(lambda x, t: x * np.nan, np.ones(2), _solver(steps=2))


def test_solve_dispatches_by_method():
    x1 = np.array([1.0])
    r_euler = ode.solve(lambda x, t: x, x1, _solver(method="euler", steps=10))
    assert r_euler.nfe == 10
    r_fixed = ode.solve(lambda x, t: x, x1, _solver(method="dopri5", steps=10))
    assert r_fixed.nfe == 60
    r_ad = ode.solve(
        lambda x, t: x, x1, _solver(method="dopri5-adaptive", atol=1e-6, rtol=1e-6)
    )
    assert r_ad.nfe == 1 + 6 * (r_ad.accepted + r_ad.rejected)


def _tiny_layout(rng):
    """The one-chain layout of a single-chain corpus: the unnamed chain."""
    enc = latent.init_encoder(8, rng.substream("enc"), embed_scale=5.0, embed_rank=3)
    dec = latent.init_decoder(8, 8, rng.substream("dec"))
    rows = rng.substream("rows").normal((30, 8))
    stats = latent.fit_smoothing(rows)
    comp = latent.init_compressor(8, 2, rng.substream("comp"))
    pipe = latent.LatentPipeline(enc, dec, stats, comp)
    return multichain.ChainLayout([multichain.ChainSpec("", 4, pipe)])


def test_sample_batch_order_independent():
    rng = RngStream(17)
    layout = _tiny_layout(rng)
    cfg = VectorFieldConfig(2, 4, 8, attention=False, seq_len=None)
    model = init_flow_model(cfg, rng.substream("model"))
    ld = {"": LengthDistribution([2, 3, 4], [1, 2, 1])}
    sc = _solver(method="dopri5", steps=4)
    samples3, stats3 = multichain.sample_multichain(model, layout, ld, 3, sc, RngStream(5))
    samples5, stats5 = multichain.sample_multichain(model, layout, ld, 5, sc, RngStream(5))
    assert all(len(sample) == 1 for sample in samples5)
    seqs3 = [s for (s,) in samples3]
    seqs5 = [s for (s,) in samples5]
    assert seqs5[:3] == seqs3
    assert stats3["mean_nfe"] == 24.0  # 6 * 4 fixed-grid evaluations
    assert stats5["n"] == 5
    assert all(nfe == 24 for nfe in stats5["nfes"])
    assert all(2 <= len(s) <= 4 for s in seqs5)


def test_sample_batch_rejects_nonpositive_n():
    rng = RngStream(18)
    layout = _tiny_layout(rng)
    cfg = VectorFieldConfig(2, 4, 8, attention=False, seq_len=None)
    model = init_flow_model(cfg, rng.substream("model"))
    ld = {"": LengthDistribution([2], [1])}
    with pytest.raises(ValueError):
        multichain.sample_multichain(model, layout, ld, 0, _solver(), RngStream(0))


# --- lane-batched solves ---------------------------------------------------------


def _decay(x, t):
    """One state [y, w]: dy/dt = w*y + w*w*t^3, dw/dt = 0. Stiffer lanes (larger
    w) need more adaptive steps. Only + and *, so lane arithmetic is exact."""
    y, w = x[0], x[1]
    return np.array([w * y + w * w * t * t * t, 0.0])


def _decay_lanes(x, t):
    y, w = x[:, 0], x[:, 1]
    return np.stack([w * y + w * w * t * t * t, np.zeros_like(y)], axis=1)


@pytest.mark.parametrize(
    "cfg",
    [
        _solver(method="euler", steps=9),
        _solver(method="dopri5", steps=5),
        _solver(method="dopri5-adaptive", atol=1e-8, rtol=1e-8),
    ],
    ids=lambda c: c.method,
)
def test_solve_lanes_match_one_lane_solves(cfg):
    x1 = np.array([[1.0, 0.5], [-2.0, 4.0], [0.25, 12.0], [3.0, 1.5]])
    lanes = ode.solve_lanes(_decay_lanes, x1, cfg)
    assert lanes.x0.shape == x1.shape
    for i in range(len(x1)):
        solo = ode.solve(_decay, x1[i], cfg)
        assert np.array_equal(lanes.x0[i], solo.x0)
        assert (lanes.nfe[i], lanes.accepted[i], lanes.rejected[i]) == (
            solo.nfe, solo.accepted, solo.rejected
        )
    if cfg.method == "dopri5-adaptive":
        # lanes finish after different step counts; each lane's NFE is its own
        assert len(set(lanes.nfe.tolist())) == len(x1)
        assert np.all(lanes.nfe == 1 + 6 * (lanes.accepted + lanes.rejected))
        assert lanes.rejected.sum() > 0


def test_solve_lanes_failures_name_the_lane(monkeypatch):
    # lane 0 finishes in 19 evaluations, lane 1 would need thousands
    x1 = np.array([[1.0, 0.01], [1.0, 400.0]])
    monkeypatch.setattr(ode, "MAX_NFE", 200)
    tight = _solver(method="dopri5-adaptive", atol=1e-8, rtol=1e-8)
    with pytest.raises(NfeBudgetExceeded, match="lane 1"):
        ode.solve_lanes(_decay_lanes, x1, tight)

    def blow_up(x, t):
        out = _decay_lanes(x, t)
        out[x[:, 1] > 100.0] = np.nan
        return out

    with pytest.raises(NonFiniteState, match="lane 1"):
        ode.solve_lanes(blow_up, x1, _solver(method="euler", steps=3))
    with pytest.raises(ValueError):
        ode.solve_lanes(_decay_lanes, np.zeros((0, 2)), _solver())


@pytest.mark.parametrize("method", ["euler", "dopri5", "dopri5-adaptive"])
def test_flow_lanes_agree_with_one_lane_solves(method):
    # A batch's matrix products may round differently from batch-1 ones, so
    # states agree to 1e-12 while steps and NFE stay identical per lane.
    from protflow.flow import flow_forward

    cfg = VectorFieldConfig(2, 8, 32, attention=False, seq_len=None)
    model = init_flow_model(cfg, RngStream(21))
    for key, val in model.params.items():
        model.params[key] = val + 0.2 * RngStream(22).substream(key).normal(val.shape)
    sc = ode.SolverConfig(method=method, steps=6, atol=1e-5, rtol=1e-5)
    x1 = RngStream(23).normal((5, 6, 8))
    lanes = ode.solve_lanes(lambda x, t: flow_forward(model, x, t), x1, sc)
    again = ode.solve_lanes(lambda x, t: flow_forward(model, x, t), x1, sc)
    assert np.array_equal(lanes.x0, again.x0)
    for i in range(len(x1)):
        solo = ode.solve(lambda x, t: flow_forward(model, x[None], np.full(1, t))[0], x1[i], sc)
        assert np.max(np.abs(lanes.x0[i] - solo.x0)) <= 1e-12
        assert (lanes.nfe[i], lanes.accepted[i], lanes.rejected[i]) == (
            solo.nfe, solo.accepted, solo.rejected
        )


# --- reference integrators -------------------------------------------------------
# The integrators as first written: each stage combines k_i = -v_i with the
# tableau weights and the adaptive loop counts NFE per lane and per call. The
# solver folds the sign into the weights and counts once for all running lanes;
# every result must be bitwise the same.


def _ref_stage(v, x, s, h, h_x, ks, i, c, a):
    xi = x
    if i:
        acc = a[i][0] * ks[0]
        for j in range(1, i):
            acc = acc + a[i][j] * ks[j]
        xi = x + h_x * acc
    t = np.broadcast_to(1.0 - (s + c[i] * h), x.shape[:1])
    return -v(xi, t)


def _ref_fixed_grid(v, x, n_steps, c, a, b):
    h = 1.0 / n_steps
    ks = [None] * len(c)
    for step in range(n_steps):
        for i in range(len(c)):
            ks[i] = _ref_stage(v, x, step * h, h, h, ks, i, c, a)
        incr = b[0] * ks[0]
        for i in range(1, len(b)):
            incr = incr + b[i] * ks[i]
        x = x + h * incr
    steps = np.full(x.shape[0], n_steps)
    return x, len(c) * steps, steps, 0 * steps


def _ref_adaptive(v, x, atol, rtol, max_nfe):
    c, a = np.array(ode._C), [np.array(row) for row in ode._A]
    b5, err_w = np.array(ode._B5), np.array(ode._B5) - np.array(ode._B4)
    n = x.shape[0]
    x_end = x.copy()
    nfe, accepted, rejected = (np.zeros(n, dtype=np.int64) for _ in range(3))
    lanes = np.arange(n)
    s, h, err_old = np.zeros(n), np.full(n, 0.1), np.full(n, 1e-4)
    lane_shape = (-1,) + (1,) * (x.ndim - 1)
    alpha, beta = 0.7 / 5.0, 0.4 / 5.0

    def field(x_val, t):
        nfe[lanes] += 1
        over = nfe[lanes] > max_nfe
        if over.any():
            raise NfeBudgetExceeded(
                f"nfe exceeded budget {max_nfe} in lane {int(lanes[np.argmax(over)])}"
            )
        return v(x_val, t)

    k = [None] * 7
    k[0] = _ref_stage(field, x, s, h, None, k, 0, c, a)
    while lanes.size:
        h = np.minimum(h, 1.0 - s)
        h_x = h.reshape(lane_shape)
        for i in range(1, 7):
            k[i] = _ref_stage(field, x, s, h, h_x, k, i, c, a)
        incr = b5[0] * k[0]
        err_incr = err_w[0] * k[0]
        for i in range(1, 7):
            incr = incr + b5[i] * k[i]
            err_incr = err_incr + err_w[i] * k[i]
        x_new = x + h_x * incr
        scale = atol + rtol * np.maximum(np.abs(x), np.abs(x_new))
        err = np.sqrt(((h_x * err_incr / scale) ** 2).reshape(lanes.size, -1).mean(axis=1))
        ok = err <= 1.0
        s = np.where(ok, s + h, s)
        x = np.where(ok.reshape(lane_shape), x_new, x)
        k[0] = np.where(ok.reshape(lane_shape), k[6], k[0])
        accepted[lanes[ok]] += 1
        rejected[lanes[~ok]] += 1
        for j, e in enumerate(err.tolist()):
            if e <= 1.0:
                factor = 5.0 if e == 0.0 else 0.9 * e ** -alpha * float(err_old[j]) ** beta
                h[j] *= min(max(factor, 0.2), 5.0)
                err_old[j] = max(e, 1e-4)
            else:
                h[j] *= min(max(0.9 * e ** (-1.0 / 5.0), 0.2), 1.0)
        done = s >= 1.0
        x_end[lanes[done]] = x[done]
        keep = ~done
        lanes, x, s, h = lanes[keep], x[keep], s[keep], h[keep]
        err_old, k[0] = err_old[keep], k[0][keep]
    return x_end, nfe, accepted, rejected


def _ref_solve(v, x1, cfg):
    if cfg.method == "dopri5-adaptive":
        return _ref_adaptive(v, x1, cfg.atol, cfg.rtol, ode.MAX_NFE)
    c, a = np.array(ode._C), [np.array(row) for row in ode._A]
    if cfg.method == "euler":
        return _ref_fixed_grid(v, x1, cfg.steps, c[:1], a[:1], np.array([1.0]))
    return _ref_fixed_grid(v, x1, cfg.steps, c[:6], a[:6], np.array(ode._B5[:6]))


def _perturbed_flow(seed, **cfg):
    from protflow.flow import flow_forward

    model = init_flow_model(
        VectorFieldConfig(3, 8, 16, attention=False, seq_len=None, **cfg), RngStream(seed)
    )
    for key, val in model.params.items():
        model.params[key] = val + 0.3 * RngStream(seed + 1).substream(key).normal(val.shape)
    return lambda x, t: flow_forward(model, x, t)


@pytest.mark.parametrize("n", [1, 2, 5])
@pytest.mark.parametrize(
    "cfg",
    [
        _solver(method="euler", steps=7),
        _solver(method="dopri5", steps=3),
        _solver(method="dopri5-adaptive", atol=1e-5, rtol=1e-5),
    ],
    ids=lambda c: c.method,
)
def test_solve_lanes_bitwise_matches_reference_integrators(cfg, n):
    v = _perturbed_flow(31)
    x1 = RngStream(32 + n).normal((n, 6, 8))
    got = ode.solve_lanes(v, x1, cfg)
    x0, nfe, accepted, rejected = _ref_solve(v, x1, cfg)
    assert got.x0.tobytes() == x0.tobytes()
    assert got.nfe.tolist() == nfe.tolist()
    assert got.accepted.tolist() == accepted.tolist()
    assert got.rejected.tolist() == rejected.tolist()
    if cfg.method == "dopri5-adaptive" and n > 1:
        assert got.rejected.sum() > 0  # the rejecting branch ran too


@pytest.mark.parametrize("budget, lane", [(1, 0), (8, 0), (800, 1), (1400, 2)])
def test_nfe_budget_raises_where_the_reference_does(monkeypatch, budget, lane):
    # lane 0 finishes after 799 evaluations and lane 1 after 1363; the budgets
    # were sized for a field whose time features turn at 1000 rad per unit t
    v = _perturbed_flow(41, time_scale=1000.0)
    x1 = RngStream(42).normal((3, 6, 8))
    x1[0] *= 40.0
    monkeypatch.setattr(ode, "MAX_NFE", budget)
    cfg = _solver(method="dopri5-adaptive", atol=1e-4, rtol=1e-4)
    outcomes = []
    for solver in (ode.solve_lanes, _ref_solve):
        calls = []

        def counted(x, t):
            calls.append(x.shape[0])
            return v(x, t)

        with pytest.raises(NfeBudgetExceeded, match=f"in lane {lane}$") as info:
            solver(counted, x1, cfg)
        outcomes.append((str(info.value), calls))
    assert outcomes[0] == outcomes[1]


# --- lane chunks -----------------------------------------------------------------


def _pair_lone_lanes(v):
    """v, evaluating a lone lane as a pair of copies: numpy takes a one-row
    matrix product through gemv, which may round differently from the gemm
    of two or more rows."""

    def paired(x, t):
        if x.shape[0] == 1:
            return v(np.concatenate([x, x]), np.concatenate([t, t]))[:1]
        return v(x, t)

    return paired


@pytest.mark.parametrize(
    "cfg",
    [
        _solver(method="euler", steps=7),
        _solver(method="dopri5", steps=3),
        _solver(method="dopri5-adaptive", atol=1e-5, rtol=1e-5),
    ],
    ids=lambda c: c.method,
)
def test_chunked_solve_matches_one_solve_bitwise(monkeypatch, cfg):
    # 11 lanes in chunks of 4, so the last chunk is short. An adaptive lane
    # can run alone in its chunk while others still run in the whole solve:
    # then only the flow's one-row time projection rounds differently, so
    # the states agree to 1e-12, and bitwise once lone lanes run in pairs.
    v = _perturbed_flow(51)
    paired = _pair_lone_lanes(v)
    x1 = RngStream(52).normal((11, 6, 8))
    whole, whole_paired = ode.solve_lanes(v, x1, cfg), ode.solve_lanes(paired, x1, cfg)
    monkeypatch.setattr(ode, "LANES", 4)
    calls = []

    def counted(x, t):
        calls.append(x.shape[0])
        return v(x, t)

    chunked, chunked_paired = ode.solve_lanes(counted, x1, cfg), ode.solve_lanes(paired, x1, cfg)
    assert max(calls) == 4
    for want, got in ((whole, chunked), (whole_paired, chunked_paired)):
        for count in ("nfe", "accepted", "rejected"):
            assert getattr(got, count).tolist() == getattr(want, count).tolist(), count
        assert np.abs(got.x0 - want.x0).max() <= 1e-12
    assert chunked_paired.x0.tobytes() == whole_paired.x0.tobytes()
    if cfg.method == "dopri5-adaptive":
        assert len(set(whole.nfe.tolist())) > 1  # lanes finish at different steps
    else:  # no chunk of one lane
        assert chunked.x0.tobytes() == whole.x0.tobytes()


def test_chunked_failures_name_the_global_lane(monkeypatch):
    # lanes 0-2 and 4 finish in 19 evaluations; lane 3, in the second chunk
    # of two, would need thousands
    x1 = np.array([[1.0, 0.01]] * 3 + [[1.0, 400.0], [1.0, 0.01]])
    monkeypatch.setattr(ode, "LANES", 2)
    monkeypatch.setattr(ode, "MAX_NFE", 200)
    with pytest.raises(NfeBudgetExceeded, match="in lane 3$"):
        ode.solve_lanes(_decay_lanes, x1, _solver(method="dopri5-adaptive", atol=1e-8, rtol=1e-8))
    with pytest.raises(NfeBudgetExceeded, match="in lane 13$"):
        ode.solve_lanes(
            _decay_lanes, x1, _solver(method="dopri5-adaptive", atol=1e-8, rtol=1e-8),
            first_lane=10,
        )

    def blow_up(x, t):
        out = _decay_lanes(x, t)
        out[x[:, 1] > 100.0] = np.nan
        return out

    for method in ("euler", "dopri5", "dopri5-adaptive"):
        with pytest.raises(NonFiniteState, match="in lane 3$"):
            ode.solve_lanes(blow_up, x1, _solver(method=method, steps=3))


def test_sample_chunks_name_the_global_lane(monkeypatch):
    # sample_multichain solves ode.LANES samples at a time: 6 samples in
    # chunks of 4 and 2 give the samples of one solve, and a failure in the
    # second chunk names the sample's own index
    rng = RngStream(19)
    layout = _tiny_layout(rng)
    model = init_flow_model(
        VectorFieldConfig(2, 4, 8, attention=False, seq_len=None), rng.substream("model")
    )
    ld = {"": LengthDistribution([2, 3], [1, 1])}
    sc = _solver(method="euler", steps=2)
    whole = multichain.sample_multichain(model, layout, ld, 6, sc, RngStream(6))
    monkeypatch.setattr(ode, "LANES", 4)
    assert multichain.sample_multichain(model, layout, ld, 6, sc, RngStream(6)) == whole
    forward = flow.flow_forward

    def poisoned(m, x, t):
        out = forward(m, x, t)
        if x.shape[0] == 2:  # the second chunk, samples 4 and 5
            out[:] = np.nan
        return out

    monkeypatch.setattr(flow, "flow_forward", poisoned)
    with pytest.raises(NonFiniteState, match="in lane 4$"):
        multichain.sample_multichain(model, layout, ld, 6, sc, RngStream(6))


def test_large_adaptive_solve_memory_is_bounded():
    # 4,096 lanes at the shipped single-chain field's shape (L 20, width 8,
    # hidden 64, depth 2): traced peak 11 MiB in chunks of 128 lanes (17 MiB
    # in chunks of 256), of which the 5 MiB result, and 201 MiB in one
    # integration of every lane.
    from protflow.flow import flow_forward

    model = init_flow_model(VectorFieldConfig(2, 8, 64, attention=False, seq_len=None),
                            RngStream(61))
    for key, val in model.params.items():
        model.params[key] = val + 0.1 * RngStream(62).substream(key).normal(val.shape)
    x1 = RngStream(63).normal((4096, 20, 8))
    cfg = _solver(method="dopri5-adaptive", atol=1e-2, rtol=1e-2)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        res = ode.solve_lanes(lambda x, t: flow_forward(model, x, t), x1, cfg)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert res.x0.shape == x1.shape
    assert peak < 16 * 2**20
