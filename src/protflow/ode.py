"""ODE integration of dx/dt = v(x, t) from t=1 (noise) to t=0 (data).

Internally integration runs in s = 1 - t so steps move forward, where the
state moves along -v. The sign is folded into the tableau: stages combine the
field values v with the negated weights, which rounds exactly as the weights
applied to -v. Fixed-step Euler and Dormand-Prince 5(4) in fixed-grid and
adaptive modes are provided. NFE counts vector-field evaluations only.
The fixed-grid DP54 mode needs just the first six stages per step (the
5th-order weight of stage 7 is zero), so its NFE is exactly 6N.

There is one implementation of each integrator, over a leading lane axis:
solve_lanes integrates n independent states with one field call per stage
for every lane still running, and solve, over one state, is its one-lane
case. solve_lanes takes at most LANES lanes per integration, so a solve's
stages and the field's activations are bounded whatever n is.

SolverConfig takes and checks every solver setting (method, steps, atol,
rtol; config.SCHEMA holds their one default), and METHODS is the one list
of methods. An adaptive solve may spend MAX_NFE field evaluations per lane.
"""

import numpy as np

from .errors import ConfigError, NfeBudgetExceeded, NonFiniteState, StepUnderflow
from .numeric import ABOVE_0, FINITE, is_int, is_number

# Dormand-Prince 5(4) tableau
_C = (0.0, 1 / 5, 3 / 10, 4 / 5, 8 / 9, 1.0, 1.0)
_A = (
    (),
    (1 / 5,),
    (3 / 40, 9 / 40),
    (44 / 45, -56 / 15, 32 / 9),
    (19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729),
    (9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656),
    (35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84),
)
_B5 = (35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84, 0.0)
_B4 = (5179 / 57600, 0.0, 7571 / 16695, 393 / 640, -92097 / 339200, 187 / 2100, 1 / 40)
# the weights applied to v rather than to -v: (-a)*v rounds as a*(-v)
_NEG_A = tuple(tuple(-a for a in row) for row in _A)
_NEG_B5 = tuple(-b for b in _B5)
_NEG_ERR = tuple(b4 - b5 for b5, b4 in zip(_B5, _B4))

# solver.method values; "dopri5" names "dopri5-fixed"
METHODS = ("euler", "dopri5", "dopri5-fixed", "dopri5-adaptive")
# the solver settings: SolverConfig's arguments, and the config's solver.* keys
SETTINGS = ("method", "steps", "atol", "rtol")
# the field evaluations an adaptive solve may spend in each lane
MAX_NFE = 100000
# Lanes per integration: a solve's memory grows with its lanes (about 64 KB
# per lane with the shipped single-chain field). On 2 vCPUs, 1,024 lanes of
# that field took 1.7 s CPU (dopri5-adaptive) in chunks of 128, 2.0-2.2 s in
# chunks of 256 and 2.8-3.3 s in one integration.
LANES = 128


def _tolerance(key, value):
    """value as a float, if it is a finite number > 0."""
    if is_number(value, ABOVE_0, FINITE):
        return float(value)
    raise ConfigError(f"{key} must be a finite number > 0, got {value!r}")


class SolverConfig:
    """Solver selection: method, fixed step count, adaptive tolerances.

    This is the one check of the solver.* settings, wherever they come from:
    a config file, sample's flags or a checkpoint's config snapshot. The
    method is a str in METHODS, steps an int in [1, 100] under every method
    (the adaptive solve does not read it), and atol and rtol finite numbers
    > 0. A bool is none of these. Anything else raises ConfigError.
    """

    __slots__ = SETTINGS

    def __init__(self, method, steps, atol, rtol):
        if not isinstance(method, str) or method not in METHODS:
            raise ConfigError(f"solver.method must be one of {', '.join(METHODS)}, got {method!r}")
        self.method = "dopri5-fixed" if method == "dopri5" else method
        if not is_int(steps, 1, 100):
            raise ConfigError(f"solver.steps must be an integer in [1, 100], got {steps!r}")
        self.steps = steps
        self.atol = _tolerance("solver.atol", atol)
        self.rtol = _tolerance("solver.rtol", rtol)


class SolveResult:
    """Endpoint, NFE and step counts of a solve.

    For a single-state solve x0 is the state and nfe/accepted/rejected are
    ints. For solve_lanes x0 has the lanes on its leading axis and the counts
    are (n,) int64 arrays.
    """

    __slots__ = ("x0", "nfe", "accepted", "rejected")

    def __init__(self, x0, nfe, accepted, rejected):
        self.x0 = x0
        self.nfe = nfe
        self.accepted = accepted
        self.rejected = rejected


# (c, a, b) of the explicit fixed-grid schemes, a and b negated
_EULER = (_C[:1], _NEG_A[:1], (-1.0,))
_DP54_FIXED = (_C[:6], _NEG_A[:6], _NEG_B5[:6])


def _check_finite(x, step, lanes):
    if not np.isfinite(x).all():
        lane = lanes[np.argmin(np.isfinite(x.reshape(x.shape[0], -1)).all(axis=1))]
        raise NonFiniteState(f"non-finite state at step {step} in lane {int(lane)}")


def _combine(weights, vs):
    """sum_j weights[j] * vs[j], summed left to right in one fresh array."""
    acc = weights[0] * vs[0]
    for j in range(1, len(weights)):
        acc += weights[j] * vs[j]
    return acc


def _advance(x, h, acc):
    """x + h * acc in acc's buffer; h is a float or broadcasts against x."""
    acc *= h
    acc += x
    return acc


def _fixed_grid(v, x, first, n_steps, tableau):
    """Uniform-grid explicit RK over the lanes of x, numbered from first; NFE
    = stages * N per lane."""
    c, a, b = tableau
    n = x.shape[0]
    lanes = np.arange(first, first + n)
    h = 1.0 / n_steps
    vs = [None] * len(c)
    for step in range(n_steps):
        s = step * h
        for i in range(len(c)):
            xi = _advance(x, h, _combine(a[i], vs)) if i else x
            vs[i] = v(xi, np.full(n, 1.0 - (s + c[i] * h)))
        x = _advance(x, h, _combine(b, vs))
        _check_finite(x, step, lanes)
    steps = np.full(n, n_steps, dtype=np.int64)
    return SolveResult(x, len(c) * steps, accepted=steps, rejected=np.zeros(n, np.int64))


def _dopri5_adaptive(v, x, first, atol, rtol):
    """Embedded 5(4) pair with PI step control and FSAL reuse, per lane; a
    failure names lane i of x as lane first + i.

    Error norm: RMS over a lane's coordinates of err/(atol + rtol*max(|x|,
    |x_new|)). Accept when the norm is <= 1. Step factor safety 0.9,
    exponents 0.7/5 (proportional) and 0.4/5 (integral), clamped to [0.2, 5].

    Every lane keeps its own s, h, previous error and accepted count, and
    stops being evaluated once it reaches s = 1. Every running lane takes
    each field call and each step, so the NFE and step count of the running
    lanes are two ints, checked against the budget per call and stored per
    lane as it finishes. The 5th-order weights are stage 7's row of the
    tableau, so the increment reuses that stage's sum. The step factors use
    Python's float pow: numpy's vectorized power may differ from it by an
    ulp, and a lane's steps should not depend on how it is batched.
    """
    alpha = 0.7 / 5.0
    beta = 0.4 / 5.0
    safety = 0.9

    n = x.shape[0]
    x_end = x.copy()
    nfe, accepted, rejected, lane_accepted = (np.zeros(n, dtype=np.int64) for _ in range(4))
    lanes = np.arange(n)  # lanes still running; the arrays below follow it
    s = np.zeros(n)
    h = np.full(n, 0.1)
    err_old = [1e-4] * n
    lane_shape = (-1,) + (1,) * (x.ndim - 1)
    calls = steps = 0  # taken by every running lane

    def field(x_val, t):
        nonlocal calls
        if calls >= MAX_NFE:
            lane = first + int(lanes[0])
            raise NfeBudgetExceeded(f"nfe exceeded budget {MAX_NFE} in lane {lane}")
        calls += 1
        return v(x_val, t)

    vs = [field(x, np.ones(n))] + [None] * 6
    while lanes.size:
        h = np.minimum(h, 1.0 - s)
        under = h < 1e-10
        if under.any():
            j = int(np.argmax(under))
            lane = first + int(lanes[j])
            raise StepUnderflow(f"step size {h[j]:g} underflowed at s={s[j]:g} in lane {lane}")
        h_x = h.reshape(lane_shape)
        for i in range(1, 7):
            acc = _combine(_NEG_A[i], vs)
            if i == 6:
                incr = acc.copy()  # b5 = a7: the increment up to stage 7's term
            vs[i] = field(_advance(x, h_x, acc), 1.0 - (s + _C[i] * h))
        incr += _NEG_B5[6] * vs[6]
        x_new = _advance(x, h_x, incr)
        _check_finite(x_new, steps, first + lanes)
        steps += 1
        err_vec = h_x * _combine(_NEG_ERR, vs)
        scale = atol + rtol * np.maximum(np.abs(x), np.abs(x_new))
        errs = np.sqrt(((err_vec / scale) ** 2).reshape(lanes.size, -1).mean(axis=1)).tolist()
        ok = np.array([e <= 1.0 for e in errs])
        s = np.where(ok, s + h, s)
        x = np.where(ok.reshape(lane_shape), x_new, x)
        vs[0] = np.where(ok.reshape(lane_shape), vs[6], vs[0])  # FSAL
        lane_accepted += ok
        for j, e in enumerate(errs):
            if e <= 1.0:
                factor = 5.0 if e == 0.0 else safety * e ** (-alpha) * err_old[j] ** beta
                h[j] *= min(max(factor, 0.2), 5.0)
                err_old[j] = max(e, 1e-4)
            else:
                h[j] *= min(max(safety * e ** (-1.0 / 5.0), 0.2), 1.0)
        done = s >= 1.0
        if done.any():
            finished = lanes[done]
            x_end[finished] = x[done]
            nfe[finished] = calls
            accepted[finished] = lane_accepted[done]
            rejected[finished] = steps - lane_accepted[done]
            keep = ~done
            lanes, x, s, h = lanes[keep], x[keep], s[keep], h[keep]
            lane_accepted, vs[0] = lane_accepted[keep], vs[0][keep]
            err_old = [e for e, d in zip(err_old, done.tolist()) if not d]
    return SolveResult(x_end, nfe, accepted=accepted, rejected=rejected)


def solve_lanes(v, x1, config, first_lane=0):
    """Integrate n independent states ("lanes") from t=1 to t=0, at most
    LANES at a time.

    Args:
        v: lane field, v(x, t) -> dx/dt for x of shape (k, ...) and t of
            shape (k,): the k lanes still running, in lane order.
        x1: (n, ...) initial states, n >= 1.
        config: SolverConfig.
        first_lane: the number of lane x1[0]; a failure names its lane
            first_lane + i, so a caller solving in chunks names lanes as one
            solve would.

    Each lane follows the steps a one-lane solve of it would take, with the
    same NFE and accepted/rejected counts; only the field's own arithmetic
    on a larger batch can move the states, by rounding. So the chunks of
    LANES lanes give one solve's states bitwise for a field whose lanes
    round alike in any batch. The flow's are, but for numpy's one-row
    products (gemv, not gemm): a lane that runs alone in its chunk and not
    in one solve over every lane, or the reverse, can move by rounding.
    """
    x1 = np.asarray(x1)
    if x1.ndim < 1 or x1.shape[0] < 1:
        raise ValueError("solve_lanes needs at least one lane")
    tableau = _EULER if config.method == "euler" else _DP54_FIXED
    parts = []
    for start in range(0, x1.shape[0], LANES):
        x = np.array(x1[start : start + LANES], dtype=np.float64)
        if config.method == "dopri5-adaptive":
            parts.append(_dopri5_adaptive(v, x, first_lane + start, config.atol, config.rtol))
        else:
            parts.append(_fixed_grid(v, x, first_lane + start, config.steps, tableau))
    return SolveResult(
        *(np.concatenate([getattr(r, k) for r in parts]) for k in SolveResult.__slots__)
    )


def solve(v, x1, config):
    """Integrate the field from noise (t=1) to data (t=0) per the config.

    v(x, t) takes one state and a float time; this is solve_lanes on one lane,
    and the counts of the result are ints.
    """
    x = np.array(x1, dtype=np.float64)[None]
    res = solve_lanes(lambda xs, ts: v(xs[0], float(ts[0]))[None], x, config)
    return SolveResult(
        res.x0[0],
        int(res.nfe[0]),
        accepted=int(res.accepted[0]),
        rejected=int(res.rejected[0]),
    )
