"""Rectified flow matching: straight-line interpolants, the CFM objective,
the vector-field network, 1-RF training, and reflow.

Convention throughout: t=1 is the noise side, t=0 the data side. The
interpolant is x_t = t*x1 + (1-t)*x0 and the regression target is the
constant path velocity u = x1 - x0, so a perfectly-fit field is integrated
from noise to data by running time 1 -> 0.

The vector field is a stack of per-position residual MLP blocks over width
W: a sinusoidal embedding of t (nn.time_features at the config's
time_scale) is linearly projected and added to each block's input, and the
input of block b (for b < B//2) is linearly projected and added to the
input of block B-1-b (long skips). A single-head self-attention sublayer
per block, plus a learned positional table, can be switched on when
positions must interact (e.g. jointly-modeled chains). VectorFieldConfig is
the one check of those shapes and switches, whether a config (whose SCHEMA
holds model.attention's one default) or a checkpoint's flow_cfg gives them.
"""

import functools
import math

import numpy as np

from . import nn, ode
from .errors import NonFiniteLoss, ShapeMismatch
from .numeric import ABOVE_0, FINITE, SIZE_CAP, is_int, is_number, item_blocks

# Time-feature scale of new fields: the fastest time channel turns TIME_SCALE
# rad per unit t, slow enough for the 25-step grid (h = 0.04) and the
# adaptive solver to resolve. At 1000 its period is 0.006, and adaptive
# sampling of the shipped single-chain flow took about 1,800 evaluations per
# sample against about 80 at 10.
TIME_SCALE = 10.0
# The scale of a flow_cfg that has no "time_scale": every field trained before
# the key existed used it, so such checkpoints sample unchanged.
LEGACY_TIME_SCALE = 1000.0
# Points of straightness's uniform t-grid on [0, 1], both ends included.
STRAIGHTNESS_T = 8
# Row budget of the blocks of items (numeric.item_blocks) in which the flow
# builds its (n, L, hidden) activation: a = u2 @ w1 + b1, GELU and the w2
# product, and in backward gelu'(a). Each is elementwise or a per-item 3-D
# product, so blocks are bitwise the whole array, and a block's temporaries
# stay small where whole-array ones would each be a hidden-size array.
HIDDEN_ROWS = 320
# The dtype of a training step's activations: _fit_cfm casts each step's (x0,
# x1, t) to it, so the step runs at half float64's memory and bandwidth. The
# parameters, their gradients, the optimizer and the loss sum stay float64.
TRAIN_DTYPE = np.float32


class VectorFieldConfig:
    """Shape and feature switches for the vector-field network, and the one
    check of a flow_cfg: a value outside these rules raises ValueError.

    Args:
        depth: number of residual blocks B.
        width: per-position channel count W (the flow operates on (L, W)).
        hidden: MLP hidden width H.
        attention: a bool; enables per-block single-head self-attention.
        seq_len: an int or None, the positional-table length; a nonzero int
            when attention is on.
        time_dim: sinusoidal time-feature width (even); default max(8, W
            rounded up to even).
        time_scale: multiplier of t in the time features, a number in (0,
            float max]; from_dict reads a missing one as LEGACY_TIME_SCALE.

    depth, width, hidden and time_dim are ints (not bools) in [1, SIZE_CAP].
    """

    __slots__ = ("depth", "width", "hidden", "attention", "seq_len", "time_dim", "time_scale")

    def __init__(
        self, depth, width, hidden, attention, seq_len, time_dim=None,
        time_scale=TIME_SCALE,
    ):
        if time_dim is None and is_int(width):
            time_dim = max(8, width + (width % 2))
        sizes = {"depth": depth, "width": width, "hidden": hidden, "time_dim": time_dim}
        for name, size in sizes.items():
            if not is_int(size, 1, SIZE_CAP):
                raise ValueError(f"{name} must be an integer in [1, {SIZE_CAP}], got {size!r}")
        if time_dim % 2 != 0:
            raise ValueError("time_dim must be even")
        if not isinstance(attention, bool):
            raise ValueError(f"attention must be a bool, got {attention!r}")
        if seq_len is not None and not is_int(seq_len):
            raise ValueError(f"seq_len must be an integer or None, got {seq_len!r}")
        if attention and not seq_len:
            raise ValueError("attention requires seq_len for the positional table")
        if not is_number(time_scale, ABOVE_0, FINITE):
            raise ValueError(f"time_scale must be finite and > 0, got {time_scale!r}")
        self.depth = depth
        self.width = width
        self.hidden = hidden
        self.attention = attention
        self.seq_len = seq_len
        self.time_dim = time_dim
        self.time_scale = float(time_scale)

    def to_dict(self):
        return {
            "depth": self.depth,
            "width": self.width,
            "hidden": self.hidden,
            "attention": self.attention,
            "seq_len": self.seq_len,
            "time_dim": self.time_dim,
            "time_scale": self.time_scale,
        }

    @classmethod
    def from_dict(cls, d):
        """The config of a stored flow_cfg; a missing key other than time_scale
        fails its rule."""
        if not isinstance(d, dict):
            raise ValueError(f"a vector-field config is an object, got {d!r}")
        return cls(
            d.get("depth"),
            d.get("width"),
            d.get("hidden"),
            attention=d.get("attention"),
            seq_len=d.get("seq_len"),
            time_dim=d.get("time_dim"),
            time_scale=d.get("time_scale", LEGACY_TIME_SCALE),
        )


class VectorFieldModel:
    """Parameter container; forward/backward live in module functions."""

    __slots__ = ("cfg", "params")

    def __init__(self, cfg, params):
        self.cfg = cfg
        self.params = params


def param_shapes(cfg):
    """Name -> shape of every parameter of the network cfg describes, in
    parameter order."""
    w = cfg.width
    shapes = {"pos": (cfg.seq_len, w)} if cfg.attention else {}
    for b in range(cfg.depth):
        shapes[f"block{b}.tw"] = (cfg.time_dim, w)
        shapes[f"block{b}.tb"] = (w,)
        if cfg.attention:
            shapes.update({f"block{b}.{k}": (w, w) for k in ("wq", "wk", "wv", "wo")})
        shapes[f"block{b}.w1"] = (w, cfg.hidden)
        shapes[f"block{b}.b1"] = (cfg.hidden,)
        shapes[f"block{b}.w2"] = (cfg.hidden, w)
        shapes[f"block{b}.b2"] = (w,)
    for j in range(cfg.depth // 2):
        shapes[f"skip{j}.w"] = (w, w)
    return shapes


def init_flow_model(cfg, rng):
    """Initialize so the network is the identity map: block outputs, skip
    projections, and attention outputs all start at zero, so v(x, t) = x.
    The time, query, key, value and first MLP projections are normal over
    sqrt(fan-in); the positional table is normal times 0.02."""
    sub = rng.substream("flow-init")
    p = {}
    for name, shape in param_shapes(cfg).items():
        block, _, kind = name.rpartition(".")
        if name == "pos":
            p[name] = 0.02 * sub.substream("pos").normal(shape)
        elif kind in ("tw", "wq", "wk", "wv", "w1"):
            p[name] = sub.substream(block).substream(kind).normal(shape) / math.sqrt(shape[0])
        else:
            p[name] = np.zeros(shape)
    return VectorFieldModel(cfg, p)


@functools.lru_cache(maxsize=None)
def _block_names(depth):
    """Per block b: the skip source j (or -1), the name of its projection, and
    the names of the block's parameters. Each block of the second half,
    b >= (depth + 1) // 2, takes the input of block j = depth - 1 - b."""
    kinds = ("tw", "tb", "wq", "wk", "wv", "wo", "w1", "b1", "w2", "b2")
    names = []
    for b in range(depth):
        j = depth - 1 - b if b >= (depth + 1) // 2 else -1
        names.append((j, f"skip{j}.w", tuple(f"block{b}.{k}" for k in kinds)))
    return tuple(names)


def flow_forward(model, x, t, need_cache=False):
    """Evaluate v(x, t).

    Args:
        x: (n, L, W) states. A float32 x is evaluated in float32, anything
            else in float64.
        t: scalar or (n,) times.
        need_cache: also return intermediates for flow_backward.

    Returns:
        v of shape (n, L, W) in x's dtype, or (v, cache) when need_cache.

    The precision is x's: in float32 the parameters are cast once per call
    and the cache carries the copies to flow_backward, and the time features
    are computed in float64 and cast. A float64 x runs on the parameters
    themselves.

    Each block's MLP runs a block of items at a time (HIDDEN_ROWS rows):
    a = u2 @ w1 + b1, gelu(a) and its w2 product into the block output, so
    no call holds a batch-sized a or gelu(a). Per block the cache keeps only
    tanh(a), the costly part of GELU; flow_backward rebuilds a.
    """
    cfg = model.cfg
    p = model.params
    x = np.asarray(x)
    dtype = np.float32 if x.dtype == np.float32 else np.float64
    x = x.astype(dtype, copy=False)
    if x.ndim != 3 or x.shape[2] != cfg.width:
        raise ShapeMismatch(f"expected (n, L, {cfg.width}), got {x.shape}")
    n, length, w = x.shape
    t = np.asarray(t, dtype=np.float64)
    if t.shape != (n,):
        t = np.broadcast_to(t, (n,))
    temb = nn.time_features(t, cfg.time_dim, cfg.time_scale)
    if dtype != np.float64:
        p = {k: v.astype(dtype) for k, v in p.items()}
        temb = temb.astype(dtype)

    stream = x
    if cfg.attention:
        if length != cfg.seq_len:
            raise ShapeMismatch(f"attention model fixed to L={cfg.seq_len}, got {length}")
        stream = stream + p["pos"][None]
    inputs = []
    caches = []
    inv_sqrt_w = 1.0 / math.sqrt(w)
    blocks = item_blocks(n, length, HIDDEN_ROWS)
    # Biases, residuals and the score scale are applied in place to fresh
    # matmul results; each sum adds the operand pair x + y would, so no value moves.
    for j, skip_w, (tw, tb, wq, wk, wv, wo, w1, b1, w2, b2) in _block_names(cfg.depth):
        x_in = stream + inputs[j] @ p[skip_w] if j >= 0 else stream
        inputs.append(x_in)
        tproj = temb @ p[tw]
        tproj += p[tb]
        u = x_in + tproj[:, None, :]
        if cfg.attention:
            q = u @ p[wq]
            k = u @ p[wk]
            vv = u @ p[wv]
            scores = q @ k.transpose(0, 2, 1)
            scores *= inv_sqrt_w
            att = nn.softmax(scores)
            m = att @ vv
            u2 = m @ p[wo]
            u2 += u
        else:
            q = k = vv = att = m = None
            u2 = u
        stream = np.empty(x_in.shape, dtype)
        if need_cache:
            tanh_a = np.empty((n, length, cfg.hidden), dtype)
            caches.append((u, q, k, vv, att, m, u2, tanh_a))
        for items in blocks:
            a = u2[items] @ p[w1]
            a += p[b1]
            nn.gelu_from_tanh(a, nn.gelu_tanh(a, out=tanh_a[items] if need_cache else None), out=a)
            np.matmul(a, p[w2], out=stream[items])
            del a  # else it lives on while the next block's is built
        stream += p[b2]
        stream += x_in
    if need_cache:
        return stream, (x, temb, inputs, caches, p)
    return stream


def _hidden_backward(u2, tanh_a, d_out, w1, b1, w2):
    """z = gelu(a) of a block's MLP, its pre-activation a = u2 @ w1 + b1
    rebuilt by the forward's expression into z's buffer a block of items at
    a time, so z is bitwise the forward's. tanh_a, the cached tanh(a), is
    overwritten with d_a = gelu'(a) * (d_out @ w2.T), the gradient at a of a
    block output z @ w2 with gradient d_out. Returns z."""
    n, length, _ = u2.shape
    z = np.empty(tanh_a.shape, tanh_a.dtype)
    for items in item_blocks(n, length, HIDDEN_ROWS):
        a = np.matmul(u2[items], w1, out=z[items])
        a += b1
        t = tanh_a[items]
        d_a = nn.gelu_grad(a, t)
        d_a *= d_out[items] @ w2.T
        nn.gelu_from_tanh(a, t, out=a)
        t[...] = d_a
        del d_a  # else it lives on while the next block's is built
    return z


def flow_backward(model, cache, dv):
    """Gradients of a scalar loss w.r.t. all parameters, given dL/dv.

    Consumes the cache: each block's entry is popped, its pre-activation a
    is rebuilt a block of items at a time into a buffer that then holds z =
    gelu(a), bitwise the forward's z, and its cached tanh(a) is overwritten
    with the gradient d_a. A block's arrays are dropped once its gradients
    are taken, so the step holds one hidden-size array beyond the cache.

    The backward runs in the forward's precision, on the parameters the
    cache carries, with dv in the same dtype. Each gradient term is added
    into a float64 array, so the result is a dict of float64 arrays keyed
    like model.params whatever the activations' dtype.
    """
    cfg = model.cfg
    x, temb, inputs, caches, p = cache
    n, length, w = x.shape
    inv_sqrt_w = 1.0 / math.sqrt(w)
    grads = {k: np.zeros_like(v) for k, v in model.params.items()}
    d_inputs_extra = [None] * cfg.depth

    def flat(arr):
        return arr.reshape(-1, arr.shape[-1])

    names = _block_names(cfg.depth)
    d_stream = dv
    for b in reversed(range(cfg.depth)):
        j, skip_w, (tw, tb, wq, wk, wv, wo, w1, b1, w2, b2) = names[b]
        u, q, k, vv, att, m, u2, d_a = caches.pop()
        # stream_out = x_in + delta, delta = gelu(a) @ w2 + b2
        d_delta = d_stream
        z = _hidden_backward(u2, d_a, d_delta, p[w1], p[b1], p[w2])
        grads[w2] += flat(z).T @ flat(d_delta)
        del z
        grads[b2] += flat(d_delta).sum(axis=0)
        grads[w1] += flat(u2).T @ flat(d_a)
        grads[b1] += flat(d_a).sum(axis=0)
        d_u2 = d_a @ p[w1].T
        del d_a
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
        # u = x_in + broadcast time projection
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


# --- interpolant and objective --------------------------------------------------


def rf_interpolate(x0, x1, t):
    """Straight-line interpolant x_t = t*x1 + (1-t)*x0; exact at t in {0, 1}.
    It is computed in the floating dtype of x0 and x1, to which t is cast."""
    x0 = np.asarray(x0)
    x1 = np.asarray(x1)
    if x0.shape != x1.shape:
        raise ShapeMismatch(f"x0 {x0.shape} vs x1 {x1.shape}")
    t = np.asarray(t, dtype=np.result_type(x0, x1, 0.0))
    if t.ndim == 1:
        t = t.reshape((-1,) + (1,) * (x0.ndim - 1))
    return t * x1 + (1.0 - t) * x0


def rf_target(x0, x1):
    """Constant path velocity u = x1 - x0 (independent of t), in the dtype
    of x0 and x1."""
    x0 = np.asarray(x0)
    x1 = np.asarray(x1)
    if x0.shape != x1.shape:
        raise ShapeMismatch(f"x0 {x0.shape} vs x1 {x1.shape}")
    return x1 - x0


def cfm_loss(model, x0, x1, t):
    """Conditional flow-matching loss and its parameter gradients.

    Loss is the mean over every scalar of (v(x_t, t) - u)^2, which keeps
    thresholds independent of batch shape. dL/dv = 2 (v - u) / v.size is
    formed in v's buffer.

    The step computes in the dtype of x0 and x1 (see flow_forward): float32
    pairs give a float32 interpolant, forward and backward, float64 pairs
    run every operation in float64. Either way the squares are summed in
    float64 and the gradients are float64.

    Returns:
        (loss, grads dict).
    """
    t = np.asarray(t)
    if np.any(t < 0.0) or np.any(t > 1.0):
        raise ValueError("t values must lie in [0, 1]")
    x_t = rf_interpolate(x0, x1, t)
    u = rf_target(x0, x1)
    v, cache = flow_forward(model, x_t, t, need_cache=True)
    v -= u
    loss = float(np.square(v, dtype=np.float64).mean())
    if not np.isfinite(loss):
        raise NonFiniteLoss("CFM loss is non-finite")
    v *= 2.0 / v.size
    return loss, flow_backward(model, cache, v)


# --- training loops --------------------------------------------------------------


def _fit_cfm(model, n, pairs, stream, steps, batch, lr, lr_min, warmup, weight_decay, clip):
    """nn.fit of the CFM loss at the flow's AdamW constants; returns (model,
    trace). Step s draws batch row indices in [0, n) and t ~ U(0, 1) from
    substream "step{s}" of stream, and pairs(sub, idx) returns its (x0, x1).

    Mixed precision: the step's x0, x1 and t are drawn in float64 and cast
    to TRAIN_DTYPE, so cfm_loss runs its activations in float32, while the
    parameters, gradients, clipping, AdamW moments and loss sum stay float64."""

    def loss_and_grad(step):
        sub = stream.substream(f"step{step}")
        idx = sub.substream("idx").integers(0, n, size=batch)
        x0, x1 = pairs(sub, idx)
        t = sub.substream("t").uniform(batch)
        return cfm_loss(model, *(np.asarray(a, dtype=TRAIN_DTYPE) for a in (x0, x1, t)))

    trace = nn.fit(
        model.params, loss_and_grad, steps, lr, lr_min, warmup, clip, weight_decay,
        betas=(0.9, 0.98), eps=1e-6,
    )
    return model, trace


def train_rf(model, keys, table, rng, steps, batch, lr, lr_min, warmup, weight_decay, clip):
    """1-RF training: x0 from data, x1 ~ N(0, I), t ~ U(0, 1) per step. The
    steps run in _fit_cfm's mixed precision: float32 activations, float64
    parameters, optimizer and loss sum.

    Args:
        model: VectorFieldModel (modified in place).
        keys, table: item i's x0 is table[keys[i]], (N, L) ints into (K, W)
            latent rows (latent.table_keys); a raw (N, L, W) array is its
            (N * L, W) reshape at keys np.arange(N * L).reshape(N, L).
        rng: RngStream; step s draws its batch from substream "rf-train/step{s}".
        steps, batch: optimizer steps and rows per step. Rows are drawn with
            replacement and each carries its own noise and t, so a batch
            larger than N is meaningful and is not clamped to N (perfbench's
            train workload runs reflow on 16 pairs at batch 64).
        lr, lr_min, warmup, weight_decay, clip: nn.fit's AdamW schedule,
            decay and clip norm.

    Returns:
        (model, trace) with trace rows (step, loss, lr, grad_norm).
    """
    table = np.asarray(table, dtype=np.float64)
    if keys.ndim != 2 or len(keys) == 0 or table.ndim != 2:
        raise ValueError(f"need nonempty (N, L) keys, (K, W) rows: {keys.shape}, {table.shape}")
    shape = keys.shape[1:] + table.shape[1:]

    def pairs(sub, idx):
        return table[keys[idx]], sub.substream("noise").normal((batch,) + shape)

    return _fit_cfm(
        model, len(keys), pairs, rng.substream("rf-train"), steps, batch, lr, lr_min,
        warmup, weight_decay, clip,
    )


def reflow_pairs(model, solver_config, m, rng):
    """Generate M >= 1 coupling pairs: z1 ~ N(0, I), z0 = ODE endpoint from z1.

    Each pair draws z1 from its own RNG substream, and the pairs are solved
    as lanes of one ode.solve_lanes call, which integrates ode.LANES of them
    at a time. A one-pair re-solve takes the same steps and agrees to 1e-12
    (see multichain.sample_multichain).

    Returns:
        (z0, z1), two (M, L, W) arrays. M < 1 raises ValueError.
    """
    cfg = model.cfg
    shape = (cfg.seq_len if cfg.attention else 1, cfg.width)
    z1 = np.stack([rng.substream(f"pair{i}").normal(shape) for i in range(m)])
    res = ode.solve_lanes(lambda x, t: flow_forward(model, x, t), z1, solver_config)
    return res.x0, z1


def train_reflow(model, z0, z1, rng, steps, batch, lr, lr_min, warmup, weight_decay, clip):
    """Fine-tune on deterministic couplings: (x0, x1) = (z0, z1) rows drawn
    jointly, t ~ U(0, 1), step s from substream "reflow-train/step{s}" of rng.
    The optimizer settings are train_rf's; returns (model, trace)."""
    if len(z0) == 0:
        raise ValueError("empty coupling set")
    return _fit_cfm(
        model, len(z0), lambda sub, idx: (z0[idx], z1[idx]), rng.substream("reflow-train"),
        steps, batch, lr, lr_min, warmup, weight_decay, clip,
    )


def straightness(model, z0, z1):
    """Mean squared deviation per coordinate between the model field and the
    straight-line velocity, over the uniform STRAIGHTNESS_T grid on [0, 1] and
    all pairs (z0, z1). 0 means the learned paths are exactly straight on
    these couplings."""
    if len(z0) == 0:
        raise ValueError("empty coupling set")
    u = z1 - z0
    total = 0.0
    for t in np.linspace(0.0, 1.0, STRAIGHTNESS_T):
        z_t = rf_interpolate(z0, z1, float(t))
        v = flow_forward(model, z_t, np.full(z0.shape[0], t))
        total += float(((u - v) ** 2).mean())
    return total / STRAIGHTNESS_T
