"""Small neural-net primitives with hand-written forward/backward passes.

Precision policy: parameters, gradients, optimizer state and losses are
float64, and so is all other work except the flow's training step, which
flow._fit_cfm runs on float32 activations. The GELU functions compute in
their input's dtype. Parameters live in ordered dicts of named arrays,
serialized by name. fit, the one training loop every stage runs, packs a
dict into one flat float64 buffer and rebinds each name to its view of it,
so AdamW and clipping each run once over the buffer.
GELU uses the tanh approximation, which has a clean analytic derivative.
"""

import functools
import math

import numpy as np

from .errors import Diverged

_GELU_C = math.sqrt(2.0 / math.pi)
_GELU_A = 0.044715
_GELU_3A = 3 * _GELU_A
_LN_EPS = 1e-5

# The GELU functions run each formula in the order written in their comments,
# but through one or two buffers updated in place: every fresh activation-sized
# temporary is memory the allocator may hand back and fault in again. Products
# and sums only swap operands, so results are bitwise those of the formulas.


def gelu_tanh(x, out=None):
    """tanh(C * (x + A * x^3)), the tanh gelu_from_tanh and gelu_grad take,
    written into out if given."""
    # x*x*x rather than x**3: numpy's float pow costs ~60x a multiply per element
    u = np.multiply(x, x, out=out)
    u *= x
    u *= _GELU_A
    u += x
    u *= _GELU_C
    return np.tanh(u, out=u)


def gelu_from_tanh(x, t, out=None):
    """0.5 * x * (1 + t): gelu(x) from its tanh t = gelu_tanh(x), bitwise
    gelu(x), written into out (which may be x) if given."""
    z = np.multiply(x, 0.5, out=out)
    z *= t + 1.0
    return z


def gelu(x):
    """Tanh-approximated GELU. A caller that needs the tanh for gelu_grad
    takes t = gelu_tanh(x) and gelu_from_tanh(x, t) instead."""
    t = gelu_tanh(x)
    # as gelu_from_tanh, adding into the tanh buffer, which no caller sees
    z = x * 0.5
    t += 1.0
    z *= t
    return z


def gelu_grad(x, t):
    """d gelu / dx, where t is the forward pass's tanh value."""
    # 0.5 * (1 + t) + 0.5 * x * (1 - t * t) * C * (1 + 3A * (x * x))
    b = x * 0.5
    s = t * t
    np.subtract(1.0, s, out=s)
    b *= s
    b *= _GELU_C
    np.multiply(x, x, out=s)
    s *= _GELU_3A
    s += 1.0
    b *= s
    np.add(t, 1.0, out=s)
    s *= 0.5
    s += b
    return s


def layernorm_forward(x, gamma, beta):
    """Normalize over the last axis. Returns (y, cache) for the backward pass."""
    mu = x.mean(axis=-1, keepdims=True)
    xc = x - mu
    var = (xc**2).mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + _LN_EPS)
    xhat = xc * inv
    y = gamma * xhat + beta
    return y, (xhat, inv, gamma)


def layernorm_backward(dy, cache):
    xhat, inv, gamma = cache
    d = xhat.shape[-1]
    dgamma = (dy * xhat).reshape(-1, d).sum(axis=0)
    dbeta = dy.reshape(-1, d).sum(axis=0)
    dxhat = dy * gamma
    dx = inv * (
        dxhat
        - dxhat.mean(axis=-1, keepdims=True)
        - xhat * (dxhat * xhat).mean(axis=-1, keepdims=True)
    )
    return dx, dgamma, dbeta


def softmax(logits):
    z = np.exp(logits - logits.max(axis=-1, keepdims=True))
    return z / z.sum(axis=-1, keepdims=True)


def softmax_cross_entropy(logits, targets):
    """Mean cross-entropy over rows plus its gradient w.r.t. logits.

    Args:
        logits: (n, k) float64.
        targets: (n,) int64 class ids.
    """
    # one exp: the loss takes log-softmax z - log(s), the gradient softmax e / s
    n = logits.shape[0]
    z = logits - logits.max(axis=-1, keepdims=True)
    e = np.exp(z)
    s = e.sum(axis=-1, keepdims=True)
    logp = z - np.log(s)
    loss = -logp[np.arange(n), targets].mean()
    dlogits = e / s
    dlogits[np.arange(n), targets] -= 1.0
    return loss, dlogits / n


@functools.lru_cache(maxsize=16)
def sinusoidal_table(length, dim):
    """Fixed sin/cos positional table, deterministic in (length, dim); cached
    and read-only, as one table serves every caller.

    Row i is time_features(i, dim, 1.0): even columns carry sin, odd columns
    cos, geometric frequencies from 1 down to 1/10000 across column pairs.
    Row i does not depend on length.
    """
    table = time_features(np.arange(length), dim, 1.0)
    table.flags.writeable = False
    return table


@functools.lru_cache(maxsize=None)
def _time_freqs(dim):
    half = dim // 2
    freqs = np.exp(-math.log(10000.0) * np.arange(half, dtype=np.float64) / max(half, 1))
    freqs.flags.writeable = False  # one array serves every caller
    return freqs


def time_features(t, dim, scale):
    """Sinusoidal features of scalar times t in [0, 1], shape (len(t), dim).

    Channel pair k is (sin, cos) of scale * t * 10000**(-k / (dim/2)), so
    scale is the fastest angular rate in rad per unit t. A flow's scale is
    its VectorFieldConfig.time_scale: flow.TIME_SCALE for new fields, and
    flow.LEGACY_TIME_SCALE (1000) for checkpoints whose flow_cfg predates it.
    """
    if dim % 2 != 0:
        raise ValueError(f"dim must be even, got {dim}")
    t = np.atleast_1d(np.asarray(t, dtype=np.float64)) * scale
    ang = t[:, None] * _time_freqs(dim)
    out = np.empty((t.shape[0], dim), dtype=np.float64)
    out[:, 0::2] = np.sin(ang)
    out[:, 1::2] = np.cos(ang)
    return out


def cosine_lr(step, total_steps, peak, lr_min, warmup, cycles):
    """Linear warmup to peak, then cosine decay to lr_min over `cycles` restarts."""
    if warmup > 0 and step < warmup:
        return peak * (step + 1) / warmup
    span = max(total_steps - warmup, 1)
    progress = min(max(step - warmup, 0) / span, 1.0)
    frac = (progress * cycles) % 1.0 if progress < 1.0 else 1.0
    return lr_min + 0.5 * (peak - lr_min) * (1.0 + math.cos(math.pi * frac))


class AdamW:
    """Decoupled weight-decay Adam over one flat parameter buffer; fit passes
    every setting."""

    def __init__(self, params, betas, eps, weight_decay):
        self.beta1, self.beta2 = betas
        self.eps = eps
        self.weight_decay = weight_decay
        self.step_count = 0
        self.m = np.zeros_like(params)
        self.v = np.zeros_like(params)

    def step(self, params, grads, lr):
        self.step_count += 1
        b1c = 1.0 - self.beta1**self.step_count
        b2c = 1.0 - self.beta2**self.step_count
        if self.weight_decay > 0:
            params -= lr * self.weight_decay * params
        self.m *= self.beta1
        self.m += (1.0 - self.beta1) * grads
        self.v *= self.beta2
        self.v += (1.0 - self.beta2) * grads * grads
        params -= lr * (self.m / b1c) / (np.sqrt(self.v / b2c) + self.eps)


def fit(params, loss_and_grad, steps, lr, lr_min, warmup, clip, weight_decay, betas, eps,
        cycles=1):
    """Train params (a dict of named float64 arrays) with AdamW.

    On entry fit packs the arrays into one flat buffer and rebinds each name
    to its view of it. Each step calls loss_and_grad(step) -> (loss, grads
    keyed like params), raises Diverged on a non-finite loss or gradient,
    copies grads into one flat buffer, clips it to global norm clip and
    steps at the cosine_lr rate. The norm is summed key by key, so it rounds
    as each key's own sum does. The params end at the last step's values.

    Returns trace rows (step, loss, lr, grad_norm), one per step; grad_norm
    is taken before clipping.
    """
    flat = np.concatenate(list(params.values()), axis=None, dtype=np.float64)
    bounds = np.cumsum([v.size for v in params.values()])[:-1]
    for (k, v), view in zip(params.items(), np.split(flat, bounds)):
        params[k] = view.reshape(v.shape)
    grad = np.empty_like(flat)
    square = np.empty_like(flat)
    square_views = np.split(square, bounds)
    opt = AdamW(flat, betas=betas, eps=eps, weight_decay=weight_decay)
    trace = []
    for step in range(steps):
        loss, grads = loss_and_grad(step)
        if not np.isfinite(loss):
            raise Diverged(f"loss non-finite at step {step}")
        np.concatenate([grads[k] for k in params], axis=None, out=grad)
        np.multiply(grad, grad, out=square)
        total = 0.0
        for sq in square_views:
            total += float(sq.sum())
        grad_norm = math.sqrt(total)
        # a non-finite entry makes the norm non-finite; a finite gradient whose
        # square overflows does too, and trains on, clipped to zero
        if not math.isfinite(grad_norm) and not np.isfinite(grad).all():
            k = next(k for k, g in zip(params, np.split(grad, bounds)) if not np.isfinite(g).all())
            raise Diverged(f"non-finite gradient for {k}")
        if clip > 0 and grad_norm > clip:
            grad *= clip / (grad_norm + 1e-12)
        lr_t = cosine_lr(step, steps, lr, lr_min, warmup, cycles)
        opt.step(flat, grad, lr_t)
        trace.append((step, loss, lr_t, grad_norm))
    return trace
