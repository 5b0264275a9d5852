"""Small neural-net primitives with hand-written forward/backward passes.

Everything operates on float64 numpy arrays; parameters live in ordered
dicts of named arrays, serialized by name. GELU uses the tanh approximation,
which has a clean analytic derivative. fit is the one training loop every
stage runs.
"""

import functools
import math

import numpy as np

from .errors import Diverged

_GELU_C = math.sqrt(2.0 / math.pi)
_GELU_A = 0.044715
_GELU_3A = 3 * _GELU_A

# The GELU functions run each formula in the order written in their comments,
# but through one or two buffers updated in place: every fresh activation-sized
# temporary is memory the allocator may hand back and fault in again. Products
# and sums only swap operands, so results are bitwise those of the formulas.


def _gelu_tanh(x):
    # tanh(C * (x + A * (x * x * x))); x*x*x rather than x**3: numpy's float
    # pow costs ~60x a multiply per element
    u = x * x
    u *= x
    u *= _GELU_A
    u += x
    u *= _GELU_C
    return np.tanh(u, out=u)


def gelu_from_tanh(x, t):
    """0.5 * x * (1 + t): gelu(x) from its tanh t, as gelu(x, return_tanh=True)."""
    z = x * 0.5
    z *= t + 1.0
    return z


def gelu(x, return_tanh=False):
    """Tanh-approximated GELU. With return_tanh, also return the tanh value so
    the backward pass can hand it to gelu_grad instead of recomputing it."""
    t = _gelu_tanh(x)
    if return_tanh:
        return gelu_from_tanh(x, t), t
    # as gelu_from_tanh, adding into the tanh buffer, which no caller sees
    z = x * 0.5
    t += 1.0
    z *= t
    return z


def gelu_grad(x, t=None):
    """d gelu / dx. t is the forward pass's tanh value; recomputed when None."""
    # 0.5 * (1 + t) + 0.5 * x * (1 - t * t) * C * (1 + 3A * (x * x))
    if t is None:
        t = _gelu_tanh(x)
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


def layernorm_forward(x, gamma, beta, eps=1e-5):
    """Normalize over the last axis. Returns (y, cache) for the backward pass."""
    mu = x.mean(axis=-1, keepdims=True)
    xc = x - mu
    var = (xc**2).mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + eps)
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


def cosine_lr(step, total_steps, peak, lr_min, warmup, cycles=1):
    """Linear warmup to peak, then cosine decay to lr_min over `cycles` restarts."""
    if warmup > 0 and step < warmup:
        return peak * (step + 1) / warmup
    span = max(total_steps - warmup, 1)
    progress = min(max(step - warmup, 0) / span, 1.0)
    frac = (progress * cycles) % 1.0 if progress < 1.0 else 1.0
    return lr_min + 0.5 * (peak - lr_min) * (1.0 + math.cos(math.pi * frac))


def global_norm(grads):
    total = 0.0
    for g in grads.values():
        total += float((g * g).sum())
    return math.sqrt(total)


def clip_grads_(grads, max_norm):
    """Scale grads in place to cap the global L2 norm; returns the pre-clip norm."""
    norm = global_norm(grads)
    if max_norm > 0 and norm > max_norm:
        scale = max_norm / (norm + 1e-12)
        for g in grads.values():
            g *= scale
    return norm


class AdamW:
    """Decoupled weight-decay Adam over a dict of named parameters; fit passes
    every setting."""

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


def fit(params, loss_and_grad, steps, lr, lr_min, warmup, clip, weight_decay, betas, eps,
        cycles=1, ema_decay=0.0):
    """Train params (a dict of named arrays, updated in place) with AdamW.

    Each step calls loss_and_grad(step) -> (loss, grads keyed like params),
    raises Diverged on a non-finite loss, clips the gradients to global norm
    clip and steps at the cosine_lr rate. With ema_decay > 0 an exponential
    moving average of params is kept and copied into params at the end.

    Returns trace rows (step, loss, lr, grad_norm), one per step.
    """
    opt = AdamW(params, betas=betas, eps=eps, weight_decay=weight_decay)
    ema = {k: v.copy() for k, v in params.items()} if ema_decay > 0 else None
    trace = []
    for step in range(steps):
        loss, grads = loss_and_grad(step)
        if not np.isfinite(loss):
            raise Diverged(f"loss non-finite at step {step}")
        grad_norm = clip_grads_(grads, clip)
        lr_t = cosine_lr(step, steps, lr, lr_min, warmup, cycles)
        opt.step(params, grads, lr_t)
        if ema is not None:
            for k, v in params.items():
                ema[k] += (1.0 - ema_decay) * (v - ema[k])
        trace.append((step, loss, lr_t, grad_norm))
    if ema is not None:
        for k, v in ema.items():
            np.copyto(params[k], v)
    return trace
