"""Deterministic randomness, small linear-algebra helpers, item blocks, is_int,
is_number and the cap on network sizes.

All randomness in the package flows from a single integer seed through
RngStream, a counter-based (Philox) stream with named substreams. Substream
keys are derived by hashing (root seed, path), so the draw order inside one
substream never perturbs any other substream. Per-sample streams give every
sample the same noise whatever the batch size or the chunk of ode.LANES
samples it is solved in; a rerun with the same n and seed is bitwise
identical, and across batch sizes the solved states agree to 1e-12 with equal
per-sample NFE and step counts (see multichain.sample_multichain).
"""

import hashlib
import math
import sys

import numpy as np

from .errors import NonFiniteValue, NotPSD, NotSymmetric, TooFewSamples

# Inclusive float bounds: the least float > 0, and the greatest finite float,
# so a number within [ABOVE_0, FINITE] is > 0 and neither nan nor infinite.
ABOVE_0 = math.ulp(0.0)
FINITE = sys.float_info.max
# The largest network size a config may set (its model.* sizes) and a
# checkpoint's dim and flow_cfg may carry: the loader builds the flow's shape
# table over range(depth) before it compares a single tensor.
SIZE_CAP = 4096


class RngStream:
    """Named, splittable random stream over a Philox counter-based generator.

    Args:
        seed: integer root seed.
        path: substream path, "" for the root. Children extend it with
            "/<name>"; the Philox key is sha256(seed, path), so substreams
            are independent of each other and of draw order.
    """

    __slots__ = ("seed", "path", "_gen")

    def __init__(self, seed, path=""):
        self.seed = int(seed)
        self.path = path
        digest = hashlib.sha256(f"{self.seed}:{self.path}".encode("utf-8")).digest()
        key = np.frombuffer(digest[:32], dtype=np.uint64)
        self._gen = np.random.Generator(np.random.Philox(key=key[:2]))

    def substream(self, name):
        """Derive an independent child stream keyed by name."""
        return RngStream(self.seed, f"{self.path}/{name}")

    def normal(self, shape):
        return self._gen.standard_normal(size=shape, dtype=np.float64)

    def uniform(self, shape):
        return self._gen.random(size=shape, dtype=np.float64)

    def integers(self, low, high=None, size=None):
        return self._gen.integers(low, high=high, size=size, dtype=np.int64)


def mean_cov(x):
    """Sample mean and unbiased covariance of rows.

    Args:
        x: (n, d) array, n >= 2.

    Returns:
        (mean, cov): (d,) and symmetric (d, d) float64 arrays.
    """
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2:
        raise ValueError(f"expected 2-D array, got shape {x.shape}")
    n = x.shape[0]
    if n < 2:
        raise TooFewSamples(f"need at least 2 rows, got {n}")
    if not np.all(np.isfinite(x)):
        raise NonFiniteValue("non-finite entries in sample matrix")
    mu = x.mean(axis=0)
    xc = x - mu
    cov = (xc.T @ xc) / (n - 1)
    return mu, 0.5 * (cov + cov.T)


def psd_sqrt(s):
    """Symmetric PSD square root via an eigendecomposition.

    Small negative eigenvalues (round-off) are clamped to zero; genuinely
    negative spectra raise NotPSD. Thresholds scale with the largest
    eigenvalue magnitude so large covariances are not spuriously rejected.

    Returns:
        Symmetric (d, d) float64 R with R @ R ~= s.
    """
    s = np.asarray(s, dtype=np.float64)
    if s.ndim != 2 or s.shape[0] != s.shape[1]:
        raise ValueError(f"expected square matrix, got shape {s.shape}")
    if not np.all(np.isfinite(s)):
        raise NonFiniteValue("non-finite entries in matrix")
    scale = max(1.0, float(np.abs(s).max()))
    if float(np.abs(s - s.T).max()) > 1e-9 * scale:
        raise NotSymmetric(f"asymmetry {float(np.abs(s - s.T).max()):g} exceeds tolerance")
    s = 0.5 * (s + s.T)
    vals, vecs = np.linalg.eigh(s)
    lam_scale = max(1.0, float(np.abs(vals).max()))
    if float(vals.min()) < -1e-6 * lam_scale:
        raise NotPSD(f"eigenvalue {float(vals.min()):g} below tolerance")
    vals = np.clip(vals, 0.0, None)
    root = (vecs * np.sqrt(vals)) @ vecs.T
    return 0.5 * (root + root.T)


def grad_check(fn, params, h=1e-5):
    """Compare an analytic gradient against central differences.

    Args:
        fn: params -> (value, grads), grads a dict keyed like params.
        params: dict of named float64 arrays, the point to check at. Each
            coordinate is perturbed in place, in dict order then C order,
            and restored before the next.
        h: central-difference step.

    Returns:
        Max over coordinates of |num - ana| / max(|num|, |ana|, 1e-8).
    """
    value, grads = fn(params)
    if not np.isfinite(value):
        raise NonFiniteValue("non-finite value")
    worst = 0.0
    for name, p in params.items():
        if p.dtype != np.float64:
            raise ValueError(f"{name}: params must be float64 arrays, got {p.dtype}")
        grad = np.asarray(grads[name], dtype=np.float64)
        if grad.shape != p.shape:
            raise ValueError(f"{name}: grad shape {grad.shape} != params shape {p.shape}")
        if not np.all(np.isfinite(grad)):
            raise NonFiniteValue(f"non-finite gradient for {name}")
        for i in np.ndindex(p.shape):
            orig = p[i]
            p[i] = orig + h
            f_hi, _ = fn(params)
            p[i] = orig - h
            f_lo, _ = fn(params)
            p[i] = orig
            if not (np.isfinite(f_hi) and np.isfinite(f_lo)):
                raise NonFiniteValue(f"non-finite perturbed value at {name}{list(i)}")
            num = (f_hi - f_lo) / (2.0 * h)
            rel = abs(num - grad[i]) / max(abs(num), abs(grad[i]), 1e-8)
            worst = max(worst, rel)
    return worst


def item_blocks(n, rows_per_item, budget):
    """Slices of range(n) covering at most budget rows each, for items of
    rows_per_item rows; one item at least. A last block of one item joins
    the block before it: numpy takes a one-row product through gemv, which
    rounds unlike the gemm of more rows."""
    step = max(1, budget // max(rows_per_item, 1))
    starts = list(range(0, n, step))
    if step > 1 and len(starts) > 1 and n - starts[-1] == 1:
        del starts[-1]
    return [slice(a, b) for a, b in zip(starts, starts[1:] + [n])]


def is_int(x, lo=-math.inf, hi=math.inf):
    """True for an int that is not a bool and lies in [lo, hi]."""
    return isinstance(x, int) and not isinstance(x, bool) and lo <= x <= hi


def is_number(x, lo, hi):
    """True for an int or float that is not a bool and lies in [lo, hi] (nan never)."""
    return isinstance(x, (int, float)) and not isinstance(x, bool) and lo <= x <= hi
