"""Named RNG streams, moment estimation, PSD square roots, gradient checks."""

import numpy as np
import pytest

from protflow.errors import NotPSD, NotSymmetric, TooFewSamples
from protflow.numeric import RngStream, grad_check, mean_cov, psd_sqrt


def test_rng_stream_reproducible():
    a = RngStream(7).substream("x").normal((4, 3))
    b = RngStream(7).substream("x").normal((4, 3))
    assert np.array_equal(a, b)


def test_rng_stream_name_separation():
    root = RngStream(7)
    a = root.substream("a").normal(8)
    b = root.substream("b").normal(8)
    assert not np.array_equal(a, b)
    # different seeds separate too
    c = RngStream(8).substream("a").normal(8)
    assert not np.array_equal(a, c)


def test_rng_stream_order_independent():
    # drawing from one substream does not perturb a sibling
    root1 = RngStream(3)
    _ = root1.substream("noise").normal(100)
    after = root1.substream("idx").integers(0, 50, size=10)
    root2 = RngStream(3)
    direct = root2.substream("idx").integers(0, 50, size=10)
    assert np.array_equal(after, direct)


def test_rng_stream_nested_paths():
    a = RngStream(5).substream("a").substream("b").normal(6)
    b = RngStream(5).substream("a").substream("b").normal(6)
    c = RngStream(5).substream("a/b").normal(6)
    assert np.array_equal(a, b)
    # nested substream is the same as the joined path string
    assert np.array_equal(a, c)


def test_mean_cov_matches_manual():
    rng = np.random.default_rng(2)
    for _ in range(20):
        n = int(rng.integers(2, 40))
        d = int(rng.integers(1, 6))
        x = rng.normal(size=(n, d))
        mu, cov = mean_cov(x)
        assert np.allclose(mu, x.mean(axis=0))
        diff = x - x.mean(axis=0)
        manual = diff.T @ diff / (n - 1)
        assert np.allclose(cov, manual, atol=1e-12)
        assert np.array_equal(cov, cov.T)


def test_mean_cov_needs_two_samples():
    with pytest.raises(TooFewSamples):
        mean_cov(np.ones((1, 3)))


def test_psd_sqrt_squares_back():
    rng = np.random.default_rng(4)
    for _ in range(25):
        d = int(rng.integers(1, 8))
        a = rng.normal(size=(d, d))
        s = a @ a.T
        r = psd_sqrt(s)
        assert np.allclose(r @ r, s, atol=1e-9 * max(1.0, np.abs(s).max()))
        assert np.array_equal(r, r.T)


def test_psd_sqrt_rejects_bad_input():
    with pytest.raises(NotSymmetric):
        psd_sqrt(np.array([[1.0, 2.0], [0.0, 1.0]]))
    with pytest.raises(NotPSD):
        psd_sqrt(np.array([[1.0, 0.0], [0.0, -1.0]]))


def test_psd_sqrt_clamps_rounding_noise():
    # eigenvalues at the numerical floor must not raise
    s = np.diag([1.0, 1e-18])
    r = psd_sqrt(s)
    assert np.all(np.isfinite(r))


def test_grad_check_accepts_correct_gradient():
    def f(params):
        x = params["x"]
        return float((x**3).sum()), {"x": 3.0 * x**2}

    # stay away from x = 0 where the analytic gradient vanishes and the
    # relative-error denominator floors out
    x0 = np.linspace(0.5, 1.5, 7)
    assert grad_check(f, {"x": x0}) < 1e-7


def test_grad_check_flags_wrong_gradient():
    def f(params):
        x = params["x"]
        return float((x**2).sum()), {"x": 2.0 * x + 0.05}

    assert grad_check(f, {"x": np.ones(4)}) > 1e-3
