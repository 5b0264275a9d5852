"""Metric oracles: entropy, k-mer overlap, edit aggregates, OT, FD, MMD,
properties, Wasserstein, and unigram pseudoperplexity."""

import itertools
import math
import warnings

import numpy as np
import pytest

from protflow import kernels, metrics
from protflow.errors import (
    BadBandwidth,
    BatchTooLarge,
    BothSetsEmptyWarning,
    DegeneratePropertyWarning,
    DimensionMismatch,
    EmptyInput,
    EmptySequence,
    TooFewSequences,
    UnequalSizes,
    UnknownResidue,
)
from protflow.numeric import mean_cov, psd_sqrt
from protflow.seqio import AMINO_ACIDS, TOKEN_TO_ID


def test_shannon_entropy_known_values():
    assert metrics.shannon_entropy("AAAA") == 0.0
    assert metrics.shannon_entropy("AC") == pytest.approx(1.0)
    assert metrics.shannon_entropy("ACDG") == pytest.approx(2.0)
    assert metrics.shannon_entropy("AAC") == pytest.approx(
        -(2 / 3) * math.log2(2 / 3) - (1 / 3) * math.log2(1 / 3)
    )
    with pytest.raises(EmptySequence):
        metrics.shannon_entropy("")


def test_kmer_jaccard_cases():
    assert metrics.kmer_jaccard(["ACDEFG"], ["ACDEFG"], k=3) == 1.0
    assert metrics.kmer_jaccard(["AAAA"], ["CCCC"], k=2) == 0.0
    # {AC, CD} vs {CD, DE}: intersection 1, union 3
    assert metrics.kmer_jaccard(["ACD"], ["CDE"], k=2) == pytest.approx(1 / 3)
    with pytest.warns(BothSetsEmptyWarning):
        assert metrics.kmer_jaccard(["AC"], ["DE"], k=5) == 0.0
    with pytest.raises(ValueError):
        metrics.kmer_jaccard(["AC"], ["DE"], k=0)


def test_int_div_manual():
    batch = ["AC", "AD", "CD"]
    # d(AC,AD)=1 d(AC,CD)=2 d(AD,CD)=1 -> mean 4/3
    assert metrics.int_div(batch) == pytest.approx(4 / 3)
    with pytest.raises(TooFewSequences):
        metrics.int_div(["AC"])


def test_mean_edit_to_reference_manual():
    # rows: AC->{A:1, CD:2} mean 1.5 ; DD->{A:2, CD:1} mean 1.5
    assert metrics.mean_edit_to_reference(["AC", "DD"], ["A", "CD"]) == pytest.approx(1.5)
    with pytest.raises(EmptyInput):
        metrics.mean_edit_to_reference([], ["A"])


def test_uniqueness():
    assert metrics.uniqueness(["A", "A", "C", "D"]) == 0.75
    with pytest.raises(EmptyInput):
        metrics.uniqueness([])


def _brute_force_ot(a, b):
    n = len(a)
    cost = np.array([[kernels.levenshtein(x, y) for y in b] for x in a], dtype=float)
    best = min(
        sum(cost[i, p[i]] for i in range(n)) for p in itertools.permutations(range(n))
    )
    return best / n


def test_ot_levenshtein_vs_brute_force():
    gen = np.random.default_rng(0)
    alphabet = "ACD"
    for trial in range(30):
        n = int(gen.integers(2, 5))
        a = ["".join(gen.choice(list(alphabet), size=int(gen.integers(1, 5))))
             for _ in range(n)]
        b = ["".join(gen.choice(list(alphabet), size=int(gen.integers(1, 5))))
             for _ in range(n)]
        assert metrics.ot_levenshtein(a, b) == pytest.approx(_brute_force_ot(a, b))


def test_ot_levenshtein_validation():
    with pytest.raises(UnequalSizes):
        metrics.ot_levenshtein(["A"], ["A", "C"])
    with pytest.raises(EmptyInput):
        metrics.ot_levenshtein([], [])
    with pytest.raises(BatchTooLarge):
        metrics.ot_levenshtein(["A"] * (metrics.OT_CAP + 1), ["C"] * (metrics.OT_CAP + 1))


def test_ot_levenshtein_identical_batches_zero():
    batch = ["ACDE", "WYWY", "MNPQ"]
    assert metrics.ot_levenshtein(batch, list(batch)) == 0.0


def _plant_moments(z, target_mean, target_sqrt_cov):
    """Affinely map rows so the sample mean/cov equal the targets exactly."""
    mu, cov = mean_cov(z)
    white = (z - mu) @ np.linalg.inv(psd_sqrt(cov))
    return white @ target_sqrt_cov + target_mean


def test_frechet_distance_1d_closed_form():
    gen = np.random.default_rng(1)
    x = _plant_moments(gen.normal(size=(40, 1)), np.array([0.3]), np.array([[1.2]]))
    y = _plant_moments(gen.normal(size=(40, 1)), np.array([-0.5]), np.array([[0.7]]))
    # sample stats are exactly the planted ones, so FD has a closed form
    expected = (0.3 - (-0.5)) ** 2 + (1.2 - 0.7) ** 2
    assert abs(metrics.frechet_distance(x, y) - expected) < 1e-8


def test_frechet_distance_planted_3d_diagonal():
    gen = np.random.default_rng(2)
    a = np.diag([1.0, 2.0, 0.5])
    b = np.diag([1.5, 1.0, 0.25])
    mx = np.array([1.0, -1.0, 0.0])
    my = np.array([0.0, 0.5, 2.0])
    x = _plant_moments(gen.normal(size=(60, 3)), mx, a)
    y = _plant_moments(gen.normal(size=(60, 3)), my, b)
    # verify the plant before using it as an oracle
    mu_x, cov_x = mean_cov(x)
    assert np.max(np.abs(mu_x - mx)) < 1e-12
    assert np.max(np.abs(cov_x - a @ a)) < 1e-12
    expected = float(((mx - my) ** 2).sum() + ((np.diag(a) - np.diag(b)) ** 2).sum())
    assert abs(metrics.frechet_distance(x, y) - expected) < 1e-6


def test_frechet_distance_identical_batches_exactly_zero():
    gen = np.random.default_rng(3)
    x = gen.normal(size=(25, 4))
    assert metrics.frechet_distance(x, x.copy()) == 0.0


def test_frechet_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        metrics.frechet_distance(np.zeros((5, 2)), np.zeros((5, 3)))


def _naive_mmd(x, y, sigma):
    n = x.shape[0]
    gamma = 1.0 / (2.0 * sigma * sigma)

    def k(a, b):
        return math.exp(-gamma * float(((a - b) ** 2).sum()))

    kxx = sum(k(x[i], x[j]) for i in range(n) for j in range(n))
    kyy = sum(k(y[i], y[j]) for i in range(n) for j in range(n))
    kxy = sum(k(x[i], y[j]) for i in range(n) for j in range(n))
    return (kxx + kyy - 2.0 * kxy) / (n * n)


def test_mmd_rbf_median_bandwidth_matches_naive():
    gen = np.random.default_rng(5)
    x = gen.normal(size=(10, 2))
    y = gen.normal(size=(10, 2)) * 1.5
    pooled = np.vstack([x, y])
    dists = [
        float(np.linalg.norm(pooled[i] - pooled[j]))
        for i in range(20)
        for j in range(i + 1, 20)
    ]
    sigma = float(np.median(dists))
    assert abs(metrics.mmd_rbf(x, y) - _naive_mmd(x, y, sigma)) < 1e-12


@pytest.mark.parametrize("size", [1, 2, 7, 8, 190, 191])
def test_median_and_unique_match_numpy_bitwise(size):
    # the median of the RBF bandwidth skips np.median, which imports
    # numpy.ma; values must not move
    gen = np.random.default_rng(size)
    for values in (gen.normal(size=size), np.round(gen.normal(size=size), 1),
                   gen.integers(0, 4, size=size).astype(np.float64)):
        assert metrics._median(values).tobytes() == np.median(values).tobytes()


def test_mmd_rbf_identical_batches_exactly_zero():
    gen = np.random.default_rng(6)
    x = gen.normal(size=(30, 5))
    assert metrics.mmd_rbf(x, x.copy()) == 0.0


def test_mmd_rbf_validation():
    x = np.zeros((3, 2))
    with pytest.raises(UnequalSizes):
        metrics.mmd_rbf(x, np.zeros((4, 2)))
    with pytest.raises(EmptyInput):
        metrics.mmd_rbf(np.zeros((0, 2)), np.zeros((0, 2)))
    with pytest.raises(DimensionMismatch):
        metrics.mmd_rbf(x, np.zeros((3, 3)))
    # an all-constant pool has no usable median bandwidth
    with pytest.raises(BadBandwidth):
        metrics.mmd_rbf(np.zeros((4, 2)), np.zeros((4, 2)))


def test_net_charge_limits_and_pi():
    seq = "ACDKR"
    assert metrics.net_charge(seq, 0.0) > 2.0  # fully protonated
    assert metrics.net_charge(seq, 14.0) < -2.0  # fully deprotonated
    pi = metrics.isoelectric_point(seq)
    assert 0.0 < pi < 14.0
    assert abs(metrics.net_charge(seq, pi)) < 0.01


def _net_charge_reference(seq, ph):
    pos = [metrics.PKA_POSITIVE["nterm"]]
    neg = [metrics.PKA_NEGATIVE["cterm"]]
    for ch in seq:
        if ch in metrics.PKA_POSITIVE:
            pos.append(metrics.PKA_POSITIVE[ch])
        elif ch in metrics.PKA_NEGATIVE:
            neg.append(metrics.PKA_NEGATIVE[ch])
    out = sum(1.0 / (1.0 + 10.0 ** (ph - pka)) for pka in pos)
    out -= sum(1.0 / (1.0 + 10.0 ** (pka - ph)) for pka in neg)
    return out


def _isoelectric_point_reference(seq):
    """Bisection that rebuilds the pKa lists at every step."""
    lo, hi = 0.0, 14.0
    while hi - lo > metrics.PI_TOL:
        mid = 0.5 * (lo + hi)
        if _net_charge_reference(seq, mid) > 0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def test_isoelectric_point_is_bitwise_the_per_step_formula():
    gen = np.random.default_rng(12)
    alphabet = list("ACDEFGHIKLMNPQRSTVWY")
    seqs = ["", "A", "K", "D", "C", "Y", "H", "KR" * 30, "DE" * 30, "C" * 50, "ACDKR",
            "GGGG", "KDKDKDKD", "HHHHHHHHHH"]
    seqs += ["".join(gen.choice(alphabet, size=int(n))) for n in gen.integers(1, 97, size=200)]
    for seq in seqs:
        assert metrics.isoelectric_point(seq) == _isoelectric_point_reference(seq)
        for ph in (0.0, 3.3, 6.0, 7.0, 9.1, 14.0):
            assert metrics.net_charge(seq, ph) == _net_charge_reference(seq, ph)


def test_property_vector_known_values():
    arr = metrics.property_vector("G")
    assert arr.shape == (len(metrics.PROPERTY_NAMES),) and arr.dtype == np.float64
    pv = dict(zip(metrics.PROPERTY_NAMES, arr))
    assert pv["length"] == 1.0
    assert pv["molecular_weight"] == pytest.approx(57.0519 + 18.0153)
    assert pv["aromaticity"] == 0.0
    assert pv["gravy"] == pytest.approx(-0.4)
    aromaticity = metrics.PROPERTY_NAMES.index("aromaticity")
    assert metrics.property_vector("FWY")[aromaticity] == 1.0
    with pytest.raises(EmptySequence):
        metrics.property_vector("")
    with pytest.raises(UnknownResidue):
        metrics.property_vector("AXZ")


def test_wasserstein_1d_hand_cases():
    assert metrics.wasserstein_1d([0.0], [1.0]) == pytest.approx(1.0)
    assert metrics.wasserstein_1d([0.0, 1.0], [0.5, 1.5]) == pytest.approx(0.5)
    assert metrics.wasserstein_1d([2.0, 0.0, 1.0], [0.0, 1.0, 2.0]) == 0.0
    # differing sizes are allowed
    assert metrics.wasserstein_1d([0.0, 0.0], [0.0, 0.0, 3.0]) == pytest.approx(1.0)


def test_w_property_identical_batches_zero():
    batch = ["ACDE", "KRKR", "GGGG"]
    with pytest.warns(DegeneratePropertyWarning):
        assert metrics.w_property(batch, list(batch)) == 0.0
    with pytest.raises(EmptyInput):
        metrics.w_property([], batch)


def test_w_property_skips_degenerate_dimension():
    # equal-length batches without an aromatic residue make length and
    # aromaticity constant everywhere: the mean runs over the other five
    gen, ref = ["AA", "CC"], ["DD", "EE"]
    with pytest.warns(DegeneratePropertyWarning) as caught:
        val = metrics.w_property(gen, ref)
    assert [str(w.message) for w in caught] == [
        f"property {name} identical everywhere; skipped" for name in ("length", "aromaticity")
    ]
    g = np.array([metrics.property_vector(s) for s in gen])
    r = np.array([metrics.property_vector(s) for s in ref])
    dists = []
    for i, name in enumerate(metrics.PROPERTY_NAMES):
        if name not in ("length", "aromaticity"):
            lo, hi = min(g[:, i].min(), r[:, i].min()), max(g[:, i].max(), r[:, i].max())
            gi, ri = (g[:, i] - lo) / (hi - lo), (r[:, i] - lo) / (hi - lo)
            dists.append(metrics.wasserstein_1d(gi, ri))
    assert len(dists) == 5 and val == float(np.mean(dists))
    # a property constant in every sequence carries no signal at all
    with pytest.warns(DegeneratePropertyWarning):
        assert metrics.w_property(["ACK"], ["ACK"]) == 0.0


def test_w_property_detects_shift():
    gen = ["KKKK", "KRKR", "RRRR"]
    ref = ["DDDD", "DEDE", "EEEE"]
    with pytest.warns(DegeneratePropertyWarning):
        assert metrics.w_property(gen, ref) > 0.1


def test_pseudoperplexity_uniform_is_twenty():
    uniform = np.full(20, 1.0 / 20.0)
    for seq in ("A", "ACDEFG", "WYWYWYWYWY"):
        assert metrics.pseudoperplexity(seq, uniform) == pytest.approx(
            20.0, abs=1e-12
        )


def test_pseudoperplexity_oracle_is_one():
    # p = 1 on the true residue at every position is the lower bound
    oracle = np.eye(20)[TOKEN_TO_ID["W"]]
    assert metrics.pseudoperplexity("WWWWWW", oracle) == 1.0


def test_pseudoperplexity_unigram_closed_form():
    probs = metrics.unigram_probs(["AAAC"])
    # add-one smoothing: counts A=4, C=2, rest 1 -> total 43... wait: 20 ones
    # plus 3 As plus 1 C = 24; p(A) = 4/24, p(C) = 2/24
    assert probs.sum() == pytest.approx(1.0)
    p_a = 4 / 24
    assert metrics.pseudoperplexity("A", probs) == pytest.approx(1 / p_a)
    with pytest.raises(EmptySequence):
        metrics.pseudoperplexity("", probs)


def test_scorer_fits_match_per_residue_count_loops():
    # the loop the tokenize-based fit replaced: counts, and so probabilities, are bitwise equal
    gen = np.random.default_rng(12)
    for _ in range(50):
        corpus = ["".join(gen.choice(list(AMINO_ACIDS), size=int(gen.integers(0, 30))))
                  for _ in range(int(gen.integers(0, 12)))]
        uni = np.ones(20)
        for s in corpus:
            for ch in s:
                uni[TOKEN_TO_ID[ch]] += 1
        assert np.array_equal(metrics.unigram_probs(corpus), uni / uni.sum())
    with pytest.raises(UnknownResidue):
        metrics.unigram_probs(["ACx"])


def test_threshold_proportions_strict():
    scores = [0.1, 0.5, 0.5, 0.9]
    assert metrics.threshold_proportions(scores, 0.5) == 0.25
    assert metrics.threshold_proportions(scores, 0.05) == 1.0
    with pytest.raises(EmptyInput):
        metrics.threshold_proportions([], 0.5)
