"""Evaluation metrics for generated sequence sets.

Sequence-level: Shannon entropy, k-mer Jaccard, edit distance and its
aggregates (IntDiv, mean distance to a reference set, uniqueness), optimal
transport over edit costs. Embedding-level: Fréchet distance and RBF-kernel
MMD over pluggable per-sequence vectors. Property-level: physicochemical
property vectors and their averaged 1-D Wasserstein distance. Unigram
pseudoperplexity under a corpus's add-one residue frequencies.

All metrics are pure functions; edit-distance matrices come from the
bit-parallel kernel in the kernels module.
"""

import math
import warnings

import numpy as np

from . import kernels
from .errors import (
    BadBandwidth,
    BatchTooLarge,
    BothSetsEmptyWarning,
    DegeneratePropertyWarning,
    DimensionMismatch,
    EmptyInput,
    EmptySequence,
    TooFewSequences,
    UnequalSizes,
)
from .numeric import mean_cov, psd_sqrt
from .seqio import PAD_ID, TOKEN_TO_ID, VOCAB_SIZE, check_residues, tokenize

# Average (isotope-abundance-weighted) residue masses, Da, in-chain values;
# a free peptide adds one water. Source: standard ExPASy residue mass table.
RESIDUE_MASS = {
    "A": 71.0788, "R": 156.1875, "N": 114.1038, "D": 115.0886, "C": 103.1388,
    "E": 129.1155, "Q": 128.1307, "G": 57.0519, "H": 137.1411, "I": 113.1594,
    "L": 113.1594, "K": 128.1741, "M": 131.1926, "F": 147.1766, "P": 97.1167,
    "S": 87.0782, "T": 101.1051, "W": 186.2132, "Y": 163.1760, "V": 99.1326,
}
WATER_MASS = 18.01528

# Kyte-Doolittle hydropathy index.
HYDROPATHY = {
    "A": 1.8, "R": -4.5, "N": -3.5, "D": -3.5, "C": 2.5, "E": -3.5, "Q": -3.5,
    "G": -0.4, "H": -3.2, "I": 4.5, "L": 3.8, "K": -3.9, "M": 1.9, "F": 2.8,
    "P": -1.6, "S": -0.8, "T": -0.7, "W": -0.9, "Y": -1.3, "V": 4.2,
}

# Ionizable-group pKa values (EMBOSS set). Positive groups gain a proton
# below their pKa; negative groups lose one above theirs.
PKA_POSITIVE = {"nterm": 8.6, "K": 10.8, "R": 12.5, "H": 6.5}
PKA_NEGATIVE = {"cterm": 3.6, "D": 3.9, "E": 4.1, "C": 8.5, "Y": 10.1}
PI_TOL = 1e-4

AROMATIC = frozenset("FWY")

# The largest batch ot_levenshtein solves: its assignment costs O(n^3).
OT_CAP = 512

PROPERTY_NAMES = (
    "length",
    "molecular_weight",
    "aromaticity",
    "gravy",
    "charge_ph6",
    "charge_ph7",
    "isoelectric_point",
)


# --- sequence-level metrics -----------------------------------------------------


def shannon_entropy(seq):
    """Entropy (bits) of the empirical residue distribution of one sequence."""
    if not seq:
        raise EmptySequence("entropy of an empty sequence")
    counts = {}
    for ch in seq:
        counts[ch] = counts.get(ch, 0) + 1
    n = len(seq)
    val = -sum((c / n) * math.log2(c / n) for c in counts.values())
    return val if val != 0 else 0.0


def _kmer_set(corpus, k):
    out = set()
    for s in corpus:
        for i in range(len(s) - k + 1):
            out.add(s[i : i + k])
    return out


def kmer_jaccard(corpus_a, corpus_b, k):
    """Set Jaccard similarity between the k-mer sets of two corpora.

    Sequences shorter than k contribute nothing. Both sets empty is defined
    as 0 and flagged with a warning.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    sa = _kmer_set(corpus_a, k)
    sb = _kmer_set(corpus_b, k)
    union = sa | sb
    if not union:
        warnings.warn("both k-mer sets empty; Jaccard defined as 0", BothSetsEmptyWarning)
        return 0.0
    return len(sa & sb) / len(union)


def int_div(batch):
    """Mean edit distance over all unordered distinct pairs within a batch."""
    n = len(batch)
    if n < 2:
        raise TooFewSequences(f"need >= 2 sequences, got {n}")
    mat = kernels.pairwise_edit_matrix(batch)
    return float(mat[np.triu_indices(n, k=1)].sum() / (n * (n - 1) / 2))


def mean_edit_to_reference(batch, reference):
    """Mean over the batch of each sequence's mean edit distance to the
    reference set (mean over references first, then over the batch)."""
    if not batch or not reference:
        raise EmptyInput("both batch and reference must be nonempty")
    mat = kernels.cross_edit_matrix(batch, reference)
    return float(mat.mean(axis=1).mean())


def uniqueness(batch):
    """Fraction of distinct sequences in a batch."""
    if not batch:
        raise EmptyInput("empty batch")
    return len(set(batch)) / len(batch)


def ot_levenshtein(batch_a, batch_b):
    """Optimal-assignment mean edit distance between two equal-size batches.

    The n x n edit-distance matrix is solved exactly (integer costs), and
    the optimal total is divided by n so values compare across batch sizes.
    """
    n = len(batch_a)
    if n != len(batch_b):
        raise UnequalSizes(f"{n} vs {len(batch_b)}")
    if n == 0:
        raise EmptyInput("empty batches")
    if n > OT_CAP:
        raise BatchTooLarge(f"n={n} exceeds cap {OT_CAP}")
    cost = kernels.cross_edit_matrix(batch_a, batch_b)
    total, _ = kernels.assignment_min_cost(cost)
    return total / n


# --- embedding-level metrics ----------------------------------------------------


def frechet_distance(x, y):
    """Fréchet distance between Gaussians fitted to two embedding batches:
    |mu1 - mu2|^2 + tr(S1 + S2 - 2*sqrt(sqrt(S1) S2 sqrt(S1)))."""
    xv = np.asarray(x, dtype=np.float64)
    yv = np.asarray(y, dtype=np.float64)
    if xv.shape[1] != yv.shape[1]:
        raise DimensionMismatch(f"d={xv.shape[1]} vs d={yv.shape[1]}")
    mu1, s1 = mean_cov(xv)
    mu2, s2 = mean_cov(yv)
    if np.array_equal(mu1, mu2) and np.array_equal(s1, s2):
        return 0.0
    r1 = psd_sqrt(s1)
    cross = psd_sqrt(r1 @ s2 @ r1)
    fd = float(((mu1 - mu2) ** 2).sum() + np.trace(s1) + np.trace(s2) - 2.0 * np.trace(cross))
    if fd < 0:
        if fd < -1e-8:
            raise ValueError(f"Fréchet distance came out negative: {fd:g}")
        fd = 0.0
    return fd


def _median(a):
    """np.median of a 1-D float array by np.partition, which unlike np.median
    does not import numpy.ma; np.median still takes the empty and NaN cases."""
    k, odd = divmod(a.size, 2)
    if a.size == 0 or np.isnan(a).any():
        return np.median(a)
    part = np.partition(a, k if odd else (k - 1, k))
    return part[k] if odd else (part[k - 1] + part[k]) / 2


def median_pairwise_distance(z):
    """Median Euclidean distance over distinct pairs of rows."""
    z = np.asarray(z, dtype=np.float64)
    sq = (z**2).sum(axis=1)
    d2 = sq[:, None] + sq[None, :] - 2.0 * (z @ z.T)
    iu = np.triu_indices(z.shape[0], k=1)
    return float(_median(np.sqrt(np.maximum(d2[iu], 0.0))))


def mmd_rbf(x, y):
    """Biased V-statistic MMD with an RBF kernel, diagonals included:
    (1/n^2) * sum_ij [k(x_i,x_j) + k(y_i,y_j) - 2 k(x_i,y_j)].

    Both batches must have the same size n. The bandwidth sigma in
    k(a,b) = exp(-|a-b|^2 / (2 sigma^2)) is the median pairwise distance
    over the pooled rows (Gretton et al. 2012); a median that is 0 or not
    finite, as for an all-constant pool, raises BadBandwidth.
    """
    xv = np.asarray(x, dtype=np.float64)
    yv = np.asarray(y, dtype=np.float64)
    n = xv.shape[0]
    if n != yv.shape[0]:
        raise UnequalSizes(f"{n} vs {yv.shape[0]}")
    if n == 0:
        raise EmptyInput("empty batches")
    if xv.shape[1] != yv.shape[1]:
        raise DimensionMismatch(f"d={xv.shape[1]} vs d={yv.shape[1]}")
    sigma = median_pairwise_distance(np.vstack([xv, yv]))
    if not (np.isfinite(sigma) and sigma > 0):
        raise BadBandwidth(f"median bandwidth must be finite and > 0, got {sigma}")
    if np.array_equal(xv, yv):
        # Every kernel term cancels pairwise, so the V-statistic is exactly 0;
        # evaluating the grams would reintroduce BLAS-path rounding noise.
        return 0.0
    gamma = 1.0 / (2.0 * sigma * sigma)

    def gram(a, b):
        sa = (a**2).sum(axis=1)
        sb = (b**2).sum(axis=1)
        d2 = np.maximum(sa[:, None] + sb[None, :] - 2.0 * (a @ b.T), 0.0)
        return np.exp(-gamma * d2)

    kxx = gram(xv, xv).sum()
    kyy = gram(yv, yv).sum()
    kxy = gram(xv, yv).sum()
    return float((kxx + kyy - 2.0 * kxy) / (n * n))


# --- physicochemical properties ---------------------------------------------------


def _ionizable_pkas(seq):
    """pKa lists of the positive and negative groups, termini first, then in
    sequence order."""
    pos = [PKA_POSITIVE["nterm"]]
    neg = [PKA_NEGATIVE["cterm"]]
    for ch in seq:
        if ch in PKA_POSITIVE:
            pos.append(PKA_POSITIVE[ch])
        elif ch in PKA_NEGATIVE:
            neg.append(PKA_NEGATIVE[ch])
    return pos, neg


def _charge(pos, neg, ph):
    charge = sum(1.0 / (1.0 + 10.0 ** (ph - pka)) for pka in pos)
    charge -= sum(1.0 / (1.0 + 10.0 ** (pka - ph)) for pka in neg)
    return charge


def net_charge(seq, ph):
    """Henderson-Hasselbalch net charge at a given pH, termini included."""
    return _charge(*_ionizable_pkas(seq), ph)


def isoelectric_point(seq):
    """pH where the net charge crosses zero, by bisection on [0, 14] to PI_TOL."""
    pos, neg = _ionizable_pkas(seq)
    lo, hi = 0.0, 14.0
    while hi - lo > PI_TOL:
        mid = 0.5 * (lo + hi)
        if _charge(pos, neg, mid) > 0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def property_vector(seq):
    """The physicochemical descriptors of one sequence, a float64 array in
    PROPERTY_NAMES order."""
    if not seq:
        raise EmptySequence("properties of an empty sequence")
    check_residues(seq)
    n = len(seq)
    props = {
        "length": n,
        "molecular_weight": sum(RESIDUE_MASS[ch] for ch in seq) + WATER_MASS,
        "aromaticity": sum(ch in AROMATIC for ch in seq) / n,
        "gravy": sum(HYDROPATHY[ch] for ch in seq) / n,
        "charge_ph6": net_charge(seq, 6.0),
        "charge_ph7": net_charge(seq, 7.0),
        "isoelectric_point": isoelectric_point(seq),
    }
    return np.array([props[name] for name in PROPERTY_NAMES], dtype=np.float64)


def wasserstein_1d(a, b):
    """1-D 1-Wasserstein distance between empirical samples (any sizes)."""
    a = np.sort(np.asarray(a, dtype=np.float64))
    b = np.sort(np.asarray(b, dtype=np.float64))
    merged = np.sort(np.concatenate([a, b]))
    if merged.size < 2:
        return 0.0
    deltas = np.diff(merged)
    ca = np.searchsorted(a, merged[:-1], side="right") / a.size
    cb = np.searchsorted(b, merged[:-1], side="right") / b.size
    return float(np.sum(np.abs(ca - cb) * deltas))


def w_property(gen_batch, ref_batch):
    """Average 1-D Wasserstein distance over jointly min-max-normalized
    property distributions. Properties constant across both batches carry no
    signal and are skipped with a warning."""
    if not gen_batch or not ref_batch:
        raise EmptyInput("both batches must be nonempty")
    gen_vecs = np.array([property_vector(s) for s in gen_batch])
    ref_vecs = np.array([property_vector(s) for s in ref_batch])
    dists = []
    for name, g, r in zip(PROPERTY_NAMES, gen_vecs.T, ref_vecs.T):
        lo = min(g.min(), r.min())
        hi = max(g.max(), r.max())
        if hi - lo <= 0.0:
            warnings.warn(
                f"property {name} identical everywhere; skipped",
                DegeneratePropertyWarning,
            )
            continue
        dists.append(wasserstein_1d((g - lo) / (hi - lo), (r - lo) / (hi - lo)))
    if not dists:
        return 0.0
    return float(np.mean(dists))


# --- pseudoperplexity -----------------------------------------------------------


def unigram_probs(corpus):
    """Position-independent residue frequencies of a corpus with add-one
    smoothing: a (20,) float64 array indexed by residue id."""
    ids = tokenize(corpus, max(map(len, corpus), default=0))
    counts = np.bincount(ids.ravel(), minlength=VOCAB_SIZE)[:PAD_ID] + 1.0
    return counts / counts.sum()


def pseudoperplexity(seq, probs):
    """exp of the mean negative log-probability of each residue under the
    residue distribution probs (indexed by residue id), probabilities
    floored at 1e-12 before the log."""
    if not seq:
        raise EmptySequence("pseudoperplexity of an empty sequence")
    check_residues(seq)
    total = 0.0
    for ch in seq:
        total += math.log(max(float(probs[TOKEN_TO_ID[ch]]), 1e-12))
    return math.exp(-total / len(seq))


def threshold_proportions(scores, threshold):
    """Fraction of scores strictly greater than the threshold."""
    scores = np.asarray(scores, dtype=np.float64)
    if scores.size == 0:
        raise EmptyInput("no scores")
    return float((scores > threshold).mean())
