"""Edit-distance and assignment kernels against independent oracles."""

import itertools
import tracemalloc

import numpy as np
import pytest

from protflow import kernels
from protflow.errors import UnknownResidue
from protflow.kernels import (
    assignment_min_cost,
    cross_edit_matrix,
    levenshtein,
    pairwise_edit_matrix,
)

ALPHA = "ACD"


def _lev_recursive(a, b):
    """Exhaustive recursion; exponential, only for tiny strings."""
    if not a:
        return len(b)
    if not b:
        return len(a)
    cost = 0 if a[0] == b[0] else 1
    return min(
        _lev_recursive(a[1:], b) + 1,
        _lev_recursive(a, b[1:]) + 1,
        _lev_recursive(a[1:], b[1:]) + cost,
    )


def _lev_row_dp(a, b):
    """Row-by-row dynamic program over code points, vectorized along b."""
    ca = np.array([ord(c) for c in a], dtype=np.int64)
    cb = np.array([ord(c) for c in b], dtype=np.int64)
    j = np.arange(len(b) + 1, dtype=np.int64)
    prev = j.copy()
    cand = np.empty(len(b) + 1, dtype=np.int64)
    for i in range(len(a)):
        cand[0] = i + 1
        np.minimum(prev[1:] + 1, prev[:-1] + (cb != ca[i]), out=cand[1:])
        # close the left-to-right deletion recurrence in one accumulate pass:
        # cur[j] = min_{k<=j} cand[k] + (j - k)
        prev = np.minimum.accumulate(cand - j) + j
    return int(prev[len(b)])


def _random_string(rng, alphabet, length):
    return "".join(alphabet[k] for k in rng.integers(0, len(alphabet), size=length))


def _mutate(rng, s, alphabet, n_edits):
    """s after n_edits random substitutions, insertions and deletions."""
    chars = list(s)
    for _ in range(n_edits):
        op = rng.integers(0, 3)
        pos = int(rng.integers(0, len(chars) + 1))
        if op == 0 and pos < len(chars):
            chars[pos] = alphabet[rng.integers(0, len(alphabet))]
        elif op == 1:
            chars.insert(pos, alphabet[rng.integers(0, len(alphabet))])
        elif chars:
            del chars[min(pos, len(chars) - 1)]
    return "".join(chars)


def _all_strings(max_len):
    out = [""]
    for n in range(1, max_len + 1):
        out.extend("".join(p) for p in itertools.product(ALPHA, repeat=n))
    return out


def test_levenshtein_known_values():
    assert levenshtein("", "") == 0
    assert levenshtein("A", "") == 1
    assert levenshtein("KITTEN".replace("E", "E"), "KITTEN") == 0
    assert levenshtein("ACDE", "ACE") == 1
    assert levenshtein("AAAA", "CCCC") == 4


def test_levenshtein_matches_recursion_exhaustively():
    # every pair of strings of length <= 3 over a 3-letter alphabet, plus a
    # seeded sample of length-4/5 pairs (the full cross product is large)
    short = _all_strings(3)
    for a in short:
        for b in short:
            assert levenshtein(a, b) == _lev_recursive(a, b), (a, b)
    rng = np.random.default_rng(17)
    pool = _all_strings(5)
    for _ in range(300):
        a = pool[rng.integers(0, len(pool))]
        b = pool[rng.integers(0, len(pool))]
        assert levenshtein(a, b) == _lev_recursive(a, b), (a, b)


def test_levenshtein_properties_random():
    rng = np.random.default_rng(23)
    aa = "ACDEFGHIKLMNPQRSTVWY"
    for _ in range(100):
        a = "".join(aa[i] for i in rng.integers(0, 20, size=rng.integers(0, 12)))
        b = "".join(aa[i] for i in rng.integers(0, 20, size=rng.integers(0, 12)))
        d = levenshtein(a, b)
        assert d == levenshtein(b, a)
        assert d <= max(len(a), len(b))
        assert d >= abs(len(a) - len(b))
        assert (d == 0) == (a == b)


def test_pairwise_matrix_consistent_with_scalar():
    rng = np.random.default_rng(31)
    aa = "ACDEFGHIKLMNPQRSTVWY"
    seqs = ["".join(aa[i] for i in rng.integers(0, 20, size=rng.integers(1, 15)))
            for _ in range(12)]
    mat = pairwise_edit_matrix(seqs)
    assert mat.shape == (12, 12)
    assert np.array_equal(mat, mat.T)
    assert np.all(np.diag(mat) == 0)
    for i in range(12):
        for j in range(12):
            assert mat[i, j] == levenshtein(seqs[i], seqs[j])


def test_cross_matrix_consistent_with_scalar():
    rng = np.random.default_rng(37)
    aa = "ACDEFGHIKLMNPQRSTVWY"
    xs = ["".join(aa[i] for i in rng.integers(0, 20, size=rng.integers(1, 10)))
          for _ in range(5)]
    ys = ["".join(aa[i] for i in rng.integers(0, 20, size=rng.integers(1, 10)))
          for _ in range(7)]
    mat = cross_edit_matrix(xs, ys)
    assert mat.shape == (5, 7)
    for i in range(5):
        for j in range(7):
            assert mat[i, j] == levenshtein(xs[i], ys[j])


def _assignment_brute_force(cost):
    n = cost.shape[0]
    best = None
    for perm in itertools.permutations(range(n)):
        total = sum(int(cost[i, perm[i]]) for i in range(n))
        if best is None or total < best:
            best = total
    return best


def test_assignment_matches_brute_force():
    rng = np.random.default_rng(41)
    for _ in range(100):
        n = int(rng.integers(1, 7))
        cost = rng.integers(0, 50, size=(n, n)).astype(np.int64)
        total, col4row = assignment_min_cost(cost)
        assert total == _assignment_brute_force(cost)
        # col4row is a permutation achieving the reported total
        assert sorted(col4row.tolist()) == list(range(n))
        assert sum(int(cost[i, col4row[i]]) for i in range(n)) == total


def test_assignment_identity_and_antidiagonal():
    cost = np.array([[0, 9, 9], [9, 0, 9], [9, 9, 0]], dtype=np.int64)
    total, col4row = assignment_min_cost(cost)
    assert total == 0
    assert col4row.tolist() == [0, 1, 2]


# lengths on both sides of every 64-row word boundary up to four words
BLOCK_EDGE_LENGTHS = [0, 1, 63, 64, 65, 127, 128, 129, 200]
# the last holds the highest residue ids, next to the PAD_ID row
ALPHABETS = ["AC", "ACDEFGHIKLMNPQRSTVWY", "VWY"]


def _block_edge_sets(alphabet, seed):
    """One random string per edge length on each side, plus near-copies, so
    that both far-apart and close pairs cross every word boundary."""
    rng = np.random.default_rng(seed)
    xs = [_random_string(rng, alphabet, n) for n in BLOCK_EDGE_LENGTHS]
    ys = [_random_string(rng, alphabet, n) for n in BLOCK_EDGE_LENGTHS]
    ys += [_mutate(rng, x, alphabet, 3) for x in xs[2:]]
    return xs, ys


def test_row_dp_reference_matches_recursion():
    for a in _all_strings(3):
        for b in ("", "A", "CDA", "ACDC"):
            assert _lev_row_dp(a, b) == _lev_recursive(a, b), (a, b)


def test_cross_matrix_matches_references_at_word_edges():
    for seed, alphabet in enumerate(ALPHABETS):
        xs, ys = _block_edge_sets(alphabet, seed)
        mat = cross_edit_matrix(xs, ys)
        assert mat.shape == (len(xs), len(ys))
        for i, a in enumerate(xs):
            for j, b in enumerate(ys):
                d = _lev_row_dp(a, b)
                assert mat[i, j] == d, (alphabet, len(a), len(b))
                assert levenshtein(a, b) == d, (alphabet, len(a), len(b))


def test_pairwise_matrix_matches_references_at_word_edges():
    for seed, alphabet in enumerate(ALPHABETS):
        xs, ys = _block_edge_sets(alphabet, 10 + seed)
        seqs = xs + ys
        mat = pairwise_edit_matrix(seqs)
        assert np.array_equal(mat, mat.T)
        assert np.all(np.diag(mat) == 0)
        for i, j in zip(*np.triu_indices(len(seqs), k=1)):
            assert mat[i, j] == _lev_row_dp(seqs[i], seqs[j]), (alphabet, i, j)


def test_levenshtein_matches_row_dp_on_random_pairs():
    rng = np.random.default_rng(53)
    for alphabet in ALPHABETS:
        for _ in range(100):
            a = _random_string(rng, alphabet, int(rng.integers(0, 140)))
            b = _random_string(rng, alphabet, int(rng.integers(0, 140)))
            assert levenshtein(a, b) == _lev_row_dp(a, b), (a, b)


def test_matrices_span_several_lane_chunks():
    rng = np.random.default_rng(59)
    aa = "ACDEFGHIKLMNPQRSTVWY"
    xs = [_random_string(rng, aa, int(rng.integers(0, 14))) for _ in range(70)]
    ys = [_random_string(rng, aa, int(rng.integers(0, 14))) for _ in range(61)]
    assert len(xs) * len(ys) > kernels._LANES
    mat = cross_edit_matrix(xs, ys)
    for i, a in enumerate(xs):
        for j, b in enumerate(ys):
            assert mat[i, j] == levenshtein(a, b) == _lev_row_dp(a, b), (a, b)
    seqs = xs + ys
    assert len(seqs) * (len(seqs) - 1) // 2 > kernels._LANES
    pw = pairwise_edit_matrix(seqs)
    assert np.array_equal(pw, pw.T)
    assert np.all(np.diag(pw) == 0)
    for i, j in zip(*np.triu_indices(len(seqs), k=1)):
        assert pw[i, j] == levenshtein(seqs[i], seqs[j]), (i, j)


def test_one_long_text_does_not_size_every_pass():
    # 200 patterns against the same 200 texts plus one 3,000-residue text:
    # each text position gathers its lanes' masks as it is read, so the pass
    # holding the long text holds no (text length, lanes) array
    rng = np.random.default_rng(61)
    aa = "ACDEFGHIKLMNPQRSTVWY"
    xs = [_random_string(rng, aa, 20) for _ in range(200)]
    long_text = _random_string(rng, aa, 3000)
    tracemalloc.start()
    try:
        mat = cross_edit_matrix(xs, xs + [long_text])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 2**20
    assert mat[:, -1].tolist() == [levenshtein(a, long_text) for a in xs]
    assert np.all(np.diag(mat) == 0)


def test_small_lane_budget_splits_passes_exactly(monkeypatch):
    # 99 cross and 55 pairwise lanes run 7 per pass, the last pass short
    monkeypatch.setattr(kernels, "_LANES", 7)
    rng = np.random.default_rng(67)
    aa = "ACDEFGHIKLMNPQRSTVWY"
    xs = [_random_string(rng, aa, int(rng.integers(0, 90))) for _ in range(9)]
    ys = [_random_string(rng, aa, int(rng.integers(0, 130))) for _ in range(11)]
    mat = cross_edit_matrix(xs, ys)
    for i, a in enumerate(xs):
        for j, b in enumerate(ys):
            assert mat[i, j] == _lev_row_dp(a, b), (a, b)
    pw = pairwise_edit_matrix(ys)
    for i, j in zip(*np.triu_indices(len(ys), k=1)):
        assert pw[i, j] == pw[j, i] == _lev_row_dp(ys[i], ys[j]), (i, j)


def test_text_symbols_outside_the_pattern_alphabet():
    # residues only the texts use, with ids below and above every pattern
    # residue, never match
    xs = ["CCC", "DCD", ""]
    ys = ["AAA", "WCY", "YC", "CD"]
    mat = cross_edit_matrix(xs, ys)
    for i, a in enumerate(xs):
        for j, b in enumerate(ys):
            assert mat[i, j] == _lev_row_dp(a, b), (a, b)


def test_empty_inputs():
    assert cross_edit_matrix([], ["A"]).shape == (0, 1)
    assert cross_edit_matrix(["A"], []).shape == (1, 0)
    assert pairwise_edit_matrix([]).shape == (0, 0)
    assert pairwise_edit_matrix(["ACD"]).tolist() == [[0]]
    assert cross_edit_matrix(["", ""], ["", "AC"]).tolist() == [[0, 2], [0, 2]]


@pytest.mark.parametrize("bad", ["ACZ", "acd", "AC\u00e9", "A-C"])
def test_matrices_reject_non_residue_strings(bad):
    with pytest.raises(UnknownResidue):
        cross_edit_matrix(["ACD", bad], ["ACD"])
    with pytest.raises(UnknownResidue):
        cross_edit_matrix(["ACD"], [bad])
    with pytest.raises(UnknownResidue):
        pairwise_edit_matrix(["ACD", bad])
