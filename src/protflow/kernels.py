"""Hot loops behind the sequence metrics: edit distance and assignment.

Edit distances use the bit-vector recurrence of Myers (1999, J. ACM 46(3)) in
Hyyrö's (2003) form for global Levenshtein distance. A matrix of distances is
one vectorized pass: every (pattern, text) pair is a lane holding its column
of vertical deltas as uint64 words, one word per 64 pattern rows, and each
text position gathers its lanes' match masks and updates all lanes with a
fixed group of numpy ops; a pass takes at most _LANES lanes, so its memory
does not grow with the texts' lengths. The matrix
functions read sequences as seqio.tokenize's residue ids: each pattern has
VOCAB_SIZE rows of match bit masks, one per id, and its PAD_ID row stays
zero, so PAD never matches. A string holding a non-residue character raises
UnknownResidue. The single pair `levenshtein` runs the same recurrence on one
unbounded Python int over any characters.
The assignment solver is a shortest augmenting path search with a vectorized
column scan. Everything is plain numpy and integer-exact.
"""

import numpy as np

from .seqio import PAD_ID, VOCAB_SIZE, tokenize

# the one kernel implementation, named in benchmark run records
BACKEND = "numpy"

_INF = np.int64(1) << np.int64(62)

# Lanes per vectorized pass. Each text position gathers its lanes' match masks
# as it is read, so a pass holds O(_LANES * W) words whatever its texts' lengths.
_LANES = 4096

_ONE = np.uint64(1)
_TOP_BIT = np.uint64(63)
_ALL = np.uint64(0xFFFFFFFFFFFFFFFF)
_POPCOUNT8 = np.array([bin(i).count("1") for i in range(256)], dtype=np.int64)


def _match_masks(ids):
    """Per-pattern match bit masks of an (n, l_max) id matrix.

    peq[w, p * VOCAB_SIZE + s] has bit r set when pattern p holds residue id
    s at row 64 * w + r. Row PAD_ID of each pattern stays zero.
    """
    n, l_max = ids.shape
    rows, cols = np.nonzero(ids != PAD_ID)
    n_words = max(1, -(-l_max // 64))
    peq = np.zeros((n_words, n * VOCAB_SIZE), dtype=np.uint64)
    bits = _ONE << (cols % 64).astype(np.uint64)
    np.bitwise_or.at(peq, (cols // 64, rows * VOCAB_SIZE + ids[rows, cols]), bits)
    return peq


def _popcount(words):
    """Set bits per lane of a (W, L) uint64 array, summed over the W words."""
    return _POPCOUNT8[words.view(np.uint8)].reshape(*words.shape, 8).sum(axis=(0, 2))


def _lane_distances(ids_p, ids_t, pi, ti):
    """Edit distance between pattern pi[k] and text ti[k] for every lane k.

    Lanes run longest text first, so the lanes still reading text at any
    column are a prefix and finished lanes keep the delta column of their
    last text position. The distance is then the text length plus the net
    vertical delta over the pattern's rows: D[m, n] = n + sum_i (D[i, n] -
    D[i - 1, n]). An empty pattern has no rows and gives the text length.
    """
    peq = _match_masks(ids_p)
    n_words = peq.shape[0]
    lengths_p = np.count_nonzero(ids_p != PAD_ID, axis=1)
    lengths_t = np.count_nonzero(ids_t != PAD_ID, axis=1)
    # position-major, so each text position gathers its lanes' ids from one row
    ids_t = ids_t.T

    out = np.empty(pi.size, dtype=np.int64)
    order = np.argsort(-lengths_t[ti], kind="stable")
    word_rows = 64 * np.arange(n_words)[:, None]
    start = 0
    while start < order.size:
        # the pass's first lane holds its longest text
        t_max = int(lengths_t[ti[order[start]]])
        lanes = order[start : start + _LANES]
        start += lanes.size
        p, t = pi[lanes], ti[lanes]
        m, n = lengths_p[p], lengths_t[t]
        p_rows = p * VOCAB_SIZE
        # lanes still reading text at each position: those with n > j
        active = lanes.size - np.cumsum(np.bincount(n))[:t_max]
        pv = np.full((n_words, lanes.size), _ALL)
        mv = np.zeros((n_words, lanes.size), dtype=np.uint64)
        for j in range(t_max):
            a = active[j]
            eq_words = peq[:, ids_t[j, t[:a]] + p_rows[:a]]
            # word 0 sits under the top row D[0, j] = j: horizontal delta +1
            h_pos, h_neg = _ONE, None
            for w in range(n_words):
                eq, pw, mw = eq_words[w], pv[w, :a], mv[w, :a]
                xv = eq | mw
                if h_neg is not None:
                    eq = eq | h_neg
                xh = (((eq & pw) + pw) ^ pw) | eq
                ph = mw | ~(xh | pw)
                mh = pw & xh
                # the horizontal deltas of the word's last row (bit 63) feed the next word
                carry = (ph >> _TOP_BIT, mh >> _TOP_BIT) if w + 1 < n_words else None
                ph = (ph << _ONE) | h_pos
                mh = mh << _ONE if h_neg is None else (mh << _ONE) | h_neg
                pv[w, :a] = mh | ~(xv | ph)
                mv[w, :a] = ph & xv
                if carry is not None:
                    h_pos, h_neg = carry
        # keep the deltas of rows below m
        rows_left = np.clip(m[None, :] - word_rows, 0, 64).astype(np.uint64)
        keep = np.where(
            rows_left >= 64, _ALL, (_ONE << np.minimum(rows_left, _TOP_BIT)) - _ONE
        )
        out[lanes] = n + _popcount(pv & keep) - _popcount(mv & keep)
    return out


def _assignment_numpy(cost):
    """Shortest-augmenting-path assignment on an int64 cost matrix.

    Returns col4row (col4row[i] = column assigned to row i). The column scan
    is vectorized; all arithmetic is integer, so results are exact.
    """
    n = cost.shape[0]
    u = np.zeros(n, dtype=np.int64)
    v = np.zeros(n, dtype=np.int64)
    col4row = np.full(n, -1, dtype=np.int64)
    row4col = np.full(n, -1, dtype=np.int64)

    for cur_row in range(n):
        shortest = np.full(n, _INF, dtype=np.int64)
        path = np.full(n, -1, dtype=np.int64)
        sr = np.zeros(n, dtype=bool)
        sc = np.zeros(n, dtype=bool)
        min_val = np.int64(0)
        i = cur_row
        sink = -1
        while sink == -1:
            sr[i] = True
            open_cols = ~sc
            r = min_val + cost[i] - u[i] - v
            better = open_cols & (r < shortest)
            shortest[better] = r[better]
            path[better] = i
            masked = np.where(open_cols, shortest, _INF)
            # tie-break: the last free column among the minima, else the
            # first minimum
            lowest = masked.min()
            tie = np.flatnonzero(masked == lowest)
            free = tie[row4col[tie] == -1]
            jlow = int(free[-1]) if free.size else int(tie[0])
            min_val = lowest
            sc[jlow] = True
            if row4col[jlow] == -1:
                sink = jlow
            else:
                i = int(row4col[jlow])
        u[cur_row] += min_val
        others = sr.copy()
        others[cur_row] = False
        idx = np.flatnonzero(others)
        if idx.size:
            u[idx] += min_val - shortest[col4row[idx]]
        v[sc] -= min_val - shortest[sc]
        j = sink
        while True:
            i = int(path[j])
            row4col[j] = i
            col4row[i], j = j, int(col4row[i])
            if i == cur_row:
                break
    return col4row


def levenshtein(a, b):
    """Edit distance (unit insert/delete/substitute costs) between two strings.

    The bit-vector recurrence of the matrix kernel on one Python int, so any
    pattern length fits in one word.
    """
    if not a:
        return len(b)
    peq = {}
    for i, c in enumerate(a):
        peq[c] = peq.get(c, 0) | (1 << i)
    mask = (1 << len(a)) - 1
    pv, mv = mask, 0
    for c in b:
        eq = peq.get(c, 0)
        xv = eq | mv
        xh = (((eq & pv) + pv) ^ pv) | eq
        ph = ((mv | ~(xh | pv)) << 1) | 1
        mh = (pv & xh) << 1
        pv = (mh | ~(xv | ph)) & mask
        mv = ph & xv
    return len(b) + pv.bit_count() - mv.bit_count()


def pairwise_edit_matrix(seqs):
    """Symmetric (n, n) int64 matrix of edit distances within one list."""
    n = len(seqs)
    out = np.zeros((n, n), dtype=np.int64)
    if n < 2:
        return out
    ids = tokenize(seqs, max(map(len, seqs)))
    i, j = np.triu_indices(n, k=1)
    d = _lane_distances(ids, ids, i, j)
    out[i, j] = d
    out[j, i] = d
    return out


def cross_edit_matrix(seqs_a, seqs_b):
    """(len(a), len(b)) int64 matrix of edit distances between two lists."""
    na, nb = len(seqs_a), len(seqs_b)
    if na == 0 or nb == 0:
        return np.zeros((na, nb), dtype=np.int64)
    ids_a = tokenize(seqs_a, max(map(len, seqs_a)))
    ids_b = tokenize(seqs_b, max(map(len, seqs_b)))
    i, j = np.divmod(np.arange(na * nb), nb)
    d = _lane_distances(ids_a, ids_b, i, j)
    return d.reshape(na, nb)


def assignment_min_cost(cost):
    """Minimum-cost perfect assignment on a square int64 cost matrix.

    Returns:
        (total, col4row): exact integer total cost and the assigned column
        for each row.
    """
    cost = np.asarray(cost)
    if cost.ndim != 2 or cost.shape[0] != cost.shape[1]:
        raise ValueError(f"cost must be square, got shape {cost.shape}")
    if cost.shape[0] == 0:
        return 0, np.zeros(0, dtype=np.int64)
    if not np.issubdtype(cost.dtype, np.integer):
        raise ValueError("cost matrix must be integer-typed (exact arithmetic)")
    cost = cost.astype(np.int64)
    col4row = _assignment_numpy(cost)
    total = int(cost[np.arange(cost.shape[0]), col4row].sum())
    return total, col4row
