"""Hot loops behind the sequence metrics: edit distance and assignment.

Edit distances use the bit-vector recurrence of Myers (1999, J. ACM 46(3)) in
Hyyrö's (2003) form for global Levenshtein distance. A matrix of distances is
one vectorized pass: every (pattern, text) pair is a lane holding its column
of vertical deltas as uint64 words, one word per 64 pattern rows, and each
text position updates all lanes with a fixed group of numpy ops. The single
pair `levenshtein` runs the same recurrence on one unbounded Python int.
The assignment solver is a shortest augmenting path search with a vectorized
column scan. Everything is plain numpy and integer-exact.
"""

import numpy as np

# the one kernel implementation, named in benchmark run records
BACKEND = "numpy"

_INF = np.int64(1) << np.int64(62)

# Lanes per vectorized pass. Memory per pass is O(_LANES * (W + text length)),
# whatever the number of pairs.
_LANES = 4096

_ONE = np.uint64(1)
_TOP_BIT = np.uint64(63)
_ALL = np.uint64(0xFFFFFFFFFFFFFFFF)
_POPCOUNT8 = np.array([bin(i).count("1") for i in range(256)], dtype=np.int64)


def encode_sequences(seqs):
    """Pack strings into a (n, L_max) uint32 code matrix plus lengths.

    Codes are unicode code points, so any strings work, not just residue
    alphabets. Rows are zero-padded past their length.
    """
    n = len(seqs)
    lengths = np.array([len(s) for s in seqs], dtype=np.int64)
    l_max = int(lengths.max()) if n else 0
    codes = np.zeros((n, max(l_max, 1)), dtype=np.uint32)
    for i, s in enumerate(seqs):
        if s:
            codes[i, : len(s)] = np.frombuffer(s.encode("utf-32-le"), dtype=np.uint32)
    return codes, lengths


def _sorted_unique(a):
    """np.unique of a 1-D array by sort and neighbour comparison: np.unique
    imports numpy.ma, which eval needs for nothing else."""
    a = np.sort(a)
    keep = np.empty(a.size, dtype=bool)
    keep[:1] = True
    np.not_equal(a[1:], a[:-1], out=keep[1:])
    return a[keep]


def _match_masks(codes, lengths):
    """Per-pattern match bit masks over a compressed alphabet.

    Returns (alphabet, peq): alphabet is the sorted distinct code points of
    the patterns, and peq[w, p * (sigma + 1) + s] has bit r set when
    pattern p holds symbol s at row 64 * w + r. Row sigma of each pattern
    stays zero; it stands for every symbol outside the alphabet.
    """
    n, l_max = codes.shape
    rows, cols = np.nonzero(np.arange(l_max) < lengths[:, None])
    alphabet = _sorted_unique(codes[rows, cols])
    sigma = alphabet.size
    n_words = max(1, -(-l_max // 64))
    peq = np.zeros((n_words, n * (sigma + 1)), dtype=np.uint64)
    sym = np.searchsorted(alphabet, codes[rows, cols])
    bits = _ONE << (cols % 64).astype(np.uint64)
    np.bitwise_or.at(peq, (cols // 64, rows * (sigma + 1) + sym), bits)
    return alphabet, peq


def _popcount(words):
    """Set bits per lane of a (W, L) uint64 array, summed over the W words."""
    return _POPCOUNT8[words.view(np.uint8)].reshape(*words.shape, 8).sum(axis=(0, 2))


def _lane_distances(codes_p, lengths_p, codes_t, lengths_t, pi, ti):
    """Edit distance between pattern pi[k] and text ti[k] for every lane k.

    Lanes run longest text first, so the lanes still reading text at any
    column are a prefix and finished lanes keep the delta column of their
    last text position. The distance is then the text length plus the net
    vertical delta over the pattern's rows: D[m, n] = n + sum_i (D[i, n] -
    D[i - 1, n]). An empty pattern has no rows and gives the text length.
    """
    alphabet, peq = _match_masks(codes_p, lengths_p)
    sigma = alphabet.size
    n_words = peq.shape[0]
    # text symbols as rows of the compressed alphabet, sigma when absent;
    # position-major, so each pass gathers its (position, lane) keys directly
    sym_t = np.searchsorted(alphabet, codes_t.T)
    found = sym_t < sigma
    found[found] = alphabet[sym_t[found]] == codes_t.T[found]
    sym_t[~found] = sigma

    out = np.empty(pi.size, dtype=np.int64)
    order = np.argsort(-lengths_t[ti], kind="stable")
    word_rows = 64 * np.arange(n_words)[:, None]
    for start in range(0, order.size, _LANES):
        lanes = order[start : start + _LANES]
        p, t = pi[lanes], ti[lanes]
        m, n = lengths_p[p], lengths_t[t]
        t_max = int(n[0])
        keys = sym_t[:t_max, t] + p * (sigma + 1)
        active = np.searchsorted(-n, -np.arange(t_max), side="left")
        pv = np.full((n_words, lanes.size), _ALL)
        mv = np.zeros((n_words, lanes.size), dtype=np.uint64)
        for j in range(t_max):
            a = active[j]
            eq_words = peq[:, keys[j, :a]]
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
    codes, lengths = encode_sequences(seqs)
    i, j = np.triu_indices(n, k=1)
    d = _lane_distances(codes, lengths, codes, lengths, i, j)
    out[i, j] = d
    out[j, i] = d
    return out


def cross_edit_matrix(seqs_a, seqs_b):
    """(len(a), len(b)) int64 matrix of edit distances between two lists."""
    na, nb = len(seqs_a), len(seqs_b)
    if na == 0 or nb == 0:
        return np.zeros((na, nb), dtype=np.int64)
    codes_a, lengths_a = encode_sequences(seqs_a)
    codes_b, lengths_b = encode_sequences(seqs_b)
    i, j = np.divmod(np.arange(na * nb), nb)
    d = _lane_distances(codes_a, lengths_a, codes_b, lengths_b, i, j)
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
