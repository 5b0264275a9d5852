"""Time the edit-distance and assignment kernels at the shapes eval uses.

Two shapes:
  * eval: 32 x 32 sequences with lengths 2-96, as in the perfbench eval
    workload (two words of 64 pattern rows);
  * roadmap: a 128-sequence batch against a 500-sequence reference set with
    lengths 1-20, the single-chain experiment's eval.

For each shape the script times cross_edit_matrix (batch x reference),
pairwise_edit_matrix (within the batch, as int_div) and assignment_min_cost
(on the square batch x first-n-references block, as ot_levenshtein), best
and median of five runs after one warm-up. It checks a seeded sample of
matrix entries against the single-pair levenshtein and exits 1 on any
mismatch, else 0.

Usage:
    python benchmarks/bench_kernels.py
"""

import os
import sys
import time

import numpy as np

# run against this checkout's package, installed or not
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

from protflow import kernels  # noqa: E402

ALPHABET = "ACDEFGHIKLMNPQRSTVWY"
REPEATS = 5
CHECKED_ENTRIES = 200

SHAPES = {
    # name: (batch size, reference size, min length, max length)
    "eval": (32, 32, 2, 96),
    "roadmap": (128, 500, 1, 20),
}


def make_corpus(n, lo, hi, seed):
    gen = np.random.default_rng(seed)
    lengths = gen.integers(lo, hi + 1, size=n)
    return [
        "".join(ALPHABET[k] for k in gen.integers(0, len(ALPHABET), size=length))
        for length in lengths
    ]


def timed(fn):
    """(result, best seconds, median seconds) of REPEATS runs after a warm-up."""
    result = fn()
    times = []
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return result, min(times), float(np.median(times))


def mismatches(mat, xs, ys, seed):
    """Sampled entries of mat that disagree with levenshtein(xs[i], ys[j])."""
    gen = np.random.default_rng(seed)
    rows = gen.integers(0, len(xs), size=CHECKED_ENTRIES)
    cols = gen.integers(0, len(ys), size=CHECKED_ENTRIES)
    return sum(int(mat[i, j]) != kernels.levenshtein(xs[i], ys[j]) for i, j in zip(rows, cols))


def main():
    print(f"{'shape':<8} {'task':<22} {'best':>10} {'median':>10}  entries checked")
    bad = 0
    for seed, (shape, (n_batch, n_ref, lo, hi)) in enumerate(SHAPES.items()):
        batch = make_corpus(n_batch, lo, hi, seed=2 * seed + 1)
        ref = make_corpus(n_ref, lo, hi, seed=2 * seed + 2)
        cross, *t_cross = timed(lambda: kernels.cross_edit_matrix(batch, ref))
        pair, *t_pair = timed(lambda: kernels.pairwise_edit_matrix(batch))
        square = cross[:, :n_batch]
        _, *t_assign = timed(lambda: kernels.assignment_min_cost(square))
        bad_cross = mismatches(cross, batch, ref, seed)
        bad_pair = mismatches(pair, batch, batch, seed)
        bad += bad_cross + bad_pair
        rows = [
            (f"cross {n_batch}x{n_ref}", t_cross, f"{CHECKED_ENTRIES}, {bad_cross} wrong"),
            (f"pairwise {n_batch}", t_pair, f"{CHECKED_ENTRIES}, {bad_pair} wrong"),
            (f"assignment {n_batch}", t_assign, ""),
        ]
        for task, (best, median), checked in rows:
            print(f"{shape:<8} {task:<22} {best * 1e3:>8.2f}ms {median * 1e3:>8.2f}ms  {checked}")
    return 1 if bad else 0


if __name__ == "__main__":
    raise SystemExit(main())
