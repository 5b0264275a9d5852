"""Benchmark the compiled and fallback kernel backends against each other.

The hot loops behind the sequence metrics (edit-distance matrices and the
exact assignment solver) ship in two interchangeable implementations: numba
@njit kernels and a pure-numpy fallback, selected at import time by the
PROTFLOW_BACKEND environment variable. This script times the same workloads
under both backends in child processes, checks that their outputs are
byte-identical, and prints a comparison table. Without numba installed it
times the numpy backend alone and says so.

Usage:
    python benchmarks/bench_kernels.py            # compare both backends
    python benchmarks/bench_kernels.py --n 500    # bigger corpora
    python benchmarks/bench_kernels.py --child numpy   # one backend, JSON out
"""

import argparse
import hashlib
import importlib.util
import json
import os
import subprocess
import sys
import time

import numpy as np

ALPHABET = "ACDEFGHIKLMNPQRSTVWY"


def make_corpus(n, lo, hi, seed):
    gen = np.random.default_rng(seed)
    lengths = gen.integers(lo, hi + 1, size=n)
    return [
        "".join(ALPHABET[k] for k in gen.integers(0, len(ALPHABET), size=length))
        for length in lengths
    ]


def run_tasks(n):
    """Time each workload under the already-imported backend.

    Returns a list of {task, seconds, checksum} dicts. Every task runs once
    untimed (covers JIT compilation) and then takes the best of three timed
    repeats; checksums make cross-backend agreement verifiable.
    """
    from protflow import kernels

    corpus_a = make_corpus(n, 10, 50, seed=1)
    corpus_b = make_corpus(n, 10, 50, seed=2)
    pair_a = corpus_a[0]
    pair_b = corpus_b[0]

    tasks = []

    def record(name, fn, digest_fn):
        fn()  # warmup (JIT compile on the numba path)
        best = float("inf")
        result = None
        for _ in range(3):
            t0 = time.perf_counter()
            result = fn()
            best = min(best, time.perf_counter() - t0)
        tasks.append(
            {
                "task": name,
                "seconds": best,
                "checksum": hashlib.sha256(digest_fn(result)).hexdigest()[:16],
            }
        )

    record(
        "levenshtein x5000 (len~30)",
        lambda: sum(kernels.levenshtein(pair_a, pair_b) for _ in range(5000)),
        lambda r: str(r).encode(),
    )
    record(
        f"pairwise_edit_matrix n={n}",
        lambda: kernels.pairwise_edit_matrix(corpus_a),
        lambda r: r.tobytes(),
    )
    cross = kernels.cross_edit_matrix(corpus_a, corpus_b)
    record(
        f"cross_edit_matrix {n}x{n}",
        lambda: kernels.cross_edit_matrix(corpus_a, corpus_b),
        lambda r: r.tobytes(),
    )
    record(
        f"assignment_min_cost n={n}",
        lambda: kernels.assignment_min_cost(cross),
        lambda r: str(r[0]).encode() + r[1].tobytes(),
    )
    return {"backend": kernels.BACKEND, "results": tasks}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--n", type=int, default=300, help="corpus size per batch")
    parser.add_argument(
        "--child",
        choices=("numba", "numpy"),
        default=None,
        help="run one backend in-process and emit JSON (used by the parent run)",
    )
    args = parser.parse_args(argv)

    if args.child:
        report = run_tasks(args.n)
        if report["backend"] != args.child:
            raise SystemExit(f"backend {report['backend']} active, wanted {args.child}")
        print(json.dumps(report))
        return 0

    backends = ("numba", "numpy") if importlib.util.find_spec("numba") else ("numpy",)
    reports = {}
    for backend in backends:
        env = dict(os.environ, PROTFLOW_BACKEND=backend)
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--child", backend, "--n", str(args.n)],
            env=env,
            capture_output=True,
            text=True,
        )
        if proc.returncode != 0:
            print(f"{backend} run failed:\n{proc.stderr}", file=sys.stderr)
            return 1
        reports[backend] = json.loads(proc.stdout.splitlines()[-1])

    if "numba" not in reports:
        results = reports["numpy"]["results"]
        width = max(len(r["task"]) for r in results)
        print("numba is not installed: timing the numpy backend alone")
        print(f"{'task':<{width}}  {'numpy':>10}")
        for r in results:
            print(f"{r['task']:<{width}}  {r['seconds']:>9.4f}s")
        return 0

    rows = []
    all_match = True
    for res_nb, res_np in zip(reports["numba"]["results"], reports["numpy"]["results"]):
        assert res_nb["task"] == res_np["task"]
        match = res_nb["checksum"] == res_np["checksum"]
        all_match &= match
        rows.append(
            (
                res_nb["task"],
                res_nb["seconds"],
                res_np["seconds"],
                res_np["seconds"] / res_nb["seconds"],
                "yes" if match else "NO",
            )
        )

    width = max(len(r[0]) for r in rows)
    print(f"{'task':<{width}}  {'numba':>10}  {'numpy':>10}  {'speedup':>8}  identical")
    for task, t_nb, t_np, speedup, match in rows:
        print(f"{task:<{width}}  {t_nb:>9.4f}s  {t_np:>9.4f}s  {speedup:>7.1f}x  {match}")
    print(
        f"outputs identical across backends: {all_match} "
        f"({sum(r[4] == 'yes' for r in rows)}/{len(rows)} tasks)"
    )
    return 0 if all_match else 1


if __name__ == "__main__":
    raise SystemExit(main())
