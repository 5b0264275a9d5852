"""Time GELU at the training shape, the edit-distance and assignment kernels
at the shapes eval uses, and the start-up of each CLI command.

GELU runs first, on (64, 20, 64) float64 activations (train.batch x L_max x
model.width: one flow block's hidden layer in a training step). gelu and
gelu_grad are timed, and their minor page faults per call counted with
resource.getrusage, twice: with the C library's default allocator settings,
then after protflow.cli.keep_freed_heap, which the CLI applies at start-up.
The first figure is the fault churn that setting removes. It comes first in
the process, because glibc moves its mmap threshold as blocks are freed.

Two kernel shapes:
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

Start-up comes last: the child CPU seconds (user + system, from os.wait4) of
`python -m protflow <command> --help` for each command, best and median of
five runs, beside the bare interpreter and `import numpy` for scale. --help
parses the command line and exits before a command imports anything, so
each figure is the cost every run of that command pays before its work.

Usage:
    python benchmarks/bench_kernels.py
"""

import os
import resource
import subprocess
import sys
import time

import numpy as np

# run against this checkout's package, installed or not
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

from protflow import cli, kernels, nn  # noqa: E402

ALPHABET = "ACDEFGHIKLMNPQRSTVWY"
REPEATS = 5
CHECKED_ENTRIES = 200
GELU_SHAPE = (64, 20, 64)
GELU_CALLS = 50

COMMANDS = (
    "train-decoder",
    "train-compressor",
    "train-flow",
    "reflow",
    "sample",
    "eval",
    "inspect-checkpoint",
)

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


def gelu_calls(fn):
    """(best seconds, median seconds, minor faults per call) over GELU_CALLS
    calls after a warm-up."""
    fn()
    times = []
    faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    for _ in range(GELU_CALLS):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - faults
    return min(times), float(np.median(times)), faults / GELU_CALLS


def bench_gelu():
    x = np.random.default_rng(0).normal(size=GELU_SHAPE)
    _, t = nn.gelu(x, return_tanh=True)
    shape = "x".join(map(str, GELU_SHAPE))
    print(f"{'allocator':<10} {'task':<22} {'best':>10} {'median':>10}  minor faults/call")
    for label in ("default", "kept-heap"):
        if label == "kept-heap" and cli.keep_freed_heap() is None:
            print("kept-heap  skipped: the C library is not glibc")
            break
        for task, fn in (
            (f"gelu {shape}", lambda: nn.gelu(x, return_tanh=True)),
            (f"gelu_grad {shape}", lambda: nn.gelu_grad(x, t)),
        ):
            best, median, faults = gelu_calls(fn)
            timing = f"{best * 1e3:>8.2f}ms {median * 1e3:>8.2f}ms"
            print(f"{label:<10} {task:<22} {timing}  {faults:.0f}")
    print()


def mismatches(mat, xs, ys, seed):
    """Sampled entries of mat that disagree with levenshtein(xs[i], ys[j])."""
    gen = np.random.default_rng(seed)
    rows = gen.integers(0, len(xs), size=CHECKED_ENTRIES)
    cols = gen.integers(0, len(ys), size=CHECKED_ENTRIES)
    return sum(int(mat[i, j]) != kernels.levenshtein(xs[i], ys[j]) for i, j in zip(rows, cols))


def child_cpu(argv, env):
    """CPU seconds (user + system) of one child process, which must exit 0."""
    proc = subprocess.Popen(argv, env=env, stdout=subprocess.DEVNULL)
    _, status, usage = os.wait4(proc.pid, 0)
    if os.waitstatus_to_exitcode(status) != 0:
        raise RuntimeError(f"{argv} failed")
    return usage.ru_utime + usage.ru_stime


def bench_startup():
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    rows = [("python -c pass", [sys.executable, "-c", "pass"]),
            ("python -c 'import numpy'", [sys.executable, "-c", "import numpy"])]
    rows += [(f"{cmd} --help", [sys.executable, "-m", "protflow", cmd, "--help"])
             for cmd in COMMANDS]
    print(f"{'start-up':<30} {'best':>10} {'median':>10}  (child CPU)")
    for label, argv in rows:
        child_cpu(argv, env)
        times = [child_cpu(argv, env) for _ in range(REPEATS)]
        print(f"{label:<30} {min(times) * 1e3:>8.1f}ms {float(np.median(times)) * 1e3:>8.1f}ms")


def main():
    bench_gelu()
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
    print()
    bench_startup()
    return 1 if bad else 0


if __name__ == "__main__":
    raise SystemExit(main())
