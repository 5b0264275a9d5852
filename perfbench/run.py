"""protflow benchmark: drive the public CLI on seeded inputs, check its outputs, print metrics.

Run from anywhere inside a checkout (paths resolve against this file):

    python3 perfbench/run.py --workload train --seed 1 --seconds 20 --trace 0

Workloads (workloads.py): train, sample, eval, multichain. Load is one closed
loop: each CLI command (``python -m protflow ...``) starts when the previous one
ends. The commands run with OPENBLAS_NUM_THREADS=1 in their environment: on
a virtual machine with few cores shared with other tenants, a second BLAS
thread that waits on a preempted one turns the host's CPU steal into
run-to-run noise. The thread variables as found are recorded.

--trace 0 sets up several times, then repeats the workload's commands for
--seconds and reports end-to-end metrics as medians. Times are the CPU seconds
(user + system) of the CLI commands, which exclude the time a hypervisor
steals from the guest; wall seconds go on the detail line. setup_s is the
CPU time of the set-up's CLI commands. --trace 1 sets up once plainly and once
with span probes (traced_cli.py), then runs a warm-up pass, a traced pass, an
untraced pass, and the flow/ode commands again, traced, with the BLAS threads
as found (the machine default unless the caller set them); it reports the
per-layer metrics of layers.py over the traced set-up (unless the workload opts
out) and pass.

Stdout carries a ``run-record`` line (machine, libraries, threads), a
``detail`` line (per-command figures of this workload) and, last, one JSON
object with the keys correct, attempted, failed and metrics.
"""

import argparse
import hashlib
import importlib.util
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time

import layers
from workloads import WORKLOADS

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
HERE = os.path.join(ROOT, "perfbench")
WORK_DIR = ".perfbench_work"
REQUIRED = ("src/protflow/cli.py", "src/protflow/__main__.py", "experiments/make_corpus.py")

# name, unit, better
END_TO_END = (
    ("cpu_s", "s", "lower"),
    ("setup_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
    ("ops_ok_frac", "frac", "higher"),
)

SETUP_MIN = 3
SETUP_MAX = 9
SETUP_BUDGET_S = 6.0  # keep setting up (up to SETUP_MAX) while under this total
MIN_ITERATIONS = 3  # a warm-up pass, then at least two timed passes to compare digests
DEADLINE_S = 165.0

# Figures of one workload printed on the detail line: stage -> name.
STAGE_FIGURES = {
    "train-decoder": "decoder_train_s",
    "train-compressor": "compressor_train_s",
    "train-flow": "flow_train_s",
    "reflow": "reflow_s",
    "eval-start": "eval_start_s",
    "eval": "eval_s",
    "sample-dopri25": "sample_dopri25_per_s",
    "sample-euler1": "sample_euler1_per_s",
    "sample-adaptive": "sample_adaptive_per_s",
}


class OpFailed(Exception):
    pass


def sha256_file(path):
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for chunk in iter(lambda: f.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def dir_digest(d):
    return {name: sha256_file(os.path.join(d, name)) for name in sorted(os.listdir(d))}


def run_record():
    """Machine, library and thread settings every result carries."""
    import numpy

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    sys.path.insert(0, os.path.join(ROOT, "src"))
    try:
        from protflow import kernels

        backend = kernels.BACKEND
    finally:
        sys.path.pop(0)
    commit = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30
        )
        commit = proc.stdout.strip() or None
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version")},
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
        "child_OPENBLAS_NUM_THREADS": "1",
        "kernels_backend": backend,
        "numba_importable": importlib.util.find_spec("numba") is not None,
        "git_commit": commit,
    }


class Bench:
    """Runs one workload's commands and keeps the op and failure counts."""

    def __init__(self, workload, seed, work):
        self.w = workload
        self.seed = seed
        self.work = work
        self.deadline = time.monotonic() + DEADLINE_S
        self.attempted = 0
        self.failed = 0
        pythonpath = os.path.join(ROOT, "src")
        if os.environ.get("PYTHONPATH"):
            pythonpath += os.pathsep + os.environ["PYTHONPATH"]
        # Threads as found, for the traced default-thread pass; every other
        # command runs with one BLAS thread.
        self.env_found = dict(os.environ, PYTHONPATH=pythonpath)
        self.env = dict(self.env_found, OPENBLAS_NUM_THREADS="1")
        os.makedirs(os.path.join(work, "logs"))

    def _fail(self, message):
        self.failed += 1
        print(f"perfbench: {message}", file=sys.stderr)

    def _spawn(self, argv, cwd, env, log_name):
        """(exit code, wall seconds, CPU seconds, peak RSS MB) of one child process."""
        timeout = max(1.0, self.deadline - time.monotonic())
        with open(os.path.join(self.work, "logs", log_name), "ab") as log:
            t0 = time.perf_counter()
            proc = subprocess.Popen(argv, cwd=cwd, env=env, stdout=log, stderr=subprocess.STDOUT)
        timer = threading.Timer(timeout, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        return proc.returncode, wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0

    def op(self, op, d, env=None, spans=None):
        """Run one CLI command; returns (wall, cpu, rss). Raises OpFailed on a non-zero exit."""
        if spans is None:
            argv = [sys.executable, "-m", "protflow"] + op.argv
        else:
            argv = [sys.executable, os.path.join(HERE, "traced_cli.py"), spans, "--"] + op.argv
        self.attempted += 1
        code, wall, cpu, rss = self._spawn(argv, d, env or self.env, f"{op.stage}.log")
        if code != 0:
            self._fail(f"{op.stage} exited {code} (log in {WORK_DIR})")
            raise OpFailed(op.stage)
        return wall, cpu, rss

    def check(self, op, d, digests=None, reference=None):
        """Output check of one finished command; counts a failure against it."""
        error = op.check(d) if op.check else None
        missing = [f for f in op.outputs if not os.path.isfile(os.path.join(d, f))]
        if missing:
            error = f"missing outputs {missing}"
        if error is None and digests is not None:
            for f in op.outputs:
                digests[f] = sha256_file(os.path.join(d, f))
                if reference is not None and reference.get(f) != digests[f]:
                    error = f"{f} differs from the first pass of this seed"
        if error:
            self._fail(f"{op.stage}: {error}")
        return error is None

    def warm_up(self):
        """Import the package once so bytecode compilation is not timed."""
        argv = [sys.executable, "-c", "import protflow.cli"]
        code, _, _, _ = self._spawn(argv, self.work, self.env, "warm-up.log")
        if code != 0:
            self._fail(f"importing protflow exited {code} (log in {WORK_DIR})")
            raise OpFailed("warm-up")

    def setup(self, d, spans_dir=None):
        """Write the inputs into d and run the set-up's CLI commands.

        Returns (CPU seconds of those commands, {stage: wall seconds}); writing
        the inputs is not timed.
        """
        os.makedirs(d)
        stages, cpu = {}, 0.0
        for op in self.w.setup(ROOT, d, self.seed):
            spans = None if spans_dir is None else os.path.join(spans_dir, f"setup-{op.stage}.json")
            stages[op.stage], op_cpu, _ = self.op(op, d, spans=spans)
            cpu += op_cpu
            self.check(op, d)
        return cpu, stages

    def passes(self, d, ops, env=None, spans_dir=None, reference=None):
        """Run ops once in order; returns {wall, cpu, stages, rss, digests}.

        stages maps each stage to its (wall, cpu) seconds.
        """
        stages = {}
        rss = 0.0
        t0 = time.perf_counter()
        for i, op in enumerate(ops):
            spans = None if spans_dir is None else os.path.join(spans_dir, f"{i}-{op.stage}.json")
            wall, cpu, op_rss = self.op(op, d, env, spans)
            stages[op.stage] = (wall, cpu)
            rss = max(rss, op_rss)
        wall = time.perf_counter() - t0
        digests = {}
        for op in ops:
            self.check(op, d, digests, reference)
        cpu = sum(c for _, c in stages.values())
        return {"wall": wall, "cpu": cpu, "stages": stages, "rss": rss, "digests": digests}

    # --- the two kinds of run ---------------------------------------------------

    def run_end_to_end(self, seconds):
        setups, setup_stages, first = [], [], None
        while len(setups) < SETUP_MIN or (len(setups) < SETUP_MAX and sum(setups) < SETUP_BUDGET_S):
            d = os.path.join(self.work, f"setup{len(setups)}")
            total, stages = self.setup(d)
            setups.append(total)
            setup_stages.append(stages)
            digest = dir_digest(d)
            if first is None:
                first = digest
            elif digest != first:
                self._fail(f"set-up in {os.path.basename(d)} differs from the first set-up")
        d = os.path.join(self.work, "setup0")
        ops = self.w.ops(ROOT, self.seed)
        # The first pass only warms up (it writes the outputs the later passes
        # overwrite) and sets the reference digests; it is not timed.
        runs = []
        t_end = time.perf_counter() + seconds
        while len(runs) < MIN_ITERATIONS or time.perf_counter() < t_end:
            reference = runs[0]["digests"] if runs else None
            runs.append(self.passes(d, ops, reference=reference))
        runs = runs[1:]
        metrics = {
            "cpu_s": statistics.median(r["cpu"] for r in runs),
            "setup_s": statistics.median(setups),
            "peak_rss_mb": max(r["rss"] for r in runs),
            "ops_ok_frac": (self.attempted - self.failed) / self.attempted,
        }
        detail = {
            "wall_s": statistics.median(r["wall"] for r in runs),
            "pass_cpus": [r["cpu"] for r in runs],
            "pass_walls": [r["wall"] for r in runs],
            "setup_cpus": setups,
            "ops_failed_frac": self.failed / self.attempted,
        }
        # Per-stage figures are wall seconds, as a user of that command sees them.
        for op in ops:
            value = statistics.median(r["stages"][op.stage][0] for r in runs)
            name = STAGE_FIGURES[op.stage]
            detail[name] = op.n / value if op.n and name.endswith("_per_s") else value
        for stage in setup_stages[0]:
            detail[STAGE_FIGURES[stage]] = statistics.median(s[stage] for s in setup_stages)
        detail.update(self.w.derived(ROOT, d, self.seed))
        return metrics, detail

    def run_traced(self):
        d = os.path.join(self.work, "setup0")
        _, setup_stages = self.setup(d)
        spans_dir = os.path.join(self.work, "spans")
        os.makedirs(spans_dir)
        if self.w.trace_setup:
            traced_setup = os.path.join(self.work, "setup-traced")
            self.setup(traced_setup, spans_dir=spans_dir)
            if dir_digest(traced_setup) != dir_digest(d):
                self._fail("traced set-up differs from the plain set-up")
        ops = self.w.ops(ROOT, self.seed)
        # The first pass of a run is the slowest; it only warms up and sets the
        # reference digests, and the overhead compares the two passes after it.
        warm = self.passes(d, ops)
        traced = self.passes(d, ops, spans_dir=spans_dir, reference=warm["digests"])
        plain = self.passes(d, ops, reference=warm["digests"])
        derived = self.w.derived(ROOT, d, self.seed)
        flow_ode = [op for op in ops if op.flow_ode]
        found_dir = os.path.join(self.work, "spans_blas_default")
        os.makedirs(found_dir)
        found = self.passes(d, flow_ode, env=self.env_found, spans_dir=found_dir,
                            reference=warm["digests"])

        summary, missing = layers.merge(_load_spans(spans_dir))
        found_summary, _ = layers.merge(_load_spans(found_dir))
        metrics = layers.span_metrics(summary)
        metrics.update(layers.blas_default_metrics(found_summary))
        stage_walls = {**setup_stages, **{k: w for k, (w, _) in plain["stages"].items()}}
        for stage in layers.CLI_STAGES:
            metrics[f"cli.{stage}.s"] = stage_walls.get(stage, 0.0)
        metrics["metrics.panel_skipped"] = derived.get("panel_skipped", 0)
        metrics["sample.nfe_adaptive_mean"] = derived.get("nfe_adaptive_mean", 0.0)
        metrics["sample.mmd"] = derived.get("sample_mmd", 0.0)
        metrics["trace.overhead_s"] = traced["wall"] - plain["wall"]
        metrics["trace.probes_missing"] = len(missing)
        metrics["trace.flow_ode_wall_s"] = sum(traced["stages"][op.stage][0] for op in flow_ode)
        metrics["blas_default.flow_ode_wall_s"] = found["wall"]
        return metrics, {"probes_missing": missing}


def _load_spans(spans_dir):
    out = []
    for name in sorted(os.listdir(spans_dir)):
        with open(os.path.join(spans_dir, name), "r", encoding="utf-8") as f:
            out.append(json.load(f))
    return out


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    missing = [p for p in REQUIRED if not os.path.isfile(os.path.join(ROOT, p))]
    if missing:
        print(f"perfbench: not a protflow checkout, missing {missing}", file=sys.stderr)
        return 2
    work = os.path.join(ROOT, WORK_DIR, f"{args.workload}-s{args.seed}-p{os.getpid()}")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    bench = Bench(WORKLOADS[args.workload], args.seed, work)
    print("run-record " + json.dumps(run_record(), sort_keys=True), flush=True)
    specs = layers.metric_specs() if args.trace else END_TO_END
    try:
        bench.warm_up()
        if args.trace:
            metrics, detail = bench.run_traced()
        else:
            metrics, detail = bench.run_end_to_end(args.seconds)
    except OpFailed:
        metrics, detail = {}, {}
    if bench.failed:
        print(f"perfbench: keeping {work} for inspection", file=sys.stderr)
    else:
        shutil.rmtree(work, ignore_errors=True)
        try:
            os.rmdir(os.path.join(ROOT, WORK_DIR))
        except OSError:
            pass
    print("detail " + json.dumps(detail, sort_keys=True))
    result = {
        "correct": bench.failed == 0,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {name: {"value": metrics.get(name, 0), "unit": unit} for name, unit, _ in specs},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
