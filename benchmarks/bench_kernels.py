"""Time GELU at the training shape, the edit-distance and assignment kernels
at the shapes eval uses, the decoder and compressor training steps, the
optimizer, the sampling path, and the start-up of each CLI command.

GELU runs first, on (64, 20, 64) float64 activations (train.batch x L_max x
model.width: one flow block's hidden layer in a training step). gelu, as a
training step takes it (gelu_tanh, then gelu_from_tanh), and gelu_grad are
timed, and their minor page faults per call counted with
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

Training follows, at experiments/single_chain.sh's canonical shapes:
tokenize of the 500-record runs/single_chain/corpus.fasta at L_max 20,
decoder_loss_and_grad on the residue positions of a batch of 64 sequences of
lengths 1-20 (L_max 20, D 32, decoder_hidden 64, embed_rank 4), gathered
from the token table as train_decoder gathers them, and
compressor_loss_and_grad on 64 smoothed rows of width 32 at ratio_c 4,
each per call, best and median of five runs of TRAIN_CALLS calls after one
warm-up.

The optimizer follows: nn.fit per step over OPT_STEPS steps, best and
median of five runs after one warm-up, on two flow fields: criterion 8's
(depth 4, width 1, hidden 64, attention, seq_len 2; 43 keys) and the
canonical one below (depth 2, width 8, hidden 64; 13 keys). loss_and_grad
returns one constant gradient dict, drawn once, so only fit's own work is
timed: packing, the global norm, clipping (the gradient's norm is above
the cap), AdamW and the cosine schedule.

Sampling follows, on a seeded flow model shaped like the sample workload's
(depth 2, width 8, hidden 64, L = 20, time features at flow.TIME_SCALE)
whose parameters are perturbed so the field is not the identity:
flow_forward per call at batch 2, 16 and ode.LANES (the adaptive and dopri5
x25 sample commands' batches, and the most lanes a solve integrates at
once), one dopri5-adaptive solve of 2 lanes with its NFE per
lane, and one dopri5 x25 solve of 16 lanes, best and median of five runs
after one warm-up. Set OPENBLAS_NUM_THREADS=1 to time them as the CLI
benchmarks do.

Memory follows: the tracemalloc peak of one call above what was live when it
started, for one cfm_loss training step at 64 x 20 x 8 (batch x L x width,
hidden 64, depth 2), at 64 x 21 x 8 (an L whose items do not fill a
flow.HIDDEN_ROWS block evenly) and at 64 x 1 x 8 (reflow's single-row
pairs), each on a float64 batch and on the same batch in float32 (the
dtype train_rf and train_reflow hand it, flow.TRAIN_DTYPE), one
uncached flow_forward of ode.LANES lanes at L 20, fit_smoothing of the
training corpus above as its 500 x 20 keys into the token table
(train-decoder's fit), the latent tables at L_max 20 (token_table,
train-decoder's; its smooth, train-compressor's; and
LatentPipeline.latent_table at ratio_c 4, train-flow's), compressor_mse of
that corpus's keys into the smoothed table (train-compressor's closing
figure), the whole decoder stage (table_keys, the token table, STAGE_STEPS
steps, the accuracy of at most 256 sequences and the smoothing fit) and the
whole compressor stage (table_keys, the smoothed table, STAGE_STEPS steps
and the closing MSE), each on that corpus and on one of STAGE_CORPUS
sequences, a dopri5 x25 and a dopri5-adaptive solve of SOLVE_LANES lanes of
the sampling field below (reflow's 1,024 pairs), and cross_edit_matrix of 200 length-20
sequences against the same 200 plus one 3,000-residue text, whose length does
not size the kernel's passes. tracemalloc counts numpy's array buffers, so
each figure is what the call asks of the allocator, not the process's RSS.
Beside each peak, the call's best and median time of five untraced runs
after one warm-up. The tables are over the (token, position) grid, so each
stage's peak grows with the corpus only by its key matrix.

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
import tracemalloc

import numpy as np

# run against this checkout's package, installed or not
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

from protflow import cli, flow, kernels, latent, nn, ode  # noqa: E402
from protflow.config import solver_config  # noqa: E402
from protflow.numeric import RngStream  # noqa: E402
from protflow.seqio import PAD_ID, read_fasta, tokenize  # noqa: E402

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

# experiments/single_chain.sh: model.L_max, model.D, model.decoder_hidden,
# model.embed_rank, model.ratio_c and train.batch
TRAIN_CFG = dict(l_max=20, dim=32, hidden=64, rank=4, ratio=4, batch=64)
TRAIN_CORPUS = 500
CANONICAL_CORPUS = os.path.join(ROOT, "runs", "single_chain", "corpus.fasta")
TRAIN_CALLS = 200

FLOW_CFG = dict(depth=2, width=8, hidden=64, attention=False, seq_len=None)
OPT_FIELDS = (
    ("criterion 8", dict(depth=4, width=1, hidden=64, attention=True, seq_len=2)),
    ("canonical", FLOW_CFG),
)
OPT_STEPS = 400
FLOW_LENGTH = 20
FORWARD_CALLS = 200
# perfbench's train workload: train.batch rows of a flow step
FLOW_BATCH = 64
# one long record among short ones: the short sequences' count and length,
# then the long text's length
LONG_TEXT = (200, 20, 3000)
# lanes of the memory section's solves: the shipped reflow's pairs
SOLVE_LANES = 1024
# the memory section's larger stage corpus, and each stage's steps
STAGE_CORPUS = 5000
STAGE_STEPS = 20

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
    t = nn.gelu_tanh(x)
    shape = "x".join(map(str, GELU_SHAPE))
    print(f"{'allocator':<10} {'task':<22} {'best':>10} {'median':>10}  minor faults/call")
    for label in ("default", "kept-heap"):
        if label == "kept-heap" and cli.keep_freed_heap() is None:
            print("kept-heap  skipped: the C library is not glibc")
            break
        for task, fn in (
            (f"gelu {shape}", lambda: nn.gelu_from_tanh(x, nn.gelu_tanh(x))),
            (f"gelu_grad {shape}", lambda: nn.gelu_grad(x, t)),
        ):
            best, median, faults = gelu_calls(fn)
            timing = f"{best * 1e3:>8.2f}ms {median * 1e3:>8.2f}ms"
            print(f"{label:<10} {task:<22} {timing}  {faults:.0f}")
    print()


def training_corpus(c, rng):
    """(ids, keys, encoder, token table, smoothing) of the seeded
    TRAIN_CORPUS-sequence corpus at TRAIN_CFG's shapes; every padded position
    is a key."""
    ids = tokenize(make_corpus(TRAIN_CORPUS, 1, c["l_max"], 7), c["l_max"])
    enc = latent.init_encoder(
        c["dim"], rng.substream("enc"), embed_scale=10.0, embed_rank=c["rank"]
    )
    keys, table = latent.table_keys(ids), latent.token_table(enc, c["l_max"])
    return ids, keys, enc, table, latent.fit_smoothing(keys, table)


def bench_training():
    c = TRAIN_CFG
    rng = RngStream(3)
    canonical = [s for _, s in read_fasta(CANONICAL_CORPUS)]
    ids, keys, _, table, stats = training_corpus(c, rng)
    # one decoder batch: the residue positions of batch sequences, as train_decoder gathers it
    k = keys[np.random.default_rng(4).integers(0, len(ids), size=c["batch"])]
    tokens = k // c["l_max"]
    h, y = table[k[tokens != PAD_ID]], tokens[tokens != PAD_ID]
    dec = latent.init_decoder(c["dim"], c["hidden"], rng.substream("dec"))
    # one compressor batch: batch smoothed rows of the padded corpus
    rows = latent.smooth(table, stats)[keys.ravel()]
    batch = rows[np.random.default_rng(5).integers(0, len(rows), size=c["batch"])]
    comp = latent.init_compressor(c["dim"], c["ratio"], rng.substream("comp"))

    print(f"{'training, per call':<40} {'best':>10} {'median':>10}")
    steps = (
        (f"tokenize {len(canonical)} records, L_max {c['l_max']}",
         lambda: tokenize(canonical, c["l_max"])),
        (f"decoder_loss_and_grad {h.shape[0]}x{c['dim']}",
         lambda: latent.decoder_loss_and_grad(dec, h, y)),
        (f"compressor_loss_and_grad {batch.shape[0]}x{c['dim']}",
         lambda: latent.compressor_loss_and_grad(comp, batch)),
    )
    for label, step in steps:
        _, best, median = timed(lambda: [step() for _ in range(TRAIN_CALLS)])
        print(f"{label:<40} {best / TRAIN_CALLS * 1e6:>8.1f}us "
              f"{median / TRAIN_CALLS * 1e6:>8.1f}us")
    print()


def bench_optimizer():
    print(f"{'optimizer, nn.fit per step':<40} {'best':>10} {'median':>10}")
    for label, cfg in OPT_FIELDS:
        params = flow.init_flow_model(flow.VectorFieldConfig(**cfg), RngStream(0)).params
        grads = {k: RngStream(1).substream(k).normal(v.shape) for k, v in params.items()}

        def run():
            return nn.fit(params, lambda step: (1.0, grads), OPT_STEPS, 1e-3, 2e-4, 10, 1.0,
                          0.01, betas=(0.9, 0.98), eps=1e-6)

        _, best, median = timed(run)
        label = f"{label}, {len(params)} keys"
        print(f"{label:<40} {best / OPT_STEPS * 1e6:>8.1f}us {median / OPT_STEPS * 1e6:>8.1f}us")
    print()


def perturbed_flow():
    """A FLOW_CFG model whose parameters are perturbed off the identity map."""
    model = flow.init_flow_model(flow.VectorFieldConfig(**FLOW_CFG), RngStream(0))
    for key, val in model.params.items():
        model.params[key] = val + 0.1 * RngStream(1).substream(key).normal(val.shape)
    return model


def bench_sampling():
    model = perturbed_flow()

    def field(x, t):
        return flow.flow_forward(model, x, t)

    def lanes(n):
        return RngStream(2).normal((n, FLOW_LENGTH, FLOW_CFG["width"]))

    print(f"{'sampling':<34} {'best':>10} {'median':>10}")
    for n in (2, 16, ode.LANES):
        x, t = lanes(n), np.full(n, 0.5)
        calls = FORWARD_CALLS * 16 // max(n, 16)
        _, best, median = timed(lambda: [field(x, t) for _ in range(calls)])
        label = f"flow_forward {n}x{FLOW_LENGTH}x{FLOW_CFG['width']}, per call"
        print(f"{label:<34} {best / calls * 1e6:>8.1f}us {median / calls * 1e6:>8.1f}us")
    # each setting a solve leaves unset takes its config.SCHEMA default, as in sample
    adaptive = solver_config({"solver.method": "dopri5-adaptive"})
    fixed = solver_config({"solver.method": "dopri5", "solver.steps": 25})
    solves = (
        ("dopri5-adaptive, 2 lanes", lanes(2), adaptive),
        ("dopri5 x25, 16 lanes", lanes(16), fixed),
    )
    for label, x1, config in solves:
        res, best, median = timed(lambda: ode.solve_lanes(field, x1, config))
        nfe = "/".join(str(k) for k in sorted(set(res.nfe.tolist())))
        print(f"{label:<34} {best * 1e3:>8.1f}ms {median * 1e3:>8.1f}ms  NFE per lane {nfe}")
    print()


def traced_peak(fn):
    """Peak bytes allocated while fn runs: tracing starts with the call, so
    what was live before it does not count."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def decoder_stage(ids, enc, dec):
    """train-decoder's work on one chain: the keys and token table, a short
    fit, the accuracy of its first 256 sequences and the smoothing fit."""
    keys, table = latent.table_keys(ids), latent.token_table(enc, ids.shape[1])
    dec, _ = latent.train_decoder(
        dec, keys, table, RngStream(4), steps=STAGE_STEPS, batch=TRAIN_CFG["batch"],
        lr=1e-3, lr_min=2e-4, warmup=5, weight_decay=0.01, clip=1.0,
    )
    return latent.decoder_accuracy(dec, keys[:256], table), latent.fit_smoothing(keys, table)


def compressor_stage(ids, enc, stats, comp):
    """train-compressor's work on one chain: the keys and smoothed table, a
    short fit and the closing MSE."""
    keys = latent.table_keys(ids)
    table = latent.smooth(latent.token_table(enc, ids.shape[1]), stats)
    comp, _ = latent.train_compressor(
        comp, keys, table, RngStream(4), steps=STAGE_STEPS, batch=TRAIN_CFG["batch"],
        lr=3e-3, lr_min=1e-4, warmup=5, weight_decay=0.0, clip=1.0,
    )
    return latent.compressor_mse(comp, keys, table)


def bench_memory():
    c = TRAIN_CFG
    rng = RngStream(3)
    ids, keys, enc, tokens, stats = training_corpus(c, rng)
    big = tokenize(make_corpus(STAGE_CORPUS, 1, c["l_max"], 8), c["l_max"])
    dec = latent.init_decoder(c["dim"], c["hidden"], rng.substream("dec"))
    comp = latent.init_compressor(c["dim"], c["ratio"], rng.substream("comp"))
    pipe = latent.LatentPipeline(enc, None, stats, comp)
    table = latent.smooth(tokens, stats)
    model = perturbed_flow()

    def field(x, t):
        return flow.flow_forward(model, x, t)

    lanes = RngStream(2).substream("lanes").normal((SOLVE_LANES, FLOW_LENGTH, FLOW_CFG["width"]))
    adaptive = solver_config({"solver.method": "dopri5-adaptive"})
    fixed = solver_config({"solver.method": "dopri5", "solver.steps": 25})
    t = RngStream(2).substream("t").uniform(FLOW_BATCH)
    n_short, short, long = LONG_TEXT
    texts = make_corpus(n_short, short, short, 9)
    texts_long = texts + make_corpus(1, long, long, 10)
    # (label, call)
    figures = []
    # reflow's pairs are single rows
    for length in (FLOW_LENGTH, FLOW_LENGTH + 1, 1):
        shape = (FLOW_BATCH, length, FLOW_CFG["width"])
        x0 = RngStream(2).substream(f"x0-{length}").normal(shape)
        x1 = RngStream(2).substream(f"x1-{length}").normal(shape)
        for dtype in (np.float64, flow.TRAIN_DTYPE):
            batch = [a.astype(dtype) for a in (x0, x1, t)]
            figures.append((
                f"cfm_loss {'x'.join(map(str, shape))}, {np.dtype(dtype).name}",
                lambda batch=batch: flow.cfm_loss(model, *batch),
            ))
    figures += [
        (f"flow_forward {ode.LANES}x{FLOW_LENGTH}x{FLOW_CFG['width']}, uncached",
         lambda: field(lanes[:ode.LANES], 0.5)),
        (f"fit_smoothing {keys.shape[0]}x{keys.shape[1]} keys, D {c['dim']}",
         lambda: latent.fit_smoothing(keys, tokens)),
        (f"token_table L_max {c['l_max']}, D {c['dim']}",
         lambda: latent.token_table(enc, c["l_max"])),
        (f"smooth of the token table, L_max {c['l_max']}",
         lambda: latent.smooth(tokens, stats)),
        (f"latent_table L_max {c['l_max']}, ratio_c {c['ratio']}",
         lambda: pipe.latent_table(c["l_max"])),
        (f"compressor_mse {keys.shape[0]}x{keys.shape[1]} keys, ratio_c {c['ratio']}",
         lambda: latent.compressor_mse(comp, keys, table)),
    ]
    for corpus in (ids, big):
        size = f"{corpus.shape[0]}x{corpus.shape[1]}, {STAGE_STEPS} steps"
        figures += [
            (f"decoder stage {size}", lambda corpus=corpus: decoder_stage(corpus, enc, dict(dec))),
            (f"compressor stage {size}",
             lambda corpus=corpus: compressor_stage(corpus, enc, stats, dict(comp))),
        ]
    figures += [
        (f"dopri5 x25, {SOLVE_LANES} lanes", lambda: ode.solve_lanes(field, lanes, fixed)),
        (f"dopri5-adaptive, {SOLVE_LANES} lanes", lambda: ode.solve_lanes(field, lanes, adaptive)),
        (f"cross {n_short}x{n_short + 1}, one {long}-residue text",
         lambda: kernels.cross_edit_matrix(texts, texts_long)),
    ]
    print(f"{'memory, tracemalloc peak above entry':<46} {'peak':>10} {'best':>10} {'median':>10}")
    for label, fn in figures:
        _, best, median = timed(fn)
        times = f"{best * 1e3:>8.1f}ms {median * 1e3:>8.1f}ms"
        print(f"{label:<46} {traced_peak(fn) / 1e6:>8.2f}MB {times}")
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
    bench_training()
    bench_optimizer()
    bench_sampling()
    bench_memory()
    bench_startup()
    return 1 if bad else 0


if __name__ == "__main__":
    raise SystemExit(main())
