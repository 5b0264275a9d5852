"""The four benchmark workloads: inputs from a seed, the CLI commands, output checks.

A workload writes its inputs into a directory (``setup``), names the CLI
commands that finish set-up, and names the timed CLI commands (``ops``). Only
the CLI commands are timed, so ``setup_s`` is a figure of protflow, not of the
input generator. Every command runs with that directory as its working
directory and relative file names, so two set-ups from one seed produce
byte-identical files.
"""

import importlib.util
import json
import math
import os
import subprocess
import sys

import jsonschema
import numpy as np

ALPHABET = frozenset("ACDEFGHIKLMNPQRSTVWY")

# experiments/single_chain.sh, with the training lengths cut to fit one run.
SINGLE_CHAIN_CFG = (
    ("model.depth", 2),
    ("model.width", 64),
    ("model.ratio_c", 4),
    ("model.L_max", 20),
    ("model.D", 32),
    ("model.embed_rank", 4),
    ("model.decoder_hidden", 64),
    ("train.batch", 64),
    ("train.lr", "1e-3"),
    ("train.warmup", 10),
    ("train.val_every", 100),
    ("solver.method", "dopri5"),
    ("solver.steps", 25),
    ("data.train_path", "corpus.fasta"),
)


class Op:
    """One CLI command: protflow arguments, files it writes, and its output check.

    flow_ode marks commands whose work is in the flow/ode layers; the traced
    pass repeats those with one BLAS thread.
    """

    __slots__ = ("stage", "argv", "outputs", "check", "flow_ode", "n")

    def __init__(self, stage, argv, outputs, check=None, flow_ode=False, n=None):
        self.stage = stage
        self.argv = [str(a) for a in argv]
        self.outputs = outputs
        self.check = check
        self.flow_ode = flow_ode
        self.n = n


# --- inputs --------------------------------------------------------------------------


def _make_corpus_path(root):
    return os.path.join(root, "experiments", "make_corpus.py")


def make_corpus(root, out, n, max_len, seed, chains=None):
    """Write a FASTA corpus with the repository's generator script."""
    argv = [sys.executable, _make_corpus_path(root), "--n", str(n), "--max-len", str(max_len)]
    argv += ["--seed", str(seed), "--out", out]
    if chains:
        argv += ["--chains", chains]
    subprocess.run(argv, check=True, stdout=subprocess.DEVNULL, timeout=120)


def load_generator(root):
    """The repository's corpus generator module (experiments/make_corpus.py)."""
    spec = importlib.util.spec_from_file_location("make_corpus", _make_corpus_path(root))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def write_config(path, seed, extra=()):
    lines = [f"{k} = {v}" for k, v in SINGLE_CHAIN_CFG + (("train.seed", seed),) + tuple(extra)]
    with open(path, "w", encoding="utf-8") as f:
        f.write("\n".join(lines) + "\n")


def read_fasta(path):
    records = []
    with open(path, "r", encoding="utf-8") as f:
        for line in f:
            line = line.strip()
            if line.startswith(">"):
                records.append([line[1:], ""])
            elif line and records:
                records[-1][1] += line
    return records


# --- output checks -------------------------------------------------------------------


def check_fasta(path, n, caps):
    """Error text, or None if the FASTA has n complexes of valid residues.

    caps is [(chain name or None, L_max)]; tagged chains must appear in order.
    """
    if not os.path.isfile(path):
        return f"{path} missing"
    records = read_fasta(path)
    if len(records) != n * len(caps):
        return f"{path}: {len(records)} records, expected {n * len(caps)}"
    for i, (header, seq) in enumerate(records):
        name, cap = caps[i % len(caps)]
        if name is not None and not header.endswith(f"|chain={name}"):
            return f"{path}: record {header!r} lacks tag |chain={name}"
        if not 1 <= len(seq) <= cap or not set(seq) <= ALPHABET:
            return f"{path}: record {header!r} is not 1..{cap} valid residues"
    sidecar = path + ".json"
    if not os.path.isfile(sidecar):
        return f"{sidecar} missing"
    with open(sidecar, "r", encoding="utf-8") as f:
        meta = json.load(f)
    if meta.get("n") != n or not math.isfinite(meta.get("mean_nfe", math.nan)):
        return f"{sidecar}: bad n or mean_nfe"
    return None


def check_report(prefix, schema_path):
    """Error text, or None if the eval report is valid and computed every metric."""
    path = prefix + ".json"
    if not os.path.isfile(path):
        return f"{path} missing"
    with open(path, "r", encoding="utf-8") as f:
        report = json.load(f)
    with open(schema_path, "r", encoding="utf-8") as f:
        schema = json.load(f)
    try:
        jsonschema.validate(report, schema)
    except jsonschema.ValidationError as e:
        return f"report fails schema: {e.message}"
    skipped = panel_skipped(prefix)
    if skipped:
        return f"{path}: {skipped} metrics skipped"
    if not all(math.isfinite(row["value"]) for row in report["metrics"]):
        return f"{path}: non-finite metric value"
    return None


def panel_skipped(prefix):
    with open(prefix + ".json", "r", encoding="utf-8") as f:
        return sum(row["skipped"] is not None for row in json.load(f)["metrics"])


# --- workloads -----------------------------------------------------------------------


def _loss_csvs(ckpt, chains):
    return [f"{ckpt}.{c}.loss.csv" for c in chains] if chains else [f"{ckpt}.loss.csv"]


def decoder_op(chains=()):
    """train-decoder on run.cfg (steps from it): the checkpoint every later stage starts from."""
    return Op("train-decoder", ["train-decoder", "--config", "run.cfg", "--out", "decoder.ckpt"],
              ["decoder.ckpt"] + _loss_csvs("decoder.ckpt", chains))


def training_ops(flow_steps, chains=()):
    """train-compressor and train-flow on run.cfg, starting from decoder.ckpt."""
    return [
        Op("train-compressor",
           ["train-compressor", "--config", "run.cfg", "--init", "decoder.ckpt",
            "--out", "pipeline.ckpt"],
           ["pipeline.ckpt"] + _loss_csvs("pipeline.ckpt", chains)),
        Op("train-flow",
           ["train-flow", "--config", "run.cfg", "--init", "pipeline.ckpt", "--out", "flow.ckpt",
            "--set", f"train.steps={flow_steps}"],
           ["flow.ckpt", "flow.ckpt.loss.csv"], flow_ode=True),
    ]


class Workload:
    name = why = None
    # Whether the traced run also records the set-up's commands.
    trace_setup = True

    def setup(self, root, d, seed):
        """Write the inputs into d; return the CLI ops that finish set-up (the timed part)."""
        raise NotImplementedError

    def ops(self, root, seed):
        """The timed CLI ops, in order."""
        raise NotImplementedError

    def derived(self, root, d, seed):
        """Figures read from the outputs of a finished pass."""
        return {}


class Train(Workload):
    name = "train"
    why = (
        "the single-chain corpus through train-decoder, train-compressor, train-flow and "
        "reflow: gradient steps dominate, so GELU, flow_backward and AdamW do most of the work"
    )
    # train-decoder runs in set-up; the timed pass starts from its checkpoint.
    corpus_n = 500
    l_max = 20
    decoder_steps = 40
    flow_steps = 24
    reflow_pairs = 16
    reflow_steps = 12

    def setup(self, root, d, seed):
        make_corpus(root, os.path.join(d, "corpus.fasta"), self.corpus_n, self.l_max, seed)
        write_config(
            os.path.join(d, "run.cfg"),
            seed,
            (("train.steps", self.decoder_steps), ("reflow.pairs", self.reflow_pairs)),
        )
        return [decoder_op()]

    def ops(self, root, seed):
        return training_ops(self.flow_steps) + [
            Op("reflow",
               ["reflow", "--config", "run.cfg", "--init", "flow.ckpt", "--out", "reflow.ckpt",
                "--set", f"train.steps={self.reflow_steps}", "--set", "train.lr=5e-4"],
               ["reflow.ckpt", "reflow.ckpt.loss.csv"], flow_ode=True),
        ]


class Sample(Workload):
    name = "sample"
    why = (
        "one seeded flow checkpoint sampled with dopri5 x25, Euler x1 and dopri5-adaptive: "
        "batch-1 flow_forward plus the ode loop, and the latent decode path"
    )
    corpus_n = 500
    l_max = 20
    train_steps = 40
    flow_steps = 60
    n_dopri25 = 16
    n_euler1 = 32
    n_adaptive = 2
    # Set-up trains the checkpoint to sample; the layers measured are sampling's only.
    trace_setup = False

    def setup(self, root, d, seed):
        make_corpus(root, os.path.join(d, "corpus.fasta"), self.corpus_n, self.l_max, seed)
        write_config(os.path.join(d, "run.cfg"), seed, (("train.steps", self.train_steps),))
        return [decoder_op()] + training_ops(self.flow_steps)

    def _sample(self, stage, n, seed, method, steps=None):
        out = f"gen_{stage.split('-', 1)[1]}.fasta"
        argv = ["sample", "--checkpoint", "flow.ckpt", "--out", out, "--n", n, "--seed", seed,
                "--method", method]
        if steps is not None:
            argv += ["--steps", steps]
        caps = [(None, self.l_max)]
        return Op(stage, argv, [out, out + ".json"],
                  check=lambda d: check_fasta(os.path.join(d, out), n, caps), flow_ode=True, n=n)

    def ops(self, root, seed):
        return [
            self._sample("sample-dopri25", self.n_dopri25, seed, "dopri5", 25),
            self._sample("sample-euler1", self.n_euler1, seed, "euler", 1),
            self._sample("sample-adaptive", self.n_adaptive, seed, "dopri5-adaptive"),
        ]

    def derived(self, root, d, seed):
        """Mean adaptive NFE from the sidecar, and the MMD of the dopri5 x25 samples
        against an equal-size seeded subsample of the corpus (metrics.mmd_rbf)."""
        sys.path.insert(0, os.path.join(root, "src"))
        try:
            from protflow.latent import embed_sequences
            from protflow.metrics import mmd_rbf
        finally:
            sys.path.pop(0)
        with open(os.path.join(d, "gen_adaptive.fasta.json"), "r", encoding="utf-8") as f:
            nfe = json.load(f)["mean_nfe"]
        gen = [s for _, s in read_fasta(os.path.join(d, "gen_dopri25.fasta"))]
        corpus = [s for _, s in read_fasta(os.path.join(d, "corpus.fasta"))]
        pick = np.random.default_rng([seed, 3]).choice(len(corpus), size=len(gen), replace=False)
        ref = [corpus[i] for i in sorted(pick)]
        mmd = mmd_rbf(embed_sequences(gen, dim=32, seed=0), embed_sequences(ref, dim=32, seed=0))
        return {"nfe_adaptive_mean": nfe, "sample_mmd": mmd}


class Eval(Workload):
    name = "eval"
    why = (
        "eval of two equal-size generated sets, lengths 2-96 across 64: edit matrices and the "
        "assignment solve dominate, and ot_levenshtein and mmd_rbf compute"
    )
    n = 32
    bands = ((2, 12), (13, 24), (25, 36), (37, 48), (49, 60), (61, 72), (73, 84), (85, 96))

    def _lengths(self, which):
        """Lengths spread evenly over each band, the two sets interleaved, so the
        edit-matrix work is the same for every seed; only the residues are seeded."""
        per_band = self.n // len(self.bands)
        return [
            lo + round((hi - lo) * (i + (which - 1) / 2) / (per_band - 0.5))
            for lo, hi in self.bands
            for i in range(per_band)
        ]

    def _write_set(self, gen_module, path, seed, which):
        gen = np.random.default_rng([seed, which])
        with open(path, "w", encoding="utf-8") as f:
            for i, length in enumerate(self._lengths(which)):
                f.write(f">set{which}_{i}\n{gen_module.random_peptide(gen, length, length)}\n")

    def setup(self, root, d, seed):
        """eval needs no trained model, so its set-up is the start of the CLI itself:
        importing protflow and parsing the eval command line."""
        gen_module = load_generator(root)
        self._write_set(gen_module, os.path.join(d, "gen.fasta"), seed, 1)
        self._write_set(gen_module, os.path.join(d, "ref.fasta"), seed, 2)
        return [Op("eval-start", ["eval", "--help"], [])]

    def ops(self, root, seed):
        schema = os.path.join(root, "src", "protflow", "data", "report_schema.json")
        return [
            Op("eval", ["eval", "--gen", "gen.fasta", "--ref", "ref.fasta", "--out", "report"],
               ["report.json", "report.csv"],
               check=lambda d: check_report(os.path.join(d, "report"), schema)),
        ]

    def derived(self, root, d, seed):
        return {"panel_skipped": panel_skipped(os.path.join(d, "report"))}


class Multichain(Workload):
    name = "multichain"
    why = (
        "the two-chain A:12,B:9 corpus through training and sampling: the multichain layer "
        "and the chains branch of every CLI command"
    )
    # train-decoder runs in set-up; the timed pass starts from its checkpoint.
    corpus_n = 300
    chains = (("A", 12), ("B", 9))
    train_steps = 30
    flow_steps = 24
    n_sample = 8

    def setup(self, root, d, seed):
        spec = ",".join(f"{name}:{cap}" for name, cap in self.chains)
        make_corpus(root, os.path.join(d, "corpus.fasta"), self.corpus_n, 12, seed, chains=spec)
        write_config(
            os.path.join(d, "run.cfg"),
            seed,
            (("model.L_max", 12), ("train.steps", self.train_steps), ("chains", spec)),
        )
        return [decoder_op(self._names())]

    def _names(self):
        return [name for name, _ in self.chains]

    def ops(self, root, seed):
        caps = list(self.chains)
        n = self.n_sample
        return training_ops(self.flow_steps, self._names()) + [
            Op("sample-dopri25",
               ["sample", "--checkpoint", "flow.ckpt", "--out", "gen_pairs.fasta", "--n", n,
                "--seed", seed],
               ["gen_pairs.fasta", "gen_pairs.fasta.json"],
               check=lambda d: check_fasta(os.path.join(d, "gen_pairs.fasta"), n, caps),
               flow_ode=True, n=n),
        ]


WORKLOADS = {w.name: w for w in (Train(), Sample(), Eval(), Multichain())}
