"""Command-line entry points tying the modules into runnable pipelines.

Subcommands:
    train-decoder       fit the token readout + smoothing stats on a corpus
    train-compressor    fit the latent compressor on smoothed corpus latents
    train-flow          train the rectified-flow vector field over latents
    reflow              build couplings and fine-tune for straighter paths
    sample              draw sequences from a flow checkpoint
    eval                metric panel comparing generated vs reference FASTA
    inspect-checkpoint  print a checkpoint's header summary as JSON

Exit codes: 0 success, 1 configuration error, 2 data error, 3 training or
solver divergence, 4 checkpoint error; every ProtflowError carries its code
as `exit_code`, and an allocation that fails (MemoryError) exits 1. Every
command is a pure function of (config, input files, seed): reruns reproduce
outputs bitwise on one platform. Output files are written atomically (temp +
rename).

Start-up cost is part of every command. This module binds the protflow
modules through the package's lazy bindings, so a module's code runs only
when a command first calls into it, and each command imports numpy itself.
`--help` and argument errors load no numpy, and `eval` loads neither the
flow, ODE, checkpoint nor multichain modules.
"""

import argparse
import json
import sys
import warnings

from .errors import (
    ConfigError,
    DataError,
    EmptyCorpus,
    IncompatibleCheckpoint,
    MalformedFasta,
    MalformedHeader,
    ProtflowError,
)
from . import checkpoint, config, fileio, flow, latent, metrics, multichain, numeric, ode, seqio

_CHAIN_TAG = "|chain="
_EMBED_DIM = 32

# glibc mallopt parameters (malloc.h) and the values main() sets.
_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3
_MMAP_THRESHOLD = 32 << 20
_TRIM_THRESHOLD = 64 << 20


def keep_freed_heap():
    """Keep freed heap memory in the process instead of returning it to the kernel.

    By default glibc maps large blocks (a flow-training step's activations are
    ~650 KB each) on their own and unmaps them when freed, and trims the heap
    top once little of it is free; its thresholds adapt only up to twice the
    largest block freed. Each training step then faults the same pages in
    again, ~2,700 minor faults per step. With the mmap threshold at 32 MiB and
    the trim threshold at 64 MiB, above one step's temporaries, freed buffers
    are reused instead. Only the CLI entry point calls this, so importing
    protflow leaves a host program's allocator alone.

    Returns the two mallopt results (1 each on success), or None when the C
    library is not glibc, where this does nothing.
    """
    import ctypes
    import platform

    if platform.libc_ver()[0] != "glibc":
        return None
    mallopt = ctypes.CDLL(None).mallopt
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    return (
        mallopt(_M_MMAP_THRESHOLD, _MMAP_THRESHOLD),
        mallopt(_M_TRIM_THRESHOLD, _TRIM_THRESHOLD),
    )


# --- small file helpers -----------------------------------------------------


def _atomic_write_text(path, text):
    fileio.write_atomic(path, text.encode("utf-8"), "output")


def _loss_csv_text(trace):
    """Trace rows (step, loss, lr, grad_norm) -> CSV text."""
    lines = ["step,loss,lr,grad_norm"]
    for step, loss, lr, grad_norm in trace:
        lines.append(f"{int(step)},{float(loss)!r},{float(lr)!r},{float(grad_norm)!r}")
    return "\n".join(lines) + "\n"


# --- chain layouts and corpora -----------------------------------------------


def _config_chains(cfg):
    """The config's chain layout: its named chains, or the unnamed chain of
    model.L_max when the chains key is unset."""
    if cfg["chains"] is None:
        return [multichain.ChainSpec("", cfg["model.L_max"], None)]
    return config.parse_chains_value(cfg["chains"])


def _load_corpus(path, chains):
    """Per-chain (n, l_max) token id matrices, in layout order. The unnamed
    chain takes every record; named chains group '<complex>|chain=<name>'
    records into complex-aligned rows, and every complex must provide every
    chain."""
    records = seqio.read_fasta(path)
    if not records:
        raise EmptyCorpus(f"no sequences in {path}")
    if not chains[0].name:
        return [seqio.tokenize([s for _, s in records], chains[0].l_max)]
    by_chain = {c.name: {} for c in chains}
    order = {}  # complexes, in the order they first appear
    for header, seq in records:
        if _CHAIN_TAG not in header:
            raise MalformedFasta(
                f"multichain corpus record {header!r} lacks a '{_CHAIN_TAG}<name>' tag"
            )
        base, _, name = (part.strip() for part in header.rpartition(_CHAIN_TAG))
        if not name:
            raise MalformedFasta(f"empty chain name in record {header!r}")
        if name not in by_chain:
            raise DataError(f"record {header!r} names unknown chain {name!r}")
        if base in by_chain[name]:
            raise DataError(f"duplicate record for complex {base!r} chain {name!r}")
        order.setdefault(base)
        by_chain[name][base] = seq
    for name, seqs in by_chain.items():
        for base in order:
            if base not in seqs:
                raise DataError(f"complex {base!r} is missing chain {name!r}")
    return [seqio.tokenize([by_chain[c.name][base] for base in order], c.l_max) for c in chains]


def _val_corpus(cfg, chains):
    """(per-chain held-out corpora, "val") from data.val_path, or ([None] per
    chain, "train") when it is unset and the figures come from training data."""
    path = cfg["data.val_path"]
    if path is None:
        return [None] * len(chains), "train"
    return _load_corpus(path, chains), "val"


def _layout(tensors, meta):
    """The checkpoint's ChainLayout, each chain with its latent stack."""
    chains = checkpoint.meta_chains(meta)
    for chain in chains:
        chain.pipeline = latent.LatentPipeline(
            **checkpoint.unpack_pipeline(tensors, meta["dim"], chain.prefix)
        )
    return multichain.ChainLayout(chains)


# --- checkpoint compatibility helpers ----------------------------------------


def _expect_kind(meta, kinds, path):
    kind = meta.get("kind")
    if kind not in kinds:
        raise IncompatibleCheckpoint(
            f"{path}: checkpoint kind {kind!r} not usable here (need one of {', '.join(kinds)})"
        )


def _check_dim(meta, cfg, path):
    if int(meta["dim"]) != cfg["model.D"]:
        raise IncompatibleCheckpoint(
            f"{path}: checkpoint latent dim {meta['dim']} != model.D {cfg['model.D']}"
        )


def _carry_meta(meta, cfg, kind):
    """Metadata of a new kind-stage checkpoint: the layout and latent keys
    carried over from meta, and this run's config, seed and step count."""
    out = {k: meta[k] for k in checkpoint.CARRIED_META if k in meta}
    out.update(kind=kind, config=dict(cfg), rng={"seed": cfg["train.seed"]})
    out["step"] = cfg["train.steps"]
    return out


def _train_args(cfg):
    """The optimizer keys steps, batch, lr, lr_min, warmup, weight_decay and
    clip as keyword arguments."""
    keys = ("steps", "batch", "lr", "lr_min", "warmup", "weight_decay", "clip")
    return {k: cfg["train." + k] for k in keys}


def _save_flow_stage(out, tensors, out_meta, model, trace):
    """Write a flow-stage checkpoint, the input's other tensors plus the
    model, and its loss CSV."""
    out_tensors = {k: v for k, v in tensors.items() if not k.startswith("flow.")}
    flow_tensors, flow_meta = checkpoint.pack_flow(model)
    out_tensors.update(flow_tensors)
    out_meta.update(flow_meta)
    checkpoint.save_checkpoint(out, out_tensors, out_meta)
    _atomic_write_text(out + ".loss.csv", _loss_csv_text(trace))


def _write_loss_csvs(out, chains, traces):
    """One loss CSV per chain: <out>.loss.csv, or <out>.<name>.loss.csv."""
    for chain, trace in zip(chains, traces):
        _atomic_write_text(f"{out}{chain.tag('.')}.loss.csv", _loss_csv_text(trace))


# --- train-decoder ------------------------------------------------------------


def cmd_train_decoder(args):
    cfg = config.load_config(args.config, args.set)
    chains = _config_chains(cfg)
    corpus = _load_corpus(config.require(cfg, "data.train_path"), chains)
    val_corpus, figure = _val_corpus(cfg, chains)
    root = numeric.RngStream(cfg["train.seed"])
    dim = cfg["model.D"]
    tensors, length_dists, traces = {}, [], []
    for chain, seqs, val_seqs in zip(chains, corpus, val_corpus):
        tag = chain.tag("-")
        enc = latent.init_encoder(
            dim,
            root.substream(f"encoder{tag}"),
            embed_scale=cfg["model.embed_scale"],
            embed_rank=cfg["model.embed_rank"],
        )
        dec = latent.init_decoder(
            dim, cfg["model.decoder_hidden"], root.substream(f"decoder-init{tag}")
        )
        keys, table = latent.table_keys(seqs), latent.token_table(enc, chain.l_max)
        dec, trace = latent.train_decoder(
            dec, keys, table, root.substream(f"decoder{tag}"), **_train_args(cfg)
        )
        scored = keys[:256] if val_seqs is None else latent.table_keys(val_seqs)
        accuracy = latent.decoder_accuracy(dec, scored, table)
        sm = latent.fit_smoothing(keys, table)
        for part, params in (("encoder", enc), ("decoder", dec), ("smoothing", sm)):
            tensors.update(checkpoint.pack(params, f"{chain.prefix}{part}."))
        length_dists.append(seqio.fit_length_distribution(seqs).to_dict())
        traces.append(trace)
        print(f"decoder{tag} {figure} accuracy: {accuracy:.4f}")
    meta = _carry_meta({}, cfg, "decoder")
    meta.update(dim=dim, clamp_k=latent.CLAMP_K, **checkpoint.layout_meta(chains, length_dists))
    checkpoint.save_checkpoint(args.out, tensors, meta)
    _write_loss_csvs(args.out, chains, traces)
    print(f"wrote {args.out}")
    return 0


# --- train-compressor -----------------------------------------------------------


def cmd_train_compressor(args):
    cfg = config.load_config(args.config, args.set)
    tensors, meta = checkpoint.load_checkpoint(args.init)
    _expect_kind(meta, ("decoder", "pipeline", "flow", "reflow"), args.init)
    _check_dim(meta, cfg, args.init)
    chains = checkpoint.meta_chains(meta)
    corpus = _load_corpus(config.require(cfg, "data.train_path"), chains)
    val_corpus, figure = _val_corpus(cfg, chains)
    root = numeric.RngStream(cfg["train.seed"])
    # the parts a decoder checkpoint holds, each checked against the shape table
    stacks = [
        checkpoint.unpack_pipeline(
            tensors, meta["dim"], chain.prefix, ("encoder", "decoder", "smoothing")
        )
        for chain in chains
    ]
    # every chain's stack, then every compressor
    out_tensors = {}
    for chain, stack in zip(chains, stacks):
        for part, params in stack.items():
            out_tensors.update(checkpoint.pack(params, f"{chain.prefix}{part}."))
    traces = []
    for chain, stack, seqs, val_seqs in zip(chains, stacks, corpus, val_corpus):
        tag = chain.tag("-")
        table = latent.smooth(latent.token_table(stack["encoder"], chain.l_max), stack["smoothing"])
        comp = latent.init_compressor(
            meta["dim"], cfg["model.ratio_c"], root.substream(f"compressor-init{tag}")
        )
        comp, trace = latent.train_compressor(
            comp, latent.table_keys(seqs), table, root.substream(f"compressor{tag}"),
            **_train_args(cfg),
        )
        out_tensors.update(checkpoint.pack(comp, chain.prefix + "compressor."))
        traces.append(trace)
        if trace:
            keys = latent.table_keys(seqs if val_seqs is None else val_seqs)
            print(f"compressor{tag} {figure} MSE: {latent.compressor_mse(comp, keys, table):.6g}")
    checkpoint.save_checkpoint(args.out, out_tensors, _carry_meta(meta, cfg, "pipeline"))
    _write_loss_csvs(args.out, chains, traces)
    print(f"wrote {args.out}")
    return 0


# --- train-flow -----------------------------------------------------------------


def cmd_train_flow(args):
    import numpy as np

    cfg = config.load_config(args.config, args.set)
    tensors, meta = checkpoint.load_checkpoint(args.init)
    _expect_kind(meta, ("pipeline", "flow", "reflow"), args.init)
    _check_dim(meta, cfg, args.init)
    layout = _layout(tensors, meta)
    corpus = _load_corpus(config.require(cfg, "data.train_path"), layout.chains)
    # one table of every chain's latents; a chain's keys skip the tables before it
    tables = [chain.pipeline.latent_table(chain.l_max) for chain in layout]
    starts = np.cumsum([0] + [len(t) for t in tables])
    keys = np.concatenate([latent.table_keys(s) + a for s, a in zip(corpus, starts)], axis=1)
    fcfg = flow.VectorFieldConfig(
        depth=cfg["model.depth"],
        width=layout.width,
        hidden=cfg["model.width"],
        attention=cfg["model.attention"],
        seq_len=layout.total_length,
    )
    root = numeric.RngStream(cfg["train.seed"])
    model = flow.init_flow_model(fcfg, root.substream("flow"))
    model, trace = flow.train_rf(model, keys, np.concatenate(tables), root, **_train_args(cfg))
    _save_flow_stage(args.out, tensors, _carry_meta(meta, cfg, "flow"), model, trace)
    if trace:
        print(f"final flow loss: {trace[-1][1]:.6g}")
    print(f"wrote {args.out}")
    return 0


# --- reflow ---------------------------------------------------------------------


def cmd_reflow(args):
    cfg = config.load_config(args.config, args.set)
    tensors, meta = checkpoint.load_checkpoint(args.init)
    _expect_kind(meta, ("flow", "reflow"), args.init)
    model = checkpoint.unpack_flow(tensors, meta)
    solver = config.solver_config(cfg)
    root = numeric.RngStream(cfg["train.seed"])
    z0, z1 = flow.reflow_pairs(model, solver, cfg["reflow.pairs"], root.substream("reflow-pairs"))
    s_before = flow.straightness(model, z0, z1)
    model, trace = flow.train_reflow(model, z0, z1, root, **_train_args(cfg))
    s_after = flow.straightness(model, z0, z1)
    print(f"straightness before: {s_before:.6g}")
    print(f"straightness after:  {s_after:.6g}")
    out_meta = _carry_meta(meta, cfg, "reflow")
    out_meta["lineage"] = checkpoint.file_sha256(args.init)
    out_meta["straightness_before"] = float(s_before)
    out_meta["straightness_after"] = float(s_after)
    _save_flow_stage(args.out, tensors, out_meta, model, trace)
    print(f"wrote {args.out}")
    return 0


# --- sample ---------------------------------------------------------------------


def _solver_with_overrides(meta, args):
    """Each solver setting from its flag (--method, --steps, --atol, --rtol),
    else from the checkpoint's config snapshot, else its SCHEMA default. A
    snapshot setting that SolverConfig rejects is a MalformedHeader, whatever
    the flags; a bad flag is its ConfigError."""
    snapshot = meta.get("config") or {}
    if not isinstance(snapshot, dict):
        raise MalformedHeader(f"{args.checkpoint}: metadata 'config' must be an object")
    try:
        config.solver_config(snapshot)
    except ConfigError as e:
        raise MalformedHeader(f"{args.checkpoint}: config snapshot: {e}") from None
    flags = {"solver." + n: getattr(args, n) for n in ode.SETTINGS if getattr(args, n) is not None}
    return config.solver_config({**snapshot, **flags})


def cmd_sample(args):
    if args.n < 1:
        raise ConfigError(f"--n must be >= 1, got {args.n}")
    tensors, meta = checkpoint.load_checkpoint(args.checkpoint)
    _expect_kind(meta, ("flow", "reflow"), args.checkpoint)
    model = checkpoint.unpack_flow(tensors, meta)
    solver = _solver_with_overrides(meta, args)
    rng = numeric.RngStream(args.seed).substream("sample")
    layout = _layout(tensors, meta)
    samples, stats = multichain.sample_multichain(
        model, layout, checkpoint.meta_length_dists(meta), args.n, solver, rng
    )
    records = [
        (f"gen_{i}{chain.tag(_CHAIN_TAG)}", s)
        for i, tup in enumerate(samples)
        for chain, s in zip(layout, tup)
    ]
    _atomic_write_text(args.out, "".join(f">{h}\n{s}\n" for h, s in records))
    sidecar = {
        "seed": args.seed,
        "solver": solver.method,
        "steps": solver.steps,
        "atol": solver.atol,
        "rtol": solver.rtol,
        "mean_nfe": stats["mean_nfe"],
        "nfe": stats["nfes"],
        "n": args.n,
    }
    _atomic_write_text(args.out + ".json", json.dumps(sidecar, sort_keys=True, indent=2) + "\n")
    print(f"wrote {args.n} samples to {args.out} (mean NFE {stats['mean_nfe']:g})")
    return 0


# --- eval -----------------------------------------------------------------------


def _read_scores(path):
    """Two-column CSV (sequence_id, finite score); a header row is allowed."""
    import csv

    import numpy as np

    try:
        with open(path, "r", encoding="utf-8", newline="") as f:
            rows = list(csv.reader(f))
    except OSError as e:
        raise DataError(f"{path}: cannot read external scores: {e.strerror or e}") from None
    except UnicodeDecodeError as e:
        raise DataError(f"{path}: external scores are not UTF-8 text: {e}") from None
    scores = []
    for i, row in enumerate(rows):
        if not row:
            continue
        if len(row) != 2:
            raise DataError(f"{path}:{i + 1}: expected two columns, got {len(row)}")
        try:
            scores.append(float(row[1]))
        except ValueError:
            if i == 0:
                continue
            raise DataError(f"{path}:{i + 1}: bad score {row[1]!r}") from None
        if not np.isfinite(scores[-1]):
            raise DataError(f"{path}:{i + 1}: non-finite score {row[1]!r}")
    if not scores:
        raise DataError(f"no scores in {path}")
    return np.array(scores, dtype=np.float64)


def cmd_eval(args):
    import csv
    import hashlib
    import io

    import numpy as np

    if args.k < 1:
        raise ConfigError(f"--k must be >= 1, got {args.k}")
    if not all(np.isfinite(t) for t in args.threshold or ()):
        raise ConfigError(f"--threshold values must be finite, got {args.threshold}")
    if args.threshold and not args.external_scores:
        raise ConfigError("--threshold needs --external-scores")
    gen = [s for _, s in seqio.read_fasta(args.gen)]
    ref = [s for _, s in seqio.read_fasta(args.ref)]
    if not gen:
        raise EmptyCorpus(f"no sequences in {args.gen}")
    if not ref:
        raise EmptyCorpus(f"no sequences in {args.ref}")
    thresholds = sorted(set(args.threshold or []))
    scores = _read_scores(args.external_scores) if args.external_scores else None
    rows = []

    def add(name, fn):
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                rows.append({"metric": name, "value": float(fn()), "skipped": None})
        except ProtflowError as e:
            rows.append({"metric": name, "value": None, "skipped": f"{type(e).__name__}: {e}"})

    add("mean_entropy_gen", lambda: np.mean([metrics.shannon_entropy(s) for s in gen]))
    add("mean_entropy_ref", lambda: np.mean([metrics.shannon_entropy(s) for s in ref]))
    add(f"kmer_jaccard_k{args.k}", lambda: metrics.kmer_jaccard(gen, ref, k=args.k))
    add("int_div_gen", lambda: metrics.int_div(gen))
    add("e_dist", lambda: metrics.mean_edit_to_reference(gen, ref))
    add("uniqueness_gen", lambda: metrics.uniqueness(gen))
    add("ot_levenshtein", lambda: metrics.ot_levenshtein(gen, ref))
    z_gen = latent.embed_sequences(gen, dim=_EMBED_DIM, seed=args.seed)
    z_ref = latent.embed_sequences(ref, dim=_EMBED_DIM, seed=args.seed)
    add("frechet_distance", lambda: metrics.frechet_distance(z_gen, z_ref))
    add("mmd_rbf", lambda: metrics.mmd_rbf(z_gen, z_ref))
    add("w_property", lambda: metrics.w_property(gen, ref))
    probs = metrics.unigram_probs(ref)
    add(
        "pseudoperplexity_unigram_ref",
        lambda: np.mean([metrics.pseudoperplexity(s, probs) for s in gen]),
    )
    for t in thresholds:  # thresholds come only with scores, checked above
        add(f"p_gt_{t:g}", lambda t=t: metrics.threshold_proportions(scores, t))
    flags = {
        "k": args.k,
        "seed": args.seed,
        "thresholds": thresholds,
        "external_scores": scores is not None,
        "embed_dim": _EMBED_DIM,
    }
    report = {
        "schema_version": 1,
        "n_gen": len(gen),
        "n_ref": len(ref),
        "k": args.k,
        "seed": args.seed,
        "config_hash": hashlib.sha256(
            json.dumps(flags, sort_keys=True).encode("utf-8")
        ).hexdigest(),
        "metrics": rows,
    }
    _atomic_write_text(args.out + ".json", json.dumps(report, sort_keys=True, indent=2) + "\n")
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["metric", "value", "skipped"])
    for row in rows:
        writer.writerow(
            [row["metric"], "" if row["value"] is None else repr(row["value"]), row["skipped"] or ""]
        )
    _atomic_write_text(args.out + ".csv", buf.getvalue())
    for row in rows:
        if row["skipped"] is None:
            print(f"{row['metric']} = {row['value']:.6g}")
        else:
            print(f"{row['metric']} skipped: {row['skipped']}")
    print(f"wrote {args.out}.json and {args.out}.csv")
    return 0


# --- inspect-checkpoint -----------------------------------------------------------


def cmd_inspect_checkpoint(args):
    tensors, meta = checkpoint.load_checkpoint(args.checkpoint)
    summary = {
        "path": args.checkpoint,
        "sha256": checkpoint.file_sha256(args.checkpoint),
        "format_version": checkpoint.VERSION,
        "kind": meta.get("kind"),
        "step": meta.get("step"),
        "lineage": meta.get("lineage"),
        "n_tensors": len(tensors),
        "n_parameters": int(sum(v.size for v in tensors.values())),
        "tensors": [
            {"name": name, "shape": list(tensors[name].shape)} for name in sorted(tensors)
        ],
        "config": meta.get("config"),
    }
    print(json.dumps(summary, indent=2, sort_keys=True))
    return 0


# --- argument parsing ---------------------------------------------------------


def build_parser():
    parser = argparse.ArgumentParser(
        prog="protflow",
        description="Rectified-flow protein sequence generation over compressed latents.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_train(name, fn, needs_init, help_text):
        sp = sub.add_parser(name, help=help_text)
        sp.add_argument("--config", required=True, help="flat key=value config file")
        if needs_init:
            sp.add_argument("--init", required=True, help="checkpoint from the previous stage")
        sp.add_argument("--out", required=True, help="output checkpoint path")
        sp.add_argument(
            "--set",
            action="append",
            default=[],
            metavar="KEY=VALUE",
            help="override one config key (repeatable)",
        )
        sp.set_defaults(func=fn)

    add_train("train-decoder", cmd_train_decoder, False, "fit token readout and smoothing stats")
    add_train("train-compressor", cmd_train_compressor, True, "fit the latent compressor")
    add_train("train-flow", cmd_train_flow, True, "train the rectified-flow vector field")
    add_train("reflow", cmd_reflow, True, "fine-tune on self-generated couplings")

    sp = sub.add_parser("sample", help="draw sequences from a flow checkpoint")
    sp.add_argument("--checkpoint", required=True)
    sp.add_argument("--out", required=True, help="output FASTA path (JSON sidecar beside it)")
    sp.add_argument("--n", type=int, default=16, help="number of samples")
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--method", default=None, help="solver method (see solver.method)")
    sp.add_argument("--steps", type=int, default=None)
    sp.add_argument("--atol", type=float, default=None)
    sp.add_argument("--rtol", type=float, default=None)
    sp.set_defaults(func=cmd_sample)

    sp = sub.add_parser("eval", help="metric panel: generated vs reference FASTA")
    sp.add_argument("--gen", required=True)
    sp.add_argument("--ref", required=True)
    sp.add_argument("--out", required=True, help="report path prefix (.json and .csv added)")
    sp.add_argument("--k", type=int, default=6, help="k-mer size for set Jaccard")
    sp.add_argument("--seed", type=int, default=0, help="embedding seed")
    sp.add_argument("--external-scores", default=None, help="CSV of (sequence_id, score)")
    sp.add_argument(
        "--threshold",
        action="append",
        type=float,
        default=None,
        help="emit proportion of external scores strictly above this value (repeatable; "
        "needs --external-scores)",
    )
    sp.set_defaults(func=cmd_eval)

    sp = sub.add_parser("inspect-checkpoint", help="print a checkpoint summary as JSON")
    sp.add_argument("--checkpoint", required=True)
    sp.set_defaults(func=cmd_inspect_checkpoint)
    return parser


def main(argv=None):
    keep_freed_heap()
    args = build_parser().parse_args(argv)
    try:
        # a numerical failure is reported as its one error line, which the
        # finiteness checks raise, without numpy's RuntimeWarnings before it
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            return args.func(args)
    except (ProtflowError, MemoryError) as e:
        print(f"error: {str(e) or type(e).__name__}", file=sys.stderr)
        return getattr(e, "exit_code", 1)


if __name__ == "__main__":
    sys.exit(main())
