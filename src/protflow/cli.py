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
as `exit_code`. Every command is a pure function of (config, input files,
seed): reruns reproduce outputs bitwise on one platform. Output files are
written atomically (temp + rename).

Start-up cost is part of every command, so this module imports only the
standard library and the errors module; each command imports numpy and the
protflow modules it runs. `--help` and argument errors load no numpy, and
`eval` loads neither the flow, ODE, checkpoint nor multichain modules.
"""

import argparse
import json
import os
import sys

from .errors import (
    ConfigError,
    DataError,
    EmptyCorpus,
    IncompatibleCheckpoint,
    MalformedFasta,
    ProtflowError,
)

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
    import tempfile

    dirpath = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=dirpath, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="") as f:
            f.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _atomic_write_fasta(path, records):
    _atomic_write_text(path, "".join(f">{h}\n{s}\n" for h, s in records))


def _loss_csv_text(history):
    """History dict {loss, lr, grad_norm} or trace rows -> CSV text."""
    if isinstance(history, dict):
        rows = zip(range(len(history["loss"])), history["loss"], history["lr"], history["grad_norm"])
    else:
        rows = history
    lines = ["step,loss,lr,grad_norm"]
    for step, loss, lr, grad_norm in rows:
        lines.append(f"{int(step)},{float(loss)!r},{float(lr)!r},{float(grad_norm)!r}")
    return "\n".join(lines) + "\n"


# --- corpus loading ----------------------------------------------------------


def _load_single_corpus(path, l_max):
    from .seqio import read_fasta, tokenize_padded

    records = read_fasta(path)
    if not records:
        raise EmptyCorpus(f"no sequences in {path}")
    return [tokenize_padded(s, l_max) for _, s in records]


def _split_chain_header(header):
    if _CHAIN_TAG not in header:
        raise MalformedFasta(
            f"multichain corpus record {header!r} lacks a '{_CHAIN_TAG}<name>' tag"
        )
    base, _, name = header.rpartition(_CHAIN_TAG)
    name = name.strip()
    if not name:
        raise MalformedFasta(f"empty chain name in record {header!r}")
    return base.strip(), name


def _load_multichain_corpus(path, chains):
    """Group '<complex>|chain=<name>' records into per-chain, complex-aligned
    token lists. Every complex must provide every configured chain."""
    from .seqio import read_fasta, tokenize_padded

    l_max_by_name = dict(chains)
    records = read_fasta(path)
    by_chain = {name: {} for name in l_max_by_name}
    order = []
    for header, seq in records:
        base, name = _split_chain_header(header)
        if name not in by_chain:
            raise DataError(f"record {header!r} names unknown chain {name!r}")
        if base in by_chain[name]:
            raise DataError(f"duplicate record for complex {base!r} chain {name!r}")
        if all(base not in by_chain[other] for other in by_chain):
            order.append(base)
        by_chain[name][base] = tokenize_padded(seq, l_max_by_name[name])
    if not order:
        raise EmptyCorpus(f"no sequences in {path}")
    for name, _ in chains:
        for base in order:
            if base not in by_chain[name]:
                raise DataError(f"complex {base!r} is missing chain {name!r}")
    return {name: [by_chain[name][base] for base in order] for name, _ in chains}


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


def _meta_chains(meta):
    """[(name, l_max)] for multichain checkpoints, else None."""
    if "chains" not in meta:
        return None
    return [(c["name"], int(c["l_max"])) for c in meta["chains"]]


def _carry_meta(meta, cfg, kind, step):
    out = {
        k: meta[k]
        for k in ("dim", "clamp_k", "l_max", "length_dist", "chains", "length_dists", "flow_cfg")
        if k in meta
    }
    out["kind"] = kind
    out["config"] = cfg.to_dict()
    out["rng"] = {"seed": cfg["train.seed"]}
    out["step"] = step
    return out


# --- train-decoder ------------------------------------------------------------


def _train_decoder_stage(cfg, seqs, l_max, root, prefix, tag):
    from .checkpoint import pack_decoder, pack_encoder, pack_smoothing
    from .latent import encode_corpus, fit_smoothing, init_decoder, init_encoder, train_decoder
    from .seqio import fit_length_distribution

    dim = cfg["model.D"]
    enc = init_encoder(
        l_max,
        dim,
        root.substream("encoder" + tag),
        embed_scale=cfg["model.embed_scale"],
        embed_rank=cfg["model.embed_rank"],
    )
    dec = init_decoder(dim, cfg["model.decoder_hidden"], root.substream("decoder-init" + tag))
    dec, history = train_decoder(
        dec,
        enc,
        seqs,
        seqs[: min(len(seqs), 256)],
        root.substream("decoder" + tag),
        steps=cfg["train.steps"],
        batch=cfg["train.batch"],
        lr=cfg["train.lr"],
        lr_min=cfg["train.lr_min"],
        warmup=cfg["train.warmup"],
        weight_decay=cfg["train.weight_decay"],
        clip=cfg["train.clip"],
    )
    sm = fit_smoothing(encode_corpus(seqs, enc).reshape(-1, dim))
    tensors = {}
    tensors.update(pack_encoder(enc, prefix))
    tensors.update(pack_decoder(dec, prefix))
    tensors.update(pack_smoothing(sm, prefix))
    if history["val_accuracy"] is not None:
        print(f"decoder{tag} val accuracy: {float(history['val_accuracy']):.4f}")
    return tensors, sm.clamp_k, fit_length_distribution(seqs, l_max), history


def cmd_train_decoder(args):
    from .checkpoint import save_checkpoint
    from .config import load_config, parse_chains_value
    from .numeric import RngStream

    cfg = load_config(args.config, args.set)
    path = cfg.require("data.train_path")
    root = RngStream(cfg["train.seed"])
    chains = parse_chains_value(cfg["chains"]) if cfg["chains"] is not None else None
    meta = {
        "kind": "decoder",
        "config": cfg.to_dict(),
        "rng": {"seed": cfg["train.seed"]},
        "step": cfg["train.steps"],
        "dim": cfg["model.D"],
    }
    tensors = {}
    loss_csvs = {}
    if chains is None:
        seqs = _load_single_corpus(path, cfg["model.L_max"])
        t, clamp_k, ld, history = _train_decoder_stage(cfg, seqs, cfg["model.L_max"], root, "", "")
        tensors.update(t)
        meta.update({"l_max": cfg["model.L_max"], "clamp_k": clamp_k, "length_dist": ld.to_dict()})
        loss_csvs[args.out + ".loss.csv"] = history
    else:
        seqs_by_chain = _load_multichain_corpus(path, chains)
        meta["chains"] = [{"name": n, "l_max": l} for n, l in chains]
        meta["length_dists"] = {}
        for name, l_max in chains:
            t, clamp_k, ld, history = _train_decoder_stage(
                cfg, seqs_by_chain[name], l_max, root, f"chain.{name}.", f"-{name}"
            )
            tensors.update(t)
            meta["clamp_k"] = clamp_k
            meta["length_dists"][name] = ld.to_dict()
            loss_csvs[f"{args.out}.{name}.loss.csv"] = history
    save_checkpoint(args.out, tensors, meta)
    for p, history in loss_csvs.items():
        _atomic_write_text(p, _loss_csv_text(history))
    print(f"wrote {args.out}")
    return 0


# --- train-compressor -----------------------------------------------------------


def _smoothed_rows(tensors, meta, seqs, l_max, dim, prefix):
    from .checkpoint import unpack_encoder, unpack_smoothing
    from .latent import encode_corpus, smooth

    enc = unpack_encoder(tensors, l_max, dim, prefix)
    sm = unpack_smoothing(tensors, meta["clamp_k"], prefix)
    return smooth(encode_corpus(seqs, enc).reshape(-1, dim), sm)


def cmd_train_compressor(args):
    from .checkpoint import load_checkpoint, pack_compressor, save_checkpoint
    from .config import load_config
    from .latent import init_compressor, train_compressor
    from .numeric import RngStream

    cfg = load_config(args.config, args.set)
    tensors, meta = load_checkpoint(args.init)
    _expect_kind(meta, ("decoder", "pipeline", "flow", "reflow"), args.init)
    _check_dim(meta, cfg, args.init)
    path = cfg.require("data.train_path")
    root = RngStream(cfg["train.seed"])
    dim = int(meta["dim"])
    ratio = cfg["model.ratio_c"]
    chains = _meta_chains(meta)
    out_tensors = {
        k: v
        for k, v in tensors.items()
        if "compressor." not in k and not k.startswith("flow.")
    }
    loss_csvs = {}
    if chains is None:
        seqs = _load_single_corpus(path, int(meta["l_max"]))
        rows = _smoothed_rows(tensors, meta, seqs, int(meta["l_max"]), dim, "")
        comp = init_compressor(dim, ratio, root.substream("compressor-init"))
        comp, history = train_compressor(
            comp,
            rows,
            rows,
            root.substream("compressor"),
            steps=cfg["train.steps"],
            batch=cfg["train.batch"],
            lr=cfg["train.lr"],
            lr_min=cfg["train.lr_min"],
            warmup=cfg["train.warmup"],
            weight_decay=cfg["train.weight_decay"],
            clip=cfg["train.clip"],
            val_every=cfg["train.val_every"],
        )
        out_tensors.update(pack_compressor(comp))
        print(f"compressor val MSE: {history['val_mse'][-1]:.6g}")
        loss_csvs[args.out + ".loss.csv"] = history
    else:
        seqs_by_chain = _load_multichain_corpus(path, chains)
        for name, l_max in chains:
            prefix = f"chain.{name}."
            rows = _smoothed_rows(tensors, meta, seqs_by_chain[name], l_max, dim, prefix)
            comp = init_compressor(dim, ratio, root.substream(f"compressor-init-{name}"))
            comp, history = train_compressor(
                comp,
                rows,
                rows,
                root.substream(f"compressor-{name}"),
                steps=cfg["train.steps"],
                batch=cfg["train.batch"],
                lr=cfg["train.lr"],
                lr_min=cfg["train.lr_min"],
                warmup=cfg["train.warmup"],
                weight_decay=cfg["train.weight_decay"],
                clip=cfg["train.clip"],
                val_every=cfg["train.val_every"],
            )
            out_tensors.update(pack_compressor(comp, prefix))
            print(f"compressor-{name} val MSE: {history['val_mse'][-1]:.6g}")
            loss_csvs[f"{args.out}.{name}.loss.csv"] = history
    out_meta = _carry_meta(meta, cfg, "pipeline", cfg["train.steps"])
    out_meta.pop("flow_cfg", None)
    save_checkpoint(args.out, out_tensors, out_meta)
    for p, history in loss_csvs.items():
        _atomic_write_text(p, _loss_csv_text(history))
    print(f"wrote {args.out}")
    return 0


# --- train-flow -----------------------------------------------------------------


def _chain_pipelines(tensors, meta, chains):
    from .checkpoint import unpack_pipeline

    return {
        name: unpack_pipeline(
            tensors,
            {"l_max": l_max, "dim": meta["dim"], "clamp_k": meta["clamp_k"]},
            prefix=f"chain.{name}.",
        )
        for name, l_max in chains
    }


def cmd_train_flow(args):
    import numpy as np

    from .checkpoint import load_checkpoint, pack_flow, save_checkpoint, unpack_pipeline
    from .config import load_config
    from .flow import FlowTrainConfig, VectorFieldConfig, init_flow_model, train_rf
    from .numeric import RngStream

    cfg = load_config(args.config, args.set)
    tensors, meta = load_checkpoint(args.init)
    _expect_kind(meta, ("pipeline", "flow", "reflow"), args.init)
    _check_dim(meta, cfg, args.init)
    path = cfg.require("data.train_path")
    root = RngStream(cfg["train.seed"])
    chains = _meta_chains(meta)
    if chains is None:
        pipeline = unpack_pipeline(tensors, meta)
        seqs = _load_single_corpus(path, pipeline.l_max)
        dataset = pipeline.corpus_to_latent(seqs)
        seq_len = pipeline.l_max
        width = pipeline.width
    else:
        pipes = _chain_pipelines(tensors, meta, chains)
        seqs_by_chain = _load_multichain_corpus(path, chains)
        dataset = np.concatenate(
            [pipes[name].corpus_to_latent(seqs_by_chain[name]) for name, _ in chains], axis=1
        )
        seq_len = sum(l for _, l in chains)
        width = pipes[chains[0][0]].width
    fcfg = VectorFieldConfig(
        depth=cfg["model.depth"],
        width=width,
        hidden=cfg["model.width"],
        attention=cfg["model.attention"],
        seq_len=seq_len,
    )
    model = init_flow_model(fcfg, root.substream("flow"))
    tc = FlowTrainConfig(
        steps=cfg["train.steps"],
        batch=cfg["train.batch"],
        lr=cfg["train.lr"],
        lr_min=cfg["train.lr_min"],
        warmup=cfg["train.warmup"],
        clip=cfg["train.clip"],
        seed=cfg["train.seed"],
        weight_decay=cfg["train.weight_decay"],
    )
    model, trace = train_rf(dataset, tc, model)
    out_tensors = {k: v for k, v in tensors.items() if not k.startswith("flow.")}
    flow_tensors, flow_meta = pack_flow(model)
    out_tensors.update(flow_tensors)
    out_meta = _carry_meta(meta, cfg, "flow", cfg["train.steps"])
    out_meta.update(flow_meta)
    save_checkpoint(args.out, out_tensors, out_meta)
    _atomic_write_text(args.out + ".loss.csv", _loss_csv_text(trace))
    if trace:
        print(f"final flow loss: {trace[-1][1]:.6g}")
    print(f"wrote {args.out}")
    return 0


# --- reflow ---------------------------------------------------------------------


def _solver_from_values(values):
    from .ode import SolverConfig

    return SolverConfig(
        method=values["solver.method"],
        steps=values["solver.steps"],
        atol=values["solver.atol"],
        rtol=values["solver.rtol"],
    )


def cmd_reflow(args):
    from .checkpoint import file_sha256, load_checkpoint, pack_flow, save_checkpoint, unpack_flow
    from .config import load_config
    from .flow import FlowTrainConfig, reflow_pairs, straightness, train_reflow
    from .numeric import RngStream

    cfg = load_config(args.config, args.set)
    tensors, meta = load_checkpoint(args.init)
    _expect_kind(meta, ("flow", "reflow"), args.init)
    m = cfg["reflow.pairs"]
    if m < 1:
        raise ConfigError("reflow.pairs must be >= 1: reflow needs a nonempty coupling set")
    model = unpack_flow(tensors, meta)
    solver = _solver_from_values(cfg.to_dict())
    root = RngStream(cfg["train.seed"])
    pairs = reflow_pairs(model, solver, m, root.substream("reflow-pairs"))
    s_before = straightness(model, pairs, n_t=8)
    tc = FlowTrainConfig(
        steps=cfg["train.steps"],
        batch=cfg["train.batch"],
        lr=cfg["train.lr"],
        lr_min=cfg["train.lr_min"],
        warmup=cfg["train.warmup"],
        clip=cfg["train.clip"],
        seed=cfg["train.seed"],
        weight_decay=cfg["train.weight_decay"],
    )
    model, trace = train_reflow(pairs, tc, model)
    s_after = straightness(model, pairs, n_t=8)
    print(f"straightness before: {s_before:.6g}")
    print(f"straightness after:  {s_after:.6g}")
    out_tensors = {k: v for k, v in tensors.items() if not k.startswith("flow.")}
    flow_tensors, flow_meta = pack_flow(model)
    out_tensors.update(flow_tensors)
    out_meta = _carry_meta(meta, cfg, "reflow", cfg["train.steps"])
    out_meta.update(flow_meta)
    out_meta["lineage"] = file_sha256(args.init)
    out_meta["straightness_before"] = float(s_before)
    out_meta["straightness_after"] = float(s_after)
    save_checkpoint(args.out, out_tensors, out_meta)
    _atomic_write_text(args.out + ".loss.csv", _loss_csv_text(trace))
    print(f"wrote {args.out}")
    return 0


# --- sample ---------------------------------------------------------------------


def _solver_with_overrides(meta, args):
    values = {
        "solver.method": "dopri5",
        "solver.steps": 25,
        "solver.atol": 1e-6,
        "solver.rtol": 1e-6,
    }
    snapshot = meta.get("config") or {}
    for key in values:
        if snapshot.get(key) is not None:
            values[key] = snapshot[key]
    if args.method is not None:
        values["solver.method"] = args.method
    if args.steps is not None:
        values["solver.steps"] = args.steps
    if args.atol is not None:
        values["solver.atol"] = args.atol
    if args.rtol is not None:
        values["solver.rtol"] = args.rtol
    return _solver_from_values(values)


def cmd_sample(args):
    from .checkpoint import load_checkpoint, unpack_flow, unpack_pipeline
    from .multichain import ChainLayout, ChainSpec, sample_multichain
    from .numeric import RngStream
    from .ode import sample_batch
    from .seqio import LengthDistribution

    if args.n < 1:
        raise ConfigError(f"--n must be >= 1, got {args.n}")
    tensors, meta = load_checkpoint(args.checkpoint)
    _expect_kind(meta, ("flow", "reflow"), args.checkpoint)
    model = unpack_flow(tensors, meta)
    solver = _solver_with_overrides(meta, args)
    rng = RngStream(args.seed).substream("sample")
    chains = _meta_chains(meta)
    if chains is None:
        pipeline = unpack_pipeline(tensors, meta)
        length_dist = LengthDistribution.from_dict(meta["length_dist"])
        seqs, stats = sample_batch(model, pipeline, length_dist, args.n, solver, rng)
        records = [(f"gen_{i}", s) for i, s in enumerate(seqs)]
    else:
        layout = ChainLayout(
            [
                ChainSpec(name, l_max, pipe)
                for (name, l_max), pipe in zip(
                    chains, _chain_pipelines(tensors, meta, chains).values()
                )
            ]
        )
        length_dists = {
            name: LengthDistribution.from_dict(d) for name, d in meta["length_dists"].items()
        }
        samples, stats = sample_multichain(model, layout, length_dists, args.n, solver, rng)
        records = [
            (f"gen_{i}{_CHAIN_TAG}{chain.name}", s)
            for i, tup in enumerate(samples)
            for chain, s in zip(layout, tup)
        ]
    _atomic_write_fasta(args.out, records)
    sidecar = {
        "seed": args.seed,
        "solver": solver.method,
        "steps": solver.steps,
        "atol": solver.atol,
        "rtol": solver.rtol,
        "mean_nfe": stats["mean_nfe"],
        "n": args.n,
    }
    _atomic_write_text(args.out + ".json", json.dumps(sidecar, sort_keys=True, indent=2) + "\n")
    print(f"wrote {args.n} samples to {args.out} (mean NFE {stats['mean_nfe']:g})")
    return 0


# --- eval -----------------------------------------------------------------------


def _read_scores(path):
    """Two-column CSV (sequence_id, score); a header row is allowed."""
    import csv

    import numpy as np

    if not os.path.exists(path):
        raise DataError(f"external scores file does not exist: {path}")
    scores = []
    with open(path, "r", encoding="utf-8", newline="") as f:
        for i, row in enumerate(csv.reader(f)):
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
    if not scores:
        raise DataError(f"no scores in {path}")
    return np.array(scores, dtype=np.float64)


def _report_schema_path():
    return os.path.join(os.path.dirname(__file__), "data", "report_schema.json")


def _is_number(value):
    return isinstance(value, (int, float)) and not isinstance(value, bool)


# The JSON types as Python values. As in JSON Schema draft 7, a float with an
# integral value is an integer, and a bool is neither an integer nor a number.
_SCHEMA_TYPES = {
    "object": lambda v: isinstance(v, dict),
    "array": lambda v: isinstance(v, list),
    "string": lambda v: isinstance(v, str),
    "integer": lambda v: _is_number(v) and (isinstance(v, int) or v.is_integer()),
    "number": _is_number,
    "null": lambda v: v is None,
}
_SCHEMA_KEYWORDS = frozenset(
    "$schema title type const required additionalProperties properties items minimum minLength"
    " pattern".split()
)


def check_schema(value, schema, path="$"):
    """Raise ValueError at the first place value breaks the JSON Schema schema.

    Implements the draft-7 keywords the eval report schema uses, with
    jsonschema's meaning: type (the names in _SCHEMA_TYPES), const (a scalar;
    True is not 1), required, additionalProperties (false only), properties,
    items (one schema for every element), minimum, minLength and pattern
    (re.search); $schema and title are annotations. Any other keyword, type
    name or additionalProperties value raises NotImplementedError, so a rule
    added to the schema can never be skipped in silence.
    """
    import re

    unknown = sorted(set(schema) - _SCHEMA_KEYWORDS)
    if unknown:
        raise NotImplementedError(f"schema keywords not supported: {', '.join(unknown)}")
    if schema.get("additionalProperties", False) is not False:
        raise NotImplementedError("additionalProperties is supported only as false")
    if "type" in schema:
        types = schema["type"] if isinstance(schema["type"], list) else [schema["type"]]
        unknown = sorted(set(types) - set(_SCHEMA_TYPES))
        if unknown:
            raise NotImplementedError(f"schema types not supported: {', '.join(unknown)}")
        if not any(_SCHEMA_TYPES[t](value) for t in types):
            raise ValueError(f"{path}: {value!r} is not of type {' or '.join(types)}")
    if "const" in schema:
        const = schema["const"]
        if isinstance(value, bool) or isinstance(const, bool):
            same = value is const
        else:
            same = value == const
        if not same:
            raise ValueError(f"{path}: {value!r} is not {const!r}")
    if isinstance(value, dict):
        for key in schema.get("required", ()):
            if key not in value:
                raise ValueError(f"{path}: required key {key!r} is missing")
        properties = schema.get("properties", {})
        closed = "additionalProperties" in schema
        for key, item in value.items():
            if key in properties:
                check_schema(item, properties[key], f"{path}.{key}")
            elif closed:
                raise ValueError(f"{path}: key {key!r} is not allowed")
    if isinstance(value, list) and "items" in schema:
        for i, item in enumerate(value):
            check_schema(item, schema["items"], f"{path}[{i}]")
    if _is_number(value) and "minimum" in schema and value < schema["minimum"]:
        raise ValueError(f"{path}: {value!r} is less than {schema['minimum']!r}")
    if isinstance(value, str):
        if len(value) < schema.get("minLength", 0):
            raise ValueError(f"{path}: {value!r} is shorter than {schema['minLength']}")
        if "pattern" in schema and not re.search(schema["pattern"], value):
            raise ValueError(f"{path}: {value!r} does not match {schema['pattern']!r}")


def _validate_report(report):
    with open(_report_schema_path(), "r", encoding="utf-8") as f:
        check_schema(report, json.load(f))


def cmd_eval(args):
    import csv
    import hashlib
    import io
    import warnings

    import numpy as np

    from .latent import embed_sequences
    from .metrics import (
        UnigramScorer,
        frechet_distance,
        int_div,
        kmer_jaccard,
        mean_edit_to_reference,
        mmd_rbf,
        ot_levenshtein,
        pseudoperplexity,
        shannon_entropy,
        threshold_proportions,
        uniqueness,
        w_property,
    )
    from .seqio import read_fasta

    gen = [s for _, s in read_fasta(args.gen)]
    ref = [s for _, s in read_fasta(args.ref)]
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

    add("mean_entropy_gen", lambda: np.mean([shannon_entropy(s) for s in gen]))
    add("mean_entropy_ref", lambda: np.mean([shannon_entropy(s) for s in ref]))
    add(f"kmer_jaccard_k{args.k}", lambda: kmer_jaccard(gen, ref, k=args.k))
    add("int_div_gen", lambda: int_div(gen))
    add("e_dist", lambda: mean_edit_to_reference(gen, ref))
    add("uniqueness_gen", lambda: uniqueness(gen))
    add("ot_levenshtein", lambda: ot_levenshtein(gen, ref))
    z_gen = embed_sequences(gen, dim=_EMBED_DIM, seed=args.seed)
    z_ref = embed_sequences(ref, dim=_EMBED_DIM, seed=args.seed)
    add("frechet_distance", lambda: frechet_distance(z_gen, z_ref))
    add("mmd_rbf", lambda: mmd_rbf(z_gen, z_ref))
    add("w_property", lambda: w_property(gen, ref))
    unigram = UnigramScorer.fit(ref)
    add(
        "pseudoperplexity_unigram_ref",
        lambda: np.mean([pseudoperplexity(s, unigram) for s in gen]),
    )
    if scores is not None:
        for t in thresholds:
            add(f"p_gt_{t:g}", lambda t=t: threshold_proportions(scores, t))
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
    _validate_report(report)
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
    from .checkpoint import VERSION, file_sha256, load_checkpoint

    tensors, meta = load_checkpoint(args.checkpoint)
    summary = {
        "path": args.checkpoint,
        "sha256": file_sha256(args.checkpoint),
        "format_version": VERSION,
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
    sp.add_argument(
        "--method", choices=("euler", "dopri5", "dopri5-fixed", "dopri5-adaptive"), default=None
    )
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
        help="emit proportion of external scores strictly above this value (repeatable)",
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
        return args.func(args)
    except ProtflowError as e:
        print(f"error: {e}", file=sys.stderr)
        return e.exit_code


if __name__ == "__main__":
    sys.exit(main())
