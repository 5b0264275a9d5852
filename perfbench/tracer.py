"""In-memory span recorder and the probes that wrap protflow's public functions.

A span is (name, start, end, parent, attrs). Spans are kept in a list while the
traced command runs and written out once at the end. The self time of a span is
its duration minus the part of that interval its direct child spans cover.

Each probe wraps one public function and is patched in every place a caller
looks the name up: ``cli`` imports ``read_fasta`` and ``save_checkpoint`` by name,
while ``flow`` and ``latent`` call ``nn.gelu`` and ``metrics`` calls
``kernels.*`` through the module. Patching every module attribute that *is* the
original function covers both forms.
"""

import functools
import json
import os
import sys
import time
from collections import defaultdict


class SpanRecorder:
    """Records nested spans of one single-threaded program."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans = []  # [name, start, end, parent index or -1, attrs or None]
        self._stack = []

    def open(self, name):
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, self.clock(), None, parent, None])
        self._stack.append(idx)
        return idx

    def close(self, idx):
        self.spans[idx][2] = self.clock()
        if self._stack.pop() != idx:
            raise RuntimeError(f"span {self.spans[idx][0]!r} closed out of order")

    def set_attrs(self, idx, attrs):
        self.spans[idx][4] = attrs

    def to_list(self):
        return [
            {"name": n, "start": s, "end": e, "parent": p, "attrs": a or {}}
            for n, s, e, p, a in self.spans
        ]

    def dump(self, path, **extra):
        with open(path, "w", encoding="utf-8") as f:
            json.dump({"spans": self.to_list(), **extra}, f)


def self_times(spans):
    """Self seconds of each span: duration minus the union of its children."""
    children = defaultdict(list)
    for s in spans:
        if s["parent"] >= 0:
            children[s["parent"]].append((s["start"], s["end"]))
    out = []
    for i, s in enumerate(spans):
        covered = 0.0
        reach = s["start"]
        for start, end in sorted(children.get(i, ())):
            start = max(start, reach)
            end = min(end, s["end"])
            if end > start:
                covered += end - start
                reach = end
        out.append((s["end"] - s["start"]) - covered)
    return out


def summarize(spans):
    """name -> {calls, s, self_s, durations, attrs: {key: [values]}}."""
    out = {}
    for s, self_s in zip(spans, self_times(spans)):
        agg = out.get(s["name"])
        if agg is None:
            agg = out[s["name"]] = {
                "calls": 0,
                "s": 0.0,
                "self_s": 0.0,
                "durations": [],
                "attrs": defaultdict(list),
            }
        dur = s["end"] - s["start"]
        agg["calls"] += 1
        agg["s"] += dur
        agg["self_s"] += self_s
        agg["durations"].append(dur)
        for key, value in s["attrs"].items():
            agg["attrs"][key].append(value)
    return out


# --- probes ----------------------------------------------------------------------


def _arg(args, kwargs, i, name):
    return args[i] if len(args) > i else kwargs[name]


def _rows(args, kwargs, out):
    return {"rows": int(_arg(args, kwargs, 1, "x").shape[0])}


def _solve_counts(args, kwargs, out):
    return {"nfe": int(out.nfe), "accepted": int(out.accepted), "rejected": int(out.rejected)}


def _cross_cells(args, kwargs, out):
    # Computed as sum(len(a)) * sum(len(b)): the DP cells of every pair.
    a = _arg(args, kwargs, 0, "seqs_a")
    b = _arg(args, kwargs, 1, "seqs_b")
    return {"cells": sum(map(len, a)) * sum(map(len, b))}


def _pairwise_cells(args, kwargs, out):
    # Computed as the DP cells of every unordered pair i < j.
    lengths = [len(s) for s in _arg(args, kwargs, 0, "seqs")]
    total = sum(lengths)
    return {"cells": (total * total - sum(n * n for n in lengths)) // 2}


def _assignment_n(args, kwargs, out):
    return {"n": int(len(_arg(args, kwargs, 0, "cost")))}


def _file_bytes(args, kwargs, out):
    return {"bytes": os.path.getsize(_arg(args, kwargs, 0, "path"))}


def _records(args, kwargs, out):
    return {"records": len(out)}


# (module, attribute, span name, attrs(args, kwargs, result) or None).
# "Class.method" attributes are patched on the class.
PROBES = (
    ("nn", "gelu", "nn.gelu", None),
    ("nn", "gelu_grad", "nn.gelu_grad", None),
    ("nn", "AdamW.step", "nn.adamw_step", None),
    ("flow", "cfm_loss", "flow.cfm_loss", None),
    ("flow", "flow_forward", "flow.flow_forward", _rows),
    ("flow", "flow_backward", "flow.flow_backward", None),
    ("flow", "reflow_pairs", "flow.reflow_pairs", None),
    ("ode", "solve", "ode.solve", _solve_counts),
    ("latent", "train_decoder", "latent.train_decoder", None),
    ("latent", "train_compressor", "latent.train_compressor", None),
    ("latent", "encode_corpus", "latent.encode_corpus", None),
    ("latent", "embed_sequences", "latent.embed_sequences", None),
    ("latent", "decoder_loss_and_grad", "latent.decoder_loss_and_grad", None),
    ("latent", "LatentPipeline.latent_to_sequence", "latent.latent_to_sequence", None),
    ("kernels", "cross_edit_matrix", "kernels.cross_edit_matrix", _cross_cells),
    ("kernels", "pairwise_edit_matrix", "kernels.pairwise_edit_matrix", _pairwise_cells),
    ("kernels", "assignment_min_cost", "kernels.assignment_min_cost", _assignment_n),
    ("metrics", "int_div", "metrics.int_div", None),
    ("metrics", "mean_edit_to_reference", "metrics.mean_edit_to_reference", None),
    ("metrics", "ot_levenshtein", "metrics.ot_levenshtein", None),
    ("metrics", "frechet_distance", "metrics.frechet_distance", None),
    ("metrics", "mmd_rbf", "metrics.mmd_rbf", None),
    ("metrics", "w_property", "metrics.w_property", None),
    ("metrics", "pseudoperplexity", "metrics.pseudoperplexity", None),
    ("metrics", "kmer_jaccard", "metrics.kmer_jaccard", None),
    ("multichain", "sample_multichain", "multichain.sample_multichain", None),
    ("multichain", "split_latents", "multichain.split_latents", None),
    ("checkpoint", "save_checkpoint", "checkpoint.save_checkpoint", _file_bytes),
    ("checkpoint", "load_checkpoint", "checkpoint.load_checkpoint", _file_bytes),
    ("seqio", "read_fasta", "seqio.read_fasta", _records),
)


def _probe(rec, name, fn, attrs):
    @functools.wraps(fn)
    def probe(*args, **kwargs):
        idx = rec.open(name)
        try:
            out = fn(*args, **kwargs)
        finally:
            rec.close(idx)
        if attrs is not None:
            rec.set_attrs(idx, attrs(args, kwargs, out))
        return out

    return probe


def install_probes(rec):
    """Wrap every probe target; return the span names whose target is missing.

    A module-level function is replaced in every loaded module of the package
    that holds it, so callers that imported it by name see the probe too.
    """
    import importlib

    importlib.import_module("protflow.cli")
    loaded = [m for k, m in list(sys.modules.items()) if k == "protflow" or k.startswith("protflow.")]
    missing = []
    for module_name, attr, span_name, attrs in PROBES:
        try:
            owner = importlib.import_module(f"protflow.{module_name}")
        except ImportError:
            missing.append(span_name)
            continue
        *path, leaf = attr.split(".")
        for part in path:
            owner = getattr(owner, part, None)
        original = getattr(owner, leaf, None) if owner is not None else None
        if not callable(original):
            missing.append(span_name)
            continue
        wrapper = _probe(rec, span_name, original, attrs)
        if path:
            setattr(owner, leaf, wrapper)
            continue
        for module in loaded:
            for key, value in list(vars(module).items()):
                if value is original:
                    setattr(module, key, wrapper)
    return missing
