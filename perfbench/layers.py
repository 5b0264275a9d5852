"""Per-layer metrics: their names, units and directions, and how spans yield them.

Names read <module>.<function>.<quantity>. A layer a workload never calls
reads 0, so the workloads that bypass a layer show it.
"""

import statistics

from tracer import summarize

_QUANTITY = {
    # quantity: (unit, better)
    "calls": ("count", "lower"),
    "s": ("s", "lower"),
    "self_s": ("s", "lower"),
    "rows_per_call": ("rows", "higher"),
    "p50_ms": ("ms", "lower"),
    "tail_ms": ("ms", "lower"),
    "tail_pct": ("pct", "higher"),
    "cells": ("cells", "lower"),
    "cells_per_s": ("cells/s", "higher"),
    "n": ("count", "lower"),
    "bytes": ("bytes", "lower"),
    "records": ("count", "lower"),
}

SPAN_QUANTITIES = (
    ("nn.gelu", ("calls", "self_s")),
    ("nn.gelu_grad", ("calls", "self_s")),
    ("nn.adamw_step", ("calls", "self_s")),
    ("flow.cfm_loss", ("calls", "self_s")),
    ("flow.flow_backward", ("calls", "self_s")),
    ("flow.flow_forward", ("calls", "self_s", "rows_per_call")),
    ("flow.reflow_pairs", ("s",)),
    ("ode.solve", ("calls", "self_s", "p50_ms", "tail_ms", "tail_pct")),
    ("latent.train_decoder", ("s",)),
    ("latent.train_compressor", ("s",)),
    ("latent.encode_corpus", ("s",)),
    ("latent.embed_sequences", ("s",)),
    ("latent.decoder_loss_and_grad", ("self_s",)),
    ("latent.latent_to_sequence", ("calls", "s")),
    ("kernels.cross_edit_matrix", ("s", "cells", "cells_per_s")),
    ("kernels.pairwise_edit_matrix", ("s", "cells", "cells_per_s")),
    ("kernels.assignment_min_cost", ("s", "n")),
    ("metrics.int_div", ("s",)),
    ("metrics.mean_edit_to_reference", ("s",)),
    ("metrics.ot_levenshtein", ("s",)),
    ("metrics.frechet_distance", ("s",)),
    ("metrics.mmd_rbf", ("s",)),
    ("metrics.w_property", ("s",)),
    ("metrics.pseudoperplexity", ("s",)),
    ("metrics.kmer_jaccard", ("s",)),
    ("multichain.sample_multichain", ("s",)),
    ("multichain.split_latents", ("calls", "s")),
    ("checkpoint.save_checkpoint", ("s", "bytes")),
    ("checkpoint.load_checkpoint", ("s", "bytes")),
    ("seqio.read_fasta", ("s", "records")),
)

# Spans repeated with the BLAS threads as found, reported as blas_default.<span>.self_s.
BLAS_DEFAULT_SPANS = ("nn.gelu", "flow.cfm_loss", "flow.flow_backward", "flow.flow_forward", "ode.solve")

CLI_STAGES = (
    "train-decoder",
    "train-compressor",
    "train-flow",
    "reflow",
    "sample-dopri25",
    "sample-euler1",
    "sample-adaptive",
    "eval-start",
    "eval",
)

OTHER = (
    ("ode.nfe.total", "count", "lower"),
    ("ode.nfe.p50", "count", "lower"),
    ("ode.nfe.max", "count", "lower"),
    ("ode.steps.accepted", "count", "lower"),
    ("ode.steps.rejected", "count", "lower"),
    ("ode.steps.reject_frac", "frac", "lower"),
    ("metrics.panel_skipped", "count", "lower"),
    ("sample.nfe_adaptive_mean", "count", "lower"),
    ("sample.mmd", "mmd", "lower"),
    ("trace.overhead_s", "s", "lower"),
    ("trace.probes_missing", "count", "lower"),
    ("trace.flow_ode_wall_s", "s", "lower"),
    ("blas_default.flow_ode_wall_s", "s", "lower"),
)


def metric_specs():
    """[(name, unit, better)] of every per-layer metric, in report order."""
    specs = []
    for span, quantities in SPAN_QUANTITIES:
        specs += [(f"{span}.{q}", *_QUANTITY[q]) for q in quantities]
    specs += [(f"blas_default.{span}.self_s", "s", "lower") for span in BLAS_DEFAULT_SPANS]
    specs += [(f"cli.{stage}.s", "s", "lower") for stage in CLI_STAGES]
    specs += list(OTHER)
    return specs


def merge(span_files):
    """One summary over the spans of several traced commands."""
    total = {}
    missing = set()
    for data in span_files:
        missing.update(data.get("missing", ()))
        for name, agg in summarize(data["spans"]).items():
            into = total.setdefault(
                name, {"calls": 0, "s": 0.0, "self_s": 0.0, "durations": [], "attrs": {}}
            )
            for key in ("calls", "s", "self_s"):
                into[key] += agg[key]
            into["durations"] += agg["durations"]
            for key, values in agg["attrs"].items():
                into["attrs"].setdefault(key, []).extend(values)
    return total, sorted(missing)


def tail(durations):
    """(percentile, value) of the highest percentile with >= 10 samples beyond it."""
    n = len(durations)
    if n <= 10:
        return 0.0, 0.0
    ordered = sorted(durations)
    return 100.0 * (n - 10) / n, ordered[n - 11]


def _quantity(agg, q):
    if agg is None:
        return 0
    if q in ("calls", "s", "self_s"):
        return agg[q]
    if q == "rows_per_call":
        rows = agg["attrs"].get("rows", [])
        return sum(rows) / len(rows) if rows else 0.0
    if q == "p50_ms":
        return 1e3 * statistics.median(agg["durations"])
    if q == "tail_ms":
        return 1e3 * tail(agg["durations"])[1]
    if q == "tail_pct":
        return tail(agg["durations"])[0]
    if q == "cells_per_s":
        cells = sum(agg["attrs"].get("cells", []))
        return cells / agg["s"] if agg["s"] > 0 else 0.0
    return sum(agg["attrs"].get(q, []))


def span_metrics(summary):
    """Metrics read from one merged summary (every SPAN_QUANTITIES entry plus ode counts)."""
    out = {}
    for span, quantities in SPAN_QUANTITIES:
        for q in quantities:
            out[f"{span}.{q}"] = _quantity(summary.get(span), q)
    solve = summary.get("ode.solve")
    attrs = solve["attrs"] if solve else {}
    nfe = attrs.get("nfe", [])
    accepted = sum(attrs.get("accepted", []))
    rejected = sum(attrs.get("rejected", []))
    out["ode.nfe.total"] = sum(nfe)
    out["ode.nfe.p50"] = statistics.median(nfe) if nfe else 0
    out["ode.nfe.max"] = max(nfe) if nfe else 0
    out["ode.steps.accepted"] = accepted
    out["ode.steps.rejected"] = rejected
    out["ode.steps.reject_frac"] = rejected / (accepted + rejected) if accepted + rejected else 0.0
    return out


def blas_default_metrics(summary):
    return {
        f"blas_default.{span}.self_s": _quantity(summary.get(span), "self_s")
        for span in BLAS_DEFAULT_SPANS
    }
