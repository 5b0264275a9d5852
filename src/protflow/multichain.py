"""Joint modeling of multichain proteins.

Per-chain latents are concatenated along the sequence (row) axis so one flow
models all chains together — including whatever dependence exists between
them — and split back into chains at decode time. Each chain keeps its own
encoder/decoder/smoothing/compressor parameters and its own length
distribution; only the flow is shared.

A single-chain corpus is the one-chain layout of the chain named "". The
unnamed chain adds nothing to the names derived from a chain (ChainSpec.prefix
and ChainSpec.tag), so single-chain tensors, RNG substreams, loss CSVs and
FASTA headers carry no chain part.
"""

import numpy as np

from . import flow, ode
from .errors import LayoutMismatch, WidthMismatch
from .numeric import is_int
from .seqio import detokenize

# The longest chain a config may name (model.L_max, each chains length) and a
# checkpoint may carry: l_max sizes the positional table, which no stored
# tensor bounds.
L_MAX_CAP = 4096


class ChainSpec:
    """One chain's name (a str), maximum length (an int in [1, L_MAX_CAP]) and
    latent stack (None until known). With ChainLayout, the one check of a
    chain list from config text or checkpoint metadata."""

    __slots__ = ("name", "l_max", "pipeline")

    def __init__(self, name, l_max, pipeline):
        if not isinstance(name, str):
            raise LayoutMismatch(f"chain name must be a string, got {name!r}")
        if not is_int(l_max, 1, L_MAX_CAP):
            raise LayoutMismatch(
                f"chain {name!r} l_max must be an integer in [1, {L_MAX_CAP}], got {l_max!r}"
            )
        self.name = name
        self.l_max = l_max
        self.pipeline = pipeline

    @property
    def prefix(self):
        """Tensor-name prefix: "chain.A." for chain A, "" for the unnamed chain."""
        return self.tag("chain.", ".")

    def tag(self, sep, end=""):
        """sep + name + end, or "" for the unnamed chain: e.g. the RNG-substream
        suffix "-A", the loss-CSV infix ".A" and the FASTA header tag "|chain=A"."""
        return f"{sep}{self.name}{end}" if self.name else ""


class ChainLayout:
    """Ordered chains with distinct names and equal latent widths, the unnamed
    chain only alone; total rows = sum of l_max."""

    __slots__ = ("chains",)

    def __init__(self, chains):
        if not chains:
            raise LayoutMismatch("layout needs at least one chain")
        names = [c.name for c in chains]
        if len(set(names)) != len(names):
            raise LayoutMismatch(f"duplicate chain names in {names}")
        if "" in names and len(names) > 1:
            raise LayoutMismatch(f"the unnamed chain cannot share a layout: {names}")
        widths = {c.pipeline.width for c in chains if c.pipeline is not None}
        if len(widths) > 1:
            raise WidthMismatch(f"chain widths differ: {sorted(widths)}")
        self.chains = list(chains)

    @property
    def total_length(self):
        return sum(c.l_max for c in self.chains)

    @property
    def width(self):
        for c in self.chains:
            if c.pipeline is not None:
                return c.pipeline.width
        raise WidthMismatch("no chain carries a latent stack")

    def __iter__(self):
        return iter(self.chains)


def split_latents(joint, layout):
    """Per-chain (l_max, W) blocks of a joint latent, in layout order."""
    joint = np.asarray(joint, dtype=np.float64)
    total = layout.total_length
    if joint.shape[0] != total:
        raise LayoutMismatch(f"joint has {joint.shape[0]} rows, layout needs {total}")
    out = []
    start = 0
    for chain in layout:
        out.append(joint[start : start + chain.l_max])
        start += chain.l_max
    return out


def sample_multichain(model, layout, length_dists, n, solver_config, rng):
    """Full sampling: noise -> lane-batched ODE solve -> split into chains ->
    decompress -> unsmooth -> decode, ode.LANES samples at a time.

    Each sample draws its noise and each chain's length from RNG substreams
    keyed by its index. A chunk of samples is drawn, solved as the lanes of
    one solve_lanes call and decoded before the next is drawn, so memory does
    not grow with n; a solver failure names the sample's index. A rerun with
    the same n and seed is bitwise identical. Across batch sizes a sample's
    latent agrees to 1e-12 (numpy's one-row matrix products round unlike
    larger ones; see ode.solve_lanes), and its NFE and accepted/rejected step
    counts are equal.

    Args:
        model: VectorFieldModel trained on the joint (total_length, W) grid.
        layout: ChainLayout with per-chain pipelines.
        length_dists: dict chain name -> LengthDistribution.
        n: sample count, >= 1.
        solver_config: SolverConfig.
        rng: RngStream.

    Returns:
        (samples, stats): samples is a list of tuples of residue strings in
        layout order; stats carries per-sample NFE.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    shape = (layout.total_length, layout.width)
    cfg = model.cfg
    if cfg.width != shape[1] or cfg.attention and cfg.seq_len != shape[0]:
        raise LayoutMismatch(f"flow ({cfg.seq_len}, {cfg.width}) cannot sample latents {shape}")
    samples = []
    nfes = []
    for start in range(0, n, ode.LANES):
        subs = [rng.substream(f"sample{i}") for i in range(start, min(n, start + ode.LANES))]
        eps = np.stack([sub.substream("noise").normal(shape) for sub in subs])
        res = ode.solve_lanes(
            lambda x, t: flow.flow_forward(model, x, t), eps, solver_config, first_lane=start
        )
        for sub, x0 in zip(subs, res.x0):
            chains = []
            for chain, block in zip(layout, split_latents(x0, layout)):
                length = length_dists[chain.name].sample(sub.substream("length" + chain.tag("-")))
                ids = chain.pipeline.latent_to_sequence(block, min(length, chain.l_max))
                chains.append(detokenize(ids))
            samples.append(tuple(chains))
        nfes += res.nfe.tolist()
    stats = {"nfes": nfes, "mean_nfe": float(np.mean(nfes)), "n": n}
    return samples, stats
