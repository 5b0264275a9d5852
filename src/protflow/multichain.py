"""Joint modeling of multichain proteins.

Per-chain latents are concatenated along the sequence (row) axis so one flow
models all chains together — including whatever dependence exists between
them — and split back into chains at decode time. Each chain keeps its own
encoder/decoder/smoothing/compressor parameters and its own length
distribution; only the flow is shared.
"""

import numpy as np

from .errors import LayoutMismatch, WidthMismatch
from .seqio import detokenize


class ChainSpec:
    """One chain's name, maximum length, and latent stack."""

    __slots__ = ("name", "l_max", "pipeline")

    def __init__(self, name, l_max, pipeline):
        if l_max < 1:
            raise LayoutMismatch(f"chain {name!r} has non-positive l_max {l_max}")
        self.name = name
        self.l_max = int(l_max)
        self.pipeline = pipeline


class ChainLayout:
    """Ordered chains with equal latent widths; total rows = sum of l_max."""

    __slots__ = ("chains",)

    def __init__(self, chains):
        if not chains:
            raise LayoutMismatch("layout needs at least one chain")
        names = [c.name for c in chains]
        if len(set(names)) != len(names):
            raise LayoutMismatch(f"duplicate chain names in {names}")
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

    def __len__(self):
        return len(self.chains)


def concat_latents(per_chain, layout=None):
    """Row-wise concatenation of per-chain (L_i, W) latents, in order.

    With a layout given, each block's row count must match its chain's
    l_max. Widths must agree in all cases.
    """
    if not per_chain:
        raise LayoutMismatch("no latents to concatenate")
    widths = {np.asarray(x).shape[1] for x in per_chain}
    if len(widths) != 1:
        raise WidthMismatch(f"latent widths differ: {sorted(widths)}")
    if layout is not None:
        if len(per_chain) != len(layout):
            raise LayoutMismatch(f"{len(per_chain)} blocks vs {len(layout)} chains")
        for x, chain in zip(per_chain, layout):
            if np.asarray(x).shape[0] != chain.l_max:
                raise LayoutMismatch(
                    f"chain {chain.name!r} expects {chain.l_max} rows, got {np.asarray(x).shape[0]}"
                )
    return np.concatenate([np.asarray(x, dtype=np.float64) for x in per_chain], axis=0)


def split_latents(joint, layout):
    """Exact inverse of concat_latents for a given layout."""
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
    """Draw n joint samples in one lane-batched ODE solve, then decode each
    chain per sample. Noise and lengths come from per-sample substreams, as
    in ode.sample_batch, which states the batch-size guarantee.

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
    from .flow import flow_forward
    from .ode import solve_lanes

    if n < 1:
        raise ValueError("n must be >= 1")
    subs = [rng.substream(f"sample{i}") for i in range(n)]
    shape = (layout.total_length, layout.width)
    eps = np.stack([sub.substream("noise").normal(shape) for sub in subs])
    res = solve_lanes(lambda x, t: flow_forward(model, x, t), eps, solver_config)
    samples = []
    for sub, x0 in zip(subs, res.x0):
        chains = []
        for chain, block in zip(layout, split_latents(x0, layout)):
            length = length_dists[chain.name].sample(sub.substream(f"length-{chain.name}"))
            mask = np.zeros(chain.l_max, dtype=bool)
            mask[: min(length, chain.l_max)] = True
            chains.append(detokenize(chain.pipeline.latent_to_sequence(block, mask)))
        samples.append(tuple(chains))
    nfes = [int(k) for k in res.nfe]
    stats = {"nfes": nfes, "mean_nfe": float(np.mean(nfes)), "n": n}
    return samples, stats
