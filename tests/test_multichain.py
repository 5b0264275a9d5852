"""Chain layout, latent concatenation/splitting, and joint sampling."""

import numpy as np
import pytest

from protflow import latent, multichain
from protflow.config import solver_config
from protflow.errors import LayoutMismatch, WidthMismatch
from protflow.flow import VectorFieldConfig, init_flow_model
from protflow.numeric import RngStream
from protflow.seqio import LengthDistribution


def _pipeline(rng, l_max, dim=8, ratio=2):
    enc = latent.init_encoder(dim, rng.substream("enc"), embed_scale=5.0, embed_rank=3)
    dec = latent.init_decoder(dim, 8, rng.substream("dec"))
    rows = rng.substream("rows").normal((30, dim))
    stats = latent.fit_smoothing(np.arange(len(rows)), rows)
    comp = latent.init_compressor(dim, ratio, rng.substream("comp"))
    return latent.LatentPipeline(enc, dec, stats, comp)


def test_chain_spec_and_layout_validation():
    rng = RngStream(0)
    p = _pipeline(rng.substream("a"), 4)
    # a name is a str and l_max an int in [1, L_MAX_CAP]; nothing is coerced
    for name, l_max in (("A", 0), ("A", multichain.L_MAX_CAP + 1), ("A", True), ("A", 4.0),
                        ("A", np.int64(4)), (3, 4)):
        with pytest.raises(LayoutMismatch):
            multichain.ChainSpec(name, l_max, p)
    with pytest.raises(LayoutMismatch):
        multichain.ChainLayout([])
    with pytest.raises(LayoutMismatch):
        multichain.ChainLayout(
            [multichain.ChainSpec("A", 4, p), multichain.ChainSpec("A", 3, p)]
        )
    for names in (("", "B"), ("B", "")):
        with pytest.raises(LayoutMismatch, match="unnamed chain"):
            multichain.ChainLayout([multichain.ChainSpec(name, 4, p) for name in names])
    wide = _pipeline(rng.substream("b"), 3, dim=8, ratio=1)
    with pytest.raises(WidthMismatch):
        multichain.ChainLayout(
            [multichain.ChainSpec("A", 4, p), multichain.ChainSpec("B", 3, wide)]
        )


def test_layout_properties():
    rng = RngStream(1)
    pa = _pipeline(rng.substream("a"), 4)
    pb = _pipeline(rng.substream("b"), 6)
    layout = multichain.ChainLayout(
        [multichain.ChainSpec("A", 4, pa), multichain.ChainSpec("B", 6, pb)]
    )
    assert layout.total_length == 10
    assert layout.width == 4
    assert len(layout.chains) == 2
    assert [c.name for c in layout] == ["A", "B"]


def test_split_concat_exact_round_trip():
    rng = RngStream(2)
    pa = _pipeline(rng.substream("a"), 4)
    pb = _pipeline(rng.substream("b"), 6)
    layout = multichain.ChainLayout(
        [multichain.ChainSpec("A", 4, pa), multichain.ChainSpec("B", 6, pb)]
    )
    gen = np.random.default_rng(3)
    blocks = [gen.normal(size=(4, 4)), gen.normal(size=(6, 4))]
    joint = np.concatenate(blocks, axis=0)
    assert joint.shape == (10, 4)
    back = multichain.split_latents(joint, layout)
    assert len(back) == 2
    assert np.array_equal(back[0], blocks[0])
    assert np.array_equal(back[1], blocks[1])
    # and the other composition order is exact too
    assert np.array_equal(np.concatenate(back, axis=0), joint)


def test_split_requires_exact_total():
    rng = RngStream(5)
    pa = _pipeline(rng.substream("a"), 4)
    layout = multichain.ChainLayout([multichain.ChainSpec("A", 4, pa)])
    with pytest.raises(LayoutMismatch):
        multichain.split_latents(np.zeros((5, 4)), layout)


def test_sample_multichain_deterministic_and_shaped():
    rng = RngStream(6)
    pa = _pipeline(rng.substream("a"), 3)
    pb = _pipeline(rng.substream("b"), 5)
    layout = multichain.ChainLayout(
        [multichain.ChainSpec("A", 3, pa), multichain.ChainSpec("B", 5, pb)]
    )
    cfg = VectorFieldConfig(2, 4, 8, attention=True, seq_len=8)
    model = init_flow_model(cfg, rng.substream("model"))
    dists = {
        "A": LengthDistribution([2, 3], [1, 1]),
        "B": LengthDistribution([4, 5], [3, 1]),
    }
    sc = solver_config({"solver.method": "dopri5", "solver.steps": 3})
    samples, stats = multichain.sample_multichain(model, layout, dists, 4, sc, RngStream(9))
    assert len(samples) == 4
    assert stats["mean_nfe"] == 18.0
    for pair in samples:
        assert len(pair) == 2
        assert 2 <= len(pair[0]) <= 3
        assert 4 <= len(pair[1]) <= 5
    # per-sample substreams: a smaller batch is a prefix of a larger one
    again, _ = multichain.sample_multichain(model, layout, dists, 2, sc, RngStream(9))
    assert again == samples[:2]
    with pytest.raises(ValueError):
        multichain.sample_multichain(model, layout, dists, 0, sc, RngStream(9))
