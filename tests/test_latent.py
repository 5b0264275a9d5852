"""Encoder, smoothing, compressor, decoder, and the bundled pipeline."""

import os
import subprocess
import sys

import numpy as np
import pytest

from protflow import latent, nn
from protflow.errors import (
    EmptyCorpus,
    IncompatibleRatio,
    SequenceTooLong,
    ShapeMismatch,
)
from protflow.numeric import RngStream, grad_check
from protflow.seqio import PAD_ID, pad_to, tokenize


def test_init_encoder_shapes_and_rank():
    rng = RngStream(0)
    enc = latent.init_encoder(12, 16, rng, embed_scale=10.0, embed_rank=3)
    assert enc.embed.shape == (21, 16)
    assert enc.pos.shape == (12, 16)
    assert np.linalg.matrix_rank(enc.embed) == 3
    full = latent.init_encoder(12, 16, RngStream(0), embed_scale=1.0)
    assert np.linalg.matrix_rank(full.embed) == 16


def test_encoder_scale_multiplies_table():
    a = latent.init_encoder(4, 8, RngStream(5), embed_scale=1.0, embed_rank=2)
    b = latent.init_encoder(4, 8, RngStream(5), embed_scale=7.0, embed_rank=2)
    assert np.allclose(b.embed, 7.0 * a.embed)
    assert np.array_equal(a.pos, b.pos)


def test_encode_is_embed_plus_positional():
    rng = RngStream(1)
    enc = latent.init_encoder(10, 8, rng)
    ts = tokenize("ACDE")
    h = latent.encode(ts, enc)
    assert h.shape == (4, 8)
    expected = enc.embed[ts.tokens] + enc.pos[:4]
    assert np.array_equal(h, expected)


def test_encode_rejects_overlong():
    enc = latent.init_encoder(3, 8, RngStream(1))
    with pytest.raises(SequenceTooLong):
        latent.encode(tokenize("ACDEF"), enc)


def test_encode_corpus_pads():
    enc = latent.init_encoder(5, 8, RngStream(2))
    seqs = [tokenize("AC"), tokenize("ACDEF")]
    out = latent.encode_corpus(seqs, enc)
    assert out.shape == (2, 5, 8)
    padded = pad_to(tokenize("AC"), 5)
    assert np.array_equal(out[0], enc.embed[padded.tokens] + enc.pos)


def test_embed_sequences_batch_independent():
    solo = latent.embed_sequences(["ACDEFG"], dim=16, seed=3)
    grouped = latent.embed_sequences(["WYV", "ACDEFG", "MNP"], dim=16, seed=3)
    assert np.array_equal(solo[0], grouped[1])
    again = latent.embed_sequences(["WYV", "ACDEFG", "MNP"], dim=16, seed=3)
    assert np.array_equal(grouped, again)
    with pytest.raises(EmptyCorpus):
        latent.embed_sequences([], dim=16, seed=3)


def test_smoothing_round_trip_interior():
    rng = np.random.default_rng(7)
    rows = rng.normal(size=(200, 6)) * np.array([1, 5, 0.1, 2, 3, 1]) + 1.0
    stats = latent.fit_smoothing(rows, clamp_k=3.0)
    s = latent.smooth(rows, stats)
    assert s.min() >= -1.0 and s.max() <= 1.0
    z = np.abs((rows - stats.mean) / stats.std)
    interior = (z < 3.0).all(axis=1)
    assert interior.sum() > 100
    back = latent.unsmooth(s, stats)
    assert np.max(np.abs(back[interior] - rows[interior])) < 1e-6


def test_smoothing_clamps_outliers_one_sided():
    rng = np.random.default_rng(8)
    rows = rng.normal(size=(100, 2))
    rows[0, 0] = 50.0  # far outside the clamp
    stats = latent.fit_smoothing(rows, clamp_k=3.0)
    s = latent.smooth(rows, stats)
    back = latent.unsmooth(s, stats)
    assert abs(back[0, 0] - rows[0, 0]) > 1.0  # clamped, not invertible
    assert np.max(np.abs(back[1:] - rows[1:])) < 1e-6


def test_smoothing_constant_dims_pass_through():
    rows = np.stack([np.linspace(0, 1, 50), np.full(50, 4.2)], axis=1)
    stats = latent.fit_smoothing(rows)
    assert stats.constant[1] and not stats.constant[0]
    s = latent.smooth(rows, stats)
    assert np.array_equal(s[:, 1], rows[:, 1])
    back = latent.unsmooth(s, stats)
    assert np.array_equal(back[:, 1], rows[:, 1])


def test_smooth_in_place_matches_formula_bitwise():
    rng = np.random.default_rng(9)
    rows = rng.normal(size=(300, 4)) * np.array([1.0, 5.0, 0.1, 1.0])
    rows[:, 3] = 4.2  # constant: passes through
    rows[:5, 0] = 50.0  # clamped
    stats = latent.fit_smoothing(rows[:200])
    h = rows.reshape(3, 100, 4)  # smooth sees (n, L, dim) corpus batches
    z = np.clip((h - stats.mean) / stats.std, -stats.clamp_k, stats.clamp_k)
    span = np.where(stats.constant, 1.0, stats.post_max - stats.post_min)
    ref = np.where(stats.constant, h, np.clip(2.0 * ((z - stats.post_min) / span) - 1.0, -1.0, 1.0))
    assert np.array_equal(latent.smooth(h, stats), ref)


def test_fit_smoothing_needs_rows():
    with pytest.raises(EmptyCorpus):
        latent.fit_smoothing(np.zeros((1, 4)))


def test_identity_compressor_is_tanh():
    comp = latent.init_compressor(4, 1, RngStream(0), identity=True)
    x = np.linspace(-0.9, 0.9, 12).reshape(3, 4)
    assert np.allclose(latent.compress(x, comp), np.tanh(x))
    assert np.allclose(latent.decompress(x, comp), x)


def test_compressor_ratio_validation():
    with pytest.raises(IncompatibleRatio):
        latent.init_compressor(10, 3, RngStream(0))
    with pytest.raises(IncompatibleRatio):
        latent.init_compressor(8, 2, RngStream(0), identity=True)


def test_compressor_shapes():
    comp = latent.init_compressor(16, 4, RngStream(3))
    assert comp.dim == 16 and comp.width == 4 and comp.ratio == 4
    x = np.random.default_rng(0).normal(size=(5, 7, 16))
    c = latent.compress(x, comp)
    assert c.shape == (5, 7, 4)
    assert np.abs(c).max() <= 1.0  # tanh squash
    assert latent.decompress(c, comp).shape == (5, 7, 16)


def test_compressor_grad_matches_numeric():
    rng = RngStream(11)
    comp = latent.init_compressor(6, 2, rng)
    batch = np.random.default_rng(1).normal(size=(4, 6)) * 0.5
    params = comp.params()
    vec, layout = nn.flatten_params(params)

    def f(flat):
        trial = nn.unflatten_params(flat, layout)
        c = latent.CompressorParams(**trial)
        loss, grads = latent.compressor_loss_and_grad(c, batch)
        gvec, _ = nn.flatten_params(grads)
        return loss, gvec

    assert grad_check(f, vec) < 1e-6


def test_train_compressor_reduces_val_mse():
    rng = RngStream(21)
    # rows living near a 2-D subspace of an 8-D space compress well at ratio 4
    basis = rng.substream("basis").normal((2, 8))
    z = rng.substream("z").normal((300, 2))
    rows = np.tanh(z @ basis * 0.5)
    comp = latent.init_compressor(8, 4, rng.substream("init"))
    before = latent.compressor_mse(comp, rows[200:])
    comp, hist = latent.train_compressor(
        comp, rows[:200], rows[200:], rng.substream("train"), steps=400, batch=32
    )
    after = latent.compressor_mse(comp, rows[200:])
    assert after < before * 0.5
    assert hist["val_mse"][-1] == pytest.approx(after)
    assert len(hist["loss"]) == 400
    assert len(hist["lr"]) == 400
    assert len(hist["grad_norm"]) == 400


def test_decoder_grad_matches_numeric():
    rng = RngStream(9)
    dec = latent.init_decoder(6, 5, rng)
    h = np.random.default_rng(2).normal(size=(7, 6))
    y = np.random.default_rng(3).integers(0, 20, size=7)
    params = dec.params()
    vec, layout = nn.flatten_params(params)

    def f(flat):
        trial = nn.unflatten_params(flat, layout)
        d = latent.DecoderParams(**trial)
        loss, grads = latent.decoder_loss_and_grad(d, h, y)
        gvec, _ = nn.flatten_params(grads)
        return loss, gvec

    assert grad_check(f, vec) < 1e-6


def test_decode_masks_and_never_emits_pad():
    rng = RngStream(4)
    dec = latent.init_decoder(8, 6, rng)
    h = np.random.default_rng(5).normal(size=(5, 8))
    mask = np.array([True, True, True, False, False])
    out = latent.decode(h, mask, dec)
    assert out.tokens.shape == (5,)
    assert (out.tokens[:3] != PAD_ID).all()
    assert (out.tokens[3:] == PAD_ID).all()
    assert out.true_length == 3
    with pytest.raises(ShapeMismatch):
        latent.decode(h, mask[:4], dec)


def test_decode_ties_resolve_to_lowest_id():
    # zero weights give identical logits for every residue class
    dec = latent.DecoderParams(
        np.zeros((4, 3)), np.zeros(3), np.ones(3), np.zeros(3), np.zeros((3, 21)), np.zeros(21)
    )
    out = latent.decode(np.ones((2, 4)), np.array([True, True]), dec)
    assert (out.tokens == 0).all()


def test_train_decoder_learns_separable_corpus():
    rng = RngStream(31)
    enc = latent.init_encoder(8, 16, rng.substream("enc"), embed_scale=10.0, embed_rank=4)
    gen = np.random.default_rng(17)
    alphabet = "ACDEFGHIKLMNPQRSTVWY"
    seqs = ["".join(gen.choice(list(alphabet), size=int(gen.integers(2, 9)))) for _ in range(60)]
    toks = [tokenize(s) for s in seqs]
    dec = latent.init_decoder(16, 32, rng.substream("dec"))
    dec, hist = latent.train_decoder(
        dec, enc, toks[:45], toks[45:], rng.substream("train"), steps=400, batch=32
    )
    assert hist["val_accuracy"] >= 0.95
    assert len(hist["loss"]) == 400


def test_pipeline_round_trip_identity_compressor():
    rng = RngStream(41)
    enc = latent.init_encoder(10, 16, rng.substream("enc"), embed_scale=10.0, embed_rank=4)
    gen = np.random.default_rng(23)
    alphabet = "ACDEFGHIKLMNPQRSTVWY"
    seqs = ["".join(gen.choice(list(alphabet), size=int(gen.integers(2, 11)))) for _ in range(50)]
    toks = [tokenize(s) for s in seqs]
    dec = latent.init_decoder(16, 32, rng.substream("dec"))
    dec, _ = latent.train_decoder(
        dec, enc, toks, toks[:10], rng.substream("train"), steps=900, batch=32
    )
    rows = latent.encode_corpus(toks, enc).reshape(-1, 16)
    stats = latent.fit_smoothing(rows)
    smoothed = latent.smooth(rows, stats)
    # even at ratio 1 the tanh squash must be learned around, so train briefly
    comp = latent.init_compressor(16, 1, rng.substream("comp"))
    comp, _ = latent.train_compressor(
        comp, smoothed, smoothed[:50], rng.substream("ctrain"), steps=800, batch=64
    )
    pipe = latent.LatentPipeline(enc, dec, stats, comp)
    assert pipe.l_max == 10 and pipe.dim == 16 and pipe.width == 16

    hits = 0
    total = 0
    for ts in toks[:20]:
        padded = pad_to(ts, 10)
        h_c = pipe.data_to_latent(ts)
        assert h_c.shape == (10, 16)
        out = pipe.latent_to_sequence(h_c, padded.mask)
        hits += int((out.tokens[padded.mask] == padded.tokens[padded.mask]).sum())
        total += int(padded.mask.sum())
    assert hits / total >= 0.99


def _random_pipeline(l_max, seed, dim=32, ratio=4):
    rng = RngStream(seed)
    enc = latent.init_encoder(l_max, dim, rng.substream("enc"), embed_scale=10.0, embed_rank=4)
    dec = latent.init_decoder(dim, 16, rng.substream("dec"))
    corpus = [pad_to(tokenize(s), l_max) for s in _random_peptides(64, l_max, seed)]
    sm = latent.fit_smoothing(latent.encode_corpus(corpus, enc).reshape(-1, dim))
    comp = latent.init_compressor(dim, ratio, rng.substream("comp"))
    return latent.LatentPipeline(enc, dec, sm, comp)


def _random_peptides(n, l_max, seed):
    gen = np.random.default_rng(seed)
    alphabet = list("ACDEFGHIKLMNPQRSTVWY")
    return ["".join(gen.choice(alphabet, size=int(gen.integers(1, l_max + 1)))) for _ in range(n)]


def test_corpus_to_latent_is_bitwise_per_sequence():
    # the training-corpus shapes: 500 sequences, L_max 20, D 32, ratio 4
    pipe = _random_pipeline(20, 1)
    seqs = [pad_to(tokenize(s), 20) for s in _random_peptides(500, 20, 2)]
    seqs[3] = tokenize("ACD")  # unpadded sequences are padded on the way in
    batched = pipe.corpus_to_latent(seqs)
    assert batched.shape == (500, 20, 8)
    assert np.array_equal(batched, np.stack([pipe.data_to_latent(ts) for ts in seqs]))


def test_multichain_corpus_latents_are_bitwise_per_complex():
    # one batch per chain, joined on the position axis, as train-flow builds them
    chains = [("A", 12, _random_pipeline(12, 3)), ("B", 9, _random_pipeline(9, 4))]
    seqs = {
        name: [pad_to(tokenize(s), l_max) for s in _random_peptides(300, l_max, 5 + l_max)]
        for name, l_max, _ in chains
    }
    batched = np.concatenate([p.corpus_to_latent(seqs[name]) for name, _, p in chains], axis=1)
    looped = np.stack(
        [
            np.concatenate([p.data_to_latent(seqs[name][i]) for name, _, p in chains], axis=0)
            for i in range(300)
        ]
    )
    assert np.array_equal(batched, looped)


def test_decoder_batch_gather_matches_encode_loop():
    enc = latent.init_encoder(20, 32, RngStream(6), embed_scale=10.0, embed_rank=4)
    seqs = [pad_to(tokenize(s), 20) for s in _random_peptides(200, 20, 7)]
    tokens, mask = latent._token_rows(seqs, 20)
    idx = np.random.default_rng(8).integers(0, len(seqs), size=64)
    h, y = latent._gather_rows(enc, tokens, mask, idx)
    hs, ys = [], []
    for i in idx:
        ts = seqs[int(i)]
        m = ts.mask[: len(ts)]
        hs.append(latent.encode(ts, enc)[m])
        ys.append(ts.tokens[: len(ts)][m])
    assert np.array_equal(h, np.concatenate(hs, axis=0))
    assert np.array_equal(y, np.concatenate(ys, axis=0))


def _accuracy_loop(dec, enc, seqs):
    """decoder_accuracy as a per-sequence loop of encode and decode."""
    correct = 0
    total = 0
    for ts in seqs:
        m = ts.mask[: len(ts)]
        out = latent.decode(latent.encode(ts, enc), m, dec)
        correct += int((out.tokens[m] == ts.tokens[: len(ts)][m]).sum())
        total += int(m.sum())
    return correct / max(total, 1)


_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# (corpus, make_corpus.py arguments or None for the committed file, run.cfg,
#  --set overrides). The perfbench train and multichain workloads at seed 1,
# and the two runs/ experiments with training cut to 40 steps: their full
# 1,500-step decoders are exact, which would make the comparison trivial.
_DECODER_CORPORA = {
    "perfbench-train-seed1": (
        "corpus.fasta",
        ["--n", "500", "--max-len", "20", "--seed", "1"],
        "runs/single_chain/run.cfg",
        ["train.seed=1", "train.warmup=10", "train.steps=40"],
    ),
    "perfbench-multichain-seed1": (
        "corpus.fasta",
        ["--n", "300", "--max-len", "12", "--seed", "1", "--chains", "A:12,B:9"],
        "runs/multichain/run.cfg",
        ["train.seed=1", "train.warmup=10", "train.steps=30"],
    ),
    "runs-single_chain": (
        "runs/single_chain/corpus.fasta", None, "runs/single_chain/run.cfg", ["train.steps=40"]
    ),
    "runs-multichain": (
        "runs/multichain/corpus.fasta", None, "runs/multichain/run.cfg", ["train.steps=40"]
    ),
}


@pytest.mark.parametrize("case", sorted(_DECODER_CORPORA))
def test_decoder_accuracy_batch_matches_loop(case, tmp_path):
    from protflow import cli
    from protflow.checkpoint import load_checkpoint, unpack_decoder, unpack_encoder

    corpus, make_args, cfg, sets = _DECODER_CORPORA[case]
    if make_args is None:
        corpus = os.path.join(_ROOT, corpus)
    else:
        corpus = str(tmp_path / corpus)
        script = os.path.join(_ROOT, "experiments", "make_corpus.py")
        subprocess.run([sys.executable, script, *make_args, "--out", corpus], check=True,
                       stdout=subprocess.DEVNULL, timeout=120)
    ckpt = str(tmp_path / "decoder.ckpt")
    argv = ["train-decoder", "--config", os.path.join(_ROOT, cfg), "--out", ckpt]
    for kv in sets + [f"data.train_path={corpus}"]:
        argv += ["--set", kv]
    assert cli.main(argv) == 0
    tensors, meta = load_checkpoint(ckpt)
    dim = int(meta["dim"])
    if "chains" in meta:
        chains = [(c["name"], c["l_max"]) for c in meta["chains"]]
        by_chain = cli._load_multichain_corpus(corpus, chains)
        parts = [(f"chain.{name}.", l_max, by_chain[name]) for name, l_max in chains]
    else:
        parts = [("", meta["l_max"], cli._load_single_corpus(corpus, meta["l_max"]))]
    for prefix, l_max, seqs in parts:
        enc = unpack_encoder(tensors, l_max, dim, prefix)
        dec = unpack_decoder(tensors, prefix)
        val = seqs[:256]  # the held-out set train-decoder scores
        accuracy = latent.decoder_accuracy(dec, enc, val)
        assert 0.0 < accuracy < 1.0, (case, prefix, accuracy)
        assert accuracy == _accuracy_loop(dec, enc, val), (case, prefix)


def test_decoder_accuracy_edge_cases():
    enc = latent.init_encoder(6, 8, RngStream(3), embed_scale=10.0, embed_rank=4)
    dec = latent.init_decoder(8, 16, RngStream(4))
    seqs = [tokenize(""), pad_to(tokenize("A"), 6), tokenize("ACDEFG"), pad_to(tokenize("KL"), 6)]
    assert latent.decoder_accuracy(dec, enc, seqs) == _accuracy_loop(dec, enc, seqs)
    assert latent.decoder_accuracy(dec, enc, [tokenize("")]) == 0.0
    assert latent.decoder_accuracy(dec, enc, []) == 0.0
    with pytest.raises(SequenceTooLong):
        latent.decoder_accuracy(dec, enc, [tokenize("ACDEFGH")])
