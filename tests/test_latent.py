"""Encoder, smoothing, compressor, decoder, and the bundled pipeline."""

import os
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

from protflow import flow, latent, nn
from protflow.errors import EmptyCorpus, IncompatibleRatio, SequenceTooLong
from protflow.numeric import RngStream, grad_check
from protflow.seqio import PAD_ID, VOCAB_SIZE, tokenize

# the optimizer settings each trainer defaulted to before config.SCHEMA held
# the only defaults; the tests below were tuned at them
_DECODER_SETTINGS = dict(lr=1e-3, lr_min=1e-5, warmup=50, weight_decay=0.001, clip=1.0)
_COMPRESSOR_SETTINGS = dict(lr=3e-3, lr_min=1e-4, warmup=100, weight_decay=0.0, clip=1.0)


def test_init_encoder_shapes_and_rank():
    rng = RngStream(0)
    enc = latent.init_encoder(16, rng, embed_scale=10.0, embed_rank=3)
    assert {k: v.shape for k, v in enc.items()} == {
        k.partition(".")[2]: shape
        for k, shape in latent.pipeline_shapes(16, 1, 1).items()
        if k.startswith("encoder.")
    }
    assert np.linalg.matrix_rank(enc["embed"]) == 3
    full = latent.init_encoder(16, RngStream(0), embed_scale=1.0, embed_rank=0)
    assert np.linalg.matrix_rank(full["embed"]) == 16


def test_encoder_scale_multiplies_table():
    a = latent.init_encoder(8, RngStream(5), embed_scale=1.0, embed_rank=2)
    b = latent.init_encoder(8, RngStream(5), embed_scale=7.0, embed_rank=2)
    assert np.allclose(b["embed"], 7.0 * a["embed"])


def test_encode_is_embed_plus_positional():
    rng = RngStream(1)
    enc = latent.init_encoder(8, rng, embed_scale=1.0, embed_rank=0)
    h = latent.encode_corpus(tokenize(["ACDE"], 10), enc)
    assert h.shape == (1, 10, 8)
    expected = enc["embed"][[0, 1, 2, 3]] + nn.sinusoidal_table(10, 8)[:4]
    assert np.array_equal(h[0, :4], expected)


def test_encode_rejects_overlong():
    with pytest.raises(SequenceTooLong):
        tokenize(["ACDEF"], 3)


def test_encode_corpus_pads():
    enc = latent.init_encoder(8, RngStream(2), embed_scale=1.0, embed_rank=0)
    out = latent.encode_corpus(tokenize(["AC", "ACDEF"], 5), enc)
    assert out.shape == (2, 5, 8)
    expected = enc["embed"][[0, 1, PAD_ID, PAD_ID, PAD_ID]] + nn.sinusoidal_table(5, 8)
    assert np.array_equal(out[0], expected)


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
    stats = latent.fit_smoothing(np.arange(len(rows)), rows)
    s = latent.smooth(rows, stats)
    assert s.min() >= -1.0 and s.max() <= 1.0
    z = np.abs((rows - stats["mean"]) / stats["std"])
    interior = (z < latent.CLAMP_K).all(axis=1)
    assert interior.sum() > 100
    back = latent.unsmooth(s, stats)
    assert np.max(np.abs(back[interior] - rows[interior])) < 1e-6


def test_smoothing_clamps_outliers_one_sided():
    rng = np.random.default_rng(8)
    rows = rng.normal(size=(100, 2))
    rows[0, 0] = 50.0  # far outside the clamp
    stats = latent.fit_smoothing(np.arange(len(rows)), rows)
    s = latent.smooth(rows, stats)
    back = latent.unsmooth(s, stats)
    assert abs(back[0, 0] - rows[0, 0]) > 1.0  # clamped, not invertible
    assert np.max(np.abs(back[1:] - rows[1:])) < 1e-6


def test_smoothing_constant_dims_pass_through():
    rows = np.stack([np.linspace(0, 1, 50), np.full(50, 4.2)], axis=1)
    stats = latent.fit_smoothing(np.arange(len(rows)), rows)
    assert list(stats["constant"]) == [0.0, 1.0]
    s = latent.smooth(rows, stats)
    assert np.array_equal(s[:, 1], rows[:, 1])
    back = latent.unsmooth(s, stats)
    assert np.array_equal(back[:, 1], rows[:, 1])


def _smooth_formula(h, stats):
    """smooth() as its formula, with the z-score clamped to [-CLAMP_K, CLAMP_K]."""
    constant = stats["constant"] != 0.0
    z = np.clip((h - stats["mean"]) / stats["std"], -latent.CLAMP_K, latent.CLAMP_K)
    span = np.where(constant, 1.0, stats["post_max"] - stats["post_min"])
    return np.where(constant, h, np.clip(2.0 * ((z - stats["post_min"]) / span) - 1.0, -1.0, 1.0))


def test_smooth_in_place_matches_formula_bitwise():
    # smooth() does not clamp the z-score; the clipped output must not show it
    gen = np.random.default_rng(9)
    for trial in range(40):
        rows = gen.standard_t(2 + trial % 3, size=(300, 4)) * np.array([1.0, 5.0, 0.1, 1.0])
        rows[:, 3] = 4.2  # constant: passes through
        rows[:5, 0] = 50.0  # clamped in the fit
        fitted = latent.fit_smoothing(np.arange(200), rows)
        # outliers far past the clamp on both sides, and the clamp boundary itself
        far = gen.choice([-1.0, 1.0], size=(60, 4)) * 10.0 ** gen.uniform(1, 6, size=(60, 4))
        rows[200:260] = fitted["mean"] + far * fitted["std"]
        rows[260:280] = fitted["mean"] + gen.choice([-1.0, 1.0], size=(20, 4)) * (
            latent.CLAMP_K * fitted["std"]
        )
        h = rows.reshape(3, 100, 4)  # smooth sees (n, L, dim) corpus batches
        # as fitted, and rounded through float32 as a loaded checkpoint gives them
        loaded = {k: v.astype(np.float32).astype(np.float64) for k, v in fitted.items()}
        for stats in (fitted, loaded):
            out = latent.smooth(h, stats)
            assert np.array_equal(out.view(np.uint64), _smooth_formula(h, stats).view(np.uint64))


def test_fit_smoothing_needs_rows():
    with pytest.raises(EmptyCorpus):
        latent.fit_smoothing(np.arange(1), np.zeros((1, 4)))
    with pytest.raises(EmptyCorpus):
        latent.fit_smoothing(np.arange(2), np.zeros(2))


def test_identity_compressor_is_tanh():
    comp = latent.init_compressor(4, 1, RngStream(0))
    comp.update(w_down=np.eye(4), w_up=np.eye(4))
    x = np.linspace(-0.9, 0.9, 12).reshape(3, 4)
    assert np.allclose(latent.compress(x, comp), np.tanh(x))
    assert np.allclose(latent.decompress(x, comp), x)


def test_compressor_ratio_validation():
    with pytest.raises(IncompatibleRatio):
        latent.init_compressor(10, 3, RngStream(0))


def test_compressor_shapes():
    comp = latent.init_compressor(16, 4, RngStream(3))
    assert {k: v.shape for k, v in comp.items()} == {
        k.partition(".")[2]: shape
        for k, shape in latent.pipeline_shapes(16, 1, 4).items()
        if k.startswith("compressor.")
    }
    x = np.random.default_rng(0).normal(size=(5, 7, 16))
    c = latent.compress(x, comp)
    assert c.shape == (5, 7, 4)
    assert np.abs(c).max() <= 1.0  # tanh squash
    assert latent.decompress(c, comp).shape == (5, 7, 16)


def test_in_place_decompress_and_mse_match_expressions_bitwise():
    # decompress works in its fresh buffer, and compressor_mse weights each
    # table row's error by its count in the keys; the results must be those
    # of the plain expressions
    gen = np.random.default_rng(13)
    comp = latent.init_compressor(16, 4, RngStream(5))
    for name, value in comp.items():
        comp[name] = value + 0.1 * gen.normal(size=value.shape)
    for shape in ((300, 16), (6, 20, 16)):
        rows = np.tanh(gen.normal(size=shape))
        h_c = latent.compress(rows, comp)
        assert np.array_equal(
            latent.decompress(h_c, comp).view(np.uint64),
            (h_c @ comp["w_up"] + comp["b_up"]).view(np.uint64),
        )
    table = np.tanh(gen.normal(size=(40, 16)))
    err = (latent.decompress(latent.compress(table, comp), comp) - table) ** 2
    # identity keys (a raw array of rows), and (25, 7) keys that read some
    # rows many times and some not at all
    for keys in (np.arange(40), gen.integers(0, 30, size=(25, 7))):
        mse = float(np.bincount(keys.ravel(), minlength=40) @ err.mean(axis=1) / keys.size)
        assert latent.compressor_mse(comp, keys, table) == mse
        # the mean over the gathered rows sums in another order: float64
        # round-off on a few thousand positive terms
        rows = table[keys]
        plain = float(((latent.decompress(latent.compress(rows, comp), comp) - rows) ** 2).mean())
        assert mse == pytest.approx(plain, rel=1e-12, abs=0.0)


def test_fresh_parameter_arrays_share_no_memory():
    # nn.fit updates every array in place, so two names on one buffer would
    # train as one parameter
    dicts = {
        "decoder": latent.init_decoder(6, 5, RngStream(1)),
        "compressor": latent.init_compressor(6, 2, RngStream(2)),
    }
    for label, params in dicts.items():
        arrays = list(params.items())
        for i, (name_a, a) in enumerate(arrays):
            for name_b, b in arrays[i + 1 :]:
                assert not np.shares_memory(a, b), (label, name_a, name_b)


def test_compressor_grad_matches_numeric():
    rng = RngStream(11)
    comp = latent.init_compressor(6, 2, rng)
    batch = np.random.default_rng(1).normal(size=(4, 6)) * 0.5

    def f(params):
        return latent.compressor_loss_and_grad(params, batch)

    assert grad_check(f, comp) < 1e-6


def test_train_compressor_reduces_val_mse():
    rng = RngStream(21)
    # rows living near a 2-D subspace of an 8-D space compress well at ratio 4
    basis = rng.substream("basis").normal((2, 8))
    z = rng.substream("z").normal((300, 2))
    rows = np.tanh(z @ basis * 0.5)
    comp = latent.init_compressor(8, 4, rng.substream("init"))
    before = latent.compressor_mse(comp, np.arange(100), rows[200:])
    comp, trace = latent.train_compressor(
        comp, np.arange(200), rows[:200], rng.substream("train"), steps=400, batch=32,
        **_COMPRESSOR_SETTINGS,
    )
    after = latent.compressor_mse(comp, np.arange(100), rows[200:])
    assert after < before * 0.5
    assert [row[0] for row in trace] == list(range(400))


def test_decoder_grad_matches_numeric():
    rng = RngStream(9)
    dec = latent.init_decoder(6, 5, rng)
    h = np.random.default_rng(2).normal(size=(7, 6))
    y = np.random.default_rng(3).integers(0, 20, size=7)

    def f(params):
        return latent.decoder_loss_and_grad(params, h, y)

    assert grad_check(f, dec) < 1e-6


def test_decode_masks_and_never_emits_pad():
    rng = RngStream(4)
    dec = latent.init_decoder(8, 6, rng)
    h = np.random.default_rng(5).normal(size=(5, 8))
    # a PAD-favouring decoder still emits residues only
    dec["b2"][PAD_ID] = 1e6
    out = latent.decode(h, dec)
    assert out.shape == (5,) and out.dtype == np.int64
    assert (out < PAD_ID).all()
    assert np.array_equal(latent.decode(h[:3], dec), out[:3])
    # a sampled latent decodes its first length positions only
    pipe = _random_pipeline(5, 6)
    h_c = np.random.default_rng(7).uniform(-1, 1, size=(5, pipe.width))
    rows = latent.unsmooth(latent.decompress(h_c, pipe.compressor), pipe.smoothing)
    assert np.array_equal(pipe.latent_to_sequence(h_c, 3), latent.decode(rows[:3], pipe.decoder))
    assert pipe.latent_to_sequence(h_c, 0).shape == (0,)


def test_decode_ties_resolve_to_lowest_id():
    # zero weights give identical logits for every residue class
    dec = {k: np.zeros_like(v) for k, v in latent.init_decoder(4, 3, RngStream(0)).items()}
    out = latent.decode(np.ones((2, 4)), dec)
    assert (out == 0).all()


def test_train_decoder_learns_separable_corpus():
    rng = RngStream(31)
    enc = latent.init_encoder(16, rng.substream("enc"), embed_scale=10.0, embed_rank=4)
    gen = np.random.default_rng(17)
    alphabet = "ACDEFGHIKLMNPQRSTVWY"
    seqs = ["".join(gen.choice(list(alphabet), size=int(gen.integers(2, 9)))) for _ in range(60)]
    toks = tokenize(seqs, 8)
    dec = latent.init_decoder(16, 32, rng.substream("dec"))
    keys, table = latent.table_keys(toks), latent.token_table(enc, 8)
    dec, trace = latent.train_decoder(
        dec, keys[:45], table, rng.substream("train"), steps=400, batch=32, **_DECODER_SETTINGS
    )
    assert latent.decoder_accuracy(dec, keys[45:], table) >= 0.95
    assert len(trace) == 400


def test_pipeline_round_trip_identity_compressor():
    rng = RngStream(41)
    enc = latent.init_encoder(16, rng.substream("enc"), embed_scale=10.0, embed_rank=4)
    gen = np.random.default_rng(23)
    alphabet = "ACDEFGHIKLMNPQRSTVWY"
    seqs = ["".join(gen.choice(list(alphabet), size=int(gen.integers(2, 11)))) for _ in range(50)]
    toks = tokenize(seqs, 10)
    dec = latent.init_decoder(16, 32, rng.substream("dec"))
    dec, _ = latent.train_decoder(
        dec, latent.table_keys(toks), latent.token_table(enc, 10), rng.substream("train"),
        steps=900, batch=32, **_DECODER_SETTINGS,
    )
    rows = latent.encode_corpus(toks, enc).reshape(-1, 16)
    stats = latent.fit_smoothing(np.arange(len(rows)), rows)
    smoothed = latent.smooth(rows, stats)
    # even at ratio 1 the tanh squash must be learned around, so train briefly
    comp = latent.init_compressor(16, 1, rng.substream("comp"))
    comp, _ = latent.train_compressor(
        comp, np.arange(len(smoothed)), smoothed, rng.substream("ctrain"), steps=800, batch=64,
        **_COMPRESSOR_SETTINGS,
    )
    pipe = latent.LatentPipeline(enc, dec, stats, comp)
    assert pipe.width == 16

    hits = 0
    total = 0
    h_c = pipe.latent_table(10)[latent.table_keys(toks[:20])]
    assert h_c.shape == (20, 10, 16)
    for i, seq in enumerate(seqs[:20]):
        out = pipe.latent_to_sequence(h_c[i], len(seq))
        hits += int((out == toks[i, : len(seq)]).sum())
        total += len(seq)
    assert hits / total >= 0.99


def _random_pipeline(l_max, seed, dim=32, ratio=4):
    rng = RngStream(seed)
    enc = latent.init_encoder(dim, rng.substream("enc"), embed_scale=10.0, embed_rank=4)
    dec = latent.init_decoder(dim, 16, rng.substream("dec"))
    corpus = tokenize(_random_peptides(64, l_max, seed), l_max)
    rows = latent.encode_corpus(corpus, enc).reshape(-1, dim)
    sm = latent.fit_smoothing(np.arange(len(rows)), rows)
    comp = latent.init_compressor(dim, ratio, rng.substream("comp"))
    return latent.LatentPipeline(enc, dec, sm, comp)


def _random_peptides(n, l_max, seed):
    gen = np.random.default_rng(seed)
    alphabet = list("ACDEFGHIKLMNPQRSTVWY")
    return ["".join(gen.choice(alphabet, size=int(gen.integers(1, l_max + 1)))) for _ in range(n)]


def _row_latent(pipe, row):
    """One id row through the stack on its own: (l_max, width) latent."""
    h = pipe.encoder["embed"][row] + nn.sinusoidal_table(len(row), pipe.encoder["embed"].shape[1])
    return latent.compress(latent.smooth(h, pipe.smoothing), pipe.compressor)


def test_latent_table_gathers_are_bitwise_per_sequence():
    # the training-corpus shapes: 500 sequences, L_max 20, D 32, ratio 4.
    # PAD positions are latents too, and read the table's PAD rows.
    pipe = _random_pipeline(20, 1)
    ids = tokenize(_random_peptides(500, 20, 2), 20)
    keys = latent.table_keys(ids)
    assert (ids == PAD_ID).any() and keys.shape == ids.shape
    table = pipe.latent_table(20)
    assert table.shape == (VOCAB_SIZE * 20, 8)
    assert np.array_equal(table[keys], np.stack([_row_latent(pipe, row) for row in ids]))


def test_table_gathers_match_whole_corpus_expressions_bitwise():
    # A training corpus and a held-out (data.val_path) corpus both read the
    # tables of the training chain's stack.
    pipe = _random_pipeline(20, 1)
    enc, sm, comp = pipe.encoder, pipe.smoothing, pipe.compressor
    smoothed, compressed = latent.smooth(latent.token_table(enc, 20), sm), pipe.latent_table(20)
    assert smoothed.shape == (VOCAB_SIZE * 20, 32)
    for n, seed in ((500, 2), (37, 9)):
        ids = tokenize(_random_peptides(n, 20, seed), 20)
        keys = latent.table_keys(ids)
        h_s = latent.smooth(latent.encode_corpus(ids, enc), sm)
        assert smoothed[keys].tobytes() == h_s.tobytes()
        assert compressed[keys].tobytes() == latent.compress(h_s, comp).tobytes()


def _traced_peak(fn):
    """tracemalloc peak of fn() above what was live when it started."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        fn()
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


# allocator and tracing noise allowed on top of the id and key matrices'
# growth, fixed before the peaks below were first measured
_MEMORY_SLACK = 64 << 10


def test_training_memory_does_not_grow_with_the_corpus():
    # train-decoder's stage (its token table, a short fit, the accuracy and
    # the smoothing fit, as cmd_train_decoder runs them), train-compressor's
    # stage (its table, a short fit and the closing MSE, as
    # cmd_train_compressor runs them) and a few train_rf steps, on corpora of
    # 500 and 5,000 sequences at l_max 20 and D 32. train-compressor held the
    # (n * 20, 32) smoothed rows, and train-flow an (n, 20, 8) dataset; now
    # only the id and key matrices may grow with n.
    pipe = _random_pipeline(20, 1)
    model = flow.init_flow_model(flow.VectorFieldConfig(2, 8, 64, False, None), RngStream(5))
    rf_settings = dict(lr=1e-3, lr_min=2e-4, warmup=1, weight_decay=0.01, clip=1.0)
    peaks = {}
    for n in (500, 5000):
        ids = tokenize(_random_peptides(n, 20, 2), 20)

        def decoder_stage():
            keys, table = latent.table_keys(ids), latent.token_table(pipe.encoder, 20)
            dec, _ = latent.train_decoder(
                latent.init_decoder(32, 64, RngStream(7)), keys, table, RngStream(8),
                steps=2, batch=64, **_DECODER_SETTINGS,
            )
            latent.decoder_accuracy(dec, keys[:256], table)
            latent.fit_smoothing(keys, table)

        def compressor_stage():
            table = latent.smooth(latent.token_table(pipe.encoder, 20), pipe.smoothing)
            comp, _ = latent.train_compressor(
                latent.init_compressor(32, 4, RngStream(3)), latent.table_keys(ids), table,
                RngStream(4), steps=2, batch=64, **_COMPRESSOR_SETTINGS,
            )
            latent.compressor_mse(comp, latent.table_keys(ids), table)

        keys, table = latent.table_keys(ids), pipe.latent_table(20)
        flow_steps = _traced_peak(
            lambda: flow.train_rf(model, keys, table, RngStream(6), steps=2, batch=64,
                                  **rf_settings)
        )
        peaks[n] = (_traced_peak(decoder_stage), _traced_peak(compressor_stage), flow_steps,
                    ids.nbytes + keys.nbytes)
    allowed = peaks[5000][-1] - peaks[500][-1] + _MEMORY_SLACK
    stages = ("decoder", "compressor", "train_rf")
    for stage, small, large in zip(stages, peaks[500], peaks[5000]):
        assert large - small <= allowed, (stage, small, large, allowed)
    # the old bound of the compressor stage at 500 sequences: 1.5 times its smoothed rows
    assert peaks[500][1] < 1.5 * 500 * 20 * 32 * 8


def test_fit_smoothing_matches_its_expressions_bitwise():
    rows = np.random.default_rng(15).normal(size=(400, 6)) * [1.0, 2.0, 0.5, 3.0, 1.0, 1.0]
    rows[:, 4] = 0.25  # a constant dimension
    rows[7, 5] = 40.0  # an outlier the clamp moves
    stats = latent.fit_smoothing(np.arange(len(rows)), rows)
    z = np.clip((rows - stats["mean"]) / stats["std"], -latent.CLAMP_K, latent.CLAMP_K)
    assert stats["post_min"].tobytes() == z.min(axis=0).tobytes()
    assert stats["post_max"].tobytes() == z.max(axis=0).tobytes()


def _whole_array_fit(rows):
    """fit_smoothing's statistics as whole-array expressions."""
    std = rows.std(axis=0)
    safe_std = np.where(std <= 1e-12, 1.0, std)
    z = np.clip((rows - rows.mean(axis=0)) / safe_std, -latent.CLAMP_K, latent.CLAMP_K)
    return {"mean": rows.mean(axis=0), "std": safe_std,
            "post_min": z.min(axis=0), "post_max": z.max(axis=0)}


@pytest.mark.parametrize("n", [latent.BLOCK_ROWS + 1, 2 * latent.BLOCK_ROWS + 7, 10_001])
def test_fit_smoothing_blocks_match_the_whole_array_fit_bitwise(n):
    # BLOCK_ROWS does not divide n: the last block is short, or a single row
    assert n % latent.BLOCK_ROWS
    rows = np.random.default_rng(n).normal(size=(n, 6)) * [1.0, 2.0, 0.5, 3.0, 1.0, 1.0] + 4.0
    rows[:, 4] = 0.25  # a constant dimension
    rows[-1, 5] = 40.0  # an outlier the clamp moves, in the last block
    stats = latent.fit_smoothing(np.arange(len(rows)), rows)
    for name, want in _whole_array_fit(rows).items():
        assert stats[name].tobytes() == want.tobytes(), name
    assert stats["constant"].tolist() == [0.0, 0.0, 0.0, 0.0, 1.0, 0.0]


def test_corpus_smoothing_is_the_fit_of_the_encoded_corpus_in_bounded_memory():
    # train-decoder's fit: 500 sequences at l_max 20 and D 32 are 10,000 keys
    # into the token table, gathered in 7 blocks of BLOCK_ROWS rows and one
    # of 1,040. It is bitwise the fit of the encoded corpus as one array,
    # which is never built: a few block-sized temporaries stay under half its
    # size (fitting the whole encoded corpus held it and one more).
    pipe = _random_pipeline(20, 1)
    ids = tokenize(_random_peptides(500, 20, 2), 20)
    rows = latent.encode_corpus(ids, pipe.encoder).reshape(-1, 32)
    keys, table = latent.table_keys(ids), latent.token_table(pipe.encoder, 20)
    assert table[keys].tobytes() == latent.encode_corpus(ids, pipe.encoder).tobytes()
    want = latent.fit_smoothing(np.arange(len(rows)), rows)
    got = latent.fit_smoothing(keys, table)
    assert list(got) == list(want)
    for name in want:
        assert got[name].tobytes() == want[name].tobytes(), name
    for name, expression in _whole_array_fit(rows).items():
        assert got[name].tobytes() == expression.tobytes(), name
    assert _traced_peak(lambda: latent.fit_smoothing(keys, table)) < 0.5 * ids.size * 32 * 8
    with pytest.raises(EmptyCorpus):
        latent.fit_smoothing(keys[:1, :1], table)


def test_multichain_corpus_latents_are_bitwise_per_complex():
    # one table of both chains' latents, B's keys offset past A's table, as
    # train-flow builds them
    chains = [("A", 12, _random_pipeline(12, 3)), ("B", 9, _random_pipeline(9, 4))]
    ids = {
        name: tokenize(_random_peptides(300, l_max, 5 + l_max), l_max)
        for name, l_max, _ in chains
    }
    table = np.concatenate([p.latent_table(l_max) for _, l_max, p in chains])
    keys = np.concatenate(
        [latent.table_keys(ids["A"]), latent.table_keys(ids["B"]) + VOCAB_SIZE * 12], axis=1
    )
    assert keys.shape == (300, 21)
    batched = table[keys]
    looped = np.stack(
        [
            np.concatenate([_row_latent(p, ids[name][i]) for name, _, p in chains], axis=0)
            for i in range(300)
        ]
    )
    assert np.array_equal(batched, looped)


def _residues(row):
    """The residue ids of an id row, before its PAD tail."""
    return row[: int((row != PAD_ID).sum())]


def test_decoder_batch_gather_matches_encode_loop(monkeypatch):
    # each train_decoder step hands decoder_loss_and_grad the residue rows of
    # the sequences it draws, gathered from the token table, bitwise the
    # encoder's rows of each sequence in turn
    enc = latent.init_encoder(32, RngStream(6), embed_scale=10.0, embed_rank=4)
    ids = tokenize(_random_peptides(200, 20, 7), 20)
    batches = []
    step = latent.decoder_loss_and_grad

    def spy(dec, h, y):
        batches.append((h.copy(), y.copy()))
        return step(dec, h, y)

    monkeypatch.setattr(latent, "decoder_loss_and_grad", spy)
    latent.train_decoder(
        latent.init_decoder(32, 16, RngStream(8)), latent.table_keys(ids),
        latent.token_table(enc, 20), RngStream(9), steps=3, batch=64, **_DECODER_SETTINGS,
    )
    assert len(batches) == 3
    stream = RngStream(9).substream("decoder-train")
    pos = nn.sinusoidal_table(20, 32)
    for h, y in batches:
        hs, ys = [], []
        for i in stream.integers(0, len(ids), size=64):
            res = _residues(ids[int(i)])
            hs.append(enc["embed"][res] + pos[: len(res)])
            ys.append(res)
        assert h.tobytes() == np.concatenate(hs, axis=0).tobytes()
        assert np.array_equal(y, np.concatenate(ys, axis=0))


def _accuracy_loop(dec, enc, ids):
    """decoder_accuracy as a per-sequence loop of encode and decode."""
    correct = 0
    total = 0
    pos = nn.sinusoidal_table(ids.shape[1], enc["embed"].shape[1])
    for row in ids:
        res = _residues(row)
        out = latent.decode(enc["embed"][res] + pos[: len(res)], dec)
        correct += int((out == res).sum())
        total += len(res)
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
    from protflow.checkpoint import load_checkpoint, meta_chains, unpack_pipeline

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
    chains = meta_chains(meta)
    for chain, seqs in zip(chains, cli._load_corpus(corpus, chains)):
        prefix = chain.prefix
        stack = unpack_pipeline(tensors, meta["dim"], prefix, ("encoder", "decoder"))
        enc, dec = stack["encoder"], stack["decoder"]
        val = seqs[:256]  # the held-out set train-decoder scores
        table = latent.token_table(enc, val.shape[1])
        accuracy = latent.decoder_accuracy(dec, latent.table_keys(val), table)
        assert 0.0 < accuracy < 1.0, (case, prefix, accuracy)
        assert accuracy == _accuracy_loop(dec, enc, val), (case, prefix)


def test_decoder_accuracy_edge_cases():
    enc = latent.init_encoder(8, RngStream(3), embed_scale=10.0, embed_rank=4)
    dec = latent.init_decoder(8, 16, RngStream(4))
    table = latent.token_table(enc, 6)
    ids = tokenize(["", "A", "ACDEFG", "KL"], 6)
    accuracy = latent.decoder_accuracy(dec, latent.table_keys(ids), table)
    assert accuracy == _accuracy_loop(dec, enc, ids)
    for empty in ([""], []):
        assert latent.decoder_accuracy(dec, latent.table_keys(tokenize(empty, 6)), table) == 0.0
