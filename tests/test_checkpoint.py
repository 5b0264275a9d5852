"""Checkpoint container tests: binary layout, corruption guards, packing.

The format is fully self-describing (magic, version, JSON header, raw
float32 payloads), so most tests craft files byte-by-byte and check that
the loader refuses anything malformed before touching payload bytes.
"""

import functools
import hashlib
import json
import os
import stat
import struct
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from protflow import checkpoint as ckpt
from protflow import cli
from protflow.config import L_MAX_CAP, SIZE_CAP
from protflow.errors import (
    BadMagic,
    CheckpointError,
    ConfigError,
    CorruptOffset,
    IncompatibleCheckpoint,
    MalformedHeader,
    NonFiniteTensor,
    NonFiniteValue,
    ProtflowError,
    VersionUnsupported,
)
from protflow.flow import LEGACY_TIME_SCALE, VectorFieldConfig, flow_forward, init_flow_model
from protflow.latent import (
    LatentPipeline,
    fit_smoothing,
    init_compressor,
    init_decoder,
    init_encoder,
    pipeline_shapes,
)
from protflow.multichain import ChainSpec
from protflow.numeric import RngStream


def _write_raw(path, header_bytes, payload=b"", magic=b"PFLW", version=1):
    """Assemble a container file by hand so tests can corrupt any field."""
    with open(path, "wb") as f:
        f.write(magic)
        f.write(struct.pack("<I", version))
        f.write(struct.pack("<Q", len(header_bytes)))
        f.write(header_bytes)
        f.write(payload)


def _header(entries, **meta):
    meta["tensors"] = entries
    return json.dumps(meta).encode("utf-8")


# --- save / load round trips ------------------------------------------------


def test_round_trip_values_and_meta(tmp_path):
    path = str(tmp_path / "model.ckpt")
    stream = RngStream(9).substream("tensors")
    tensors = {
        "a": stream.substream("a").normal((2, 3)),
        "b": stream.substream("b").normal((5,)),
        "c": np.float64(2.5),  # scalar tensor, shape ()
    }
    ckpt.save_checkpoint(path, tensors, {"kind": "demo", "steps": 7})
    loaded, meta = ckpt.load_checkpoint(path)

    assert set(loaded) == {"a", "b", "c"}
    assert meta == {"kind": "demo", "steps": 7}
    for name, orig in tensors.items():
        arr = loaded[name]
        assert arr.dtype == np.float32
        assert arr.shape == np.asarray(orig).shape
        assert np.array_equal(arr, np.asarray(orig).astype(np.float32))


def test_resave_is_byte_identical(tmp_path):
    first = str(tmp_path / "first.ckpt")
    second = str(tmp_path / "second.ckpt")
    stream = RngStream(10)
    tensors = {
        "w": stream.substream("w").normal((4, 4)),
        "b": stream.substream("b").normal((4,)),
    }
    ckpt.save_checkpoint(first, tensors, {"note": "x", "n": 3})
    loaded, meta = ckpt.load_checkpoint(first)
    ckpt.save_checkpoint(second, loaded, meta)
    with open(first, "rb") as f:
        bytes_a = f.read()
    with open(second, "rb") as f:
        bytes_b = f.read()
    assert bytes_a == bytes_b


def test_atomic_write_leaves_no_temp_files(tmp_path):
    path = str(tmp_path / "only.ckpt")
    ckpt.save_checkpoint(path, {"x": np.ones(3)}, {})
    # overwriting an existing checkpoint must also go through the temp file
    ckpt.save_checkpoint(path, {"x": np.zeros(3)}, {})
    assert sorted(p.name for p in tmp_path.iterdir()) == ["only.ckpt"]
    loaded, _ = ckpt.load_checkpoint(path)
    assert np.array_equal(loaded["x"], np.zeros(3, dtype=np.float32))


def test_atomic_writer_cleans_up_after_a_failed_write(tmp_path, monkeypatch):
    from protflow import fileio

    (tmp_path / "dir").mkdir()
    target = str(tmp_path / "dir")
    # an OSError is a ConfigError at both call sites
    with pytest.raises(ConfigError, match="cannot write checkpoint"):
        ckpt.save_checkpoint(target, {"x": np.ones(2)}, {})
    with pytest.raises(ConfigError, match="cannot write output"):
        cli._atomic_write_text(target, "text")
    # any other failure propagates as itself; the temp file goes either way
    def interrupted(src, dst):
        raise KeyboardInterrupt

    monkeypatch.setattr(fileio.os, "replace", interrupted)
    with pytest.raises(KeyboardInterrupt):
        fileio.write_atomic(str(tmp_path / "out.bin"), b"data", "output")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["dir"]


def test_atomic_writer_gives_the_mode_open_would(tmp_path, monkeypatch):
    from protflow import fileio

    path = str(tmp_path / "out.bin")
    old = os.umask(0o022)
    try:
        for umask, mode in ((0o022, 0o644), (0o077, 0o600), (0o002, 0o664)):
            os.umask(umask)
            fileio.write_atomic(path, b"data", "output")
            assert stat.S_IMODE(os.stat(path).st_mode) == mode
            assert os.umask(umask) == umask  # writing left the umask as it was

        def refused(p, mode):
            raise PermissionError(1, "Operation not permitted")

        monkeypatch.setattr(fileio.os, "chmod", refused)
        with pytest.raises(ConfigError, match="cannot write output"):
            fileio.write_atomic(str(tmp_path / "other.bin"), b"data", "output")
    finally:
        os.umask(old)
    assert sorted(p.name for p in tmp_path.iterdir()) == ["out.bin"]


def test_non_finite_tensor_rejected(tmp_path):
    path = str(tmp_path / "bad.ckpt")
    for poison in (np.nan, np.inf, 1e300):  # 1e300 overflows to inf in float32
        with np.errstate(over="ignore"), pytest.raises(NonFiniteValue):
            ckpt.save_checkpoint(path, {"w": np.array([1.0, poison])}, {})
    assert not (tmp_path / "bad.ckpt").exists()


def test_non_finite_tensor_refused_at_load(tmp_path):
    path = str(tmp_path / "nan.ckpt")
    for poison in (np.nan, np.inf, -np.inf):
        payload = np.array([1.0, poison, 2.0], dtype="<f4").tobytes()
        entries = [{"name": "w", "shape": [3], "dtype": "<f4", "offset": 0}]
        _write_raw(path, _header(entries, kind="flow"), payload)
        with pytest.raises(NonFiniteTensor, match="'w'"):
            ckpt.load_checkpoint(path)


def test_file_sha256_matches_reference(tmp_path):
    path = str(tmp_path / "h.ckpt")
    ckpt.save_checkpoint(path, {"x": np.arange(6.0)}, {"tag": "v"})
    with open(path, "rb") as f:
        data = f.read()
    assert ckpt.file_sha256(path) == hashlib.sha256(data).hexdigest()
    # any byte flip must change the digest
    with open(path, "wb") as f:
        f.write(data[:-1] + bytes([data[-1] ^ 0xFF]))
    assert ckpt.file_sha256(path) != hashlib.sha256(data).hexdigest()


# --- corruption guards ------------------------------------------------------


def test_short_file_is_bad_magic(tmp_path):
    path = str(tmp_path / "short.ckpt")
    with open(path, "wb") as f:
        f.write(b"PFL")
    with pytest.raises(BadMagic):
        ckpt.load_checkpoint(path)
    # right magic but fewer than 16 bytes total is still unreadable
    with open(path, "wb") as f:
        f.write(b"PFLW" + b"\x00" * 8)
    with pytest.raises(BadMagic):
        ckpt.load_checkpoint(path)


def test_wrong_magic(tmp_path):
    path = str(tmp_path / "nope.ckpt")
    _write_raw(path, _header([]), magic=b"NOPE")
    with pytest.raises(BadMagic):
        ckpt.load_checkpoint(path)


def test_future_version_rejected(tmp_path):
    path = str(tmp_path / "v2.ckpt")
    ckpt.save_checkpoint(path, {"x": np.ones(2)}, {})
    with open(path, "rb") as f:
        data = bytearray(f.read())
    data[4:8] = struct.pack("<I", 2)
    with open(path, "wb") as f:
        f.write(data)
    with pytest.raises(VersionUnsupported) as ei:
        ckpt.load_checkpoint(path)
    assert ei.value.found == 2
    assert ei.value.supported == 1


def test_header_length_beyond_eof(tmp_path):
    path = str(tmp_path / "hdr.ckpt")
    ckpt.save_checkpoint(path, {"x": np.ones(2)}, {})
    with open(path, "rb") as f:
        data = bytearray(f.read())
    data[8:16] = struct.pack("<Q", len(data) * 10)
    with open(path, "wb") as f:
        f.write(data)
    with pytest.raises(CorruptOffset):
        ckpt.load_checkpoint(path)


def test_header_not_json(tmp_path):
    path = str(tmp_path / "json.ckpt")
    _write_raw(path, b"{broken")
    with pytest.raises(CorruptOffset):
        ckpt.load_checkpoint(path)
    _write_raw(path, b"\xff\xfe\xff\xfe")  # not UTF-8 at all
    with pytest.raises(CorruptOffset):
        ckpt.load_checkpoint(path)


def test_unsupported_tensor_dtype(tmp_path):
    path = str(tmp_path / "dtype.ckpt")
    entry = {"name": "a", "shape": [2], "dtype": "<f8", "offset": 0}
    _write_raw(path, _header([entry]), payload=b"\x00" * 16)
    with pytest.raises(CorruptOffset):
        ckpt.load_checkpoint(path)


def test_offset_out_of_bounds(tmp_path):
    path = str(tmp_path / "span.ckpt")
    entry = {"name": "a", "shape": [4], "dtype": "<f4", "offset": 4}
    _write_raw(path, _header([entry]), payload=b"\x00" * 16)  # [4, 20) > 16
    with pytest.raises(CorruptOffset):
        ckpt.load_checkpoint(path)
    entry = {"name": "a", "shape": [2], "dtype": "<f4", "offset": -4}
    _write_raw(path, _header([entry]), payload=b"\x00" * 16)
    with pytest.raises(CorruptOffset):
        ckpt.load_checkpoint(path)


def test_overlapping_tensors(tmp_path):
    path = str(tmp_path / "overlap.ckpt")
    entries = [
        {"name": "a", "shape": [2], "dtype": "<f4", "offset": 0},
        {"name": "b", "shape": [2], "dtype": "<f4", "offset": 4},
    ]
    _write_raw(path, _header(entries), payload=b"\x00" * 12)
    with pytest.raises(CorruptOffset):
        ckpt.load_checkpoint(path)


@pytest.mark.parametrize(
    "header",
    [b"[]", b'"tensors"', b"7", b"null", b"{}", b'{"tensors": {}}', b'{"tensors": null}'],
)
def test_header_must_be_an_object_with_a_tensor_list(tmp_path, header):
    path = str(tmp_path / "hdr.ckpt")
    _write_raw(path, header)
    with pytest.raises(MalformedHeader):
        ckpt.load_checkpoint(path)


_GOOD_ENTRY = {"name": "a", "shape": [2], "dtype": "<f4", "offset": 0}


def _without(key):
    return {k: v for k, v in _GOOD_ENTRY.items() if k != key}


@pytest.mark.parametrize(
    "entry",
    [
        ["a", [2], "<f4", 0],
        "a",
        _without("name"),
        dict(_GOOD_ENTRY, name=3),
        dict(_GOOD_ENTRY, name=None),
        _without("shape"),
        dict(_GOOD_ENTRY, shape=2),
        dict(_GOOD_ENTRY, shape="2"),
        dict(_GOOD_ENTRY, shape=[-2]),
        dict(_GOOD_ENTRY, shape=[2.0]),
        dict(_GOOD_ENTRY, shape=[True]),
        dict(_GOOD_ENTRY, shape=[1] * 70),
        dict(_GOOD_ENTRY, shape=[0, 2**70]),
        _without("offset"),
        dict(_GOOD_ENTRY, offset="0"),
        dict(_GOOD_ENTRY, offset=0.0),
        dict(_GOOD_ENTRY, offset=False),
    ],
)
def test_malformed_tensor_entry(tmp_path, entry):
    path = str(tmp_path / "entry.ckpt")
    _write_raw(path, _header([entry]), payload=b"\x00" * 8)
    with pytest.raises(MalformedHeader):
        ckpt.load_checkpoint(path)


def test_missing_dtype_is_a_checkpoint_error(tmp_path):
    path = str(tmp_path / "dtype.ckpt")
    _write_raw(path, _header([_without("dtype")]), payload=b"\x00" * 8)
    with pytest.raises(CheckpointError):
        ckpt.load_checkpoint(path)


def test_duplicate_tensor_names(tmp_path):
    path = str(tmp_path / "dup.ckpt")
    entries = [_GOOD_ENTRY, dict(_GOOD_ENTRY, offset=8)]
    _write_raw(path, _header(entries), payload=b"\x00" * 16)
    with pytest.raises(MalformedHeader):
        ckpt.load_checkpoint(path)


def test_well_formed_hand_written_header_loads(tmp_path):
    path = str(tmp_path / "ok.ckpt")
    entries = [_GOOD_ENTRY, dict(_GOOD_ENTRY, name="b", shape=[], offset=8)]
    _write_raw(path, _header(entries, note="kept"), payload=b"\x00" * 12)
    tensors, meta = ckpt.load_checkpoint(path)
    assert tensors["a"].shape == (2,) and tensors["b"].shape == ()
    assert meta == {"note": "kept"}


# --- object packing ---------------------------------------------------------


def _toy_pipeline():
    rng = RngStream(21)
    enc = init_encoder(8, rng.substream("enc"), embed_scale=2.0, embed_rank=4)
    dec = init_decoder(8, 16, rng.substream("dec"))
    rows = rng.substream("rows").normal((64, 8))
    rows[:, 3] = 0.7  # one constant channel to exercise the 0/1 mask
    sm = fit_smoothing(rows)
    comp = init_compressor(8, 2, rng.substream("comp"))
    return LatentPipeline(enc, dec, sm, comp)


_PARTS = ("encoder", "decoder", "smoothing", "compressor")


def _pack_pipeline(pipe, prefix=""):
    """The tensors train-decoder and train-compressor store for pipe."""
    tensors = {}
    for part in _PARTS:
        tensors.update(ckpt.pack(getattr(pipe, part), f"{prefix}{part}."))
    return tensors


def test_pack_unpack_encoder_bitwise():
    pipe = _toy_pipeline()
    tensors = _pack_pipeline(pipe)
    # the positional table is not a parameter, so it is not stored
    assert [k for k in tensors if k.startswith("encoder.")] == ["encoder.embed"]
    out = ckpt.unpack_pipeline(tensors, 8)["encoder"]
    assert list(out) == ["embed"]
    assert np.array_equal(out["embed"], pipe.encoder["embed"])
    del tensors["encoder.embed"]
    with pytest.raises(IncompatibleCheckpoint, match="'encoder.embed'"):
        ckpt.unpack_pipeline(tensors, 8)


def test_pack_unpack_decoder_bitwise():
    pipe = _toy_pipeline()
    out = ckpt.unpack_pipeline(_pack_pipeline(pipe), 8)["decoder"]
    assert list(out) == list(pipe.decoder)
    for key, val in pipe.decoder.items():
        assert np.array_equal(out[key], val)


def test_pack_unpack_compressor_bitwise():
    pipe = _toy_pipeline()
    out = ckpt.unpack_pipeline(_pack_pipeline(pipe), 8)
    assert list(out["compressor"]) == list(pipe.compressor)
    for key, val in pipe.compressor.items():
        assert np.array_equal(out["compressor"][key], val)
    assert LatentPipeline(**out).width == pipe.width == 4


def test_pack_unpack_smoothing():
    pipe = _toy_pipeline()
    sm = pipe.smoothing
    out = ckpt.unpack_pipeline(_pack_pipeline(pipe), 8)["smoothing"]
    assert list(out) == list(sm)
    for key, val in sm.items():
        assert np.array_equal(out[key], val)
    assert out["constant"][3] == 1.0 and out["constant"].sum() == 1.0


def test_packed_stack_has_exactly_the_pipeline_shapes(tmp_path, monkeypatch):
    # the tensors train-decoder and train-compressor write, in file order
    monkeypatch.chdir(tmp_path)
    seqs = ["ACDEFG", "KLMNPQ", "RSTVWY", "AC", "DEF", "KLMN"]
    shapes = list(pipeline_shapes(8, 16, 4).items())
    cfg = ("model.D = 8\nmodel.decoder_hidden = 16\nmodel.ratio_c = 2\nmodel.L_max = 6\n"
           "train.steps = 2\ntrain.batch = 4\ntrain.warmup = 1\ndata.train_path = corpus.fasta\n")
    layouts = {
        "": ("", [(f"s{i}", s) for i, s in enumerate(seqs)]),
        "chain.A.": ("chains = A:6,B:4\n", [rec for i, s in enumerate(seqs)
                                            for rec in ((f"c{i}|chain=A", s),
                                                        (f"c{i}|chain=B", s[-4:]))]),
    }
    for prefix, (chains_line, records) in layouts.items():
        (tmp_path / "corpus.fasta").write_text("".join(f">{h}\n{s}\n" for h, s in records))
        (tmp_path / "run.cfg").write_text(cfg + chains_line)
        assert cli.main(["train-decoder", "--config", "run.cfg", "--out", "dec.ckpt"]) == 0
        assert cli.main(["train-compressor", "--config", "run.cfg", "--init", "dec.ckpt",
                         "--out", "pipe.ckpt"]) == 0
        tensors, _ = ckpt.load_checkpoint("pipe.ckpt")
        stored = [(k[len(prefix):], v.shape) for k, v in tensors.items() if k.startswith(prefix)]
        assert stored == shapes, prefix
        assert len(tensors) == len(shapes) * (2 if prefix else 1)


def test_pipeline_file_round_trip(tmp_path):
    pipe = _toy_pipeline()
    path = str(tmp_path / "pipe.ckpt")
    for prefix in ("", "chain.A."):
        ckpt.save_checkpoint(path, _pack_pipeline(pipe, prefix), {"l_max": 6, "dim": 8})
        loaded, meta = ckpt.load_checkpoint(path)
        out = ckpt.unpack_pipeline(loaded, meta["dim"], prefix)
        assert list(out) == list(_PARTS)
        # stored tensors come back as exact float32 casts of the originals
        for part, params in out.items():
            original = getattr(pipe, part)
            assert list(params) == list(original), part
            for key, val in original.items():
                assert np.array_equal(params[key], val.astype(np.float32)), (part, key)


def test_unpack_pipeline_checks_every_shape():
    pipe = _toy_pipeline()
    for name in pipeline_shapes(8, 16, 4):
        tensors = _pack_pipeline(pipe)
        tensors[name] = tensors[name][np.newaxis]  # same size, so b1 and b_down set widths
        with pytest.raises(IncompatibleCheckpoint, match=repr(name)):
            ckpt.unpack_pipeline(tensors, 8)
    with pytest.raises(IncompatibleCheckpoint, match="'encoder.embed'"):
        ckpt.unpack_pipeline(_pack_pipeline(pipe), 10)  # dim disagrees
    # a decoder checkpoint has no compressor, and its parts unpack without one
    tensors = {k: v for k, v in _pack_pipeline(pipe).items() if not k.startswith("compressor.")}
    parts = ("encoder", "decoder", "smoothing")
    assert list(ckpt.unpack_pipeline(tensors, 8, "", parts)) == list(parts)
    with pytest.raises(IncompatibleCheckpoint, match="'compressor.b_down'"):
        ckpt.unpack_pipeline(tensors, 8)


def test_pack_unpack_flow(tmp_path):
    cfg = VectorFieldConfig(
        depth=2, width=3, hidden=8, attention=False, seq_len=None, time_scale=3.5
    )
    model = init_flow_model(cfg, RngStream(11))
    tensors, meta = ckpt.pack_flow(model)
    assert all(key.startswith("flow.") for key in tensors)
    assert meta == {"flow_cfg": cfg.to_dict()}
    assert meta["flow_cfg"]["time_scale"] == 3.5

    # direct unpack keeps full float64 precision
    out = ckpt.unpack_flow(tensors, meta)
    assert out.cfg.to_dict() == cfg.to_dict()
    assert set(out.params) == set(model.params)
    for key, val in model.params.items():
        assert np.array_equal(out.params[key], val)

    # tensors outside the flow prefix are ignored
    extra = dict(tensors)
    extra["encoder.embed"] = np.zeros((3, 3))
    out2 = ckpt.unpack_flow(extra, meta)
    assert set(out2.params) == set(model.params)

    # file round trip casts parameters to float32 exactly once
    path = str(tmp_path / "flow.ckpt")
    ckpt.save_checkpoint(path, tensors, meta)
    loaded, meta2 = ckpt.load_checkpoint(path)
    out3 = ckpt.unpack_flow(loaded, meta2)
    assert out3.cfg.time_scale == 3.5
    for key, val in model.params.items():
        assert np.array_equal(out3.params[key], val.astype(np.float32))

    # a flow_cfg written before time_scale existed means the legacy scale
    legacy = {k: v for k, v in meta["flow_cfg"].items() if k != "time_scale"}
    assert ckpt.unpack_flow(tensors, {"flow_cfg": legacy}).cfg.time_scale == LEGACY_TIME_SCALE


def test_unpack_flow_incompatible():
    cfg = VectorFieldConfig(depth=1, width=2, hidden=4, attention=False, seq_len=None)
    model = init_flow_model(cfg, RngStream(12))
    tensors, meta = ckpt.pack_flow(model)
    with pytest.raises(IncompatibleCheckpoint):
        ckpt.unpack_flow(tensors, {})  # config fragment missing
    with pytest.raises(IncompatibleCheckpoint):
        ckpt.unpack_flow({"encoder.embed": np.zeros((3, 3))}, meta)  # no flow tensors


def test_combined_pipeline_and_flow_checkpoint(tmp_path):
    pipe = _toy_pipeline()
    cfg = VectorFieldConfig(depth=2, width=4, hidden=8, attention=False, seq_len=None)
    model = init_flow_model(cfg, RngStream(22))

    pipe_tensors = _pack_pipeline(pipe)
    flow_tensors, flow_meta = ckpt.pack_flow(model)
    assert not set(pipe_tensors) & set(flow_tensors)

    tensors = {**pipe_tensors, **flow_tensors}
    meta = {"l_max": 6, "dim": 8, "clamp_k": 2.5, **flow_meta}
    path = str(tmp_path / "both.ckpt")
    ckpt.save_checkpoint(path, tensors, meta)
    loaded, meta2 = ckpt.load_checkpoint(path)

    out_pipe = LatentPipeline(**ckpt.unpack_pipeline(loaded, meta2["dim"]))
    out_flow = ckpt.unpack_flow(loaded, meta2)
    assert out_pipe.width == pipe.width
    assert out_flow.cfg.to_dict() == cfg.to_dict()
    for key, val in model.params.items():
        assert np.array_equal(out_flow.params[key], val.astype(np.float32))


def _pipeline_meta(kind, chains=False):
    meta = {"kind": kind, "dim": 8, "clamp_k": 3.0}
    if chains:
        meta["chains"] = [{"name": "A", "l_max": 3}, {"name": "B", "l_max": 4}]
        meta["length_dists"] = {n: {"lengths": [2], "counts": [1]} for n in ("A", "B")}
    else:
        meta.update({"l_max": 6, "length_dist": {"lengths": [2], "counts": [1]}})
    if kind in ("flow", "reflow"):
        meta["flow_cfg"] = {"depth": 1, "width": 4, "hidden": 8}
    return meta


@pytest.mark.parametrize("kind", ["decoder", "pipeline", "flow", "reflow"])
@pytest.mark.parametrize("chains", [False, True])
def test_pipeline_kinds_need_their_metadata(tmp_path, kind, chains):
    path = str(tmp_path / "m.ckpt")
    meta = _pipeline_meta(kind, chains)
    ckpt.save_checkpoint(path, {"x": np.ones(2)}, meta)
    assert ckpt.load_checkpoint(path)[1] == meta
    for key in sorted(set(meta) - {"kind", "chains"}):
        ckpt.save_checkpoint(path, {"x": np.ones(2)}, {k: v for k, v in meta.items() if k != key})
        with pytest.raises(MalformedHeader, match=repr(key)):
            ckpt.load_checkpoint(path)
    # an odd dim would reach nn.sinusoidal_table, which needs an even width
    # and a float, bool or huge flow_cfg size would reach the network's range() calls
    flow_cfg = {"depth": 1, "width": 4, "hidden": 8}
    bad_flow_cfgs = [[1], dict(flow_cfg, depth=1.0), dict(flow_cfg, width=True),
                     dict(flow_cfg, time_dim=8.0), dict(flow_cfg, seq_len=6.0),
                     dict(flow_cfg, attention=1), dict(flow_cfg, depth=10**9),
                     dict(flow_cfg, depth=SIZE_CAP + 1), dict(flow_cfg, width=SIZE_CAP + 1),
                     dict(flow_cfg, hidden=0), dict(flow_cfg, time_dim=SIZE_CAP + 2),
                     dict(flow_cfg, time_scale=0.0), dict(flow_cfg, time_scale=-10.0),
                     dict(flow_cfg, time_scale=True), dict(flow_cfg, time_scale="10"),
                     dict(flow_cfg, time_scale=None), dict(flow_cfg, time_scale=float("inf")),
                     dict(flow_cfg, time_scale=float("nan")), dict(flow_cfg, time_scale=10**400),
                     # VectorFieldConfig's own rules, checked at load through the reader
                     dict(flow_cfg, time_dim=7), dict(flow_cfg, attention=True)]
    # chains follow ChainLayout's rules: distinct names, and the unnamed chain alone
    # and ChainSpec's: a str name and an int l_max (not a bool) in [1, L_MAX_CAP]
    bad_chains = [[{"name": "A"}], [{"name": 3, "l_max": 3}], [{"name": "A", "l_max": True}],
                  []] + [[{"name": a, "l_max": 3}, {"name": b, "l_max": 4}]
                         for a, b in (("A", "A"), ("", "B"), ("B", ""))]
    # dim follows model.D's rule: an int (not a bool) in [1, SIZE_CAP], and even;
    # clamp_k is a finite number > 0
    bad_values = {"dim": ["8", 7, 8.0, True, 0, -2, SIZE_CAP + 2],
                  "clamp_k": [True, float("inf")],
                  "l_max": [0, True, 6.0, "6", L_MAX_CAP + 1],
                  "length_dist": [{"lengths": [2]}, {"lengths": [2, 5], "counts": [2**62] * 2}],
                  "chains": bad_chains, "length_dists": [{"A": {}}], "flow_cfg": bad_flow_cfgs}
    for key in sorted(set(meta) & set(bad_values)):
        for value in bad_values[key]:
            ckpt.save_checkpoint(path, {"x": np.ones(2)}, dict(meta, **{key: value}))
            with pytest.raises(MalformedHeader, match=repr(key)):
                ckpt.load_checkpoint(path)


def test_flow_cfg_sizes_up_to_the_cap_load(tmp_path):
    path = str(tmp_path / "m.ckpt")
    meta = _pipeline_meta("flow")
    meta["flow_cfg"] = {"depth": SIZE_CAP, "width": SIZE_CAP, "hidden": SIZE_CAP,
                        "time_dim": SIZE_CAP, "time_scale": 1}
    ckpt.save_checkpoint(path, {"x": np.ones(2)}, meta)
    assert ckpt.load_checkpoint(path)[1] == meta


def test_metadata_checks_only_pipeline_kinds(tmp_path):
    path = str(tmp_path / "m.ckpt")
    ckpt.save_checkpoint(path, {"x": np.ones(2)}, {"kind": "demo", "dim": "not checked"})
    assert ckpt.load_checkpoint(path)[1]["dim"] == "not checked"
    meta = _pipeline_meta("flow", chains=True)
    del meta["length_dists"]["B"]
    ckpt.save_checkpoint(path, {"x": np.ones(2)}, meta)
    with pytest.raises(MalformedHeader, match="lacks chains"):
        ckpt.load_checkpoint(path)


def test_unpack_flow_rejects_a_bad_flow_cfg():
    tensors, _ = ckpt.pack_flow(
        init_flow_model(
            VectorFieldConfig(depth=1, width=2, hidden=4, attention=False, seq_len=None),
            RngStream(3),
        )
    )
    for cfg in ({"width": 2, "hidden": 4}, {"depth": 1, "width": 2, "hidden": 4, "time_dim": 3}):
        with pytest.raises(MalformedHeader, match="flow_cfg"):
            ckpt.unpack_flow(tensors, {"flow_cfg": cfg})


# --- fuzzing ------------------------------------------------------------------

# Values a crafted header may hold. Shapes and offsets also get sizes beyond
# what any payload or numpy holds, l_max and flow_cfg sizes far past their
# caps, and length distributions every kind of entry.
_JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 64) | st.floats() | st.text(max_size=3),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3), inner,
                                                                max_size=3),
    max_leaves=4,
)
_SIZES = st.integers(-3, 300) | st.sampled_from([2**31, 2**62, 2**64, 10**30])
_ENTRY_VALUES = {
    "name": st.text(max_size=8) | st.sampled_from(["decoder.b1", "flow.block0.w1"]),
    "shape": st.lists(_SIZES, max_size=4),
    "offset": _SIZES,
    "dtype": st.sampled_from(["<f4", "<f8", "f4", "<i4"]),
}
_FLOW_CFG_KEYS = ("depth", "width", "hidden", "attention", "seq_len", "time_dim", "time_scale")
_FLOW_CFG_VALUES = st.integers(-3, 2 * SIZE_CAP) | st.sampled_from(
    [10**9, 2**63, 10**400, 0.5, 1e308, 1e-300]
)
_L_MAX_VALUES = st.integers(-3, 2 * L_MAX_CAP) | st.sampled_from([2**40, 2**63, 2**64, 10**30])
_LENGTH_VALUES = _SIZES | _JSON_VALUES | st.sampled_from([2.0, 2.7, True])


@functools.lru_cache(maxsize=None)
def _valid_checkpoint(chains):
    """(header dict, payload bytes) of a small pipeline+flow checkpoint, of
    the unnamed chain of l_max 6 or, with chains, of chains A and B of l_max
    2 and 4."""
    cfg = VectorFieldConfig(depth=2, width=4, hidden=8, attention=True, seq_len=6)
    layout = [ChainSpec("A", 2, None), ChainSpec("B", 4, None)] if chains else [
        ChainSpec("", 6, None)]
    dists = [{"lengths": [2], "counts": [1]}, {"lengths": [1, 3], "counts": [2, 1]}]
    tensors = ckpt.pack_flow(init_flow_model(cfg, RngStream(23)))[0]
    for chain in layout:
        tensors.update(_pack_pipeline(_toy_pipeline(), chain.prefix))
    meta = {"kind": "flow", "dim": 8, "clamp_k": 2.5, "flow_cfg": cfg.to_dict(),
            **ckpt.layout_meta(layout, dists[:len(layout)])}
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "valid.ckpt")
        ckpt.save_checkpoint(path, tensors, meta)
        with open(path, "rb") as f:
            data = f.read()
    header_end = 16 + struct.unpack("<Q", data[8:16])[0]
    return json.loads(data[16:header_end]), data[header_end:]


def _mutate_dist(data, dist):
    """Replace, add or drop one entry of a length distribution's lists."""
    key = data.draw(st.sampled_from(["lengths", "counts"]))
    if not isinstance(dist, dict) or not isinstance(dist.get(key), list):
        return
    entries = dist[key]
    i = data.draw(st.integers(0, len(entries)))
    if i < len(entries) and data.draw(st.booleans()):
        del entries[i]
    else:
        entries[i:i + 1] = [data.draw(_LENGTH_VALUES)]


def _mutate_header(data, header):
    """Delete or replace one metadata value, flow_cfg field, tensor entry or
    entry field of header; set l_max; replace, add or drop one entry of a
    length distribution, or drop or replace one chain's distribution; or
    drop, copy, rename or resize one chain."""
    target = data.draw(st.sampled_from(
        ["meta", "flow_cfg", "entry", "l_max", "length_dist", "chains", "length_dists"]
    ))
    values = _JSON_VALUES
    if target == "l_max":
        header["l_max"] = data.draw(_L_MAX_VALUES)
        return
    if target == "length_dist":
        _mutate_dist(data, header.get("length_dist"))
        return
    if target == "chains":
        chains = header.get("chains")
        if not isinstance(chains, list) or not chains:
            return
        i = data.draw(st.integers(0, len(chains) - 1))
        action = data.draw(st.sampled_from(["drop", "copy", "name", "l_max"]))
        if action == "drop":
            del chains[i]
        elif action == "copy":
            chains.append(json.loads(json.dumps(chains[i])))
        elif isinstance(chains[i], dict) and action == "name":
            chains[i]["name"] = data.draw(st.sampled_from(["A", "B", "C", ""]) | _JSON_VALUES)
        elif isinstance(chains[i], dict):
            chains[i]["l_max"] = data.draw(_L_MAX_VALUES)
        return
    if target == "length_dists":
        dists = header.get("length_dists")
        if not isinstance(dists, dict) or not dists:
            return
        name = data.draw(st.sampled_from(sorted(dists)))
        action = data.draw(st.sampled_from(["entry", "drop", "replace"]))
        if action == "entry":
            _mutate_dist(data, dists[name])
        elif action == "drop":
            del dists[name]
        else:
            dists[name] = data.draw(_JSON_VALUES)
        return
    if target == "meta":
        parent = header
        key = data.draw(st.sampled_from(sorted(set(header) - {"tensors"}) + ["chains"]))
    elif target == "flow_cfg":
        if not isinstance(header.get("flow_cfg"), dict):
            return
        parent, key = header["flow_cfg"], data.draw(st.sampled_from(_FLOW_CFG_KEYS))
        # the valid value as an integral float, or a bool, compares equal to it
        valid = _valid_checkpoint(False)[0]["flow_cfg"][key]
        values = _JSON_VALUES | _FLOW_CFG_VALUES | st.sampled_from([float(valid), bool(valid)])
    else:
        entries = header["tensors"]
        if not entries:
            return
        i = data.draw(st.integers(0, len(entries) - 1))
        if data.draw(st.booleans()):
            del entries[i]
            return
        parent, key = entries[i], data.draw(st.sampled_from(sorted(_ENTRY_VALUES)))
        shape = parent.get("shape")
        if key == "shape" and isinstance(shape, list) and shape and data.draw(st.booleans()):
            # one size off, so most such files load and reach the shape checks
            shape[data.draw(st.integers(0, len(shape) - 1))] = data.draw(_SIZES)
            return
        values = _ENTRY_VALUES[key] | _JSON_VALUES
    if not data.draw(st.integers(0, 4)):
        parent.pop(key, None)
    else:
        parent[key] = data.draw(values)


def _mutate_bytes(data, blob):
    """Overwrite, cut or extend a span of blob."""
    action = data.draw(st.sampled_from(["overwrite", "truncate", "extend"]))
    if action == "truncate":
        return blob[: data.draw(st.integers(0, len(blob)))]
    if action == "extend":
        return blob + data.draw(st.binary(min_size=1, max_size=16))
    start = data.draw(st.integers(0, max(len(blob) - 1, 0)))
    patch = data.draw(st.binary(min_size=1, max_size=8))
    return blob[:start] + patch + blob[start + len(patch):]


@settings(max_examples=400, deadline=None)
@given(data=st.data())
def test_fuzzed_checkpoints_load_or_exit_4(data):
    header, payload = _valid_checkpoint(data.draw(st.booleans()))
    header = json.loads(json.dumps(header))  # a fresh copy to mutate
    for _ in range(data.draw(st.integers(0, 3))):
        _mutate_header(data, header)
    if data.draw(st.booleans()):
        payload = _mutate_bytes(data, payload)
    header_bytes = json.dumps(header).encode("utf-8")
    blob = b"PFLW" + struct.pack("<IQ", 1, len(header_bytes)) + header_bytes + payload
    if data.draw(st.integers(0, 3)) == 0:
        blob = _mutate_bytes(data, blob)  # anywhere, the magic and lengths included
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "fuzzed.ckpt")
        with open(path, "wb") as f:
            f.write(blob)
        try:
            # what sample does with a checkpoint before it draws a latent
            tensors, meta = ckpt.load_checkpoint(path)
            if meta.get("kind") in ("flow", "reflow"):
                dists = ckpt.meta_length_dists(meta)
                for chain in ckpt.meta_chains(meta):
                    ckpt.unpack_pipeline(tensors, meta["dim"], chain.prefix)
                    dists[chain.name].sample(RngStream(0))
                model = ckpt.unpack_flow(tensors, meta)
                seq_len = model.cfg.seq_len if model.cfg.attention else 6
                flow_forward(model, np.zeros((1, seq_len, model.cfg.width)), np.zeros(1))
        except ProtflowError as e:
            assert e.exit_code == 4, repr(e)
