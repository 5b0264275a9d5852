"""End-to-end command-line tests: stage chaining, artifacts, exit codes.

A module-scoped fixture trains a deliberately tiny pipeline (short peptides,
narrow latents, tens of steps) once; the tests then exercise sampling,
evaluation, inspection, reruns, and every error exit path against it.
"""

import json
import os
import platform
import struct
import subprocess
import sys
import warnings

import numpy as np
import pytest

import protflow
from protflow import cli, errors
from protflow.checkpoint import file_sha256, load_checkpoint, save_checkpoint
from protflow.seqio import read_fasta

_CORPUS = [
    "ACDEFG",
    "KLMNPQ",
    "RSTVWY",
    "ACKLRS",
    "DEMNTV",
    "FGPQWY",
    "AC",
    "DEF",
    "KLMN",
    "PQRST",
    "VWYACD",
    "GHIKLM",
]

_BASE_CFG = """\
model.depth = 1
model.width = 16
model.ratio_c = 2
model.L_max = 6
model.D = 8
model.embed_rank = 4
model.decoder_hidden = 16
train.steps = 40
train.batch = 8
train.lr = 2e-3
train.warmup = 10
train.val_every = 20
train.seed = 5
solver.method = dopri5
solver.steps = 10
"""

_MC_RECORDS = [
    ("c0|chain=A", "ACD"),
    ("c0|chain=B", "DEFG"),
    ("c1|chain=A", "KL"),
    ("c1|chain=B", "MNPQ"),
    ("c2|chain=A", "RS"),
    ("c2|chain=B", "TVWY"),
    ("c3|chain=B", "KLMN"),  # chain order swapped within the complex on purpose
    ("c3|chain=A", "AC"),
    ("c4|chain=A", "DE"),
    ("c4|chain=B", "FGH"),
    ("c5|chain=A", "KM"),
    ("c5|chain=B", "PQRS"),
    ("c6|chain=A", "TV"),
    ("c6|chain=B", "WYAC"),
    ("c7|chain=A", "GH"),
    ("c7|chain=B", "IKLM"),
]


def _write_fasta(path, records):
    path.write_text("".join(f">{h}\n{s}\n" for h, s in records))


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    """Train decoder -> compressor -> flow -> reflow once on a toy corpus."""
    root = tmp_path_factory.mktemp("cli")
    corpus = root / "corpus.fasta"
    _write_fasta(corpus, [(f"seq{i}", s) for i, s in enumerate(_CORPUS)])
    cfg = root / "run.cfg"
    cfg.write_text(_BASE_CFG + f"data.train_path = {corpus}\n")

    paths = {
        "root": root,
        "cfg": str(cfg),
        "corpus": str(corpus),
        "dec": str(root / "dec.ckpt"),
        "pipe": str(root / "pipe.ckpt"),
        "flow": str(root / "flow.ckpt"),
        "reflow": str(root / "reflow.ckpt"),
    }
    assert cli.main(["train-decoder", "--config", paths["cfg"], "--out", paths["dec"]]) == 0
    assert (
        cli.main(
            ["train-compressor", "--config", paths["cfg"], "--init", paths["dec"],
             "--out", paths["pipe"]]
        )
        == 0
    )
    assert (
        cli.main(
            ["train-flow", "--config", paths["cfg"], "--init", paths["pipe"],
             "--out", paths["flow"]]
        )
        == 0
    )
    assert (
        cli.main(
            ["reflow", "--config", paths["cfg"], "--init", paths["flow"],
             "--out", paths["reflow"], "--set", "reflow.pairs=16", "--set", "train.steps=20"]
        )
        == 0
    )
    return paths


def test_stage_artifacts(workdir):
    for key, kind in (("dec", "decoder"), ("pipe", "pipeline"),
                      ("flow", "flow"), ("reflow", "reflow")):
        tensors, meta = load_checkpoint(workdir[key])
        assert meta["kind"] == kind
        assert meta["config"]["model.D"] == 8
        assert tensors
        with open(workdir[key] + ".loss.csv") as f:
            lines = f.read().splitlines()
        assert lines[0] == "step,loss,lr,grad_norm"
        assert len(lines) > 1
    _, dec_meta = load_checkpoint(workdir["dec"])
    assert dec_meta["l_max"] == 6 and dec_meta["dim"] == 8
    assert "length_dist" in dec_meta
    _, flow_meta = load_checkpoint(workdir["flow"])
    assert "flow_cfg" in flow_meta
    _, reflow_meta = load_checkpoint(workdir["reflow"])
    assert reflow_meta["lineage"] == file_sha256(workdir["flow"])
    assert reflow_meta["straightness_after"] >= 0.0


def test_train_rerun_is_bitwise_identical(workdir):
    out2 = str(workdir["root"] / "dec_again.ckpt")
    assert cli.main(["train-decoder", "--config", workdir["cfg"], "--out", out2]) == 0
    assert file_sha256(out2) == file_sha256(workdir["dec"])


def test_sample_bitwise_and_sidecar(workdir):
    out1 = str(workdir["root"] / "s1.fasta")
    out2 = str(workdir["root"] / "s2.fasta")
    for out in (out1, out2):
        code = cli.main(
            ["sample", "--checkpoint", workdir["flow"], "--out", out, "--n", "6", "--seed", "3"]
        )
        assert code == 0
    with open(out1, "rb") as f:
        bytes1 = f.read()
    with open(out2, "rb") as f:
        bytes2 = f.read()
    assert bytes1 == bytes2

    with open(out1 + ".json") as f:
        sidecar = json.load(f)
    # the config snapshot pinned dopri5 at 10 steps; fixed-grid variant runs it
    assert sidecar == {
        "seed": 3,
        "solver": "dopri5-fixed",
        "steps": 10,
        "atol": 1e-6,
        "rtol": 1e-6,
        "mean_nfe": 60.0,
        "n": 6,
    }
    records = read_fasta(out1)
    assert [h for h, _ in records] == [f"gen_{i}" for i in range(6)]
    for _, seq in records:
        assert 2 <= len(seq) <= 6  # length distribution was fit on the corpus


def test_sample_solver_overrides(workdir):
    out = str(workdir["root"] / "euler.fasta")
    code = cli.main(
        ["sample", "--checkpoint", workdir["reflow"], "--out", out,
         "--n", "4", "--seed", "1", "--method", "euler", "--steps", "3"]
    )
    assert code == 0
    with open(out + ".json") as f:
        sidecar = json.load(f)
    assert sidecar["solver"] == "euler"
    assert sidecar["steps"] == 3
    assert sidecar["mean_nfe"] == 3.0


def test_inspect_checkpoint(workdir, capsys):
    assert cli.main(["inspect-checkpoint", "--checkpoint", workdir["flow"]]) == 0
    summary = json.loads(capsys.readouterr().out)
    tensors, meta = load_checkpoint(workdir["flow"])
    assert summary["sha256"] == file_sha256(workdir["flow"])
    assert summary["format_version"] == 1
    assert summary["kind"] == "flow"
    assert summary["n_tensors"] == len(tensors)
    assert summary["n_parameters"] == int(sum(v.size for v in tensors.values()))
    names = [t["name"] for t in summary["tensors"]]
    assert names == sorted(names)
    assert summary["config"] == meta["config"]


def test_eval_report(workdir):
    gen = str(workdir["root"] / "gen12.fasta")
    assert (
        cli.main(["sample", "--checkpoint", workdir["flow"], "--out", gen,
                  "--n", "12", "--seed", "7"])
        == 0
    )
    scores = workdir["root"] / "scores.csv"
    scores.write_text("id,score\ns0,0.1\ns1,0.4\ns2,0.6\ns3,0.9\n")
    out = str(workdir["root"] / "report")
    code = cli.main(
        ["eval", "--gen", gen, "--ref", workdir["corpus"], "--out", out, "--k", "3",
         "--external-scores", str(scores), "--threshold", "0.5", "--threshold", "0.9"]
    )
    assert code == 0

    with open(out + ".json") as f:
        report = json.load(f)
    assert report["schema_version"] == 1
    assert report["n_gen"] == 12 and report["n_ref"] == 12
    assert len(report["config_hash"]) == 64
    by_name = {row["metric"]: row for row in report["metrics"]}
    expected = {
        "mean_entropy_gen", "mean_entropy_ref", "kmer_jaccard_k3", "int_div_gen",
        "e_dist", "uniqueness_gen", "ot_levenshtein", "frechet_distance", "mmd_rbf",
        "w_property", "pseudoperplexity_unigram_ref", "p_gt_0.5", "p_gt_0.9",
    }
    assert expected <= set(by_name)
    for row in report["metrics"]:
        assert (row["value"] is None) != (row["skipped"] is None)
    # equal batch sizes: the paired metrics must actually compute
    for name in ("ot_levenshtein", "mmd_rbf", "frechet_distance", "e_dist"):
        assert by_name[name]["value"] is not None
    assert by_name["p_gt_0.5"]["value"] == 0.5  # 0.6 and 0.9 out of four scores
    assert by_name["p_gt_0.9"]["value"] == 0.0  # strictly-above comparison
    with open(out + ".csv") as f:
        lines = f.read().splitlines()
    assert lines[0] == "metric,value,skipped"
    assert len(lines) == 1 + len(report["metrics"])


def test_eval_skips_size_bound_metrics(workdir):
    gen = str(workdir["root"] / "gen5.fasta")
    assert (
        cli.main(["sample", "--checkpoint", workdir["flow"], "--out", gen,
                  "--n", "5", "--seed", "2"])
        == 0
    )
    out = str(workdir["root"] / "report5")
    assert cli.main(["eval", "--gen", gen, "--ref", workdir["corpus"], "--out", out]) == 0
    with open(out + ".json") as f:
        report = json.load(f)
    by_name = {row["metric"]: row for row in report["metrics"]}
    # 5 generated vs 12 reference: one-to-one couplings are undefined
    assert by_name["ot_levenshtein"]["value"] is None
    assert "UnequalSizes" in by_name["ot_levenshtein"]["skipped"]
    assert by_name["mmd_rbf"]["value"] is None
    # unpaired metrics still compute
    assert by_name["frechet_distance"]["value"] is not None
    assert by_name["e_dist"]["value"] is not None


# --- exit codes ---------------------------------------------------------------


def test_exit_1_unknown_key(workdir, capsys):
    code = cli.main(
        ["train-decoder", "--config", workdir["cfg"],
         "--out", str(workdir["root"] / "x.ckpt"), "--set", "nope=1"]
    )
    assert code == 1
    assert "unknown config key" in capsys.readouterr().err


def test_exit_1_reflow_needs_pairs(workdir):
    code = cli.main(
        ["reflow", "--config", workdir["cfg"], "--init", workdir["flow"],
         "--out", str(workdir["root"] / "x.ckpt"), "--set", "reflow.pairs=0"]
    )
    assert code == 1


def test_exit_1_sample_bad_n(workdir):
    code = cli.main(
        ["sample", "--checkpoint", workdir["flow"],
         "--out", str(workdir["root"] / "x.fasta"), "--n", "0"]
    )
    assert code == 1


def test_exit_2_missing_data(workdir):
    code = cli.main(
        ["train-decoder", "--config", workdir["cfg"],
         "--out", str(workdir["root"] / "x.ckpt"),
         "--set", "data.train_path=/nonexistent/corpus.fasta"]
    )
    assert code == 2


def test_exit_2_malformed_fasta(workdir):
    bad = workdir["root"] / "bad.fasta"
    bad.write_text("this is not a sequence file\n")
    code = cli.main(
        ["train-decoder", "--config", workdir["cfg"],
         "--out", str(workdir["root"] / "x.ckpt"), "--set", f"data.train_path={bad}"]
    )
    assert code == 2


def test_exit_2_missing_scores(workdir):
    out = str(workdir["root"] / "rx")
    code = cli.main(
        ["eval", "--gen", workdir["corpus"], "--ref", workdir["corpus"], "--out", out,
         "--external-scores", "/nonexistent/scores.csv", "--threshold", "0.5"]
    )
    assert code == 2


def test_exit_3_divergence(workdir):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # overflow chatter on the way to the raise
        code = cli.main(
            ["train-flow", "--config", workdir["cfg"], "--init", workdir["pipe"],
             "--out", str(workdir["root"] / "x.ckpt"),
             "--set", "train.lr=1e200", "--set", "train.steps=5"]
        )
    assert code == 3


def test_exit_4_checkpoint_errors(workdir):
    garbage = workdir["root"] / "garbage.bin"
    garbage.write_bytes(b"\x01\x02\x03\x04 not a checkpoint")
    out = str(workdir["root"] / "x.ckpt")
    # unreadable container
    assert (
        cli.main(["train-compressor", "--config", workdir["cfg"],
                  "--init", str(garbage), "--out", out])
        == 4
    )
    # stage kind unusable here: flow training needs a compressor
    assert (
        cli.main(["train-flow", "--config", workdir["cfg"],
                  "--init", workdir["dec"], "--out", out])
        == 4
    )
    # sampling needs a trained vector field, not a bare pipeline
    assert (
        cli.main(["sample", "--checkpoint", workdir["pipe"],
                  "--out", str(workdir["root"] / "x.fasta")])
        == 4
    )
    # latent width disagreement between config and checkpoint
    assert (
        cli.main(["train-compressor", "--config", workdir["cfg"],
                  "--init", workdir["dec"], "--out", out, "--set", "model.D=16"])
        == 4
    )


def test_exit_4_non_finite_checkpoint_tensor(workdir):
    # A NaN in a stored tensor is a checkpoint error, caught at load time.
    with open(workdir["flow"], "rb") as f:
        data = bytearray(f.read())
    payload = 16 + struct.unpack("<Q", data[8:16])[0]
    data[payload : payload + 4] = struct.pack("<f", float("nan"))
    bad = workdir["root"] / "nan.ckpt"
    bad.write_bytes(bytes(data))
    src = os.path.dirname(os.path.dirname(os.path.abspath(protflow.__file__)))
    paths = [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(paths))
    proc = subprocess.run(
        [sys.executable, "-m", "protflow", "sample", "--checkpoint", str(bad),
         "--out", str(workdir["root"] / "nan.fasta")],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 4, proc.stderr
    assert "Traceback" not in proc.stderr
    assert "non-finite" in proc.stderr


def test_exit_4_malformed_checkpoint_header(tmp_path):
    # A header that breaks the schema is a checkpoint error, not a traceback.
    src = os.path.dirname(os.path.dirname(os.path.abspath(protflow.__file__)))
    paths = [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(paths))
    headers = {
        "list": ([], "'tensors' list"),
        "no_shape": ({"tensors": [{"name": "w", "dtype": "<f4", "offset": 0}]}, "'shape'"),
    }
    for label, (header, message) in headers.items():
        header = json.dumps(header).encode("utf-8")
        bad = tmp_path / f"{label}.ckpt"
        bad.write_bytes(b"PFLW" + struct.pack("<I", 1) + struct.pack("<Q", len(header)) + header)
        proc = subprocess.run(
            [sys.executable, "-m", "protflow", "inspect-checkpoint", "--checkpoint", str(bad)],
            env=env, capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 4, (label, proc.stderr)
        assert "Traceback" not in proc.stderr, label
        assert message in proc.stderr, (label, proc.stderr)


def test_exit_4_checkpoint_missing_metadata(workdir):
    # A flow checkpoint re-saved without l_max is a checkpoint error, not a KeyError.
    tensors, meta = load_checkpoint(workdir["flow"])
    del meta["l_max"]
    bad = workdir["root"] / "no_l_max.ckpt"
    save_checkpoint(str(bad), tensors, meta)
    src = os.path.dirname(os.path.dirname(os.path.abspath(protflow.__file__)))
    paths = [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(paths))
    proc = subprocess.run(
        [sys.executable, "-m", "protflow", "sample", "--checkpoint", str(bad),
         "--out", str(workdir["root"] / "no_l_max.fasta")],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 4, proc.stderr
    assert "Traceback" not in proc.stderr
    assert "'l_max'" in proc.stderr


def test_keep_freed_heap(monkeypatch):
    if platform.libc_ver()[0] == "glibc":
        assert cli.keep_freed_heap() == (1, 1)  # mallopt accepted both thresholds
    monkeypatch.setattr(platform, "libc_ver", lambda *a, **k: ("musl", "1.2"))
    assert cli.keep_freed_heap() is None


def _error_classes(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from _error_classes(sub)


def test_every_protflow_error_maps_to_an_exit_code(monkeypatch, capsys):
    documented = {
        errors.ConfigError: 1,
        errors.IncompatibleRatio: 1,
        errors.DataError: 2,
        errors.Diverged: 3,
        errors.NonFiniteLoss: 3,
        errors.SolverFailure: 3,
        errors.NonFiniteValue: 3,
        errors.CheckpointError: 4,
        errors.ShapeMismatch: 4,
        errors.LayoutMismatch: 4,
        errors.WidthMismatch: 4,
    }
    needs_args = {
        errors.UnknownResidue: ("X", 3),
        errors.InvalidTokenId: (99,),
        errors.SequenceTooLong: (30, 20),
        errors.VersionUnsupported: (9, 1),
    }
    classes = list(_error_classes(errors.ProtflowError))
    assert set(documented) <= set(classes)
    for cls in classes:
        exc = cls(*needs_args.get(cls, ("boom",)))

        def raise_it(args, exc=exc):
            raise exc

        monkeypatch.setattr(cli, "cmd_inspect_checkpoint", raise_it)
        code = cli.main(["inspect-checkpoint", "--checkpoint", "unused.ckpt"])
        assert code in (1, 2, 3, 4), cls.__name__
        for family, expected in documented.items():
            if issubclass(cls, family):
                assert code == expected, cls.__name__
        assert capsys.readouterr().err == f"error: {exc}\n"


# --- multichain plumbing --------------------------------------------------------


@pytest.fixture(scope="module")
def mc_workdir(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli_mc")
    corpus = root / "mc.fasta"
    _write_fasta(corpus, _MC_RECORDS)
    cfg = root / "mc.cfg"
    cfg.write_text(_BASE_CFG + f"data.train_path = {corpus}\nchains = A:3,B:4\n")
    paths = {
        "root": root,
        "cfg": str(cfg),
        "corpus": str(corpus),
        "dec": str(root / "dec.ckpt"),
        "pipe": str(root / "pipe.ckpt"),
        "flow": str(root / "flow.ckpt"),
    }
    assert cli.main(["train-decoder", "--config", paths["cfg"], "--out", paths["dec"]]) == 0
    assert (
        cli.main(["train-compressor", "--config", paths["cfg"], "--init", paths["dec"],
                  "--out", paths["pipe"]])
        == 0
    )
    assert (
        cli.main(["train-flow", "--config", paths["cfg"], "--init", paths["pipe"],
                  "--out", paths["flow"]])
        == 0
    )
    return paths


def test_multichain_stage_artifacts(mc_workdir):
    _, meta = load_checkpoint(mc_workdir["dec"])
    assert meta["chains"] == [{"name": "A", "l_max": 3}, {"name": "B", "l_max": 4}]
    assert set(meta["length_dists"]) == {"A", "B"}
    for name in ("A", "B"):
        with open(f"{mc_workdir['dec']}.{name}.loss.csv") as f:
            assert f.readline().strip() == "step,loss,lr,grad_norm"
    tensors, _ = load_checkpoint(mc_workdir["pipe"])
    assert any(k.startswith("chain.A.compressor.") for k in tensors)
    assert any(k.startswith("chain.B.compressor.") for k in tensors)


def test_multichain_sample(mc_workdir):
    out = str(mc_workdir["root"] / "mc_gen.fasta")
    assert (
        cli.main(["sample", "--checkpoint", mc_workdir["flow"], "--out", out,
                  "--n", "4", "--seed", "11"])
        == 0
    )
    records = read_fasta(out)
    assert [h for h, _ in records] == [
        f"gen_{i}|chain={name}" for i in range(4) for name in ("A", "B")
    ]
    for header, seq in records:
        limit = 3 if header.endswith("A") else 4
        assert 2 <= len(seq) <= limit


def test_multichain_corpus_errors(mc_workdir):
    root = mc_workdir["root"]
    out = str(root / "x.ckpt")
    cases = {
        "untagged.fasta": [("c0|chain=A", "ACD"), ("c0", "DEFG")],
        "unknown.fasta": [("c0|chain=A", "ACD"), ("c0|chain=C", "DEFG")],
        "missing.fasta": [("c0|chain=A", "ACD"), ("c0|chain=B", "DEFG"),
                          ("c1|chain=A", "KL")],
        "duplicate.fasta": [("c0|chain=A", "ACD"), ("c0|chain=A", "KLM"),
                            ("c0|chain=B", "DEFG")],
    }
    for fname, records in cases.items():
        bad = root / fname
        _write_fasta(bad, records)
        code = cli.main(
            ["train-decoder", "--config", mc_workdir["cfg"], "--out", out,
             "--set", f"data.train_path={bad}"]
        )
        assert code == 2, fname
