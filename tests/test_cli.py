"""End-to-end command-line tests: stage chaining, artifacts, exit codes.

A module-scoped fixture trains a deliberately tiny pipeline (short peptides,
narrow latents, tens of steps) once; the tests then exercise sampling,
evaluation, inspection, reruns, and every error exit path against it.
"""

import ast
import inspect
import json
import os
import platform
import resource
import struct
import subprocess
import sys
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import protflow
from protflow import cli, errors, ode
from protflow.checkpoint import file_sha256, load_checkpoint, pack_flow, save_checkpoint
from protflow.config import L_MAX_CAP, SCHEMA, SIZE_CAP
from protflow.flow import TIME_SCALE, VectorFieldConfig, init_flow_model
from protflow.latent import pipeline_shapes
from protflow.numeric import RngStream
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


def _protflow_env():
    """The environment with this protflow first on PYTHONPATH, for subprocesses."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(protflow.__file__)))
    paths = [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    return dict(os.environ, PYTHONPATH=os.pathsep.join(paths))


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
    assert flow_meta["flow_cfg"]["time_scale"] == TIME_SCALE  # new flows record the constant
    _, reflow_meta = load_checkpoint(workdir["reflow"])
    assert reflow_meta["flow_cfg"] == flow_meta["flow_cfg"]
    assert reflow_meta["lineage"] == file_sha256(workdir["flow"])
    assert reflow_meta["straightness_after"] >= 0.0


def test_train_settings_default_only_in_the_schema():
    # every setting the CLI passes a trainer has its one default in its
    # config.SCHEMA row, and nn.fit passes every AdamW setting; the encoder,
    # solver.* and model.attention settings default only in their SCHEMA rows,
    # and the eval embedder's and k-mer size only in eval's flags
    # (cli._EMBED_DIM, --seed, --k). The knobs no command sets are constants
    # (metrics.OT_CAP, metrics.PI_TOL, every property, the layer norm's
    # epsilon, mmd_rbf's median bandwidth, flow.STRAIGHTNESS_T), so train_rf,
    # mmd_rbf and straightness take no default at all; nn.fit passes the
    # schedule's cycles and the GELU's tanh.
    from protflow import flow, latent, metrics, nn, ode
    from protflow.config import load_config

    keys = set(cli._train_args(load_config()))
    for trainer in (latent.train_decoder, latent.train_compressor, flow.train_rf,
                    flow.train_reflow):
        params = inspect.signature(trainer).parameters
        assert keys <= set(params), trainer.__name__
        defaults = {k for k in keys if params[k].default is not inspect.Parameter.empty}
        assert not defaults, (trainer.__name__, defaults)
    for fn, names in ((nn.AdamW, ("betas", "eps", "weight_decay")),
                      (latent.init_encoder, ("embed_scale", "embed_rank")),
                      (latent.embed_sequences, ("dim", "seed")),
                      (metrics.kmer_jaccard, ("k",)),
                      (ode.SolverConfig, ode.SETTINGS),
                      (flow.VectorFieldConfig, ("attention", "seq_len"))):
        params = inspect.signature(fn).parameters
        assert all(params[k].default is inspect.Parameter.empty for k in names), fn.__name__
    for fn in (metrics.ot_levenshtein, metrics.w_property, metrics.isoelectric_point,
               metrics.mmd_rbf, nn.layernorm_forward, nn.cosine_lr, nn.gelu_grad,
               flow.straightness, flow.train_rf):
        params = inspect.signature(fn).parameters.values()
        assert all(p.default is inspect.Parameter.empty for p in params), fn.__name__


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
        "nfe": [60] * 6,
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


@pytest.mark.parametrize(
    "flag", [("--steps", "0"), ("--steps", "101"), ("--atol", "-1"), ("--rtol", "-1"),
             ("--atol", "nan"), ("--atol", "inf"), ("--rtol", "inf"),
             # SolverConfig checks the method and the step count under every method
             ("--method", "rk4"), ("--method", "dopri5-adaptive", "--steps", "500")],
    ids=lambda f: " ".join(f),
)
def test_exit_1_sample_bad_solver_flag(workdir, flag):
    proc = subprocess.run(
        [sys.executable, "-m", "protflow", "sample", "--checkpoint", workdir["flow"],
         "--out", str(workdir["root"] / "bad_solver.fasta"), *flag],
        env=_protflow_env(), capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 1, proc.stderr
    assert "Traceback" not in proc.stderr
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: "), proc.stderr


# each once trained on, or wrote NaN into a checkpoint, instead of exiting 1
_NON_FINITE_SETTINGS = ("train.weight_decay=nan", "train.lr_min=nan", "train.lr=inf",
                        "model.embed_scale=inf", "solver.atol=inf")
# chains values config.parse_chains_value or multichain.ChainLayout rejects
_BAD_CHAINS = tuple(f"chains={v}" for v in ("A:3,A:4", "A:0", f"A:{L_MAX_CAP + 1}", "A:x",
                                             ":5", "A", " , "))


@pytest.mark.parametrize(
    "argv, code",
    [
        (["inspect-checkpoint", "--checkpoint", "{missing}.ckpt"], 4),
        (["sample", "--checkpoint", "{missing}.ckpt", "--out", "{root}/x.fasta"], 4),
        (["inspect-checkpoint", "--checkpoint", "{root}"], 4),
        (["sample", "--checkpoint", "{root}", "--out", "{root}/x.fasta"], 4),
        (["eval", "--gen", "{missing}.fasta", "--ref", "{corpus}", "--out", "{root}/x"], 2),
        (["eval", "--gen", "{corpus}", "--ref", "{root}", "--out", "{root}/x"], 2),
        (["eval", "--gen", "{not_utf8}", "--ref", "{corpus}", "--out", "{root}/x"], 2),
        (["eval", "--gen", "{corpus}", "--ref", "{corpus}", "--out", "{root}/x", "--k", "0"], 1),
        (["eval", "--gen", "{corpus}", "--ref", "{corpus}", "--out", "{root}/x",
          "--external-scores", "{root}"], 2),
        (["eval", "--gen", "{corpus}", "--ref", "{corpus}", "--out", "{root}/x",
          "--external-scores", "{not_utf8}"], 2),
        # a non-finite threshold or score once counted as "not above", and a
        # nan threshold was hashed into the report's config_hash
        (["eval", "--gen", "{corpus}", "--ref", "{corpus}", "--out", "{root}/x",
          "--external-scores", "{scores}", "--threshold", "nan", "--threshold", "inf"], 1),
        (["eval", "--gen", "{corpus}", "--ref", "{corpus}", "--out", "{root}/x",
          "--threshold=-inf"], 1),
        (["eval", "--gen", "{corpus}", "--ref", "{corpus}", "--out", "{root}/x",
          "--threshold", "0.5"], 1),
        (["eval", "--gen", "{corpus}", "--ref", "{corpus}", "--out", "{root}/x",
          "--external-scores", "{nan_scores}", "--threshold", "0.5"], 2),
        (["eval", "--gen", "{corpus}", "--ref", "{corpus}", "--out", "{root}/x",
          "--external-scores", "{inf_scores}", "--threshold", "0.5"], 2),
        (["train-decoder", "--config", "{cfg}", "--out", "{root}/x.ckpt",
          "--set", "model.D=7", "--set", "model.ratio_c=1"], 1),
        (["train-decoder", "--config", "{cfg}", "--out", "{root}/x.ckpt",
          "--set", "model.embed_rank=9"], 1),
        *((["train-decoder", "--config", "{cfg}", "--out", "{root}/x.ckpt", "--set", kv], 1)
          for kv in _NON_FINITE_SETTINGS + _BAD_CHAINS),
    ],
    ids=["inspect missing", "sample missing", "inspect directory", "sample directory",
         "eval missing gen", "eval directory ref", "eval non-UTF-8 gen", "eval k 0",
         "eval directory scores", "eval non-UTF-8 scores", "eval threshold nan and inf",
         "eval threshold -inf", "eval threshold without scores", "eval nan score",
         "eval -inf score", "odd model.D", "embed_rank above model.D", *_NON_FINITE_SETTINGS,
         *_BAD_CHAINS],
)
def test_exit_code_for_missing_and_invalid_inputs(workdir, argv, code):
    root = workdir["root"]
    not_utf8 = root / "not_utf8.fasta"
    not_utf8.write_bytes(b">s0\nAC\xff\n")
    paths = {"missing": root / "nonexistent", "root": root, "corpus": workdir["corpus"],
             "not_utf8": not_utf8, "cfg": workdir["cfg"]}
    for name, score in (("scores", "0.5"), ("nan_scores", "nan"), ("inf_scores", "-inf")):
        paths[name] = root / f"{name}.csv"
        paths[name].write_text(f"id,score\ns0,0.5\ns1,{score}\n")
    proc = subprocess.run(
        [sys.executable, "-m", "protflow", *(arg.format(**paths) for arg in argv)],
        env=_protflow_env(), capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == code, proc.stderr
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: "), proc.stderr


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


def test_exit_2_non_finite_score_names_its_line(workdir, capsys):
    scores = workdir["root"] / "nan_on_line_3.csv"
    scores.write_text("id,score\ns0,0.5\ns1,nan\ns2,0.9\n")
    code = cli.main(
        ["eval", "--gen", workdir["corpus"], "--ref", workdir["corpus"],
         "--out", str(workdir["root"] / "rx"), "--external-scores", str(scores)]
    )
    assert code == 2
    assert f"{scores}:3: non-finite score 'nan'" in capsys.readouterr().err


def test_exit_2_missing_scores(workdir):
    out = str(workdir["root"] / "rx")
    code = cli.main(
        ["eval", "--gen", workdir["corpus"], "--ref", workdir["corpus"], "--out", out,
         "--external-scores", "/nonexistent/scores.csv", "--threshold", "0.5"]
    )
    assert code == 2


@pytest.mark.parametrize(
    "argv",
    [["train-flow", "--config", "{cfg}", "--init", "{pipe}", "--out", "{root}/x.ckpt",
      "--set", "train.lr=1e300", "--set", "train.warmup=0"],
     ["sample", "--checkpoint", "{flow}", "--out", "{root}/x.fasta",
      "--method", "dopri5-adaptive", "--atol", "1e-320", "--rtol", "1e-320"]],
    ids=["train-flow lr 1e300", "sample tolerances 1e-320"],
)
def test_exit_3_numerical_failure_prints_one_line(workdir, argv):
    # numpy's RuntimeWarnings on the way to the raise are not printed
    proc = subprocess.run(
        [sys.executable, "-m", "protflow", *(arg.format(**workdir) for arg in argv)],
        env=_protflow_env(), capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 3, proc.stderr
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: "), proc.stderr


def test_exit_3_divergence(workdir):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # overflow chatter on the way to the raise
        code = cli.main(
            ["train-flow", "--config", workdir["cfg"], "--init", workdir["pipe"],
             "--out", str(workdir["root"] / "x.ckpt"),
             "--set", "train.lr=1e200", "--set", "train.steps=5"]
        )
    assert code == 3


def _limit_address_space():
    resource.setrlimit(resource.RLIMIT_AS, (4 << 30, 4 << 30))


def test_allocation_failure_prints_one_line(workdir):
    # 10**12 rows per step: their row indices alone need 7.28 TiB, which the
    # 4 GiB address-space limit refuses on any host
    proc = subprocess.run(
        [sys.executable, "-m", "protflow", "train-flow", "--config", workdir["cfg"],
         "--init", workdir["pipe"], "--out", str(workdir["root"] / "x.ckpt"),
         "--set", "train.steps=1", "--set", "train.batch=1000000000000"],
        env=dict(_protflow_env(), OPENBLAS_NUM_THREADS="1"), preexec_fn=_limit_address_space,
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 1, proc.stderr
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: Unable to allocate"), proc.stderr


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
    env = _protflow_env()
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
    env = _protflow_env()
    flow_meta = {"tensors": [], "kind": "flow", "dim": 8, "clamp_k": 3.0, "l_max": 6,
                 "length_dist": {"lengths": [2], "counts": [1]}}
    flow_cfg = {"depth": 1, "width": 4, "hidden": 8}
    headers = {
        "list": ([], "'tensors' list"),
        "no_shape": ({"tensors": [{"name": "w", "dtype": "<f4", "offset": 0}]}, "'shape'"),
        # the loader reads flow_cfg through VectorFieldConfig, so a command
        # that never builds the field rejects what sample rejects
        "odd_time_dim": (dict(flow_meta, flow_cfg=dict(flow_cfg, time_dim=7)), "'flow_cfg'"),
        "attention_without_seq_len": (dict(flow_meta, flow_cfg=dict(flow_cfg, attention=True)),
                                      "'flow_cfg'"),
        # dim follows model.D's rule, cap included
        "dim_above_the_cap": (dict(flow_meta, dim=SIZE_CAP + 2), "'dim'"),
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
        lines = proc.stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: "), (label, proc.stderr)
        assert message in lines[0], (label, proc.stderr)


def test_exit_4_checkpoint_missing_metadata(workdir):
    # A flow checkpoint re-saved without l_max is a checkpoint error, not a KeyError.
    tensors, meta = load_checkpoint(workdir["flow"])
    del meta["l_max"]
    bad = workdir["root"] / "no_l_max.ckpt"
    save_checkpoint(str(bad), tensors, meta)
    env = _protflow_env()
    proc = subprocess.run(
        [sys.executable, "-m", "protflow", "sample", "--checkpoint", str(bad),
         "--out", str(workdir["root"] / "no_l_max.fasta")],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 4, proc.stderr
    assert "Traceback" not in proc.stderr
    assert "'l_max'" in proc.stderr


def _set_length_dist(lengths, counts):
    return lambda m: m.update(length_dist={"lengths": lengths, "counts": counts})


def _set_snapshot(key, value):
    return lambda m: m["config"].update({key: value})


# (label, multichain source, metadata change, extra sample flags)
_BAD_FLOW_METADATA = [
    ("config is a list", False, lambda m: m.update(config=[1, 2]), []),
    ("string solver.atol", False, _set_snapshot("solver.atol", "x"), []),
    ("list solver.steps", False, _set_snapshot("solver.steps", [3]), []),
    ("list solver.steps under --steps", False, _set_snapshot("solver.steps", [3]),
     ["--steps", "3"]),
    ("huge solver.atol", False, _set_snapshot("solver.atol", 10**400), []),
    # each snapshot setting has the type config.SCHEMA gives its key
    ("float solver.steps", False, _set_snapshot("solver.steps", 2.7), []),
    ("integral float solver.steps", False, _set_snapshot("solver.steps", 7.0), []),
    ("string solver.steps", False, _set_snapshot("solver.steps", "7"), []),
    ("string solver.steps under --steps", False, _set_snapshot("solver.steps", "7"),
     ["--steps", "3"]),
    ("bool solver.steps", False, _set_snapshot("solver.steps", True), []),
    ("bool solver.rtol", False, _set_snapshot("solver.rtol", False), []),
    ("string number solver.rtol", False, _set_snapshot("solver.rtol", "1e-6"), []),
    ("int solver.method", False, _set_snapshot("solver.method", 5), []),
    ("l_max 2**40", False, lambda m: m.update(l_max=2**40), []),
    ("l_max above the cap", False, lambda m: m.update(l_max=L_MAX_CAP + 1), []),
    ("string length", False, _set_length_dist(["a"], [1]), []),
    ("fractional length", False, _set_length_dist([2.7], [1]), []),
    ("nested length", False, _set_length_dist([[2]], [1]), []),
    ("zero length", False, _set_length_dist([0], [1]), []),
    ("bool count", False, _set_length_dist([2], [True]), []),
    ("length beyond int64", False, _set_length_dist([2**64], [1]), []),
    ("unequal lists", False, _set_length_dist([2, 3], [1]), []),
    ("duplicate lengths", False, _set_length_dist([2, 2], [1, 1]), []),
    ("empty lists", False, _set_length_dist([], []), []),
    ("chain l_max above the cap", True,
     lambda m: m["chains"][0].update(l_max=L_MAX_CAP + 1), []),
    ("chain length_dist of floats", True,
     lambda m: m["length_dists"].update(A={"lengths": [2.0], "counts": [1]}), []),
    # an int64 running total of the counts would wrap
    ("counts totalling 2**63", False, _set_length_dist([2, 5], [2**62, 2**62]), []),
]


@pytest.mark.parametrize(
    "multichain, change, flags",
    [case[1:] for case in _BAD_FLOW_METADATA],
    ids=[case[0] for case in _BAD_FLOW_METADATA],
)
def test_exit_4_bad_flow_metadata(workdir, mc_workdir, capsys, multichain, change, flags):
    # bad metadata that sample reads (the config snapshot's solver settings,
    # l_max, the length distributions) is a checkpoint error, whatever the flags
    tensors, meta = load_checkpoint(mc_workdir["flow"] if multichain else workdir["flow"])
    change(meta)
    bad = str(workdir["root"] / "bad_meta.ckpt")
    save_checkpoint(bad, tensors, meta)
    capsys.readouterr()
    out = str(workdir["root"] / "bad_meta.fasta")
    code = cli.main(["sample", "--checkpoint", bad, "--out", out, "--n", "2", *flags])
    err = capsys.readouterr().err
    assert code == 4, err
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: "), err


def test_snapshot_solver_settings_of_their_schema_type_sample(workdir):
    # an integer is a number, so an integer tolerance samples as its float
    tensors, meta = load_checkpoint(workdir["flow"])
    meta["config"].update({"solver.method": "euler", "solver.steps": 7, "solver.atol": 1})
    good = str(workdir["root"] / "int_snapshot.ckpt")
    save_checkpoint(good, tensors, meta)
    out = str(workdir["root"] / "int_snapshot.fasta")
    assert cli.main(["sample", "--checkpoint", good, "--out", out, "--n", "2"]) == 0
    with open(out + ".json") as f:
        sidecar = json.load(f)
    assert (sidecar["solver"], sidecar["steps"], sidecar["atol"]) == ("euler", 7, 1.0)
    assert sidecar["nfe"] == [7, 7]


@pytest.mark.parametrize("missing", ["absent", "null"])
def test_snapshot_without_solver_settings_samples_with_the_schema_defaults(workdir, missing):
    # a snapshot that lacks a solver.* key, or sets it to null, takes the
    # key's config.SCHEMA default; a flag still overrides it
    tensors, meta = load_checkpoint(workdir["flow"])
    keys = ["solver." + name for name in ode.SETTINGS]
    for key in keys:
        if missing == "absent":
            del meta["config"][key]
        else:
            meta["config"][key] = None
    path = str(workdir["root"] / f"snapshot_{missing}.ckpt")
    save_checkpoint(path, tensors, meta)
    default = ode.SolverConfig(*(SCHEMA[key][1] for key in keys))
    assert default.method == "dopri5-fixed"  # six field evaluations a step
    for flags, steps in (([], default.steps), (["--steps", "3"], 3)):
        out = str(workdir["root"] / f"snapshot_{missing}.fasta")
        assert cli.main(["sample", "--checkpoint", path, "--out", out, "--n", "2", *flags]) == 0
        with open(out + ".json") as f:
            sidecar = json.load(f)
        assert [sidecar[k] for k in ("solver", "steps", "atol", "rtol")] == [
            default.method, steps, default.atol, default.rtol]
        assert sidecar["nfe"] == [6 * steps] * 2


def test_exit_4_tensors_that_disagree_with_the_model(workdir, mc_workdir):
    # Each tensor must have the name and shape the checkpoint's metadata
    # implies; sampling reports the first that does not as one error line.
    cases = {
        "flow_w1_truncated": (workdir["flow"], "flow.block0.w1", lambda a: a[:, :-1]),
        "chain_decoder_w1_cut": (mc_workdir["flow"], "chain.A.decoder.w1", lambda a: a[:5]),
        "flow_b2_deleted": (workdir["flow"], "flow.block0.b2", None),
    }
    for label, (source, key, change) in cases.items():
        tensors, meta = load_checkpoint(source)
        if change is None:
            del tensors[key]
        else:
            tensors[key] = change(tensors[key])
        bad = workdir["root"] / f"{label}.ckpt"
        save_checkpoint(str(bad), tensors, meta)
        proc = subprocess.run(
            [sys.executable, "-m", "protflow", "sample", "--checkpoint", str(bad),
             "--out", str(workdir["root"] / f"{label}.fasta")],
            env=_protflow_env(), capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 4, (label, proc.stderr)
        lines = proc.stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: "), (label, proc.stderr)
        assert repr(key) in lines[0], (label, lines[0])


# Each tensor of a decoder checkpoint (the workdir's dim 8, decoder_hidden 16),
# and two ways to give it a wrong shape: one entry more along its last axis,
# or a leading axis of one, which keeps its size and broadcasts.
_DECODER_TENSORS = [k for k in pipeline_shapes(8, 16, 1) if not k.startswith("compressor.")]
_WRONG_SHAPES = {
    "longer": lambda a: np.concatenate([a, np.zeros(a.shape[:-1] + (1,), a.dtype)], axis=-1),
    "leading-axis": lambda a: a[np.newaxis],
}


@pytest.mark.parametrize("mutation", sorted(_WRONG_SHAPES))
@pytest.mark.parametrize("name", _DECODER_TENSORS)
def test_train_compressor_exits_4_on_a_wrong_shaped_tensor(workdir, capsys, name, mutation):
    tensors, meta = load_checkpoint(workdir["dec"])
    tensors[name] = _WRONG_SHAPES[mutation](tensors[name])
    bad = str(workdir["root"] / "wrong_shape.ckpt")
    save_checkpoint(bad, tensors, meta)
    capsys.readouterr()
    out = str(workdir["root"] / "wrong_shape_pipe.ckpt")
    code = cli.main(["train-compressor", "--config", workdir["cfg"], "--init", bad, "--out", out])
    err = capsys.readouterr().err
    assert code == 4, err
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: "), err


def test_val_path_is_held_out_data(workdir, monkeypatch, capsys):
    from protflow import latent

    held_out = workdir["root"] / "val.fasta"
    _write_fasta(held_out, [("v0", "WYW"), ("v1", "HHIKL"), ("v2", "MMN")])
    seen = {}

    def spy(name, fn):
        def wrapper(*args, **kwargs):
            # sequences scored, or latent rows: the keys into the table
            seen[name] = len(args[2]) if name == "decoder" else args[1].size
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(latent, "decoder_accuracy", spy("decoder", latent.decoder_accuracy))
    monkeypatch.setattr(latent, "compressor_mse", spy("compressor", latent.compressor_mse))
    root = workdir["root"]
    runs = {}
    for figure, sets in (("train", []), ("val", ["--set", f"data.val_path={held_out}"])):
        dec, pipe = str(root / f"dec_{figure}.ckpt"), str(root / f"pipe_{figure}.ckpt")
        assert cli.main(["train-decoder", "--config", workdir["cfg"], "--out", dec, *sets]) == 0
        assert cli.main(["train-compressor", "--config", workdir["cfg"], "--init", dec,
                         "--out", pipe, *sets]) == 0
        out = capsys.readouterr().out
        assert f"decoder {figure} accuracy: " in out
        assert f"compressor {figure} MSE: " in out
        runs[figure] = (dict(seen), dec, pipe)
    # the figures come from the 12 training sequences (12 * L_max 6 rows), or
    # from the 3 held-out ones
    assert runs["train"][0] == {"decoder": 12, "compressor": 72}
    assert runs["val"][0] == {"decoder": 3, "compressor": 18}
    for train_path, val_path in zip(runs["train"][1:], runs["val"][1:]):
        (t_tensors, t_meta), (v_tensors, v_meta) = load_checkpoint(train_path), load_checkpoint(val_path)
        assert t_tensors.keys() == v_tensors.keys()
        assert all(np.array_equal(t_tensors[k], v_tensors[k]) for k in t_tensors)
        assert v_meta["config"].pop("data.val_path") == str(held_out)
        t_meta["config"].pop("data.val_path")
        assert t_meta == v_meta
        with open(train_path + ".loss.csv", "rb") as a, open(val_path + ".loss.csv", "rb") as b:
            assert a.read() == b.read()


def test_keep_freed_heap(monkeypatch):
    if platform.libc_ver()[0] == "glibc":
        assert cli.keep_freed_heap() == (1, 1)  # mallopt accepted both thresholds
    monkeypatch.setattr(platform, "libc_ver", lambda *a, **k: ("musl", "1.2"))
    assert cli.keep_freed_heap() is None


# --- corrupt inputs ---------------------------------------------------------------

# Each input slot of each command, with {bad} where the corrupt input goes. The
# other inputs are valid, so the exit code is the corrupt input's.
_INPUT_SLOTS = {
    "train-decoder --config": ["train-decoder", "--config", "{bad}", "--out", "{out}"],
    "train-decoder data": ["train-decoder", "--config", "{cfg}", "--out", "{out}",
                           "--set", "data.train_path={bad}"],
    "train-decoder --out": ["train-decoder", "--config", "{cfg}", "--out", "{bad}"],
    "train-compressor --config": ["train-compressor", "--config", "{bad}", "--init", "{dec}",
                                  "--out", "{out}"],
    "train-compressor --init": ["train-compressor", "--config", "{cfg}", "--init", "{bad}",
                                "--out", "{out}"],
    "train-compressor data": ["train-compressor", "--config", "{cfg}", "--init", "{dec}",
                              "--out", "{out}", "--set", "data.train_path={bad}"],
    "train-compressor --out": ["train-compressor", "--config", "{cfg}", "--init", "{dec}",
                               "--out", "{bad}"],
    "train-flow --config": ["train-flow", "--config", "{bad}", "--init", "{pipe}",
                            "--out", "{out}"],
    "train-flow --init": ["train-flow", "--config", "{cfg}", "--init", "{bad}", "--out", "{out}"],
    "train-flow data": ["train-flow", "--config", "{cfg}", "--init", "{pipe}", "--out", "{out}",
                        "--set", "data.train_path={bad}"],
    "train-flow --out": ["train-flow", "--config", "{cfg}", "--init", "{pipe}", "--out", "{bad}"],
    "reflow --config": ["reflow", "--config", "{bad}", "--init", "{flow}", "--out", "{out}"],
    "reflow --init": ["reflow", "--config", "{cfg}", "--init", "{bad}", "--out", "{out}",
                      "--set", "reflow.pairs=4"],
    "reflow --out": ["reflow", "--config", "{cfg}", "--init", "{flow}", "--out", "{bad}",
                     "--set", "reflow.pairs=4", "--set", "train.steps=2"],
    "sample --checkpoint": ["sample", "--checkpoint", "{bad}", "--out", "{out}"],
    "sample --out": ["sample", "--checkpoint", "{flow}", "--out", "{bad}", "--n", "2"],
    "eval --gen": ["eval", "--gen", "{bad}", "--ref", "{corpus}", "--out", "{out}"],
    "eval --ref": ["eval", "--gen", "{corpus}", "--ref", "{bad}", "--out", "{out}"],
    "eval --external-scores": ["eval", "--gen", "{corpus}", "--ref", "{corpus}", "--out", "{out}",
                               "--external-scores", "{bad}", "--threshold", "0.5"],
    "inspect-checkpoint --checkpoint": ["inspect-checkpoint", "--checkpoint", "{bad}"],
}
_CORRUPTIONS = ("truncated checkpoint", "flipped header bytes", "binary FASTA", "empty file",
                "directory")
# An output path breaks only as a directory (a file there is overwritten), and an
# empty config file is the all-defaults config.
_CORRUPT_CASES = [
    (slot, kind)
    for slot in _INPUT_SLOTS
    for kind in _CORRUPTIONS
    if ("--out" not in slot or kind == "directory")
    and not ("--config" in slot and kind == "empty file")
]


def _corrupt_input(workdir, kind):
    """Write the corrupt input of this kind under workdir and return its path."""
    root = workdir["root"]
    if kind == "directory":
        return str(root)
    with open(workdir["flow"], "rb") as f:
        data = f.read()
    gen = np.random.default_rng(13)
    if kind == "truncated checkpoint":
        data = data[: len(data) // 2]
    elif kind == "flipped header bytes":
        header_end = 16 + struct.unpack("<Q", data[8:16])[0]
        flipped = bytearray(data)
        for i in gen.choice(header_end, size=8, replace=False):
            flipped[i] ^= int(gen.integers(1, 256))
        data = bytes(flipped)
    elif kind == "binary FASTA":
        data = b">s0\n" + gen.integers(0, 256, size=256, dtype=np.uint8).tobytes()
    else:
        data = b""
    path = root / f"corrupt-{kind.replace(' ', '-')}"
    path.write_bytes(data)
    return str(path)


@pytest.mark.parametrize(
    "slot, kind", _CORRUPT_CASES, ids=[f"{slot}-{kind}" for slot, kind in _CORRUPT_CASES]
)
def test_corrupt_input_exits_with_a_contract_code(workdir, slot, kind):
    paths = {**workdir, "bad": _corrupt_input(workdir, kind),
             "out": str(workdir["root"] / "corrupt-out")}
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        code = cli.main([arg.format(**paths) for arg in _INPUT_SLOTS[slot]])
    assert code in (1, 2, 3, 4)


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_mutated_flow_checkpoint_loads_or_exits_with_a_contract_code(workdir, data):
    with open(workdir["flow"], "rb") as f:
        blob = bytearray(f.read())
    header_end = 16 + struct.unpack("<Q", blob[8:16])[0]
    for _ in range(data.draw(st.integers(1, 4))):
        # half the writes go to the magic, lengths and JSON header, the rest anywhere
        end = header_end if data.draw(st.booleans()) else len(blob)
        i = data.draw(st.integers(0, end - 1))
        blob[i] = data.draw(st.integers(0, 255))
    if data.draw(st.integers(0, 3)) == 0:
        del blob[data.draw(st.integers(0, len(blob))):]
    bad = workdir["root"] / "mutated.ckpt"
    bad.write_bytes(bytes(blob))
    out = str(workdir["root"] / "mutated.fasta")
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        assert cli.main(["inspect-checkpoint", "--checkpoint", str(bad)]) in (0, 4)
        code = cli.main(["sample", "--checkpoint", str(bad), "--out", out, "--n", "2"])
    assert code in (0, 3, 4)


# --- import footprint -------------------------------------------------------------

_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# Imports the CLI, runs the command given as arguments (none: import only) and
# prints its exit code and the name of every module whose code has run as the
# last line. protflow binds its modules lazily; one whose type is still
# _LazyModule is in sys.modules but has not run.
_MODULES_AFTER = """\
import json, sys
from importlib.util import _LazyModule
from protflow import cli
code = None
if sys.argv[1:]:
    try:
        code = cli.main(sys.argv[1:])
    except SystemExit as e:
        code = e.code
ran = sorted(k for k, m in sys.modules.items() if type(m) is not _LazyModule)
print(json.dumps([code, ran]))
"""

# Like perfbench/tracer.py: imports the CLI, lists the protflow modules then in
# sys.modules, replaces two functions in each of them by counting wrappers and
# runs the command given as arguments.
_PATCH_AFTER_IMPORT = """\
import json, sys
import protflow.cli
from protflow import cli, kernels, seqio
loaded = [m for k, m in list(sys.modules.items()) if k.startswith("protflow.")]
names = sorted(m.__name__ for m in loaded)
calls = {}
def counting(name, fn):
    def wrapper(*args, **kwargs):
        calls[name] = calls.get(name, 0) + 1
        return fn(*args, **kwargs)
    return wrapper
for owner, attr in ((kernels, "cross_edit_matrix"), (seqio, "read_fasta")):
    original = getattr(owner, attr)
    wrapper = counting(attr, original)
    for module in loaded:
        for key, value in list(vars(module).items()):
            if value is original:
                setattr(module, key, wrapper)
code = cli.main(sys.argv[1:])
print(json.dumps([code, names, calls]))
"""


def _run_script(script, argv, cwd):
    """The JSON last line a script prints, run with argv in a fresh interpreter."""
    env = _protflow_env()
    proc = subprocess.run(
        [sys.executable, "-c", script, *argv],
        cwd=cwd, env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def _modules_after(argv, cwd):
    """(exit code, modules that ran) after one CLI command in a fresh interpreter."""
    code, modules = _run_script(_MODULES_AFTER, argv, cwd)
    return code, set(modules)


def test_cli_start_loads_no_numpy(tmp_path):
    # importing the CLI, --help and an argument error stop before any command runs
    for argv, expected in (([], None), (["eval", "--help"], 0), (["eval"], 2)):
        code, modules = _modules_after(argv, tmp_path)
        assert code == expected, argv
        assert "numpy" not in modules, argv
        assert {m for m in modules if m.startswith("protflow.")} <= {
            "protflow.cli", "protflow.errors"
        }, argv


def test_eval_loads_only_what_it_runs(tmp_path):
    _write_fasta(tmp_path / "a.fasta", [("a0", "ACDE"), ("a1", "KLMNPQ"), ("a2", "RSTV")])
    _write_fasta(tmp_path / "b.fasta", [("b0", "ACD"), ("b1", "WY"), ("b2", "KLMN")])
    code, modules = _modules_after(
        ["eval", "--gen", "a.fasta", "--ref", "b.fasta", "--out", "report"], tmp_path
    )
    assert code == 0
    assert {"numpy", "protflow.metrics", "protflow.kernels"} <= modules
    unused = {"jsonschema", "protflow.flow", "protflow.ode", "protflow.checkpoint",
              "protflow.multichain", "numpy.ma"}
    assert not unused & modules
    assert (tmp_path / "report.json").exists()


def test_functions_patched_after_import_reach_the_commands(tmp_path):
    _write_fasta(tmp_path / "a.fasta", [("a0", "ACDE"), ("a1", "KLMNPQ"), ("a2", "RSTV")])
    _write_fasta(tmp_path / "b.fasta", [("b0", "ACD"), ("b1", "WY"), ("b2", "KLMN")])
    code, names, calls = _run_script(
        _PATCH_AFTER_IMPORT,
        ["eval", "--gen", "a.fasta", "--ref", "b.fasta", "--out", "report"],
        tmp_path,
    )
    assert code == 0
    # every module of the package is bound once the CLI is imported
    package = os.path.dirname(os.path.abspath(protflow.__file__))
    assert names == sorted(
        f"protflow.{name[:-3]}"
        for name in os.listdir(package)
        if name.endswith(".py") and name not in ("__init__.py", "__main__.py")
    )
    # e_dist and ot_levenshtein each build the matrix; eval reads both files
    assert calls == {"cross_edit_matrix": 2, "read_fasta": 2}


# Imports one protflow module, named as the second argument, under a plain
# package at the directory named as the first: the package's own __init__,
# whose lazy bindings let a module run while another is half initialized,
# does not run.
_IMPORT_UNDER_PLAIN_PACKAGE = """\
import importlib, sys, types
package = types.ModuleType("protflow")
package.__path__ = [sys.argv[1]]
sys.modules["protflow"] = package
importlib.import_module("protflow." + sys.argv[2])
"""


def test_every_module_imports_under_a_plain_package(tmp_path):
    # an import cycle among the modules fails here as an ImportError from a
    # partially initialized module
    package = os.path.dirname(os.path.abspath(protflow.__file__))
    names = sorted(n[:-3] for n in os.listdir(package) if n.endswith(".py") and n != "__init__.py")
    assert "config" in names and "flow" in names
    for name in names:
        proc = subprocess.run(
            [sys.executable, "-c", _IMPORT_UNDER_PLAIN_PACKAGE, package, name],
            cwd=tmp_path, env=_protflow_env(), capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 0, (name, proc.stderr)


def _imports_in_functions(path):
    """Line numbers of the statements inside a function body of a source file
    that import a protflow module: relative, or absolute from protflow."""
    with open(path, "r", encoding="utf-8") as f:
        tree = ast.parse(f.read(), filename=path)
    lines = set()
    for fn in ast.walk(tree):
        if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        for node in ast.walk(fn):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                # a relative import names a module of this package
                modules = ["protflow" if node.level else node.module]
            else:
                continue
            if any(m.split(".")[0] == "protflow" for m in modules):
                lines.add(node.lineno)
    return sorted(lines)


def test_no_function_imports_a_protflow_module():
    # the package's lazy bindings are the one lazy-import mechanism: a module
    # binds the protflow modules it calls at its top, and a function imports
    # only numpy or the standard library
    package = os.path.dirname(os.path.abspath(protflow.__file__))
    found = {
        name: _imports_in_functions(os.path.join(package, name))
        for name in sorted(os.listdir(package))
        if name.endswith(".py")
    }
    assert not any(found.values()), found


def test_sample_and_train_flow_load_no_metrics(workdir):
    root = workdir["root"]
    commands = (
        ["sample", "--checkpoint", workdir["flow"], "--out", str(root / "fp.fasta"), "--n", "2"],
        ["train-flow", "--config", workdir["cfg"], "--init", workdir["pipe"],
         "--out", str(root / "fp.ckpt"), "--set", "train.steps=2"],
    )
    for argv in commands:
        code, modules = _modules_after(argv, root)
        assert code == 0, argv
        assert "protflow.flow" in modules, argv
        assert not {"jsonschema", "protflow.metrics", "protflow.kernels"} & modules, argv


# --- published report schema -------------------------------------------------------


def _load_json(path):
    with open(path, "r", encoding="utf-8") as f:
        return json.load(f)


def _report_mutations(report):
    """(label, mutated copy) pairs; each copy changes one thing in the report."""

    def mutate(label, fn):
        copy = json.loads(json.dumps(report))
        fn(copy)
        return label, copy

    row = report["metrics"][0]
    return [
        mutate("missing k", lambda r: r.pop("k")),
        mutate("extra key", lambda r: r.update(extra=1)),
        mutate("bool n_gen", lambda r: r.update(n_gen=True)),
        mutate("k=0", lambda r: r.update(k=0)),
        mutate("negative n_gen", lambda r: r.update(n_gen=-1)),
        mutate("null n_ref", lambda r: r.update(n_ref=None)),
        mutate("fractional seed", lambda r: r.update(seed=1.5)),
        mutate("integral float seed", lambda r: r.update(seed=3.0)),
        mutate("schema_version 2", lambda r: r.update(schema_version=2)),
        mutate("bool schema_version", lambda r: r.update(schema_version=True)),
        mutate("short config_hash", lambda r: r.update(config_hash=r["config_hash"][:-1])),
        mutate("upper-case config_hash", lambda r: r.update(config_hash=r["config_hash"].upper())),
        mutate("config_hash + newline", lambda r: r.update(config_hash=r["config_hash"] + "\n")),
        mutate("metrics not a list", lambda r: r.update(metrics={})),
        mutate("empty metric name", lambda r: r["metrics"][0].update(metric="")),
        mutate("string value", lambda r: r["metrics"][0].update(value=repr(row["value"]))),
        mutate("bool value", lambda r: r["metrics"][0].update(value=True)),
        mutate("nan value", lambda r: r["metrics"][0].update(value=float("nan"))),
        mutate("int skipped", lambda r: r["metrics"][0].update(skipped=5)),
        mutate("row missing skipped", lambda r: r["metrics"][0].pop("skipped")),
        mutate("row extra key", lambda r: r["metrics"][0].update(note="x")),
    ]


def test_reports_validate_against_the_published_schema(tmp_path):
    jsonschema = pytest.importorskip("jsonschema")
    schema = _load_json(os.path.join(os.path.dirname(protflow.__file__), "data",
                                     "report_schema.json"))
    validator = jsonschema.Draft7Validator(schema)
    reports = sorted(
        os.path.join(_ROOT, "runs", run, name)
        for run in os.listdir(os.path.join(_ROOT, "runs"))
        for name in os.listdir(os.path.join(_ROOT, "runs", run))
        if name.startswith("report") and name.endswith(".json")
    )
    assert len(reports) == 3
    # draft 7 accepts these: an integral float is an integer, "$" matches
    # before a final newline, and NaN is a number
    accepted = {"committed", "integral float seed", "config_hash + newline", "nan value"}
    for path in reports:
        report = _load_json(path)
        for label, value in [("committed", report)] + _report_mutations(report):
            assert validator.is_valid(value) == (label in accepted), (path, label)
    # a fresh report whose panel skips the paired metrics
    _write_fasta(tmp_path / "a.fasta", [("a0", "ACDE"), ("a1", "KLMNPQ")])
    _write_fasta(tmp_path / "b.fasta", [("b0", "ACD"), ("b1", "WY"), ("b2", "KLMN")])
    out = str(tmp_path / "report")
    assert cli.main(["eval", "--gen", str(tmp_path / "a.fasta"),
                     "--ref", str(tmp_path / "b.fasta"), "--out", out]) == 0
    report = _load_json(out + ".json")
    assert any("UnequalSizes" in (row["skipped"] or "") for row in report["metrics"])
    validator.validate(report)


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


@pytest.mark.parametrize("names", [("A", "A"), ("", "B"), ("B", "")],
                         ids=["repeated", "unnamed-first", "unnamed-last"])
def test_exit_4_checkpoint_chains_a_layout_rejects(mc_workdir, capsys, names):
    # a chains list the layout rejects is a checkpoint error at load in every
    # command, not a corpus error or a silently skipped chain
    root = mc_workdir["root"]
    bad = {}
    for source in ("dec", "flow"):
        tensors, meta = load_checkpoint(mc_workdir[source])
        meta["chains"] = [{"name": names[0], "l_max": 3}, {"name": names[1], "l_max": 4}]
        bad[source] = str(root / f"bad_chains_{source}.ckpt")
        save_checkpoint(bad[source], tensors, meta)
    for argv in (
        ["inspect-checkpoint", "--checkpoint", bad["dec"]],
        ["train-compressor", "--config", mc_workdir["cfg"], "--init", bad["dec"],
         "--out", str(root / "bad_chains_pipe.ckpt")],
        ["sample", "--checkpoint", bad["flow"], "--out", str(root / "bad_chains.fasta"),
         "--n", "2"],
    ):
        capsys.readouterr()
        code = cli.main(argv)
        err = capsys.readouterr().err
        assert code == 4, (argv[0], err)
        lines = err.splitlines()
        assert len(lines) == 1 and "'chains'" in lines[0], (argv[0], err)


def test_chain_named_compressor_trains_and_samples(tmp_path):
    # the stack tensors of chain "compressor" hold "compressor." in their
    # names; train-compressor must still carry them to the flow stage
    records = [
        rec
        for i, s in enumerate(_CORPUS)
        for rec in ((f"c{i}|chain=compressor", s), (f"c{i}|chain=B", s[-4:]))
    ]
    _write_fasta(tmp_path / "corpus.fasta", records)
    cfg = tmp_path / "run.cfg"
    cfg.write_text(_BASE_CFG + f"data.train_path = {tmp_path / 'corpus.fasta'}\n"
                   "chains = compressor:8,B:6\n")
    dec, pipe, flow = (str(tmp_path / name) for name in ("dec.ckpt", "pipe.ckpt", "flow.ckpt"))
    for argv in (
        ["train-decoder", "--config", str(cfg), "--out", dec],
        ["train-compressor", "--config", str(cfg), "--init", dec, "--out", pipe],
        ["train-flow", "--config", str(cfg), "--init", pipe, "--out", flow],
        ["sample", "--checkpoint", flow, "--out", str(tmp_path / "gen.fasta"), "--n", "3"],
    ):
        assert cli.main(argv) == 0, argv
    tensors, _ = load_checkpoint(pipe)
    for part in ("encoder.embed", "decoder.b1", "smoothing.mean", "compressor.b_down"):
        assert f"chain.compressor.{part}" in tensors
        assert f"chain.B.{part}" in tensors
    assert [h for h, _ in read_fasta(str(tmp_path / "gen.fasta"))] == [
        f"gen_{i}|chain={name}" for i in range(3) for name in ("compressor", "B")
    ]


# --- golden bytes ---------------------------------------------------------------


@pytest.mark.parametrize(
    "flags, digest, mean_nfe",
    [
        ([], "9a59e0ca9f8e6eb465103c39a3382e852be125be0bdad1f4c84dc1b798dde567", 60.0),
        (["--method", "dopri5-adaptive"],
         "1b3192194f37472e63a014dcf60072b5414a2d93d1effa75e74cf54a66304310", 3385.0),
    ],
    ids=["snapshot-dopri5", "adaptive"],
)
def test_flow_cfg_without_time_scale_samples_as_before(workdir, flags, digest, mean_nfe):
    # A flow_cfg written before time_scale existed means the legacy scale of
    # 1000: the digests and NFE were recorded by sampling this checkpoint with
    # the code that predates the key.
    tensors, meta = load_checkpoint(workdir["pipe"])
    model = init_flow_model(VectorFieldConfig(2, 4, 16, False, None), RngStream(61))
    for key, val in model.params.items():
        model.params[key] = val + 0.3 * RngStream(62).substream(key).normal(val.shape)
    flow_tensors, flow_meta = pack_flow(model)
    del flow_meta["flow_cfg"]["time_scale"]
    path = str(workdir["root"] / "legacy.ckpt")
    save_checkpoint(path, {**tensors, **flow_tensors}, dict(meta, kind="flow", **flow_meta))
    out = str(workdir["root"] / "legacy.fasta")
    argv = ["sample", "--checkpoint", path, "--out", out, "--n", "4", "--seed", "2", *flags]
    assert cli.main(argv) == 0
    assert file_sha256(out) == digest
    with open(out + ".json") as f:
        assert json.load(f)["mean_nfe"] == mean_nfe


# SHA-256 of every file the pipeline writes, recorded on x86-64 with numpy 2.4
# and OpenBLAS, with OPENBLAS_NUM_THREADS=1 and unset alike. The two-chain
# corpus pairs each record of _CORPUS (chain A) with its last four residues
# (chain B).
_GOLDEN = {
    None: {
        "dec.ckpt": "6e4c3e44867b4966db278cd67450000bd72285cd5a71b641ca37bb7c76fc1d34",
        "dec.ckpt.loss.csv": "e4a572cc3bfd320fa7a1761e93c6897b84c276356de01623494ad7ecf95b9680",
        "flow.ckpt": "1365fcf560b49df29117c1cdead942e351bafe6ff5a2fd28ff7a2dcebb581dbe",
        "flow.ckpt.loss.csv": "71bc605d21cf8a1253aaedf7ace5f50654782a9015605f7fb08a14d409e3bbd4",
        "gen.fasta": "cc9d1f58cbb70b852b2880ba805d816ddec1951367982a856639f15038de23f5",
        "gen.fasta.json": "4455d7bced896a4e5d7bf4318d81dc0072a38ee78a64d97c78e4e0b98883da0c",
        "pipe.ckpt": "b3344d1a2b4e183691da2d30ae9b1e3c35b8be78116c85fc938b9e3c29f7fa0d",
        "pipe.ckpt.loss.csv": "ca9a9c03bc77eec706da63bcc41e45066d581157cb01f6f9402857f13bc83a7d",
    },
    "A:6,B:4": {
        "dec.ckpt": "1601b661dc7c04121c2fd34cd5a9c44189cae8e76ca002e20fafc01a65e04dc7",
        "dec.ckpt.A.loss.csv": "fba529ac338e0664611978f41ef1786c452f65f6faddf8f0cbfbfaa22e7fde01",
        "dec.ckpt.B.loss.csv": "f4665507cd5294d97c96b75638d09ed9ef5c78d2b27ea084c567929deabd66cb",
        "flow.ckpt": "d47b602df3729bf7ce7526c85984472ea2778d1c726407bd78769c5424dc843c",
        "flow.ckpt.loss.csv": "19bb0bfdd4f0df56fcf0cd7a483403c20b2d4e2da0204b6fab1f7c02524be93d",
        "gen.fasta": "b762ed328b6187470eee71ea7c031b97d4c1e0e2ef7c188fb359876d4ecb7c05",
        "gen.fasta.json": "4455d7bced896a4e5d7bf4318d81dc0072a38ee78a64d97c78e4e0b98883da0c",
        "pipe.ckpt": "c29aeebed752f4fae37d76e82bda9d1318b0620f292e5929c3012e9c3cd93794",
        "pipe.ckpt.A.loss.csv": "383b6fdf4b73e89fb28783c74617d05b079de9d1aab7d53ae0f988ad9310361c",
        "pipe.ckpt.B.loss.csv": "ae295ba41feb12367d91f2e273c8802077fe778331de55ad662221e075e6488b",
    },
}


@pytest.mark.parametrize("chains", list(_GOLDEN), ids=lambda c: c or "single")
def test_pipeline_outputs_match_golden_bytes(chains, tmp_path, monkeypatch):
    # Relative paths keep the config snapshot in each checkpoint the same
    # wherever the test runs.
    monkeypatch.chdir(tmp_path)
    if chains is None:
        records = [(f"seq{i}", s) for i, s in enumerate(_CORPUS)]
    else:
        records = [
            rec
            for i, s in enumerate(_CORPUS)
            for rec in ((f"c{i}|chain=A", s), (f"c{i}|chain=B", s[-4:]))
        ]
    _write_fasta(tmp_path / "corpus.fasta", records)
    chains_line = "" if chains is None else f"chains = {chains}\n"
    (tmp_path / "run.cfg").write_text(_BASE_CFG + "data.train_path = corpus.fasta\n" + chains_line)
    for argv in (
        ["train-decoder", "--config", "run.cfg", "--out", "dec.ckpt"],
        ["train-compressor", "--config", "run.cfg", "--init", "dec.ckpt", "--out", "pipe.ckpt"],
        ["train-flow", "--config", "run.cfg", "--init", "pipe.ckpt", "--out", "flow.ckpt"],
        ["sample", "--checkpoint", "flow.ckpt", "--out", "gen.fasta", "--n", "6", "--seed", "3"],
    ):
        assert cli.main(argv) == 0, argv
    outputs = sorted(set(os.listdir(tmp_path)) - {"corpus.fasta", "run.cfg"})
    assert {name: file_sha256(str(tmp_path / name)) for name in outputs} == _GOLDEN[chains]
