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
    src = os.path.dirname(os.path.dirname(os.path.abspath(protflow.__file__)))
    paths = [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(paths))
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
              "protflow.multichain"}
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


# --- report schema check -----------------------------------------------------------


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


def test_report_check_agrees_with_jsonschema():
    jsonschema = pytest.importorskip("jsonschema")
    schema = _load_json(cli._report_schema_path())
    reports = sorted(
        os.path.join(_ROOT, "runs", run, name)
        for run in os.listdir(os.path.join(_ROOT, "runs"))
        for name in os.listdir(os.path.join(_ROOT, "runs", run))
        if name.startswith("report") and name.endswith(".json")
    )
    assert len(reports) == 3
    # jsonschema accepts these, as draft 7 reads them; the check must too
    accepted = {"committed", "integral float seed", "config_hash + newline", "nan value"}
    for path in reports:
        report = _load_json(path)
        for label, value in [("committed", report)] + _report_mutations(report):
            try:
                jsonschema.validate(value, schema)
            except jsonschema.ValidationError:
                assert label not in accepted, (path, label)
                with pytest.raises(ValueError):
                    cli.check_schema(value, schema)
            else:
                assert label in accepted, (path, label)
                cli.check_schema(value, schema)


@pytest.mark.parametrize(
    "schema, value",
    [
        ({"pattern": "b"}, "abc"),  # re.search, not a whole-string match
        ({"pattern": "^b"}, "abc"),
        ({"minimum": 0}, "-1"),  # number keywords ignore other types
        ({"minimum": 0}, -0.5),
        ({"minLength": 2}, "\u00e9"),  # code points, not bytes
        ({"minLength": 2}, 12),
        ({"type": "integer"}, 2.0),
        ({"type": "integer"}, True),
        ({"type": "number"}, False),
        ({"type": ["string", "null"]}, None),
        ({"type": ["string", "null"]}, 0),
        ({"const": 1}, 1.0),
        ({"const": 1}, True),
        ({"const": False}, 0),
        ({"const": "a"}, "a"),
        ({"required": ["a"]}, []),  # object keywords ignore other types
        ({"required": ["a"]}, {"b": 1}),
        ({"properties": {"a": {"type": "string"}}}, {"a": 1}),
        ({"additionalProperties": False, "properties": {"a": {}}}, {"a": 1}),
        ({"items": {"type": "null"}}, [None, 0]),
        ({"items": {"type": "null"}}, {"a": 0}),
    ],
)
def test_schema_keywords_agree_with_jsonschema(schema, value):
    jsonschema = pytest.importorskip("jsonschema")
    try:
        jsonschema.Draft7Validator(schema).validate(value)
    except jsonschema.ValidationError:
        with pytest.raises(ValueError):
            cli.check_schema(value, schema)
    else:
        cli.check_schema(value, schema)


def test_report_check_refuses_unknown_keywords():
    schema = _load_json(cli._report_schema_path())
    report = _load_json(os.path.join(_ROOT, "runs", "multichain", "report.json"))
    for keys in ((), ("properties", "k"), ("properties", "metrics", "items")):
        bad = json.loads(json.dumps(schema))
        target = bad
        for key in keys:
            target = target[key]
        target["maximum"] = 10**9  # the report still passes it, but it is not implemented
        with pytest.raises(NotImplementedError, match="maximum"):
            cli.check_schema(report, bad)
    # only what the schema uses: additionalProperties false and its type names
    for schema, value in (
        ({"additionalProperties": True}, {}),
        ({"additionalProperties": {"type": "string"}}, {"a": "b"}),
        ({"type": "boolean"}, True),
        ({"type": ["null", "boolean"]}, None),
    ):
        with pytest.raises(NotImplementedError):
            cli.check_schema(value, schema)


def test_eval_checks_the_report_before_writing(tmp_path, monkeypatch):
    schema = _load_json(cli._report_schema_path())
    schema["properties"]["k"]["minimum"] = 7
    strict = tmp_path / "strict_schema.json"
    strict.write_text(json.dumps(schema))
    monkeypatch.setattr(cli, "_report_schema_path", lambda: str(strict))
    _write_fasta(tmp_path / "a.fasta", [("a0", "ACDE"), ("a1", "KLMNPQ")])
    out = tmp_path / "report"
    with pytest.raises(ValueError, match=r"\$\.k: 6 is less than 7"):
        cli.main(["eval", "--gen", str(tmp_path / "a.fasta"), "--ref", str(tmp_path / "a.fasta"),
                  "--out", str(out)])
    assert sorted(os.listdir(tmp_path)) == ["a.fasta", "strict_schema.json"]


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
