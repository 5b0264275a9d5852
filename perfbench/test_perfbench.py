"""Self-tests of the benchmark's own arithmetic and of BENCHMARK.json.

Run from the repository root:

    python3 -m pytest -q perfbench/test_perfbench.py
"""

import json
import os
import subprocess
import sys

import layers
import run
from tracer import SpanRecorder, self_times, summarize
from workloads import WORKLOADS

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _recorded(ticks, body):
    rec = SpanRecorder(clock=iter(ticks).__next__)
    body(rec)
    return rec.to_list()


def test_self_time_of_nested_and_sibling_spans():
    def body(rec):
        root = rec.open("root")
        a = rec.open("a")
        rec.close(rec.open("a1"))
        rec.close(a)
        rec.close(rec.open("b"))
        rec.close(root)

    spans = _recorded([0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 9.0, 10.0], body)
    assert [s["name"] for s in spans] == ["root", "a", "a1", "b"]
    assert [s["parent"] for s in spans] == [-1, 0, 1, 0]
    # root 10 - (a 3 + b 4); a 3 - a1 1; leaves keep their whole duration
    assert self_times(spans) == [3.0, 2.0, 1.0, 4.0]


def test_self_time_counts_overlapping_children_once():
    spans = [
        {"name": "p", "start": 0.0, "end": 10.0, "parent": -1, "attrs": {}},
        {"name": "c", "start": 1.0, "end": 5.0, "parent": 0, "attrs": {}},
        {"name": "c", "start": 3.0, "end": 7.0, "parent": 0, "attrs": {}},
    ]
    assert self_times(spans) == [4.0, 4.0, 4.0]


def test_summary_sums_calls_and_self_time_per_name():
    def body(rec):
        for _ in range(2):
            outer = rec.open("outer")
            rec.close(rec.open("inner"))
            rec.close(outer)

    spans = _recorded([0.0, 1.0, 3.0, 4.0, 10.0, 10.5, 11.5, 12.0], body)
    summary = summarize(spans)
    assert summary["outer"]["calls"] == 2
    assert summary["outer"]["s"] == 6.0
    assert summary["outer"]["self_s"] == 3.0
    assert summary["inner"]["self_s"] == 3.0


def test_tail_has_ten_samples_beyond_it():
    assert layers.tail(list(range(10))) == (0.0, 0.0)
    pct, value = layers.tail(list(range(100)))
    assert pct == 90.0
    assert sum(d > value for d in range(100)) == 10


def test_benchmark_json_matches_the_harness():
    with open(os.path.join(ROOT, "BENCHMARK.json"), "r", encoding="utf-8") as f:
        spec = json.load(f)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == layers.metric_specs()
    assert {w["name"]: w["why"] for w in spec["workloads"]} == {
        name: w.why for name, w in WORKLOADS.items()
    }
    assert all(len(w["why"]) <= 200 for w in spec["workloads"])
    assert max(m["bound"] for m in spec["end_to_end"]) == next(
        m["bound"] for m in spec["end_to_end"] if m["name"] == "setup_s"
    )


def test_traced_cli_records_kernel_spans_under_metrics(tmp_path):
    for name, seqs in (("a.fasta", ["ACDE", "KLMNPQ", "RSTV"]), ("b.fasta", ["ACD", "WY", "KLMN"])):
        (tmp_path / name).write_text("".join(f">s{i}\n{s}\n" for i, s in enumerate(seqs)))
    spans_path = tmp_path / "spans.json"
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    argv = [sys.executable, os.path.join(ROOT, "perfbench", "traced_cli.py"), str(spans_path), "--"]
    argv += ["eval", "--gen", "a.fasta", "--ref", "b.fasta", "--out", "report"]
    proc = subprocess.run(argv, cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    data = json.loads(spans_path.read_text())
    assert data["missing"] == []
    spans = data["spans"]
    cross = [s for s in spans if s["name"] == "kernels.cross_edit_matrix"]
    # e_dist and ot_levenshtein each build one cross matrix, called through the module
    assert sorted(spans[s["parent"]]["name"] for s in cross) == [
        "metrics.mean_edit_to_reference",
        "metrics.ot_levenshtein",
    ]
    assert all(s["attrs"]["cells"] == (4 + 6 + 4) * (3 + 2 + 4) for s in cross)
    # cli imported read_fasta by name; the probe still sees both reads
    assert [s["attrs"]["records"] for s in spans if s["name"] == "seqio.read_fasta"] == [3, 3]
    assert spans[0]["name"] == "cli.main"
