"""End-to-end smoke run of the benchmark at 2 % scale.  Run with
``python -m pytest bench -q`` (tier-1 collects ``tests/`` only)."""

from __future__ import annotations

import json
import os
import re
import subprocess
import sys
import time

import pytest

import spans
import spec

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}\Z")
RUN = [sys.executable, os.path.join(spec.BENCH_DIR, "run.py")]


@pytest.fixture(scope="module")
def smoke(tmp_path_factory):
    out = tmp_path_factory.mktemp("bench") / "report.json"
    started = time.monotonic()
    done = subprocess.run(
        RUN + ["--all", "--trace", "1", "--scale", "0.02", "--out", str(out)],
        capture_output=True, text=True, timeout=120)
    elapsed = time.monotonic() - started
    assert done.returncode == 0, done.stderr
    with open(out, encoding="utf-8") as handle:
        report = json.load(handle)
    lines = [json.loads(line) for line in done.stdout.splitlines()
             if line.startswith("{")]
    return report, lines, elapsed


def test_finishes_within_a_minute(smoke):
    _report, _lines, elapsed = smoke
    assert elapsed < 60.0


def test_declared_names_are_well_formed_and_few():
    benchmark = spec.load_benchmark()
    end_to_end = spec.metric_names(benchmark, "end_to_end")
    per_layer = spec.metric_names(benchmark, "per_layer")
    assert len(end_to_end) <= 16 and len(per_layer) <= 128
    names = end_to_end + per_layer + [w["name"] for w in benchmark["workloads"]]
    assert len(set(names)) == len(names)
    assert all(NAME.match(name) for name in names)
    assert "setup_s" in end_to_end
    assert [w["name"] for w in benchmark["workloads"]] == list(spec.WORKLOADS)
    assert spec.COUNTERS <= set(per_layer)


def test_emits_every_declared_metric_and_nothing_else(smoke):
    report, lines, _elapsed = smoke
    benchmark = spec.load_benchmark()
    end_to_end = set(spec.metric_names(benchmark, "end_to_end"))
    per_layer = set(spec.metric_names(benchmark, "per_layer"))
    assert len(lines) == len(spec.WORKLOADS)
    for line in lines:                       # --trace 1: the per-layer set
        assert set(line) == {"correct", "attempted", "failed", "metrics"}
        assert line["correct"] is True and line["attempted"] >= 1
        assert set(line["metrics"]) == per_layer
    measured_somewhere = set()
    for name in spec.WORKLOADS:
        workload = report["workloads"][name]
        assert set(workload["end_to_end"]) == end_to_end
        assert all(value > 0 for value in workload["end_to_end"].values())
        assert set(workload["per_layer"]) <= per_layer
        measured_somewhere |= set(workload["per_layer"])
    assert measured_somewhere == per_layer   # no declared name is dead
    assert report["comparable"] is False     # --scale marks it so


def test_untraced_run_prints_the_end_to_end_set():
    done = subprocess.run(
        RUN + ["--workload", "query_narrow", "--seed", "3", "--seconds", "1",
               "--scale", "0.05", "--trace", "0"],
        capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    line = json.loads(done.stdout.splitlines()[-1])
    benchmark = spec.load_benchmark()
    assert set(line["metrics"]) == set(spec.metric_names(benchmark, "end_to_end"))
    units = {metric["name"]: metric["unit"] for metric in benchmark["end_to_end"]}
    assert {name: value["unit"] for name, value in line["metrics"].items()} == units


def test_spans_form_a_tree_per_request(smoke):
    for name in spec.WORKLOADS:
        recorded = spans.read_jsonl(os.path.join(spec.OUT_DIR, f"{name}.spans.jsonl"))
        assert recorded, name
        assert spans.tree_problems(recorded) == [], name


def test_the_trace_accounts_for_query_time(smoke):
    report, _lines, _elapsed = smoke
    for name in ("query_narrow", "query_broad"):
        layers = report["workloads"][name]["per_layer"]
        assert 0.0 <= layers["query.residual_share"] <= 0.05
        assert layers["query.stage.other.ms_per_q"] == 0.0


def test_compare_accepts_a_report_against_itself(smoke, tmp_path):
    report, _lines, _elapsed = smoke
    path = tmp_path / "report.json"
    path.write_text(json.dumps(report))
    done = subprocess.run(
        [sys.executable, os.path.join(spec.BENCH_DIR, "compare.py"),
         str(path), str(path), "--agree"], capture_output=True, text=True)
    assert done.returncode == 0, done.stdout
    assert "regression" not in done.stdout.replace("no regression", "")
