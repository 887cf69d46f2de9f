"""Toy-scale smoke test of the benchmark; run with `python3 -m pytest bench`.

Every workload runs once untraced and once traced at toy sizes, and
must report exactly the metrics BENCHMARK.json names.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def test_workload_lists_agree():
    assert list(run.WORKLOAD_NAMES) == list(workloads.WORKLOADS) == [w["name"] for w in SPEC["workloads"]]


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_every_named_metric_is_reported(workload):
    untraced, _ = run.run(workload, seed=1, seconds=0.1, trace=False, root=ROOT, toy=True)
    traced, record = run.run(workload, seed=1, seconds=0.1, trace=True, root=ROOT, toy=True)
    assert workloads.WORKLOADS[workload].why == next(w["why"] for w in SPEC["workloads"] if w["name"] == workload)
    for result in (untraced, traced):
        assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert set(untraced["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    assert set(traced["metrics"]) == {m["name"] for m in SPEC["per_layer"]}
    assert all(m["value"] > 0 for m in untraced["metrics"].values())
    transferred = traced["metrics"]["merge.edges_transferred"]["value"]
    assert (transferred > 0) == (workload == "deep_history")
    assert {s["parent"] for s in record["spans"]} == {None, "dedupe"}


def test_wrong_ground_truth_fails_the_run(monkeypatch):
    build = workloads.BUILDERS["hot_entity"]

    def wrong(*args, **kwargs):
        instance = build(*args, **kwargs)
        return replace(instance, expected=replace(instance.expected, removed_vertices=1))

    monkeypatch.setitem(workloads.BUILDERS, "hot_entity", wrong)
    result, record = run.run("hot_entity", seed=1, seconds=0.1, trace=False, root=ROOT, toy=True)
    assert not result["correct"] and result["failed"] >= 1
    assert "removed_vertices" in record["failures"][0]


def test_fails_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "bench", tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "uniform", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
