"""Smoke test of the benchmark harness at a tiny size.

Not part of the package's test suite; run it from the checkout root with::

    python3 -m pytest perfbench/tests -q
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[2]
RUN = Path("perfbench") / "run.py"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
sys.path.insert(0, str(ROOT / "perfbench"))

from tracer import self_times  # noqa: E402


def run(workload, trace, cwd=ROOT):
    return subprocess.run(
        [sys.executable, str(RUN), "--workload", workload, "--seed", "5",
         "--seconds", "1", "--trace", str(trace), "--tiny"],
        capture_output=True, text=True, cwd=cwd, timeout=170)


def result(proc, specs):
    assert proc.returncode == 0, proc.stderr
    res = json.loads(proc.stdout.splitlines()[-1])
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    assert res["correct"] is True and res["failed"] == 0 and res["attempted"] >= 1
    assert set(res["metrics"]) == {spec["name"] for spec in specs}
    for spec in specs:
        metric = res["metrics"][spec["name"]]
        assert metric["unit"] == spec["unit"], spec["name"]
        assert math.isfinite(metric["value"]), spec["name"]
    return res


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_metrics_named_with_units(workload):
    res = result(run(workload, 0), SPEC["end_to_end"])
    assert all(m["value"] > 0 for m in res["metrics"].values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_metrics_and_span_tree(workload):
    proc = run(workload, 1)
    result(proc, SPEC["per_layer"])
    run_line = next(line for line in proc.stdout.splitlines() if line.startswith("# run "))
    with np.load(json.loads(run_line[len("# run "):])["spans_file"]) as saved:
        spans = {key: saved[key] for key in ("name", "tag", "start", "end", "parent")}
    n = len(spans["start"])
    assert n > 0
    assert np.all(spans["end"] >= spans["start"])            # every span ended
    parent = spans["parent"]
    has_parent = parent >= 0
    assert np.all((parent == -1) | has_parent)
    assert np.all(parent[has_parent] < np.arange(n)[has_parent])
    assert np.all(spans["start"][parent[has_parent]] <= spans["start"][has_parent])
    assert np.all(spans["end"][has_parent] <= spans["end"][parent[has_parent]])
    assert np.all(self_times(spans) >= 0)


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run("grid", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert not any(line.startswith("{") for line in proc.stdout.splitlines())
