"""The benchmark's own test: every workload at a tiny size, untraced and
traced. The result line and the record file must parse and carry every
metric BENCHMARK.json names, with its unit, and every check must pass.

Run from the repository root: python3 -m pytest perfbench/test_run.py
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
    SPEC = json.load(fh)


def run_bench(cwd: str, workload: str, trace: int) -> subprocess.CompletedProcess:
    args = ["--workload", workload, "--seed", "3", "--seconds", "1", "--trace", str(trace), "--tiny"]
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=300,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_reports_every_metric_with_its_unit(workload: str, trace: int) -> None:
    proc = run_bench(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stderr[-3000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    named = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {m["name"]: m["unit"] for m in named}
    values = [v["value"] for v in result["metrics"].values()]
    assert all(isinstance(v, float) for v in values)
    if not trace:
        assert all(v > 0 for v in values)

    path = os.path.join(ROOT, ".bench_results", f"{workload}-seed3-trace{trace}.json")
    with open(path) as fh:
        record = json.load(fh)
    assert record["metrics"] == result["metrics"]
    assert record["error_rate"] == 0
    assert record["machine"]["cpus"] >= 1 and record["machine"]["ray_cpus"] >= 1
    if trace:
        with open(record["spans_file"]) as fh:
            spans = json.load(fh)
        assert any(s["name"] == f"workload.{workload}" for s in spans)
        assert all(s["end"] >= s["start"] and s["run_id"] for s in spans)


def test_layer_map_covers_every_per_layer_metric() -> None:
    with open(os.path.join(ROOT, "perfbench", "layers.json")) as fh:
        layers = json.load(fh)["layers"]
    mapped = [m for layer in layers for m in layer["metrics"]]
    assert sorted(mapped) == sorted(m["name"] for m in SPEC["per_layer"])
    names = {w["name"] for w in SPEC["workloads"]}
    for layer in layers:
        assert set(layer["workloads"]) | set(layer["no_change"]) <= names


def test_failing_builds_still_print_a_result(tmp_path) -> None:
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    for d in ("perfbench", "epichypersketch_jl_ray"):
        shutil.copytree(os.path.join(ROOT, d), tmp_path / d, ignore=shutil.ignore_patterns("__pycache__"))
    pipeline = tmp_path / "epichypersketch_jl_ray" / "pipelines" / "motifs.py"
    with open(pipeline, "a") as fh:
        fh.write("\n\ndef motif_pipeline(*args, **kwargs):\n    raise RuntimeError('broken build')\n")
    proc = run_bench(str(tmp_path), "motifs_k3", 0)
    assert proc.returncode == 1, proc.stderr[-3000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is False and result["metrics"] == {}
    assert result["failed"] >= 1 and result["attempted"] >= result["failed"]


def test_fails_without_the_package(tmp_path) -> None:
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(
        os.path.join(ROOT, "perfbench"),
        tmp_path / "perfbench",
        ignore=shutil.ignore_patterns("__pycache__"),
    )
    proc = run_bench(str(tmp_path), "web_build", 0)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
