"""Smoke test of the benchmark itself.

Runs each workload at a tiny size and checks the output contract: every
metric named in BENCHMARK.json prints with its unit, nothing fails, exact
counts repeat between two traced runs with the same seed, tracing leaves
every certificate unchanged, and the benchmark refuses to run without the
package.
"""

import importlib
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def _run(workload, trace, cwd=ROOT):
    argv = [sys.executable, "bench/run.py", "--workload", workload, "--seed", "5",
            "--seconds", "0.5", "--trace", str(trace), "--size", "tiny"]
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    return subprocess.run(argv, capture_output=True, text=True, timeout=170, cwd=cwd, env=env)


def _result(done):
    assert done.returncode == 0, done.stderr
    lines = done.stdout.strip().splitlines()
    provenance = next(json.loads(l.split(": ", 1)[1]) for l in lines if l.startswith("provenance: "))
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    assert provenance["fail_share"] == 0
    return result, provenance


def _units(result):
    return {name: metric["unit"] for name, metric in result["metrics"].items()}


def _hashes(workload, trace):
    records = json.loads((BENCH / "_out" / f"{workload}-seed5-trace{trace}.json").read_text())
    return {r["item"]: r["sha256"] for r in records["records"]}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_workload_at_tiny_size(workload):
    plain, provenance = _result(_run(workload, 0))
    assert _units(plain) == {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert all(m["value"] > 0 for m in plain["metrics"].values())
    assert provenance["seed"] == 5 and provenance["nproc"] >= 1
    untraced = _hashes(workload, 0)

    (first, p1), (second, p2) = (_result(_run(workload, 1)) for _ in range(2))
    assert _units(first) == {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    exact = [n for n in first["metrics"] if not n.endswith("_s") and not n.startswith("trace.")]
    assert {n: first["metrics"][n]["value"] for n in exact} == {
        n: second["metrics"][n]["value"] for n in exact
    }
    assert p1["counts_sha256"] == p2["counts_sha256"]
    if workload == "cli_files":
        assert first["metrics"]["discretize.fingerprint_calls"]["value"] == 5

    # tracing changes no output: item i gets the same inputs in both runs
    traced = _hashes(workload, 1)
    shared = untraced.keys() & traced.keys()
    assert shared and all(untraced[i] == traced[i] for i in shared)


def test_exits_nonzero_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("_out", "_work", "__pycache__"))
    done = _run(WORKLOADS[0], 0, cwd=tmp_path)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout


def test_tracer_wraps_every_binding_and_restores_them():
    sys.path[:0] = [str(BENCH), str(ROOT / "src")]
    try:
        from tracer import Tracer

        tracer = Tracer()
    finally:
        del sys.path[:2]
    bound = set(tracer.bindings())
    for module in ("frame_core", "partition_oracle", "halving_select"):
        assert (f"sampdisc.{module}", "subset_bounds") in bound
    for module in ("discretize", "weighted_sparsify"):
        assert (f"sampdisc.{module}", "halving_select") in bound
    assert ("SampledSystem", "orthonormality_residual") in bound
    frame_core = importlib.import_module("sampdisc.frame_core")
    original = frame_core.subset_bounds
    tracer.install()
    try:
        assert frame_core.subset_bounds is not original
    finally:
        tracer.uninstall()
    assert frame_core.subset_bounds is original
