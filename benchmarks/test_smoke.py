"""Smoke test of the benchmark at tiny size: one problem per workload, tiny budget.

    python -m pytest benchmarks/test_smoke.py -q
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def run_bench(workload, trace, seed=0):
    proc = subprocess.run(
        [sys.executable, "benchmarks/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", str(trace), "--smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    return lines, json.loads(lines[-1])


def printed_metrics(lines):
    out = {}
    for line in lines[:-1]:
        parts = line.split()
        if len(parts) == 3 and not line.startswith("#"):
            out[parts[0]] = (float(parts[1]), parts[2])
    return out


def identity(lines):
    line = next(ln for ln in lines if ln.startswith("# identity"))
    return dict(field.split("=") for field in line.split()[2:])


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace", [0, 1])
def test_every_metric_printed_with_its_unit(workload, trace):
    lines, result = run_bench(workload, trace)
    spec = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    expected = {m["name"]: m["unit"] for m in spec}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    printed = printed_metrics(lines)
    assert {k: unit for k, (_, unit) in printed.items()} == expected


@pytest.mark.parametrize("workload", WORKLOADS)
def test_layer_self_time_within_traced_wall(workload):
    _, result = run_bench(workload, 1)
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    self_total = sum(v for k, v in metrics.items() if k.endswith(".self_s"))
    assert 0.0 < self_total <= metrics["trace.wall_s"]
    assert metrics["trustregion.audit_violations"] == 0


def test_seed_changes_records_not_metric_names():
    lines_a, result_a = run_bench("dense_noisy_restarts", 0, seed=0)
    lines_b, result_b = run_bench("dense_noisy_restarts", 0, seed=1)
    assert identity(lines_a)["records_sha256"] != identity(lines_b)["records_sha256"]
    assert result_a["metrics"].keys() == result_b["metrics"].keys()
    lines_c, _ = run_bench("dense_noisy_restarts", 0, seed=0)
    assert identity(lines_c) == identity(lines_a)
