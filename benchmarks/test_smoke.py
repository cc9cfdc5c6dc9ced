"""Smoke test: every workload, untraced and traced, at a tiny size.

Run from the root of the checkout:  python -m pytest benchmarks/test_smoke.py -q
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run(args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "benchmarks/run.py", *args], cwd=cwd, capture_output=True, text=True, timeout=300
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_tiny_run_reports_every_metric(workload, trace):
    proc = run(["--workload", workload, "--seed", "7", "--seconds", "1", "--trace", str(trace), "--smoke"])
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1, proc.stderr
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in wanted]
    for spec in wanted:
        metric = result["metrics"][spec["name"]]
        assert metric["unit"] == spec["unit"]
        assert math.isfinite(metric["value"])
    if not trace:
        assert all(result["metrics"][m["name"]]["value"] > 0 for m in wanted)


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "benchmarks", tmp_path / "benchmarks", ignore=shutil.ignore_patterns("__pycache__"))
    proc = run(["--workload", SPEC["workloads"][0]["name"], "--seed", "0", "--seconds", "1", "--trace", "0"], tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
