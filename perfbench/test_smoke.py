"""Smoke test for the benchmark: every workload once, at tiny sizes.

    python3 -m pytest perfbench/test_smoke.py -q

Checks that each run prints every declared metric with its unit, that no
operation failed, and that ``BENCHMARK.json`` matches ``catalog.py``.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import catalog  # noqa: E402

DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def run(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=180,
    )


def test_benchmark_json_matches_catalog():
    expected = catalog.benchmark_json(DECLARED["command"], DECLARED["paths"], DECLARED["run_seconds"])
    assert DECLARED == expected


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(catalog.WORKLOADS))
def test_workload_reports_every_metric(workload, trace):
    done = run("--workload", workload, "--seed", "3", "--seconds", "1", "--trace", str(trace), "--smoke")
    assert done.returncode == 0, done.stderr
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, done.stdout
    assert result["attempted"] >= 1 and result["failed"] == 0
    declared = DECLARED["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in declared]
    for metric in declared:
        got = result["metrics"][metric["name"]]
        assert got["unit"] == metric["unit"]
        assert isinstance(got["value"], (int, float))
    if trace:
        assert result["metrics"]["trace.absent_layers"]["value"] == 0
        assert 0.9 < result["metrics"]["trace.accounted_share"]["value"] <= 1.0
    else:
        error_rate = [line for line in lines if line.split()[:1] == ["error_rate"]]
        assert error_rate and float(error_rate[0].split()[1]) == 0.0


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    done = run("--workload", "text-4k", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
