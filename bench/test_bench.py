"""Tests of the benchmark itself: its correctness gates, its span arithmetic and
the exact repetition of its deterministic counts.

Run from the repository root with ``python -m pytest bench/test_bench.py``.
The determinism tests run every workload traced, twice, and take a few
minutes.
"""

import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run

GOOD_N10 = {"lambda_min_sym": 1.27687777536716e-4, "lambda_min_conv": 9.39015888450254e-10}


def _write_scaling_csv(directory: Path, **values) -> None:
    row = {**GOOD_N10, **values}
    (directory / "eigen-scaling.csv").write_text(
        "config,version,n,q,lambda_min_sym,lambda_min_conv\n"
        f"abc,0.1.0,10,0.05,{row['lambda_min_sym']!r},{row['lambda_min_conv']!r}\n"
        "abc,0.1.0,11,0.045,1e-5,1e-11\n"
    )
    (directory / "eigen-scaling.svg").write_text("<svg/>")


def test_gate_accepts_golden_scaling_output(tmp_path):
    _write_scaling_csv(tmp_path)
    assert run.gate("eigen-scaling", 0, "wrote eigen-scaling.csv\n", tmp_path) == []


@pytest.mark.parametrize("column, value", [
    ("lambda_min_sym", 1.27687777536716e-4 * (1 + 1e-7)),
    ("lambda_min_conv", 9.39015888450254e-10 * 1.02),
])
def test_gate_rejects_missed_golden_value(tmp_path, column, value):
    _write_scaling_csv(tmp_path, **{column: value})
    [failure] = run.gate("eigen-scaling", 0, "", tmp_path)
    assert column in failure


@pytest.mark.parametrize("code, stdout, reason", [
    (1, "checks: 3 total, 1 failed (reliable)\n", "exit code 1"),
    (0, "checks: 3 total, 1 failed (reliable)\n", "1 of 3 failed"),
    (0, "checks: 0 total, 0 failed (reliable)\n", "0 of 0 failed"),
    (0, "wall clock: 0.1 s\n", "no checks summary"),
])
def test_gate_rejects_failed_checks(tmp_path, code, stdout, reason):
    (tmp_path / "sin2.csv").write_text("config\n")
    failures = run.gate("sin2", code, stdout, tmp_path)
    assert len(failures) == 1 and reason in failures[0]


def test_self_times_subtract_direct_children():
    spans = [
        ["cli.main", 0.0, 10.0, -1, None],
        ["experiments.run", 1.0, 9.0, 0, None],
        ["kernels.phi", 2.0, 5.0, 1, 4],
        ["kernels.phi", 6.0, 7.0, 1, 4],
    ]
    assert run.self_times(spans) == [2.0, 4.0, 3.0, 1.0]


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.BENCH_DIR, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "verifiers", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""


def _traced_counts(workload: str, seed: int, tmp: Path) -> dict:
    report = run.evaluate(run.measure(workload, seed, 0, True, tmp))
    assert report["failed"] == 0, report["failures"]
    return {k: report["per_layer"][k] for k in run.DETERMINISTIC}


@pytest.mark.parametrize("workload", sorted(run.WORKLOADS))
def test_traced_counts_repeat_exactly(tmp_path, workload):
    first = _traced_counts(workload, 7, tmp_path)
    second = _traced_counts(workload, 7, tmp_path)
    assert first == second
    assert any(first.values())
