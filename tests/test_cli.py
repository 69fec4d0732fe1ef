import subprocess
import sys

import numpy as np
import pytest


def run_cli(args, cwd, timeout=None):
    return subprocess.run(
        [sys.executable, "-m", "kernstab", *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=timeout,
    )


def test_eigen_scaling_outputs(tmp_path):
    result = run_cli(
        ["eigen-scaling", "--kernel", "matern-basic", "--n-min", "10",
         "--n-max", "20", "--n-count", "4"],
        tmp_path,
    )
    assert result.returncode == 0, result.stderr
    csv = (tmp_path / "eigen-scaling.csv").read_text()
    lines = csv.splitlines()
    assert lines[0] == (
        "config,version,n,q,lambda_min_sym,lambda_min_conv,"
        "bound_sym,bound_conv,reliable_sym,reliable_conv"
    )
    first = lines[1].split(",")
    assert int(first[2]) == 10
    assert float(first[4]) == pytest.approx(5.68706355670114e-2, rel=1e-8)
    assert float(first[5]) == pytest.approx(1.1886014854231e-4, rel=1e-3)
    svg = (tmp_path / "eigen-scaling.svg").read_text()
    assert svg.startswith("<svg") and "polyline" in svg


def test_eigen_scaling_linear_reference_row(tmp_path):
    result = run_cli(
        ["eigen-scaling", "--kernel", "matern-linear", "--n-min", "10",
         "--n-max", "12", "--n-count", "2"],
        tmp_path,
    )
    assert result.returncode == 0, result.stderr
    first = (tmp_path / "eigen-scaling.csv").read_text().splitlines()[1].split(",")
    assert float(first[4]) == pytest.approx(1.27687777536716e-4, rel=1e-8)
    assert float(first[5]) == pytest.approx(9.39015888450254e-10, rel=1e-2)


def test_single_size_report(tmp_path):
    result = run_cli(
        ["eigen-scaling", "--n-min", "10", "--n-max", "10", "--n-count", "30"],
        tmp_path,
    )
    assert result.returncode == 0, result.stderr
    lines = (tmp_path / "eigen-scaling.csv").read_text().splitlines()
    assert len(lines) == 2


def test_repeat_runs_are_byte_identical(tmp_path):
    args = ["identity", "--kernel", "matern-linear", "--n", "5", "--seed", "11",
            "--trials", "4", "--out-csv", "a.csv"]
    assert run_cli(args, tmp_path).returncode == 0
    first = (tmp_path / "a.csv").read_bytes()
    args[-1] = "b.csv"
    assert run_cli(args, tmp_path).returncode == 0
    assert first == (tmp_path / "b.csv").read_bytes()


def test_equivalence_command(tmp_path):
    result = run_cli(
        ["equivalence", "--kernel", "matern-linear", "--dim", "2", "--n", "50",
         "--shift-factor", "0.1"],
        tmp_path,
    )
    assert result.returncode == 0, result.stderr
    assert "equivalence-lower" in result.stdout
    assert (tmp_path / "equivalence.csv").exists()
    spectrum = (tmp_path / "equivalence.spectrum.csv").read_text().splitlines()
    assert len(spectrum) == 51  # header + 50 eigenvalues
    values = np.array([float(line.split(",")[3]) for line in spectrum[1:]])
    assert values.min() >= 0.75 and values.max() < 1.0


def test_identity_command(tmp_path):
    result = run_cli(
        ["identity", "--kernel", "matern-basic", "--n", "6", "--seed", "7"],
        tmp_path,
    )
    assert result.returncode == 0, result.stderr
    assert "0 failed" in result.stdout


def test_sin2_command(tmp_path):
    result = run_cli(
        ["sin2", "--kernel", "matern-linear", "--eps", "0.25", "--n", "10",
         "--trials", "2"],
        tmp_path,
    )
    assert result.returncode == 0, result.stderr
    assert "damping-improved" in result.stdout


def test_thm41_command(tmp_path):
    result = run_cli(
        ["thm41", "--kernel", "matern-basic", "--n", "12", "--trials", "2",
         "--shift-factor", "0.5"],
        tmp_path,
    )
    assert result.returncode == 0, result.stderr
    assert "conv-chain-end-to-end" in result.stdout


def test_fit_command(tmp_path):
    result = run_cli(
        ["fit", "--kernel", "matern-basic", "--n-max", "200"],
        tmp_path,
    )
    assert result.returncode == 0, result.stderr
    rows = (tmp_path / "fit.csv").read_text().splitlines()
    assert rows[0].endswith("series,exponent,log_constant,r_squared,samples,target,tolerance,satisfied")
    sym = rows[1].split(",")
    assert abs(float(sym[3]) - 1.0) <= 0.15


def test_heatmap_command(tmp_path):
    result = run_cli(
        ["heatmap", "--kernel", "matern-linear", "--n", "50", "--dim", "2"],
        tmp_path,
    )
    assert result.returncode == 0, result.stderr
    grid_lines = (tmp_path / "heatmap.csv").read_text().splitlines()
    assert len(grid_lines) == 51
    grid = np.array([[float(v) for v in line.split(",")[3:]] for line in grid_lines[1:]])
    diag = np.diag(grid)
    assert np.all((0.9 <= diag) & (diag <= 1.0))
    off = grid - np.diag(diag)
    assert np.abs(off).max() <= 1e-1
    spectrum_lines = (tmp_path / "heatmap.spectrum.csv").read_text().splitlines()
    values = np.array([float(line.split(",")[3]) for line in spectrum_lines[1:]])
    assert values.min() >= 0.75 and values.max() < 1.0
    assert (tmp_path / "heatmap.svg").read_text().count("<rect") > 2500


def test_constant_overrides_enable_quadratic_family(tmp_path):
    base = ["sin2", "--kernel", "matern-quadratic", "--n", "8", "--trials", "1"]
    assert run_cli(base, tmp_path).returncode == 2  # no fitted constant shipped
    assert run_cli([*base, "--c-min", "0.05"], tmp_path).returncode == 0
    chain = ["thm41", "--kernel", "matern-quadratic", "--n", "8", "--trials", "1"]
    assert run_cli(chain, tmp_path).returncode == 2
    assert run_cli([*chain, "--c-conv", "0.01"], tmp_path).returncode == 0


def test_usage_errors_exit_2(tmp_path):
    assert run_cli(["eigen-scaling", "--kernel", "bogus"], tmp_path).returncode == 2
    result = run_cli(["eigen-scaling", "--kernel", "gaussian"], tmp_path)
    assert result.returncode == 2
    assert "usage error" in result.stderr
    assert run_cli(["eigen-scaling", "--n-min", "5", "--n-max", "2"], tmp_path).returncode == 2
    assert run_cli([], tmp_path).returncode == 2
    # negative counts, and checking runs left with zero checks, have no verdict
    for command in ("identity", "sin2", "thm41"):
        assert run_cli([command, "--trials", "-3"], tmp_path).returncode == 2
    result = run_cli(["identity", "--trials", "0"], tmp_path)
    assert result.returncode == 2
    assert "no checks" in result.stderr
    # 501 points cannot keep every gap above 2e-3 in [0, 1]: fail fast, no hang
    result = run_cli(["identity", "--n", "501"], tmp_path, timeout=60)
    assert result.returncode == 2
    assert "usage error" in result.stderr


def test_numerical_failure_exits_3(tmp_path):
    result = run_cli(
        ["thm41", "--kernel", "matern-basic", "--n", "8", "--quad-order", "2",
         "--panels-per-unit", "1"],
        tmp_path,
    )
    assert result.returncode == 3
    assert "numerical failure" in result.stderr
