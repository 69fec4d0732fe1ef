import argparse
import hashlib
import re
import subprocess
import sys
import time
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

from conftest import BLAS_THREADS
from heatmap_reference import assert_decodes_to_loop_colors, loop_color_indices, run_count
from kernstab import Family, QuadratureError, SingularMatrixError, cli
from kernstab.experiments import COMMANDS, ExperimentConfig, ExperimentReport, run

README = Path(__file__).resolve().parent.parent / "README.md"


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
    # every artifact written is named, the sidecar included
    assert "wrote equivalence.csv\nwrote equivalence.spectrum.csv\n" in result.stdout
    lines = (tmp_path / "equivalence.csv").read_text().splitlines()
    assert lines[0] == "config,version,trial,name,lhs,rhs,slack,satisfied,reliable"
    assert len(lines) == 3
    assert lines[1].split(",")[3:5] == ["equivalence-lower", "0.75"]
    assert lines[1].endswith(",true,true")
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
    rows = (tmp_path / "thm41.csv").read_text().splitlines()
    assert rows[0].endswith(",satisfied,reliable")
    for row in rows[1:]:
        assert all(flag in ("true", "false") for flag in row.split(",")[-2:]), row


def test_fit_command(tmp_path):
    # eigen-scaling fits its two series and writes the fits beside its table
    result = run_cli(
        ["eigen-scaling", "--kernel", "matern-basic", "--n-max", "200"],
        tmp_path,
    )
    assert result.returncode == 0, result.stderr
    assert "checks: 2 total, 0 failed (reliable)" in result.stdout
    assert "wrote eigen-scaling.fit.csv\n" in result.stdout
    rows = (tmp_path / "eigen-scaling.fit.csv").read_text().splitlines()
    assert rows[0].endswith("series,exponent,log_constant,r_squared,samples,target,tolerance,satisfied")
    sym = rows[1].split(",")
    assert abs(float(sym[3]) - 1.0) <= 0.15


def test_fit_without_enough_reliable_samples_reports_an_unreliable_row(tmp_path):
    # every lambda_min(k*) of matern-quadratic on the default grid lies below
    # the precision floor: that series has no fit, which is no usage error
    result = run_cli(["eigen-scaling", "--kernel", "matern-quadratic"], tmp_path)
    assert result.returncode == 0, result.stderr
    assert "fit-lambda_min_conv: lhs=nan rhs=3.000000e-01 unreliable" in result.stdout
    fit_csv = (tmp_path / "eigen-scaling.fit.csv").read_text()
    rows = [line.split(",") for line in fit_csv.splitlines()[1:]]
    sym, conv = rows
    assert sym[2] == "lambda_min_sym" and abs(float(sym[3]) - 5.0) <= 0.15
    assert sym[-1] == "true"
    assert conv[2:8] == ["lambda_min_conv", "nan", "nan", "nan", "0", "11"]
    assert conv[-1] == "false"


@pytest.mark.parametrize("args", [["--layout", "halton"], ["--endpoints", "false"]])
def test_eigen_scaling_fails_the_conv_slope_off_the_equispaced_grid(args, tmp_path):
    # the exponent fitted to lambda_min(k*) of matern-linear misses 4 tau - 1 = 7
    # by 1.18 on Halton points and by 0.458 on equispaced points without the
    # endpoints, against a tolerance of 0.30: a reliable failure, exit 1.
    # Only its 7 samples at n <= 25 lie above the precision floor
    result = run_cli(["eigen-scaling", "--kernel", "matern-linear", *args], tmp_path)
    assert result.returncode == 1, result.stderr
    assert re.search(r"^  fit-lambda_min_sym: .* ok$", result.stdout, re.M)
    assert re.search(r"^  fit-lambda_min_conv: .* FAIL$", result.stdout, re.M)
    assert "checks: 2 total, 1 failed (reliable)" in result.stdout


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
    # one rect per run of one color in a grid row, plus background and frame;
    # the CSV's '%.17g' values read back exactly, so they give the same colors
    svg = (tmp_path / "heatmap.svg").read_text()
    assert svg.count("<rect") == run_count(loop_color_indices(grid)) + 2
    assert_decodes_to_loop_colors(svg, grid)


# SHA-256 of every artifact at --seed 0 (numpy 2.4 with OpenBLAS, x86-64):
# a change that moves one output byte of these commands fails here.  The
# equivalence digests depend on the BLAS thread count through the sums of
# its matrix products, so they are recorded at 1 and at 2 threads, keyed by
# that count, and the entry of the min(2, cores) threads that
# tests/conftest.py gives every child is compared; every other digest holds
# at both.
# heatmap and equivalence were recorded before the heatmap, CSV and Halton
# loops were vectorized; identity, sin2 and eigen-scaling before the Gram
# matrices became plain arrays and the panel builders were merged into one;
# thm41 and fit before the CLI flags were derived from ExperimentConfig.
# identity and sin2 were re-recorded when the rejection loop of the random
# interval sets became the exact spacings sampler (other sets, other
# coefficients) and sin2's lhs became the exact matrix-side damped form in
# place of its Fourier quadrature.
# identity was re-recorded once more when the Fourier-side phase was split
# per panel: only roundoff digits of its lhs and slack columns moved (by at
# most 1e-7 of rhs), never a verdict.  heatmap.svg alone was re-recorded when
# each run of one color in a grid row became one <rect> in place of one per
# cell: decoded, every cell has the color it had before (2233 rects instead
# of 3600 here), and both heatmap CSVs kept their digests.  Both equivalence
# digests were re-recorded when its spectrum came from a Cholesky congruence
# in place of the eigenvalues of the whitened matrix: a different reduction,
# so the spectrum moved in its roundoff digits (by at most 5.2e-14 here and
# 1.3e-12 at n = 2000), and the mpmath oracle of tests/test_spectral.py finds
# the new reduction the more accurate one.  The eigen-scaling and fit digests
# were re-recorded when their spectra came from the two half-size blocks of
# the reflection symmetry of equispaced points: lambda_min moved in its
# roundoff digits, every reliable flag stayed, and the oracle tests of
# tests/test_spectral.py find the split no less accurate than the full solve.
# The equivalence entry at n = 600, four leaves of the triangular inverse,
# was recorded when the congruence came to skip the zero blocks above those
# leaves and to form only its lower triangle; every digest above was kept,
# as up to 256 points the congruence is bitwise what it was.  It was
# re-recorded when the corner of the triangular inverse came to skip the
# zero blocks above the leaves of its halves: a half of more than 256 rows
# has several leaves, so its products sum in another order, and the spectrum
# moved in its roundoff digits (by at most 3.3e-15 here and 1.4e-14 at
# n = 2000), no verdict with it; up to 512 points each half is one leaf and
# the inverse is bitwise what it was.
# Both equivalence entries were recorded at 1 BLAS thread beside 2 when the
# digests came to be selected by thread count.  The n = 600 entry was
# re-recorded at both when the Gram matrix came to be factored and inverted
# in place, by one recursion by halves in place of LAPACK's Cholesky factor
# and a separate inverse: another reduction above 256 points, so the
# spectrum moved in its roundoff digits (by at most 4.0e-14 here and 1.6e-13
# at n = 2000), no verdict with it; up to 256 points the inverse is bitwise
# what it was, and the n = 200 entry kept its digests.
# Every CSV digest was re-recorded when the quadrature rule became a fixed
# constant and the quad_order and panels_per_unit fields left
# ExperimentConfig: the 12-hex config column hashes canonical_string, which
# lists every field, so it moved on every row.  With that first column
# dropped each CSV is byte for byte what it was, and both SVGs kept their
# digests.
# identity was re-recorded when the Fourier-side panels beyond |w| = 16 were
# widened to the graded outer zones (13x fewer nodes): full_integral moved
# by at most 2.2e-15 of itself and damped_integral by 7.6e-18 of
# full_integral over these ten sets, so only roundoff digits of the lhs and
# slack columns moved (by at most 7.1e-15, 2.4e-13 of rhs), never a verdict.
# identity was re-recorded again when the Fourier-side form came to sum the
# even integrand over [0, L] alone and double it (half the nodes): both sums
# moved by at most 2.5e-16 of full_integral over the three families, n up to
# 200 and cutoffs 10 and 1e3, and the lhs column by at most 1.8e-15 (6.8e-14
# of rhs) over these ten sets, never a verdict.
# The fit entry left when fit became eigen-scaling's slope checks: the
# eigen-scaling entry gained the eigen-scaling.fit.csv digest, a table that,
# config column dropped, is byte for byte the fit.csv of the same options,
# and kept its CSV and SVG digests.
GOLDEN_DIGESTS = {
    ("heatmap", "--kernel", "matern-linear", "--dim", "2", "--n", "60"): {
        "heatmap.csv": "a0c23d34c38b478b70d2714ef8f4c260d1eac3df9047cd5d0209e2bfcbbf4012",
        "heatmap.spectrum.csv": "83b7442915bd1968e03114874ae645a7514416e16753521ad453cdc15b27e85d",
        "heatmap.svg": "8334a3abe6e9dd69207b9a6840534866bf2552b7ef3ca8f01ef0ef3fabd6333c",
    },
    ("equivalence", "--kernel", "matern-basic", "--dim", "3", "--n", "200"): {
        1: {
            "equivalence.csv": "828161a93390f11204196e3793a7aef17c3c9786b26f107c32f18ce5d06847c0",
            "equivalence.spectrum.csv": "afc8fe01e841adaa06abe28add8bcb4f60102b365b60afd32bd60bfb4835fb35",
        },
        2: {
            "equivalence.csv": "ab695fadbde5f1143027768c85d01dacabb4c7fedb501b2620265dd800c0e67d",
            "equivalence.spectrum.csv": "357ca3569095c6db51610ac56264863e997b961015ca86be8c2a503952f48b55",
        },
    },
    ("equivalence", "--kernel", "matern-basic", "--dim", "3", "--n", "600"): {
        1: {
            "equivalence.csv": "219a87ad7fccd5bfb9bf41b2ad5b6d731098fc556d2412725e15dd5576ae9b37",
            "equivalence.spectrum.csv": "29e93ba52f22cc053ae024c479c5571684af4da129dc0dcae3cba8601df46bac",
        },
        2: {
            "equivalence.csv": "979a01121e8e40a1d9bf6e90b43554174d02d174a6691bd618a635f89f82792d",
            "equivalence.spectrum.csv": "04c43654ab976a7f7511e33e9120a7122c08c90c520d8c84f8b1704d87c394fe",
        },
    },
    ("identity", "--kernel", "matern-basic", "--n", "6"): {
        "identity.csv": "7e5fb7b953ba4f54349c0b4ac4f1748e6a7f4866bad1f63814cd3a461aee9ee2",
    },
    ("sin2", "--kernel", "matern-linear", "--n", "10", "--trials", "2"): {
        "sin2.csv": "ca82183f620f893306c9a6ed6e1702e5dacf64a765d89dba9ca4c8bd86b83d0c",
    },
    ("eigen-scaling", "--kernel", "matern-linear", "--n-max", "40", "--n-count", "8"): {
        "eigen-scaling.csv": "913b6ff32f0582334c5cd3254c088bf02cb4f27572decaf7543e96e8d4a1e7c0",
        "eigen-scaling.fit.csv": "b015a1cc0bba853b44bc44ce104b468d0ca2110d7543af3b4ccbbac4dc11ece4",
        "eigen-scaling.svg": "6d9c28dd98d8d2549abae6f17b0a973059aa142d236a4de6fb6c769246da257a",
    },
    ("thm41", "--kernel", "matern-basic", "--n", "20", "--shift-factor", "0.5"): {
        "thm41.csv": "ec8649925eab7ef870e2aa22a94183c7c699fa614c3bd368f5f48ed7cc3e6f08",
    },
}


def _golden_id(args):
    # the command's name; a command recorded again adds its --n
    first = next(recorded for recorded in GOLDEN_DIGESTS if recorded[0] == args[0])
    return args[0] if args == first else f"{args[0]}-n{args[args.index('--n') + 1]}"


@pytest.mark.parametrize("args", list(GOLDEN_DIGESTS), ids=_golden_id)
def test_artifacts_match_golden_digests(args, tmp_path):
    result = run_cli([*args, "--seed", "0"], tmp_path)
    assert result.returncode == 0, result.stderr
    digests = {
        path.name: hashlib.sha256(path.read_bytes()).hexdigest()
        for path in tmp_path.iterdir()
        if path.suffix in (".csv", ".svg")
    }
    expected = GOLDEN_DIGESTS[args]
    if BLAS_THREADS in expected:  # recorded per BLAS thread count
        expected = expected[BLAS_THREADS]
    assert digests == expected


def test_wall_clock_covers_artifact_writes(tmp_path, monkeypatch, capsys):
    write_csv = ExperimentReport.write_csv

    def slow_write_csv(self, path):
        time.sleep(0.3)
        return write_csv(self, path)

    monkeypatch.setattr(ExperimentReport, "write_csv", slow_write_csv)
    out = tmp_path / "identity.csv"
    code = cli.main(["identity", "--n", "3", "--trials", "1", "--out-csv", str(out)])
    assert code == 0
    printed = capsys.readouterr().out
    match = re.search(r"^wall clock: (\d+\.\d{3}) s$", printed, re.M)
    assert match is not None, printed
    assert float(match.group(1)) >= 0.3
    assert "wall clock" not in out.read_text()


def test_constant_overrides_enable_quadratic_family(tmp_path):
    base = ["sin2", "--kernel", "matern-quadratic", "--n", "8", "--trials", "1"]
    assert run_cli(base, tmp_path).returncode == 2  # no fitted constant shipped
    assert run_cli([*base, "--c-min", "0.05"], tmp_path).returncode == 0
    chain = ["thm41", "--kernel", "matern-quadratic", "--n", "8", "--trials", "1"]
    assert run_cli(chain, tmp_path).returncode == 2
    assert run_cli([*chain, "--c-conv", "0.01"], tmp_path).returncode == 0


def test_usage_errors_exit_2(tmp_path, monkeypatch, capsys):
    # in-process through cli.main, in tmp_path; the last case runs the module
    monkeypatch.chdir(tmp_path)
    # an argument argparse rejects, or none at all; fit is eigen-scaling's now
    for args in (["eigen-scaling", "--kernel", "bogus"], [], ["fit"]):
        with pytest.raises(SystemExit) as info:
            cli.main(args)
        assert info.value.code == 2, args
    capsys.readouterr()
    # every command offers the finitely smooth families alone
    for command in COMMANDS:
        with pytest.raises(SystemExit) as info:
            cli.main([command, "--kernel", "gaussian"])
        assert info.value.code == 2, command
        assert "invalid choice: 'gaussian'" in capsys.readouterr().err, command
    assert cli.main(["eigen-scaling", "--n-min", "5", "--n-max", "2"]) == 2
    # negative counts, and checking runs left with zero checks, have no verdict
    for command in ("identity", "sin2", "thm41"):
        assert cli.main([command, "--trials", "-3"]) == 2
    capsys.readouterr()
    assert cli.main(["identity", "--trials", "0"]) == 2
    assert "no checks" in capsys.readouterr().err
    # a Fourier cutoff that is not finite and at least 1, a shift factor that
    # is not finite and a bound constant that is not finite and positive are
    # usage errors, not a traceback or nan bounds
    for args in (
        ["identity", "--n", "4", "--trials", "1", "--fourier-cutoff", "inf"],
        ["identity", "--n", "4", "--trials", "1", "--fourier-cutoff", "nan"],
        ["identity", "--n", "4", "--trials", "1", "--fourier-cutoff", "0"],
        ["identity", "--n", "4", "--trials", "1", "--fourier-cutoff", "-1"],
        ["identity", "--n", "6", "--trials", "1", "--fourier-cutoff", "0.5"],
        ["equivalence", "--n", "10", "--shift-factor", "nan"],
        ["eigen-scaling", "--n-max", "40", "--n-count", "4", "--c-min", "0"],
        ["eigen-scaling", "--n-max", "40", "--n-count", "4", "--c-min", "nan"],
        ["sin2", "--kernel", "matern-linear", "--n", "8", "--trials", "1", "--c-min", "nan"],
        ["thm41", "--n", "8", "--trials", "1", "--c-conv", "nan"],
    ):
        assert cli.main(args) == 2, args
        assert "usage error" in capsys.readouterr().err
    # an unwritable output path is a usage error, not a failed check; an
    # empty one names no file, for the plot as for the table
    missing = tmp_path / "no-such-dir"
    for args in (
        ["identity", "--n", "4", "--trials", "1", "--out-csv", str(missing / "x.csv")],
        ["identity", "--n", "4", "--trials", "1", "--out-csv", ""],
        ["heatmap", "--n", "10", "--out-svg", str(missing / "x.svg")],
        ["eigen-scaling", "--n-max", "20", "--n-count", "3", "--out-svg", ""],
    ):
        assert cli.main(args) == 2, args
        err = capsys.readouterr().err
        assert "usage error" in err
        assert "Traceback" not in err
    assert not (tmp_path / "eigen-scaling.svg").exists()
    # 501 points cannot keep every gap above 2e-3 in [0, 1]: fail fast, no
    # hang, and exit 2 from the module as from cli.main
    result = run_cli(["identity", "--n", "501"], tmp_path, timeout=60)
    assert result.returncode == 2
    assert "usage error" in result.stderr
    assert "Traceback" not in result.stderr


@pytest.mark.parametrize("command", ["heatmap", "equivalence"])
def test_sidecar_sits_beside_a_csv_in_a_dotted_directory(command, tmp_path):
    # the sidecar name splits the file name alone, never a dot of a directory
    out = tmp_path / "a.b"
    out.mkdir()
    result = run_cli([command, "--n", "10", "--out-csv", str(out / "heat")], tmp_path)
    assert result.returncode == 0, result.stderr
    assert sorted(path.name for path in out.iterdir()) == ["heat", "heat.spectrum"]


def test_random_point_sets_near_capacity_finish(tmp_path):
    # the interval sampler draws each set once, however tight its gaps
    for args in (["sin2", "--n", "100", "--trials", "2"],
                 ["identity", "--n", "400", "--trials", "1"]):
        result = run_cli(args, tmp_path, timeout=60)
        assert result.returncode == 0, result.stderr


@pytest.mark.parametrize("command", COMMANDS)
def test_command_alone_parses_to_library_defaults(command):
    args = cli.build_parser().parse_args([command])
    assert ExperimentConfig(**vars(args)) == ExperimentConfig(command=command)


def test_flags_are_exactly_the_table_rows():
    parser = cli.build_parser()
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    parsers = sub.choices
    assert tuple(parsers) == tuple(COMMANDS)
    defaults = {f.name: f.default for f in fields(ExperimentConfig)}
    for command, p in parsers.items():
        actions = {a.dest: a for a in p._actions if a.dest != "help"}
        row = COMMANDS[command]
        assert set(actions) == set(row.options), command
        for name, action in actions.items():
            assert action.option_strings == ["--" + name.replace("_", "-")]
            assert action.default == defaults[name], (command, name)
        assert actions["kernel"].choices == [f.value for f in Family], command
    assert sum(len(p._actions) - 1 for p in parsers.values()) == 50


@pytest.mark.parametrize("command", COMMANDS)
def test_quadrature_rule_is_not_an_option(command, capsys):
    # one fixed Gauss-Legendre rule: no command accepts a knob of it
    for flag in ("--quad-order", "--panels-per-unit"):
        with pytest.raises(SystemExit) as info:
            cli.build_parser().parse_args([command, flag, "4"])
        assert info.value.code == 2
        assert f"unrecognized arguments: {flag}" in capsys.readouterr().err


def test_unread_options_are_rejected(tmp_path):
    # sin2 draws its point sets and takes no --layout
    result = run_cli(["sin2", "--layout", "halton"], tmp_path)
    assert result.returncode == 2
    assert "unrecognized arguments: --layout" in result.stderr
    with pytest.raises(ValueError, match="eigen-scaling does not take eps"):
        ExperimentConfig(command="eigen-scaling", eps=0.5)
    with pytest.raises(ValueError, match="heatmap does not take layout"):
        ExperimentConfig(command="heatmap", layout="equispaced")
    with pytest.raises(ValueError, match="'gaussian' is not a valid Family"):
        ExperimentConfig(command="thm41", kernel="gaussian")
    # an unread field given its default is the default run, hash included
    assert ExperimentConfig(command="identity", dim=1, layout="equispaced", eps=0.25) == (
        ExperimentConfig(command="identity")
    )


_FIELD_NAMES = {f.name for f in fields(ExperimentConfig)} - {"command"}


class _Recorder:
    """Stands in for a config and records in ``read`` the ExperimentConfig
    fields taken from it.  ``config_hash`` reads every field and is not
    counted."""

    def __init__(self, target, read):
        self._target, self._read = target, read

    def __getattr__(self, name):
        if name in _FIELD_NAMES:
            self._read.add(name)
        return getattr(self._target, name)

    def config_hash(self):
        return self._target.config_hash()


# small runs of each command: every option its runner reads is reached
_SMALL = {
    "eigen-scaling": {"n_max": 20, "n_count": 3},
    "heatmap": {"n": 12},
    "equivalence": {"n": 12},
    "identity": {"n": 4, "trials": 1},
    "sin2": {"n": 6, "trials": 1},
    "thm41": {"n": 8, "trials": 1, "shift_factor": 0.5},
}


@pytest.mark.parametrize("command", COMMANDS)
def test_runners_read_exactly_the_table_rows(command):
    read = set()
    cfg = ExperimentConfig(command=command, **_SMALL[command])
    report = run(_Recorder(cfg, read))
    assert report.rows
    # the CLI reads the output paths, and every command takes --seed
    untracked = {"seed", "out_csv", "out_svg"}
    assert read - {"seed"} == set(COMMANDS[command].options) - untracked


def test_readme_command_lines_parse():
    lines = re.findall(r"^kernstab (\S.*)$", README.read_text(), re.M)
    assert len(lines) >= len(COMMANDS)
    for line in lines:
        args = cli.build_parser().parse_args(line.split())
        ExperimentConfig(**vars(args))


def test_readme_flag_table_matches_the_commands():
    rows = re.findall(r"^\| `([a-z0-9-]+)` \| (.*) \|$", README.read_text(), re.M)
    assert [command for command, _ in rows] == list(COMMANDS)
    for command, flags in rows:
        # the header's "besides --kernel, --seed, --out-csv"
        options = {"kernel", "seed", "out_csv"}
        for cell in flags.split(", "):
            for flag in cell.strip("`").split("/"):
                assert flag.startswith("--"), (command, flag)
                options.add(flag[2:].replace("-", "_"))
        assert options == set(COMMANDS[command].options), command


def test_abbreviated_flags_are_rejected(tmp_path):
    # a unique prefix (--c of --c-conv) and an ambiguous one (--n of --n-min,
    # --n-max and --n-count) are both unknown flags
    for args in (
        ["thm41", "--kernel", "matern-quadratic", "--n", "8", "--trials", "1", "--c", "0.01"],
        ["eigen-scaling", "--n", "7"],
    ):
        result = run_cli(args, tmp_path)
        assert result.returncode == 2, args
        assert "unrecognized arguments" in result.stderr


def test_fourier_node_budget_exits_3(tmp_path):
    # 4.8e13 nodes would need TiB of panel edges: refused before any work
    start = time.perf_counter()
    result = run_cli(
        ["identity", "--n", "6", "--trials", "1", "--fourier-cutoff", "1e12"], tmp_path, timeout=60
    )
    assert time.perf_counter() - start < 5.0
    assert result.returncode == 3
    assert "numerical failure" in result.stderr
    assert "Traceback" not in result.stderr


@pytest.mark.parametrize("cutoff", ["1e305", "1e308"])
def test_fourier_cutoff_beyond_any_panel_count_exits_3(cutoff, tmp_path):
    # 2 cutoff / width overflows an integer panel count (at 1e308 it is inf)
    result = run_cli(["identity", "--trials", "1", "--fourier-cutoff", cutoff], tmp_path, timeout=60)
    assert result.returncode == 3, result.stderr
    assert "numerical failure" in result.stderr
    assert "Traceback" not in result.stderr
    assert len(result.stderr) < 200, result.stderr


@pytest.mark.parametrize("args", [
    ["equivalence", "--dim", "3", "--n", "10000000"],
    ["eigen-scaling", "--n-min", "10000000", "--n-max", "10000000", "--n-count", "1"],
])
def test_sizes_beyond_memory_exit_2(args, tmp_path):
    # one 10^7 x 10^7 float64 matrix is 800 TB
    start = time.perf_counter()
    result = run_cli(args, tmp_path, timeout=60)
    assert time.perf_counter() - start < 10.0
    assert result.returncode == 2
    assert "usage error" in result.stderr
    assert "Traceback" not in result.stderr


def test_memory_error_is_a_usage_error(monkeypatch, capsys):
    def exhausted(cfg):
        raise MemoryError("Unable to allocate 1.00 TiB")

    monkeypatch.setattr(cli, "run", exhausted)
    assert cli.main(["heatmap", "--n", "10"]) == 2
    assert "usage error: Unable to allocate" in capsys.readouterr().err


def test_numerical_failure_exits_3(monkeypatch, capsys):
    # both numerical failures a run can raise map to exit 3, never a traceback
    for exc in (SingularMatrixError("matrix numerically singular"),
                QuadratureError("quadrature missed its target")):
        def fail(cfg, exc=exc):
            raise exc

        monkeypatch.setattr(cli, "run", fail)
        assert cli.main(["heatmap", "--n", "10"]) == 3
        assert capsys.readouterr().err == f"numerical failure: {exc}\n"


def test_singular_gram_in_equivalence_exits_3(tmp_path):
    # k(X, X) of 400 equispaced points is indefinite in double precision for
    # matern-quadratic; lambda_min is roundoff, and its digits follow the BLAS
    result = run_cli(
        ["equivalence", "--kernel", "matern-quadratic", "--dim", "1", "--n", "400",
         "--seed", "0"],
        tmp_path,
    )
    assert result.returncode == 3
    assert re.fullmatch(
        r"numerical failure: matrix numerically singular for inverse square root "
        r"\(lambda_min = -?\d\.\d{3}e[+-]\d\d, lambda_max = 1\.169e\+03\)\n",
        result.stderr,
    ), result.stderr
