import argparse
import csv
import hashlib
import math
import re
import subprocess
import sys
import time
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

from conftest import BLAS_THREADS, command_ids
from heatmap_reference import assert_decodes_to_loop_colors, heatmap_matrix, heatmap_spectrum
from kernstab import Family, QuadratureError, SingularMatrixError, analysis, cli
from kernstab.experiments import _CHECK_COLUMNS, COMMANDS, ExperimentConfig, ExperimentReport, run
from kernstab.kernels import PROFILES

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
    assert rows[0].endswith(",series,exponent,log_constant,r_squared,samples,target")
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
    assert conv[2:8] == ["lambda_min_conv", "nan", "nan", "nan", "0", "11"]
    # each law's verdict is the checks table's row of the same trial
    checks = _scaling_rows(tmp_path / "eigen-scaling.checks.csv")
    assert [(row["trial"], row["name"]) for row in checks] == [
        ("0", "fit-lambda_min_sym"), ("1", "fit-lambda_min_conv"),
    ]
    assert (checks[0]["satisfied"], checks[0]["reliable"]) == ("true", "true")
    assert (checks[1]["satisfied"], checks[1]["reliable"]) == ("false", "false")


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


# SHA-256 of matern-quadratic's fit sidecar on the default grid, the same at
# 1 and 2 BLAS threads: the bound constants enter no fit.  Re-recorded when
# the law table lost its tolerance and satisfied columns to the checks table,
# and again when the config hash changed with the fourier_cutoff field gone
QUADRATIC_FIT_DIGEST = "dd3745ad0f82805e5a52dafaf88520a2c259b1fdd7993c3a722f3231b44b1548"


def _scaling_rows(path):
    with open(path, newline="") as table:
        return list(csv.DictReader(table))


@pytest.mark.parametrize("family", list(Family), ids=lambda family: family.value)
def test_eigen_scaling_bounds_lie_below_every_reliable_sample(family, tmp_path):
    # criterion 05 read from the command's own artifact: a bound column is
    # finite exactly when its family states the constant, its dashed curve is
    # drawn exactly then, and each finite bound lies at or below its row's
    # lambda_min wherever that row is above the precision floor
    result = run_cli(["eigen-scaling", "--kernel", family.value], tmp_path)
    assert result.returncode == 0, result.stderr
    rows = _scaling_rows(tmp_path / "eigen-scaling.csv")
    svg = (tmp_path / "eigen-scaling.svg").read_text()
    profile = PROFILES[family]
    for series, constant, label in (
        ("sym", profile.c_min, "bound(k)<"),
        ("conv", profile.c_conv, "bound(k*)<"),
    ):
        bounds = [float(row[f"bound_{series}"]) for row in rows]
        above = [
            row["n"]
            for bound, row in zip(bounds, rows)
            if row[f"reliable_{series}"] == "true" and bound > float(row[f"lambda_min_{series}"])
        ]
        assert above == [], series
        assert [math.isfinite(bound) for bound in bounds] == [constant is not None] * len(rows)
        assert (label in svg) == (constant is not None)
    if profile.c_min is None:
        fit = (tmp_path / "eigen-scaling.fit.csv").read_bytes()
        assert hashlib.sha256(fit).hexdigest() == QUADRATIC_FIT_DIGEST
        # a constant given by flag is drawn, and only for its own series
        result = run_cli(["eigen-scaling", "--kernel", family.value, "--c-min", "0.1"], tmp_path)
        assert result.returncode == 0, result.stderr
        rows = _scaling_rows(tmp_path / "eigen-scaling.csv")
        assert all(math.isfinite(float(row["bound_sym"])) for row in rows)
        assert all(row["bound_conv"] == "nan" for row in rows)
        svg = (tmp_path / "eigen-scaling.svg").read_text()
        assert "bound(k)<" in svg and "bound(k*)<" not in svg


def test_heatmap_command(tmp_path):
    result = run_cli(
        ["heatmap", "--kernel", "matern-linear", "--n", "50", "--dim", "2"],
        tmp_path,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.startswith(
        "wrote heatmap.csv\nwrote heatmap.spectrum.csv\nwrote heatmap.svg\n"
    )
    assert "checks: 2 total, 0 failed (reliable)" in result.stdout
    lines = (tmp_path / "heatmap.csv").read_text().splitlines()
    assert lines[0] == "config,version,trial,name,lhs,rhs,slack,satisfied,reliable"
    assert [line.split(",")[3] for line in lines[1:]] == [
        "equivalence-lower", "equivalence-upper",
    ]
    lines = (tmp_path / "heatmap.spectrum.csv").read_text().splitlines()
    assert lines[0] == "config,version,index,eigenvalue"
    assert len(lines) == 51
    values = np.array([float(line.split(",")[3]) for line in lines[1:]])
    assert values.min() >= 0.75 and values.max() < 1.0
    assert values.tobytes() == heatmap_spectrum("matern-linear", 50).tobytes()
    M = heatmap_matrix("matern-linear", 50)
    grid = np.abs(M)
    diag = np.diag(grid)
    assert np.all((0.9 <= diag) & (diag <= 1.0))
    off = grid - np.diag(diag)
    assert np.abs(off).max() <= 1e-1
    # decoded, every cell has the per-cell loop's color
    svg = (tmp_path / "heatmap.svg").read_text()
    assert_decodes_to_loop_colors(svg, grid)


def _without_config_column(path):
    return [line.split(",", 1)[1] for line in path.read_text().splitlines()]


def test_heatmap_tables_are_those_of_equivalence_on_halton_points(tmp_path):
    # one whitened-spectrum route: heatmap's check rows and spectrum are
    # equivalence's on the same Halton points, byte for byte but the config
    options = ["--kernel", "matern-linear", "--dim", "2", "--n", "60"]
    for args in (["heatmap", *options], ["equivalence", *options, "--layout", "halton"]):
        result = run_cli(args, tmp_path)
        assert result.returncode == 0, result.stderr
    for table in ("csv", "spectrum.csv"):
        heatmap = _without_config_column(tmp_path / f"heatmap.{table}")
        assert heatmap == _without_config_column(tmp_path / f"equivalence.{table}")
    assert len(heatmap) == 61


def test_heatmap_fails_the_lower_check_at_a_large_shift(tmp_path):
    # a shift of one separation takes w_min to 0.4109, far below 3/4: a
    # reliable failure, exit 1, and the picture is still drawn
    result = run_cli(
        ["heatmap", "--kernel", "matern-basic", "--dim", "2", "--n", "50",
         "--shift-factor", "1.0"],
        tmp_path,
    )
    assert result.returncode == 1, result.stderr
    assert re.search(r"^  equivalence-lower: lhs=7.500000e-01 rhs=4\.1085\d\de-01 FAIL$",
                     result.stdout, re.M)
    assert "checks: 2 total, 1 failed (reliable)" in result.stdout
    assert (tmp_path / "heatmap.svg").is_file()


def test_heatmap_runs_in_one_dimension(tmp_path):
    result = run_cli(["heatmap", "--dim", "1", "--n", "30"], tmp_path)
    assert result.returncode == 0, result.stderr
    assert sorted(path.name for path in tmp_path.iterdir()) == [
        "heatmap.csv", "heatmap.spectrum.csv", "heatmap.svg",
    ]
    assert "checks: 2 total, 0 failed (reliable)" in result.stdout


# SHA-256 of every artifact at --seed 0 (numpy 2.4 with OpenBLAS, x86-64):
# a change that moves one output byte of these commands fails here.  The
# equivalence digests depend on the BLAS thread count through the sums of
# its matrix products, so they are recorded at 1 and at 2 threads, keyed by
# that count, and the entry of the min(2, cores) threads that
# tests/conftest.py gives every child is compared; every other digest holds
# at both, for the sizes pinned here.  Larger runs need not: on the default
# eigen-scaling grid lambda_min moves from n = 329 on, and fit.csv with it.
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
# heatmap.csv took the digest of heatmap.spectrum.csv when the spectrum
# became heatmap's table and the n x n grid of |M| was no longer written
# (the SVG draws it): the same bytes under the table's name, and the SVG
# kept its digest.
# heatmap.svg alone was re-recorded when its grid became one embedded
# palette PNG in place of one <rect> per run of one color (3911 bytes
# instead of 134078 here): decoded, every cell keeps its color, and every
# other digest stayed.  The deflate bytes depend on the zlib build; this one
# was recorded with zlib.ZLIB_RUNTIME_VERSION 1.2.13.
# heatmap.csv was re-recorded and heatmap.spectrum.csv added when heatmap's
# spectrum came from equivalence's Cholesky congruence in place of eigvalsh
# of the whitened matrix, and its table became the two equivalence checks:
# config column dropped, both are byte for byte the tables of equivalence
# --layout halton with the same options, at 1 BLAS thread as at 2 (before
# the change, the two spectra differed by at most 3.83e-7 at n = 1000).
# heatmap.svg kept its digest.
# The eigen-scaling CSV and fit digests and the thm41 digest were re-recorded
# when conv_gram came to sum its tail term W W^T column by column in order
# in place of BLAS's W @ W.T and its symmetrizing pass, so that its rows do
# not depend on the rows built with them: k* moved in its last bits.  Here
# lambda_min_conv moved on all 8 rows, by at most 3.2e-4 relative at n = 32,
# no flag with it, and the fit's k* exponent went from 7.225790 to
# 7.225666; thm41's rhs and slack moved by at most 3.5e-12 relative, lhs
# and every verdict stayed.  lambda_min_sym, reliable_sym and the SVG kept
# their bytes, at 1 BLAS thread as at 2.
# The eigen-scaling fit digest was re-recorded and eigen-scaling.checks.csv
# added when the fit checks came to be written by the row builder of every
# other command: fit.csv keeps the law alone, its tolerance and satisfied
# columns gone (each of its rows is the old row less those two fields), and
# checks.csv holds the two checks in the columns of every other check table.
# The CSV and SVG kept their digests.
# The thm41 digest was re-recorded when verify_conv_chain came to copy its
# directions into contiguous rows, so that a check no longer depends on
# whether a direction is a strided column of the eigenvector matrix: the two
# eigenvector trials moved by at most 7.7e-16 relative, every verdict
# stayed, at 1 BLAS thread as at 2.
# The equivalence entry at n = 600 was re-recorded at 1 and 2 BLAS threads
# when the products of the triangular inverse and of the congruence came to
# be formed in chunks of at most one row block: OpenBLAS sums a tall product
# taken by row chunks in another order, so the spectrum moved in its
# roundoff digits (by at most 4.0e-15 here and 6.9e-14 at n = 2000), no
# verdict and no reliable flag with it; up to 256 points there is one leaf
# and no product, and the n = 200 entry kept its digests.
# Every CSV digest was re-recorded at 1 and 2 BLAS threads when the
# fourier_cutoff field left ExperimentConfig: its canonical string, and with
# it the config hash in every row, changed.  Past the config column every
# file kept its bytes but identity.csv, whose rhs and slack moved with its
# certified tail, the smaller of (sum |a_j|)^2 m(L) and the new ||a||^2
# bound (lhs and every verdict stayed); every SVG kept its digest.
GOLDEN_DIGESTS = {
    ("heatmap", "--kernel", "matern-linear", "--dim", "2", "--n", "60"): {
        "heatmap.csv": "0ae9bcd829bb364822106058f1bac195de47411c8f47c98eacb1391b5055beba",
        "heatmap.spectrum.csv": "5a3313f3010a5bf3b490d8badd18e5051a42fb43834c80131275ea4124ac014f",
        "heatmap.svg": "16d361a2f7dc15b1043d93144f712c751e41a03fb9e488f49981e9cad7cc08e3",
    },
    ("equivalence", "--kernel", "matern-basic", "--dim", "3", "--n", "200"): {
        1: {
            "equivalence.csv": "f74c6bfc9aaa0fa4c8e43b248b8b770e2de09098c9fe720b31569dedef51a8ac",
            "equivalence.spectrum.csv": "c54a572f4e0f6b87ec25842ae567b5bf7fc5449198bee7ba3af70abc2e72ec19",
        },
        2: {
            "equivalence.csv": "fc451e8188aea19f34785bd1ea6cc1f4a4d4489fb96547af1903fe1471e777fb",
            "equivalence.spectrum.csv": "76ad0015e0a3fd47f10f2687208e16c6e8d2217a0451b08904372774cf51feb8",
        },
    },
    ("equivalence", "--kernel", "matern-basic", "--dim", "3", "--n", "600"): {
        1: {
            "equivalence.csv": "0868b493b0aef6eaa8df08ea6cd18b428afd7c21863b4d58e3c319ed20a28024",
            "equivalence.spectrum.csv": "74ddeea07d92b240e0d105ea01640e8656a7182305d41e8aea7db284b71b20b5",
        },
        2: {
            "equivalence.csv": "524d74ea48bcaddfe2a2611867402c63e689c1642abb0f53603ca8e5bf187009",
            "equivalence.spectrum.csv": "862109f779b07b609290fe49978ab1cb0a5983665a39fdb0f0d5a1567e02bee1",
        },
    },
    ("identity", "--kernel", "matern-basic", "--n", "6"): {
        "identity.csv": "4ccd04d5849f6ee093a4d7a0a3a9e12e8ac4af63aa781931e273e90e36a2977d",
    },
    ("sin2", "--kernel", "matern-linear", "--n", "10", "--trials", "2"): {
        "sin2.csv": "a409bde9510204615258287ea4ccb959f2e2007a116267034fd0420e49516d24",
    },
    ("eigen-scaling", "--kernel", "matern-linear", "--n-max", "40", "--n-count", "8"): {
        "eigen-scaling.csv": "8dd656a91fabee829232df7c4c09ad44ad1c4518b3dd3c2a05651be450a21751",
        "eigen-scaling.checks.csv": "9c48564a9fdea7c490897f962b8396dd158a3ee7f66bc59d11fd6ec1ee6c1bf6",
        "eigen-scaling.fit.csv": "9c66e29b2eff75f50f9905d1c9bf22def4f2b79a4c5fff68e74e9f211500f297",
        "eigen-scaling.svg": "6d9c28dd98d8d2549abae6f17b0a973059aa142d236a4de6fb6c769246da257a",
    },
    ("thm41", "--kernel", "matern-basic", "--n", "20", "--shift-factor", "0.5"): {
        "thm41.csv": "0da3b571931266d37277f5bdcf939dee3e1bf9928e0e4de87580066b73403ae6",
    },
}


@pytest.mark.parametrize("args", list(GOLDEN_DIGESTS), ids=command_ids(GOLDEN_DIGESTS))
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


# one small run of every command, each exiting 0
SMALL_RUNS = [
    ["identity", "--n", "3", "--trials", "1"],
    ["sin2", "--n", "5", "--trials", "1"],
    ["thm41", "--n", "20", "--trials", "1", "--shift-factor", "0.5"],
    ["equivalence", "--n", "30"],
    ["heatmap", "--n", "30"],
    ["eigen-scaling", "--n-max", "40", "--n-count", "4"],
]


# a check line as the CLI prints it, and the status it prints for each pair
# of (satisfied, reliable) flags
PRINTED_CHECK = re.compile(r"^  (\S+): lhs=(\S+) rhs=(\S+) (ok|FAIL|unreliable)$", re.M)
STATUS = {("true", "true"): "ok", ("true", "false"): "ok",
          ("false", "true"): "FAIL", ("false", "false"): "unreliable"}


@pytest.mark.parametrize("args", SMALL_RUNS, ids=lambda args: args[0])
def test_every_command_writes_its_verdict_in_one_check_table(args, tmp_path, monkeypatch, capsys):
    # exactly one table in the check columns, row for row the printed checks,
    # and no other table with a verdict column
    monkeypatch.chdir(tmp_path)
    assert cli.main(args) == 0
    printed = PRINTED_CHECK.findall(capsys.readouterr().out)
    headers = {}
    for path in sorted(tmp_path.glob("*.csv")):
        with open(path, newline="") as table:
            headers[path.name] = next(csv.reader(table))
    check_header = ["config", "version", *_CHECK_COLUMNS]
    [check_table] = [name for name, header in headers.items() if header == check_header]
    verdicts = [
        name for name, header in headers.items()
        if name != check_table and {"satisfied", "reliable"} & set(header)
    ]
    assert verdicts == []
    rows = _scaling_rows(tmp_path / check_table)
    assert printed and [
        (row["name"], "%.6e" % float(row["lhs"]), "%.6e" % float(row["rhs"]),
         STATUS[row["satisfied"], row["reliable"]])
        for row in rows
    ] == printed


def test_no_command_loads_openssl(tmp_path):
    # hashlib imports _hashlib, which maps OpenSSL's libcrypto (about 3.5 MiB
    # of resident memory) into every process that imports it
    script = (
        "import sys\n"
        "from kernstab import cli\n"
        f"codes = [cli.main(argv) for argv in {SMALL_RUNS!r}]\n"
        "print(codes, sorted({'_hashlib', '_ssl'} & set(sys.modules)))\n"
    )
    result = subprocess.run(
        [sys.executable, "-c", script], cwd=tmp_path, capture_output=True, text=True, timeout=60
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.splitlines()[-1] == f"{[0] * len(SMALL_RUNS)} []"


@pytest.mark.parametrize(
    "args", [[command] for command in COMMANDS] + SMALL_RUNS + list(GOLDEN_DIGESTS)
)
def test_config_hash_is_sha256_of_the_canonical_string(args):
    cfg = ExperimentConfig(**vars(cli.build_parser().parse_args(list(args))))
    expected = hashlib.sha256(cfg.canonical_string().encode()).hexdigest()[:12]
    assert cfg.config_hash() == expected


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


@pytest.mark.parametrize("command, field", [("thm41", "c_conv"), ("sin2", "c_min")])
def test_missing_constant_error_names_the_option_that_supplies_it(command, field, tmp_path):
    # the message names a config field, so its flag is one the command takes
    result = run_cli([command, "--kernel", "matern-quadratic"], tmp_path)
    assert result.returncode == 2
    assert result.stderr.rstrip().endswith(f"; pass {field}"), result.stderr
    flag = "--" + field.replace("_", "-")
    parsed = cli.build_parser().parse_args([command, flag, "0.01"])
    assert getattr(parsed, field) == 0.01


def test_negative_values_in_any_float_form(tmp_path, monkeypatch, capsys):
    # argparse alone reads -1e-3 and -inf after a flag as unknown flags
    spellings = {"spaced": ["--shift-factor", "-1e-3"], "joined": ["--shift-factor=-1e-3"]}
    for name, shift in spellings.items():
        (tmp_path / name).mkdir()
        monkeypatch.chdir(tmp_path / name)
        assert cli.main(["equivalence", "--n", "10", *shift]) == 0
    for table in ("equivalence.csv", "equivalence.spectrum.csv"):
        spaced, joined = ((tmp_path / name / table).read_bytes() for name in ("spaced", "joined"))
        assert spaced == joined, table
    capsys.readouterr()
    for eps in ("-inf", "-1e-3", "-nan"):
        assert cli.main(["sin2", "--eps", eps]) == 2, eps
        assert "usage error: eps must lie in (0, 1)" in capsys.readouterr().err, eps
    # a flag that takes no value is left alone
    with pytest.raises(SystemExit) as info:
        cli.main(["--version", "-1e-3"])
    assert info.value.code == 0


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
    # a shift factor that is not finite and a bound constant that is not
    # finite and positive are usage errors, not a traceback or nan bounds
    for args in (
        ["equivalence", "--n", "10", "--shift-factor", "nan"],
        ["eigen-scaling", "--n-max", "40", "--n-count", "4", "--c-min", "0"],
        ["eigen-scaling", "--n-max", "40", "--n-count", "4", "--c-min", "nan"],
        ["sin2", "--kernel", "matern-linear", "--n", "8", "--trials", "1", "--c-min", "nan"],
        ["thm41", "--n", "8", "--trials", "1", "--c-conv", "nan"],
    ):
        assert cli.main(args) == 2, args
        assert "usage error" in capsys.readouterr().err
    # an eps outside (0, 1) is refused before sin2 takes its square root
    for eps in ("-1", "-inf", "0", "1", "nan"):
        assert cli.main(["sin2", f"--eps={eps}"]) == 2, eps
        assert "usage error: eps must lie in (0, 1)" in capsys.readouterr().err
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


def test_zero_shift_is_a_usage_error(monkeypatch, capsys, tmp_path):
    # at b = 0 every whitened eigenvalue is 1, and w_max < 1 holds only for
    # b != 0: refused before any matrix is built, not a failed check
    monkeypatch.chdir(tmp_path)

    def unexpected(*args):
        raise AssertionError("a Gram matrix was built")

    monkeypatch.setattr(analysis, "gram", unexpected)
    for command in ("equivalence", "heatmap"):
        assert cli.main([command, "--n", "20", "--shift-factor", "0"]) == 2, command
        assert "usage error: shift_factor must be nonzero" in capsys.readouterr().err
    assert not any(tmp_path.iterdir())


def test_equivalence_upper_edge_holds_where_the_norm_bound_cannot_decide(tmp_path):
    # 1-D equispaced matern-linear at n = 690 is whitened by the eigenpairs
    # of A, the norm bound undecided; w_max < 1 at any BLAS thread count
    result = run_cli(["equivalence", "--kernel", "matern-linear", "--n", "690"], tmp_path)
    assert result.returncode == 0, result.stdout + result.stderr
    assert "checks: 2 total, 0 failed (reliable)" in result.stdout


@pytest.mark.parametrize(
    "args, sidecars",
    [(["eigen-scaling", "--n-max", "20", "--n-count", "3"], ["checks", "fit"]),
     (["equivalence", "--n", "10"], ["spectrum"])],
    ids=["eigen-scaling", "equivalence"],
)
def test_sidecar_sits_beside_a_csv_in_a_dotted_directory(args, sidecars, tmp_path):
    # the sidecar name splits the file name alone, never a dot of a directory
    out = tmp_path / "a.b"
    out.mkdir()
    result = run_cli([*args, "--out-csv", str(out / "heat")], tmp_path)
    assert result.returncode == 0, result.stderr
    assert sorted(path.name for path in out.iterdir()) == ["heat", *(f"heat.{s}" for s in sidecars)]


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
    assert sum(len(p._actions) - 1 for p in parsers.values()) == 49


@pytest.mark.parametrize("command", COMMANDS)
def test_quadrature_rule_is_not_an_option(command, capsys):
    # one fixed Gauss-Legendre rule and one Fourier cutoff: no command
    # accepts a knob of either
    for flag in ("--quad-order", "--panels-per-unit", "--fourier-cutoff"):
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


def test_version_has_one_source():
    # pyproject.toml reads the version from the module the CLI prints it from
    tomllib = pytest.importorskip("tomllib")
    project = tomllib.loads((README.parent / "pyproject.toml").read_text())
    assert "version" not in project["project"] and project["project"]["dynamic"] == ["version"]
    assert project["tool"]["setuptools"]["dynamic"]["version"] == {
        "attr": "kernstab._version.__version__"
    }


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
    # the shift sets the panel width: 5.8e7 nodes are refused before any
    # work, and the message blames the shift, the one option that set it
    start = time.perf_counter()
    result = run_cli(["identity", "--trials", "1", "--shift-factor", "1e6"], tmp_path, timeout=60)
    assert time.perf_counter() - start < 5.0
    assert result.returncode == 3
    assert re.fullmatch(
        r"numerical failure: the shift b = \S+ over points of diameter \S+ needs 5\.81e\+07 "
        r"nodes, more than the budget of 16777216; lower it \(--shift-factor\)\n",
        result.stderr,
    ), result.stderr


@pytest.mark.parametrize("args", [
    ["equivalence", "--n", "10", "--shift-factor", "1e160"],
    ["heatmap", "--n", "10", "--shift-factor", "1e200"],
    ["identity", "--trials", "1", "--shift-factor", "1e300"],
])
def test_shift_whose_squared_distances_overflow_is_a_usage_error(args, tmp_path):
    # refused before k(X + b, X) is built: one line that names the shift,
    # and no overflow warning before it
    result = run_cli(args, tmp_path, timeout=60)
    assert result.returncode == 2, result.stderr
    assert re.fullmatch(
        r"usage error: the shift of size \S+ is too large: the squared distances of X \+ b "
        r"and X overflow; lower the shift \(--shift-factor\)\n",
        result.stderr,
    ), result.stderr


def test_huge_finite_shift_below_overflow_runs(tmp_path):
    # at 1e100 the squares stay finite: whitened eigenvalues far below 3/4,
    # a failed reliable check
    result = run_cli(["equivalence", "--n", "10", "--shift-factor", "1e100"], tmp_path)
    assert result.returncode == 1, result.stderr
    assert result.stderr == ""


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


@pytest.mark.parametrize("dim", ["0", "-1"])
def test_dim_below_one_is_a_usage_error(dim, tmp_path, monkeypatch, capsys):
    # refused before any point is drawn, with KernelSpec's reason, not a layout's
    monkeypatch.chdir(tmp_path)
    assert cli.main(["equivalence", "--dim", dim]) == 2
    assert f"usage error: dim must be a positive integer, got {dim}" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


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
