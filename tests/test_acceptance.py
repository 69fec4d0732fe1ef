"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest -s tests/test_acceptance.py`` to see the per-criterion
lines; expected values are frozen reference data for the bundled experiments.
"""

import math
import subprocess
import sys
import time

import numpy as np
import pytest

from kernstab import (
    Family,
    KernelSpec,
    SplitMix64,
    antisymmetric_part,
    closed_form_conv_exp,
    conv_gram,
    conv_lower_bound,
    conv_value,
    equispaced,
    fit_power_law,
    gauss_legendre,
    gram,
    halton,
    sample_grid,
    shifted_gram,
    smoothness,
    symmetric_lower_bound,
    symmetric_part,
    verify_damping_bound,
    verify_shift_identity,
    whiten,
)
from kernstab.geometry import PointSet
from kernstab.spectral import below_precision_floor

BASIC = KernelSpec(Family.MATERN_BASIC, dim=1)
LINEAR = KernelSpec(Family.MATERN_LINEAR, dim=1)

# grid of sample sizes used by the reference data
REFERENCE_GRID = [10, 11, 12, 13, 15, 16, 18, 20, 22, 25, 28, 31, 34, 38, 42, 47,
              52, 57, 64, 71, 78, 87, 97, 107, 119, 132, 146, 162, 180, 200]

REFERENCE_SYM = {
    (Family.MATERN_BASIC, 10): 5.68706355670114e-2,
    (Family.MATERN_BASIC, 200): 2.51271251551893e-3,
    (Family.MATERN_LINEAR, 10): 1.27687777536716e-4,
    (Family.MATERN_LINEAR, 200): 1.05770702379763e-8,
}
REFERENCE_CONV = {
    (Family.MATERN_BASIC, 10): (1.1886014854231e-4, 1e-3),
    (Family.MATERN_BASIC, 200): (1.05769074353314e-8, 1e-3),
    (Family.MATERN_LINEAR, 10): (9.39015888450254e-10, 1e-2),
}
REFERENCE_BOUNDS = {
    ("sym", Family.MATERN_BASIC, 10): 0.0222222222222222,
    ("sym", Family.MATERN_BASIC, 200): 0.00100502512562814,
    ("sym", Family.MATERN_LINEAR, 10): 2.74348422496571e-5,
    ("sym", Family.MATERN_LINEAR, 200): 2.53787814860266e-9,
    ("conv", Family.MATERN_BASIC, 10): 4.11522633744856e-5,
    ("conv", Family.MATERN_BASIC, 200): 3.806817222904e-9,
    ("conv", Family.MATERN_LINEAR, 10): 1.46352610690138e-10,
    ("conv", Family.MATERN_LINEAR, 200): 5.66404252262364e-20,
}
FITTED = {("sym", Family.MATERN_BASIC): 0.4, ("sym", Family.MATERN_LINEAR): 0.16,
          ("conv", Family.MATERN_BASIC): 0.24, ("conv", Family.MATERN_LINEAR): 0.0896}


def _report(criterion, ok, detail):
    print(f"[criterion {criterion:02d}] {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {criterion}: {detail}"


@pytest.fixture(scope="module")
def scaling_data():
    """lambda_min of plain and convolved Gram matrices over the full grid."""
    assert sample_grid(10, 200, 30) == REFERENCE_GRID
    start = time.perf_counter()
    data = {}
    for family in (Family.MATERN_BASIC, Family.MATERN_LINEAR):
        spec = KernelSpec(family, dim=1)
        rows = []
        for n in REFERENCE_GRID:
            X = equispaced(n, 0, 1)
            w_sym = np.linalg.eigvalsh(gram(spec, X))
            w_conv = np.linalg.eigvalsh(conv_gram(spec, X))
            rows.append(
                (
                    n,
                    X.separation,
                    float(w_sym[0]),
                    float(w_conv[0]),
                    bool(below_precision_floor(w_sym)[0]),
                    bool(below_precision_floor(w_conv)[0]),
                )
            )
        data[family] = rows
    return data, time.perf_counter() - start


def test_criterion_01_symmetric_golden_values():
    start = time.perf_counter()
    errors = []
    for (family, n), reference in REFERENCE_SYM.items():
        X = equispaced(n, 0, 1)
        lam = float(np.linalg.eigvalsh(gram(KernelSpec(family, dim=1), X))[0])
        errors.append((family.value, n, abs(lam - reference) / reference))
    elapsed = time.perf_counter() - start
    ok = all(rel <= 1e-8 for _, _, rel in errors) and elapsed < 5.0
    detail = (
        "sym golden values: "
        + ", ".join(f"{fam} n={n} rel={rel:.2e}" for fam, n, rel in errors)
        + f"; runtime {elapsed:.2f} s (< 5 s)"
    )
    _report(1, ok, detail)


def test_criterion_02_conv_golden_values(scaling_data):
    data, elapsed = scaling_data
    errors = []
    ok = True
    for (family, n), (reference, tol) in REFERENCE_CONV.items():
        lam = next(r[3] for r in data[family] if r[0] == n)
        rel = abs(lam - reference) / abs(reference)
        errors.append(f"{family.value} n={n} rel={rel:.2e} (tol {tol:.0e})")
        ok = ok and rel <= tol
    ok = ok and elapsed < 60.0
    _report(2, ok, "; ".join(errors) + f"; grid runtime {elapsed:.2f} s (< 60 s)")


def test_criterion_03_precision_floor(scaling_data):
    data, _ = scaling_data
    rows = data[Family.MATERN_LINEAR]
    high = [(n, lam, flag) for n, _, _, lam, _, flag in rows if n >= 71]
    all_flagged = all(flag for _, _, flag in high)
    negatives = sum(1 for _, lam, _ in high if lam < 0)
    _report(
        3,
        all_flagged,
        f"linear conv values flagged below floor for all n >= 71 "
        f"({len(high)} samples, {negatives} negative; raw values preserved)",
    )


def test_criterion_04_slope_laws(scaling_data):
    data, _ = scaling_data
    results, ok = [], True
    for family in (Family.MATERN_BASIC, Family.MATERN_LINEAR):
        tau = smoothness(KernelSpec(family))
        rows = data[family]
        sym = fit_power_law([(q, v) for _, q, v, _, flag, _ in rows if not flag])
        target = 2 * tau - 1
        ok = ok and abs(sym.exponent - target) <= 0.15
        results.append(f"{family.value} sym {sym.exponent:.3f} (target {target:g}+-0.15)")
        conv_samples = [
            (q, v) for n, q, _, v, _, flag in rows if not flag and n <= 52
        ]
        conv = fit_power_law(conv_samples)
        target = 4 * tau - 1
        ok = ok and abs(conv.exponent - target) <= 0.30
        results.append(f"conv {conv.exponent:.3f} (target {target:g}+-0.3)")
    _report(4, ok, "; ".join(results))


def test_criterion_05_dashed_constants(scaling_data):
    data, _ = scaling_data
    ok = True
    details = []
    for family in (Family.MATERN_BASIC, Family.MATERN_LINEAR):
        tau = smoothness(KernelSpec(family))
        rows = data[family]
        for n in (10, 200):
            q = next(r[1] for r in rows if r[0] == n)
            bound_sym = symmetric_lower_bound(tau, 1, q, FITTED[("sym", family)])
            bound_conv = conv_lower_bound(tau, 1, q, FITTED[("conv", family)])
            for kind, value in (("sym", bound_sym), ("conv", bound_conv)):
                reference = REFERENCE_BOUNDS[(kind, family, n)]
                rel = abs(value - reference) / reference
                ok = ok and rel <= 1e-3
                details.append(f"{family.value}/{kind}/n={n} rel={rel:.1e}")
        # the bound must lie below lambda_min at every reliable sample
        for n, q, lam_sym, lam_conv, flag_sym, flag_conv in rows:
            if not flag_sym:
                ok = ok and lam_sym >= symmetric_lower_bound(
                    tau, 1, q, FITTED[("sym", family)]
                )
            if not flag_conv:
                ok = ok and lam_conv >= conv_lower_bound(
                    tau, 1, q, FITTED[("conv", family)]
                )
    _report(5, ok, "bound curves match references and minorize all reliable samples; "
            + ", ".join(details[:4]) + ", ...")


def test_criterion_06_spectral_equivalence():
    start = time.perf_counter()
    ok = True
    details = []
    configs = [
        (KernelSpec(Family.MATERN_LINEAR, dim=2), halton(50, 2)),
        (KernelSpec(Family.MATERN_QUADRATIC, dim=3), halton(50, 3)),
    ]
    for spec, X in configs:
        b = 0.1 * X.separation * np.ones(spec.dim) / math.sqrt(spec.dim)
        w = np.linalg.eigvalsh(whiten(gram(spec, X), shifted_gram(spec, X, b)))
        inside = w.min() >= 0.75 and w.max() <= 1.0 - 1e-12
        ok = ok and inside
        details.append(f"{spec.family.value} d={spec.dim} spectrum [{w.min():.4f}, {w.max():.8f}]")

    spec, X = configs[0]
    A = gram(spec, X)
    rng = SplitMix64(2024)
    worst = -math.inf
    lo, hi = math.log(0.1 * X.separation), math.log(math.sqrt(2.0))
    for _ in range(100):
        magnitude = math.exp(lo + rng.uniform() * (hi - lo))
        b = magnitude * rng.direction(2)
        w_max = float(np.linalg.eigvalsh(whiten(A, shifted_gram(spec, X, b)))[-1])
        worst = max(worst, w_max)
    elapsed = time.perf_counter() - start
    ok = ok and worst <= 1.0 + 1e-10 and elapsed < 10.0
    details.append(f"max lambda_max over 100 random shifts {worst:.12f} (<= 1+1e-10)")
    _report(6, ok, "; ".join(details) + f"; runtime {elapsed:.2f} s (< 10 s)")


def test_criterion_07_shift_identity():
    start = time.perf_counter()
    rng = SplitMix64(7)
    specs = [BASIC, LINEAR]
    failures = 0
    for trial in range(50):
        spec = specs[trial % 2]
        n = rng.integer(3, 8)
        while True:
            pts = np.sort(rng.uniforms(n))
            if 0.5 * np.min(np.diff(pts)) > 1e-3:
                break
        X = PointSet(pts[:, None], np.array([[0.0, 1.0]]))
        alpha = rng.symmetric(n)
        b = (0.1 + 0.9 * rng.uniform()) * X.separation
        if not verify_shift_identity(spec, X, alpha, b).satisfied:
            failures += 1
    elapsed = time.perf_counter() - start
    ok = failures == 0 and elapsed < 30.0
    _report(7, ok, f"50 random identity configs, {failures} failures; "
            f"runtime {elapsed:.2f} s (< 30 s)")


def test_criterion_08_quadratic_form_inequalities():
    rng = SplitMix64(8)
    worst_bound, worst_null = 0.0, 0.0
    for _ in range(1000):
        n = rng.integer(2, 12)
        A = rng.symmetric(n, n)
        alpha = rng.symmetric(n)
        lhs = abs(alpha @ symmetric_part(A) @ alpha)
        rhs = np.linalg.norm(A @ alpha) * np.linalg.norm(alpha)
        worst_bound = max(worst_bound, lhs - rhs)
        worst_null = max(worst_null, abs(alpha @ antisymmetric_part(A) @ alpha))
    ok = worst_bound <= 1e-12 and worst_null <= 1e-12
    _report(8, ok, f"1000 random matrices: max(|<sym(A)a,a>| - ||Aa||*||a||) = "
            f"{worst_bound:.2e}, max |<antisym(A)a,a>| = {worst_null:.2e}")


def test_criterion_09_damping_suite():
    rng = SplitMix64(9)
    sets = [equispaced(20, 0, 1), equispaced(12, 0, 1)]
    for n in (12, 20):
        while True:
            pts = np.sort(rng.uniforms(n))
            if 0.5 * np.min(np.diff(pts)) > 1e-3:
                break
        sets.append(PointSet(pts[:, None], np.array([[0.0, 1.0]])))
    checked, failures = 0, 0
    for spec in (BASIC, LINEAR):
        for X in sets:
            alpha = rng.symmetric(len(X))
            for eps in (0.1, 0.25, 0.5):
                shifts = [math.sqrt(eps) * X.separation * kappa for kappa in (0.1, 0.5, 1.0)]
                for check in verify_damping_bound(spec, X, alpha, shifts, eps):
                    checked += 1
                    failures += 0 if check.satisfied else 1
    ok = failures == 0
    _report(9, ok, f"damping suite: {checked} checks over eps x shift sweep, "
            f"{failures} failures (improved variant included for tau = 2)")


def test_criterion_10_quadrature_oracle():
    worst = 0.0
    for x in np.linspace(0, 1, 20):
        for z in np.linspace(0, 1, 20):
            worst = max(
                worst,
                abs(conv_value(BASIC, x, z, (0, 1)) - closed_form_conv_exp(x, z, (0, 1))),
            )
    exactness = 0.0
    for order in (2, 8, 20, 40, 64):
        rule = gauss_legendre(order)
        for degree in range(0, 2 * order, 3):
            exact = 2.0 / (degree + 1) if degree % 2 == 0 else 0.0
            exactness = max(
                exactness, abs(float(np.sum(rule.weights * rule.nodes ** degree)) - exact)
            )
    ok = worst <= 1e-12 and exactness <= 1e-13
    _report(10, ok, f"conv oracle max |quadrature - closed form| = {worst:.2e} "
            f"(<= 1e-12); monomial exactness error {exactness:.2e} (<= 1e-13)")


def test_criterion_11_determinism(tmp_path):
    commands = [
        ["eigen-scaling", "--kernel", "matern-linear", "--n-min", "10",
         "--n-max", "30", "--n-count", "5", "--seed", "3"],
        ["identity", "--kernel", "matern-basic", "--n", "6", "--seed", "3",
         "--trials", "5"],
    ]
    ok = True
    for i, command in enumerate(commands):
        outputs = []
        for run_id in ("a", "b"):
            csv = tmp_path / f"{i}-{run_id}.csv"
            result = subprocess.run(
                [sys.executable, "-m", "kernstab", *command, "--out-csv", str(csv)],
                cwd=tmp_path, capture_output=True, text=True,
            )
            ok = ok and result.returncode == 0
            outputs.append(csv.read_bytes())
        ok = ok and outputs[0] == outputs[1]
    _report(11, ok, "repeated runs with identical flags produce byte-identical CSVs")
