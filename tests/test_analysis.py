import inspect
import math
import tracemalloc

import numpy as np
import pytest

from kernstab import (
    Family,
    KernelSpec,
    analysis,
    cond_upper_bound,
    conv_lower_bound,
    conv_lower_bound_from_sym,
    equispaced,
    experiments,
    fit_power_law,
    gram,
    halton,
    sample_grid,
    spectral_density_1d,
    sym_eigen,
    symmetric_lower_bound,
    verify_conv_chain,
    verify_damping_bound,
    verify_equivalence,
    verify_shift_identity,
)
from kernstab.geometry import PointSet
from kernstab.kernels import PROFILES
from kernstab.quadrature import fourier_quadratic_form

BASIC = KernelSpec(Family.MATERN_BASIC, dim=1)
LINEAR = KernelSpec(Family.MATERN_LINEAR, dim=1)


def _interval_set(values):
    pts = np.asarray(values, dtype=float)[:, None]
    return PointSet(pts, np.array([[0.0, 1.0]]))


def test_symmetric_lower_bound_matches_reference_curve():
    # fitted constant 0.4 reproduces the reference dashed data at n = 10, 200
    assert symmetric_lower_bound(1, 1, 1 / 18, 0.4) == pytest.approx(
        0.0222222222222222, rel=1e-12
    )
    assert symmetric_lower_bound(1, 1, 1 / 398, 0.4) == pytest.approx(
        0.00100502512562814, rel=1e-12
    )
    assert symmetric_lower_bound(2, 1, 1 / 18, 0.16) == pytest.approx(
        2.74348422496571e-05, rel=1e-12
    )


def test_symmetric_lower_bound_hypothesis():
    with pytest.raises(ValueError):
        symmetric_lower_bound(0.5, 1, 0.1, 0.4)
    with pytest.raises(ValueError):
        symmetric_lower_bound(1, 1, -0.1, 0.4)


def test_symmetric_lower_bound_homogeneity():
    one = symmetric_lower_bound(1, 1, 0.01, 0.4)
    two = symmetric_lower_bound(1, 1, 0.02, 0.4)
    assert two == pytest.approx(2 * one, rel=1e-14)


def test_conv_lower_bound_matches_reference_curve():
    assert conv_lower_bound(1, 1, 1 / 18, 0.24) == pytest.approx(
        4.11522633744856e-05, rel=1e-12
    )
    assert conv_lower_bound(1, 1, 1 / 398, 0.24) == pytest.approx(
        3.806817222904e-09, rel=1e-12
    )
    assert conv_lower_bound(2, 1, 1 / 18, 0.0896) == pytest.approx(
        1.46352610690138e-10, rel=1e-12
    )
    assert conv_lower_bound(2, 1, 1 / 398, 0.0896) == pytest.approx(
        5.66404252262364e-20, rel=1e-12
    )


def test_conv_lower_bound_companion_form():
    q, lam = 1 / 18, 0.05
    assert conv_lower_bound_from_sym(1, q, lam, 0.24) == pytest.approx(
        0.24 * q * lam * lam, rel=1e-15
    )


def test_cond_upper_bound():
    assert cond_upper_bound(1.0, 1 / 18, 1.0) == pytest.approx(104976.0, rel=1e-12)
    assert cond_upper_bound(1.0, 1 / 36, 1.0) == pytest.approx(
        2 ** 4 * 104976.0, rel=1e-12
    )


def test_cond_upper_bound_fitted_on_observed_conditions():
    # fit the constant on small sample sizes, verify on the larger ones
    from kernstab import conv_gram

    tau = 1.0
    observed = []
    for n in sample_grid(10, 200, 30):
        X = equispaced(n, 0, 1)
        w = np.linalg.eigvalsh(conv_gram(BASIC, X))
        observed.append((n, X.separation, w[-1] / w[0]))
    c_fit = max(value * q ** (4 * tau) for n, q, value in observed if n <= 50)
    for n, q, value in observed:
        if n >= 50:
            assert value <= cond_upper_bound(tau, q, c_fit)


def test_default_constants():
    assert PROFILES[Family.MATERN_BASIC].c_min == 0.4
    assert PROFILES[Family.MATERN_LINEAR].c_conv == 0.0896
    assert PROFILES[Family.MATERN_QUADRATIC].c_min is None


def test_equivalence_zero_shift_is_marginal():
    result = verify_equivalence(LINEAR, equispaced(12, 0, 1), [0.0])
    assert result.lower.satisfied
    assert result.upper.lhs == pytest.approx(1.0, abs=1e-9)


@pytest.mark.parametrize(
    "family,dim,n",
    [
        (Family.MATERN_BASIC, 1, 40),
        (Family.MATERN_LINEAR, 2, 50),
        (Family.MATERN_QUADRATIC, 3, 50),
    ],
)
def test_equivalence_small_shift(family, dim, n):
    X = equispaced(n, 0, 1) if dim == 1 else halton(n, dim)
    spec = KernelSpec(family, dim=dim)
    b = 0.1 * X.separation * np.ones(dim) / math.sqrt(dim)
    result = verify_equivalence(spec, X, b)
    assert result.lower.satisfied and result.upper.satisfied
    assert result.spectrum.min() >= 0.75
    assert result.spectrum.max() < 1.0


@pytest.mark.parametrize("n", [520, 610, 690, 700, 760, 780, 790])
def test_equivalence_holds_where_the_norm_bound_cannot_decide(n, monkeypatch):
    # 1-D equispaced matern-linear from n = 400 to 790 falls back to eigh(A),
    # whose eigenpairs whiten: w_max < 1, the theorem for b != 0, and w_min
    # at least 0.97, 1.6e-2 below the lattice value 0.9855
    eigh, solves = np.linalg.eigh, []
    monkeypatch.setattr(np.linalg, "eigh", lambda M: solves.append(len(M)) or eigh(M))
    X = equispaced(n, 0, 1)
    result = verify_equivalence(LINEAR, X, [0.1 * X.separation])
    assert solves == [n]
    assert result.upper.satisfied and result.upper.reliable
    assert result.spectrum[0] >= 0.97


def test_equivalence_builds_the_shifted_matrix_after_freeing_the_gram_matrix(monkeypatch):
    # k(X,X) is built once and overwritten by its inverse Cholesky factor
    # before k(X+b,X) is built: its values are gone, and the one n x n
    # matrix alive beside the new one is L^-1
    build_gram, build_shifted = analysis.gram, analysis.shifted_gram
    built = []

    def tracked_gram(spec, X):
        A = build_gram(spec, X)
        built.append(A)
        return A

    def shifted_gram_after_gram_freed(spec, X, b):
        assert len(built) == 1, "k(X,X) built again"
        G, A = built[0], build_gram(spec, X)
        assert not np.any(np.triu(G, 257)), "k(X,X) is alive"
        assert np.max(np.abs(G @ A @ G.T - np.eye(len(A)))) <= 1e-8
        return build_shifted(spec, X, b)

    monkeypatch.setattr(analysis, "gram", tracked_gram)
    monkeypatch.setattr(analysis, "shifted_gram", shifted_gram_after_gram_freed)
    X = halton(300, 3)
    spec = KernelSpec(Family.MATERN_BASIC, dim=3)
    result = verify_equivalence(spec, X, 0.1 * X.separation * np.ones(3) / math.sqrt(3))
    assert result.lower.satisfied and result.upper.satisfied


def test_shift_identity_handpicked_and_random():
    check = verify_shift_identity(BASIC, _interval_set([0.2, 0.5, 0.9]), [1.0, -2.0, 1.0], 0.01)
    assert check.satisfied

    rng = np.random.default_rng(6)
    pts = np.sort(rng.uniform(0, 1, 6))
    X = _interval_set(pts)
    check = verify_shift_identity(LINEAR, X, rng.uniform(-1, 1, 6), 0.1 * X.separation)
    assert check.satisfied


def test_shift_identity_zero_shift_reduces_to_consistency():
    X = equispaced(6, 0, 1)
    check = verify_shift_identity(LINEAR, X, np.ones(6), 0.0)
    assert check.satisfied


def _no_matrix(*args, **kwargs):
    raise AssertionError("a matrix was built")


def test_verifiers_of_1d_forms_reject_other_specs_before_any_matrix(monkeypatch):
    # the damped form and the Fourier side are 1-D; a 2-D spec is turned
    # away before any Gram or shifted matrix is built
    monkeypatch.setattr(analysis, "gram", _no_matrix)
    monkeypatch.setattr(analysis, "shifted_gram", _no_matrix)
    spec = KernelSpec(Family.MATERN_BASIC, dim=2)
    X = halton(8, 2)
    with pytest.raises(ValueError, match="1-D only"):
        verify_damping_bound(spec, X, np.ones(8), [0.0], eps=0.25)
    with pytest.raises(ValueError, match="1-D only"):
        verify_shift_identity(spec, X, np.ones(8), 0.0)


def test_damping_bound_zero_shift_trivial():
    X = equispaced(8, 0, 1)
    checks = verify_damping_bound(BASIC, X, np.ones(8), [0.0], eps=0.25)
    assert checks[0].lhs == 0.0 and checks[0].satisfied


def test_damping_bound_hypothesis_guards(monkeypatch):
    X = equispaced(8, 0, 1)
    with pytest.raises(ValueError):
        verify_damping_bound(BASIC, X, np.ones(8), [X.separation], eps=0.25)
    with pytest.raises(ValueError):
        verify_damping_bound(BASIC, X, np.ones(8), [0.0], eps=1.5)
    # every shift is checked before the first one's matrices are built
    monkeypatch.setattr(analysis, "gram", _no_matrix)
    with pytest.raises(ValueError, match="violates"):
        verify_damping_bound(BASIC, X, np.ones(8), [0.0, X.separation], eps=0.25)


def test_damping_bound_takes_shifts_in_order():
    # one call for several shifts gives the checks of one call per shift,
    # bit for bit and in that order
    rng = np.random.default_rng(8)
    X = _interval_set(np.sort(rng.uniform(0, 1, 12)))
    alpha = rng.uniform(-1, 1, 12)
    shifts = [math.sqrt(0.25) * X.separation * kappa for kappa in (1.0, 0.1, 0.5)]
    for spec in (BASIC, LINEAR):
        one_by_one = [c for b in shifts for c in verify_damping_bound(spec, X, alpha, [b], 0.25)]
        assert verify_damping_bound(spec, X, alpha, shifts, 0.25) == one_by_one
    names = [c.name for c in verify_damping_bound(LINEAR, X, alpha, shifts, 0.25)]
    assert names == ["damping-basic", "damping-improved"] * 3


def test_damping_bound_improved_needs_constant():
    spec = KernelSpec(Family.MATERN_QUADRATIC, dim=1)
    X = equispaced(8, 0, 1)
    b = 0.1 * X.separation
    with pytest.raises(ValueError):
        verify_damping_bound(spec, X, np.ones(8), [b], eps=0.25)
    checks = verify_damping_bound(spec, X, np.ones(8), [b], eps=0.25, c_min=0.1)
    assert [c.name for c in checks] == ["damping-basic", "damping-improved"]
    assert all(c.satisfied for c in checks)


def test_damping_bound_missing_constant_fails_before_quadrature(monkeypatch):
    def no_assembly(*args, **kwargs):
        raise AssertionError("a matrix was built before the constant was resolved")

    monkeypatch.setattr(analysis, "gram", no_assembly)
    spec = KernelSpec(Family.MATERN_QUADRATIC, dim=1)
    X = equispaced(8, 0, 1)
    with pytest.raises(ValueError, match="no fitted constant"):
        verify_damping_bound(spec, X, np.ones(8), [0.1 * X.separation], eps=0.25)


def test_damping_bound_flags_floor_noise():
    # |b| <= sqrt(eps) q: at eps = 1e-14 the exact damped form is a difference
    # of O(||A|| ||a||^2) terms that cancel below the precision floor
    X = equispaced(20, 0, 1)
    rng = np.random.default_rng(3)
    for eps, reliable in ((1e-14, False), (0.25, True)):
        for alpha in (np.ones(20), rng.uniform(-1, 1, 20)):
            shifts = [math.sqrt(eps) * X.separation * kappa for kappa in (0.1, 0.5, 1.0)]
            checks = verify_damping_bound(LINEAR, X, alpha, shifts, eps)
            assert [c.reliable for c in checks] == [reliable] * 6


@pytest.mark.parametrize("spec", [LINEAR, KernelSpec(Family.MATERN_QUADRATIC, dim=1)],
                         ids=lambda spec: spec.family.value)
def test_damping_lhs_matches_fourier_oracle(spec):
    # the truncated integrand is nonnegative and at most the full one, so
    # the exact form exceeds the quadrature by at most the certified tail
    density = spectral_density_1d(spec)
    rng = np.random.default_rng(4)
    for X in (equispaced(20, 0, 1), _interval_set(np.sort(rng.uniform(0, 1, 8)))):
        alpha = rng.uniform(-1, 1, len(X))
        for b in (0.05 * X.separation, 0.5 * X.separation):
            lhs = verify_damping_bound(spec, X, alpha, [b], 0.25, c_min=0.1)[0].lhs
            form = fourier_quadratic_form(density, X, alpha, b)
            assert abs(lhs - form.damped_integral / math.sqrt(2 * math.pi)) <= (
                form.tail_bound / math.sqrt(2 * math.pi)
            )


def test_damping_lhs_matches_fourier_oracle_basic():
    # rho ~ w^-2 decays slowly: the default cutoff misses most of the damped
    # mass of the tau = 1 form, a cutoff of 1e5 leaves under 1 %
    density = spectral_density_1d(BASIC)
    X = equispaced(6, 0, 1)
    alpha = np.random.default_rng(5).uniform(-1, 1, 6)
    b = 0.05 * X.separation
    lhs = verify_damping_bound(BASIC, X, alpha, [b], 0.25)[0].lhs
    form = fourier_quadratic_form(density, X, alpha, b, 1e5)
    assert form.damped_integral / math.sqrt(2 * math.pi) == pytest.approx(lhs, rel=0.01)


def test_conv_chain_basic_extremes():
    X = equispaced(10, 0, 1)
    A = gram(BASIC, X)
    _, Q = sym_eigen(A)
    b = 0.5 * X.separation
    directions = [Q[:, 0].copy(), Q[:, -1].copy()]
    for alpha, checks in zip(directions, verify_conv_chain(BASIC, X, directions, b)):
        assert all(c.satisfied and c.reliable for c in checks)
        assert [c.name for c in checks] == [
            "conv-chain-pointwise",
            "conv-chain-end-to-end",
        ]
        # the end-to-end bound is the companion form, bit for bit
        r_sym = float(alpha @ (A @ alpha)) / float(alpha @ alpha)
        bound = conv_lower_bound_from_sym(1, X.separation, r_sym, 0.24)
        assert checks[1].lhs == bound


def test_conv_chain_linear_reliable_range():
    X = equispaced(20, 0, 1)
    _, Q = sym_eigen(gram(LINEAR, X))
    [checks] = verify_conv_chain(LINEAR, X, [Q[:, 0]], 0.5 * X.separation)
    assert all(c.satisfied and c.reliable for c in checks)


def test_conv_chain_flags_floor_noise():
    # the smallest eigendirection of a large linear-family matrix drives the
    # convolved quadratic form below the precision floor
    X = equispaced(200, 0, 1)
    _, Q = sym_eigen(gram(LINEAR, X))
    [checks] = verify_conv_chain(LINEAR, X, [Q[:, 0]], 0.5 * X.separation)
    assert all(not c.reliable for c in checks)


@pytest.mark.parametrize("spec", [BASIC, LINEAR])
def test_conv_chain_is_invariant_under_negated_directions(spec):
    # thm41 takes eigenvectors with the signs LAPACK leaves: each check must
    # be bitwise the same for a direction and its negation.  The columns are
    # negated as columns of -Q, so both are strided alike: BLAS may sum a
    # strided vector and a contiguous copy of it in different orders
    X = equispaced(30, 0, 1)
    _, Q = sym_eigen(gram(spec, X))
    rng = np.random.default_rng(3)
    randoms = [rng.uniform(-1, 1, 30), rng.uniform(-1, 1, 30)]
    b = 0.5 * X.separation
    checks = verify_conv_chain(spec, X, [Q[:, 0], Q[:, -1], *randoms], b)
    N = -Q
    negated = verify_conv_chain(spec, X, [N[:, 0], N[:, -1], *[-r for r in randoms]], b)
    assert negated == checks


def test_conv_chain_does_not_depend_on_the_memory_layout():
    # BLAS may sum a strided vector and a contiguous copy of it in different
    # orders; every direction is copied to contiguous rows first
    X = equispaced(30, 0, 1)
    _, Q = sym_eigen(gram(BASIC, X))
    b = 0.5 * X.separation
    strided = verify_conv_chain(BASIC, X, [Q[:, 0], Q[:, -1]], b)
    assert verify_conv_chain(BASIC, X, [Q[:, 0].copy(), Q[:, -1].copy()], b) == strided


def test_conv_chain_rejects_a_zero_direction():
    X = equispaced(10, 0, 1)
    with pytest.raises(ValueError, match="zero vector"):
        verify_conv_chain(BASIC, X, [np.ones(10), np.zeros(10)], 0.5 * X.separation)


def test_conv_chain_holds_one_matrix_at_a_time():
    # k*, k and the shifted matrix are each freed once every direction's form
    # on it is taken: 3.7 n x n matrices at once while all three were kept
    n = 400
    X = equispaced(n, 0, 1)
    tracemalloc.start()
    try:
        verify_conv_chain(BASIC, X, [np.ones(n), np.linspace(-1, 1, n)], 0.5 * X.separation)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2 * n * n * 8


def test_conv_chain_shift_guard():
    X = equispaced(10, 0, 1)
    with pytest.raises(ValueError):
        verify_conv_chain(BASIC, X, [np.ones(10)], 2.0 * X.separation)


def test_conv_chain_needs_constant_for_quadratic():
    quad = KernelSpec(Family.MATERN_QUADRATIC, dim=1)
    X = equispaced(8, 0, 1)
    with pytest.raises(ValueError):
        verify_conv_chain(quad, X, [np.ones(8)], 0.1 * X.separation)
    [checks] = verify_conv_chain(quad, X, [np.ones(8)], 0.1 * X.separation, c_conv=0.01)
    assert all(c.satisfied for c in checks)


def test_every_verifier_is_run_by_a_command():
    # test-only claim code is wired into a command or deleted
    source = inspect.getsource(experiments)
    verifiers = [name for name in dir(analysis) if name.startswith("verify_")]
    assert verifiers
    assert [name for name in verifiers if name not in source] == []


def test_fit_power_law_exact_synthetic():
    qs = np.geomspace(1e-3, 1e-1, 12)
    law = fit_power_law([(q, 0.4 * q) for q in qs])
    assert law.exponent == pytest.approx(1.0, abs=1e-12)
    assert math.exp(law.log_constant) == pytest.approx(0.4, rel=1e-12)
    assert law.r_squared == pytest.approx(1.0, abs=1e-12)


def test_fit_power_law_excludes_nonpositive():
    qs = [1e-3, 1e-2, 1e-1, 1.0]
    samples = [(q, q ** 2) for q in qs] + [(1e-4, -1e-18), (2e-4, 0.0)]
    law = fit_power_law(samples)
    assert law.exponent == pytest.approx(2.0, abs=1e-10)
    assert len(law.support) == 4
    # fewer than three positive samples: no fit, a NaN law on what survived
    short = fit_power_law([(1e-2, 1.0), (1e-3, -1.0), (1e-4, 0.0), (1e-5, math.nan)])
    assert all(math.isnan(v) for v in (short.exponent, short.log_constant, short.r_squared))
    assert short.support == ((1e-2, 1.0),)


def test_eigenvalue_decay_is_monotone():
    values = []
    for n in sample_grid(10, 60, 10):
        values.append(np.linalg.eigvalsh(gram(BASIC, equispaced(n, 0, 1)))[0])
    assert all(a > b for a, b in zip(values, values[1:]))
