import math

import mpmath
import numpy as np
import pytest

from kernstab import (
    Family,
    KernelSpec,
    gram,
    integrate,
    phi,
    smoothness,
    spectral_density_1d,
    symmetric_lower_bound,
)
import oracle
from kernstab import kernels
from kernstab.geometry import PointSet


def test_profile_at_zero():
    expected = {
        Family.MATERN_BASIC: 1.0,
        Family.MATERN_LINEAR: 1.0,
        Family.MATERN_QUADRATIC: 3.0,
    }
    for family, value in expected.items():
        assert phi(KernelSpec(family), 0.0) == value


def test_profile_reference_values():
    assert phi(KernelSpec(Family.MATERN_BASIC), 0.0) == 1.0
    assert phi(KernelSpec(Family.MATERN_BASIC), 1.0) == pytest.approx(math.exp(-1.0), rel=1e-15)
    assert phi(KernelSpec(Family.MATERN_LINEAR), 5.0) == pytest.approx(
        6.0 * math.exp(-5.0), rel=1e-15
    )
    assert phi(KernelSpec(Family.MATERN_LINEAR), 1.0) == pytest.approx(
        2.0 * math.exp(-1.0), rel=1e-15
    )
    # (3 + 3r + r^2) e^(-r) at r = 2, evaluated independently
    assert phi(KernelSpec(Family.MATERN_QUADRATIC), 2.0) == pytest.approx(
        13.0 * math.exp(-2.0), rel=1e-15
    )


def test_profile_rejects_bad_radius():
    spec = KernelSpec(Family.MATERN_BASIC)
    with pytest.raises(ValueError):
        phi(spec, -0.1)
    with pytest.raises(ValueError):
        phi(spec, math.inf)
    with pytest.raises(ValueError):
        phi(spec, math.nan)


def test_profile_written_over_its_argument():
    rng = np.random.default_rng(12)
    for family in Family:
        spec = KernelSpec(family)
        r = rng.uniform(0, 40, (130, 257))  # more entries than one of phi's blocks
        expected = phi(spec, r)
        assert phi(spec, r, out=r) is r
        assert r.tobytes() == expected.tobytes()
    for bad in (np.empty(4), np.empty((2, 2), dtype=np.float32), np.empty((2, 4))[:, ::2]):
        with pytest.raises(ValueError, match="out must be"):
            phi(spec, np.ones((2, 2)), out=bad)


def test_spec_validation():
    with pytest.raises(ValueError):
        KernelSpec(Family.MATERN_BASIC, dim=0)
    assert KernelSpec("matern-linear").family is Family.MATERN_LINEAR


def test_smoothness_values():
    assert smoothness(KernelSpec(Family.MATERN_BASIC)) == 1.0
    assert smoothness(KernelSpec(Family.MATERN_LINEAR)) == 2.0
    assert smoothness(KernelSpec(Family.MATERN_QUADRATIC)) == 3.0
    # tau = nu + d/2: the 3-D e^(-r) kernel has tau = 2, so the symmetric
    # bound, which needs tau > d/2, is defined for it
    spec = KernelSpec(Family.MATERN_BASIC, dim=3)
    assert smoothness(spec) == 2.0
    assert smoothness(KernelSpec(Family.MATERN_QUADRATIC, dim=2)) == 3.5
    assert symmetric_lower_bound(smoothness(spec), 3, 0.1, 1.0) == pytest.approx(0.1)


def test_profiles_cover_every_family_and_match_the_oracle():
    # the oracle keeps its own copy of p, the independent reference
    assert set(kernels.PROFILES) == set(Family) == set(oracle._PROFILE)
    for family, profile in kernels.PROFILES.items():
        assert profile.p == oracle._PROFILE[family]


@pytest.mark.parametrize("family", list(Family))
def test_profile_convolution_is_the_oracles_whole_line_integral(family):
    profile = kernels.PROFILES[family]
    with mpmath.workdps(oracle.DIGITS):
        p = [mpmath.mpf(c) for c in oracle._PROFILE[family]]
        for d in (0.0, 0.3, 1.0, 2.5, 7.0):
            expected = float(oracle._conv_entry(p, mpmath.mpf(d), 200, 200))
            got = sum(c * d**k for k, c in enumerate(profile.Q)) * math.exp(-d)
            assert got == pytest.approx(expected, rel=1e-15, abs=0)


def test_density_amplitude_is_the_gamma_ratio():
    # the 1-D transform of p(r) e^(-r): p(0) sqrt(2) Gamma(tau) / Gamma(tau - 1/2)
    for family, profile in kernels.PROFILES.items():
        tau = smoothness(KernelSpec(family))
        expected = profile.p[0] * math.sqrt(2.0) * math.gamma(tau) / math.gamma(tau - 0.5)
        assert profile.amplitude == pytest.approx(expected, rel=1e-15, abs=0)
        assert spectral_density_1d(KernelSpec(family)).amplitude == profile.amplitude


def test_positive_definiteness_witness():
    rng = np.random.default_rng(11)
    box = np.array([[0.0, 1.0], [0.0, 1.0]])
    for _ in range(20):
        n = int(rng.integers(5, 21))
        pts = rng.uniform(0, 1, (n, 2))
        X = PointSet(pts, box)
        while X.separation <= 1e-3:
            X = PointSet(rng.uniform(0, 1, (n, 2)), box)
        for family in Family:
            assert np.linalg.eigvalsh(gram(KernelSpec(family, dim=2), X))[0] > 0


def test_monotone_decay():
    grid = np.linspace(0.0, 6.0, 400)
    for family in Family:
        values = phi(KernelSpec(family), grid)
        assert np.all(np.diff(values) <= 0)


def test_density_closed_form_values():
    root = math.sqrt(2.0 / math.pi)
    basic = spectral_density_1d(KernelSpec(Family.MATERN_BASIC))
    linear = spectral_density_1d(KernelSpec(Family.MATERN_LINEAR))
    assert basic(0.0) == pytest.approx(root, rel=1e-15)
    assert basic(1.0) == pytest.approx(root / 2.0, rel=1e-15)
    assert linear(0.0) == pytest.approx(2.0 * root, rel=1e-15)


def test_density_even_and_nonnegative():
    omega = np.linspace(-50, 50, 501)
    for family in Family:
        density = spectral_density_1d(KernelSpec(family))
        values = density(omega)
        assert np.all(values >= 0)
        np.testing.assert_array_equal(values, density(-omega))


def test_density_unsupported():
    with pytest.raises(ValueError, match="1-D only"):
        spectral_density_1d(KernelSpec(Family.MATERN_BASIC, dim=2))


@pytest.mark.parametrize("family", list(Family))
def test_density_inverts_to_profile(family):
    # numeric Fourier inversion of the closed form must return the radial
    # profile up to the certified truncation tail
    spec = KernelSpec(family, dim=1)
    density = spectral_density_1d(spec)
    cutoff = 1e3
    scale = 1.0 / math.sqrt(2.0 * math.pi)
    budget = scale * density.tail_mass_bound(cutoff) + 1e-10
    for r in (0.0, 0.5, 1.0, 2.0, 3.0):
        recovered = scale * integrate(
            lambda w: density(w) * np.cos(w * r), -cutoff, cutoff
        )
        assert abs(recovered - phi(spec, r)) <= budget


def _phi_expression(spec, r):
    # the out-of-place expressions the in-place profile must reproduce bit for bit
    u = np.asarray(r, dtype=float)
    if spec.family is Family.MATERN_BASIC:
        out = np.exp(-u)
    elif spec.family is Family.MATERN_LINEAR:
        out = (1.0 + u) * np.exp(-u)
    else:
        out = (3.0 + 3.0 * u + u * u) * np.exp(-u)
    return out if out.ndim else float(out)


def _in_units(r, scale):
    # the radii r / scale, those that stay finite: a kernel of length scale
    # ``scale`` at r is the unit-scale one there
    if scale == 1.0:
        return r
    with np.errstate(over="ignore"):
        u = np.asarray(r, dtype=float) / scale
    return u[np.isfinite(u)] if u.ndim else u


@pytest.mark.parametrize("family", list(Family))
@pytest.mark.parametrize("scale", [1.0, 0.3, 1e-10])
def test_profile_is_bitwise_the_expression_and_keeps_its_input(family, scale):
    spec = KernelSpec(family)
    rng = np.random.default_rng(11)
    arrays = [
        np.array(0.7),
        rng.uniform(0, 40, 257),
        rng.uniform(0, 3, (31, 17)),
        np.array([0.0, 5e-324, 1e-300, 1e-8, 745.0, 800.0, 1e300, 1.7e308]),
        # a strided view and more entries than one of phi's blocks
        rng.uniform(0, 60, (140, 260))[:, ::2],
    ]
    for r in [_in_units(a, scale) for a in arrays]:
        before = r.copy()
        with np.errstate(over="ignore", invalid="ignore"):
            got, expected = phi(spec, r), _phi_expression(spec, r)
        if family is Family.MATERN_QUADRATIC:
            # the expression is inf * 0 = nan where u * u overflows (from
            # r = 1e300); the profile is its limit 0
            expected = np.where(np.isnan(expected), 0.0, expected)
        assert np.array_equal(r, before)
        assert np.shape(got) == r.shape
        assert np.array_equal(got, expected)
    for r in (0.0, 0.7, 3, 1e-300):
        got = phi(spec, _in_units(r, scale))
        assert type(got) is float
        assert got == _phi_expression(spec, _in_units(r, scale))
    # an integer or list argument is converted, never aliased
    assert np.array_equal(phi(spec, [0, 1, 2]), _phi_expression(spec, [0.0, 1.0, 2.0]))
