import itertools
import math
import tracemalloc

import numpy as np
import pytest

from kernstab import (
    Family,
    KernelSpec,
    QuadratureError,
    closed_form_conv_exp,
    conv_value,
    equispaced,
    fourier_quadratic_form,
    gauss_legendre,
    gram,
    integrate,
    phi,
    spectral_density_1d,
)
from kernstab.experiments import ExperimentConfig, run
from kernstab.geometry import PointSet
from kernstab.kernels import SpectralDensity
from kernstab.quadrature import (
    FOURIER_CORE,
    ORDER,
    OUTER_PHASE,
    PANELS_PER_UNIT,
    _fourier_zones,
    _segments,
    panel_grid,
)

SQRT_2PI = math.sqrt(2.0 * math.pi)


def test_rule_order_one_and_two():
    one = gauss_legendre(1)
    np.testing.assert_array_equal(one.nodes, [0.0])
    np.testing.assert_array_equal(one.weights, [2.0])
    two = gauss_legendre(2)
    np.testing.assert_allclose(two.nodes, [-1 / math.sqrt(3), 1 / math.sqrt(3)], rtol=1e-15)
    np.testing.assert_allclose(two.weights, [1.0, 1.0], rtol=1e-15)


def test_rule_weight_sums():
    for order in range(1, 65):
        rule = gauss_legendre(order)
        assert abs(rule.weights.sum() - 2.0) <= 1e-14
        assert np.all(rule.weights > 0)
        assert np.all((-1 < rule.nodes) & (rule.nodes < 1))


@pytest.mark.parametrize("order", [2, 5, 8, 13, 20, 32, 64])
def test_rule_monomial_exactness(order):
    rule = gauss_legendre(order)
    for degree in range(2 * order):
        exact = 2.0 / (degree + 1) if degree % 2 == 0 else 0.0
        assert abs(np.sum(rule.weights * rule.nodes ** degree) - exact) <= 1e-13


def test_rule_even_symmetry():
    rule = gauss_legendre(20)
    np.testing.assert_array_equal(rule.nodes, -rule.nodes[::-1])
    np.testing.assert_array_equal(rule.weights, rule.weights[::-1])
    assert abs(np.sum(rule.weights * rule.nodes ** 38) - 2.0 / 39.0) <= 1e-13


def test_rule_rejects_bad_order():
    with pytest.raises(ValueError):
        gauss_legendre(0)
    with pytest.raises(ValueError):
        gauss_legendre(65)


@pytest.mark.parametrize("field", ["fourier_cutoff"])
@pytest.mark.parametrize("value", [0.0, -1.0, math.inf, math.nan, 0.5])
def test_config_rejects_values_that_are_not_finite_and_positive(field, value):
    # the one quadrature option left, checked with the config before any
    # work: the Fourier-side panels need a finite cutoff of at least 1
    with pytest.raises(ValueError, match=f"{field} must be finite and at least 1, got {value}"):
        ExperimentConfig(command="identity", **{field: value})


def test_integrate_constant():
    assert integrate(lambda y: np.ones_like(y), 0.0, 1.0) == pytest.approx(1.0, abs=1e-15)


def test_integrate_kinked_exponential():
    value = integrate(
        lambda y: np.exp(-2.0 * np.abs(0.5 - y)), 0.0, 1.0, kinks=(0.5,)
    )
    assert value == pytest.approx(1.0 - math.exp(-1.0), abs=1e-13)


def test_integrate_kink_declaration_matters():
    # a kink off the panel edges (multiples of 1/4 here), so only its
    # declaration resolves it: Int_-1^1 |y - 0.1| dy = (1.1^2 + 0.9^2) / 2
    def f(y):
        return np.abs(y - 0.1)

    undeclared = integrate(f, -1.0, 1.0)
    declared = integrate(f, -1.0, 1.0, kinks=(0.1,))
    assert abs(declared - 1.01) <= 1e-15
    assert abs(undeclared - 1.01) > 1e-12
    assert abs(undeclared - 1.01) < 1e-2


def _integrate_piece_by_piece(f, a, b, kinks=()):
    # the integrand called once per piece between kinks: the bitwise
    # oracle of integrate, which calls it once on every node
    panel_sums = []
    for lo, hi in _segments(a, b, kinks):
        panels = max(1, math.ceil((hi - lo) * PANELS_PER_UNIT))
        y, w = panel_grid(np.linspace(lo, hi, panels + 1), ORDER)
        panel_sums.append((w * f(y)).reshape(panels, ORDER).sum(axis=1))
    return float(np.sum(np.concatenate(panel_sums)))


@pytest.mark.parametrize("kinks", [(), (0.1,), (0.25, 0.7), (0.7, 0.7), (0.5, 0.5, 0.95)])
def test_integrate_is_bitwise_the_piece_by_piece_sum(kinks):
    def f(y):
        return np.exp(-np.abs(y - 0.3)) * (1.0 + np.abs(y - 0.7))

    assert integrate(f, -0.2, 1.3, kinks=kinks) == _integrate_piece_by_piece(f, -0.2, 1.3, kinks)
    x, z = 0.1, 0.85
    assert conv_value(LINEAR, x, z, (0.0, 1.0)) == _integrate_piece_by_piece(
        lambda y: phi(LINEAR, np.abs(x - y)) * phi(LINEAR, np.abs(y - z)), 0.0, 1.0, (x, z)
    )


def test_integrate_rejects_empty_interval():
    with pytest.raises(ValueError):
        integrate(np.abs, 1.0, 1.0)


BASIC = KernelSpec(Family.MATERN_BASIC, dim=1)
LINEAR = KernelSpec(Family.MATERN_LINEAR, dim=1)


def test_conv_value_examples():
    assert conv_value(BASIC, 0.5, 0.5, (0, 1)) == pytest.approx(
        1.0 - math.exp(-1.0), abs=1e-13
    )
    # integrand is the constant e^(-1) on [0, 1]
    assert conv_value(BASIC, 0.0, 1.0, (0, 1)) == pytest.approx(math.exp(-1.0), abs=1e-13)


def test_conv_value_symmetry():
    rng = np.random.default_rng(5)
    for _ in range(25):
        x, z = rng.uniform(0, 1, 2)
        assert conv_value(BASIC, x, z, (0, 1)) == pytest.approx(
            conv_value(BASIC, z, x, (0, 1)), abs=1e-14
        )


def test_closed_form_examples():
    assert closed_form_conv_exp(0.5, 0.5, (0, 1)) == pytest.approx(
        1.0 - math.exp(-1.0), rel=1e-15
    )
    assert closed_form_conv_exp(0.0, 1.0, (0, 1)) == pytest.approx(math.exp(-1.0), rel=1e-15)
    assert conv_value(BASIC, 0.3, 0.7, (0, 1)) == pytest.approx(
        closed_form_conv_exp(0.3, 0.7, (0, 1)), abs=1e-13
    )
    with pytest.raises(ValueError):
        closed_form_conv_exp(1.5, 0.5, (0, 1))


def test_conv_value_matches_closed_form_on_grid():
    pts = np.linspace(0, 1, 20)
    for x in pts:
        for z in pts:
            assert abs(
                conv_value(BASIC, x, z, (0, 1)) - closed_form_conv_exp(x, z, (0, 1))
            ) <= 1e-12


def _random_set(rng, n):
    while True:
        pts = np.sort(rng.uniform(0, 1, n))
        if 0.5 * np.min(np.diff(pts)) > 1e-3:
            return PointSet(pts[:, None], np.array([[0.0, 1.0]]))


def test_fourier_form_single_point():
    X = PointSet(np.array([[0.4]]), np.array([[0.0, 1.0]]))
    density = spectral_density_1d(BASIC)
    result = fourier_quadratic_form(density, X, [1.0], 0.0)
    scale = 1.0 / SQRT_2PI
    assert scale * (result.full_integral + result.tail_bound) >= 1.0
    assert abs(scale * result.full_integral - 1.0) <= scale * result.tail_bound + 1e-9


def test_fourier_form_zero_shift_kills_damping():
    X = equispaced(5, 0, 1)
    density = spectral_density_1d(BASIC)
    result = fourier_quadratic_form(density, X, np.ones(5), 0.0)
    assert result.damped_integral == 0.0


@pytest.mark.parametrize("spec", [BASIC, LINEAR])
def test_fourier_form_consistency_with_gram(spec):
    # truncated Fourier-side form must match the quadratic form through the
    # Gram matrix within the certified tail
    rng = np.random.default_rng(23)
    density = spectral_density_1d(spec)
    scale = 1.0 / SQRT_2PI
    for _ in range(50):
        n = int(rng.integers(2, 9))
        X = _random_set(rng, n)
        alpha = rng.uniform(-1, 1, n)
        result = fourier_quadratic_form(density, X, alpha, 0.0)
        quad_form = alpha @ gram(spec, X) @ alpha
        assert abs(scale * result.full_integral - quad_form) <= (
            scale * result.tail_bound + 1e-9
        )


def test_fourier_form_damped_below_full():
    rng = np.random.default_rng(9)
    density = spectral_density_1d(LINEAR)
    X = _random_set(rng, 6)
    alpha = rng.uniform(-1, 1, 6)
    result = fourier_quadratic_form(density, X, alpha, 0.3 * X.separation)
    assert result.damped_integral <= result.full_integral + result.tail_bound
    assert result.damped_integral >= 0.0


def test_fourier_form_panel_doubling_converges():
    rng = np.random.default_rng(31)
    X = _random_set(rng, 5)
    alpha = rng.uniform(-1, 1, 5)
    density = spectral_density_1d(BASIC)
    b = 0.5 * X.separation
    base = fourier_quadratic_form(density, X, alpha, b)
    # equal panels of the core width over all of [-L, L], with a finer rule
    [(full, damped)] = _direct_integrals([density], X, alpha, [b], 24, 1000.0).values()
    assert base.full_integral == pytest.approx(full, rel=1e-10)
    assert base.damped_integral == pytest.approx(damped, rel=1e-10)


def test_fourier_form_damping_monotone_near_zero():
    rng = np.random.default_rng(3)
    density = spectral_density_1d(LINEAR)
    for _ in range(5):
        X = _random_set(rng, 8)
        alpha = rng.uniform(-1, 1, 8)
        b = X.separation
        small = fourier_quadratic_form(density, X, alpha, b / 2).damped_integral
        large = fourier_quadratic_form(density, X, alpha, b).damped_integral
        assert small <= large + 1e-12


def test_fourier_form_cutoff_guard():
    density = spectral_density_1d(BASIC)
    X = equispaced(4, 0, 1)
    with pytest.raises(QuadratureError):
        fourier_quadratic_form(density, X, np.ones(4), 0.0, 0.5)
    # oscillating coefficients on nearly coincident points leave almost all
    # mass beyond any moderate cutoff
    tight = PointSet(np.array([[0.0], [1e-3]]), np.array([[0.0, 1.0]]))
    with pytest.raises(QuadratureError):
        fourier_quadratic_form(density, tight, [1.0, -1.0], 0.0)


def _uniform_width(diameter, shift):
    # one panel width for all of [-L, L]: a quarter period of the phase, at
    # most one unit, as the core zone of the graded layout has
    width = 1.0
    if diameter > 0:
        width = min(width, math.pi / (4.0 * diameter))
    if shift != 0:
        width = min(width, math.pi / (2.0 * abs(shift)))
    return width


def _direct_integrals(densities, X, alpha, shifts, order, cutoff):
    """{(density, b): (full, damped)} from cos and sin of every node's phase.

    This is the chunk loop that the phase split replaced, on equal panels of
    the core zone's width over all of [-L, L] (not the graded zones of the
    half line), run once for all densities and shifts, which must give one
    panel width: it is the oracle of ``fourier_quadratic_form``.
    """
    x = X.points[:, 0]
    (width,) = {_uniform_width(float(x.max() - x.min()), float(b)) for b in shifts}
    panels = max(1, math.ceil(2.0 * cutoff / width))
    sums = {(d, b): [0.0, 0.0] for d in densities for b in shifts}
    chunk = max(1, 65536 // max(len(X), 1))
    edges = np.linspace(-cutoff, cutoff, panels + 1)
    for start in range(0, panels, chunk):
        om, w = panel_grid(edges[start : start + chunk + 1], order)
        phase = np.outer(om, x)
        re = np.cos(phase) @ alpha
        im = np.sin(phase) @ alpha
        for d in densities:
            f = w * d(om) * (re * re + im * im)
            for b in shifts:
                sums[d, b][0] += float(np.sum(f))
                sums[d, b][1] += float(np.sum(f * np.sin(0.5 * om * b) ** 2))
    return sums


# at cutoff 10 the case is the cutoff-1 form of a length scale of 10, whose
# certified tail (sum |a_j|)^2 * tail mass stays under the guard only with
# positive coefficients: the points are packed into [0, 0.1].  Cutoff 1e5
# spans many chunks and phases up to 1e5, where the split's rounding is
# largest; there the direct evaluation is slow, so it runs for small n and
# for the basic family only, whose slow decay weights high frequencies most
@pytest.mark.parametrize(
    "n, cutoff",
    [(n, c) for n in (1, 2, 6, 200) for c in (10.0, 1e3, 1e5) if (n, c) != (200, 1e5)],
)
def test_fourier_form_phase_split_matches_direct_evaluation(n, cutoff):
    rng = np.random.default_rng(n)
    families = [Family.MATERN_BASIC] if cutoff == 1e5 else list(Family)
    densities = [spectral_density_1d(KernelSpec(family, dim=1)) for family in families]
    if n == 1:
        X, q = PointSet(np.array([[0.4]]), np.array([[0.0, 1.0]])), 0.5
    else:
        X = _random_set(rng, n) if n < 200 else equispaced(n, 0, 1)
        q = X.separation
    if cutoff == 10.0:
        X, q = PointSet(X.points / 10.0, X.domain / 10.0), q / 10.0
    alpha = rng.uniform(0.0, 1.0, n) if cutoff == 10.0 else rng.uniform(-1, 1, n)
    shifts = (0.0, q / 3, q)
    direct = _direct_integrals(densities, X, alpha, shifts, ORDER, cutoff)
    for density in densities:
        for b in shifts:
            result = fourier_quadratic_form(density, X, alpha, b, cutoff)
            full, damped = direct[density, b]
            tol = 1e-12 * result.full_integral
            assert abs(result.full_integral - full) <= tol
            assert abs(result.damped_integral - damped) <= tol
            if b == 0.0:
                assert result.damped_integral == 0.0


@pytest.mark.parametrize("n, cutoff", [(6, 1e5), (200, 1e4), (1, 1e4)])
def test_fourier_form_workspace_stays_small(n, cutoff):
    # the direct evaluation peaked at 33.5, 21.5 and 25.8 MB here
    X = equispaced(n, 0, 1) if n > 1 else PointSet(np.array([[0.4]]), np.array([[0.0, 1.0]]))
    density = spectral_density_1d(BASIC)
    tracemalloc.start()
    try:
        fourier_quadratic_form(density, X, np.ones(n), 0.01, cutoff)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 8e6, f"peak {peak / 1e6:.1f} MB"


def test_identity_takes_few_density_nodes(monkeypatch):
    # the seed-0 identity run of the verifiers workload: equal panels of the
    # core width over all of [-1000, 1000] took 2,074,900 nodes, the graded
    # zones 157,440, and the graded zones of the half line [0, 1000] 78,840
    calls = []
    density = SpectralDensity.__call__

    def counted(self, omega):
        calls.append(np.size(omega))
        return density(self, omega)

    monkeypatch.setattr(SpectralDensity, "__call__", counted)
    cfg = ExperimentConfig(command="identity", kernel="matern-basic", n=6, trials=50, seed=0)
    assert not run(cfg).failed_reliable_checks
    assert 0 < sum(calls) <= 80_000


def test_fourier_zones_keep_the_error_bound_of_their_panels():
    for diameter, shift, cutoff in itertools.product(
        [0.0, 1e-3, 0.3, 0.99, 1.0, 5.0, 40.0],
        [0.0, 1e-4, 0.05, 1.0, 30.0],
        [1.0, 10.0, 16.0, 16.5, 1e3, 1e5],
    ):
        zones = _fourier_zones(diameter, shift, cutoff)
        edges = [lo for lo, _, _ in zones] + [zones[-1][1]]
        # the half line [0, L]: the integrand is even
        assert edges[0] == 0.0 and edges[-1] == cutoff
        assert all(lo < hi for lo, hi in zip(edges, edges[1:]))
        # the core keeps the width of equal panels over all of [-L, L]
        core = min(cutoff, FOURIER_CORE)
        (first, *outer) = zones
        assert first[:2] == (0.0, core)
        assert core / first[2] <= _uniform_width(diameter, shift)
        assert len(outer) == (1 if cutoff > FOURIER_CORE else 0)
        kappa = diameter + abs(shift)
        for lo, hi, panels in outer:
            h = (hi - lo) / (2 * panels)
            # the density's poles and the phase's growth stay outside the
            # Bernstein ellipses of the docstring's bound
            assert min(abs(lo), abs(hi)) >= FOURIER_CORE >= 2 * h
            assert kappa * h <= OUTER_PHASE
