"""Gauss-Legendre machinery for kinked convolution integrals and truncated
Fourier-side quadratic forms with certified tail bounds."""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import QuadratureError
from .geometry import PointSet
from .kernels import KernelSpec, SpectralDensity, phi

#: the Gauss-Legendre rule of every panelized integral: its order, and its
#: panels per unit length in ``integrate``
ORDER = 20
PANELS_PER_UNIT = 4
#: default truncation [-L, L] of the Fourier-side forms
FOURIER_CUTOFF = 1000.0
#: most nodes (panels x order) one Fourier-side form may take
FOURIER_NODE_BUDGET = 2 ** 24
#: width c of the core [0, c] of the Fourier-side panels, and the most
#: phase kappa h (kappa = diam(X) + |b|) over the half-width h of a panel
#: outside it; ``fourier_quadratic_form`` derives both
FOURIER_CORE = 16.0
OUTER_PHASE = 8.0


@dataclass(frozen=True)
class QuadratureRule:
    """Nodes and weights on the reference interval [-1, 1]."""

    order: int
    nodes: np.ndarray
    weights: np.ndarray


def _legendre(order: int, x: np.ndarray):
    """P_order(x) and its derivative by the three-term recurrence (|x| < 1)."""
    p_prev, p = np.ones_like(x), x.copy()
    for j in range(2, order + 1):
        p_prev, p = p, ((2 * j - 1) * x * p - (j - 1) * p_prev) / j
    return p, order * (x * p - p_prev) / (x * x - 1.0)


@lru_cache(maxsize=None)
def gauss_legendre(order: int) -> QuadratureRule:
    """Gauss-Legendre rule of the given order.

    Nodes are the Legendre roots, found by Newton iteration started from the
    Chebyshev angles and polished to 1e-15; weights are 2/((1-x^2) P'(x)^2).
    The returned arrays are symmetrized so the rule is exactly even.
    """
    if not 1 <= order <= 64:
        raise ValueError("order must be in 1..64")
    if order == 1:
        nodes, weights = np.array([0.0]), np.array([2.0])
    else:
        k = np.arange(1, order + 1)
        x = np.cos(np.pi * (4 * k - 1) / (4 * order + 2))
        for _ in range(100):
            p, dp = _legendre(order, x)
            dx = p / dp
            x -= dx
            if np.max(np.abs(dx)) < 1e-15:
                break
        else:  # pragma: no cover - does not happen for order <= 64
            raise AssertionError("Newton iteration for Legendre roots did not converge")
        _, dp = _legendre(order, x)
        w = 2.0 / ((1.0 - x * x) * dp * dp)
        idx = np.argsort(x)
        x, w = x[idx], w[idx]
        nodes = 0.5 * (x - x[::-1])
        weights = 0.5 * (w + w[::-1])
    nodes.setflags(write=False)
    weights.setflags(write=False)
    return QuadratureRule(order=order, nodes=nodes, weights=weights)


def panel_grid(edges: np.ndarray, order: int):
    """Nodes and weights of one Gauss-Legendre panel per pair of adjacent ``edges``."""
    rule = gauss_legendre(order)
    half = 0.5 * (edges[1:] - edges[:-1])
    mid = edges[:-1] + half
    y = mid[:, None] + half[:, None] * rule.nodes[None, :]
    w = half[:, None] * rule.weights[None, :]
    return y.ravel(), w.ravel()


def _segments(a: float, b: float, kinks) -> list[tuple[float, float]]:
    cuts = sorted({float(k) for k in kinks if a < float(k) < b})
    pts = [a, *cuts, b]
    return [(lo, hi) for lo, hi in zip(pts[:-1], pts[1:]) if hi > lo]


def integrate(f, a: float, b: float, kinks=()) -> float:
    """Panelized Gauss-Legendre integral of a vectorized integrand.

    The interval is split at the declared kinks, and each piece into
    ``PANELS_PER_UNIT`` panels per unit length (at least one) of the
    order-``ORDER`` rule, so the integrand must be analytic on each piece for
    the rule to reach machine precision.
    """
    if not a < b:
        raise ValueError("need a < b")
    panel_sums = []
    for lo, hi in _segments(a, b, kinks):
        panels = max(1, math.ceil((hi - lo) * PANELS_PER_UNIT))
        y, w = panel_grid(np.linspace(lo, hi, panels + 1), ORDER)
        vals = w * np.asarray(f(y), dtype=float)
        panel_sums.append(vals.reshape(panels, ORDER).sum(axis=1))
    return float(np.sum(np.concatenate(panel_sums)))


def conv_value(spec: KernelSpec, x: float, z: float, domain) -> float:
    """Entry of the domain-convolved kernel: Int_a^b phi(|x-y|) phi(|y-z|) dy."""
    if spec.dim != 1:
        raise ValueError("convolution values are 1-D only")
    a, b = float(domain[0]), float(domain[1])
    return integrate(
        lambda y: phi(spec, np.abs(x - y)) * phi(spec, np.abs(y - z)),
        a, b, kinks=(x, z),
    )


def closed_form_conv_exp(x: float, z: float, domain) -> float:
    """Analytic Int_a^b e^(-|x-y|) e^(-|y-z|) dy, the oracle for conv_value.

    Splitting at x and z and integrating the exponentials yields, with
    coordinates relative to the left endpoint and L = b - a:

        (1 + |x-z|) e^(-|x-z|) - (e^(-(x'+z')) + e^(x'+z'-2L)) / 2
    """
    a, b = float(domain[0]), float(domain[1])
    if not (a <= x <= b and a <= z <= b):
        raise ValueError("x and z must lie inside the domain")
    xs, zs = x - a, z - a
    length = b - a
    u = abs(xs - zs)
    return (1.0 + u) * math.exp(-u) - 0.5 * (
        math.exp(-(xs + zs)) + math.exp(xs + zs - 2.0 * length)
    )


@dataclass(frozen=True)
class FourierFormResult:
    """Truncated Fourier-side quadratic form and its damped companion.

    ``full_integral`` is Int_{-L}^{L} density(w) |sum_j a_j e^{i w x_j}|^2 dw,
    ``damped_integral`` the same integrand multiplied by sin(w b / 2)^2, and
    ``tail_bound`` a certified bound on the mass lost to truncation for either
    integral (the damping factor is at most one pointwise).
    """

    full_integral: float
    damped_integral: float
    tail_bound: float


def _fourier_panel_width(diameter: float, shift: float) -> float:
    # integrand frequency is bounded by diameter(X) + |shift|; a quarter period
    # per panel keeps the ORDER-point rule at machine precision, and the cap of
    # one unit resolves the density's own variation near the origin
    width = 1.0
    if diameter > 0:
        width = min(width, math.pi / (4.0 * diameter))
    if shift != 0:
        width = min(width, math.pi / (2.0 * abs(shift)))
    return width


def _panel_count(length: float, width: float) -> float:
    """max(1, ceil(length / width)) as a float: a count too large for any
    integer reads inf, with no overflow error or warning."""
    count = length / width
    return float(max(1, math.ceil(count))) if count < math.inf else count


def _fourier_zones(diameter: float, shift: float, cutoff: float) -> list:
    """``(lo, hi, panels)`` of each zone of equal panels on [0, cutoff],
    left to right: the core [0, c] (c = ``FOURIER_CORE``, or the cutoff if
    smaller) at ``_fourier_panel_width``, and beyond it the outer zone
    [c, cutoff] at the width W = max(core width, min(c, 2 ``OUTER_PHASE`` /
    kappa)), kappa = diameter + |shift|.  Panel counts are floats
    (``_panel_count``)."""
    width = _fourier_panel_width(diameter, shift)
    core = min(cutoff, FOURIER_CORE)
    zones = [(0.0, core, _panel_count(core, width))]
    if cutoff > core:
        kappa = diameter + abs(shift)
        outer = FOURIER_CORE
        if kappa * FOURIER_CORE > 2.0 * OUTER_PHASE:
            outer = 2.0 * OUTER_PHASE / kappa
        zones.append((core, cutoff, _panel_count(cutoff - core, max(width, outer))))
    return zones


def _zone_sums(density: SpectralDensity, x, alpha, b: float, lo: float, hi: float, panels: int):
    """The full and damped sums over [lo, hi] cut into ``panels`` equal
    panels of half-width h, S(w) split per panel midpoint and reference node
    (see ``fourier_quadratic_form``)."""
    # a_j e^{i h xi_k x_j}, (points x ORDER), the factor all panels share
    half_nodes = ((hi - lo) / (2 * panels)) * gauss_legendre(ORDER).nodes
    node_factor = np.exp(np.multiply.outer(x, 1j * half_nodes))
    node_factor *= alpha[:, None]
    full = 0.0
    damped = 0.0
    # chunks of panels keep the (panels x points) and (panels x ORDER) arrays
    # at 2^16 entries each
    chunk = max(1, 65536 // max(len(x), ORDER))
    edges = np.linspace(lo, hi, panels + 1)
    for start in range(0, panels, chunk):
        e = edges[start : start + chunk + 1]
        om, w = panel_grid(e, ORDER)
        mid = e[:-1] + 0.5 * (e[1:] - e[:-1])
        s = (np.exp(np.multiply.outer(1j * mid, x)) @ node_factor).ravel()
        f = w * density(om) * (s.real * s.real + s.imag * s.imag)
        full += float(np.sum(f))
        damped += float(np.sum(f * np.sin(0.5 * om * b) ** 2))
    return full, damped


def fourier_quadratic_form(
    density: SpectralDensity,
    X: PointSet,
    alpha,
    b: float,
    fourier_cutoff: float = FOURIER_CUTOFF,
) -> FourierFormResult:
    """Truncated Fourier-side form of a coefficient vector over a 1-D point set.

    Both integrals run over [-L, L] with L = fourier_cutoff; the tail bound
    uses the closed form density envelope and the crude estimate
    |sum_j a_j e^{i w x_j}|^2 <= (sum_j |a_j|)^2.  The coefficients are
    real, so S(-w) is the conjugate of S(w) and the integrand is even: each
    integral is twice its half over [0, L], and only that half is summed.

    Panels.  The integrand is density(w) |S(w)|^2, times sin^2(w b / 2) in
    the damped form, with S(w) = sum_j a_j e^{i w x_j}: the density
    (1 + w^2)^-tau has its poles at +-i, and the rest is a sum of
    e^{i nu w} with |nu| <= kappa = diam(X) + |b|.  ``_fourier_zones`` lays
    out two zones of equal panels on [0, L].  The core [0, c], c =
    ``FOURIER_CORE`` = 16, has panels of at most a quarter period of the
    phase and at most one unit (``_fourier_panel_width``), where the poles
    are near.  The outer zone [c, L] has the width W = max(core width,
    min(c, 2 ``OUTER_PHASE`` / kappa)), ``OUTER_PHASE`` = 8, so an outer
    panel's half-width h has h <= c / 2 and kappa h <= 8 (the core width
    keeps kappa h below 3 pi / 8).  On a panel w = m + h t, t in [-1, 1], an
    ORDER-point Gauss rule errs by at most (64 / 15) M rho^(-2 ORDER) /
    (rho^2 - 1) for an integrand analytic and bounded by M inside the
    Bernstein ellipse E_rho of t, |t - 1| + |t + 1| < rho + 1/rho
    (Trefethen, SIAM Review 50, 2008, Thm 4.5).  An outer panel ends at
    least c >= 2h from the origin, so |m| >= 3h, and a pole
    t = (+-i - m) / h has |t - 1| + |t + 1| >= 2 |m| / h >= 6: the poles lie
    outside E_rho up to rho = 3 + sqrt 8, where rho^-40 = 2e-31.  On E_rho,
    |Im w| <= h (rho - 1/rho) / 2, so the phase terms grow by at most
    e^(kappa h (rho - 1/rho) / 2); at rho = 4 that is e^15, and the bound is
    about e^15 4^-40 = 3e-18 times the density's bound on E_4, a modest
    multiple of its size on the panel.  The outer panels are thus up to
    16 / 0.8 = 20 times as wide as the core's at no loss of accuracy: about
    80 panels on [16, 1000] in place of 1000 to 1250 for a set of diameter
    0.8 to 1.

    Phase split.  A zone's P panels share the half-width h, so every node is
    w = m_p + h xi_k for a panel midpoint m_p and a reference Gauss node xi_k,
    and S splits as

        S(m_p + h xi_k) = sum_j e^{i m_p x_j} (a_j e^{i h xi_k x_j}),

    one complex matrix product of a (panels x n) and an (n x ORDER) factor
    (``_zone_sums``, once per zone).  That takes P n + ORDER n complex
    exponentials in place of cos and sin at all P ORDER n node-point pairs.
    The rounding matches the direct form's: there the phase w x_j is rounded
    once, with an error of about ulp(L |x_j|), and here m_p x_j carries the
    same error, h xi_k x_j a much smaller one, and the product of the two
    unit factors a few ulp.  Nodes, weights and the density and
    sin^2(w b / 2) factors are those of ``panel_grid``.  Panels are summed in
    chunks whose (panels x n) and (panels x ORDER) arrays hold at most 2^16
    entries each, so the workspace is a few MB for any cutoff and point
    count.  A form of more than ``FOURIER_NODE_BUDGET`` nodes, counted over
    all zones, raises ``QuadratureError`` before any work, a cutoff too large
    for an integer panel count included.
    """
    if X.dim != 1:
        raise ValueError("fourier quadratic forms are 1-D only")
    alpha = np.asarray(alpha, dtype=float)
    if alpha.shape != (len(X),):
        raise ValueError("alpha must have one coefficient per point")
    cutoff = fourier_cutoff
    if not cutoff >= 1.0:  # nan included
        raise QuadratureError(
            f"fourier_cutoff {cutoff} too small; increase it to at least 1", target=1.0
        )
    x = X.points[:, 0]
    zones = _fourier_zones(float(x.max() - x.min()), float(b), cutoff)
    nodes = ORDER * sum(panels for _, _, panels in zones)
    if nodes > FOURIER_NODE_BUDGET:
        raise QuadratureError(
            f"fourier_cutoff {cutoff:g} needs {nodes:.3g} nodes, more than the "
            f"budget of {FOURIER_NODE_BUDGET}; lower it"
        )
    tail = float(np.abs(alpha).sum()) ** 2 * density.tail_mass_bound(cutoff)

    full = 0.0
    damped = 0.0
    for lo, hi, panels in zones:
        zone_full, zone_damped = _zone_sums(density, x, alpha, b, lo, hi, int(panels))
        full += zone_full
        damped += zone_damped
    # the integrand is even: [-L, L] is twice [0, L]
    full *= 2.0
    damped *= 2.0

    if tail > 0.25 * (full + tail):
        raise QuadratureError(
            f"certified tail {tail:.3e} is not small against the integral "
            f"{full:.3e}; increase fourier_cutoff beyond {cutoff:g}",
            achieved=tail,
        )
    return FourierFormResult(full_integral=full, damped_integral=damped, tail_bound=tail)
