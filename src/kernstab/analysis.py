"""Stability bounds and their numeric verifiers.

Every verifier returns BoundCheck records rather than raising on a violated
inequality: the checks are the experimental subject, and callers decide what
a failure means.  Reliability flags mark checks whose left-hand side sits
below the eigenvalue precision floor, where satisfaction is roundoff noise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .assembly import conv_gram, gram, shifted_gram, symmetric_part
from .geometry import PointSet, boundary_distance
from .kernels import Family, KernelSpec, SpectralDensity
from .quadrature import FOURIER_CUTOFF, fourier_quadratic_form
from .spectral import precision_floor, whitened_spectrum

_SQRT_2PI = math.sqrt(2.0 * math.pi)

#: constants fitted once against the dashed reference curves (d = 1)
SYMMETRIC_BOUND_CONSTANTS = {
    (Family.MATERN_BASIC, 1): 0.4,
    (Family.MATERN_LINEAR, 1): 0.16,
}
CONV_BOUND_CONSTANTS = {
    (Family.MATERN_BASIC, 1): 0.24,
    (Family.MATERN_LINEAR, 1): 0.0896,
}


@dataclass(frozen=True)
class BoundCheck:
    """One evaluated inequality: satisfied iff lhs <= rhs (+ tolerance)."""

    name: str
    lhs: float
    rhs: float
    satisfied: bool
    slack: float
    reliable: bool = True


def _check(name, lhs, rhs, tol=0.0, strict=False, reliable=True) -> BoundCheck:
    lhs, rhs = float(lhs), float(rhs)
    ok = lhs < rhs if strict else lhs <= rhs + tol
    # bool(): a flag from a numpy comparison is an np.bool_, which CSV
    # formatting would write as True/False
    return BoundCheck(
        name=name, lhs=lhs, rhs=rhs, satisfied=bool(ok), slack=rhs - lhs,
        reliable=bool(reliable),
    )


def symmetric_lower_bound(tau: float, d: int, q: float, c_min: float) -> float:
    """Lower bound c_min * q^(2 tau - d) on the smallest Gram eigenvalue."""
    if tau <= d / 2:
        raise ValueError(f"need tau > d/2 (got tau={tau}, d={d})")
    if q <= 0 or c_min <= 0:
        raise ValueError("q and c_min must be positive")
    return c_min * q ** (2.0 * tau - d)


def conv_lower_bound(tau: float, d: int, q: float, c: float) -> float:
    """Lower bound c * q^(4 tau - d) for the convolved-kernel Gram matrix."""
    if tau <= d / 2:
        raise ValueError(f"need tau > d/2 (got tau={tau}, d={d})")
    if q <= 0 or c <= 0:
        raise ValueError("q and c must be positive")
    return c * q ** (4.0 * tau - d)


def conv_lower_bound_from_sym(d: int, q: float, lam_min_sym: float, c: float) -> float:
    """Companion form c * q^d * lambda_min^2 of the convolved-kernel bound."""
    if q <= 0 or c <= 0:
        raise ValueError("q and c must be positive")
    return c * q ** d * lam_min_sym ** 2


def cond_upper_bound(tau: float, q: float, c: float) -> float:
    """Upper bound c * q^(-4 tau) on the convolved-kernel condition number."""
    if q <= 0:
        raise ValueError("q must be positive")
    return c * q ** (-4.0 * tau)


@dataclass(frozen=True)
class EquivalenceResult:
    lower: BoundCheck
    upper: BoundCheck
    spectrum: np.ndarray

    @property
    def checks(self) -> list[BoundCheck]:
        return [self.lower, self.upper]


def verify_equivalence(spec: KernelSpec, X: PointSet, b) -> EquivalenceResult:
    """Whitened-spectrum form of the shift equivalence.

    Whitening the symmetrized shifted matrix against the unshifted one must
    place the whole spectrum in [3/4, 1): the upper edge holds for every
    shift, the 3/4 edge for shifts small against the separation distance
    (caller's responsibility; both checks simply report).  The spectrum is
    ``whitened_spectrum``'s Cholesky congruence, which never forms the
    whitened matrix; a Gram matrix too near singular to whiten raises
    ``SingularMatrixError``.  The Gram matrix is factored and inverted in
    place, and the shifted matrix is built only after that inverse has been
    tested, so at most two n x n matrices are alive at once.
    """
    w = whitened_spectrum(lambda: gram(spec, X), lambda: shifted_gram(spec, X, b))
    lower = _check("equivalence-lower", 0.75, w[0])
    upper = _check("equivalence-upper", w[-1], 1.0, strict=True)
    return EquivalenceResult(lower=lower, upper=upper, spectrum=w)


def verify_shift_identity(
    density: SpectralDensity,
    X: PointSet,
    alpha,
    b: float,
    fourier_cutoff: float = FOURIER_CUTOFF,
) -> BoundCheck:
    """Matrix side versus Fourier side of the symmetrized shifted form.

    sqrt(2 pi) <sym(k(X+b, X)) a, a> equals the full Fourier-side integral
    minus twice its damped companion; both sides are computed independently
    and must agree within the certified truncation budget (one tail for the
    full integral, two for the damped one) plus 1e-8 relative roundoff.
    """
    alpha = np.asarray(alpha, dtype=float)
    spec = density.kernel
    B_sym = symmetric_part(shifted_gram(spec, X, [b]))
    lhs = _SQRT_2PI * float(alpha @ (B_sym @ alpha))
    form = fourier_quadratic_form(density, X, alpha, b, fourier_cutoff)
    rhs = form.full_integral - 2.0 * form.damped_integral
    tol = 3.0 * form.tail_bound + 1e-8 * abs(lhs)
    return _check("shift-identity", abs(lhs - rhs), tol)


def verify_damping_bound(
    density: SpectralDensity,
    X: PointSet,
    alpha,
    b: float,
    eps: float,
    c_min: Optional[float] = None,
) -> list[BoundCheck]:
    """Damped spectral form against its shift-stability budget.

    The damped form D(a) = (2 pi)^(-1/2) Int rho(w) sin^2(w b / 2) |S(w)|^2 dw,
    S(w) = sum_j a_j e^{i w x_j}, is computed exactly from the matrices.  By
    Bochner's theorem k(x - y) = (2 pi)^(-1/2) Int rho(w) e^{i w (x - y)} dw, so
    <A a, a> = (2 pi)^(-1/2) Int rho |S|^2 dw for A = k(X, X), and for
    B = k(X + b, X), rho being even, <sym(B) a, a> = <B a, a> =
    (2 pi)^(-1/2) Int rho |S|^2 cos(w b) dw.  As 1 - cos(w b) = 2 sin^2(w b / 2),
    D(a) = <(A - sym(B)) a, a> / 2.  Checks D(a) <= 2 eps <A a, a> for
    |b| <= sqrt(eps) q_X, and for tau > 1 the improved budget
    2 eps c_min^(1/tau) R^(1-1/tau) q^(2-d/tau) ||a||^2 with the fitted constant
    c_min.  D(a) is a difference of O(||A|| ||a||^2) terms, so checks with D(a)
    below precision_floor(eig(A)) ||a||^2 are flagged unreliable.
    """
    if not 0.0 < eps < 1.0:
        raise ValueError("eps must lie in (0, 1)")
    alpha = np.asarray(alpha, dtype=float)
    q = X.separation
    if abs(b) > math.sqrt(eps) * q * (1.0 + 1e-12):
        raise ValueError(
            f"shift {b} violates |b| <= sqrt(eps) * q_X = {math.sqrt(eps) * q:.3e}"
        )
    spec = density.kernel
    if density.tau > 1 and c_min is None:
        c_min = SYMMETRIC_BOUND_CONSTANTS.get((spec.family, X.dim))
        if c_min is None:
            raise ValueError(
                f"no fitted constant for {spec.family.value} in dimension {X.dim}; pass c_min"
            )
    A = gram(spec, X)
    B_sym = symmetric_part(shifted_gram(spec, X, [b]))
    lhs = 0.5 * float(alpha @ ((A - B_sym) @ alpha))
    quad_form = float(alpha @ (A @ alpha))
    norm2 = float(alpha @ alpha)
    reliable = lhs >= precision_floor(np.linalg.eigvalsh(A)) * norm2
    checks = [_check("damping-basic", lhs, 2.0 * eps * quad_form, reliable=reliable)]
    if density.tau > 1:
        r_sym = quad_form / norm2
        rhs = (
            2.0 * eps * c_min ** (1.0 / density.tau)
            * r_sym ** (1.0 - 1.0 / density.tau)
            * q ** (2.0 - X.dim / density.tau) * norm2
        )
        checks.append(_check("damping-improved", lhs, rhs, reliable=reliable))
    return checks


def verify_conv_chain(
    spec: KernelSpec,
    X: PointSet,
    directions,
    b: float,
    c: Optional[float] = None,
) -> list[list[BoundCheck]]:
    """Two links of the convolved-kernel lower-bound chain, for a given shift,
    along each coefficient vector a of ``directions`` (one check list each).

    (a) the convolved quadratic form dominates q * ||k(X+b, X) a||^2, a
    single-shift surrogate of the ball-averaging step, and (b) the end-to-end
    statement <k* a, a> / ||a||^2 >= c q^d (<k a, a> / ||a||^2)^2 with the
    fitted constant (``conv_lower_bound_from_sym``).  q is min(boundary
    distance, q_X) when positive and q_X otherwise; checks whose quadratic
    form sits below the precision floor of k* are flagged unreliable.  The
    matrices are built once for all directions.  Each direction enters only
    through quadratic forms, so negating it (in the same memory layout)
    leaves every check bitwise unchanged; a zero direction is a
    ``ValueError``.
    """
    q_x = X.separation
    q_b = boundary_distance(X)
    q = min(q_b, q_x) if min(q_b, q_x) > 0 else q_x
    if abs(b) > q * (1.0 + 1e-12):
        raise ValueError(f"shift {b} violates |b| <= q = {q:.3e}")
    if c is None:
        c = CONV_BOUND_CONSTANTS.get((spec.family, X.dim))
    if c is None:
        raise ValueError(
            f"no fitted constant for {spec.family.value} in dimension {X.dim}; pass c"
        )
    K = conv_gram(spec, X)
    A = gram(spec, X)
    B = shifted_gram(spec, X, [b])
    floor = precision_floor(np.linalg.eigvalsh(K))
    per_direction = []
    for alpha in directions:
        alpha = np.asarray(alpha, dtype=float)
        norm2 = float(alpha @ alpha)
        if norm2 == 0.0:
            raise ValueError("direction is the zero vector")
        quad_conv = float(alpha @ (K @ alpha))
        reliable = quad_conv >= floor * norm2
        pointwise = q * float(np.sum((B @ alpha) ** 2))
        r_sym = float(alpha @ (A @ alpha)) / norm2
        end_to_end = conv_lower_bound_from_sym(X.dim, q, r_sym, c)
        per_direction.append([
            _check("conv-chain-pointwise", pointwise, quad_conv, reliable=reliable),
            _check("conv-chain-end-to-end", end_to_end, quad_conv / norm2, reliable=reliable),
        ])
    return per_direction


@dataclass(frozen=True)
class FittedLaw:
    """Least-squares power law value ~ exp(log_constant) * q^exponent."""

    exponent: float
    log_constant: float
    r_squared: float
    support: tuple


#: fewest samples a power law is fitted to
MIN_FIT_SAMPLES = 3


def fit_power_law(samples: Sequence[tuple[float, float]]) -> FittedLaw:
    """Fit log(value) = exponent * log(q) + log_constant.

    Nonpositive and nonfinite values (precision-floor artifacts) are
    excluded; the survivors are the law's ``support``.  With fewer than
    ``MIN_FIT_SAMPLES`` of them there is no fit: the law has NaN exponent,
    log-constant and r^2, and keeps its support.
    """
    kept = tuple((float(q), float(v)) for q, v in samples if v > 0 and math.isfinite(v))
    if len(kept) < MIN_FIT_SAMPLES:
        return FittedLaw(math.nan, math.nan, math.nan, kept)
    logq = np.log([q for q, _ in kept])
    logv = np.log([v for _, v in kept])
    design = np.column_stack([logq, np.ones_like(logq)])
    (exponent, log_constant), *_ = np.linalg.lstsq(design, logv, rcond=None)
    resid = logv - design @ np.array([exponent, log_constant])
    ss_tot = float(np.sum((logv - logv.mean()) ** 2))
    r_squared = 1.0 if ss_tot == 0 else 1.0 - float(np.sum(resid ** 2)) / ss_tot
    return FittedLaw(
        exponent=float(exponent),
        log_constant=float(log_constant),
        r_squared=r_squared,
        support=kept,
    )
