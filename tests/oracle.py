"""High-precision reference values for the kernel matrices, from mpmath.

The matrices are built from the same double-precision points and shift as
the program's, converted exactly, with every profile value and every matrix
operation carried at ``DIGITS`` decimal digits.  Their eigenvalues are then
the exact ones of the program's inputs up to far less than double
roundoff, which makes them the yardstick for the program's own spectra.
Only 1-D point sets are covered.

``mp.eigsy`` costs about 2 s at n = 40 and 4 s at n = 60, so callers in the
fast test tier keep n <= 60.
"""

from __future__ import annotations

import mpmath
import numpy as np

from kernstab import Family, KernelSpec, PointSet

DIGITS = 50

# radial profile p(u) e^(-u) per family, as coefficients of p from degree 0
_PROFILE = {
    Family.MATERN_BASIC: (1,),
    Family.MATERN_LINEAR: (1, 1),
    Family.MATERN_QUADRATIC: (3, 3, 1),
}


def _phi(spec: KernelSpec, r):
    u = abs(r)
    return mpmath.polyval(_PROFILE[spec.family][::-1], u) * mpmath.exp(-u)


def _coordinates(spec: KernelSpec, X: PointSet) -> list:
    if spec.dim != 1 or X.dim != 1:
        raise ValueError("the oracle covers 1-D point sets only")
    return [mpmath.mpf(float(x)) for x in X.points[:, 0]]


def gram(spec: KernelSpec, X: PointSet) -> mpmath.matrix:
    """k(X, X) at ``DIGITS`` digits."""
    with mpmath.workdps(DIGITS):
        x = _coordinates(spec, X)
        return mpmath.matrix([[_phi(spec, xi - xj) for xj in x] for xi in x])


def sym_shifted_gram(spec: KernelSpec, X: PointSet, b: float) -> mpmath.matrix:
    """sym k(X + b, X) = (k(X + b, X) + k(X + b, X)^T) / 2 at ``DIGITS`` digits."""
    with mpmath.workdps(DIGITS):
        x = _coordinates(spec, X)
        shift = mpmath.mpf(float(b))
        return mpmath.matrix([
            [(_phi(spec, xi + shift - xj) + _phi(spec, xj + shift - xi)) / 2 for xj in x]
            for xi in x
        ])


def _times(p: list, q: list) -> list:
    out = [mpmath.mpf(0)] * (len(p) + len(q) - 1)
    for i, pi in enumerate(p):
        for j, qj in enumerate(q):
            out[i + j] += pi * qj
    return out


def _at(p: list, s):
    return mpmath.polyval(p[::-1], s)


def _composed(p: list, slope, offset) -> list:
    """Coefficients (degree 0 first) of s -> p(slope s + offset)."""
    out = [mpmath.mpf(0)]
    for c in p[::-1]:  # Horner on polynomials
        out = _times(out, [offset, slope])
        out[0] += c
    return out


def _conv_entry(p: list, d, lower, upper):
    """Int p(|t - t1|) p(|t - t2|) e^(-|t - t1| - |t - t2|) dt over the
    interval reaching ``lower`` below min(t1, t2) and ``upper`` above
    max(t1, t2), with d = |t1 - t2|.

    Between the points, u = t - min(t1, t2) leaves p(u) p(d - u) e^(-d), a
    polynomial.  Outside them, s = the distance to the nearer point leaves
    R(s) e^(-2 s - d) with R(s) = p(s) p(s + d), and integration by parts
    gives Int_0^L R(s) e^(-2 s) ds = sum_k (R^(k)(0) - e^(-2 L) R^(k)(L)) / 2^(k+1).
    """
    between = _times(p, _composed(p, -1, d))  # p(u) p(d - u)
    total = sum(c * d ** (k + 1) / (k + 1) for k, c in enumerate(between))
    outer = _times(p, _composed(p, 1, d))
    for length in (lower, upper):
        R, scale = outer, mpmath.mpf(1) / 2
        while R:
            total += scale * (_at(R, 0) - mpmath.exp(-2 * length) * _at(R, length))
            R = [k * c for k, c in enumerate(R)][1:]
            scale /= 2
    return total * mpmath.exp(-d)


def conv_gram(spec: KernelSpec, X: PointSet) -> mpmath.matrix:
    """k*(X, X), entry (i, j) = Int_a^b phi(|x_i - y|) phi(|y - x_j|) dy over
    the domain [a, b] of X, at ``DIGITS`` digits.

    Each entry is integrated exactly over the three panels the two points
    cut [a, b] into (``_conv_entry``), so no quadrature and none of the
    program's half-line tail algebra enters it.
    """
    with mpmath.workdps(DIGITS):
        x = _coordinates(spec, X)
        a, b = (mpmath.mpf(float(v)) for v in X.domain[0])
        p = [mpmath.mpf(c) for c in _PROFILE[spec.family]]
        n = len(x)
        K = mpmath.matrix(n, n)
        for i in range(n):
            for j in range(i, n):
                lo, hi = min(x[i], x[j]), max(x[i], x[j])
                K[i, j] = K[j, i] = _conv_entry(p, hi - lo, lo - a, b - hi)
        return K


def spectrum(M: mpmath.matrix) -> np.ndarray:
    """Ascending eigenvalues of the symmetric ``M`` at ``DIGITS`` digits,
    rounded to doubles."""
    with mpmath.workdps(DIGITS):
        w = mpmath.eigsy(M, eigvals_only=True)
        return np.sort(np.array([float(v) for v in w]))


def whitened_spectrum(spec: KernelSpec, X: PointSet, b: float) -> np.ndarray:
    """Ascending eigenvalues of A^(-1/2) sym(B) A^(-1/2), A = k(X, X) and
    B = k(X + b, X), rounded to doubles.

    Computed as the spectrum of L^-1 sym(B) L^-T with A = L L^T, which is the
    same spectrum (``kernstab.whitened_spectrum`` gives the derivation); at
    ``DIGITS`` digits the route does not matter.
    """
    with mpmath.workdps(DIGITS):
        A = gram(spec, X)
        S = sym_shifted_gram(spec, X, b)
        L_inv = mpmath.inverse(mpmath.cholesky(A))
        M = L_inv * S * L_inv.T
        n = M.rows
        for i in range(n):  # exactly symmetric for eigsy
            for j in range(i):
                M[i, j] = M[j, i] = (M[i, j] + M[j, i]) / 2
        return spectrum(M)
