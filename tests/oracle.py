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
    u = abs(r) / mpmath.mpf(spec.length_scale)
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
        w = mpmath.eigsy(M, eigvals_only=True)
        return np.sort(np.array([float(v) for v in w]))
