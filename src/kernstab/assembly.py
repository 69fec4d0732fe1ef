"""Gram matrices: symmetric, shifted unsymmetric, and domain-convolved."""

from __future__ import annotations

import math
from itertools import combinations_with_replacement

import numpy as np

from .errors import QuadratureError
from .geometry import PointSet, _squared_distance_blocks
from .kernels import Family, KernelSpec, phi
from .quadrature import conv_value


def _distance_matrix(P: np.ndarray, Q: np.ndarray) -> np.ndarray:
    out = np.empty((P.shape[0], Q.shape[0]))
    for block in _squared_distance_blocks(P, Q, out):
        np.sqrt(block, out=block)
    return out


def gram(spec: KernelSpec, X: PointSet) -> np.ndarray:
    """Pairwise kernel matrix on X; exactly symmetric, diagonal phi(0).

    Each distance is built from the coordinate differences, which change only
    sign when the two points swap and are exactly 0 for a point with itself,
    so the distance matrix, and with it the kernel matrix, is symmetric bit
    for bit with an exact 0 diagonal; no mirroring pass is needed.
    """
    if X.dim != spec.dim:
        raise ValueError(f"point set dimension {X.dim} != kernel dimension {spec.dim}")
    return phi(spec, _distance_matrix(X.points, X.points))


def shifted_gram(spec: KernelSpec, X: PointSet, b) -> np.ndarray:
    """Kernel matrix between the translated set X + b and X; unsymmetric for b != 0."""
    if X.dim != spec.dim:
        raise ValueError(f"point set dimension {X.dim} != kernel dimension {spec.dim}")
    b = np.atleast_1d(np.asarray(b, dtype=float))
    if b.shape != (X.dim,):
        raise ValueError(f"shift vector must have dimension {X.dim}")
    return phi(spec, _distance_matrix(X.points + b, X.points))


def symmetric_part(A) -> np.ndarray:
    A = np.asarray(A, dtype=float)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ValueError("need a square matrix")
    S = A + A.T
    S *= 0.5
    return S


def antisymmetric_part(A) -> np.ndarray:
    A = np.asarray(A, dtype=float)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ValueError("need a square matrix")
    return 0.5 * (A - A.T)


# half-integer Matern families as np.polyval coefficients (highest degree
# first): the profile phi(r) = p(r) e^(-r) and its whole-line
# self-convolution Int_R phi(|x - y|) phi(|y - z|) dy = Q(|x - z|) e^(-|x - z|)
_CONV_POLYNOMIALS = {
    Family.MATERN_BASIC: ([1.0], [1.0, 1.0]),
    Family.MATERN_LINEAR: ([1.0, 1.0], [1 / 6, 1.0, 2.5, 2.5]),
    Family.MATERN_QUADRATIC: ([1.0, 3.0, 3.0], [1 / 30, 0.5, 3.5, 14.0, 31.5, 31.5]),
}


def _tail_factor(p, t: np.ndarray) -> np.ndarray:
    """Rows W_i with W_i . W_j = Int_0^inf phi(t_i + s) phi(t_j + s) ds.

    Taylor expansion gives p(t + s) = sum_k c_k(t) s^k with c_k = p^(k)/k!,
    and the moments Int_0^inf s^(k+l) e^(-2s) ds = (k+l)!/2^(k+l+1) form a
    Gram matrix G = R R^T, so W_i = e^(-t_i) [c_0(t_i) ... c_m(t_i)] R.
    """
    m = len(p)
    moments = [[math.factorial(k + l) / 2.0 ** (k + l + 1) for l in range(m)] for k in range(m)]
    taylor = np.stack(
        [np.polyval(np.polyder(p, k), t) / math.factorial(k) for k in range(m)], axis=1
    )
    return (np.exp(-t)[:, None] * taylor) @ np.linalg.cholesky(moments)


def _conv_closed_form(spec: KernelSpec, x: np.ndarray, a: float, b: float) -> np.ndarray:
    # relative to a, Int_a^b = Int_R minus the half-line tails beyond a and
    # beyond b, each a separable rank-(m+1) term
    p, q = _CONV_POLYNOMIALS[spec.family]
    t = x - a
    # Q(r) e^(-r) - W W^T, symmetrized, bit for bit as that expression with
    # np.polyval, but in two n x n buffers: each temporary is written over
    # one that is dead by then
    W = np.hstack([_tail_factor(p, t), _tail_factor(p, (b - a) - t)])
    r = np.subtract.outer(t, t)
    np.abs(r, out=r)
    K = np.zeros_like(r)
    for c in q:  # np.polyval's Horner steps
        K *= r
        K += c
    np.negative(r, out=r)
    K *= np.exp(r, out=r)
    K -= np.matmul(W, W.T, out=r)
    np.add(K, K.T, out=r)
    r *= 0.5
    return r


#: largest relative deviation of conv_gram's closed form from its spot check
SPOT_CHECK_TOL = 1e-10


def _spot_check(spec: KernelSpec, x: np.ndarray, domain, K: np.ndarray) -> float:
    # relative deviation from conv_value on the corner and middle entries
    idx = sorted({0, len(x) // 2, len(x) - 1})
    worst = max(
        abs(K[i, j] - conv_value(spec, x[i], x[j], domain))
        for i, j in combinations_with_replacement(idx, 2)
    )
    return worst / float(np.max(np.abs(K)))


def conv_gram(spec: KernelSpec, X: PointSet) -> np.ndarray:
    """Gram matrix of the domain-convolved kernel over the 1-D domain box of X.

    Entry (i, j) is Int_a^b k(x_i, y) k(y, x_j) dy, assembled in closed
    form in O(n^2): the whole-line self-convolution
    Q(r) e^(-r) minus two separable half-line tails, of rank at most three
    each.  The closed form is spot-checked against ``conv_value`` on the
    entries {0, n//2, n-1}^2, which raises QuadratureError with the achieved
    deviation when it exceeds ``SPOT_CHECK_TOL``.  The result is
    symmetrized, so it is exactly symmetric.
    """
    if X.dim != 1 or spec.dim != 1:
        raise ValueError("convolution Gram matrices are 1-D only")
    a, b = float(X.domain[0, 0]), float(X.domain[0, 1])
    x = X.points[:, 0]
    K = _conv_closed_form(spec, x, a, b)
    achieved = _spot_check(spec, x, (a, b), K)
    if achieved > SPOT_CHECK_TOL:
        raise QuadratureError(
            f"convolution quadrature reached {achieved:.3e}, "
            f"target {SPOT_CHECK_TOL:.1e}; the closed form disagrees with its quadrature",
            achieved=achieved,
            target=SPOT_CHECK_TOL,
        )
    return K
