"""Gram matrices: symmetric, shifted unsymmetric, and domain-convolved."""

from __future__ import annotations

import math
from itertools import combinations_with_replacement

import numpy as np

from .errors import QuadratureError
from .geometry import _BLOCK_ENTRIES, PointSet, _squared_distance_blocks
from .kernels import PROFILES, KernelSpec, phi
from .quadrature import conv_value


def _distance_matrix(P: np.ndarray, Q: np.ndarray) -> np.ndarray:
    out = np.empty((P.shape[0], Q.shape[0]))
    for block in _squared_distance_blocks(P, Q, out):
        np.sqrt(block, out=block)
    return out


def _kernel_matrix(spec: KernelSpec, P: np.ndarray, Q: np.ndarray) -> np.ndarray:
    # the profile is written over the distance matrix: one n x m array
    D = _distance_matrix(P, Q)
    return phi(spec, D, out=D)


def gram(spec: KernelSpec, X: PointSet) -> np.ndarray:
    """Pairwise kernel matrix on X; exactly symmetric, diagonal phi(0).

    Each distance is built from the coordinate differences, which change only
    sign when the two points swap and are exactly 0 for a point with itself,
    so the distance matrix, and with it the kernel matrix, is symmetric bit
    for bit with an exact 0 diagonal; no mirroring pass is needed.  The
    profile is written over the distance matrix, so the result is the only
    n x n array built.
    """
    if X.dim != spec.dim:
        raise ValueError(f"point set dimension {X.dim} != kernel dimension {spec.dim}")
    return _kernel_matrix(spec, X.points, X.points)


def shifted_gram(spec: KernelSpec, X: PointSet, b) -> np.ndarray:
    """Kernel matrix between the translated set X + b and X; unsymmetric for b != 0.

    Built over its distance matrix, as ``gram`` is."""
    if X.dim != spec.dim:
        raise ValueError(f"point set dimension {X.dim} != kernel dimension {spec.dim}")
    b = np.atleast_1d(np.asarray(b, dtype=float))
    if b.shape != (X.dim,):
        raise ValueError(f"shift vector must have dimension {X.dim}")
    return _kernel_matrix(spec, X.points + b, X.points)


def _symmetrize(B: np.ndarray) -> np.ndarray:
    """Overwrite the square B with ``0.5 (B + B^T)``, and return it.

    Row block I and column block I are paired up to I's stop, so each pair
    of mirrored entries is read before either is written, and each entry is
    ``(B_ij + B_ji) * 0.5``, bitwise ``(B + B^T) * 0.5``: addition commutes
    exactly.  The scratch is one row block, not a second n x n matrix.
    """
    n = len(B)
    rows = max(1, _BLOCK_ENTRIES // max(1, n))
    work = np.empty((min(rows, n), n))
    for start in range(0, n, rows):
        stop = min(start + rows, n)
        lower, upper = B[start:stop, :stop], B[:stop, start:stop]
        pair = np.add(lower, upper.T, out=work[: stop - start, :stop])
        pair *= 0.5
        lower[...] = pair
        upper[...] = pair.T
    return B


def symmetric_part(A) -> np.ndarray:
    A = np.asarray(A, dtype=float)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ValueError("need a square matrix")
    return _symmetrize(A.copy())


def antisymmetric_part(A) -> np.ndarray:
    A = np.asarray(A, dtype=float)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ValueError("need a square matrix")
    return 0.5 * (A - A.T)


def _tail_factor(p, t: np.ndarray) -> np.ndarray:
    """Rows W_i with W_i . W_j = Int_0^inf phi(t_i + s) phi(t_j + s) ds,
    for the profile polynomial p with coefficients from degree 0 up.

    Taylor expansion gives p(t + s) = sum_k c_k(t) s^k with c_k = p^(k)/k!,
    and the moments Int_0^inf s^(k+l) e^(-2s) ds = (k+l)!/2^(k+l+1) form a
    Gram matrix G = R R^T, so W_i = e^(-t_i) [c_0(t_i) ... c_m(t_i)] R.
    """
    m = len(p)
    moments = [[math.factorial(k + l) / 2.0 ** (k + l + 1) for l in range(m)] for k in range(m)]
    taylor = np.stack(
        [np.polyval(np.polyder(p[::-1], k), t) / math.factorial(k) for k in range(m)], axis=1
    )
    return (np.exp(-t)[:, None] * taylor) @ np.linalg.cholesky(moments)


def _overwrite_with_profile(Q, t: np.ndarray, K: np.ndarray) -> None:
    """Overwrite ``K`` with ``Q(r) e^(-r) - K``, ``r = |t_i - t_j|``, by row blocks.

    ``Q`` holds the coefficients from degree 0 up, evaluated by
    ``np.polyval``'s Horner steps, so every entry is bitwise that expression.
    The scratch is two row blocks: one holds r and then e^(-r), the other
    the polynomial.  Together they hold at most ``_BLOCK_ENTRIES`` entries,
    and from n = 16 on at most an eighth of K's, so that for small n too they
    are a small part of K.
    """
    n = len(t)
    rows = max(1, min(_BLOCK_ENTRIES // max(1, 2 * n), n // 16))
    r_rows, q_rows = np.empty((2, min(rows, n), n))
    for start in range(0, n, rows):
        stop = min(start + rows, n)
        r, q = r_rows[: stop - start], q_rows[: stop - start]
        np.subtract(t[start:stop, None], t, out=r)
        np.abs(r, out=r)
        q[...] = 0.0
        for c in reversed(Q):
            q *= r
            q += c
        np.negative(r, out=r)
        q *= np.exp(r, out=r)
        np.subtract(q, K[start:stop], out=K[start:stop])


def _conv_closed_form(spec: KernelSpec, x: np.ndarray, a: float, b: float) -> np.ndarray:
    """Q(r) e^(-r) - W W^T, symmetrized, in one n x n matrix.

    Relative to a, Int_a^b = Int_R minus the half-line tails beyond a and
    beyond b, each a separable rank-(m+1) term, the rows of W.  The matrix
    starts as W W^T, is overwritten row block by row block with the
    whole-line term minus itself, and is symmetrized in place, so every
    entry is bitwise ``0.5 (K + K^T)`` of ``K = np.polyval(Q, r) e^(-r) - W W^T``
    and the scratch is a few row blocks.
    """
    profile = PROFILES[spec.family]
    t = x - a
    W = np.hstack([_tail_factor(profile.p, t), _tail_factor(profile.p, (b - a) - t)])
    K = W @ W.T
    _overwrite_with_profile(profile.Q, t, K)
    return _symmetrize(K)


#: largest relative deviation of conv_gram's closed form from its spot check
SPOT_CHECK_TOL = 1e-10


def _spot_check(spec: KernelSpec, x: np.ndarray, domain, K: np.ndarray) -> float:
    # relative deviation from conv_value on the corner and middle entries
    idx = sorted({0, len(x) // 2, len(x) - 1})
    deviations = [
        abs(K[i, j] - conv_value(spec, x[i], x[j], domain))
        for i, j in combinations_with_replacement(idx, 2)
    ]
    worst = float(np.max(deviations))  # np.max, so a NaN is kept
    # max |K| without an n x n |K|
    return worst / float(max(K.max(), -K.min()))


def conv_gram(spec: KernelSpec, X: PointSet) -> np.ndarray:
    """Gram matrix of the domain-convolved kernel over the 1-D domain box of X.

    Entry (i, j) is Int_a^b k(x_i, y) k(y, x_j) dy, assembled in closed
    form in O(n^2): the whole-line self-convolution
    Q(r) e^(-r) minus two separable half-line tails, of rank at most three
    each.  The closed form is spot-checked against ``conv_value`` on the
    entries {0, n//2, n-1}^2, which raises QuadratureError with the achieved
    deviation when it exceeds ``SPOT_CHECK_TOL``.  The result is
    symmetrized, so it is exactly symmetric.  It is the only n x n array
    built: the closed form is assembled over it in row blocks.
    """
    if X.dim != 1 or spec.dim != 1:
        raise ValueError("convolution Gram matrices are 1-D only")
    a, b = float(X.domain[0, 0]), float(X.domain[0, 1])
    x = X.points[:, 0]
    K = _conv_closed_form(spec, x, a, b)
    achieved = _spot_check(spec, x, (a, b), K)
    # written as "not below", so a NaN deviation fails too
    if not achieved <= SPOT_CHECK_TOL:
        raise QuadratureError(
            f"convolution quadrature reached {achieved:.3e}, "
            f"target {SPOT_CHECK_TOL:.1e}; the closed form disagrees with its quadrature",
            achieved=achieved,
            target=SPOT_CHECK_TOL,
        )
    return K
