"""Gram matrices: symmetric, shifted unsymmetric, and domain-convolved."""

from __future__ import annotations

import math
from itertools import combinations_with_replacement

import numpy as np

from .errors import QuadratureError
from .geometry import PointSet, _row_blocks, _squared_distances
from .kernels import PROFILES, KernelSpec, phi
from .quadrature import conv_value


def _whole(n: int, rows_into, work: int) -> np.ndarray:
    """The n x n matrix whose rows ``rows_into`` writes, built whole.

    ``rows_into(indices, dest, *scratch)`` writes the rows ``indices`` into
    ``dest``, with ``work`` scratch arrays of its shape.  It is called once
    per row block of ``_row_blocks``, ``dest`` being the block of the
    matrix, so the matrix is the only n x n array built; a block holds as
    many rows as its ``work`` scratch blocks together hold at most
    ``_BLOCK_ENTRIES`` entries.  This is the ``into`` of ``gram`` and
    ``conv_gram`` by default, and ``centrosymmetric_eigvalsh`` builds a
    matrix it does not split with it, from the row function it was handed.
    """
    out = np.empty((n, n))
    blocks = _row_blocks(n, work * n)
    scratch = np.empty((work, blocks[0][1], n))  # the first block is the tallest
    for start, stop in blocks:
        rows_into(np.arange(start, stop), out[start:stop], *scratch[:, : stop - start])
    return out


def _kernel_rows(spec: KernelSpec, P: np.ndarray, Q: np.ndarray):
    """The row function of the kernel matrix between P and Q (see
    ``_whole``): each block of squared distances, then its square root and
    the profile, written over the block."""

    def rows_into(indices, dest, tmp):
        _squared_distances(P[indices], Q, dest, tmp)
        phi(spec, np.sqrt(dest, out=dest), out=dest)

    return rows_into


def gram(spec: KernelSpec, X: PointSet, into=_whole):
    """Pairwise kernel matrix on X; exactly symmetric, diagonal phi(0).

    Each distance is built from the coordinate differences, which change only
    sign when the two points swap and are exactly 0 for a point with itself,
    so the distance matrix, and with it the kernel matrix, is symmetric bit
    for bit with an exact 0 diagonal; no mirroring pass is needed.  Every
    entry is bitwise the same whichever rows are built with it.

    Returns ``into(n, rows_into, 1)`` for the row function ``rows_into``
    of the matrix (see ``_whole``), which writes the profile over its block
    of distances: by default the matrix, built whole by row blocks, the only
    n x n array built.  ``into=centrosymmetric_eigvalsh`` returns the
    matrix's spectrum instead: it asks for the rows in mirrored pairs and
    folds them.
    """
    if X.dim != spec.dim:
        raise ValueError(f"point set dimension {X.dim} != kernel dimension {spec.dim}")
    return into(len(X), _kernel_rows(spec, X.points, X.points), 1)


def shifted_gram(spec: KernelSpec, X: PointSet, b) -> np.ndarray:
    """Kernel matrix between the translated set X + b and X; unsymmetric for b != 0.

    Built whole by row blocks, as ``gram`` is.  A shift whose squared
    coordinate differences could overflow is a ``ValueError``, raised before
    any row is built."""
    if X.dim != spec.dim:
        raise ValueError(f"point set dimension {X.dim} != kernel dimension {spec.dim}")
    b = np.atleast_1d(np.asarray(b, dtype=float))
    if b.shape != (X.dim,):
        raise ValueError(f"shift vector must have dimension {X.dim}")
    # a coordinate difference is at most extent + |b_k|: below sqrt(max / 2d), d squares sum finite
    if np.max(np.ptp(X.points, axis=0) + np.abs(b)) >= math.sqrt(np.finfo(float).max / (2 * X.dim)):
        raise ValueError(f"the shift of size {np.max(np.abs(b)):.3g} is too large: the squared "
                         "distances of X + b and X overflow; lower the shift (--shift-factor)")
    return _whole(len(X), _kernel_rows(spec, X.points + b, X.points), 1)


def _symmetrize(B: np.ndarray) -> np.ndarray:
    """Overwrite the square B with ``0.5 (B + B^T)``, and return it.

    Row block I and column block I are paired up to I's stop, so each pair
    of mirrored entries is read before either is written, and each entry is
    ``(B_ij + B_ji) * 0.5``, bitwise ``(B + B^T) * 0.5``: addition commutes
    exactly.  The scratch is one row block, not a second n x n matrix.
    """
    n = len(B)
    blocks = _row_blocks(n, n)
    work = np.empty((blocks[0][1] if blocks else 0, n))  # the first block is the tallest
    for start, stop in blocks:
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


def _conv_rows(Q, t: np.ndarray, Wt: np.ndarray, rows, out: np.ndarray, work) -> None:
    """The rows of indices ``rows`` of ``Q(r) e^(-r) - sum_l w_l w_l^T``,
    ``r = |t_i - t_j|``, into ``out``, with ``w_l`` the rows of ``Wt``.

    ``Q`` holds the coefficients from degree 0 up, evaluated by
    ``np.polyval``'s Horner steps; the tail term is the column sum in the
    order of ``l``, each product ``w_il w_jl`` rounded once, so entry (i, j)
    is bitwise entry (j, i) and neither depends on which other rows are
    formed with it.  ``work`` is two scratch arrays of ``out``'s shape.
    """
    r, term = work
    np.subtract.outer(t[rows], t, out=r)
    np.abs(r, out=r)
    # Horner from the leading coefficient: (0 r + c) r is c r, bit for bit
    np.multiply(r, Q[-1], out=out)
    out += Q[-2]
    for c in reversed(Q[:-2]):
        out *= r
        out += c
    out *= np.exp(np.negative(r, out=r), out=r)
    Wr = Wt[:, rows]
    np.multiply.outer(Wr[0], Wt[0], out=r)
    for w_rows, w in zip(Wr[1:], Wt[1:]):
        r += np.multiply.outer(w_rows, w, out=term)
    out -= r


#: largest relative deviation of conv_gram's closed form from its spot check
SPOT_CHECK_TOL = 1e-10


def _spot_check(spec: KernelSpec, x: np.ndarray, domain, rows_into) -> float:
    """Largest deviation of the entries {0, n//2, n-1}^2 of the matrix whose
    rows ``rows_into`` writes at the points ``x`` from ``conv_value``, over
    the upper triangle, relative to their largest diagonal entry, which
    bounds every one of them in a positive semidefinite matrix; np.max, so a
    NaN is kept."""
    n = len(x)
    idx = np.array(sorted({0, n // 2, n - 1}))
    rows = np.empty((3, len(idx), n))  # the spot rows and two scratch blocks
    rows_into(idx, *rows)
    K = rows[0][:, idx]
    deviation = np.max([
        abs(K[k, l] - conv_value(spec, x[idx[k]], x[idx[l]], domain))
        for k, l in combinations_with_replacement(range(len(idx)), 2)
    ])
    return float(deviation / np.max(np.diagonal(K)))


def conv_gram(spec: KernelSpec, X: PointSet, into=_whole):
    """Gram matrix of the domain-convolved kernel over the 1-D domain box of X.

    Entry (i, j) is Int_a^b k(x_i, y) k(y, x_j) dy, assembled in closed
    form in O(n^2): the whole-line self-convolution Q(r) e^(-r) minus the
    half-line tails beyond a and beyond b, each a separable term of rank at
    most three, the columns of W.  The tail term ``W W^T`` is summed column
    by column in a fixed order (``_conv_rows``), not by BLAS's ``W @ W.T``,
    whose rows ``W[I] @ W.T`` differ in the last bit from those of the whole
    product for most block heights: so each row is the same bits whichever
    rows are built with it, and the matrix is exactly symmetric without a
    symmetrizing pass.  The tail factor is built once per call.

    Before any other row is built, the closed form is spot-checked against
    ``conv_value`` on the entries {0, n//2, n-1}^2 of its own rows
    (``_spot_check``); a deviation that is not below ``SPOT_CHECK_TOL``
    raises QuadratureError with the achieved deviation, and ``into`` is
    never called.

    Returns ``into(n, rows_into, 2)`` for the row function of the matrix, as
    ``gram`` does: by default the matrix, built whole by the row blocks of
    ``_whole``, the only n x n array built.
    """
    if X.dim != 1 or spec.dim != 1:
        raise ValueError("convolution Gram matrices are 1-D only")
    a, b = float(X.domain[0, 0]), float(X.domain[0, 1])
    x, n = X.points[:, 0], len(X)
    profile = PROFILES[spec.family]
    t = x - a
    Wt = np.concatenate([_tail_factor(profile.p, t).T, _tail_factor(profile.p, (b - a) - t).T])

    def rows_into(indices, dest, *work):
        _conv_rows(profile.Q, t, Wt, indices, dest, work)

    achieved = _spot_check(spec, x, (a, b), rows_into)
    # written as "not below", so a NaN deviation fails too
    if not achieved <= SPOT_CHECK_TOL:
        raise QuadratureError(
            f"convolution quadrature reached {achieved:.3e}, "
            f"target {SPOT_CHECK_TOL:.1e}; the closed form disagrees with its quadrature",
            achieved=float(achieved),
            target=SPOT_CHECK_TOL,
        )
    return into(n, rows_into, 2)
