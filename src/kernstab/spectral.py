"""Dense symmetric eigendecomposition and derived transforms."""

from __future__ import annotations

import numpy as np

from .assembly import _symmetrize, _whole, symmetric_part
from .errors import SingularMatrixError
from .geometry import _row_blocks

#: relative spread below which whitening output is roundoff noise
_SPD_FLOOR = 1e3 * np.finfo(float).eps


def _check_symmetric(A) -> tuple[np.ndarray, float]:
    """``(A, ||A||_1)`` of a square A that is finite and symmetric to 1e-12
    relative, in one pass over its row blocks, each against its column
    block: no temporary exceeds a row block.  The norm is the largest row
    sum of ``|A|``, bitwise ``np.linalg.norm(A, np.inf)``.  A NaN or an
    infinity raises ``SingularMatrixError``."""
    A = np.asarray(A, dtype=float)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ValueError("need a square matrix")
    scale = norm = asymmetry = 0.0
    for start, stop in _row_blocks(len(A), len(A)):
        rows, mirror = A[start:stop], A[:, start:stop].T
        magnitudes = np.abs(rows)
        # np.max keeps a NaN, so this is finite only if every entry is
        top = float(np.max(magnitudes))
        if not np.isfinite(top):
            raise SingularMatrixError("matrix has a non-finite entry")
        scale = max(scale, top)
        norm = max(norm, float(np.max(np.sum(magnitudes, axis=1))))
        if not np.array_equal(rows, mirror):
            asymmetry = max(asymmetry, float(np.max(np.abs(rows - mirror))))
    if asymmetry > 1e-12 * max(scale, 1e-300):
        raise ValueError("matrix is not symmetric to 1e-12 relative")
    return A, norm


def sym_eigen(A):
    """``(w, Q)`` of ``np.linalg.eigh``: ascending eigenvalues and orthonormal
    eigenvector columns, signed as LAPACK leaves them; no output reads a sign
    (``inv_sqrt`` and ``verify_conv_chain`` are bitwise sign-invariant)."""
    return np.linalg.eigh(_check_symmetric(A)[0])


def _require_spd(w) -> None:
    """Reject the ascending spectrum ``w`` if lambda_min <= 1e3 eps lambda_max."""
    if w[0] <= _SPD_FLOOR * w[-1]:
        raise SingularMatrixError(
            f"matrix numerically singular for inverse square root "
            f"(lambda_min = {w[0]:.3e}, lambda_max = {w[-1]:.3e})",
            lambda_min=float(w[0]),
            lambda_max=float(w[-1]),
        )


def inv_sqrt(A) -> np.ndarray:
    """Symmetric inverse square root of an SPD matrix.

    Inputs with lambda_min <= 1e3 * eps * lambda_max are rejected: whitening
    against such a matrix would return noise.  The result does not depend
    on the signs of the eigenvectors, bit for bit.
    """
    w, Q = sym_eigen(A)
    _require_spd(w)
    scaled = Q / np.sqrt(w)
    S = scaled @ Q.T
    del scaled
    return _symmetrize(S)


def whiten(A, B) -> np.ndarray:
    """A^(-1/2) * sym(B) * A^(-1/2); symmetric by construction.

    The product is written over sym(B), dead by then, and symmetrized in
    place (``_symmetrize``), so whitening holds at most three n x n matrices
    of its own (besides the eigensolver's workspace) and every value is
    bitwise ``0.5 * (M + M.T)`` of ``M = S @ sym(B) @ S``.
    """
    S = inv_sqrt(A)
    B_sym = symmetric_part(B)
    if B_sym.shape != S.shape:
        raise ValueError("A and B must have equal size")
    left = S @ B_sym
    M = np.matmul(left, S, out=B_sym)
    del left
    return _symmetrize(M)


def _halve(n: int) -> int:
    """Rows of the top half that ``_inverse_cholesky`` splits n rows into, or 0
    for a block of at most 256 rows, which it factors and inverts whole."""
    return 0 if n <= 256 else n // 2


def _leaves(n: int) -> list[tuple[int, int]]:
    """Row ranges ``(start, stop)`` of the diagonal blocks that
    ``_inverse_cholesky`` factors and inverts whole, top to bottom.  Its
    result is exactly zero above them: every entry right of a leaf's
    ``stop`` in that leaf's rows."""
    h = _halve(n)
    if not h:
        return [(0, n)]
    return _leaves(h) + [(h + start, h + stop) for start, stop in _leaves(n - h)]


def _matmul_into(out, a, b, by_rows: bool, subtract: bool = False) -> None:
    """Write ``a @ b`` over ``out``, or subtract it from ``out``, by row
    chunks of ``a`` and ``out`` or by column chunks of ``b`` and ``out``,
    each of at most one row block.  A chunk is written once formed, so a
    chunk of ``out`` may overlap the same chunk of ``a`` (by rows) or of
    ``b`` (by columns), which no later chunk reads."""
    rows, cols = out.shape
    for start, stop in _row_blocks(rows, cols) if by_rows else _row_blocks(cols, rows):
        chunk = np.s_[start:stop] if by_rows else np.s_[:, start:stop]
        product = a[start:stop] @ b if by_rows else a @ b[:, start:stop]
        if subtract:
            out[chunk] -= product
        else:
            out[chunk] = product


def _inverse_cholesky(A: np.ndarray) -> np.ndarray:
    """Overwrite the SPD ``A`` with ``L^-1``, ``A = L L^T``, and return it.

    By halves, with ``G = L^-1``: ``G11`` of ``A11``; ``L21 = A21 G11^T``;
    the Schur complement ``A22 - L21 L21^T``; its ``G22``; and the corner
    ``G21 = -G22 L21 G11``.  Each step is written over the block it
    replaces, and every step but the leaves is matrix products (numpy offers
    no triangular solve or inverse), formed in chunks of at most one row
    block (``_matmul_into``): no n x n matrix is made besides A, and no
    temporary but a leaf's exceeds a row block.  Only the lower triangle of
    A is read.  Blocks of up to 256 rows, the ``_leaves``, are factored and
    inverted whole by ``np.linalg.inv(np.linalg.cholesky(.))``, so up to 256
    rows this is bitwise that expression.  A leaf's inverse keeps the roundoff that LU
    leaves above its diagonal: zeroing it made lambda_max of a whitened
    spectrum 300 times less accurate against the 50-digit oracle
    (matern-quadratic, n = 40).  Everything right of a leaf's stop is set to
    exact zero, and every product skips those blocks.  Raises
    ``np.linalg.LinAlgError`` if a leaf's Cholesky factor breaks down.
    """
    h = _halve(len(A))
    if not h:
        A[...] = np.linalg.inv(np.linalg.cholesky(A))
        return A
    G11, A21, A22 = _inverse_cholesky(A[:h, :h]), A[h:, :h], A[h:, h:]
    A[:h, h:] = 0.0
    upper, lower = _leaves(h), _leaves(len(A) - h)
    # L21 = A21 G11^T by the leaf columns J, right to left: G11^T is zero
    # below J's stop there, and no block left of J reads A21[:, J]
    for start, stop in reversed(upper):
        _matmul_into(A21[:, start:stop], A21[:, :stop], G11[start:stop, :stop].T, by_rows=True)
    # the lower block triangle of A22 - L21 L21^T, the part its halves read
    for start, stop in lower:
        _matmul_into(A22[start:stop, :stop], A21[start:stop], A21[:stop].T, by_rows=False, subtract=True)
    G22 = _inverse_cholesky(A22)
    # L21 G11 by the leaf columns J of G11, left to right: they are zero
    # above J's start, and no block after J reads L21[:, J]
    for start, stop in upper:
        _matmul_into(A21[:, start:stop], A21[:, start:], G11[start:, start:stop], by_rows=True)
    # -G22 (.) by the leaf rows I of G22, bottom up: they are zero right of
    # I's stop, and no block after I reads row block I
    for start, stop in reversed(lower):
        corner = A21[start:stop]
        _matmul_into(corner, G22[start:stop, :stop], A21[:stop], by_rows=False)
        np.negative(corner, out=corner)
    return A


def whitened_spectrum(gram, shifted) -> np.ndarray:
    """Ascending eigenvalues of A^(-1/2) sym(B) A^(-1/2), by Cholesky congruence,
    with ``A = gram()`` and ``B = shifted()``.

    Both are zero-argument builders, and what they return is owned and
    overwritten: A by ``L^-1`` (``_inverse_cholesky``), B by sym(B) and then
    by the congruence.  B is built only once A has been overwritten and
    tested, so the peak is two n x n matrices: L^-1 and B (``shifted_gram``
    builds B by row blocks, with no n x n scratch), then B and
    ``eigvalsh``'s copy of it.  Every other pass runs by row blocks: A is
    checked and its 1-norm taken in one (``_check_symmetric``), and every
    product is formed in chunks of at most one row block
    (``_matmul_into``), so no temporary beside the two matrices exceeds a
    row block, on either route below.

    With A = L L^T and W = L^-1 A^(1/2), W W^T = L^-1 A L^-T = I, so W is
    orthogonal and C = L^-1 sym(B) L^-T = W (A^(-1/2) sym(B) A^(-1/2)) W^T
    has the same spectrum; it costs a Cholesky factor and its inverse, two
    matmuls and one ``eigvalsh``, where ``whiten`` needs a full ``eigh`` and
    three.

    ``inv_sqrt``'s rejection of lambda_min <= 1e3 eps lambda_max is kept
    without an eigensolve where it can be: ||L^-1||_2^2 = 1 / lambda_min, so
    1 / ||L^-1||_F^2 <= lambda_min, and ||A||_1 >= lambda_max; a ratio of the
    two above the floor accepts A.  Otherwise, or if Cholesky breaks down,
    ``gram`` is called again and the test runs on ``(w, Q) = eigh(A)``, the
    eigenvalues ``inv_sqrt`` tests, so a rejection and its message are those
    of ``inv_sqrt``; an accepted A is whitened by G = diag(w^-1/2) Q^T, Q
    scaled in place, for which G A G^T = I as for L^-1.  L^-1 is freed
    before that ``eigh``, so the fallback never holds it beside A, Q and
    ``eigh``'s workspace.  A second Cholesky factor of A in G's place put
    w_max >= 1 at 8 of 40 1-D matern-linear sizes (n = 400-790, b = 0.1 q).

    The products go over G's diagonal blocks I = start:stop, from the last
    up: the ``_leaves`` of ``_inverse_cholesky`` for L^-1, and one block of
    all n rows for the full G of the eigenpairs.  G is zero right of each
    block's stop, and ``eigvalsh`` reads only the lower triangle of C, so a
    block forms ``T[I, :stop] = G[I, :stop] S[:stop, :stop]``, S = sym(B),
    then its block column of C's lower block triangle,
    ``C[start:, I] = T[start:, :stop] G[I, :stop]^T``, and symmetrizes its
    diagonal block.  Both are written over S: a block reads S only above its
    stop and T only left of its stop, where no block below it writes.  That is
    about a quarter of the flops of the two full products; for one block
    of at most 256 rows, one chunk of each product, it is those products
    and 0.5 (C + C^T), bit for bit.  A B of another shape than A is
    rejected once it is built.
    """
    A, upper = _check_symmetric(gram())
    try:
        G, blocks = _inverse_cholesky(A), _leaves(len(A))
    except np.linalg.LinAlgError:
        G = None
    # A is G now, or what is left of it once Cholesky broke down
    del A
    # written as "not below", so a NaN in the inverse also falls back
    if G is None or not _SPD_FLOOR * upper * np.vdot(G, G) < 1.0:
        G = None  # L^-1 is freed before eigh
        w, Q = sym_eigen(gram())
        _require_spd(w)
        Q /= np.sqrt(w)
        G, blocks = Q.T, [(0, len(Q))]  # full, like no leaf
        del Q
    B = shifted()
    if np.shape(B) != G.shape:
        raise ValueError("A and B must have equal size")
    S = _symmetrize(np.asarray(B, dtype=float))
    del B
    for start, stop in reversed(blocks):
        _matmul_into(S[start:stop, :stop], G[start:stop, :stop], S[:stop, :stop], by_rows=False)
        _matmul_into(S[start:, start:stop], S[start:, :stop], G[start:stop, :stop].T, by_rows=True)
        _symmetrize(S[start:stop, start:stop])
    del G
    # the default UPLO="L" reads only the lower triangle: the blocks above
    # the diagonal ones still hold leftover entries of S and T
    return np.linalg.eigvalsh(S)


def _fold(n: int, rows_into, work: int):
    """The two blocks of the split of a symmetric n x n A, n >= 2, whose rows
    ``rows_into`` writes (see ``assembly._whole``), as ``(halves, delta)``,
    or None when A is not to be split.

    It asks for A's rows in mirrored pairs of row blocks, ``[s, e)`` of the
    top ``n // 2`` rows with ``[n - e, n - s)`` in one call, top down, and
    for odd n the middle row alone, last, and folds each pair as it arrives,
    so A is never formed.  With ``top = A[s:e] + (J A J)[s:e]``, twice those
    rows of ``S = (A + J A J) / 2``, its left block ``L = top[:, :m]`` and
    ``R = top[:, ::-1][:, :m]`` are 2 S11 and 2 S12 J, m = n // 2: the rows
    of the reflection-even block are ``(L + R) / 2`` and those of the
    reflection-odd one ``(L - R) / 2``, and for odd n the even one is
    bordered by ``top[:, m] / sqrt(2)`` and ``A[m, m]``.  Each block is
    symmetric bit for bit when A is, so only a triangle of each is kept, in
    ``halves``, one ``(k + 1) x k`` array, k = n - m: the even block's lower
    triangle is the lower triangle of ``halves[1:]``, and the odd block's
    lower triangle, transposed, is the upper triangle of ``halves[:m, :m]``,
    so ``halves[:m, :m].T`` holds it as a lower triangle.  The two share no
    entry, and ``np.linalg.eigvalsh``, with its default ``UPLO='L'``, reads
    no other.  Every kept value is bitwise that of the same operations on
    the whole matrix.

    ``delta`` is ``||A - J A J||_1 / 2``: each pair gives its rows' share
    (A - J A J is symmetric, so its 1-norm is its largest row sum, and rows
    i and n-1-i hold the same magnitudes).  If the first pair's rows are not
    centrosymmetric to the split's threshold, with their share of ``||S||_F``
    in place of lambda_max, as those of a point set that is not its own
    mirror image are not, it returns None at once.  Its row-block scratch
    dies with its frame, before any solve.
    """
    m, k = n // 2, n - n // 2
    # halves before the row-block scratch: at n = 1000 it is the size of
    # eigvalsh's workspace, which sits at glibc's dynamic mmap threshold, and
    # allocated after the scratch, at the first fold, it raised the
    # eigen-scaling peak RSS from 37.5 to 39.2-39.4 MB
    halves = np.empty((k + 1, k))
    pairs = _row_blocks(m, 2 * n)
    tallest = pairs[0][1]  # the first block is the tallest
    blocks = np.empty((1 + work, 2 * tallest, n))
    sums, square = np.empty((tallest, n)), np.empty((tallest, tallest))
    upper = ~np.tri(tallest, k=-1, dtype=bool)
    defects = []
    for start, stop in pairs:
        h = stop - start
        dest, *scratch = blocks[:, : 2 * h]
        rows_into(np.r_[start:stop, n - stop : n - start], dest, *scratch)
        top, mirror = dest[:h], dest[h:][::-1, ::-1]  # rows start:stop of A and of J A J
        diff = np.subtract(top, mirror, out=sums[:h])
        defects.append(np.max(np.sum(np.abs(diff, out=diff), axis=1)))
        total = np.add(top, mirror, out=sums[:h])
        # the first pair decides; written as "not below", so a NaN is not
        # split either
        if not start and not 0.5 * defects[0] < m * np.finfo(float).eps * np.sqrt(
            0.5 * np.vdot(total, total)
        ):
            return None
        left, right = total[:, :m], total[:, ::-1][:, :m]
        # the even rows, left of the block's stop, over the lower triangle
        # of halves[1:]; that writes over odd entries in the block's columns,
        # which the odd rows then write again
        even = np.add(left[:, :stop], right[:, :stop], out=halves[start + 1 : stop + 1, :stop])
        even *= 0.5
        diagonal = np.subtract(left[:, start:stop], right[:, start:stop], out=square[:h, :h])
        diagonal *= 0.5
        np.copyto(halves[start:stop, start:stop], diagonal, where=upper[:h, :h])
        odd = np.subtract(left[:, stop:], right[:, stop:], out=halves[start:stop, stop:m])
        odd *= 0.5
        if k > m:
            np.multiply(total[:, m], 0.5 * np.sqrt(2.0), out=halves[-1, start:stop])
    if k > m:
        dest, *scratch = blocks[:, :1]
        rows_into(np.array([m]), dest, *scratch)
        middle = dest[0]
        defects.append(np.sum(np.abs(middle - middle[::-1])))
        halves[-1, m] = middle[m]
    return halves, 0.5 * float(np.max(defects))  # np.max, so a NaN is kept


def centrosymmetric_eigvalsh(n: int, rows_into, work: int) -> np.ndarray:
    """Ascending eigenvalues of a symmetric A that commutes with the exchange
    matrix J (``J A J = A[::-1, ::-1] = A``), from two half-size ``eigvalsh``.

    An ``into`` of ``gram`` and ``conv_gram``: ``gram(spec, X,
    into=centrosymmetric_eigvalsh)`` is the spectrum of ``gram(spec, X)``.
    ``rows_into`` writes A's rows (see ``assembly._whole``); ``_fold`` asks
    for them in mirrored pairs and folds them into the triangles of the two
    blocks, one ``(k + 1) x k`` array, k = n - n // 2, so the peak is that
    array plus ``eigvalsh``'s copy of one block, about half an n x n
    matrix, and row blocks of scratch.

    For n = 2m, ``Q = [[I, I], [J, -J]] / sqrt(2)`` is orthogonal and
    ``Q^T A Q = diag(A11 + A12 J, A11 - A12 J)`` with A11, A12 the top m x m
    blocks (Cantoni & Butler, Linear Algebra Appl. 13, 1976).  For n = 2m + 1
    the middle basis vector e_m joins the reflection-even half, which becomes
    A11 + A12 J bordered by ``sqrt(2) A[:m, m]`` and ``A[m, m]``, and A12 is
    the block of the last m columns.  Two solves of about n/2 rows hold about
    a quarter of the flops of one of n rows.

    The blocks are taken from the centrosymmetric part ``S = (A + J A J) / 2``,
    whose spectrum the split gives, and since A is symmetric,
    ``A - S = (A - J A J) / 2`` has ``||A - S||_2 <= delta = ||A - J A J||_1 / 2``;
    by Weyl's inequality no eigenvalue of S is farther than delta from A's.
    ``precision_floor`` credits a solve of n rows with n eps lambda_max of
    roundoff, so the larger block, of ceil(n/2) rows, with ceil(n/2) eps
    lambda_max; the split's whole error stays within the floor of the full
    solve when delta <= (n // 2) eps lambda_max, half the floor for even n.
    The split is returned only below that threshold, read from the split's
    own lambda_max, which differs from A's by at most delta, a relative
    difference below n eps.
    Forming the blocks rounds each entry once more, a backward error of order
    eps ||A|| that the factor n of the floor absorbs as it does LAPACK's own
    reduction.  A matrix that is not split, because its first pair of row
    blocks already fails the threshold (a point set that is not its own
    mirror image) or because the split fails it, is built whole from
    ``rows_into`` for ``np.linalg.eigvalsh``, and gets those eigenvalues bit
    for bit.
    """
    folded = _fold(n, rows_into, work) if n > 1 else None
    if folded is not None:
        halves, delta = folded
        del folded
        m = n // 2
        # the reflection-odd half, then the even
        odd = np.linalg.eigvalsh(halves[:m, :m].T)
        w = np.concatenate([odd, np.linalg.eigvalsh(halves[1:])])
        del halves
        w.sort()
        # a NaN fails this test, so it falls back too
        if delta < m / n * precision_floor(w):
            return w
    return np.linalg.eigvalsh(_whole(n, rows_into, work))


def precision_floor(eigenvalues) -> float:
    """Magnitude below which eigenvalues of this spectrum are roundoff-dominated."""
    w = np.asarray(eigenvalues, dtype=float)
    return len(w) * np.finfo(float).eps * float(np.max(np.abs(w)))


def below_precision_floor(eigenvalues) -> np.ndarray:
    """Mask of eigenvalues with |lambda| under n * eps * lambda_max.

    Values are reported raw (never clamped); this mask is the companion
    reliability flag.
    """
    w = np.asarray(eigenvalues, dtype=float)
    return np.abs(w) < precision_floor(w)
