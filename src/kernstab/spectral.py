"""Dense symmetric eigendecomposition and derived transforms."""

from __future__ import annotations

import numpy as np

from .assembly import symmetric_part
from .errors import SingularMatrixError

#: relative spread below which whitening output is roundoff noise
_SPD_FLOOR = 1e3 * np.finfo(float).eps


def _check_symmetric(A: np.ndarray) -> np.ndarray:
    A = np.asarray(A, dtype=float)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ValueError("need a square matrix")
    # one scratch matrix holds |A|, then |A - A^T|
    work = np.abs(A)
    scale = np.max(work) if A.size else 0.0
    np.subtract(A, A.T, out=work)
    if np.max(np.abs(work, out=work), initial=0.0) > 1e-12 * max(scale, 1e-300):
        raise ValueError("matrix is not symmetric to 1e-12 relative")
    return A


def sym_eigen(A):
    """``(w, Q)`` of ``np.linalg.eigh``: ascending eigenvalues and orthonormal
    eigenvector columns, signed as LAPACK leaves them; no output reads a sign
    (``inv_sqrt`` and ``verify_conv_chain`` are bitwise sign-invariant)."""
    return np.linalg.eigh(_check_symmetric(A))


def inv_sqrt(A) -> np.ndarray:
    """Symmetric inverse square root of an SPD matrix.

    Inputs with lambda_min <= 1e3 * eps * lambda_max are rejected: whitening
    against such a matrix would return noise.  The result does not depend
    on the signs of the eigenvectors, bit for bit.
    """
    w, Q = sym_eigen(A)
    if w[0] <= _SPD_FLOOR * w[-1]:
        raise SingularMatrixError(
            f"matrix numerically singular for inverse square root "
            f"(lambda_min = {w[0]:.3e}, lambda_max = {w[-1]:.3e})",
            lambda_min=float(w[0]),
            lambda_max=float(w[-1]),
        )
    scaled = Q / np.sqrt(w)
    S = scaled @ Q.T
    # 0.5 (S + S^T), written over the dead scaled eigenvectors
    np.add(S, S.T, out=scaled)
    scaled *= 0.5
    return scaled


def whiten(A, B) -> np.ndarray:
    """A^(-1/2) * sym(B) * A^(-1/2); symmetric by construction.

    The product and its symmetrization are written over matrices that are
    dead by then, so whitening holds at most three n x n matrices of its own
    (besides the eigensolver's workspace) and every value is bitwise
    ``0.5 * (M + M.T)`` of ``M = S @ sym(B) @ S``.
    """
    S = inv_sqrt(A)
    B_sym = symmetric_part(B)
    if B_sym.shape != S.shape:
        raise ValueError("A and B must have equal size")
    left = S @ B_sym
    M = np.matmul(left, S, out=B_sym)
    np.add(M, M.T, out=left)
    left *= 0.5
    return left


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
