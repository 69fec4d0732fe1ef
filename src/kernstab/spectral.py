"""Dense symmetric eigendecomposition and derived transforms."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .assembly import symmetric_part
from .errors import SingularMatrixError

#: relative spread below which whitening output is roundoff noise
_SPD_FLOOR = 1e3 * np.finfo(float).eps


@dataclass(frozen=True)
class EigenDecomposition:
    """Eigenvalues in ascending order with orthonormal eigenvector columns.

    Eigenvector signs follow a deterministic convention: the component of
    largest magnitude (first such index on ties) is positive.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray


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


def sym_eigen(A) -> EigenDecomposition:
    A = _check_symmetric(A)
    eigenvalues, Q = np.linalg.eigh(A)
    lead = np.argmax(np.abs(Q), axis=0)
    signs = np.sign(Q[lead, np.arange(Q.shape[1])])
    signs[signs == 0] = 1.0
    Q *= signs
    eigenvalues.setflags(write=False)
    Q.setflags(write=False)
    return EigenDecomposition(eigenvalues=eigenvalues, eigenvectors=Q)


def cond(A) -> float:
    """lambda_max / lambda_min, requiring a positive definite input."""
    w = np.linalg.eigvalsh(_check_symmetric(A))
    if w[0] <= 0:
        raise SingularMatrixError(
            f"condition number undefined: lambda_min = {w[0]:.3e} <= 0",
            lambda_min=float(w[0]),
            lambda_max=float(w[-1]),
        )
    return float(w[-1] / w[0])


def inv_sqrt(A) -> np.ndarray:
    """Symmetric inverse square root of an SPD matrix.

    Inputs with lambda_min <= 1e3 * eps * lambda_max are rejected: whitening
    against such a matrix would return noise.
    """
    dec = sym_eigen(A)
    w = dec.eigenvalues
    if w[0] <= _SPD_FLOOR * w[-1]:
        raise SingularMatrixError(
            f"matrix numerically singular for inverse square root "
            f"(lambda_min = {w[0]:.3e}, lambda_max = {w[-1]:.3e})",
            lambda_min=float(w[0]),
            lambda_max=float(w[-1]),
        )
    scaled = dec.eigenvectors / np.sqrt(w)
    S = scaled @ dec.eigenvectors.T
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


def rayleigh(A, alpha) -> float:
    """Quadratic form quotient <A a, a> / ||a||^2; lies in [lambda_min, lambda_max]."""
    A = np.asarray(A, dtype=float)
    alpha = np.asarray(alpha, dtype=float)
    nrm2 = float(alpha @ alpha)
    if nrm2 == 0.0:
        raise ValueError("rayleigh quotient of the zero vector")
    return float(alpha @ (A @ alpha)) / nrm2


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
