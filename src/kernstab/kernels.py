"""Translation-invariant kernels, their radial profiles and 1-D densities.

A kernel here is k(x, z) = phi(||x - z||) for one of three half-integer
Matern profiles p(r) e^(-r), at unit length scale, where the paper's bounds
and the fitted constants are stated (points at another scale are rescaled
instead).  Each is finitely smooth: its Fourier transform decays
algebraically, with decay exponent tau = nu + d/2 (1, 2, 3 in 1-D).  The
facts of each family sit in one table, ``PROFILES``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Optional

import numpy as np


class Family(str, Enum):
    MATERN_BASIC = "matern-basic"
    MATERN_LINEAR = "matern-linear"
    MATERN_QUADRATIC = "matern-quadratic"


@dataclass(frozen=True)
class Profile:
    """One family's facts, polynomials as coefficients from degree 0 up.

    ``p`` is the profile polynomial, phi(r) = p(r) e^(-r); ``Q`` the
    whole-line self-convolution, Int_R phi(|x - y|) phi(|y - z|) dy =
    Q(|x - z|) e^(-|x - z|); ``nu`` the Matern order; ``amplitude`` the c of
    the 1-D density c (1 + w^2)^(-tau); ``c_min`` and ``c_conv`` the
    constants of the lower bounds on lambda_min of k(X, X) and of k*(X, X),
    fitted once against the dashed reference curves in 1-D, or None where
    none is fitted.
    """

    p: tuple
    Q: tuple
    nu: float
    amplitude: float
    c_min: Optional[float]
    c_conv: Optional[float]


PROFILES = {
    Family.MATERN_BASIC: Profile((1.0,), (1.0, 1.0), 0.5, math.sqrt(2.0 / math.pi), 0.4, 0.24),
    Family.MATERN_LINEAR: Profile(
        (1.0, 1.0), (2.5, 2.5, 1.0, 1 / 6), 1.5, 2.0 * math.sqrt(2.0 / math.pi), 0.16, 0.0896
    ),
    Family.MATERN_QUADRATIC: Profile(
        (3.0, 3.0, 1.0), (31.5, 31.5, 14.0, 3.5, 0.5, 1 / 30), 2.5, 8.0 * math.sqrt(2.0 / math.pi),
        None, None,
    ),
}


@dataclass(frozen=True)
class KernelSpec:
    """Kernel family plus ambient dimension."""

    family: Family
    dim: int = 1

    def __post_init__(self):
        if not isinstance(self.family, Family):
            object.__setattr__(self, "family", Family(self.family))
        if int(self.dim) != self.dim or self.dim < 1:
            raise ValueError(f"dim must be a positive integer, got {self.dim}")


_PHI_BLOCK = 1 << 14  # entries phi evaluates at a time (128 KB of float64)


def phi(spec: KernelSpec, r, out=None):
    """Radial profile at distance ``r`` (scalar or array).

    phi(0) is 1 for the basic and linear profiles and 3 for the quadratic
    one.  An array argument gives a fresh array (a 0-d one a float); ``r``
    itself is never written, unless it is passed as ``out``: a C-contiguous
    float64 array of r's shape that receives the values and is returned, as
    the row function of ``gram`` and ``shifted_gram`` writes the profile
    over each row block of distances.  The arithmetic runs in place on the output: ``p`` of the
    family's ``PROFILES`` row as the ascending power sum ``p0 + p1 u +
    p2 (u u)``, times ``exp(-u)``, which is the operation order of the
    textbook expressions (``(3 + 3 u + u u) exp(-u)`` and so on), so every
    value is bitwise theirs.  It runs a block of ``_PHI_BLOCK`` entries at a
    time with three block-sized temporaries, for cache as well as memory:
    on the row blocks of 2^16 entries that every caller passes, one pass
    over the whole block took 1.2 to 1.4 times as long for matern-quadratic
    (basic and linear about level) while the temporaries sat in the heap,
    and 1.5 to 2 times as long when they were mapped afresh on each call.
    An n x n argument and its profile peak at about two n x n arrays, and
    one written over its argument at one.  ``u`` is capped at 1e3:
    ``exp(-u)`` is 0 from ``u = 746`` on, so no value moves, and the powers
    of ``u`` stay finite, so the profile there is 0, its limit, not
    ``inf * 0``.
    """
    r = np.asarray(r, dtype=float)
    # a NaN makes both extremes NaN; no n x n mask is built
    lo, hi = np.min(r, initial=0.0), np.max(r, initial=0.0)
    if not (np.isfinite(lo) and np.isfinite(hi)):
        raise ValueError("profile argument must be finite")
    if lo < 0:
        raise ValueError("profile argument must be nonnegative")
    if out is None:
        out = np.empty(r.shape)
    elif not (
        isinstance(out, np.ndarray) and out.dtype == float
        and out.shape == r.shape and out.flags.c_contiguous
    ):
        raise ValueError("out must be a C-contiguous float64 array of the argument's shape")
    # flat (copied only if r is not contiguous); a 0-d argument is one entry
    src, flat = r.reshape(-1), out.reshape(-1)
    p = PROFILES[spec.family].p
    temporaries = np.empty((3, min(src.size, _PHI_BLOCK)))
    for start in range(0, src.size, _PHI_BLOCK):
        u = flat[start : start + _PHI_BLOCK]
        decay, sums, powers = temporaries[:, : u.size]
        np.minimum(src[start : start + _PHI_BLOCK], 1e3, out=u)
        poly = p[0]
        for k, c in enumerate(p[1:]):  # p0 + p1 u + p2 (u u)
            power = u if k == 0 else np.multiply(power, u, out=powers)
            poly = np.add(poly, np.multiply(power, c, out=decay), out=sums)
        np.exp(np.negative(u, out=decay), out=decay)
        np.multiply(poly, decay, out=u)
    return out if r.ndim else float(out)


def smoothness(spec: KernelSpec) -> float:
    """Decay exponent tau = nu + d/2 of the kernel's Fourier transform."""
    return PROFILES[spec.family].nu + spec.dim / 2


@dataclass(frozen=True)
class SpectralDensity:
    """Closed-form 1-D Fourier transform of a kernel profile.

    Under the convention phi(r) = (2*pi)^(-1/2) * Int density(w) e^{iwr} dw,
    the density is ``amplitude * (1 + w^2)^(-tau)``.  It is even and
    nonnegative.
    """

    amplitude: float
    tau: float

    def __call__(self, omega):
        u = np.asarray(omega, dtype=float)
        out = self.amplitude * (1.0 + u * u) ** (-self.tau)
        return out if out.ndim else float(out)

    def tail_mass_bound(self, cutoff: float) -> float:
        """Upper bound on the density mass outside [-cutoff, cutoff].

        Uses density(w) <= amplitude * w^(-2*tau), valid for w > 0, hence
        certified one-sided.
        """
        if cutoff <= 0:
            raise ValueError("cutoff must be positive")
        return 2.0 * self.amplitude * cutoff ** (1.0 - 2.0 * self.tau) / (2.0 * self.tau - 1.0)


def spectral_density_1d(spec: KernelSpec) -> SpectralDensity:
    """Closed-form spectral density; only available in 1-D."""
    if spec.dim != 1:
        raise ValueError("closed-form spectral densities are 1-D only")
    return SpectralDensity(
        amplitude=PROFILES[spec.family].amplitude,
        tau=smoothness(spec),
    )
