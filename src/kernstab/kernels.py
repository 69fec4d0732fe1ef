"""Translation-invariant kernels, their radial profiles and 1-D densities.

A kernel here is k(x, z) = phi(||x - z|| / length_scale) for one of four
radial profiles.  The three exponential-family profiles have algebraically
decaying Fourier transforms with decay exponents tau = 1, 2, 3; the
squared-exponential profile decays faster than any algebraic rate and is
rejected by every operation that requires a finite decay exponent.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import UnsupportedKernelError


class Family(str, Enum):
    MATERN_BASIC = "matern-basic"
    MATERN_LINEAR = "matern-linear"
    MATERN_QUADRATIC = "matern-quadratic"
    GAUSSIAN = "gaussian"


#: decay exponent of the Fourier transform per family (finite families only)
FAMILY_SMOOTHNESS = {
    Family.MATERN_BASIC: 1.0,
    Family.MATERN_LINEAR: 2.0,
    Family.MATERN_QUADRATIC: 3.0,
}

#: 1-D density amplitude c with density(w) = c * (1 + w^2)^(-tau), unit scale
_DENSITY_AMPLITUDE = {
    Family.MATERN_BASIC: math.sqrt(2.0 / math.pi),
    Family.MATERN_LINEAR: 2.0 * math.sqrt(2.0 / math.pi),
    Family.MATERN_QUADRATIC: 8.0 * math.sqrt(2.0 / math.pi),
}


@dataclass(frozen=True)
class KernelSpec:
    """Kernel family plus ambient dimension and length scale."""

    family: Family
    dim: int = 1
    length_scale: float = 1.0

    def __post_init__(self):
        if not isinstance(self.family, Family):
            object.__setattr__(self, "family", Family(self.family))
        if int(self.dim) != self.dim or self.dim < 1:
            raise ValueError(f"dim must be a positive integer, got {self.dim}")
        if not (math.isfinite(self.length_scale) and self.length_scale > 0):
            raise ValueError(f"length_scale must be positive, got {self.length_scale}")


def phi(spec: KernelSpec, r):
    """Radial profile at distance ``r`` (scalar or array), scaled by the length scale.

    phi(0) is 1 for the basic, linear and squared-exponential profiles and 3
    for the quadratic one.  An array argument gives a fresh array (a 0-d one a
    float); ``r`` itself is never written.  The arithmetic runs in place on
    that fresh array, in the operation order of the textbook expressions
    (``(1 + u) * exp(-u)`` and so on), so every value is bitwise theirs; it
    allocates one array of the size of ``r`` for the basic and
    squared-exponential profiles, two for the linear and three for the
    quadratic one.  ``u`` is capped at 1e3: every profile is 0 from
    ``u = 746`` on, so no value moves, and the linear and quadratic profiles
    stay at 0, their limit, where ``r / length_scale`` or ``u * u`` would
    overflow and the expressions give ``inf * 0``.
    """
    r = np.asarray(r, dtype=float)
    if not np.all(np.isfinite(r)):
        raise ValueError("profile argument must be finite")
    if np.any(r < 0):
        raise ValueError("profile argument must be nonnegative")
    # a 0-d argument is divided as a 1-element view, so the steps below stay
    # in place on an array
    u = np.atleast_1d(r) / spec.length_scale
    np.minimum(u, 1e3, out=u)
    if spec.family is Family.MATERN_BASIC:
        out = np.exp(np.negative(u, out=u), out=u)
    elif spec.family is Family.MATERN_LINEAR:
        decay = np.negative(u)
        u += 1.0
        out = np.multiply(u, np.exp(decay, out=decay), out=u)
    elif spec.family is Family.MATERN_QUADRATIC:
        decay = np.negative(u)
        poly = np.multiply(u, 3.0)
        poly += 3.0
        u *= u
        poly += u
        out = np.multiply(poly, np.exp(decay, out=decay), out=poly)
    else:
        # -(u u) is bitwise (-u) u: rounding is symmetric in sign
        u *= u
        out = np.exp(np.negative(u, out=u), out=u)
    return out if r.ndim else float(out[0])


def smoothness(spec: KernelSpec) -> float:
    """Decay exponent tau of the kernel's Fourier transform."""
    if spec.family not in FAMILY_SMOOTHNESS:
        raise UnsupportedKernelError(
            f"{spec.family.value} has infinite smoothness; finite decay exponent required"
        )
    return FAMILY_SMOOTHNESS[spec.family]


@dataclass(frozen=True)
class SpectralDensity:
    """Closed-form 1-D Fourier transform of a kernel profile.

    Under the convention phi(r) = (2*pi)^(-1/2) * Int density(w) e^{iwr} dw,
    the density is ``amplitude * ell * (1 + (ell*w)^2)^(-tau)`` for length
    scale ``ell``.  It is even and nonnegative.
    """

    kernel: KernelSpec
    amplitude: float
    tau: float

    def __call__(self, omega):
        u = self.kernel.length_scale * np.asarray(omega, dtype=float)
        out = self.kernel.length_scale * self.amplitude * (1.0 + u * u) ** (-self.tau)
        return out if out.ndim else float(out)

    def tail_mass_bound(self, cutoff: float) -> float:
        """Upper bound on the density mass outside [-cutoff, cutoff].

        Uses density(w) <= amplitude * ell * (ell*w)^(-2*tau), valid for
        w > 0, hence certified one-sided.
        """
        if cutoff <= 0:
            raise ValueError("cutoff must be positive")
        ell = self.kernel.length_scale
        return (
            2.0 * self.amplitude * ell ** (1.0 - 2.0 * self.tau)
            * cutoff ** (1.0 - 2.0 * self.tau) / (2.0 * self.tau - 1.0)
        )


def spectral_density_1d(spec: KernelSpec) -> SpectralDensity:
    """Closed-form spectral density; only available for 1-D finite-smoothness kernels."""
    if spec.dim != 1:
        raise UnsupportedKernelError("closed-form spectral densities are 1-D only")
    if spec.family not in _DENSITY_AMPLITUDE:
        raise UnsupportedKernelError(
            f"no closed-form spectral density for {spec.family.value}"
        )
    return SpectralDensity(
        kernel=spec,
        amplitude=_DENSITY_AMPLITUDE[spec.family],
        tau=FAMILY_SMOOTHNESS[spec.family],
    )
