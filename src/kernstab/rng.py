"""Deterministic 64-bit mixing generator for seeded experiment instances.

The generator is splitmix64: a 64-bit additive counter passed through a
xor-shift/multiply finalizer.  It is trivially portable, so seeded instances
can be reproduced outside this package.  Reference outputs (first four draws
of ``next_uint64``):

    seed 0:       16294208416658607535, 7960286522194355700,
                  487617019471545679, 17909611376780542444
    seed 42:      13679457532755275413, 2949826092126892291,
                  5139283748462763858, 6349198060258255764
    seed 1234567: 6457827717110365317, 3203168211198807973,
                  9817491932198370423, 4593380528125082431
"""

from __future__ import annotations

import numpy as np

_MASK = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB


class SplitMix64:
    """Seeded splitmix64 stream."""

    def __init__(self, seed: int):
        self._state = int(seed) & _MASK

    def next_uint64(self) -> int:
        self._state = (self._state + _GOLDEN) & _MASK
        z = self._state
        z = ((z ^ (z >> 30)) * _MIX1) & _MASK
        z = ((z ^ (z >> 27)) * _MIX2) & _MASK
        return z ^ (z >> 31)

    def uniform(self) -> float:
        """One double in [0, 1) with 53 random bits."""
        return (self.next_uint64() >> 11) * 2.0 ** -53

    def uniforms(self, *shape: int) -> np.ndarray:
        out = np.array([self.uniform() for _ in range(int(np.prod(shape)))])
        return out.reshape(shape)

    def symmetric(self, *shape: int) -> np.ndarray:
        """Uniform draws in (-1, 1)."""
        return 2.0 * self.uniforms(*shape) - 1.0

    def integer(self, lo: int, hi: int) -> int:
        """Uniform integer in [lo, hi] inclusive."""
        if hi < lo:
            raise ValueError("empty integer range")
        return lo + self.next_uint64() % (hi - lo + 1)

    def direction(self, dim: int) -> np.ndarray:
        """Unit vector, rejection-sampled away from the origin; each draw is
        rejected with probability below 1e-3."""
        if dim < 1:
            raise ValueError(f"a direction needs dim >= 1, got {dim}")
        while True:
            v = self.symmetric(dim)
            norm = np.linalg.norm(v)
            if norm > 1e-3:
                return v / norm
