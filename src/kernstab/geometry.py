"""Point sets in box domains: generation, separation and boundary distances."""

from __future__ import annotations

import numpy as np

_HALTON_BASES = (2, 3, 5)


# entries of one row block of a pass over a matrix, and of each of its
# scratch arrays (512 KB of float64 each); read only by ``_row_blocks``
_BLOCK_ENTRIES = 1 << 16


def _row_blocks(rows: int, row_entries: int) -> list[tuple[int, int]]:
    """Ranges ``(start, stop)`` that cut ``rows`` rows of ``row_entries``
    entries each into blocks of at most ``_BLOCK_ENTRIES`` entries, top down,
    and at least one row each.  The first block is the tallest, so it sizes
    any scratch of a pass.  Every row-block pass of the package takes its
    blocks from here."""
    height = max(1, _BLOCK_ENTRIES // max(1, row_entries))
    return [(start, min(start + height, rows)) for start in range(0, rows, height)]


def _add_squares(p: np.ndarray, q: np.ndarray, coords, acc: np.ndarray, tmp: np.ndarray) -> None:
    """``acc[i, j] = sum over coords, left to right, of (p[i, k] - q[j, k])^2``;
    ``tmp`` is written only for the second coordinate on."""
    for count, k in enumerate(coords):
        term = tmp if count else acc
        np.subtract.outer(p[:, k], q[:, k], out=term)
        term *= term
        if count:
            acc += term


def _squared_distances(p: np.ndarray, q: np.ndarray, out: np.ndarray, tmp: np.ndarray) -> None:
    """``out[i, j] = |p[i] - q[j]|^2``, a coordinate at a time.

    Each entry is the sum of squared coordinate differences, never the
    ``|p|^2 + |q|^2 - 2 p.q`` expansion, which cancels at small distances.
    The squares are summed as numpy's ``einsum("ijk,ijk->ij")`` sums them
    below 8 coordinates, in two lanes: the even coordinates and the odd ones,
    each left to right, then the two lane sums (for d = 3,
    ``(d0^2 + d2^2) + d1^2``), so each entry is bitwise that ``einsum``'s.
    ``tmp`` is a scratch array of ``out``'s shape.
    """
    d = p.shape[1]
    _add_squares(p, q, range(0, d, 2), out, tmp)
    if d > 1:
        # below 4 coordinates the odd lane is one square, which tmp holds
        odd = tmp if d < 4 else np.empty_like(out)
        _add_squares(p, q, range(1, d, 2), odd, tmp)
        out += odd


def _pairwise_min_distance(points: np.ndarray) -> float:
    if points.shape[1] == 1:
        # rounding is monotone, so the closest pair is adjacent once sorted
        gaps = np.diff(np.sort(points[:, 0]))
        return float(np.sqrt((gaps * gaps).min()))
    # each row block against the columns from its first row on: every pair
    # once, with the block's own diagonal masked
    n = len(points)
    blocks = _row_blocks(n, n)
    d2_buffer, tmp = np.empty((2, blocks[0][1], n))  # the first block is the tallest
    best = np.inf
    for start, stop in blocks:
        p, q = points[start:stop], points[start:]
        d2 = d2_buffer[: len(p), : len(q)]
        _squared_distances(p, q, d2, tmp[: len(p), : len(q)])
        diag = np.arange(len(p))
        d2[diag, diag] = np.inf
        best = min(best, d2.min())
    return float(np.sqrt(best))


class PointSet:
    """Immutable list of pairwise-distinct points inside a closed box.

    The separation distance (half the minimum pairwise distance) is computed
    once at construction.
    """

    def __init__(self, points, domain):
        points = np.atleast_2d(np.asarray(points, dtype=float))
        domain = np.asarray(domain, dtype=float)
        if points.ndim != 2 or points.shape[0] < 1:
            raise ValueError("points must be a nonempty (n, d) array")
        if domain.shape != (points.shape[1], 2):
            raise ValueError("domain must be a (d, 2) array of box bounds")
        if np.any(domain[:, 0] >= domain[:, 1]):
            raise ValueError("domain box must have positive extent per axis")
        if not np.all(np.isfinite(points)):
            raise ValueError("points must be finite")
        if np.any(points < domain[:, 0]) or np.any(points > domain[:, 1]):
            raise ValueError("all points must lie inside the closed domain box")
        separation = None
        if points.shape[0] >= 2:
            separation = 0.5 * _pairwise_min_distance(points)
            if separation <= 0:
                raise ValueError("points must be pairwise distinct")
        points.setflags(write=False)
        domain.setflags(write=False)
        self._points = points
        self._domain = domain
        self._separation = separation

    @property
    def points(self) -> np.ndarray:
        return self._points

    @property
    def domain(self) -> np.ndarray:
        return self._domain

    @property
    def dim(self) -> int:
        return self._points.shape[1]

    def __len__(self) -> int:
        return self._points.shape[0]

    @property
    def separation(self) -> float:
        if self._separation is None:
            raise ValueError("separation distance needs at least two points")
        return self._separation

    def __repr__(self):
        return f"PointSet(n={len(self)}, dim={self.dim})"


def _radical_inverses(indices: np.ndarray, base: int) -> np.ndarray:
    """Van der Corput radical inverses of nonnegative integer ``indices``.

    Runs the scalar digit recurrence ``inv /= base; f += inv * digit`` on the
    whole index vector at once, in the same operation order, so every value
    is bitwise the scalar loop's.  An index that has run out of digits adds
    ``inv * 0 = 0.0``, which leaves it unchanged.
    """
    indices = indices.copy()
    f = np.zeros(indices.shape)
    inv = 1.0
    while indices.any():
        inv /= base
        f += inv * (indices % base)
        indices //= base
    return f


def halton(n: int, dim: int) -> PointSet:
    """Halton points in (0, 1)^dim, indices 1 .. n (index 0 excluded).

    Bases are 2, 3, 5 for the first three axes; higher dimensions are not
    configured.  Each axis is computed for all indices at once and is bitwise
    equal to the per-point scalar digit loop.
    """
    if n < 1:
        raise ValueError("need n >= 1")
    if not 1 <= dim <= len(_HALTON_BASES):
        raise ValueError(f"halton dim must be in 1..{len(_HALTON_BASES)}")
    indices = np.arange(1, n + 1)
    pts = np.column_stack([_radical_inverses(indices, b) for b in _HALTON_BASES[:dim]])
    domain = np.array([[0.0, 1.0]] * dim)
    return PointSet(pts, domain)


def equispaced(n: int, a: float, b: float, include_endpoints: bool = True) -> PointSet:
    """n equally spaced points on [a, b].

    With endpoints the spacing is (b-a)/(n-1); without, points sit at
    a + (i+1)(b-a)/(n+1) so the grid stays interior.
    """
    if n < 2:
        raise ValueError("need n >= 2")
    if not a < b:
        raise ValueError("need a < b")
    if include_endpoints:
        # literal a + i(b-a)/(n-1) with pinned endpoints, not np.linspace: the
        # two differ in the last bit at interior points
        pts = a + np.arange(n) * (b - a) / (n - 1)
        pts[0], pts[-1] = a, b
    else:
        pts = a + (np.arange(n) + 1) * (b - a) / (n + 1)
    return PointSet(pts[:, None], np.array([[a, b]]))


def boundary_distance(X: PointSet) -> float:
    """Smallest distance from any point to the boundary of the domain box."""
    lower = X.points - X.domain[:, 0]
    upper = X.domain[:, 1] - X.points
    return float(np.minimum(lower, upper).min())
