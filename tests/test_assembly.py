import hashlib
import math
import tracemalloc

import mpmath
import numpy as np
import pytest

from kernstab import (
    Family,
    KernelSpec,
    QuadratureError,
    antisymmetric_part,
    closed_form_conv_exp,
    conv_gram,
    conv_value,
    equispaced,
    gauss_legendre,
    gram,
    halton,
    phi,
    shifted_gram,
    symmetric_part,
)
import oracle
from kernstab import assembly, cli, geometry
from kernstab.assembly import _kernel_rows, _tail_factor
from kernstab.geometry import PointSet
from kernstab.spectral import centrosymmetric_eigvalsh
from kernstab.kernels import PROFILES
from kernstab.quadrature import ORDER, PANELS_PER_UNIT, _segments, panel_grid

BASIC = KernelSpec(Family.MATERN_BASIC, dim=1)
LINEAR = KernelSpec(Family.MATERN_LINEAR, dim=1)


def _interval_set(values):
    pts = np.asarray(values, dtype=float)[:, None]
    return PointSet(pts, np.array([[min(values), max(values)]]))


def test_gram_single_point():
    X = PointSet(np.array([[0.0]]), np.array([[0.0, 1.0]]))
    np.testing.assert_array_equal(gram(BASIC, X), [[1.0]])


def test_gram_two_points():
    X = equispaced(2, 0, 1)
    A = gram(BASIC, X)
    e = math.exp(-1.0)
    np.testing.assert_allclose(A, [[1.0, e], [e, 1.0]], rtol=1e-15)
    # 2x2 eigenvalues are 1 -/+ e^(-1)
    assert np.linalg.eigvalsh(A)[0] == pytest.approx(1.0 - e, rel=1e-14)


def test_gram_two_dimensional_distance():
    # ||(0,0) - (3,4)|| = 5 by Pythagoras, so the off-diagonal is 6 e^(-5)
    X = PointSet(np.array([[0.0, 0.0], [3.0, 4.0]]), np.array([[0.0, 3.0], [0.0, 4.0]]))
    A = gram(KernelSpec(Family.MATERN_LINEAR, dim=2), X)
    assert A[0, 1] == A[1, 0] == pytest.approx(6.0 * math.exp(-5.0), rel=1e-15)


def _kernel_matrix(spec, P, Q):
    # the rows of the kernel matrix between P and Q, by gram's row function
    # in one block
    out, tmp = np.empty((2, len(P), len(Q)))
    _kernel_rows(spec, P, Q)(np.arange(len(P)), out, tmp)
    return out


def test_kernel_values_symmetric_in_their_arguments():
    rng = np.random.default_rng(101)
    P, Q = rng.uniform(-2, 2, (250, 3)), rng.uniform(-2, 2, (250, 3))
    for family in Family:
        spec = KernelSpec(family, dim=3)
        np.testing.assert_array_equal(_kernel_matrix(spec, P, Q), _kernel_matrix(spec, Q, P).T)


def test_gram_reference_eigenvalue():
    X = equispaced(10, 0, 1)
    assert np.linalg.eigvalsh(gram(BASIC, X))[0] == pytest.approx(5.68706355670114e-2, rel=1e-8)


def test_gram_exactly_symmetric():
    X = halton(40, 3)
    A = gram(KernelSpec(Family.MATERN_QUADRATIC, dim=3), X)
    np.testing.assert_array_equal(A, A.T)
    assert np.all(np.diag(A) == 3.0)


def _gram_triu_mirror(spec, X):
    # the upper triangle mirrored, with phi(0) on the diagonal: the bitwise
    # oracle for gram's claim that its distances need no mirroring
    vals = _kernel_matrix(spec, X.points, X.points)
    upper = np.triu(vals, 1)
    A = upper + upper.T
    np.fill_diagonal(A, phi(spec, 0.0))
    return A


@pytest.mark.parametrize("family", list(Family))
# halton(700, 3) spans two row blocks of the distance computation
@pytest.mark.parametrize(
    "dim, n", [(1, 157), (2, 157), (3, 157), (3, 700)], ids=["1", "2", "3", "3-700"]
)
def test_gram_is_bitwise_the_triu_mirror(family, dim, n):
    # Halton points on (0, 5)^dim, where every profile is well above 0
    Y = halton(n, dim)
    X = PointSet(Y.points / 0.2, Y.domain / 0.2)
    spec = KernelSpec(family, dim=dim)
    assert gram(spec, X).tobytes() == _gram_triu_mirror(spec, X).tobytes()


@pytest.mark.parametrize("family", [Family.MATERN_LINEAR, Family.MATERN_QUADRATIC])
@pytest.mark.parametrize("dim", [1, 3])
def test_gram_peak_is_two_matrices(family, dim):
    # the distances and the profile's output, each n x n; the distances' row
    # blocks and the profile's block temporaries add at most 2^20 and 2^15
    # entries
    X = halton(1000, dim)
    spec = KernelSpec(family, dim=dim)
    tracemalloc.start()
    try:
        gram(spec, X)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2.2 * len(X) ** 2 * 8


def test_gram_memory_is_three_matrices():
    # 3-D points in several distance row blocks: at most the distances, the
    # profile's output and one row block's differences
    X = halton(1500, 3)
    spec = KernelSpec(Family.MATERN_LINEAR, dim=3)
    tracemalloc.start()
    try:
        gram(spec, X)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2.2 * len(X) ** 2 * 8


def test_gram_dimension_mismatch():
    with pytest.raises(ValueError):
        gram(KernelSpec(Family.MATERN_BASIC, dim=2), equispaced(4, 0, 1))


def test_shifted_gram_zero_shift_equals_gram():
    X = halton(30, 2)
    spec = KernelSpec(Family.MATERN_LINEAR, dim=2)
    np.testing.assert_array_equal(shifted_gram(spec, X, [0.0, 0.0]), gram(spec, X))


def test_shifted_gram_values():
    X = equispaced(2, 0, 1)
    B = shifted_gram(BASIC, X, [0.1])
    expected = np.exp(-np.array([[0.1, 0.9], [1.1, 0.1]]))
    np.testing.assert_allclose(B, expected, rtol=1e-15)


@pytest.mark.parametrize("n, m, dim", [(300, 200, 1), (1200, 900, 2), (1200, 1000, 3)])
def test_distance_matrix_bitwise_equals_einsum_reference(n, m, dim, monkeypatch):
    # row-blocked assembly keeps the per-entry formula of the unblocked one:
    # with the profile made the identity, gram on n random points (two or
    # more row blocks) and shifted_gram on m Halton points return their
    # distances
    monkeypatch.setattr(assembly, "phi", lambda spec, r, out: r)
    spec = KernelSpec(Family.MATERN_BASIC, dim=dim)
    P = np.random.default_rng(dim).uniform(size=(n, dim))
    X = PointSet(P, np.array([[0.0, 1.0]] * dim))
    diff = P[:, None, :] - P[None, :, :]
    expected = np.sqrt(np.einsum("ijk,ijk->ij", diff, diff))
    assert gram(spec, X).tobytes() == expected.tobytes()
    X = halton(m, dim)
    b = np.full(dim, 0.1 * X.separation)
    diff = (X.points + b)[:, None, :] - X.points[None, :, :]
    expected = np.sqrt(np.einsum("ijk,ijk->ij", diff, diff))
    assert shifted_gram(spec, X, b).tobytes() == expected.tobytes()


def _einsum_distances(P, Q):
    # the unblocked n x m x d reference
    diff = P[:, None, :] - Q[None, :, :]
    return np.sqrt(np.einsum("ijk,ijk->ij", diff, diff))


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_kernel_matrices_bitwise_equal_einsum_reference(dim):
    # the distances are summed a coordinate at a time, in einsum's order, and
    # the profile is written over them; 700 points span several row blocks
    # (tests/test_geometry.py holds the separation to the same reference)
    X = halton(700, dim)
    b = np.full(dim, 0.1 * X.separation)
    for family in Family:
        spec = KernelSpec(family, dim=dim)
        assert gram(spec, X).tobytes() == phi(spec, _einsum_distances(X.points, X.points)).tobytes()
        expected = phi(spec, _einsum_distances(X.points + b, X.points))
        assert shifted_gram(spec, X, b).tobytes() == expected.tobytes()


def test_shifted_gram_dimension_mismatch():
    with pytest.raises(ValueError):
        shifted_gram(BASIC, equispaced(3, 0, 1), [0.1, 0.2])


def test_parts_of_symmetric_matrix():
    A = np.array([[2.0, 1.0], [1.0, 3.0]])
    np.testing.assert_array_equal(symmetric_part(A), A)
    np.testing.assert_array_equal(antisymmetric_part(A), np.zeros((2, 2)))


def test_parts_of_nilpotent_matrix():
    A = np.array([[0.0, 1.0], [0.0, 0.0]])
    np.testing.assert_array_equal(symmetric_part(A), [[0.0, 0.5], [0.5, 0.0]])
    np.testing.assert_array_equal(antisymmetric_part(A), [[0.0, 0.5], [-0.5, 0.0]])


def test_symmetric_part_is_bitwise_the_expression():
    rng = np.random.default_rng(5)
    # the second spans several row blocks of the in-place pass; the third
    # overflows in A + A^T; the empty one has no entries
    matrices = (
        rng.uniform(-1, 1, (97, 97)),
        rng.uniform(-1, 1, (700, 700)),
        rng.uniform(-1, 1, (8, 8)) * 1.7e308,
        np.ones((0, 0)),
    )
    for A in matrices:
        before = A.copy()
        with np.errstate(over="ignore"):
            got, expected = symmetric_part(A), 0.5 * (A + A.T)
        assert got.tobytes() == expected.tobytes()
        assert np.array_equal(A, before)
    assert symmetric_part([[1, 2], [3, 4]]).tolist() == [[1.0, 2.5], [2.5, 4.0]]


def test_parts_require_square():
    with pytest.raises(ValueError):
        symmetric_part(np.ones((2, 3)))


def test_parts_decompose_and_cancel():
    # the antisymmetric part carries no quadratic form mass and the
    # symmetric-part form is bounded by ||A a|| ||a||
    rng = np.random.default_rng(77)
    for _ in range(1000):
        n = int(rng.integers(2, 13))
        A = rng.uniform(-1, 1, (n, n))
        alpha = rng.uniform(-1, 1, n)
        np.testing.assert_allclose(
            symmetric_part(A) + antisymmetric_part(A), A, atol=1e-15
        )
        assert abs(alpha @ antisymmetric_part(A) @ alpha) <= 1e-12
        assert abs(alpha @ symmetric_part(A) @ alpha) <= (
            np.linalg.norm(A @ alpha) * np.linalg.norm(alpha) + 1e-12
        )


def test_conv_gram_center_entry():
    X = _interval_set([0.0, 0.5, 1.0])
    K = conv_gram(BASIC, X)
    assert K[1, 1] == pytest.approx(1.0 - math.exp(-1.0), abs=1e-13)


def test_conv_gram_matches_closed_form_entrywise():
    X = equispaced(10, 0, 1)
    K = conv_gram(BASIC, X)
    x = X.points[:, 0]
    for i in range(10):
        for j in range(10):
            assert abs(K[i, j] - closed_form_conv_exp(x[i], x[j], (0, 1))) <= 1e-12


def test_conv_gram_matches_conv_value():
    X = equispaced(6, 0, 1)
    K = conv_gram(LINEAR, X)
    x = X.points[:, 0]
    for i in range(6):
        for j in range(i, 6):
            assert K[i, j] == pytest.approx(conv_value(LINEAR, x[i], x[j], (0, 1)), abs=1e-13)


def _conv_by_quadrature(spec, x, a, b):
    """Int_a^b phi(|x_i - y|) phi(|y - x_j|) dy by Gauss-Legendre panels split
    at every data point, where each integrand is analytic between two splits:
    the oracle of the closed-form conv_gram."""
    ys, ws = [], []
    for lo, hi in _segments(a, b, x):
        panels = max(1, math.ceil((hi - lo) * PANELS_PER_UNIT))
        y, w = panel_grid(np.linspace(lo, hi, panels + 1), ORDER)
        ys.append(y)
        ws.append(w)
    y, w = np.concatenate(ys), np.concatenate(ws)
    K = phi(spec, np.abs(x[:, None] - y[None, :]))
    M = (K * w) @ K.T
    return 0.5 * (M + M.T)


def _stretched(X: PointSet, scale: float) -> PointSet:
    # X in units of ``scale``: a kernel of length scale ``scale`` on X is the
    # unit-scale kernel on these points, on a 1/scale times longer domain
    return X if scale == 1.0 else PointSet(X.points / scale, X.domain / scale)


@pytest.mark.parametrize("family", ["matern-basic", "matern-linear", "matern-quadratic"])
@pytest.mark.parametrize("scale", [1.0, 0.3])
@pytest.mark.parametrize(
    "points",
    [equispaced(10, 0, 1), equispaced(37, 0, 2.5), halton(20, 1)],
    ids=["equispaced-10", "equispaced-37-wide", "halton-20"],
)
def test_conv_gram_closed_form_matches_quadrature(family, scale, points):
    spec = KernelSpec(Family(family), dim=1)
    points = _stretched(points, scale)
    K = conv_gram(spec, points)
    (a, b), = points.domain
    reference = _conv_by_quadrature(spec, points.points[:, 0], a, b)
    assert np.max(np.abs(K - reference)) <= 1e-13 * np.max(np.abs(K))


def _conv_closed_form_expression(spec, x, a, b):
    # the closed form out of place, its tail term W W^T summed column by
    # column in order: the bitwise oracle of conv_gram's rows
    profile = PROFILES[spec.family]
    t = x - a
    W = np.hstack([_tail_factor(profile.p, t), _tail_factor(profile.p, (b - a) - t)])
    r = np.abs(t[:, None] - t[None, :])
    tail = sum((np.outer(w, w) for w in W.T[1:]), np.outer(W[:, 0], W[:, 0]))
    return np.polyval(profile.Q[::-1], r) * np.exp(-r) - tail


@pytest.mark.parametrize("family", ["matern-basic", "matern-linear", "matern-quadratic"])
@pytest.mark.parametrize("scale", [1.0, 0.3])
@pytest.mark.parametrize(
    "points",
    [equispaced(2, 0, 1), equispaced(600, 0, 1), halton(257, 1), equispaced(37, 0, 2.5)],
    ids=["equispaced-2", "equispaced-600", "halton-257", "equispaced-37-wide"],
)
def test_conv_closed_form_is_bitwise_its_expression(family, scale, points):
    spec = KernelSpec(Family(family), dim=1)
    points = _stretched(points, scale)
    (a, b), = points.domain
    expected = _conv_closed_form_expression(spec, points.points[:, 0], a, b)
    assert conv_gram(spec, points).tobytes() == expected.tobytes()


class _RecordedRows:
    # an ``into`` that hands the row function on to ``inner`` and keeps the
    # indices asked for and the rows written, in their order, and what
    # ``inner`` returned
    def __init__(self, inner):
        self.inner, self.indices, self.rows = inner, [], []

    def __call__(self, n, rows_into, work):
        def recorded(indices, dest, *scratch):
            rows_into(indices, dest, *scratch)
            self.indices.append(indices.copy())
            self.rows.append(dest.copy())

        self.returned = self.inner(n, recorded, work)
        return self.returned

    def assert_rows_of(self, K):
        # every row asked for is bitwise K's, and every row is asked for
        for indices, rows in zip(self.indices, self.rows):
            assert rows.tobytes() == K[indices].tobytes()
        assert set(np.concatenate(self.indices)) == set(range(len(K)))


@pytest.mark.parametrize("builder", [gram, conv_gram], ids=["gram", "conv_gram"])
@pytest.mark.parametrize("family", list(Family), ids=lambda f: f.value)
@pytest.mark.parametrize("endpoints", [True, False])
@pytest.mark.parametrize("n", [2, 3, 599, 600])
def test_streamed_rows_are_the_matrix_for_any_row_blocks(builder, family, endpoints, n, monkeypatch):
    # the rows the split asks for in mirrored pairs of one row, of seven and
    # of the default height, against the matrix built whole: bitwise the
    # same, and that matrix exactly symmetric (conv_gram has no
    # symmetrizing pass)
    spec = KernelSpec(family, dim=1)
    X = equispaced(n, 0, 1, include_endpoints=endpoints)
    K = builder(spec, X)
    assert K.tobytes() == K.T.copy().tobytes()
    for entries in [1, 14 * n, geometry._BLOCK_ENTRIES]:
        monkeypatch.setattr(geometry, "_BLOCK_ENTRIES", entries)
        into = _RecordedRows(centrosymmetric_eigvalsh)
        assert builder(spec, X, into=into) is into.returned
        into.assert_rows_of(K)


@pytest.mark.parametrize("dim", [2, 3])
def test_streamed_gram_is_the_matrix_in_higher_dimensions(dim):
    # the squared distances of two and three coordinates use gram's second
    # scratch block; Halton points are not their own mirror image, so the
    # split asks for the first pair and then for the whole matrix
    spec = KernelSpec(Family.MATERN_QUADRATIC, dim=dim)
    X = halton(301, dim)
    into = _RecordedRows(centrosymmetric_eigvalsh)
    K = gram(spec, X)
    assert gram(spec, X, into=into) is into.returned
    assert into.returned.tobytes() == np.linalg.eigvalsh(K).tobytes()
    into.assert_rows_of(K)


def test_whole_conv_gram_takes_row_blocks_of_the_entry_budget():
    # a whole conv_gram asks for blocks of _BLOCK_ENTRIES // (2 n) rows, as
    # _whole sizes them beside two scratch blocks: thm41's default n = 20 is
    # one call of the row function, not one per row
    for n, calls in [(20, 1), (1000, 32)]:
        into = _RecordedRows(assembly._whole)
        K = conv_gram(LINEAR, equispaced(n, 0, 1), into=into)
        assert len(into.indices) == calls
        into.assert_rows_of(K)


@pytest.mark.parametrize("family", ["matern-basic", "matern-linear", "matern-quadratic"])
@pytest.mark.parametrize("scale", [1.0, 0.3])
@pytest.mark.parametrize("endpoints", [True, False])
def test_conv_gram_against_oracle(family, scale, endpoints):
    spec = KernelSpec(Family(family), dim=1)
    X = equispaced(21, 0, 1 / scale, include_endpoints=endpoints)
    exact = np.array(oracle.conv_gram(spec, X).tolist(), dtype=float)
    K = conv_gram(spec, X)
    assert np.max(np.abs(K - exact)) <= 16 * np.finfo(float).eps * np.max(np.abs(exact))


def test_oracle_conv_gram_is_the_integral():
    # one entry by mpmath's own quadrature over the panels the points cut
    spec = KernelSpec(Family.MATERN_QUADRATIC, dim=1)
    X = equispaced(7, 0, 10 / 3)
    xi, xj = (mpmath.mpf(float(v)) for v in X.points[[1, 4], 0])
    end = mpmath.mpf(10 / 3)
    with mpmath.workdps(30):
        value = mpmath.quad(
            lambda y: oracle._phi(spec, xi - y) * oracle._phi(spec, y - xj), [0, xi, xj, end]
        )
        assert abs(oracle.conv_gram(spec, X)[1, 4] - value) <= mpmath.mpf(10) ** -28 * value


# SHA-256 of the Gauss-Legendre rules of orders 1 to 64, recorded before the three panel
# builders and the two Legendre recurrences were merged into one each (numpy
# 2.4 with OpenBLAS, x86-64): a change that moves one bit fails here
GAUSS_LEGENDRE_1_TO_64_DIGEST = "0ccbffd024fb743bc9a29d905d2c690af8b0eb3a98f3f7100881ac3ab956f3da"


def test_quadrature_paths_match_pinned_digests():
    rules = hashlib.sha256()
    for order in range(1, 65):
        rule = gauss_legendre(order)
        rules.update(rule.nodes.tobytes())
        rules.update(rule.weights.tobytes())
    assert rules.hexdigest() == GAUSS_LEGENDRE_1_TO_64_DIGEST


def test_conv_gram_memory_is_quadratic():
    # the closed form in one n x n matrix, written in place by row blocks
    # with two blocks of scratch, together 0.064 of the matrix at n = 1000,
    # and no n x O(n)-node quadrature temporaries
    X = equispaced(1000, 0, 1)
    tracemalloc.start()
    try:
        conv_gram(LINEAR, X)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.15 * len(X) ** 2 * 8


def test_conv_gram_reference_eigenvalues():
    X = equispaced(10, 0, 1)
    assert np.linalg.eigvalsh(conv_gram(BASIC, X))[0] == pytest.approx(1.1886014854231e-4, rel=1e-3)
    assert np.linalg.eigvalsh(conv_gram(LINEAR, X))[0] == pytest.approx(9.39015888450254e-10, rel=1e-2)


def test_conv_gram_positive_semidefinite_forms():
    X = equispaced(25, 0, 1)
    K = conv_gram(LINEAR, X)
    rng = np.random.default_rng(13)
    floor = len(X) * np.finfo(float).eps * np.max(np.abs(K))
    for _ in range(200):
        alpha = rng.uniform(-1, 1, len(X))
        assert alpha @ K @ alpha >= -floor * (alpha @ alpha)


def test_conv_gram_exactly_symmetric():
    K = conv_gram(LINEAR, equispaced(17, 0, 1))
    np.testing.assert_array_equal(K, K.T)


def _wrong_conv_value(exact, nan_calls):
    """``exact`` off by 1e-6 at every call for no ``nan_calls``, else NaN at
    the calls it numbers (from 1) and exact elsewhere."""
    calls = []

    def conv_value(*args):
        calls.append(args)
        if not nan_calls:
            return exact(*args) + 1e-6
        return math.nan if len(calls) in nan_calls else exact(*args)

    return conv_value


def test_conv_gram_reports_quadrature_failure(monkeypatch, tmp_path, capsys):
    # a spot check that disagrees by 1e-6 with the closed form, then ones that
    # are NaN at the first spot entry, at a later one only and at all six
    # (one conv_value call each on three points)
    exact = assembly.conv_value
    monkeypatch.chdir(tmp_path)
    for nan_calls in [(), (1,), (4,), range(1, 7)]:
        # built whole, and split as eigen-scaling solves it: the spot rows are
        # checked before into is called, so into's row function is asked for
        # no row
        for into in [assembly._whole, centrosymmetric_eigvalsh]:
            monkeypatch.setattr(assembly, "conv_value", _wrong_conv_value(exact, nan_calls))
            recorded = _RecordedRows(into)
            with pytest.raises(QuadratureError) as info:
                conv_gram(BASIC, equispaced(3, 0, 1), into=recorded)
            assert recorded.indices == []
            assert info.value.achieved is not None
            if nan_calls:
                assert math.isnan(info.value.achieved)
            else:
                assert info.value.achieved > info.value.target
        # through the CLI it is a numerical failure
        monkeypatch.setattr(assembly, "conv_value", _wrong_conv_value(exact, nan_calls))
        assert cli.main(["thm41", "--n", "8", "--trials", "1"]) == 3
        assert "numerical failure: convolution quadrature" in capsys.readouterr().err


def test_conv_gram_is_one_dimensional_only():
    with pytest.raises(ValueError):
        conv_gram(KernelSpec(Family.MATERN_BASIC, dim=2), halton(5, 2))
