import tracemalloc

import numpy as np
import pytest

from kernstab import (
    PointSet,
    boundary_distance,
    equispaced,
    halton,
)


def test_halton_first_points():
    assert halton(1, 1).points.tolist() == [[0.5]]
    expected = [[1 / 2, 1 / 3], [1 / 4, 2 / 3], [3 / 4, 1 / 9]]
    np.testing.assert_allclose(halton(3, 2).points, expected, rtol=0, atol=1e-15)


def _radical_inverse_loop(index, base):
    # the scalar digit loop the vectorized Halton generator must reproduce
    f, inv = 0.0, 1.0
    while index > 0:
        inv /= base
        f += inv * (index % base)
        index //= base
    return f


@pytest.mark.parametrize("n, dim, skip", [(2000, 3, 0), (1000, 2, 0), (50, 2, 0), (17, 3, 5), (1, 1, 0)])
def test_halton_bitwise_equals_scalar_loop(n, dim, skip):
    # the n points after the first ``skip``
    expected = np.array(
        [
            [_radical_inverse_loop(i, b) for b in (2, 3, 5)[:dim]]
            for i in range(skip + 1, skip + n + 1)
        ]
    )
    assert halton(skip + n, dim).points[skip:].tobytes() == expected.tobytes()


def _einsum_min_distance(points):
    # the unblocked n x n x d reference
    diff = points[:, None, :] - points[None, :, :]
    d2 = np.einsum("ijk,ijk->ij", diff, diff)
    np.fill_diagonal(d2, np.inf)
    return float(np.sqrt(d2.min()))


@pytest.mark.parametrize("n, dim", [(2000, 1), (40, 1), (2, 1), (1500, 2), (900, 3)])
def test_separation_bitwise_equals_einsum_reference(n, dim):
    rng = np.random.default_rng(n + dim)
    points = rng.uniform(size=(n, dim))
    X = PointSet(points, np.array([[0.0, 1.0]] * dim))
    assert X.separation == 0.5 * _einsum_min_distance(points)
    H = halton(min(n, 2000), dim)
    assert H.separation == 0.5 * _einsum_min_distance(H.points)


def test_halton_point_set_memory_is_linear_in_blocks():
    # the separation distance needs no n x n x d difference array (216 MB here)
    tracemalloc.start()
    try:
        halton(3000, 3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 32e6


def test_halton_deterministic_and_distinct():
    a, b = halton(50, 2), halton(50, 2)
    np.testing.assert_array_equal(a.points, b.points)
    assert a.separation > 0


def test_halton_rejects_bad_arguments():
    with pytest.raises(ValueError):
        halton(5, 4)
    with pytest.raises(ValueError):
        halton(0, 1)


def test_equispaced_examples():
    assert equispaced(10, 0, 1).separation == pytest.approx(1 / 18, rel=1e-14)
    X = equispaced(2, 0, 1)
    np.testing.assert_array_equal(X.points[:, 0], [0.0, 1.0])
    assert X.separation == 0.5
    assert equispaced(200, 0, 1).separation == pytest.approx(1 / 398, rel=1e-14)


def test_equispaced_interior_variant():
    X = equispaced(3, 0.0, 1.0, include_endpoints=False)
    np.testing.assert_allclose(X.points[:, 0], [0.25, 0.5, 0.75], rtol=1e-15)
    assert X.separation == pytest.approx(1 / 8, rel=1e-14)


def test_equispaced_rejects_small_n():
    with pytest.raises(ValueError):
        equispaced(1, 0, 1)


def test_equispaced_separation_formula():
    for n in range(2, 401):
        q = equispaced(n, 0.0, 1.0).separation
        assert q * 2 * (n - 1) == pytest.approx(1.0, rel=1e-12)


def test_separation_examples():
    X = PointSet(np.array([[0.0], [1.0]]), np.array([[0.0, 1.0]]))
    assert X.separation == 0.5
    tri = PointSet(
        np.array([[0.0, 0.0], [0.0, 3.0], [4.0, 0.0]]),
        np.array([[0.0, 4.0], [0.0, 3.0]]),
    )
    assert tri.separation == 1.5


def test_separation_requires_two_points():
    lone = PointSet(np.array([[0.5]]), np.array([[0.0, 1.0]]))
    with pytest.raises(ValueError):
        lone.separation


def test_duplicate_points_rejected():
    with pytest.raises(ValueError):
        PointSet(np.array([[0.2], [0.2]]), np.array([[0.0, 1.0]]))


def test_points_must_lie_in_box():
    with pytest.raises(ValueError):
        PointSet(np.array([[1.5]]), np.array([[0.0, 1.0]]))


def test_boundary_distance_examples():
    unit = np.array([[0.0, 1.0], [0.0, 1.0]])
    assert boundary_distance(PointSet(np.array([[0.5]]), np.array([[0.0, 1.0]]))) == 0.5
    assert boundary_distance(PointSet(np.array([[0.0, 0.0]]), unit)) == 0.0
    assert boundary_distance(PointSet(np.array([[0.2, 0.9]]), unit)) == pytest.approx(0.1)
