import math
import tracemalloc

import numpy as np
import pytest

import oracle
from kernstab import (
    Family,
    KernelSpec,
    PointSet,
    SingularMatrixError,
    below_precision_floor,
    centrosymmetric_eigvalsh,
    conv_gram,
    equispaced,
    gram,
    halton,
    inv_sqrt,
    precision_floor,
    shifted_gram,
    sym_eigen,
    whiten,
    whitened_spectrum,
)
from kernstab import geometry, spectral
from kernstab.spectral import _inverse_cholesky, _leaves


def _random_symmetric(rng, n):
    A = rng.uniform(-1, 1, (n, n))
    return 0.5 * (A + A.T)


def test_identity_eigenvalues():
    w, _ = sym_eigen(np.eye(3))
    np.testing.assert_array_equal(w, [1.0, 1.0, 1.0])


def test_two_by_two_closed_form():
    e = math.exp(-1.0)
    w, _ = sym_eigen(np.array([[1.0, e], [e, 1.0]]))
    np.testing.assert_allclose(w, [1.0 - e, 1.0 + e], rtol=1e-14)


def test_reference_gram_eigenvalues():
    basic = KernelSpec(Family.MATERN_BASIC, dim=1)
    linear = KernelSpec(Family.MATERN_LINEAR, dim=1)
    X = equispaced(10, 0, 1)
    assert np.linalg.eigvalsh(gram(basic, X))[0] == pytest.approx(5.68706355670114e-2, rel=1e-8)
    assert np.linalg.eigvalsh(gram(linear, X))[0] == pytest.approx(1.27687777536716e-4, rel=1e-8)


def test_rejects_asymmetric_input():
    with pytest.raises(ValueError):
        sym_eigen(np.array([[0.0, 1.0], [0.0, 0.0]]))


@pytest.mark.parametrize("where", [(0, 1), (1, 0)])
def test_nan_off_the_diagonal_is_not_symmetric(where):
    # eigh reads one triangle, so a NaN in the other would go unseen
    A = np.eye(4)
    A[where] = np.nan
    with pytest.raises(ValueError, match="not symmetric to 1e-12 relative"):
        sym_eigen(A)


def test_symmetry_tolerance_is_1e_12_relative():
    A = _random_symmetric(np.random.default_rng(12), 40)
    sym_eigen(A)  # bitwise symmetric
    P = A.copy()
    P[3, 17] += 1e-13 * np.max(np.abs(A))
    sym_eigen(P)
    P[3, 17] = A[3, 17] + 1e-11 * np.max(np.abs(A))
    with pytest.raises(ValueError, match="not symmetric to 1e-12 relative"):
        sym_eigen(P)


def test_reconstruction_and_orthonormality():
    rng = np.random.default_rng(41)
    for _ in range(200):
        n = int(rng.integers(2, 41))
        A = _random_symmetric(rng, n)
        w, Q = sym_eigen(A)
        assert np.all(np.diff(w) >= 0)
        assert np.max(np.abs(Q.T @ Q - np.eye(n))) <= 1e-12
        scale = max(np.max(np.abs(A)), 1e-300)
        assert np.max(np.abs(Q @ np.diag(w) @ Q.T - A)) <= 1e-10 * scale


def test_sign_convention_and_determinism():
    # the same eigenvectors, signs included, on every call
    rng = np.random.default_rng(8)
    A = _random_symmetric(rng, 12)
    (_, Q1), (_, Q2) = sym_eigen(A), sym_eigen(A)
    np.testing.assert_array_equal(Q1, Q2)


def test_inv_sqrt_diagonal():
    np.testing.assert_array_equal(inv_sqrt(np.eye(3)), np.eye(3))
    S = inv_sqrt(np.diag([4.0, 9.0]))
    np.testing.assert_allclose(S, np.diag([0.5, 1.0 / 3.0]), rtol=1e-14)


def test_inv_sqrt_defining_property():
    X = halton(50, 2)
    A = gram(KernelSpec(Family.MATERN_LINEAR, dim=2), X)
    S = inv_sqrt(A)
    np.testing.assert_array_equal(S, S.T)
    assert np.max(np.abs(S @ A @ S - np.eye(50))) <= 1e-9


def test_inv_sqrt_rejects_near_singular():
    with pytest.raises(SingularMatrixError) as info:
        inv_sqrt(np.diag([1.0, 1e-20]))
    assert info.value.lambda_min == pytest.approx(1e-20)
    assert info.value.lambda_max == pytest.approx(1.0)


def test_whiten_identity_and_zero():
    X = halton(30, 2)
    A = gram(KernelSpec(Family.MATERN_LINEAR, dim=2), X)
    M = whiten(A, A)
    assert np.max(np.abs(M - np.eye(30))) <= 1e-9
    np.testing.assert_array_equal(whiten(A, np.zeros((30, 30))), np.zeros((30, 30)))
    with pytest.raises(ValueError):
        whiten(A, np.zeros((4, 4)))


def _sym_eigen_expression(A):
    # the out-of-place forms the in-place ones replaced: the bitwise oracles.
    # Their eigenvectors keep the largest component of each column positive,
    # where sym_eigen leaves LAPACK's signs, so matching them bit for bit
    # shows that inv_sqrt and whiten do not depend on those signs
    w, Q = np.linalg.eigh(A)
    lead = np.argmax(np.abs(Q), axis=0)
    signs = np.sign(Q[lead, np.arange(Q.shape[1])])
    signs[signs == 0] = 1.0
    return w, Q * signs


def _inv_sqrt_expression(A):
    w, Q = _sym_eigen_expression(A)
    S = (Q / np.sqrt(w)) @ Q.T
    return 0.5 * (S + S.T)


def _whiten_expression(A, B):
    S = _inv_sqrt_expression(A)
    M = S @ (0.5 * (B + B.T)) @ S
    return 0.5 * (M + M.T)


def _shift_pair(family, dim, n):
    X = halton(n, dim)
    spec = KernelSpec(family, dim=dim)
    b = np.full(dim, 0.1 * X.separation / math.sqrt(dim))
    return gram(spec, X), shifted_gram(spec, X, b)


@pytest.mark.parametrize("family", [Family.MATERN_BASIC, Family.MATERN_LINEAR])
@pytest.mark.parametrize("dim", [1, 2, 3])
def test_transforms_are_bitwise_their_expressions(family, dim):
    A, B = _shift_pair(family, dim, 150)
    A0, B0 = A.copy(), B.copy()
    w, Q = sym_eigen(A)
    w0, Q0 = np.linalg.eigh(A)
    assert w.tobytes() == w0.tobytes()
    assert Q.tobytes() == Q0.tobytes()
    assert not np.array_equal(Q, _sym_eigen_expression(A)[1])  # some signs differ
    assert inv_sqrt(A).tobytes() == _inv_sqrt_expression(A).tobytes()
    assert whiten(A, B).tobytes() == _whiten_expression(A, B).tobytes()
    assert np.array_equal(A, A0) and np.array_equal(B, B0)


@pytest.mark.parametrize("family", list(Family))
@pytest.mark.parametrize("dim", [2, 3])
@pytest.mark.parametrize("n", [10, 257, 600])
def test_whiten_is_bitwise_symmetric(family, dim, n):
    # the heatmap CSV formats entry (i, j) once for (j, i) too; Halton points
    # scaled to unit separation keep every family's pair well conditioned
    Y = halton(n, dim)
    X = PointSet(Y.points / Y.separation, Y.domain / Y.separation)
    spec = KernelSpec(family, dim=dim)
    b = np.full(dim, 0.1 * X.separation / math.sqrt(dim))
    M = whiten(gram(spec, X), shifted_gram(spec, X, b))
    assert np.array_equal(M, M.T)
    assert np.array_equal(np.abs(M), np.abs(M).T)


def test_whiten_memory_is_three_matrices():
    # the eigenvectors, the scaled copy and their product, then the inverse
    # root, sym(B) and one product: never a fourth n x n matrix of whiten's own
    A, B = _shift_pair(Family.MATERN_LINEAR, 3, 1500)
    tracemalloc.start()
    try:
        whiten(A, B)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 3.5 * len(A) ** 2 * 8


@pytest.mark.parametrize("n", [1, 7, 256, 257, 600, 1100])
def test_invert_lower_inverts_in_place(n):
    rng = np.random.default_rng(n)
    L = np.tril(rng.uniform(-1, 1, (n, n)) / math.sqrt(n)) + 2.0 * np.eye(n)
    A = L @ L.T
    G = A.copy()
    assert _inverse_cholesky(G) is G
    assert np.max(np.abs(G @ A @ G.T - np.eye(n))) <= 1e-12
    if n <= 256:
        assert G.tobytes() == np.linalg.inv(np.linalg.cholesky(A)).tobytes()
    # whitened_spectrum's products skip every block right of a leaf's stop
    leaves = _leaves(n)
    assert leaves[0][0] == 0 and leaves[-1][1] == n
    assert all(a[1] == b[0] for a, b in zip(leaves, leaves[1:]))
    assert all(0 < stop - start <= 256 for start, stop in leaves)
    for start, stop in leaves:
        assert not np.any(G[start:stop, stop:])
    # only the lower triangle of A is read
    poisoned = np.where(np.tri(n, dtype=bool), A, np.nan)
    assert _inverse_cholesky(poisoned).tobytes() == G.tobytes()


def _roundoff(A):
    w = np.linalg.eigvalsh(A)
    return 10.0 * np.finfo(float).eps * w[-1] / w[0]


@pytest.mark.parametrize("family", [Family.MATERN_BASIC, Family.MATERN_LINEAR])
@pytest.mark.parametrize("dim", [1, 2, 3])
def test_whitened_spectrum_is_the_spectrum_of_whiten(family, dim):
    # 300 points: the triangular inverse recurses once before its leaves
    A, B = _shift_pair(family, dim, 300)
    # whitened_spectrum overwrites what its builders return: give it copies
    w = whitened_spectrum(A.copy, B.copy)
    assert np.all(np.diff(w) >= 0)
    # both routes err by up to about eps cond(A); the oracle test below says
    # which lands nearer
    np.testing.assert_allclose(w, np.linalg.eigvalsh(whiten(A, B)), rtol=0, atol=_roundoff(A))
    with pytest.raises(ValueError, match="equal size"):
        whitened_spectrum(A.copy, lambda: np.zeros((4, 4)))


def _graded(c, n=500):
    # Q diag(geomspace(1/c, 1, n)) Q^T with a random orthogonal Q
    Q, _ = np.linalg.qr(np.random.default_rng(5).standard_normal((n, n)))
    A = (Q * np.geomspace(1.0 / c, 1.0, n)) @ Q.T
    return 0.5 * (A + A.T)


def test_floor_decides_where_cholesky_succeeds():
    # lambda_min = 2.5e-13 clears the floor 1e3 eps = 2.2e-13, 1e-13 does
    # not; Cholesky factors both, so only the floor test can tell them apart
    accepted, rejected = _graded(4e12), _graded(1e13)
    for A in (accepted, rejected):
        np.linalg.cholesky(A)
    inv_sqrt(accepted)
    w = whitened_spectrum(accepted.copy, accepted.copy)
    np.testing.assert_allclose(w, 1.0, atol=1e-2)
    with pytest.raises(SingularMatrixError) as by_eigh:
        inv_sqrt(rejected)
    with pytest.raises(SingularMatrixError) as by_cholesky:
        whitened_spectrum(rejected.copy, rejected.copy)
    assert str(by_cholesky.value) == str(by_eigh.value)
    assert by_cholesky.value.lambda_min == by_eigh.value.lambda_min


def test_eigh_fallback_frees_the_factor_first(monkeypatch):
    # at condition 4e12 Cholesky succeeds and the norm bounds cannot decide,
    # so the floor test takes one eigh of A built a second time: L^-1 is
    # freed before it, and up to the call for B the whitening holds that A
    # and its eigenvectors, which then whiten, not L^-1 beside them (3.0 n^2
    # floats)
    n = 1000
    A = _graded(4e12, n)
    eigh, calls, peaks, builds = np.linalg.eigh, [], [], []
    monkeypatch.setattr(np.linalg, "eigh", lambda M: calls.append(len(M)) or eigh(M))

    def gram():
        builds.append(n)
        return A.copy()

    def shifted():
        peaks.append(tracemalloc.get_traced_memory()[1])
        return A.copy()

    tracemalloc.start()
    try:
        w = whitened_spectrum(gram, shifted)
    finally:
        tracemalloc.stop()
    assert calls == [n]
    assert len(builds) == 2
    assert peaks[0] <= 2.2 * n**2 * 8, f"peak {peaks[0] / (8 * n**2):.2f} n^2 floats"
    np.testing.assert_allclose(w, 1.0, atol=1e-2)


def test_undecided_floor_whitens_by_the_eigenpairs_of_one_eigh(monkeypatch):
    # Cholesky succeeds at condition 4e12 and the norm bounds cannot decide:
    # A is built for the factor and once more for eigh, whose eigenpairs
    # whiten, and it is never factored again
    n = 300
    A = _graded(4e12, n)
    calls = {"gram": 0, "eigh": 0, "cholesky": 0}

    def counted(name, f):
        def call(*args):
            calls[name] += 1
            return f(*args)
        return call

    monkeypatch.setattr(np.linalg, "eigh", counted("eigh", np.linalg.eigh))
    monkeypatch.setattr(np.linalg, "cholesky", counted("cholesky", np.linalg.cholesky))
    w = whitened_spectrum(counted("gram", A.copy), A.copy)
    assert calls == {"gram": 2, "eigh": 1, "cholesky": len(_leaves(n))}
    np.testing.assert_allclose(w, 1.0, atol=1e-2)


def test_indefinite_matrix_is_singular_not_a_linalg_error():
    # LinAlgError is a ValueError, which the CLI reports as a usage error
    A = np.diag([1.0, 0.5, -1e-3])
    with pytest.raises(SingularMatrixError) as info:
        whitened_spectrum(A.copy, lambda: np.eye(3))
    assert type(info.value) is SingularMatrixError
    with pytest.raises(SingularMatrixError) as by_eigh:
        inv_sqrt(A)
    assert str(info.value) == str(by_eigh.value)


@pytest.mark.parametrize("n", [80, 300])
def test_cholesky_breakdown_whitens_by_eigenpairs(monkeypatch, n):
    # at 300 points L^-1 has two leaves, while the full G of the eigenpairs
    # must be taken as one block
    A, B = _shift_pair(Family.MATERN_LINEAR, 2, n)
    expected = whitened_spectrum(A.copy, B.copy)

    def breaks_down(A):
        raise np.linalg.LinAlgError("Matrix is not positive definite")

    monkeypatch.setattr(np.linalg, "cholesky", breaks_down)
    np.testing.assert_allclose(whitened_spectrum(A.copy, B.copy), expected, rtol=0, atol=_roundoff(A))


def test_well_conditioned_input_takes_no_eigendecomposition(monkeypatch):
    A, B = _shift_pair(Family.MATERN_BASIC, 3, 300)
    expected = np.linalg.eigvalsh(whiten(A, B))

    def unexpected(A):
        raise AssertionError("eigh called on a matrix the norm bounds accept")

    monkeypatch.setattr(np.linalg, "eigh", unexpected)
    np.testing.assert_allclose(whitened_spectrum(A.copy, B.copy), expected, rtol=0, atol=_roundoff(A))


def test_whitened_spectrum_memory_is_two_matrices():
    # the whole pipeline, both builds included: the Gram matrix (built over
    # its distance matrix, then overwritten by L^-1) and B (built over its
    # distance matrix, then overwritten by sym(B), by L^-1 sym(B) and by the
    # lower triangle of the congruence), besides one leaf's rows of a
    # product: never a third n x n matrix
    n = 1500
    X = halton(n, 3)
    spec = KernelSpec(Family.MATERN_LINEAR, dim=3)
    b = np.full(3, 0.1 * X.separation / math.sqrt(3))
    tracemalloc.start()
    try:
        whitened_spectrum(lambda: gram(spec, X), lambda: shifted_gram(spec, X, b))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2.5 * n**2 * 8


@pytest.mark.parametrize("where", [0, -1])
def test_whitened_spectrum_rejects_a_nan_in_any_row_block(monkeypatch, where):
    # 300 rows span two row blocks of the whitening: the NaN sits in the
    # first or the last, and is refused before A is factored or eigensolved
    A = np.eye(300)
    A[where, where] = np.nan
    calls = []
    for module, name in [(spectral, "_inverse_cholesky"), (np.linalg, "eigh")]:
        f = getattr(module, name)
        monkeypatch.setattr(module, name, lambda M, f=f, name=name: calls.append(name) or f(M))
    with pytest.raises(ValueError):
        whitened_spectrum(A.copy, lambda: np.eye(300))
    assert calls == []


@pytest.mark.parametrize("n", [300, 600, 1100])
def test_blocks_above_the_leaves_are_never_read(monkeypatch, n):
    A, B = _shift_pair(Family.MATERN_BASIC, 3, n)
    expected = whitened_spectrum(A.copy, B.copy)
    invert = spectral._inverse_cholesky

    def poisoned(A):
        # the recursion into the halves calls this function too, so the
        # corner of each level is formed from poisoned inverses of its halves
        G = invert(A)
        for start, stop in _leaves(len(G)):
            G[start:stop, stop:] = np.nan
        return G

    # the norm bound reads the NaN as the exact zero it stands for, so it
    # accepts A and leaves the product to run on the poisoned inverse
    vdot = np.vdot
    monkeypatch.setattr(np, "vdot", lambda a, b: vdot(np.nan_to_num(a), np.nan_to_num(b)))
    monkeypatch.setattr(spectral, "_inverse_cholesky", poisoned)
    w = whitened_spectrum(A.copy, B.copy)
    assert np.all(np.isfinite(w))
    assert w.tobytes() == expected.tobytes()


def test_oracle_builds_the_program_matrices():
    spec = KernelSpec(Family.MATERN_QUADRATIC, dim=1)
    X = equispaced(12, 0, 1)
    b = 0.1 * X.separation
    np.testing.assert_allclose(
        np.array(oracle.gram(spec, X).tolist(), dtype=float), gram(spec, X), rtol=1e-15
    )
    B = shifted_gram(spec, X, [b])
    np.testing.assert_allclose(
        np.array(oracle.sym_shifted_gram(spec, X, b).tolist(), dtype=float),
        0.5 * (B + B.T), rtol=1e-15,
    )


# absolute error against the 50-digit spectrum at lambda_max, at lambda_min and
# the largest over the spectrum, for equispaced points on [0, 1] with
# b = 0.1 q, as ROADMAP direction 4 records them for the Cholesky congruence
ORACLE_ERRORS = {
    (Family.MATERN_QUADRATIC, 40): (1.2e-12, 5.5e-8, 6.4e-6),
    (Family.MATERN_LINEAR, 60): (6.0e-14, 1.2e-9, 1.2e-9),
    # the norm bound cannot decide here, so A is whitened by its eigenpairs
    (Family.MATERN_QUADRATIC, 50): (3.3e-13, 2.9e-5, 2.9e-5),
}


@pytest.mark.parametrize("family, n", list(ORACLE_ERRORS), ids=lambda v: getattr(v, "value", v))
def test_whitened_spectrum_against_oracle(family, n, monkeypatch):
    spec = KernelSpec(family, dim=1)
    X = equispaced(n, 0, 1)
    b = 0.1 * X.separation
    exact = oracle.whitened_spectrum(spec, X, b)
    A, B = gram(spec, X), shifted_gram(spec, X, [b])

    def errors(w):
        e = np.abs(w - exact)
        return e[-1], e[0], e.max()

    eigh, solves = np.linalg.eigh, []
    monkeypatch.setattr(np.linalg, "eigh", lambda M: solves.append(len(M)) or eigh(M))
    congruence = errors(whitened_spectrum(A.copy, B.copy))
    # at least as accurate as recorded, at the two digits recorded
    assert all(float(f"{e:.1e}") <= r for e, r in zip(congruence, ORACLE_ERRORS[family, n]))
    # and, by Cholesky, more accurate than the spectrum of the whitened
    # matrix; the fallback whitens by the eigh that whiten runs itself
    if not solves:
        assert all(c <= w for c, w in zip(congruence, errors(np.linalg.eigvalsh(whiten(A, B)))))


def test_precision_floor_flags():
    w = np.array([1e-20, 0.5, 1.0])
    assert precision_floor(w) == pytest.approx(3 * np.finfo(float).eps)
    np.testing.assert_array_equal(below_precision_floor(w), [True, False, False])
    # raw negative values are preserved and flagged, never clamped
    noisy = np.array([-1e-18, 1.0])
    np.testing.assert_array_equal(below_precision_floor(noisy), [True, False])


def _counted_eigvalsh(monkeypatch):
    # the sizes of the np.linalg.eigvalsh solves made through the attribute
    solver, sizes = np.linalg.eigvalsh, []

    def counted(A):
        sizes.append(len(A))
        return solver(A)

    monkeypatch.setattr(np.linalg, "eigvalsh", counted)
    return sizes


def _reflective(rng, n):
    # R + J R J of a symmetric R: symmetric and centrosymmetric bit for bit,
    # since the two terms of each entry just swap
    R = _random_symmetric(rng, n)
    return R + R[::-1, ::-1]


def _split(A, asked=None):
    """The split of A as gram and conv_gram hand it their rows: with a row
    function that copies A's rows and no scratch; the indices each call of
    the row function is asked for go to ``asked``."""

    def rows_into(indices, dest):
        if asked is not None:
            asked.append(indices.tolist())
        dest[...] = A[indices]

    return centrosymmetric_eigvalsh(len(A), rows_into, 0)


@pytest.mark.parametrize("n", [2, 3, 4, 5, 40, 41, 300, 301])
def test_centrosymmetric_split_is_the_spectrum(n, monkeypatch):
    A = _reflective(np.random.default_rng(n), n)
    kept = A.copy()
    full = np.linalg.eigvalsh(A)
    sizes = _counted_eigvalsh(monkeypatch)
    # the split reads the rows it is given and writes none of them
    w = _split(A)
    assert sizes == [n // 2, n - n // 2]
    assert np.all(np.diff(w) >= 0)
    assert np.max(np.abs(w - full)) <= precision_floor(full)
    np.testing.assert_array_equal(A, kept)


@pytest.mark.parametrize("n", [2, 3, 40, 41, 300, 301])
def test_split_does_not_depend_on_the_row_blocks(n, monkeypatch):
    # one row, seven rows and the default height per block: the same bits
    A = _reflective(np.random.default_rng(n), n)
    expected = _split(A)
    for entries in [1, 14 * n]:
        monkeypatch.setattr(geometry, "_BLOCK_ENTRIES", entries)
        assert _split(A).tobytes() == expected.tobytes()


@pytest.mark.parametrize("n", [1, 2, 3, 16, 17, 600, 601])
def test_split_asks_for_every_row_once_in_mirrored_pairs(n):
    # a block of the top half with its mirror image in one call, top down,
    # and for odd n the middle row alone, last
    asked = []
    _split(_reflective(np.random.default_rng(n), n), asked=asked)
    assert sorted(i for rows in asked for i in rows) == list(range(n))
    if n % 2:
        assert asked.pop() == [n // 2]
    tops = []
    for rows in asked:
        top, bottom = rows[: len(rows) // 2], rows[len(rows) // 2 :]
        assert bottom == [n - 1 - i for i in reversed(top)]
        tops += top
    assert tops == list(range(n // 2))


def _bitwise_eigvalsh(A, monkeypatch, sizes):
    """Assert that the split of A is eigvalsh(A) bit for bit, by solves of
    ``sizes`` rows, and return how many times each row was asked for."""
    expected = np.linalg.eigvalsh(A)
    solves, asked = _counted_eigvalsh(monkeypatch), []
    w = _split(A, asked)
    assert solves == sizes
    assert w.tobytes() == expected.tobytes()
    return np.bincount([i for rows in asked for i in rows], minlength=len(A))


def test_non_reflective_input_is_eigvalsh_before_any_split(monkeypatch):
    # its first pair of row blocks is not centrosymmetric: A is built whole
    # at once, so only that pair's rows are asked for twice
    F = np.random.default_rng(5).standard_normal((300, 300))
    asked = _bitwise_eigvalsh(F @ F.T, monkeypatch, [300])
    twice = np.flatnonzero(asked == 2)
    h = len(twice) // 2
    assert h and twice.tolist() == [*range(h), *range(300 - h, 300)]
    assert asked.min() == 1


def test_split_rejected_after_its_first_pair_is_built_again(monkeypatch):
    # blocks of ten rows: the first pair, rows 0 to 9 and 290 to 299, is
    # centrosymmetric and row 100 is not, so the split is rejected after its
    # solves and A is built whole from the same row function
    monkeypatch.setattr(geometry, "_BLOCK_ENTRIES", 2 * 10 * 300)
    A = _reflective(np.random.default_rng(6), 300)
    A[100, 100] += 1.0
    asked = _bitwise_eigvalsh(A, monkeypatch, [150, 150, 300])
    assert np.all(asked == 2)


@pytest.mark.parametrize("n", [40, 41])
@pytest.mark.parametrize("factor, split", [(0.99, True), (1.01, False)])
def test_split_only_below_its_threshold(n, factor, split, monkeypatch):
    # A - J A J = t (e_0 e_0^T - e_n e_n^T) has delta = t / 2; the threshold
    # (n // 2) eps lambda_max is read from the split's lambda_max, which is
    # within delta of the unperturbed one
    A = _reflective(np.random.default_rng(7), n)
    threshold = (n // 2) * np.finfo(float).eps * np.max(np.abs(np.linalg.eigvalsh(A)))
    A[0, 0] += 2 * factor * threshold
    if split:
        sizes = _counted_eigvalsh(monkeypatch)
        w = _split(A)
        assert sizes == [n // 2, n - n // 2]
        assert w.tobytes() != np.linalg.eigvalsh(A).tobytes()
    else:
        # rejected after the split: every row is asked for again
        asked = _bitwise_eigvalsh(A, monkeypatch, [n // 2, n - n // 2, n])
        assert np.all(asked == 2)


def test_unsplittable_input_goes_to_eigvalsh(monkeypatch):
    _bitwise_eigvalsh(np.array([[2.0]]), monkeypatch, [1])
    # a NaN fails the threshold test, so eigvalsh itself reports it
    A = _reflective(np.random.default_rng(3), 6)
    A[2, 3] = A[3, 2] = np.nan
    sizes = _counted_eigvalsh(monkeypatch)
    with pytest.raises(np.linalg.LinAlgError):
        _split(A)
    assert sizes == [6]


# k(X, X) and k*(X, X) of equispaced points on [0, 1]: whole spectra against
# the 50-digit oracle at odd and even n
SPLIT_ORACLE_CASES = [
    (Family.MATERN_BASIC, 31), (Family.MATERN_LINEAR, 30), (Family.MATERN_LINEAR, 31),
    (Family.MATERN_QUADRATIC, 30),
]


@pytest.mark.parametrize("family, n", SPLIT_ORACLE_CASES, ids=lambda v: getattr(v, "value", v))
@pytest.mark.parametrize("matrix", ["gram", "conv_gram"])
def test_centrosymmetric_split_against_oracle(family, n, matrix):
    spec = KernelSpec(family, dim=1)
    X = equispaced(n, 0, 1)
    builder = {"gram": gram, "conv_gram": conv_gram}[matrix]
    exact = oracle.spectrum(getattr(oracle, matrix)(spec, X))
    full = np.abs(np.linalg.eigvalsh(builder(spec, X)) - exact)
    split = np.abs(builder(spec, X, into=centrosymmetric_eigvalsh) - exact)
    # no worse than the full solve, at lambda_min and over the spectrum, to
    # a few ulps of lambda_max
    ulps = 4 * np.finfo(float).eps * exact[-1]
    assert split[0] <= full[0] + ulps
    assert split.max() <= full.max() + ulps
