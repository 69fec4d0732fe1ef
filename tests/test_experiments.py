import math
import time
import tracemalloc

import numpy as np
import pytest

from heatmap_reference import assert_decodes_to_loop_colors, heatmap_matrix, heatmap_spectrum
from kernstab import (
    Family,
    KernelSpec,
    __version__,
    analysis,
    cli,
    conv_gram,
    equispaced,
    experiments,
    gram,
    halton,
    quadrature,
    sample_grid,
)
from kernstab.experiments import (
    ExperimentConfig,
    _random_interval_set,
    _scaling_samples,
    _write_rows,
    run,
)
from kernstab.spectral import below_precision_floor, centrosymmetric_eigvalsh, precision_floor
from kernstab.rng import SplitMix64


def _fmt_chain(value):
    # the isinstance chain the per-row-type format must agree with
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, int):
        return str(value)
    if isinstance(value, float):
        return "%.17g" % value
    return str(value)


# one or more values of each type the CSV writer takes
VALUES = [
    True, False,
    0, -7, 2**70,
    0.1, 1 / 3, 1e-300, np.float64(2.0 / 3.0),
    -0.0, np.float64(-0.0), float("nan"), np.float64("nan"),
    float("inf"), float("-inf"), np.float64("-inf"),
    "matern-linear", "",
]


def _written_fields(tmp_path, rows):
    path = tmp_path / "rows.csv"
    _write_rows(path, "abc", [f"c{j}" for j in range(len(rows[0]))], rows)
    return [line.split(",")[2:] for line in path.read_text().splitlines()[1:]]


@pytest.mark.parametrize("value", VALUES, ids=repr)
def test_fmt_matches_isinstance_chain(tmp_path, value):
    assert _written_fields(tmp_path, [[value]]) == [[_fmt_chain(value)]]


def test_write_rows_formats_mixed_rows(tmp_path):
    rows = [VALUES[::2], VALUES[1::2]]
    path = tmp_path / "rows.csv"
    _write_rows(path, "abc", ["a", "b"], rows)
    lines = path.read_text().splitlines()
    assert lines[0] == "config,version,a,b"
    for line, row in zip(lines[1:], rows):
        assert line.split(",")[2:] == [_fmt_chain(v) for v in row]
        # '%.17g' is full precision: finite floats read back exactly
        for text, v in zip(line.split(",")[2:], row):
            if isinstance(v, float) and math.isfinite(v):
                assert float(text) == v


@pytest.mark.parametrize(
    "value",
    [np.bool_(True), np.bool_(False), np.int64(-3), np.int32(12), np.float32(0.1)],
    ids=repr,
)
def test_write_rows_rejects_a_type_outside_the_table(tmp_path, value):
    # a numpy scalar other than float64 is an error, never a second format path
    with pytest.raises(TypeError, match=type(value).__name__):
        _written_fields(tmp_path, [[1, value, "x"]])


# values at the edges of '%.17g': the smallest subnormal, the smallest
# normal and the largest double; 1e-4 and the double just below it (where it
# turns to exponent notation); 1e16, 1e17 and the doubles just below them
# (where the exponent comes back); the doubles nearest 1e-304, whose digits
# are 9.9999999999999997e-305 one decade down, and nearest 1e-14, below it
# too but written 1e-14; the exact ties 1000000000000000.25 and .75, rounded
# to even; and signed zero, inf, nan and a nan with its sign bit set
# (written nan)
GRID_VALUES = [
    0.0, 5e-324, 2.0**-1022, 1.7976931348623157e308, 1e-4, np.nextafter(1e-4, 0.0),
    1e16, np.nextafter(1e16, 0.0), 1e17, np.nextafter(1e17, 0.0), 1e-304, 1e-14,
    1000000000000000.25, 1000000000000000.75, 1 / 3, math.inf, -0.0, math.nan,
    -math.nan,
]


def _symmetric_grid(n):
    # the special values first along the upper triangle, then random ones
    rng = np.random.default_rng(n)
    upper = np.zeros((n, n))
    count = n * (n + 1) // 2
    upper[np.triu_indices(n)] = np.resize([*GRID_VALUES, *rng.uniform(0, 2, count)], count)
    return np.where(np.tri(n, k=-1, dtype=bool), upper.T, upper)


def _grid_rows(grid):
    return [[i, *row] for i, row in enumerate(grid)]


@pytest.mark.parametrize("n", [1, 2, 3, 300])
def test_grid_rows_write_the_per_row_format(tmp_path, n):
    # the rows i, grid[i, 0], ..., of np.float64 cells at every edge of '%.17g'
    grid = _symmetric_grid(n)
    path = tmp_path / "grid.csv"
    _write_rows(path, "abc", [f"c{j}" for j in range(n)], _grid_rows(grid))
    row_format = ",".join(["%d"] + ["%.17g"] * n)
    expected = [",".join(["config", "version", *[f"c{j}" for j in range(n)]])]
    expected += [f"abc,{__version__}," + row_format % (i, *row) for i, row in enumerate(grid)]
    assert path.read_bytes() == ("\n".join(expected) + "\n").encode()


@pytest.mark.parametrize(
    "value, mirror", [(0.25, np.nextafter(0.25, 1.0)), (0.0, -0.0)], ids=["last-bit", "signed-zero"]
)
def test_grid_rows_write_an_asymmetric_grid_cell_by_cell(tmp_path, value, mirror):
    # every cell is formatted, none is copied from its mirror image
    grid = np.full((5, 5), 0.5)
    grid[1, 3], grid[3, 1] = value, mirror
    path = tmp_path / "grid.csv"
    _write_rows(path, "abc", [f"c{j}" for j in range(5)], _grid_rows(grid))
    lines = path.read_text().splitlines()
    assert lines[2].split(",")[6] == "%.17g" % value
    assert lines[4].split(",")[4] == "%.17g" % mirror


def test_write_rows_formats_tables_longer_than_a_block(tmp_path):
    # a long table given as an iterator is written whole, row by row in order
    rows = [[i, i / 7, f"r{i}", i % 3 == 0, np.float64(-i) * 1e-300] for i in range(2500)]
    path = tmp_path / "rows.csv"
    _write_rows(path, "abc", ["a", "b", "c", "d", "e"], iter(rows))
    lines = path.read_text().splitlines()[1:]
    assert len(lines) == len(rows)
    for line, row in zip(lines, rows):
        assert line.split(",")[2:] == [_fmt_chain(v) for v in row]


def _spectrum_sidecar(kernel, n):
    rows = [[i, v] for i, v in enumerate(heatmap_spectrum(kernel, n))]
    return ("spectrum", ["index", "eigenvalue"], rows)


def test_library_heatmap_runs_with_its_command_defaults(tmp_path, capsys):
    # dim 2 and the halton layout come from the config itself, not the CLI
    report = run(ExperimentConfig(command="heatmap", n=30))
    assert [check.name for check in report.checks] == ["equivalence-lower", "equivalence-upper"]
    assert report.sidecars == [_spectrum_sidecar("matern-basic", 30)]
    report.write_csv(tmp_path / "library.csv")
    report.write_svg(tmp_path / "library.svg")
    cli_csv, cli_svg = tmp_path / "cli.csv", tmp_path / "cli.svg"
    args = ["heatmap", "--n", "30", "--out-csv", str(cli_csv), "--out-svg", str(cli_svg)]
    assert cli.main(args) == 0
    for suffix in (".csv", ".spectrum.csv", ".svg"):
        library = (tmp_path / f"library{suffix}").read_bytes()
        assert (tmp_path / f"cli{suffix}").read_bytes() == library


def test_heatmap_report_streams_its_artifacts(tmp_path):
    # the report keeps its two checks, its n eigenvalues and the SVG text,
    # one deflated PNG of a byte per cell, so run and writes stay a few
    # n x n float64 matrices
    cfg = ExperimentConfig(command="heatmap", kernel="matern-linear", n=400)
    tracemalloc.start()
    try:
        report = run(cfg)
        report.write_csv(tmp_path / "heatmap.csv")
        report.write_svg(tmp_path / "heatmap.svg")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 10e6
    assert len(report.rows) == 2
    assert len(report.sidecars[0][2]) == 400


def test_heatmap_report_written_twice_writes_the_same_files(tmp_path):
    report = run(ExperimentConfig(command="heatmap", n=40))
    for name in ("first", "second"):
        report.write_csv(tmp_path / f"{name}.csv")
        report.write_svg(tmp_path / f"{name}.svg")
    for suffix in (".csv", ".spectrum.csv", ".svg"):
        first = (tmp_path / f"first{suffix}").read_bytes()
        assert first == (tmp_path / f"second{suffix}").read_bytes()
    assert sorted(path.name for path in tmp_path.iterdir()) == [
        "first.csv", "first.spectrum.csv", "first.svg",
        "second.csv", "second.spectrum.csv", "second.svg",
    ]
    assert report.sidecars == [_spectrum_sidecar("matern-basic", 40)]
    assert len((tmp_path / "first.csv").read_text().splitlines()) == 3
    assert len((tmp_path / "first.spectrum.csv").read_text().splitlines()) == 41
    grid = np.abs(heatmap_matrix("matern-basic", 40))
    svg = first.decode()
    assert_decodes_to_loop_colors(svg, grid)


def _unclamped_grid(n_min, n_max, count):
    # sample_grid as it was before its count was clamped
    if n_min == n_max or count == 1:
        return [n_min]
    vals = 10.0 ** np.linspace(math.log10(n_min), math.log10(n_max), count)
    vals[0], vals[-1] = n_min, n_max
    return sorted({int(v + 1e-9) for v in vals})


def _full_range_count(n_min, n_max):
    # the count from which the top step of the grid is at most 1/2
    return math.ceil(math.log(n_max / n_min) / math.log1p(0.5 / n_max)) + 1


def test_sample_grid_of_a_huge_count_is_the_whole_range():
    # unclamped, a count of 1e12 asks numpy for two 8 TB arrays
    start = time.perf_counter()
    assert sample_grid(10, 1000, 10**12) == list(range(10, 1001))
    assert sample_grid(2, 3, 10**15) == [2, 3]
    assert time.perf_counter() - start < 1.0


@pytest.mark.parametrize("n_min, n_max", [(10, 1000), (2, 50), (10, 12), (2, 3), (10, 200)])
def test_sample_grid_clamp_keeps_every_list(n_min, n_max):
    clamp = _full_range_count(n_min, n_max)
    counts = [*range(1, 40), *range(max(1, clamp - 50), clamp + 51), 3 * clamp]
    for count in counts:
        assert sample_grid(n_min, n_max, count) == _unclamped_grid(n_min, n_max, count), count
    assert sample_grid(n_min, n_max, clamp) == list(range(n_min, n_max + 1))
    # a quarter of the clamp count still skips sizes: the clamp is not too low
    assert len(sample_grid(n_min, n_max, clamp // 4)) < n_max - n_min + 1


def test_random_interval_sets_keep_their_gaps():
    # 500 points is the largest count whose 499 gaps of 2e-3 fit in [0, 1]
    for seed in range(1000):
        n = (2, 20, 500)[seed % 3]
        x = _random_interval_set(SplitMix64(seed), n).points[:, 0]
        assert len(x) == n
        assert x[0] >= 0.0 and x[-1] <= 1.0
        assert np.min(np.diff(x)) > 2e-3


def test_random_interval_sets_match_rejection_sampling(monkeypatch):
    # the exact sampler draws sorted uniforms conditioned on every gap > 0.2,
    # the law the rejection loop it replaced sampled
    monkeypatch.setattr(experiments, "_MIN_SEPARATION", 0.1)
    raw = np.sort(np.random.default_rng(7).uniform(size=(200_000, 4)), axis=1)
    kept = raw[np.all(np.diff(raw, axis=1) > 0.2, axis=1)]
    exact = np.array([
        _random_interval_set(SplitMix64(seed), 4).points[:, 0] for seed in range(len(kept))
    ])
    stderr = np.sqrt((kept.var(axis=0) + exact.var(axis=0)) / len(kept))
    assert np.all(np.abs(kept.mean(axis=0) - exact.mean(axis=0)) < 4 * stderr)
    assert np.all(np.abs(kept.std(axis=0) - exact.std(axis=0)) < 0.05 * kept.std(axis=0))


def test_sin2_runs_without_fourier_quadrature(tmp_path, monkeypatch):
    def no_quadrature(*args, **kwargs):
        raise AssertionError("sin2 ran the Fourier-side quadrature")

    monkeypatch.setattr(analysis, "fourier_quadratic_form", no_quadrature)
    monkeypatch.setattr(quadrature, "fourier_quadratic_form", no_quadrature)
    args = ["sin2", "--kernel", "matern-linear", "--trials", "2",
            "--out-csv", str(tmp_path / "sin2.csv")]
    assert cli.main(args) == 0


def test_thm41_builds_its_convolved_gram_once(tmp_path, monkeypatch):
    calls = []
    conv_gram = analysis.conv_gram

    def counted(*args, **kwargs):
        calls.append(args)
        return conv_gram(*args, **kwargs)

    monkeypatch.setattr(analysis, "conv_gram", counted)
    args = ["thm41", "--trials", "10", "--shift-factor", "0.5",
            "--out-csv", str(tmp_path / "thm41.csv")]
    assert cli.main(args) == 0
    assert len(calls) == 1


@pytest.mark.parametrize("family, checks", [
    (Family.MATERN_BASIC, 33), (Family.MATERN_LINEAR, 66),
])
def test_sin2_builds_each_gram_matrix_once(monkeypatch, family, checks):
    # k(X, X) and its eigensolve depend on the point set alone: one of each
    # for each of the 11 sets (equispaced and 10 random), and one shifted
    # matrix for each of a set's 3 shifts
    calls = {"gram": 0, "eigvalsh": 0, "shifted_gram": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(analysis, "gram", counted("gram", analysis.gram))
    monkeypatch.setattr(analysis, "shifted_gram", counted("shifted_gram", analysis.shifted_gram))
    monkeypatch.setattr(np.linalg, "eigvalsh", counted("eigvalsh", np.linalg.eigvalsh))
    report = run(ExperimentConfig(command="sin2", kernel=family))
    assert calls == {"gram": 11, "eigvalsh": 11, "shifted_gram": 33}
    assert len(report.checks) == len(report.rows) == checks


def _split_of_the_whole_matrix(A):
    # the split written out of place on the whole matrix, the route of
    # the in-place fold that the streamed one replaced: the even and odd
    # blocks of (A + J A J) / 2, solved odd first
    n, m = len(A), len(A) // 2
    top = (A + A[::-1, ::-1])[:m]
    left, right = top[:, :m], top[:, ::-1][:, :m]
    even = np.empty((n - m, n - m))
    even[:m, :m] = (left + right) * 0.5
    if n > 2 * m:
        even[:m, m] = even[m, :m] = top[:, m] * (0.5 * np.sqrt(2.0))
        even[m, m] = A[m, m]
    w = np.concatenate([np.linalg.eigvalsh((left - right) * 0.5), np.linalg.eigvalsh(even)])
    w.sort()
    return w


@pytest.mark.parametrize("family", list(Family))
@pytest.mark.parametrize("endpoints", [True, False])
def test_split_spectra_keep_the_scaling_flags(family, endpoints):
    # the default eigen-scaling grid up to n = 300: the streamed split of
    # k(X, X) bitwise the split of the whole matrix; every split eigenvalue
    # within the precision floor of the full solve's, and the same flag on
    # lambda_min, the one eigen-scaling reports (an eigenvalue at the floor
    # itself, as lambda_2 of k* for matern-quadratic at n = 10 is, can be
    # flagged by one solve's roundoff and not by the other's)
    spec = KernelSpec(family, dim=1)
    for n in [n for n in sample_grid(10, 1000, 30) if n <= 300]:
        X = equispaced(n, 0.0, 1.0, include_endpoints=endpoints)
        split = gram(spec, X, into=centrosymmetric_eigvalsh)
        assert split.tobytes() == _split_of_the_whole_matrix(gram(spec, X)).tobytes()
        for builder in (gram, conv_gram):
            full = np.linalg.eigvalsh(builder(spec, X))
            split = builder(spec, X, into=centrosymmetric_eigvalsh)
            assert np.max(np.abs(split - full)) <= precision_floor(full)
            assert below_precision_floor(split)[0] == below_precision_floor(full)[0]


def _count_rows(monkeypatch):
    # how many times each split of eigen-scaling asks for each row of its
    # matrix, one count array per matrix
    counts, split = [], experiments.centrosymmetric_eigvalsh

    def counted_split(n, rows_into, work):
        asked = np.zeros(n, dtype=int)
        counts.append(asked)

        def counted(indices, dest, *scratch):
            np.add.at(asked, indices, 1)
            rows_into(indices, dest, *scratch)

        return split(n, counted, work)

    monkeypatch.setattr(experiments, "centrosymmetric_eigvalsh", counted_split)
    return counts


@pytest.mark.parametrize("family", list(Family))
@pytest.mark.parametrize("endpoints", [True, False])
def test_scaling_samples_build_each_matrix_once(family, endpoints, monkeypatch):
    # the split asks for a row again only when it is rejected, which no
    # matrix of the default grid is
    counts = _count_rows(monkeypatch)
    cfg = ExperimentConfig(command="eigen-scaling", kernel=family, endpoints=endpoints)
    _scaling_samples(cfg, KernelSpec(family, dim=1))
    assert len(counts) == 2 * len(sample_grid(cfg.n_min, cfg.n_max, cfg.n_count))
    assert all(np.all(asked == 1) for asked in counts)


def test_halton_scaling_samples_are_eigvalsh_bitwise(monkeypatch):
    cfg = ExperimentConfig(command="eigen-scaling", kernel=Family.MATERN_LINEAR, n_min=10,
                           n_max=200, n_count=4, layout="halton")
    spec = KernelSpec(cfg.kernel, dim=1)
    counts = _count_rows(monkeypatch)
    samples, _, _ = _scaling_samples(cfg, spec)
    # rejected at its first pair of row blocks, each matrix is built whole
    # from the same row function: that pair's rows are asked for twice (all
    # but the middle one up to n = 200), the others once
    assert len(counts) == 2 * len(samples)
    for asked in counts:
        n, twice = len(asked), np.flatnonzero(asked == 2)
        h = len(twice) // 2
        assert h and twice.tolist() == [*range(h), *range(n - h, n)]
        assert set(asked.tolist()) <= {1, 2}
    for n, q, lam_sym, lam_conv, flag_sym, flag_conv in samples:
        X = halton(n, 1)
        w_sym = np.linalg.eigvalsh(gram(spec, X))
        w_conv = np.linalg.eigvalsh(conv_gram(spec, X))
        assert (lam_sym, lam_conv) == (w_sym[0], w_conv[0])
        assert (flag_sym, flag_conv) == (below_precision_floor(w_sym)[0], below_precision_floor(w_conv)[0])


def test_scaling_samples_hold_one_matrix_at_a_time(monkeypatch):
    # each matrix is dead before the next is built: nothing n x n is alive
    # when the split, gram or conv_gram starts (keeping k(X, X) through
    # conv_gram raised the scaling benchmark's peak RSS by 8 MB).  At
    # n = 1000 a 512 KB pair of row blocks is 0.065 of a matrix
    n = 1000
    live = {}

    def entered(name, fn):
        def wrapper(*args, **kwargs):
            live.setdefault(name, []).append(tracemalloc.get_traced_memory()[0])
            return fn(*args, **kwargs)
        return wrapper

    for name in ("gram", "conv_gram", "centrosymmetric_eigvalsh"):
        monkeypatch.setattr(experiments, name, entered(name, getattr(experiments, name)))
    cfg = ExperimentConfig(command="eigen-scaling", kernel=Family.MATERN_LINEAR, n_min=n,
                           n_max=n, n_count=1)
    tracemalloc.start()
    try:
        _scaling_samples(cfg, KernelSpec(cfg.kernel, dim=1))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    matrix = n * n * 8
    assert len(live["gram"]) == len(live["conv_gram"]) == 1
    assert max(live["gram"] + live["conv_gram"]) < 0.5 * matrix
    assert len(live["centrosymmetric_eigvalsh"]) == 2
    assert max(live["centrosymmetric_eigvalsh"]) < 0.5 * matrix
    # no stage holds an n x n matrix: the split keeps the triangles of its
    # two blocks, a quarter of a matrix, and folds the rows of each mirrored
    # pair into them as the builders stream them, with three pairs of row
    # blocks of scratch in conv_gram and two row blocks in the split (0.54 of a
    # matrix in all three families; 1.15 while the split folded a whole
    # matrix in place; eigvalsh's copy of a block is allocated by LAPACK's
    # wrapper, which tracemalloc does not see)
    assert peak <= 0.55 * matrix
