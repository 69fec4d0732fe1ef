"""Experiment drivers behind the CLI: eigenvalue scaling, whitened-matrix
heatmaps, and the randomized verifier suites.

Each driver consumes an ExperimentConfig and returns an ExperimentReport whose
CSV serialization is a pure function of config and seed: identical invocations
produce byte-identical files.  The CLI reports the wall-clock time of a
whole command on stdout; no timing is written into an artifact.
"""

from __future__ import annotations

import hashlib
import math
import os
from dataclasses import dataclass, field, fields
from typing import Iterable, Optional

import numpy as np

from . import analysis
from ._version import __version__
from .assembly import conv_gram, gram, shifted_gram
from .geometry import PointSet, equispaced, halton
from .kernels import Family, KernelSpec, smoothness, spectral_density_1d
from .quadrature import FOURIER_CUTOFF
from .rng import SplitMix64
from .spectral import below_precision_floor, centrosymmetric_eigvalsh, sym_eigen, whiten
from .svgplot import Series, heatmap_svg, loglog_plot_svg

LAYOUTS = ("halton", "equispaced")

_CHECK_COLUMNS = ["trial", "name", "lhs", "rhs", "slack", "satisfied", "reliable"]

_PHYSICAL_MEMORY = os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")


@dataclass(frozen=True)
class Command:
    """One row of ``COMMANDS``: the config fields a command takes (those its
    runner reads, the output paths the CLI reads, and ``seed``, taken by
    every command so that one seed can be passed to any), and its defaults
    of ``dim`` and ``n``.  Every command runs every kernel family."""

    options: tuple
    dim: int = 1
    n: int = 50


_SCALING = (
    "kernel", "n_min", "n_max", "n_count", "layout", "endpoints", "seed", "out_csv",
)
_SHIFTED = ("kernel", "dim", "n", "shift_factor", "seed", "out_csv")
_RANDOMIZED = ("kernel", "n", "trials", "seed", "out_csv")

#: command -> what it takes: the one table the CLI's flags and
#: ``ExperimentConfig``'s checks come from
COMMANDS = {
    "eigen-scaling": Command((*_SCALING, "c_min", "c_conv", "out_svg")),
    "heatmap": Command((*_SHIFTED, "out_svg"), dim=2),
    "equivalence": Command((*_SHIFTED, "layout", "endpoints")),
    "identity": Command((*_RANDOMIZED, "shift_factor", "fourier_cutoff"), n=6),
    "sin2": Command((*_RANDOMIZED, "endpoints", "eps", "c_min"), n=20),
    "thm41": Command((*_RANDOMIZED, "layout", "endpoints", "shift_factor", "c_conv"), n=20),
}


@dataclass(frozen=True)
class ExperimentConfig:
    """Every option of an experiment, in one record per run.

    A command takes the fields its row of ``COMMANDS`` lists, each as a flag
    of the same name (``n_min`` is ``--n-min``) with the same default; any
    other field must keep its default.  ``dim`` and ``n`` default per
    command, from its row, and ``layout`` to ``halton`` for ``dim > 1``,
    ``equispaced`` otherwise.  A size (the larger of ``n`` and ``n_max``)
    whose ``n x n`` float64 matrix would not fit in physical memory, and a
    numeric option out of its range, are rejected before any work.
    The field order is part of ``canonical_string``, hence of every config
    hash.
    """

    command: str
    kernel: Family = Family.MATERN_BASIC
    dim: Optional[int] = None
    n: Optional[int] = None
    n_min: int = 10
    n_max: int = 1000
    n_count: int = 30
    layout: Optional[str] = None
    endpoints: bool = True
    shift_factor: float = 0.1
    eps: float = 0.25
    trials: int = 10
    fourier_cutoff: float = FOURIER_CUTOFF
    seed: int = 0
    c_min: Optional[float] = None
    c_conv: Optional[float] = None
    out_csv: Optional[str] = None
    out_svg: Optional[str] = None

    def __post_init__(self):
        row = COMMANDS.get(self.command)
        if row is None:
            raise ValueError(f"unknown command {self.command!r}")
        if not isinstance(self.kernel, Family):
            object.__setattr__(self, "kernel", Family(self.kernel))
        dim = row.dim if self.dim is None else self.dim
        defaults = {"dim": row.dim, "n": row.n, "layout": "halton" if dim > 1 else "equispaced"}
        for f in fields(self)[1:]:  # every field but command
            value, default = getattr(self, f.name), defaults.get(f.name, f.default)
            if value is None:
                object.__setattr__(self, f.name, default)
            elif f.name not in row.options and value != default:
                raise ValueError(f"{self.command} does not take {f.name} (given {value!r})")
        size = max(self.n, self.n_max)
        if 8 * size * size > _PHYSICAL_MEMORY:
            raise ValueError(
                f"one {size} x {size} matrix needs {8 * size * size / 2**30:.3g} GiB, "
                f"more than the {_PHYSICAL_MEMORY / 2**30:.3g} GiB of memory"
            )
        if self.layout not in LAYOUTS:
            raise ValueError(f"layout must be {' or '.join(LAYOUTS)}, got {self.layout!r}")
        if self.trials < 0:
            raise ValueError(f"trials must be nonnegative, got {self.trials}")
        if not math.isfinite(self.shift_factor):
            raise ValueError(f"shift_factor must be finite, got {self.shift_factor}")
        cutoff = self.fourier_cutoff
        if not (math.isfinite(cutoff) and cutoff >= 1):
            raise ValueError(f"fourier_cutoff must be finite and at least 1, got {cutoff}")
        for name in ("c_min", "c_conv"):
            value = getattr(self, name)
            if value is not None and not (math.isfinite(value) and value > 0):
                raise ValueError(f"{name} must be finite and positive, got {value}")

    def canonical_string(self) -> str:
        skip = {"out_csv", "out_svg"}
        parts = []
        for f in fields(self):
            if f.name in skip:
                continue
            value = getattr(self, f.name)
            if isinstance(value, Family):
                value = value.value
            parts.append(f"{f.name}={value}")
        return ";".join(parts)

    def config_hash(self) -> str:
        return hashlib.sha256(self.canonical_string().encode()).hexdigest()[:12]


@dataclass
class ExperimentReport:
    """Rows, checks and plot of one run, and the writers of its artifacts.

    ``rows`` (and the rows of each sidecar) is a list or a re-iterable row
    source with a length, such as ``_GridRows``; ``svg`` is the plot's text
    as a re-iterable source of chunks, the list ``loglog_plot_svg`` returns
    or the row-by-row source of ``heatmap_svg``.  Each write iterates its
    source afresh, so a report written twice writes identical files.
    """

    command: str
    config_hash: str
    columns: list
    rows: Iterable
    checks: list = field(default_factory=list)
    svg: Optional[Iterable[str]] = None
    sidecars: list = field(default_factory=list)  # (path suffix, columns, rows)

    @property
    def failed_reliable_checks(self) -> list:
        return [c for c in self.checks if c.reliable and not c.satisfied]

    def write_csv(self, path) -> list:
        """Write the table and its sidecars; return their paths, the table's first."""
        written = [path]
        _write_rows(path, self.config_hash, self.columns, self.rows)
        for suffix, cols, rows in self.sidecars:
            written.append(_with_suffix(path, suffix))
            _write_rows(written[-1], self.config_hash, cols, rows)
        return written

    def write_svg(self, path) -> None:
        if self.svg is None:
            raise ValueError(f"{self.command} produces no plot")
        with open(path, "w", newline="\n") as fh:
            fh.writelines(self.svg)


def _with_suffix(path, suffix: str) -> str:
    # only the last path component's extension: a/b.c/x gives a/b.c/x.<suffix>
    stem, ext = os.path.splitext(str(path))
    return f"{stem}.{suffix}{ext}"


# %-codes by exact type; a bool (an int subclass) is written true/false instead
_CODE_BY_TYPE = {
    float: "%.17g",
    np.float64: "%.17g",
    int: "%d",
    str: "%s",
}


def _format_value(value) -> str:
    if type(value) is bool:
        return "true" if value else "false"
    try:
        return _CODE_BY_TYPE[type(value)] % value
    except KeyError:
        raise TypeError(f"cannot write a {type(value)} value to CSV") from None


def _write_rows(path, config_hash, columns, rows) -> None:
    """One CSV line per row, prefixed by the config hash and the version.

    ``rows`` is iterated once, one row at a time, so a row source that builds
    its rows on demand is never held whole.  A row is either a sequence of
    values or one ``str``: the row's values already formatted by these rules
    and joined by commas, as ``_GridRows`` yields them, which is written as
    it is after the prefix.  A row holds at least one value, each formatted
    by ``_format_value``: a ``bool`` as ``true``/``false``, a ``float``,
    ``np.float64``, ``int`` or ``str`` by its ``%``-code, and any other type
    raises ``TypeError``.
    """
    head = f"{config_hash},{__version__},"
    with open(path, "w", newline="\n") as fh:
        fh.write(",".join(["config", "version", *columns]) + "\n")
        for row in rows:
            if type(row) is not str:
                row = ",".join(map(_format_value, row))
            fh.write(f"{head}{row}\n")


def _check_report(cfg: ExperimentConfig, per_trial, sidecars=()) -> ExperimentReport:
    """The report of a checking command: one verifier row per check, numbered
    by its trial, the index of the point set or direction in ``per_trial``."""
    rows = [
        [trial, c.name, c.lhs, c.rhs, c.slack, c.satisfied, c.reliable]
        for trial, checks in enumerate(per_trial)
        for c in checks
    ]
    return ExperimentReport(
        command=cfg.command,
        config_hash=cfg.config_hash(),
        columns=_CHECK_COLUMNS,
        rows=rows,
        checks=[c for checks in per_trial for c in checks],
        sidecars=list(sidecars),
    )


def sample_grid(n_min: int, n_max: int, count: int) -> list[int]:
    """Geometrically spaced integer sample sizes, truncated and deduplicated."""
    if n_min < 2 or n_max < n_min or count < 1:
        raise ValueError("need 2 <= n_min <= n_max and count >= 1")
    if n_min == n_max or count == 1:
        return [n_min]
    expo = np.linspace(math.log10(n_min), math.log10(n_max), count)
    vals = 10.0 ** expo
    vals[0], vals[-1] = n_min, n_max
    return sorted({int(v + 1e-9) for v in vals})


def _make_points(cfg: ExperimentConfig, n: int, dim: int = 1) -> PointSet:
    if cfg.layout == "halton":
        return halton(n, dim)
    if dim != 1:
        raise ValueError("equispaced layout is one-dimensional")
    return equispaced(n, 0.0, 1.0, include_endpoints=cfg.endpoints)


def _diagonal_shift(dim: int, magnitude: float) -> np.ndarray:
    return magnitude * np.ones(dim) / math.sqrt(dim)


def _random_interval_set(rng: SplitMix64, n: int, min_separation: float = 1e-3) -> PointSet:
    # exact draw of n uniform points in [0, 1] given every gap > delta: the n + 1
    # spacings scaled by 1 - (n - 1) delta, plus delta on each interior gap (Devroye 1986)
    delta = 2.0 * min_separation
    if (n - 1) * delta >= 1.0:
        raise ValueError(
            f"{n} random points in [0, 1] cannot keep separation above {min_separation:g}"
        )
    spacings = np.diff(np.sort(rng.uniforms(n)), prepend=0.0, append=1.0)
    gaps = (1.0 - (n - 1) * delta) * spacings
    gaps[1:-1] += delta
    return PointSet(np.cumsum(gaps)[:n, None], np.array([[0.0, 1.0]]))


def _intercept_fit(samples, exponent: float) -> Optional[float]:
    kept = [(q, v) for q, v in samples if v > 0]
    if not kept:
        return None
    logs = [math.log(v) - exponent * math.log(q) for q, v in kept]
    return math.exp(sum(logs) / len(logs))


def _scaling_samples(cfg: ExperimentConfig, spec: KernelSpec) -> tuple:
    """The rows ``(n, q, lambda_min(k), lambda_min(k*), flag(k), flag(k*))``
    at each size of the grid, the flags true below the precision floor, and
    the ``(q, lambda_min)`` pairs of k and of k* that are not flagged."""
    samples = []
    for n in sample_grid(cfg.n_min, cfg.n_max, cfg.n_count):
        X = _make_points(cfg, n)
        q = X.separation
        # each matrix is dead before the next is built
        w_sym = centrosymmetric_eigvalsh(gram(spec, X))
        w_conv = centrosymmetric_eigvalsh(conv_gram(spec, X))
        samples.append(
            (
                n,
                q,
                float(w_sym[0]),
                float(w_conv[0]),
                bool(below_precision_floor(w_sym)[0]),
                bool(below_precision_floor(w_conv)[0]),
            )
        )
    sym = [(q, v) for _, q, v, _, flag, _ in samples if not flag]
    conv = [(q, v) for _, q, _, v, _, flag in samples if not flag]
    return samples, sym, conv


def run_eigen_scaling(cfg: ExperimentConfig) -> ExperimentReport:
    """Smallest eigenvalues of the plain and convolved Gram matrices over a
    geometric grid of sample sizes, plotted with the fitted lower-bound curves.

    The checks ``fit-lambda_min_sym`` and ``fit-lambda_min_conv`` fit a
    power law to each series' samples above the precision floor and hold its
    exponent to the decay target, ``2 tau - 1`` within 0.15 and ``4 tau - 1``
    within 0.30; the ``fit`` sidecar has one row per law.  A series with
    fewer than ``analysis.MIN_FIT_SAMPLES`` such samples (k* of
    matern-quadratic on the default grid has none) gets a NaN row and an
    unreliable check, which cannot fail the run.
    """
    spec = KernelSpec(cfg.kernel, dim=1)
    tau = smoothness(spec)
    samples, sym, conv = _scaling_samples(cfg, spec)

    # a given constant is positive, so `or` falls back only when none is given
    c_sym = cfg.c_min or analysis.SYMMETRIC_BOUND_CONSTANTS.get((cfg.kernel, 1))
    c_conv = cfg.c_conv or analysis.CONV_BOUND_CONSTANTS.get((cfg.kernel, 1))
    if c_sym is None:
        c_sym = _intercept_fit(sym, 2 * tau - 1)
    if c_conv is None:
        c_conv = _intercept_fit(conv, 4 * tau - 1)

    rows = []
    for n, q, lam_sym, lam_conv, flag_sym, flag_conv in samples:
        bound_sym = analysis.symmetric_lower_bound(tau, 1, q, c_sym) if c_sym else math.nan
        bound_conv = analysis.conv_lower_bound(tau, 1, q, c_conv) if c_conv else math.nan
        rows.append(
            [n, q, lam_sym, lam_conv, bound_sym, bound_conv, not flag_sym, not flag_conv]
        )

    svg = loglog_plot_svg(
        [
            Series("lambda_min(k)", [(r[0], r[2]) for r in rows], color="#1f77b4"),
            Series("lambda_min(k*)", [(r[0], r[3]) for r in rows], color="#ff7f0e"),
            Series("bound(k)", [(r[0], r[4]) for r in rows], color="#000000", dashed=True),
            Series("bound(k*)", [(r[0], r[5]) for r in rows], color="#000000", dashed=True),
        ],
        xlabel="#points",
        ylabel="lambda_min",
    )

    fit_rows, checks = [], []
    for name, series, target, tol in (
        ("lambda_min_sym", sym, 2 * tau - 1, 0.15),
        ("lambda_min_conv", conv, 4 * tau - 1, 0.30),
    ):
        law = analysis.fit_power_law(series)
        reliable = len(law.support) >= analysis.MIN_FIT_SAMPLES
        checks.append(
            analysis._check(f"fit-{name}", abs(law.exponent - target), tol, reliable=reliable)
        )
        fit_rows.append([
            name, law.exponent, law.log_constant, law.r_squared,
            len(law.support), target, tol, checks[-1].satisfied,
        ])
    fit_columns = [
        "series", "exponent", "log_constant", "r_squared",
        "samples", "target", "tolerance", "satisfied",
    ]
    return ExperimentReport(
        command=cfg.command,
        config_hash=cfg.config_hash(),
        columns=[
            "n", "q", "lambda_min_sym", "lambda_min_conv",
            "bound_sym", "bound_conv", "reliable_sym", "reliable_conv",
        ],
        rows=rows,
        checks=checks,
        svg=svg,
        sidecars=[("fit", fit_columns, fit_rows)],
    )


class _GridRows:
    """The CSV rows of a bitwise symmetric matrix, row ``i`` as the text
    ``i,grid[i, 0],grid[i, 1],...`` that ``_write_rows`` writes as it is,
    built one at a time on each pass, so the grid is never copied into a list.

    Each of the n (n + 1) / 2 distinct values is formatted once, by the
    writer's own float code: row ``i`` formats ``grid[i, i:]`` with one
    ``%``-format and takes its first ``i`` cells from the strings that rows
    ``0 .. i-1`` formatted for column ``i``.  Those are dropped once row
    ``i`` is written, so at most about n^2 / 4 strings are held.  A grid
    whose entries (i, j) and (j, i) differ in any bit (``-0.0`` against
    ``0.0`` included) is rejected with ``ValueError`` here, before a line
    is written.
    """

    def __init__(self, grid: np.ndarray):
        bits = grid.view(np.uint64)
        if bits.ndim != 2 or not np.array_equal(bits, bits.T):
            raise ValueError("heatmap grid is not bitwise symmetric")
        self.grid = grid

    def __len__(self) -> int:
        return len(self.grid)

    def __iter__(self):
        n = len(self.grid)
        code = _CODE_BY_TYPE[float] + ","
        formats = code * n  # its first k * len(code) - 1 characters format k values
        cells = np.empty((n, n), dtype=object)  # cells[j, i]: the text of grid[j, i], j <= i
        for i, values in enumerate(self.grid):
            upper = formats[: len(code) * (n - i) - 1] % tuple(values[i:].tolist())
            cells[i, i:] = upper.split(",")
            yield f"{i},{','.join(cells[:i, i])},{upper}" if i else f"0,{upper}"
            cells[: i + 1, i] = None


def run_heatmap(cfg: ExperimentConfig) -> ExperimentReport:
    """Entrywise magnitudes and spectrum of the whitened shifted matrix.

    The report keeps the magnitude grid alone; its CSV rows and SVG lines
    are produced one grid row at a time while they are written.  ``whiten``
    returns ``0.5 * (M + M^T)``, whose (i, j) and (j, i) entries are the
    same double, so the CSV rows format each distinct value once
    (``_GridRows``).
    """
    if cfg.dim not in (2, 3):
        raise ValueError("heatmap runs use dim 2 or 3")
    spec = KernelSpec(cfg.kernel, dim=cfg.dim)
    X = halton(cfg.n, cfg.dim)
    b = _diagonal_shift(cfg.dim, cfg.shift_factor * X.separation)
    M = whiten(gram(spec, X), shifted_gram(spec, X, b))
    spectrum = np.linalg.eigvalsh(M)
    grid = np.abs(M, out=M)
    return ExperimentReport(
        command=cfg.command,
        config_hash=cfg.config_hash(),
        columns=["row", *[f"c{j}" for j in range(len(X))]],
        rows=_GridRows(grid),
        svg=heatmap_svg(grid),
        sidecars=[
            ("spectrum", ["index", "eigenvalue"], [[i, v] for i, v in enumerate(spectrum)])
        ],
    )


def run_equivalence(cfg: ExperimentConfig) -> ExperimentReport:
    spec = KernelSpec(cfg.kernel, dim=cfg.dim)
    X = _make_points(cfg, cfg.n, cfg.dim)
    b = _diagonal_shift(cfg.dim, cfg.shift_factor * X.separation)
    result = analysis.verify_equivalence(spec, X, b)
    spectrum = [[i, v] for i, v in enumerate(result.spectrum)]
    return _check_report(cfg, [result.checks], [("spectrum", ["index", "eigenvalue"], spectrum)])


def run_identity(cfg: ExperimentConfig) -> ExperimentReport:
    """Randomized matrix-side versus Fourier-side identity checks."""
    density = spectral_density_1d(KernelSpec(cfg.kernel, dim=1))
    rng = SplitMix64(cfg.seed)
    per_trial = []
    for _ in range(cfg.trials):
        X = _random_interval_set(rng, cfg.n)
        alpha = rng.symmetric(cfg.n)
        b = cfg.shift_factor * X.separation
        check = analysis.verify_shift_identity(density, X, alpha, b, cfg.fourier_cutoff)
        per_trial.append([check])
    return _check_report(cfg, per_trial)


def run_sin2(cfg: ExperimentConfig) -> ExperimentReport:
    """Damped-form stability sweep over shift fractions and point sets."""
    density = spectral_density_1d(KernelSpec(cfg.kernel, dim=1))
    rng = SplitMix64(cfg.seed)
    sets = [equispaced(cfg.n, 0.0, 1.0, include_endpoints=cfg.endpoints)]
    sets += [_random_interval_set(rng, cfg.n) for _ in range(cfg.trials)]
    per_trial = []
    for X in sets:
        alpha = rng.symmetric(len(X))
        checks = []
        for kappa in (0.1, 0.5, 1.0):
            b = math.sqrt(cfg.eps) * X.separation * kappa
            checks += analysis.verify_damping_bound(density, X, alpha, b, cfg.eps, c_min=cfg.c_min)
        per_trial.append(checks)
    return _check_report(cfg, per_trial)


def run_conv_chain(cfg: ExperimentConfig) -> ExperimentReport:
    """Convolved-kernel chain checks for extreme eigenvectors and random
    directions; below-floor quadratic forms are reported but flagged."""
    spec = KernelSpec(cfg.kernel, dim=1)
    rng = SplitMix64(cfg.seed)
    X = _make_points(cfg, cfg.n)
    q = X.separation
    b = cfg.shift_factor * q
    _, Q = sym_eigen(gram(spec, X))
    directions = [Q[:, 0], Q[:, -1]]
    directions += [rng.symmetric(len(X)) for _ in range(cfg.trials)]
    per_trial = analysis.verify_conv_chain(spec, X, directions, b, c=cfg.c_conv)
    return _check_report(cfg, per_trial)


_RUNNERS = {
    "eigen-scaling": run_eigen_scaling,
    "heatmap": run_heatmap,
    "equivalence": run_equivalence,
    "identity": run_identity,
    "sin2": run_sin2,
    "thm41": run_conv_chain,
}


def run(cfg: ExperimentConfig) -> ExperimentReport:
    report = _RUNNERS[cfg.command](cfg)
    # a command's verdict is its plot or its checks
    if report.svg is None and not report.checks:
        raise ValueError(f"{cfg.command} ran no checks, so it has no verdict")
    return report
