"""Experiment drivers behind the CLI: eigenvalue scaling, the whitened
spectrum (``equivalence``, and ``heatmap``, which also draws the whitened
matrix), and the randomized verifier suites.

Each driver consumes an ExperimentConfig and returns an ExperimentReport
whose checks, at least one, are its verdict, and whose CSV serialization is
a pure function of config and seed: identical invocations produce
byte-identical files.  The CLI reports the wall-clock time of a whole
command on stdout; no timing is written into an artifact.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field, fields
from typing import Optional

import numpy as np

from . import analysis
from ._version import __version__
from .assembly import conv_gram, gram, shifted_gram
from .geometry import PointSet, equispaced, halton
from .kernels import PROFILES, Family, KernelSpec, smoothness
from .rng import SplitMix64
from .spectral import below_precision_floor, centrosymmetric_eigvalsh, sym_eigen, whiten
from .svgplot import Series, heatmap_svg, loglog_plot_svg

try:  # the interpreter's own SHA-256, which hashlib falls back to without OpenSSL
    from _sha2 import sha256  # CPython >= 3.12
except ImportError:
    try:
        from _sha256 import sha256  # CPython 3.10-3.11
    except ImportError:
        from hashlib import sha256

LAYOUTS = ("halton", "equispaced")

_CHECK_COLUMNS = ["trial", "name", "lhs", "rhs", "slack", "satisfied", "reliable"]

_PHYSICAL_MEMORY = os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")

#: the random point sets keep their separation distance (half the smallest gap) above this
_MIN_SEPARATION = 1e-3


@dataclass(frozen=True)
class Command:
    """One row of ``COMMANDS``: the config fields a command takes (those its
    runner reads, the output paths the CLI reads, and ``seed``, taken by
    every command so that one seed can be passed to any), and its defaults
    of ``dim`` and ``n``.  Every command runs every kernel family, but
    ``PROFILES`` ships no bound constant for matern-quadratic: ``sin2`` and
    ``thm41`` run it only with ``c_min`` or ``c_conv`` given, and without
    them ``eigen-scaling`` draws no bound curve for it."""

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
    "identity": Command((*_RANDOMIZED, "shift_factor"), n=6),
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
        if self.dim < 1:
            raise ValueError(f"dim must be a positive integer, got {self.dim}")
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
        if not 0 < self.eps < 1:
            raise ValueError(f"eps must lie in (0, 1), got {self.eps}")
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
        """First 12 hex digits of SHA-256 of ``canonical_string``.

        The digest is taken with the interpreter's built-in SHA-256, not
        ``hashlib``: importing ``hashlib`` loads OpenSSL's libcrypto, about
        3.5 MiB of resident memory in every command, for one ~250-byte string.
        """
        return sha256(self.canonical_string().encode()).hexdigest()[:12]


@dataclass
class ExperimentReport:
    """Rows, checks and plot of one run, and the writers of its artifacts.

    ``checks`` is the run's verdict, never empty once ``run`` returns it.
    ``rows`` (and the rows of each sidecar) is a list of rows, each a list
    of values that ``_write_rows`` formats.  ``svg`` is the plot's text, as
    ``loglog_plot_svg`` or ``heatmap_svg`` returns it, or None for a
    command without a plot.  A report written twice writes identical files.
    """

    command: str
    config_hash: str
    columns: list
    rows: list
    checks: list = field(default_factory=list)
    svg: Optional[str] = None
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
            fh.write(self.svg)


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

    A row is a sequence of at least one value: a ``float`` or
    ``np.float64`` is written as ``'%.17g' %`` writes it; a ``bool`` as
    ``true``/``false``; an ``int`` or ``str`` by its ``%``-code; any other
    type raises ``TypeError``.
    """
    head = f"{config_hash},{__version__},"
    with open(path, "w", newline="\n") as fh:
        fh.write(",".join(["config", "version", *columns]) + "\n")
        fh.writelines(f"{head}{','.join(map(_format_value, row))}\n" for row in rows)


def _check_rows(per_trial) -> list:
    """One ``_CHECK_COLUMNS`` row per check, its trial the index of its list in ``per_trial``."""
    return [
        [trial, c.name, c.lhs, c.rhs, c.slack, c.satisfied, c.reliable]
        for trial, checks in enumerate(per_trial)
        for c in checks
    ]


def _check_report(cfg: ExperimentConfig, per_trial, sidecars=()) -> ExperimentReport:
    """The report of a checking command: its table is ``_check_rows``, a
    check's trial the index of its point set or direction in ``per_trial``."""
    return ExperimentReport(
        command=cfg.command,
        config_hash=cfg.config_hash(),
        columns=_CHECK_COLUMNS,
        rows=_check_rows(per_trial),
        checks=[c for checks in per_trial for c in checks],
        sidecars=list(sidecars),
    )


def sample_grid(n_min: int, n_max: int, count: int) -> list[int]:
    """Geometrically spaced integer sample sizes, truncated and deduplicated."""
    if n_min < 2 or n_max < n_min or count < 1:
        raise ValueError("need 2 <= n_min <= n_max and count >= 1")
    if n_min == n_max or count == 1:
        return [n_min]
    # from the count whose top step is 1/2 on, every integer is hit: the same list
    count = min(count, math.ceil(math.log(n_max / n_min) / math.log1p(0.5 / n_max)) + 1)
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


def _diagonal_shift(cfg: ExperimentConfig, X: PointSet) -> np.ndarray:
    return cfg.shift_factor * X.separation * np.ones(cfg.dim) / math.sqrt(cfg.dim)


def _random_interval_set(rng: SplitMix64, n: int) -> PointSet:
    # exact draw of n uniform points in [0, 1] given every gap > delta: the n + 1
    # spacings scaled by 1 - (n - 1) delta, plus delta on each interior gap (Devroye 1986)
    delta = 2.0 * _MIN_SEPARATION
    if (n - 1) * delta >= 1.0:
        raise ValueError(
            f"{n} random points in [0, 1] cannot keep separation above {_MIN_SEPARATION:g}"
        )
    spacings = np.diff(np.sort(rng.uniforms(n)), prepend=0.0, append=1.0)
    gaps = (1.0 - (n - 1) * delta) * spacings
    gaps[1:-1] += delta
    return PointSet(np.cumsum(gaps)[:n, None], np.array([[0.0, 1.0]]))


def _scaling_samples(cfg: ExperimentConfig, spec: KernelSpec) -> tuple:
    """The rows ``(n, q, lambda_min(k), lambda_min(k*), flag(k), flag(k*))``
    at each size of the grid, the flags true below the precision floor, and
    the ``(q, lambda_min)`` pairs of k and of k* that are not flagged."""
    samples = []
    # largest first, so each matrix's blocks and scratch fit in memory
    # that larger ones freed: the default grid peaks at the same RSS in
    # either order (about 37.5 MB), with about 3,000 fewer page faults
    # in this one
    for n in reversed(sample_grid(cfg.n_min, cfg.n_max, cfg.n_count)):
        X = _make_points(cfg, n)
        q = X.separation
        # the split folds each matrix's rows as they are built
        w_sym = gram(spec, X, into=centrosymmetric_eigvalsh)
        w_conv = conv_gram(spec, X, into=centrosymmetric_eigvalsh)
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
    samples.reverse()
    sym = [(q, v) for _, q, v, _, flag, _ in samples if not flag]
    conv = [(q, v) for _, q, _, v, _, flag in samples if not flag]
    return samples, sym, conv


def run_eigen_scaling(cfg: ExperimentConfig) -> ExperimentReport:
    """Smallest eigenvalues of the plain and convolved Gram matrices over a
    geometric grid of sample sizes, plotted with the lower-bound curves.

    Each curve is drawn from a stated constant, ``c_min`` / ``c_conv`` or
    else the family's ``PROFILES`` row, never from the samples it is drawn
    over; a series with neither (both, for matern-quadratic) gets ``nan``
    bounds and no curve.

    The checks ``fit-lambda_min_sym`` and ``fit-lambda_min_conv`` fit a
    power law to each series' samples above the precision floor and hold its
    exponent to the decay target, ``2 tau - 1`` within 0.15 and ``4 tau - 1``
    within 0.30; the ``fit`` sidecar has one row per law, and the ``checks``
    sidecar their ``_check_rows``, a check's trial its law's row.  A series
    with fewer than ``analysis.MIN_FIT_SAMPLES`` such samples (k* of
    matern-quadratic on the default grid has none) gets a NaN law and an
    unreliable check, which cannot fail the run.
    """
    spec = KernelSpec(cfg.kernel, dim=1)
    tau = smoothness(spec)
    samples, sym, conv = _scaling_samples(cfg, spec)

    # a given constant is positive, so `or` falls back only when none is given
    c_min = cfg.c_min or PROFILES[cfg.kernel].c_min
    c_conv = cfg.c_conv or PROFILES[cfg.kernel].c_conv

    rows = []
    for n, q, lam_sym, lam_conv, flag_sym, flag_conv in samples:
        bound_sym = analysis.symmetric_lower_bound(tau, 1, q, c_min) if c_min else math.nan
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

    laws, checks = [], []
    for name, series, target, tol in (
        ("lambda_min_sym", sym, 2 * tau - 1, 0.15),
        ("lambda_min_conv", conv, 4 * tau - 1, 0.30),
    ):
        law = analysis.fit_power_law(series)
        reliable = len(law.support) >= analysis.MIN_FIT_SAMPLES
        checks.append(
            analysis._check(f"fit-{name}", abs(law.exponent - target), tol, reliable=reliable)
        )
        laws.append([name, law.exponent, law.log_constant, law.r_squared, len(law.support), target])
    law_columns = ["series", "exponent", "log_constant", "r_squared", "samples", "target"]
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
        sidecars=[
            ("fit", law_columns, laws),
            ("checks", _CHECK_COLUMNS, _check_rows([[check] for check in checks])),
        ],
    )


def _equivalence_report(cfg: ExperimentConfig, X: PointSet) -> ExperimentReport:
    """``verify_equivalence``'s checks on ``X`` under the diagonal shift of
    ``shift_factor`` separations, the spectrum as the ``spectrum`` sidecar.
    A zero shift is refused before any matrix is built: there every w is 1."""
    if cfg.shift_factor == 0:
        raise ValueError("shift_factor must be nonzero: at b = 0 every whitened eigenvalue is 1")
    spec = KernelSpec(cfg.kernel, dim=cfg.dim)
    result = analysis.verify_equivalence(spec, X, _diagonal_shift(cfg, X))
    spectrum = [[i, v] for i, v in enumerate(result.spectrum)]
    return _check_report(cfg, [result.checks], [("spectrum", ["index", "eigenvalue"], spectrum)])


def run_heatmap(cfg: ExperimentConfig) -> ExperimentReport:
    """``run_equivalence`` on Halton points, plus a plot: the entrywise
    magnitudes of ``whiten``'s matrix, drawn as one embedded PNG once the
    spectrum's matrices are freed."""
    X = halton(cfg.n, cfg.dim)
    report = _equivalence_report(cfg, X)
    spec = KernelSpec(cfg.kernel, dim=cfg.dim)
    M = whiten(gram(spec, X), shifted_gram(spec, X, _diagonal_shift(cfg, X)))
    report.svg = heatmap_svg(M)
    return report


def run_equivalence(cfg: ExperimentConfig) -> ExperimentReport:
    return _equivalence_report(cfg, _make_points(cfg, cfg.n, cfg.dim))


def run_identity(cfg: ExperimentConfig) -> ExperimentReport:
    """Randomized matrix-side versus Fourier-side identity checks."""
    spec = KernelSpec(cfg.kernel, dim=1)
    rng = SplitMix64(cfg.seed)
    per_trial = []
    for _ in range(cfg.trials):
        X = _random_interval_set(rng, cfg.n)
        alpha = rng.symmetric(cfg.n)
        b = cfg.shift_factor * X.separation
        check = analysis.verify_shift_identity(spec, X, alpha, b)
        per_trial.append([check])
    return _check_report(cfg, per_trial)


def run_sin2(cfg: ExperimentConfig) -> ExperimentReport:
    """Damped-form stability sweep over shift fractions and point sets."""
    spec = KernelSpec(cfg.kernel, dim=1)
    rng = SplitMix64(cfg.seed)
    sets = [equispaced(cfg.n, 0.0, 1.0, include_endpoints=cfg.endpoints)]
    sets += [_random_interval_set(rng, cfg.n) for _ in range(cfg.trials)]
    per_trial = []
    for X in sets:
        alpha = rng.symmetric(len(X))
        shifts = [math.sqrt(cfg.eps) * X.separation * kappa for kappa in (0.1, 0.5, 1.0)]
        checks = analysis.verify_damping_bound(spec, X, alpha, shifts, cfg.eps, c_min=cfg.c_min)
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
    extremes = sym_eigen(gram(spec, X))[1][:, [0, -1]].T  # copied columns; Q is freed
    directions = [*extremes, *(rng.symmetric(len(X)) for _ in range(cfg.trials))]
    per_trial = analysis.verify_conv_chain(spec, X, directions, b, c_conv=cfg.c_conv)
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
    """The report of ``cfg``'s command; a run with no checks has no verdict."""
    report = _RUNNERS[cfg.command](cfg)
    if not report.checks:
        raise ValueError(f"{cfg.command} ran no checks, so it has no verdict")
    return report
