"""Command-line front end.

Each subcommand takes one flag per ``ExperimentConfig`` field that its row
of ``experiments.COMMANDS`` lists, named after the field (``n_min`` is
``--n-min``) and with its default, so the CLI and the library run the same
experiment for the same options; ``--kernel`` offers every ``Family``.  A
flag must be spelled in full: a prefix of one is rejected.  Artifacts
default to ``<command>.csv`` and ``<command>.svg`` in the working directory,
each sidecar table beside the CSV, and the path of every file written is
printed.

Exit codes: 0 all checks satisfied, 1 at least one reliable check failed,
2 usage error (also a checking command that ran no checks, a size whose
matrix exceeds physical memory or a run that does, and an output path that
cannot be written), 3 numerical failure (SPD, or quadrature that misses
its accuracy target or needs more nodes than its budget).
"""

from __future__ import annotations

import argparse
import sys
import time
from dataclasses import fields

from ._version import __version__
from .errors import QuadratureError, SingularMatrixError
from .experiments import COMMANDS, LAYOUTS, ExperimentConfig, run
from .kernels import Family


def _bool_flag(value: str) -> bool:
    if value.lower() in ("true", "1", "yes"):
        return True
    if value.lower() in ("false", "0", "no"):
        return False
    raise argparse.ArgumentTypeError(f"expected true or false, got {value!r}")


# what a field's default cannot tell its flag: the other flags take the type
# of their default
_FLAG_OPTIONS = {
    "kernel": {"choices": [family.value for family in Family]},
    "dim": {"type": int},
    "n": {"type": int},
    "layout": {"choices": LAYOUTS},
    "endpoints": {"type": _bool_flag},
    "c_min": {"type": float, "help": "override the fitted plain-matrix bound constant"},
    "c_conv": {"type": float, "help": "override the fitted convolved-matrix bound constant"},
    "out_csv": {"type": str},
    "out_svg": {"type": str},
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="kernstab",
        description="Kernel matrix stability experiments and verifier suites.",
        allow_abbrev=False,
    )
    parser.add_argument("--version", action="version", version=f"kernstab {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for command, row in COMMANDS.items():
        p = sub.add_parser(command, help=f"run the {command} experiment", allow_abbrev=False)
        for f in fields(ExperimentConfig):
            if f.name not in row.options:
                continue
            options = _FLAG_OPTIONS.get(f.name, {"type": type(f.default)})
            p.add_argument("--" + f.name.replace("_", "-"), default=f.default, **options)
    return parser


def main(argv=None) -> int:
    start = time.perf_counter()
    args = build_parser().parse_args(argv)
    try:
        cfg = ExperimentConfig(**vars(args))
        report = run(cfg)
    except (SingularMatrixError, QuadratureError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    except (ValueError, MemoryError) as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2

    out_csv = cfg.out_csv if cfg.out_csv is not None else f"{cfg.command}.csv"
    try:
        for path in report.write_csv(out_csv):
            print(f"wrote {path}")
        if report.svg is not None:
            out_svg = cfg.out_svg if cfg.out_svg is not None else f"{cfg.command}.svg"
            report.write_svg(out_svg)
            print(f"wrote {out_svg}")
    except OSError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2

    if report.checks:
        for check in report.checks:
            if check.satisfied:
                status = "ok"
            else:
                status = "FAIL" if check.reliable else "unreliable"
            print(f"  {check.name}: lhs={check.lhs:.6e} rhs={check.rhs:.6e} {status}")
        failed = report.failed_reliable_checks
        print(f"checks: {len(report.checks)} total, {len(failed)} failed (reliable)")
    # the whole command, CSV and SVG writes included
    print(f"wall clock: {time.perf_counter() - start:.3f} s")
    return 1 if report.failed_reliable_checks else 0


if __name__ == "__main__":
    sys.exit(main())
