"""Command-line front end.

Exit codes: 0 all checks satisfied, 1 at least one reliable check failed,
2 usage error (also a checking command that ran no checks), 3 numerical
failure (SPD or quadrature).
"""

from __future__ import annotations

import argparse
import sys
import time

from ._version import __version__
from .errors import QuadratureError, SingularMatrixError
from .experiments import COMMANDS, ExperimentConfig, run
from .kernels import Family

_PLOTTING = {"eigen-scaling", "heatmap"}


def _bool_flag(value: str) -> bool:
    if value.lower() in ("true", "1", "yes"):
        return True
    if value.lower() in ("false", "0", "no"):
        return False
    raise argparse.ArgumentTypeError(f"expected true or false, got {value!r}")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="kernstab",
        description="Kernel matrix stability experiments and verifier suites.",
    )
    parser.add_argument("--version", action="version", version=f"kernstab {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for command in COMMANDS:
        p = sub.add_parser(command, help=f"run the {command} experiment")
        p.add_argument("--kernel", choices=[f.value for f in Family], default="matern-basic")
        p.add_argument("--dim", type=int, default=None)
        p.add_argument("--n", type=int, default=50)
        p.add_argument("--n-min", type=int, default=10)
        p.add_argument("--n-max", type=int, default=1000)
        p.add_argument("--n-count", type=int, default=30)
        p.add_argument("--layout", choices=["halton", "equispaced"], default=None)
        p.add_argument("--endpoints", type=_bool_flag, default=True)
        p.add_argument("--shift-factor", type=float, default=0.1)
        p.add_argument("--eps", type=float, default=0.25)
        p.add_argument("--trials", type=int, default=10)
        p.add_argument("--quad-order", type=int, default=20)
        p.add_argument("--panels-per-unit", type=float, default=4.0)
        p.add_argument("--fourier-cutoff", type=float, default=1000.0)
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--c-min", type=float, default=None,
                       help="override the fitted plain-matrix bound constant")
        p.add_argument("--c-conv", type=float, default=None,
                       help="override the fitted convolved-matrix bound constant")
        p.add_argument("--out-csv", default=None)
        if command in _PLOTTING:
            p.add_argument("--out-svg", default=None)
        if command in ("identity", "sin2", "thm41"):
            p.set_defaults(n={"identity": 6, "sin2": 20, "thm41": 20}[command])
    return parser


def _config_from_args(args: argparse.Namespace) -> ExperimentConfig:
    command = args.command
    dim = args.dim
    if dim is None:
        dim = 2 if command == "heatmap" else 1
    layout = args.layout
    if layout is None:
        layout = "halton" if (command == "heatmap" or dim > 1) else "equispaced"
    return ExperimentConfig(
        command=command,
        kernel=Family(args.kernel),
        dim=dim,
        n=args.n,
        n_min=args.n_min,
        n_max=args.n_max,
        n_count=args.n_count,
        layout=layout,
        endpoints=args.endpoints,
        shift_factor=args.shift_factor,
        eps=args.eps,
        trials=args.trials,
        quad_order=args.quad_order,
        panels_per_unit=args.panels_per_unit,
        fourier_cutoff=args.fourier_cutoff,
        seed=args.seed,
        c_min=args.c_min,
        c_conv=args.c_conv,
        out_csv=args.out_csv if args.out_csv is not None else f"{command}.csv",
        out_svg=getattr(args, "out_svg", None)
        or (f"{command}.svg" if command in _PLOTTING else None),
    )


def main(argv=None) -> int:
    start = time.perf_counter()
    args = build_parser().parse_args(argv)
    try:
        cfg = _config_from_args(args)
        report = run(cfg)
    except (SingularMatrixError, QuadratureError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2

    report.write_csv(cfg.out_csv)
    print(f"wrote {cfg.out_csv}")
    if cfg.out_svg is not None and report.svg is not None:
        report.write_svg(cfg.out_svg)
        print(f"wrote {cfg.out_svg}")

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
