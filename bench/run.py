"""Benchmark of the kernstab command line over three workloads.

Usage (from the repository root):

    python3 bench/run.py --workload scaling|whitened|verifiers \
        --seed N --seconds S --trace 0|1 [--out results.json]

Each workload is a fixed list of ``python -m kernstab ...`` commands, all run
with ``--seed N`` as child processes of this one.  A pass runs every command
of the workload once, in its own fresh directory under ``.bench_tmp/``.
Passes repeat until ``--seconds`` have elapsed, and at least twice, so that
every run also checks that repeats write byte-identical CSVs.

``--trace 0`` reports the end-to-end metrics as medians over the passes.
``--trace 1`` runs one untraced pass and then traced passes, in which each
child is ``bench/trace_child.py`` (the same ``kernstab.__main__`` with every
public kernstab function wrapped from outside the program), and reports the
per-layer metrics.  Human-readable lines come first; the last line of standard
output is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``.  See ``bench/README.md`` for what each metric
means and which layer should move it.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import os
import platform
import re
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from collections import Counter
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"

# workload -> commands; every command also gets "--seed N"
WORKLOADS = {
    "scaling": [
        ("eigen-scaling", ["--kernel", "matern-linear"]),
    ],
    "whitened": [
        ("heatmap", ["--kernel", "matern-linear", "--dim", "2", "--n", "1000"]),
        ("equivalence", ["--kernel", "matern-basic", "--dim", "3", "--n", "2000"]),
    ],
    "verifiers": [
        ("sin2", ["--kernel", "matern-linear", "--eps", "0.25"]),
        ("thm41", ["--kernel", "matern-basic", "--n", "200", "--shift-factor", "0.5"]),
        ("identity", ["--kernel", "matern-basic", "--n", "6", "--trials", "50"]),
    ],
}
PLOTTING = {"eigen-scaling", "heatmap"}
CHECKED = {"equivalence", "sin2", "thm41", "identity"}  # print a checks summary

# a traced pass must record each of these spans, one per layer at least, so a
# wrapper that missed a binding fails the run instead of reading as zero
EXPECTED_SPANS = {
    "scaling": {
        "cli.main", "geometry.equispaced", "kernels.phi", "assembly.conv_gram",
        "assembly.gram", "quadrature.gauss_legendre", "spectral.eigvalsh",
        "analysis.symmetric_lower_bound", "svgplot.loglog_plot_svg",
        "experiments.run_eigen_scaling", "experiments.ExperimentReport.write_csv",
    },
    "whitened": {
        "cli.main", "geometry.halton", "kernels.phi", "assembly.gram",
        "assembly.shifted_gram", "spectral.whiten", "spectral.eigvalsh",
        "analysis.verify_equivalence", "svgplot.heatmap_svg",
        "experiments.run_heatmap", "experiments.ExperimentReport.write_svg",
    },
    "verifiers": {
        "cli.main", "geometry.PointSet.__init__", "kernels.SpectralDensity.__call__",
        "assembly.conv_gram", "assembly.shifted_gram", "quadrature.fourier_quadratic_form",
        "spectral.sym_eigen", "analysis.verify_damping_bound", "rng.SplitMix64.uniforms",
        "experiments.run_sin2",
    },
}

# tests/test_acceptance.py, REFERENCE_SYM and REFERENCE_CONV for matern-linear
# at n = 10, with that file's tolerances (criterion 01: rel <= 1e-8; criterion
# 02: the tolerance stored with the value)
SCALING_GOLDEN_N10 = {
    "lambda_min_sym": (1.27687777536716e-4, 1e-8),
    "lambda_min_conv": (9.39015888450254e-10, 1e-2),
}

# counts that must repeat exactly for the same seed
DETERMINISTIC = (
    "kernels.phi.evals", "quadrature.fourier.nodes", "spectral.eig_n3",
    "rng.draws", "svgplot.bytes", "experiments.csv_bytes",
)

SETUP_REPEATS = 15
COMMAND_TIMEOUT_S = 150.0
MB = 1e6
CHECKS_LINE = re.compile(r"^checks: (\d+) total, (\d+) failed \(reliable\)$", re.M)


class BenchError(Exception):
    """The benchmark cannot run here; no result is printed."""


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def blas_threads() -> int:
    return min(2, nproc())


def child_env(tmp: Path) -> dict:
    env = dict(os.environ)
    # absolute, so children started in a temporary directory still find kernstab
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC), *filter(None, [env.get("PYTHONPATH")])]
    )
    threads = str(blas_threads())
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = threads
    env["TMPDIR"] = str(tmp)
    env.pop("BENCH_TRACE_OUT", None)
    return env


def run_child(argv, cwd: Path, env: dict):
    """Run one child to completion; return (wall s, peak RSS MB, exit code, stdout)."""
    out_path = cwd / ".stdout"
    with open(out_path, "wb") as out:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=cwd, env=env, stdout=out, stderr=subprocess.STDOUT)
        killer = threading.Timer(COMMAND_TIMEOUT_S, proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            os.wait4(proc.pid, 0)
            raise
        finally:
            killer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    stdout = out_path.read_text(errors="replace")
    out_path.unlink()
    return wall, usage.ru_maxrss * 1024 / MB, proc.returncode, stdout


def measure_setup(env: dict, tmp: Path) -> list[float]:
    """Wall times of ``python -m kernstab --version`` after one warm-up."""
    argv = [sys.executable, "-m", "kernstab", "--version"]
    walls = []
    for i in range(SETUP_REPEATS + 1):
        wall, _, code, stdout = run_child(argv, tmp, env)
        if code != 0 or not stdout.startswith("kernstab "):
            raise BenchError(f"`python -m kernstab --version` failed:\n{stdout}")
        if i:
            walls.append(wall)
    return walls


def scaling_golden_failures(csv_path: Path) -> list[str]:
    with open(csv_path, newline="") as fh:
        rows = [r for r in csv.DictReader(fh) if r["n"] == "10"]
    if len(rows) != 1:
        return ["eigen-scaling CSV has no single n = 10 row"]
    failures = []
    for column, (reference, tol) in SCALING_GOLDEN_N10.items():
        rel = abs(float(rows[0][column]) - reference) / abs(reference)
        if not rel <= tol:
            failures.append(f"n = 10 {column} misses its golden value: rel {rel:.2e} > {tol:.0e}")
    return failures


def gate(command: str, code: int, stdout: str, cwd: Path) -> list[str]:
    """Correctness failures of one finished command (empty when it passed)."""
    if code != 0:
        return [f"exit code {code}: {stdout[-2000:]}"]
    failures = []
    summaries = CHECKS_LINE.findall(stdout)
    if command in CHECKED and not summaries:
        failures.append("printed no checks summary")
    for total, failed in summaries:
        if failed != "0" or total == "0":
            failures.append(f"checks summary: {failed} of {total} failed (reliable)")
    if not (cwd / f"{command}.csv").is_file():
        failures.append(f"wrote no {command}.csv")
    if command in PLOTTING and not (cwd / f"{command}.svg").is_file():
        failures.append(f"wrote no {command}.svg")
    if command == "eigen-scaling" and not failures:
        failures += scaling_golden_failures(cwd / "eigen-scaling.csv")
    return failures


def run_command(command, args, seed, cwd: Path, env: dict, trace_out=None) -> dict:
    cwd.mkdir(parents=True)
    cli = [*args, "--seed", str(seed)]
    if trace_out is None:
        argv = [sys.executable, "-m", "kernstab", command, *cli]
    else:
        env = {**env, "BENCH_TRACE_OUT": str(trace_out)}
        argv = [sys.executable, str(BENCH_DIR / "trace_child.py"), command, *cli]
    wall, rss_mb, code, stdout = run_child(argv, cwd, env)
    failures = gate(command, code, stdout, cwd)
    csv_digest = hashlib.sha256()
    csv_bytes = svg_bytes = 0
    for path in sorted(cwd.iterdir()):
        if path.suffix == ".csv":
            csv_bytes += path.stat().st_size
            csv_digest.update(path.name.encode() + b"\0" + path.read_bytes())
        elif path.suffix == ".svg":
            svg_bytes += path.stat().st_size
    result = {
        "command": command, "wall_s": wall, "rss_mb": rss_mb, "failures": failures,
        "csv_sha256": csv_digest.hexdigest(), "csv_bytes": csv_bytes, "svg_bytes": svg_bytes,
    }
    if trace_out is not None and code == 0:
        with open(trace_out) as fh:
            result["trace"] = json.load(fh)
    shutil.rmtree(cwd)
    return result


def run_pass(workload: str, seed: int, tmp: Path, env: dict, label: str, traced: bool) -> list:
    results = []
    for command, args in WORKLOADS[workload]:
        cwd = tmp / label / command
        trace_out = tmp / f"{label}.{command}.spans.json" if traced else None
        results.append(run_command(command, args, seed, cwd, env, trace_out))
        if trace_out is not None and trace_out.exists():
            trace_out.unlink()
    (tmp / label).rmdir()
    return results


def self_times(spans) -> list[float]:
    """Span duration minus the time its direct children cover."""
    own = [end - start for _, start, end, _, _ in spans]
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            own[parent] -= end - start
    return own


def layer_counters(result: dict) -> Counter:
    """Raw per-layer sums for one traced command; see ``layer_metrics``."""
    spans = result["trace"]["spans"]
    c = Counter()
    digests = set()
    for span, own in zip(spans, self_times(spans)):
        name, start, end, parent, info = span
        layer = name.split(".", 1)[0]
        parent_name = spans[parent][0] if parent >= 0 else ""
        if name == "experiments.ExperimentReport.write_csv":
            c["experiments.csv_s"] += end - start
        elif name == "experiments.ExperimentReport.write_svg":
            c["experiments.svg_write_s"] += end - start
        else:
            c[f"{layer}.self_s"] += own

        if name == "assembly.conv_gram":
            info, peak = info
            c["assembly.conv_gram.calls"] += 1
            c["assembly.conv_gram.peak_mb"] = max(c["assembly.conv_gram.peak_mb"], peak / MB)
        if name in ("assembly.gram", "assembly.shifted_gram", "assembly.conv_gram"):
            c[f"{name}.self_s"] += own
            c["assembly.calls"] += 1
            digests.add(info)
        elif name == "kernels.phi":
            c["kernels.phi.evals"] += info
        elif name == "kernels.SpectralDensity.__call__":
            c["quadrature.fourier.nodes"] += info
        elif name == "quadrature.fourier_quadratic_form":
            c["quadrature.fourier.self_s"] += own
            c["quadrature.fourier.calls"] += 1
        elif name == "quadrature.gauss_legendre":
            c["quadrature.gauss_legendre.calls"] += 1
        elif name in ("spectral.eigh", "spectral.eigvalsh"):
            c["spectral.calls"] += 1
            c["spectral.eig_n3"] += info ** 3
        elif name.startswith("analysis.verify_"):
            c["analysis.checks"] += info
        elif layer == "svgplot" and not parent_name.startswith("svgplot."):
            c["svgplot.bytes"] += info
        elif name == "geometry.PointSet.__init__":
            c["geometry.points"] += info
            # a point set a driver builds itself is an accepted random draw;
            # grids and Halton sets come through geometry functions
            if parent_name.startswith("experiments."):
                c["rng.accepted_sets"] += 1
        elif name == "rng.SplitMix64.uniforms":
            c["rng.draws"] += info
            if not parent_name.startswith("rng."):
                c["rng.batches"] += 1
    c["assembly.distinct_sets"] = len(digests)
    c["experiments.csv_bytes"] = result["csv_bytes"]
    c["cli.import_s"] = result["trace"]["import_s"]
    return c


PER_LAYER = (
    "assembly.conv_gram.self_s", "assembly.conv_gram.calls", "assembly.conv_gram.peak_mb",
    "kernels.phi.evals",
    "quadrature.fourier.self_s", "quadrature.fourier.calls", "quadrature.fourier.nodes",
    "quadrature.gauss_legendre.calls",
    "analysis.self_s", "analysis.checks", "assembly.distinct_ratio",
    "svgplot.self_s", "svgplot.bytes", "experiments.csv_s", "experiments.csv_bytes",
    "experiments.svg_write_s", "experiments.self_s",
    "spectral.self_s", "spectral.calls", "spectral.eig_n3",
    "assembly.gram.self_s", "assembly.shifted_gram.self_s", "geometry.self_s", "geometry.points",
    "kernels.self_s", "cli.self_s",
    "rng.draws", "rng.accept_ratio",
    "cli.import_s", "trace.overhead_s",
)


def unit_of(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_mb"):
        return "MB"
    if name.endswith("bytes"):
        return "bytes"
    if name.endswith("ratio"):
        return "ratio"
    if name.endswith("n3"):
        return "flop-count"
    return "count"


def layer_metrics(results: list, untraced_wall: float) -> dict:
    """Per-layer metrics of one traced pass from its commands' counters."""
    total = Counter()
    for counters in (layer_counters(r) for r in results):
        peak = max(total["assembly.conv_gram.peak_mb"], counters["assembly.conv_gram.peak_mb"])
        total.update(counters)
        total["assembly.conv_gram.peak_mb"] = peak
    m = {k: total[k] for k in PER_LAYER}
    m["assembly.distinct_ratio"] = total["assembly.distinct_sets"] / max(total["assembly.calls"], 1)
    m["rng.accept_ratio"] = total["rng.accepted_sets"] / max(total["rng.batches"], 1)
    m["cli.import_s"] = statistics.median(r["trace"]["import_s"] for r in results)
    m["trace.overhead_s"] = sum(r["wall_s"] for r in results) - untraced_wall
    return {k: m[k] for k in PER_LAYER}


def command_layer_table(result: dict) -> str:
    c = layer_counters(result)
    parts = sorted(
        ((v, k) for k, v in c.items() if k.endswith("self_s")),
        reverse=True,
    )
    return ", ".join(f"{k}={v:.3f}" for v, k in parts if v > 0)


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4, method="inclusive")
    return q[0], q[2]


def environment() -> dict:
    import importlib.metadata

    try:
        numpy_version = importlib.metadata.version("numpy")
    except importlib.metadata.PackageNotFoundError:
        numpy_version = "missing"
    return {
        "nproc": nproc(),
        "blas_threads": blas_threads(),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "machine": platform.machine(),
    }


def measure(workload: str, seed: int, seconds: float, trace: bool, tmp: Path) -> dict:
    env = child_env(tmp)
    out = {"workload": workload, "seed": seed, "trace": trace, "env": environment()}
    if not trace:
        out["setup_walls"] = measure_setup(env, tmp)
    passes = []
    start = time.perf_counter()
    while True:
        traced = trace and bool(passes)
        passes.append(run_pass(workload, seed, tmp, env, f"pass{len(passes)}", traced))
        if time.perf_counter() - start >= seconds and len(passes) >= 2:
            break
    out["passes"] = passes
    return out


def evaluate(run: dict) -> dict:
    """Apply the cross-pass gates and compute the reported metrics."""
    passes = run["passes"]
    failed_reasons = []
    reference = {r["command"]: r["csv_sha256"] for r in passes[0]}
    for k, results in enumerate(passes):
        for r in results:
            if r["csv_sha256"] != reference[r["command"]] and not r["failures"]:
                r["failures"].append("CSV bytes differ from pass 0 with the same seed and flags")
            failed_reasons += [f"pass {k} {r['command']}: {f}" for f in r["failures"]]
    attempted = sum(len(p) for p in passes)
    failed = sum(1 for p in passes for r in p if r["failures"])
    commands = [c for c, _ in WORKLOADS[run["workload"]]]
    samples = {
        "wall_s": [sum(r["wall_s"] for r in p) for p in passes],
        "peak_rss_mb": [max(r["rss_mb"] for r in p) for p in passes],
        "artifact_mb": [sum(r["csv_bytes"] + r["svg_bytes"] for r in p) / MB for p in passes],
    }
    for i, command in enumerate(commands):
        samples[f"wall_s.{command}"] = [p[i]["wall_s"] for p in passes]
    report = {"attempted": attempted, "failed": failed, "failures": failed_reasons}
    if not run["trace"]:
        samples["setup_s"] = run["setup_walls"]
        report["samples"] = samples
        report["end_to_end"] = {k: statistics.median(v) for k, v in samples.items()}
        report["end_to_end"]["fail_ratio"] = failed / attempted
        return report

    traced = [p for p in passes[1:] if all("trace" in r for r in p)]
    if len(traced) != len(passes) - 1:
        report["per_layer"] = None
        return report
    per_pass = [layer_metrics(p, samples["wall_s"][0]) for p in traced]
    seen = {span[0] for p in traced for r in p for span in r["trace"]["spans"]}
    missing = sorted(EXPECTED_SPANS[run["workload"]] - seen)
    if missing:
        raise BenchError(f"traced {run['workload']} recorded no span for {missing}")
    for p in per_pass[1:]:
        moved = [k for k in DETERMINISTIC if p[k] != per_pass[0][k]]
        if moved:
            report["failed"] += 1
            report["failures"].append(f"deterministic counts differ between traced passes: {moved}")
    report["per_layer"] = {k: statistics.median(p[k] for p in per_pass) for k in PER_LAYER}
    report["per_layer_passes"] = len(per_pass)
    report["command_layers"] = {
        r["command"]: command_layer_table(r) for r in traced[0]
    }
    return report


E2E_UNITS = {"wall_s": "s", "peak_rss_mb": "MB", "setup_s": "s", "artifact_mb": "MB",
             "fail_ratio": "1"}
JSON_END_TO_END = ("wall_s", "peak_rss_mb", "setup_s", "artifact_mb")


def print_report(run: dict, report: dict) -> dict:
    env = run["env"]
    print(f"workload {run['workload']} seed {run['seed']} trace {int(run['trace'])}: "
          f"nproc {env['nproc']}, BLAS threads {env['blas_threads']}, "
          f"python {env['python']}, numpy {env['numpy']}")
    for reason in report["failures"]:
        print(f"FAILED {reason}")
    if not run["trace"]:
        for name, value in report["end_to_end"].items():
            unit = E2E_UNITS.get(name, E2E_UNITS.get(name.split(".")[0]))
            if name == "fail_ratio":
                print(f"  {name:<24} {value:.4g} {unit} "
                      f"({report['failed']} of {report['attempted']} commands)")
                continue
            values = report["samples"][name]
            lo, hi = quartiles(values)
            print(f"  {name:<24} {value:.4f} {unit} (median of {len(values)}, "
                  f"quartiles {lo:.4f}..{hi:.4f})")
        metrics = {k: report["end_to_end"][k] for k in JSON_END_TO_END}
        units = {k: E2E_UNITS[k] for k in JSON_END_TO_END}
    else:
        for command, table in report.get("command_layers", {}).items():
            print(f"  {command} self time by layer: {table}")
        per_layer = report.get("per_layer") or {k: 0.0 for k in PER_LAYER}
        for name, value in per_layer.items():
            print(f"  {name:<34} {value:.6g} {unit_of(name)}")
        print(f"  (median of {report.get('per_layer_passes', 0)} traced passes)")
        metrics = per_layer
        units = {k: unit_of(k) for k in PER_LAYER}
    return {
        "correct": report["failed"] == 0,
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="also write every sample and the environment as JSON")
    args = parser.parse_args(argv)

    if not (SRC / "kernstab" / "__init__.py").is_file():
        print(f"bench: no kernstab sources under {SRC}", file=sys.stderr)
        return 2
    scratch = ROOT / ".bench_tmp"
    scratch.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(dir=scratch))
    try:
        run = measure(args.workload, args.seed, args.seconds, bool(args.trace), tmp)
        report = evaluate(run)
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 3
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            scratch.rmdir()
        except OSError:
            pass
    result = print_report(run, report)
    if args.out:
        with open(args.out, "w") as fh:
            json.dump({"env": run["env"], "seed": args.seed, "workload": args.workload,
                       "seconds": args.seconds, "report": report, "result": result},
                      fh, indent=1, default=str)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
