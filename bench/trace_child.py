"""Run ``python -m kernstab ARGS`` with every public kernstab function traced.

Usage: ``BENCH_TRACE_OUT=spans.json python bench/trace_child.py ARGS``

The wrappers are installed from here, outside the program: ``src/kernstab`` is
not edited.  Each wrapper records a span ``[name, start, end, parent, info]``
in memory; the spans are written as JSON to ``$BENCH_TRACE_OUT`` when the
process exits.  ``parent`` is the index of the enclosing span (-1 at the top)
and ``info`` is the count the benchmark derives per-layer metrics from.

The drivers bind names with ``from .assembly import conv_gram`` and keep the
drivers themselves in a dispatch dict, so each wrapper replaces the original
in every kernstab module namespace and in every dict held by one.
"""

from __future__ import annotations

import atexit
import functools
import hashlib
import json
import math
import os
import runpy
import sys
import time
import tracemalloc

LAYERS = (
    "cli", "geometry", "kernels", "assembly", "quadrature",
    "spectral", "analysis", "rng", "svgplot", "experiments",
)

# public methods traced besides the module-level functions
METHODS = {
    "geometry": [("PointSet", "__init__")],
    "kernels": [("SpectralDensity", "__call__")],
    "rng": [("SplitMix64", "uniforms"), ("SplitMix64", "symmetric")],
    "experiments": [("ExperimentReport", "write_csv"), ("ExperimentReport", "write_svg")],
}


def _points_digest(X) -> str:
    return hashlib.blake2b(X.points.tobytes(), digest_size=8).hexdigest()


def _check_count(result) -> int:
    checks = getattr(result, "checks", result)
    if isinstance(checks, (list, tuple)):
        return sum(1 for c in checks if type(c).__name__ == "BoundCheck")
    return int(type(checks).__name__ == "BoundCheck")


def _info_hook(name: str):
    """Function (args, result) -> the span's count, or None."""
    import numpy as np

    if name in ("kernels.phi", "kernels.SpectralDensity.__call__"):
        return lambda args, result: int(np.size(args[1]))
    if name in ("assembly.gram", "assembly.shifted_gram", "assembly.conv_gram"):
        return lambda args, result: _points_digest(args[1])
    if name == "geometry.PointSet.__init__":
        return lambda args, result: len(args[0])
    if name == "rng.SplitMix64.uniforms":
        return lambda args, result: math.prod(args[1:])
    if name.startswith("spectral.eig"):
        return lambda args, result: int(np.shape(args[0])[0])
    if name.startswith("analysis.verify_"):
        return lambda args, result: _check_count(result)
    if name.startswith("svgplot."):
        return lambda args, result: len(result.encode()) if isinstance(result, str) else 0
    return None


class Tracer:
    """In-memory span recorder for one process."""

    def __init__(self):
        self.spans = []
        self._stack = []

    def wrap(self, name: str, fn):
        spans, stack = self.spans, self._stack
        info = _info_hook(name)
        malloc_peak = name == "assembly.conv_gram"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            record = [name, 0.0, 0.0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(record)
            if malloc_peak:
                tracemalloc.start()
            record[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = time.perf_counter()
                stack.pop()
                if malloc_peak:
                    peak = tracemalloc.get_traced_memory()[1]
                    tracemalloc.stop()
            if info is not None:
                record[4] = info(args, result)
            if malloc_peak:
                record[4] = [record[4], peak]
            return result

        return wrapper

    def install(self) -> None:
        """Wrap every traced callable and rebind it in every kernstab namespace."""
        import numpy as np

        originals = {}
        for layer in LAYERS:
            module = sys.modules[f"kernstab.{layer}"]
            for attr, obj in vars(module).items():
                if (
                    not attr.startswith("_")
                    and callable(obj)
                    and not isinstance(obj, type)
                    and getattr(obj, "__module__", None) == module.__name__
                ):
                    originals[id(obj)] = (obj, self.wrap(f"{layer}.{attr}", obj))
            for cls_name, method in METHODS.get(layer, ()):
                cls = getattr(module, cls_name)
                setattr(cls, method, self.wrap(
                    f"{layer}.{cls_name}.{method}", getattr(cls, method)
                ))
        # eigensolves the drivers call on numpy directly count as the spectral layer
        for solver in ("eigh", "eigvalsh"):
            setattr(np.linalg, solver, self.wrap(
                f"spectral.{solver}", getattr(np.linalg, solver)
            ))
        for name, module in list(sys.modules.items()):
            if name != "kernstab" and not name.startswith("kernstab."):
                continue
            namespace = vars(module)
            for attr, value in list(namespace.items()):
                if id(value) in originals and originals[id(value)][0] is value:
                    namespace[attr] = originals[id(value)][1]
                elif isinstance(value, dict):
                    for key, item in value.items():
                        if id(item) in originals and originals[id(item)][0] is item:
                            value[key] = originals[id(item)][1]


def main() -> None:
    out = os.environ["BENCH_TRACE_OUT"]
    start = time.perf_counter()
    import kernstab.cli  # noqa: F401  (its import time is the cli.import_s metric)

    import_s = time.perf_counter() - start
    tracer = Tracer()
    tracer.install()

    def dump():
        with open(out, "w") as fh:
            json.dump({"import_s": import_s, "spans": tracer.spans}, fh)

    atexit.register(dump)
    sys.argv = ["kernstab", *sys.argv[1:]]
    runpy.run_module("kernstab", run_name="__main__", alter_sys=True)


if __name__ == "__main__":
    main()
