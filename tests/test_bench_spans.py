"""The benchmark's traced spans still name public kernstab callables.

``bench/trace_child.py`` wraps every public function and listed method of the
kernstab layers, and ``bench/run.py`` fails a traced run that records no span
for a name in its ``EXPECTED_SPANS``.  Renaming or deleting one of those
callables, or an experiment that stops calling them through their module
names, would surface only in a long benchmark run; these tests read the table
from the source (without importing or executing ``bench/run.py``), resolve
every name here, and trace the scaling experiment the way the benchmark does.
"""

import ast
import functools
import importlib
import sys
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from kernstab import Family, KernelSpec, assembly
from kernstab.experiments import ExperimentConfig, _scaling_samples

RUN_PY = Path(__file__).resolve().parent.parent / "bench" / "run.py"

# numpy solvers the tracer wraps on np.linalg and files under the spectral layer
NUMPY_SPANS = {"spectral.eigh", "spectral.eigvalsh"}


def _expected_spans() -> dict:
    for node in ast.parse(RUN_PY.read_text()).body:
        if isinstance(node, ast.Assign) and any(
            getattr(target, "id", None) == "EXPECTED_SPANS" for target in node.targets
        ):
            return ast.literal_eval(node.value)
    raise AssertionError(f"{RUN_PY} defines no EXPECTED_SPANS")


def test_expected_spans_resolve_to_public_callables():
    names = set().union(*_expected_spans().values()) - NUMPY_SPANS
    assert names
    unresolved = []
    for name in sorted(names):
        layer, *path = name.split(".")
        module = importlib.import_module(f"kernstab.{layer}")
        obj = module
        for attr in path:
            obj = getattr(obj, attr, None)
        if len(path) == 1:
            # the tracer wraps the public functions defined in the module itself
            ok = callable(obj) and not isinstance(obj, type) and (
                getattr(obj, "__module__", None) == module.__name__
            )
        else:
            ok = isinstance(getattr(module, path[0], None), type) and callable(obj)
        if not ok or path[0].startswith("_"):
            unresolved.append(name)
    assert unresolved == []


def _traced(calls: Counter, name: str, fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        calls[name] += 1
        return fn(*args, **kwargs)

    return wrapper


@pytest.mark.parametrize("layout", ["equispaced", "halton"])
def test_scaling_enters_each_builder_once_per_matrix(layout, monkeypatch):
    # as bench/trace_child.py does: each builder rebound in every kernstab
    # namespace that holds it, and the eigensolver on np.linalg
    calls = Counter()
    for name in ("gram", "conv_gram"):
        original = getattr(assembly, name)
        wrapper = _traced(calls, f"assembly.{name}", original)
        for module_name, module in list(sys.modules.items()):
            if module_name == "kernstab" or module_name.startswith("kernstab."):
                for attr, value in list(vars(module).items()):
                    if value is original:
                        monkeypatch.setattr(module, attr, wrapper)
    monkeypatch.setattr(
        np.linalg, "eigvalsh", _traced(calls, "spectral.eigvalsh", np.linalg.eigvalsh)
    )
    cfg = ExperimentConfig(command="eigen-scaling", kernel=Family.MATERN_LINEAR, n_min=10,
                           n_max=300, n_count=5, layout=layout)
    samples, _, _ = _scaling_samples(cfg, KernelSpec(cfg.kernel, dim=1))
    assert {"assembly.gram", "assembly.conv_gram"} <= _expected_spans()["scaling"]
    assert calls["assembly.gram"] == calls["assembly.conv_gram"] == len(samples) == 5
    # two half-size solves per split matrix, one per matrix solved whole
    assert calls["spectral.eigvalsh"] == (4 if layout == "equispaced" else 2) * len(samples)
