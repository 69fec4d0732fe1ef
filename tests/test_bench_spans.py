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

from kernstab import Family, KernelSpec, assembly, experiments
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


# one small run of each command, as ExperimentConfig fields
SMALL_CONFIGS = {
    "eigen-scaling": {"n_max": 20, "n_count": 3},
    "heatmap": {"n": 30},
    "equivalence": {"n": 30},
    "identity": {"n": 3, "trials": 1},
    "sin2": {"n": 5, "trials": 1},
    "thm41": {"n": 20, "trials": 1, "shift_factor": 0.5},
}


def test_the_tracer_reaches_every_runner(monkeypatch):
    # as bench/trace_child.py installs its wrappers: each public experiments
    # function rebound in every kernstab namespace and in every dict one of
    # them holds, so a runner kept anywhere else would record no span
    calls = Counter()
    wrappers = {}
    for attr, obj in vars(experiments).items():
        if (
            not attr.startswith("_")
            and callable(obj)
            and not isinstance(obj, type)
            and getattr(obj, "__module__", None) == experiments.__name__
        ):
            wrappers[id(obj)] = (obj, _traced(calls, f"experiments.{attr}", obj))
    runners = {f"experiments.{runner.__name__}" for runner in experiments._RUNNERS.values()}
    for module_name, module in list(sys.modules.items()):
        if module_name != "kernstab" and not module_name.startswith("kernstab."):
            continue
        for attr, value in list(vars(module).items()):
            if id(value) in wrappers and wrappers[id(value)][0] is value:
                monkeypatch.setattr(module, attr, wrappers[id(value)][1])
            elif isinstance(value, dict):
                for key, item in list(value.items()):
                    if id(item) in wrappers and wrappers[id(item)][0] is item:
                        monkeypatch.setitem(value, key, wrappers[id(item)][1])
    assert sorted(SMALL_CONFIGS) == sorted(experiments.COMMANDS)
    for command, options in SMALL_CONFIGS.items():
        experiments.run(ExperimentConfig(command=command, **options))
    expected = {
        name for names in _expected_spans().values() for name in names
        if name.startswith("experiments.run_")
    }
    assert expected and expected <= runners
    assert {name: calls[name] for name in runners} == dict.fromkeys(runners, 1)
    assert calls["experiments.run"] == len(SMALL_CONFIGS)
