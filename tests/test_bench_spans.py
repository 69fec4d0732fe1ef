"""The benchmark's traced spans still name public kernstab callables.

``bench/trace_child.py`` wraps every public function and listed method of the
kernstab layers, and ``bench/run.py`` fails a traced run that records no span
for a name in its ``EXPECTED_SPANS``.  Renaming or deleting one of those
callables would surface only in a long benchmark run; this test reads the
table from the source (without importing or executing ``bench/run.py``) and
resolves every name here.
"""

import ast
import importlib
from pathlib import Path

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
