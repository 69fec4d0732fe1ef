import os
from pathlib import Path

import pytest

import kernstab

# the directory that holds the kernstab package under test
SRC = str(Path(kernstab.__file__).resolve().parent.parent)


@pytest.fixture(autouse=True)
def _children_import_kernstab(monkeypatch):
    """Put the absolute source path first on PYTHONPATH.

    CLI tests start ``python -m kernstab`` in ``tmp_path``, where a relative
    PYTHONPATH entry such as ``src`` no longer resolves.
    """
    inherited = [
        os.path.abspath(p)
        for p in os.environ.get("PYTHONPATH", "").split(os.pathsep)
        if p
    ]
    monkeypatch.setenv("PYTHONPATH", os.pathsep.join([SRC, *inherited]))
