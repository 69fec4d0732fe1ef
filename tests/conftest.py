import os
from pathlib import Path

import pytest

import kernstab

# the directory that holds the kernstab package under test
SRC = str(Path(kernstab.__file__).resolve().parent.parent)

# BLAS threads of every child: 2, or 1 on a 1-core host
BLAS_THREADS = min(2, len(os.sched_getaffinity(0)))


def command_ids(rows):
    """pytest ids of rows of CLI arguments: the command's name, and for a
    command's later rows the name and its ``--n``."""
    def command_id(args):
        first = next(row for row in rows if row[0] == args[0])
        return args[0] if args == first else f"{args[0]}-n{args[args.index('--n') + 1]}"
    return command_id


@pytest.fixture(autouse=True)
def _children_import_kernstab(monkeypatch):
    """Put the absolute source path first on PYTHONPATH, and pin BLAS threads.

    CLI tests start ``python -m kernstab`` in ``tmp_path``, where a relative
    PYTHONPATH entry such as ``src`` no longer resolves.  Every child gets
    min(2, cores) BLAS threads: the sums of a matrix product depend on the
    thread count, and with it the last digits of some golden digests and
    the wall time of the budgets.
    """
    inherited = [
        os.path.abspath(p)
        for p in os.environ.get("PYTHONPATH", "").split(os.pathsep)
        if p
    ]
    monkeypatch.setenv("PYTHONPATH", os.pathsep.join([SRC, *inherited]))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        monkeypatch.setenv(var, str(BLAS_THREADS))
