import math

import numpy as np
import pytest

from kernstab import cli
from kernstab.experiments import ExperimentConfig, _fmt, _write_rows, run


def _fmt_chain(value):
    # the isinstance chain the type-table fast path must agree with
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return "%.17g" % value
    return str(value)


VALUES = [
    True, False, np.bool_(True), np.bool_(False),
    0, -7, 2**70, np.int64(-3), np.int32(12),
    0.1, 1 / 3, 1e-300, np.float64(2.0 / 3.0), np.float32(0.1),
    -0.0, np.float64(-0.0), float("nan"), np.float64("nan"),
    float("inf"), float("-inf"), np.float64("-inf"),
    "matern-linear", "",
]


@pytest.mark.parametrize("value", VALUES, ids=repr)
def test_fmt_matches_isinstance_chain(value):
    assert _fmt(value) == _fmt_chain(value)


def test_write_rows_formats_mixed_rows(tmp_path):
    path = tmp_path / "rows.csv"
    _write_rows(path, "abc", ["a", "b"], [VALUES[:12], VALUES[12:]])
    lines = path.read_text().splitlines()
    assert lines[0] == "config,version,a,b"
    for line, row in zip(lines[1:], [VALUES[:12], VALUES[12:]]):
        assert line.split(",")[2:] == [_fmt_chain(v) for v in row]
        # '%.17g' is full precision: finite floats read back exactly
        for text, v in zip(line.split(",")[2:], row):
            if isinstance(v, float) and math.isfinite(v):
                assert float(text) == v


def test_library_heatmap_runs_with_its_command_defaults(tmp_path, capsys):
    # dim 2 and the halton layout come from the config itself, not the CLI
    report = run(ExperimentConfig(command="heatmap", n=30))
    assert len(report.rows) == 30
    report.write_csv(tmp_path / "library.csv")
    cli_csv = tmp_path / "cli.csv"
    args = ["heatmap", "--n", "30", "--out-csv", str(cli_csv), "--out-svg", str(tmp_path / "h.svg")]
    assert cli.main(args) == 0
    assert cli_csv.read_bytes() == (tmp_path / "library.csv").read_bytes()
    assert (tmp_path / "cli.spectrum.csv").read_bytes() == (
        tmp_path / "library.spectrum.csv"
    ).read_bytes()
