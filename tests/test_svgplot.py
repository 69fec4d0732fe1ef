import math

import numpy as np
import pytest

from kernstab.svgplot import Series, color_ramp, heatmap_svg, loglog_plot_svg


def _heatmap_svg_loop(values, floor_log10=-5.0, ceil_log10=0.0):
    # the per-cell reference the vectorized heatmap must reproduce byte for byte
    grid = np.abs(np.asarray(values, dtype=float))
    n_rows, n_cols = grid.shape
    ramp = color_ramp()
    cell = max(4, 480 // max(n_rows, n_cols))
    margin = 20
    width = n_cols * cell + 2 * margin
    height = n_rows * cell + 2 * margin
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        f'<rect x="0" y="0" width="{width}" height="{height}" fill="white"/>',
    ]
    span = ceil_log10 - floor_log10
    tiny = 10.0 ** (floor_log10 - 1)
    for i in range(n_rows):
        for j in range(n_cols):
            level = math.log10(max(grid[i, j], tiny))
            t = min(max((level - floor_log10) / span, 0.0), 1.0)
            color = ramp[round(t * (len(ramp) - 1))]
            parts.append(
                f'<rect x="{margin + j * cell}" y="{margin + i * cell}" '
                f'width="{cell}" height="{cell}" fill="{color}"/>'
            )
    parts.append(
        f'<rect x="{margin}" y="{margin}" width="{n_cols * cell}" height="{n_rows * cell}" '
        f'fill="none" stroke="black" stroke-width="1"/>'
    )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def _log_uniform(shape, lo, hi, seed):
    rng = np.random.default_rng(seed)
    signs = rng.choice([-1.0, 1.0], size=shape)
    return signs * 10.0 ** rng.uniform(lo, hi, size=shape)


@pytest.mark.parametrize("shape", [(120, 120), (37, 53), (200, 9), (1, 1), (2, 0)])
def test_heatmap_matches_per_cell_loop(shape):
    grid = _log_uniform(shape, -7.0, 0.5, seed=sum(shape))
    assert "".join(heatmap_svg(grid)) == _heatmap_svg_loop(grid)


def test_heatmap_matches_loop_on_other_decade_range():
    grid = _log_uniform((60, 80), -12.0, 3.0, seed=3)
    assert "".join(heatmap_svg(grid, -9.0, 2.0)) == _heatmap_svg_loop(grid, -9.0, 2.0)


def test_heatmap_matches_loop_on_clipped_values():
    tiny = 10.0 ** -6
    values = [0.0, -0.0, np.inf, -np.inf, tiny, np.nextafter(tiny, 0), 1e-300, 5e-324,
              1e-5, 1.0, 10.0, 1e300]
    grid = np.array(values).reshape(3, 4)
    assert "".join(heatmap_svg(grid)) == _heatmap_svg_loop(grid)


def test_heatmap_matches_loop_next_to_every_color_edge():
    # values whose scaled level is a half-integer sit where np.log10 and
    # math.log10 may round to neighbouring colors
    floor_log10, span = -5.0, 5.0
    k = np.arange(len(color_ramp()))
    edges = 10.0 ** (floor_log10 + span * (k + 0.5) / 255)
    below, above = np.nextafter(edges, 0.0), np.nextafter(edges, np.inf)
    grid = np.stack([np.nextafter(below, 0.0), below, edges, above, np.nextafter(above, np.inf)])
    assert "".join(heatmap_svg(grid)) == _heatmap_svg_loop(grid)


def test_heatmap_nan_cell_raises():
    grid = np.ones((3, 3))
    grid[1, 2] = np.nan
    with pytest.raises(ValueError):
        _heatmap_svg_loop(grid)
    with pytest.raises(ValueError):
        heatmap_svg(grid)


def test_loglog_plot_smoke():
    svg = loglog_plot_svg(
        [
            Series("a", [(10, 1e-2), (100, 1e-4), (1000, 0.0)]),
            Series("b", [(10, 1e-3), (1000, 1e-7)], color="#000000", dashed=True),
            Series("empty", [(10, -1.0)]),
        ],
        xlabel="#points",
        ylabel="lambda_min",
    )
    assert svg.startswith("<svg") and svg.endswith("</svg>\n")
    assert svg.count("<polyline") == 2
    assert 'stroke-dasharray="6,4"' in svg
    assert ">1e1<" in svg and ">1e3<" in svg and ">1e-7<" in svg
    assert ">#points<" in svg and ">lambda_min<" in svg
    with pytest.raises(ValueError):
        loglog_plot_svg([Series("none", [(1, 0.0)])])
