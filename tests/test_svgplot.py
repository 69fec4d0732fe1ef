import numpy as np
import pytest

from heatmap_reference import assert_decodes_to_loop_colors, loop_color_indices
from kernstab.svgplot import Series, color_ramp, heatmap_svg, loglog_plot_svg


def _check_heatmap(grid):
    # decoded back, every cell has the per-cell loop's color
    svg = heatmap_svg(grid)
    assert_decodes_to_loop_colors(svg, grid)
    return svg


def _log_uniform(shape, lo, hi, seed):
    rng = np.random.default_rng(seed)
    signs = rng.choice([-1.0, 1.0], size=shape)
    return signs * 10.0 ** rng.uniform(lo, hi, size=shape)


# a grid without cells draws the background and the frame alone
@pytest.mark.parametrize(
    "shape", [(120, 120), (37, 53), (200, 9), (1, 1), (2, 0), (0, 0), (0, 3), (3, 0)]
)
def test_heatmap_matches_per_cell_loop(shape):
    grid = _log_uniform(shape, -7.0, 0.5, seed=sum(shape))
    _check_heatmap(grid)


def test_heatmap_matches_loop_on_clipped_values():
    tiny = 10.0 ** -6
    values = [0.0, -0.0, np.inf, -np.inf, tiny, np.nextafter(tiny, 0), 1e-300, 5e-324,
              1e-5, 1.0, 10.0, 1e300]
    grid = np.array(values).reshape(3, 4)
    _check_heatmap(grid)


def test_heatmap_matches_loop_next_to_every_color_edge():
    # values whose scaled level is a half-integer sit where np.log10 and
    # math.log10 may round to neighbouring colors
    floor_log10, span = -5.0, 5.0
    k = np.arange(len(color_ramp()))
    edges = 10.0 ** (floor_log10 + span * (k + 0.5) / 255)
    below, above = np.nextafter(edges, 0.0), np.nextafter(edges, np.inf)
    grid = np.stack([np.nextafter(below, 0.0), below, edges, above, np.nextafter(above, np.inf)])
    _check_heatmap(grid)


def test_heatmap_nan_cell_raises():
    grid = np.ones((3, 3))
    grid[1, 2] = np.nan
    with pytest.raises(ValueError):
        loop_color_indices(grid)
    with pytest.raises(ValueError):
        heatmap_svg(grid)


def test_heatmap_encodes_a_constant_grid():
    svg = _check_heatmap(np.full((7, 9), 0.01))
    assert svg.count("<rect") == 2 and svg.count("<image") == 1


def test_heatmap_encodes_an_alternating_grid():
    # no two neighbours share a color: one rect per cell in a run-length drawing
    grid = np.where(np.indices((6, 11)).sum(axis=0) % 2 == 0, 1.0, 1e-5)
    svg = _check_heatmap(grid)
    assert svg.count("<rect") == 2 and svg.count("<image") == 1


def test_heatmap_stays_within_its_worst_case_size():
    # independent uniform ramp indices leave deflate nothing to find
    n = 300
    rng = np.random.default_rng(3)
    grid = 10.0 ** rng.uniform(-5.0, 0.0, size=(n, n))
    svg = _check_heatmap(grid)
    assert len(svg) <= 1.4 * n * n + 2000


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
        loglog_plot_svg([Series("none", [(1, 0.0)])], "x", "y")
