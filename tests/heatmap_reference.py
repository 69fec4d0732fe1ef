"""Scalar references for the heatmap SVG: per-cell colors, run merge, decoder,
and the whitened matrix the heatmap command draws.

``heatmap_svg`` must give every cell the color of the per-cell
``math.log10`` loop and draw each maximal run of one color in a row as one
``<rect>``.  ``heatmap_svg_loop`` builds that document with plain Python
loops, and ``decode_heatmap`` reads any heatmap document back to one color
per cell, checking that the rects inside the frame cover each cell exactly
once.
"""

import math
import re

import numpy as np

from kernstab import Family, KernelSpec, gram, halton, shifted_gram, whiten
from kernstab.svgplot import color_ramp

MARGIN = 20
# the decades of |value| the color scale spans
FLOOR_LOG10, CEIL_LOG10 = -5.0, 0.0

_CELL_RECT = re.compile(
    r'<rect x="(\d+)" y="(\d+)" width="(\d+)" height="(\d+)" fill="(#[0-9a-f]{6})"/>'
)


def cell_size(shape):
    return max(4, 480 // max(shape))


def loop_color_indices(values):
    """Ramp index of every cell, one scalar ``math.log10`` at a time."""
    grid = np.abs(np.asarray(values, dtype=float))
    top = len(color_ramp()) - 1
    span = CEIL_LOG10 - FLOOR_LOG10
    tiny = 10.0 ** (FLOOR_LOG10 - 1)
    indices = []
    for row in grid.tolist():
        out = []
        for value in row:
            level = math.log10(max(value, tiny))
            t = min(max((level - FLOOR_LOG10) / span, 0.0), 1.0)
            out.append(round(t * top))
        indices.append(out)
    return indices


def row_runs(row):
    """(start, length, index) of each maximal run of equal indices."""
    runs = []
    for j, k in enumerate(row):
        if runs and runs[-1][2] == k:
            start, length, _ = runs[-1]
            runs[-1] = (start, length + 1, k)
        else:
            runs.append((j, 1, k))
    return runs


def run_count(indices):
    return sum(len(row_runs(row)) for row in indices)


def heatmap_svg_loop(values):
    """The document ``heatmap_svg`` must reproduce byte for byte."""
    indices = loop_color_indices(values)
    n_rows, n_cols = np.shape(values)
    ramp = color_ramp()
    cell = cell_size((n_rows, n_cols))
    width = n_cols * cell + 2 * MARGIN
    height = n_rows * cell + 2 * MARGIN
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        f'<rect x="0" y="0" width="{width}" height="{height}" fill="white"/>',
    ]
    for i, row in enumerate(indices):
        for start, length, k in row_runs(row):
            parts.append(
                f'<rect x="{MARGIN + start * cell}" y="{MARGIN + i * cell}" '
                f'width="{length * cell}" height="{cell}" fill="{ramp[k]}"/>'
            )
    parts.append(
        f'<rect x="{MARGIN}" y="{MARGIN}" width="{n_cols * cell}" height="{n_rows * cell}" '
        f'fill="none" stroke="black" stroke-width="1"/>'
    )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def decode_heatmap(svg, shape):
    """Color of every cell of a heatmap document of the given grid shape.

    Every line between the white background and the frame must be one
    colored ``<rect>`` that spans whole cells of one grid row; the function
    asserts that together they cover each cell exactly once.
    """
    n_rows, n_cols = shape
    cell = cell_size(shape)
    lines = svg.splitlines()
    assert lines[1].endswith('fill="white"/>')
    assert lines[-2] == (
        f'<rect x="{MARGIN}" y="{MARGIN}" width="{n_cols * cell}" height="{n_rows * cell}" '
        f'fill="none" stroke="black" stroke-width="1"/>'
    )
    assert lines[-1] == "</svg>"
    colors = np.full(shape, None, dtype=object)
    for line in lines[2:-2]:
        match = _CELL_RECT.fullmatch(line)
        assert match, line
        x, y, width, height = (int(v) for v in match.groups()[:4])
        assert height == cell and width > 0 and width % cell == 0, line
        assert (x - MARGIN) % cell == 0 and (y - MARGIN) % cell == 0, line
        i, j = (y - MARGIN) // cell, (x - MARGIN) // cell
        assert 0 <= i < n_rows and 0 <= j and j + width // cell <= n_cols, line
        cells = colors[i, j:j + width // cell]
        assert all(c is None for c in cells), f"cell painted twice: {line}"
        colors[i, j:j + width // cell] = match.group(5)
    assert all(c is not None for c in colors.flat), "cell left unpainted"
    return colors


def assert_decodes_to_loop_colors(svg, values):
    """Each cell of ``svg`` is painted once, in the per-cell loop's color."""
    ramp = color_ramp()
    expected = [[ramp[k] for k in row] for row in loop_color_indices(values)]
    decoded = decode_heatmap(svg, np.shape(values))
    assert decoded.tolist() == expected


def heatmap_matrix(kernel, n, dim=2, shift_factor=0.1):
    """The whitened shifted matrix ``M`` of ``kernstab heatmap``, built from
    the command's own Halton points ``X`` and diagonal shift ``b``; its
    SVG draws ``|M|`` and its CSV lists ``eigvalsh(M)``."""
    spec = KernelSpec(Family(kernel), dim=dim)
    X = halton(n, dim)
    b = shift_factor * X.separation * np.ones(dim) / math.sqrt(dim)
    return whiten(gram(spec, X), shifted_gram(spec, X, b))
