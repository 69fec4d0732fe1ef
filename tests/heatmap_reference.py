"""Scalar references for the heatmap SVG: per-cell colors, a PNG reader,
and the whitened matrix the heatmap command draws and the spectrum it lists.

``heatmap_svg`` must give every cell the color of the per-cell
``math.log10`` loop.  ``decode_heatmap`` reads a heatmap document back to
one color per cell: it checks the markup around the grid, then reads the
embedded PNG chunk by chunk (signature, CRC-32 of every chunk, header
fields, palette, filter byte of every scanline) with nothing but the PNG
format and ``zlib``.
"""

import base64
import math
import re
import struct
import zlib

import numpy as np

from kernstab import (
    Family, KernelSpec, gram, halton, shifted_gram, whiten, whitened_spectrum,
)
from kernstab.svgplot import color_ramp

MARGIN = 20
# the decades of |value| the color scale spans
FLOOR_LOG10, CEIL_LOG10 = -5.0, 0.0

PNG_SIGNATURE = b"\x89PNG\r\n\x1a\n"
_IMAGE = re.compile(
    r'<image x="(\d+)" y="(\d+)" width="(\d+)" height="(\d+)" '
    r'preserveAspectRatio="none" image-rendering="optimizeSpeed" '
    r'style="image-rendering:pixelated" href="data:image/png;base64,([A-Za-z0-9+/=]+)"/>'
)


def cell_size(shape):
    return max(4, 480 // max(*shape, 1))


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


def read_png_chunks(png):
    """(type, data) of every chunk of a PNG, each CRC-32 checked."""
    assert png[:8] == PNG_SIGNATURE
    chunks, pos = [], 8
    while pos < len(png):
        (length,) = struct.unpack(">I", png[pos:pos + 4])
        kind, data = png[pos + 4:pos + 8], png[pos + 8:pos + 8 + length]
        (crc,) = struct.unpack(">I", png[pos + 8 + length:pos + 12 + length])
        assert len(data) == length and crc == zlib.crc32(kind + data), kind
        chunks.append((kind, data))
        pos += 12 + length
    assert pos == len(png)
    return chunks


def decode_png_colors(png):
    """'#rrggbb' of every pixel of an 8-bit palette PNG without filters."""
    chunks = read_png_chunks(png)
    kinds = [kind for kind, _ in chunks]
    assert kinds[:2] == [b"IHDR", b"PLTE"] and kinds[-1] == b"IEND", kinds
    assert set(kinds[2:-1]) == {b"IDAT"} and chunks[-1][1] == b"", kinds
    width, height, depth, color_type, compression, filtering, interlace = struct.unpack(
        ">IIBBBBB", chunks[0][1]
    )
    assert (depth, color_type, compression, filtering, interlace) == (8, 3, 0, 0, 0)
    palette = chunks[1][1]
    ramp = ["#" + palette[k:k + 3].hex() for k in range(0, len(palette), 3)]
    assert ramp == color_ramp()
    raw = zlib.decompress(b"".join(data for kind, data in chunks if kind == b"IDAT"))
    assert len(raw) == height * (width + 1)
    colors = []
    for i in range(height):
        line = raw[i * (width + 1):(i + 1) * (width + 1)]
        assert line[0] == 0, f"row {i} has filter {line[0]}"
        colors.append([ramp[k] for k in line[1:]])
    return colors


def decode_heatmap(svg, shape):
    """Color of every cell of a heatmap document of the given grid shape.

    The document must be the white background, one ``<image>`` stretched
    over the grid's box, and the frame; the image is a palette PNG of one
    pixel per cell.  A grid without cells has no image.
    """
    n_rows, n_cols = shape
    cell = cell_size(shape)
    width, height = n_cols * cell + 2 * MARGIN, n_rows * cell + 2 * MARGIN
    lines = svg.splitlines()
    assert svg.endswith("\n")
    assert lines[0] == (
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">'
    )
    assert lines[1] == f'<rect x="0" y="0" width="{width}" height="{height}" fill="white"/>'
    assert lines[-2] == (
        f'<rect x="{MARGIN}" y="{MARGIN}" width="{n_cols * cell}" height="{n_rows * cell}" '
        f'fill="none" stroke="black" stroke-width="1"/>'
    )
    assert lines[-1] == "</svg>"
    if n_rows == 0 or n_cols == 0:
        assert len(lines) == 4 and "<image" not in svg
        return np.empty(shape, dtype=object)
    assert len(lines) == 5
    match = _IMAGE.fullmatch(lines[2])
    assert match, lines[2][:300]
    box = tuple(int(v) for v in match.groups()[:4])
    assert box == (MARGIN, MARGIN, n_cols * cell, n_rows * cell)
    colors = decode_png_colors(base64.b64decode(match.group(5), validate=True))
    assert len(colors) == n_rows and all(len(row) == n_cols for row in colors)
    return np.array(colors, dtype=object)


def assert_decodes_to_loop_colors(svg, values):
    """Each cell of ``svg`` is decoded to the per-cell loop's color."""
    ramp = color_ramp()
    expected = [[ramp[k] for k in row] for row in loop_color_indices(values)]
    decoded = decode_heatmap(svg, np.shape(values))
    assert decoded.tolist() == expected


def _heatmap_pencil(kernel, n, dim, shift_factor):
    # the command's own Halton points X and diagonal shift b
    spec = KernelSpec(Family(kernel), dim=dim)
    X = halton(n, dim)
    b = shift_factor * X.separation * np.ones(dim) / math.sqrt(dim)
    return lambda: gram(spec, X), lambda: shifted_gram(spec, X, b)


def heatmap_matrix(kernel, n, dim=2, shift_factor=0.1):
    """The whitened shifted matrix ``M`` of ``kernstab heatmap``; its SVG
    draws ``|M|``."""
    A, B = _heatmap_pencil(kernel, n, dim, shift_factor)
    return whiten(A(), B())


def heatmap_spectrum(kernel, n, dim=2, shift_factor=0.1):
    """The spectrum of ``M`` that ``kernstab heatmap`` lists in its
    ``spectrum`` sidecar: ``whitened_spectrum`` of the same pencil."""
    return whitened_spectrum(*_heatmap_pencil(kernel, n, dim, shift_factor))
