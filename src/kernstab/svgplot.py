"""Hand-rolled SVG emitters: log-log series plots and log-scale heatmaps.

Both emitters are pure functions of their inputs and format coordinates with
fixed precision, so regenerating a plot from the same report data yields a
byte-identical file.  A heatmap's cells are one embedded palette PNG of
one pixel per cell, deflated by the standard library's ``zlib``: at most
about 1.34 bytes of text per cell whatever the values, and some 56 kB for
the 1000 x 1000 grid of ``kernstab heatmap``.
"""

from __future__ import annotations

import base64
import math
import struct
import zlib
from dataclasses import dataclass
from typing import Sequence

import numpy as np

# dark-to-white ramp anchors (position, rgb in [0, 1])
_RAMP_ANCHORS = [
    (0.000, (0.0416, 0.0, 0.0)),
    (0.365, (1.0, 0.0, 0.0)),
    (0.746, (1.0, 1.0, 0.0)),
    (1.000, (1.0, 1.0, 1.0)),
]


# the heatmap's colors and the decades of |value| they span, clipped outside
# (_TINY keeps log10 finite at 0)
_RAMP_STEPS = 256
_FLOOR_LOG10, _CEIL_LOG10 = -5.0, 0.0
_SPAN, _TINY = _CEIL_LOG10 - _FLOOR_LOG10, 10.0 ** (_FLOOR_LOG10 - 1)


def color_ramp() -> list[str]:
    """The ``_RAMP_STEPS`` '#rrggbb' colors of a piecewise-linear ramp through the anchors."""
    out = []
    for i in range(_RAMP_STEPS):
        t = i / (_RAMP_STEPS - 1)
        for (t0, c0), (t1, c1) in zip(_RAMP_ANCHORS[:-1], _RAMP_ANCHORS[1:]):
            if t0 <= t <= t1:
                frac = 0.0 if t1 == t0 else (t - t0) / (t1 - t0)
                rgb = [c0[k] + frac * (c1[k] - c0[k]) for k in range(3)]
                break
        out.append("#%02x%02x%02x" % tuple(round(255 * v) for v in rgb))
    return out


@dataclass(frozen=True)
class Series:
    label: str
    points: Sequence[tuple[float, float]]
    color: str = "#1f77b4"
    dashed: bool = False


def _decade_span(values):
    lo, hi = min(values), max(values)
    d0 = math.floor(math.log10(lo) - 1e-12)
    d1 = math.ceil(math.log10(hi) + 1e-12)
    if d0 == d1:
        d1 += 1
    return d0, d1


def loglog_plot_svg(series: Sequence[Series], xlabel: str, ylabel: str) -> str:
    """Log-log line plot, as SVG text; points with nonpositive ordinate are dropped."""
    width, height = 720, 540
    ml, mr, mt, mb = 80, 24, 24, 64
    plotted = [
        (s, [(x, y) for x, y in s.points if y > 0 and x > 0]) for s in series
    ]
    xs = [x for _, pts in plotted for x, _ in pts]
    ys = [y for _, pts in plotted for _, y in pts]
    if not xs:
        raise ValueError("nothing to plot: no positive points")
    x0, x1 = _decade_span(xs)
    y0, y1 = _decade_span(ys)

    def sx(x):
        return ml + (math.log10(x) - x0) / (x1 - x0) * (width - ml - mr)

    def sy(y):
        return height - mb - (math.log10(y) - y0) / (y1 - y0) * (height - mt - mb)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        f'<rect x="0" y="0" width="{width}" height="{height}" fill="white"/>',
    ]
    for dec in range(x0, x1 + 1):
        px = sx(10.0 ** dec)
        parts.append(
            f'<line x1="{px:.2f}" y1="{mt}" x2="{px:.2f}" y2="{height - mb}" '
            f'stroke="#dddddd" stroke-width="1"/>'
        )
        parts.append(
            f'<text x="{px:.2f}" y="{height - mb + 18}" font-size="12" '
            f'text-anchor="middle" font-family="sans-serif">1e{dec}</text>'
        )
    for dec in range(y0, y1 + 1):
        py = sy(10.0 ** dec)
        parts.append(
            f'<line x1="{ml}" y1="{py:.2f}" x2="{width - mr}" y2="{py:.2f}" '
            f'stroke="#dddddd" stroke-width="1"/>'
        )
        parts.append(
            f'<text x="{ml - 6}" y="{py + 4:.2f}" font-size="12" '
            f'text-anchor="end" font-family="sans-serif">1e{dec}</text>'
        )
    parts.append(
        f'<rect x="{ml}" y="{mt}" width="{width - ml - mr}" height="{height - mt - mb}" '
        f'fill="none" stroke="black" stroke-width="1"/>'
    )
    for s, pts in plotted:
        if not pts:
            continue
        coords = " ".join(f"{sx(x):.2f},{sy(y):.2f}" for x, y in pts)
        dash = ' stroke-dasharray="6,4"' if s.dashed else ""
        parts.append(
            f'<polyline points="{coords}" fill="none" stroke="{s.color}" '
            f'stroke-width="1.5"{dash}/>'
        )
    parts.append(
        f'<text x="{(ml + width - mr) / 2:.2f}" y="{height - 16}" font-size="13" '
        f'text-anchor="middle" font-family="sans-serif">{xlabel}</text>'
    )
    parts.append(
        f'<text x="18" y="{(mt + height - mb) / 2:.2f}" font-size="13" '
        f'text-anchor="middle" font-family="sans-serif" '
        f'transform="rotate(-90 18 {(mt + height - mb) / 2:.2f})">{ylabel}</text>'
    )
    ly = height - mb - 14 - 16 * len([s for s, p in plotted if p])
    for s, pts in plotted:
        if not pts:
            continue
        dash = ' stroke-dasharray="6,4"' if s.dashed else ""
        parts.append(
            f'<line x1="{ml + 10}" y1="{ly:.2f}" x2="{ml + 40}" y2="{ly:.2f}" '
            f'stroke="{s.color}" stroke-width="1.5"{dash}/>'
        )
        parts.append(
            f'<text x="{ml + 46}" y="{ly + 4:.2f}" font-size="12" '
            f'font-family="sans-serif">{s.label}</text>'
        )
        ly += 16
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def _color_index(value: float) -> int:
    """Ramp index of one cell: the scalar ``math.log10`` reference."""
    level = math.log10(max(value, _TINY))
    t = min(max((level - _FLOOR_LOG10) / _SPAN, 0.0), 1.0)
    return round(t * (_RAMP_STEPS - 1))


def _png_chunk(kind: bytes, data: bytes) -> bytes:
    """One PNG chunk: length, type, data and the CRC-32 of type and data."""
    return struct.pack(">I", len(data)) + kind + data + struct.pack(">I", zlib.crc32(kind + data))


def _indexed_png(index: np.ndarray, ramp: list[str]) -> bytes:
    """Palette PNG (color type 3, bit depth 8) of one pixel per entry of
    ``index``, whose palette is ``ramp``: every scanline is filter byte 0
    (none) then the row's indices, and the scanlines are deflated at zlib
    level 6 into one ``IDAT``."""
    n_rows, n_cols = index.shape
    header = struct.pack(">IIBBBBB", n_cols, n_rows, 8, 3, 0, 0, 0)
    palette = bytes.fromhex("".join(color[1:] for color in ramp))
    scanlines = np.pad(index, ((0, 0), (1, 0))).tobytes()
    return b"".join([
        b"\x89PNG\r\n\x1a\n",
        _png_chunk(b"IHDR", header),
        _png_chunk(b"PLTE", palette),
        _png_chunk(b"IDAT", zlib.compress(scanlines, 6)),
        _png_chunk(b"IEND", b""),
    ])


def heatmap_svg(values) -> str:
    """Heatmap of |values| on a log color scale clipped to the decades 1e-5 .. 1.

    Returns the SVG text.  The grid is one ``<image>``: a palette PNG of one
    pixel per cell (``_indexed_png``), embedded as base64 and stretched to
    squares of ``cell`` pixels with ``preserveAspectRatio="none"`` and
    pixelated rendering, so cells stay crisp.  A grid without rows or
    columns draws no image, since a PNG cannot be empty.  Whatever the
    values, the deflated scanlines take at most their ``n_rows * (n_cols +
    1)`` bytes plus 5 bytes per 64 kB stored block, and base64 writes 4
    bytes for 3, so the document stays below ``1.34 * n_rows * (n_cols + 1)``
    bytes plus about 1.5 kB (palette, chunk headers and markup).

    Color indices are computed for the whole grid at once; a NaN cell raises
    ``ValueError``.  Every cell gets the color of the per-cell ``math.log10``
    loop: ``np.log10`` may differ from ``math.log10`` in the last bit, which
    moves a color only when the scaled level lies next to a half-integer, so
    every cell within 1e-9 of one is recomputed with the scalar expression
    (``_color_index``).  ``np.rint`` and ``round`` both round half to even.
    """
    values = np.asarray(values, dtype=float)
    n_rows, n_cols = values.shape
    cell = max(4, 480 // max(n_rows, n_cols, 1))

    levels = (np.log10(np.maximum(np.abs(values), _TINY)) - _FLOOR_LOG10) / _SPAN
    scaled = np.clip(levels, 0.0, 1.0) * (_RAMP_STEPS - 1)
    if np.isnan(scaled).any():
        raise ValueError("cannot convert float NaN to a color index")
    near_half = np.abs(scaled - np.floor(scaled) - 0.5) <= 1e-9
    index = np.rint(scaled).astype(np.uint8)
    for i, j in zip(*np.nonzero(near_half)):
        index[i, j] = _color_index(abs(values[i, j]))

    margin = 20
    width = n_cols * cell + 2 * margin
    height = n_rows * cell + 2 * margin
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        f'<rect x="0" y="0" width="{width}" height="{height}" fill="white"/>',
    ]
    if index.size:
        png = base64.b64encode(_indexed_png(index, color_ramp())).decode("ascii")
        parts.append(
            f'<image x="{margin}" y="{margin}" width="{n_cols * cell}" height="{n_rows * cell}" '
            f'preserveAspectRatio="none" image-rendering="optimizeSpeed" '
            f'style="image-rendering:pixelated" href="data:image/png;base64,{png}"/>'
        )
    parts.append(
        f'<rect x="{margin}" y="{margin}" width="{n_cols * cell}" height="{n_rows * cell}" '
        f'fill="none" stroke="black" stroke-width="1"/>'
    )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
