"""Minimal SVG emission: axis-framed heatmaps and polylines.

No plotting library, and deterministic (no timestamps, no randomness)
so that emitted figures are byte-stable for a given input.
"""

from __future__ import annotations

import math
from typing import Optional, Sequence

import numpy as np

from .errors import DomainError

_WIDTH = 640
_HEIGHT = 480
_ML, _MR, _MT, _MB = 70, 24, 34, 48

COLOR_POS = "#c24a3d"
COLOR_NEG = "#3d62c2"
COLOR_ZERO = "#e8e4da"


def _esc(text: str) -> str:
    return (str(text).replace("&", "&amp;").replace("<", "&lt;")
            .replace(">", "&gt;").replace('"', "&quot;"))


def _fmt(v: float) -> str:
    return f"{v:.2f}".rstrip("0").rstrip(".")


def _label(v: float) -> str:
    return f"{v:.4g}"


def sign_color(value: float) -> str:
    """Three-way sign color; non-finite values map to the zero color."""
    if not math.isfinite(value) or value == 0.0:
        return COLOR_ZERO
    return COLOR_POS if value > 0.0 else COLOR_NEG


def _frame(title: str, x_label: str, y_label: str,
           x_ticks: Sequence[tuple], y_ticks: Sequence[tuple]) -> list:
    """Axis frame, tick marks and labels; ticks are (pixel, text) pairs."""
    x0, x1 = _ML, _WIDTH - _MR
    y0, y1 = _HEIGHT - _MB, _MT
    parts = [
        f'<rect x="{x0}" y="{y1}" width="{x1 - x0}" height="{y0 - y1}" '
        'fill="none" stroke="#333" stroke-width="1"/>',
        f'<text x="{(x0 + x1) / 2:.1f}" y="{_MT - 12}" text-anchor="middle" '
        f'font-size="14" font-family="sans-serif">{_esc(title)}</text>',
        f'<text x="{(x0 + x1) / 2:.1f}" y="{_HEIGHT - 10}" text-anchor="middle" '
        f'font-size="12" font-family="sans-serif">{_esc(x_label)}</text>',
        f'<text x="16" y="{(y0 + y1) / 2:.1f}" text-anchor="middle" '
        f'font-size="12" font-family="sans-serif" '
        f'transform="rotate(-90 16 {(y0 + y1) / 2:.1f})">{_esc(y_label)}</text>',
    ]
    for px, text in x_ticks:
        parts.append(f'<line x1="{_fmt(px)}" y1="{y0}" x2="{_fmt(px)}" '
                     f'y2="{y0 + 5}" stroke="#333"/>')
        parts.append(f'<text x="{_fmt(px)}" y="{y0 + 18}" text-anchor="middle" '
                     f'font-size="10" font-family="sans-serif">{_esc(text)}</text>')
    for py, text in y_ticks:
        parts.append(f'<line x1="{x0 - 5}" y1="{_fmt(py)}" x2="{x0}" '
                     f'y2="{_fmt(py)}" stroke="#333"/>')
        parts.append(f'<text x="{x0 - 8}" y="{_fmt(py + 3)}" text-anchor="end" '
                     f'font-size="10" font-family="sans-serif">{_esc(text)}</text>')
    return parts


def _document(parts: list) -> str:
    body = "\n".join(parts)
    return (f'<svg xmlns="http://www.w3.org/2000/svg" width="{_WIDTH}" '
            f'height="{_HEIGHT}" viewBox="0 0 {_WIDTH} {_HEIGHT}">\n'
            f'<rect width="{_WIDTH}" height="{_HEIGHT}" fill="white"/>\n'
            f"{body}\n</svg>\n")


def _tick_subset(values: Sequence[float], positions: Sequence[float]) -> list:
    """At most 8 ticks, every step-th value."""
    step = max(1, math.ceil(len(values) / 8))
    return [(positions[i], _label(values[i])) for i in range(0, len(values), step)]


def heatmap(x_values: Sequence[float], y_values: Sequence[float],
            cell_values, *, title: str, x_label: str, y_label: str) -> str:
    """Cell grid colored by sign_color(value); cell_values broadcasts to
    (len(y_values), len(x_values)), and its [j][i] cell belongs to
    (x_values[i], y_values[j]).  Each value at cell_values' own shape is
    colored once.  Axis ticks sit at cell centers."""
    nx, ny = len(x_values), len(y_values)
    if nx == 0 or ny == 0:
        raise DomainError("requires a nonempty grid on both axes")
    try:
        cells = np.asarray(cell_values)
        colors = np.array([sign_color(v) for v in cells.ravel().tolist()], dtype=object)
        rows = np.broadcast_to(colors.reshape(cells.shape), (ny, nx)).tolist()
    except ValueError:
        raise DomainError("cell_values must broadcast to (len(y_values), len(x_values))") from None
    x0, x1 = _ML, _WIDTH - _MR
    y0, y1 = _HEIGHT - _MB, _MT
    cw = (x1 - x0) / nx
    ch = (y0 - y1) / ny
    # each column's x and each row's y are formatted once
    columns = [f'<rect x="{_fmt(x0 + i * cw)}" y="' for i in range(nx)]
    size = f'" width="{_fmt(cw)}" height="{_fmt(ch)}" fill="'
    parts = []
    for j, row in enumerate(rows):
        # larger y sits higher on the canvas
        tail = _fmt(y0 - (j + 1) * ch) + size
        parts.extend(f'{column}{tail}{color}" stroke="#ffffff" stroke-width="0.5"/>'
                     for column, color in zip(columns, row))
    x_ticks = _tick_subset(list(x_values), [x0 + (i + 0.5) * cw for i in range(nx)])
    y_ticks = _tick_subset(list(y_values), [y0 - (j + 0.5) * ch for j in range(ny)])
    parts.extend(_frame(title, x_label, y_label, x_ticks, y_ticks))
    return _document(parts)


def polyline(xs: Sequence[float], ys: Sequence[float], *, title: str,
             x_label: str, y_label: str,
             marker: Optional[Sequence[float]] = None) -> str:
    """Single curve with padded data bounds; marker, if given, is an
    (x, y) pair drawn as a filled dot."""
    if len(xs) != len(ys) or len(xs) < 2:
        raise DomainError("requires two equal-length arrays of at least 2 points")
    xs, ys = np.asarray(xs, dtype=float), np.asarray(ys, dtype=float)
    if not (np.isfinite(xs).all() and np.isfinite(ys).all()):
        raise DomainError("requires finite coordinates")
    lo_x, hi_x = float(xs.min()), float(xs.max())
    lo_y, hi_y = float(ys.min()), float(ys.max())
    pad_x = 0.05 * (hi_x - lo_x) or max(abs(lo_x), 1.0) * 1e-3
    pad_y = 0.05 * (hi_y - lo_y) or max(abs(lo_y), 1.0) * 1e-3
    lo_x, hi_x = lo_x - pad_x, hi_x + pad_x
    lo_y, hi_y = lo_y - pad_y, hi_y + pad_y
    x0, x1 = _ML, _WIDTH - _MR
    y0, y1 = _HEIGHT - _MB, _MT

    # pixels of a float or, elementwise with the same rounding, of an array
    def sx(v):
        return x0 + (v - lo_x) / (hi_x - lo_x) * (x1 - x0)

    def sy(v):
        return y0 - (v - lo_y) / (hi_y - lo_y) * (y0 - y1)

    pts = " ".join(f"{_fmt(x)},{_fmt(y)}" for x, y in zip(sx(xs).tolist(), sy(ys).tolist()))
    parts = [f'<polyline points="{pts}" fill="none" stroke="{COLOR_NEG}" '
             'stroke-width="1.2"/>']
    if marker is not None:
        parts.append(f'<circle cx="{_fmt(sx(marker[0]))}" cy="{_fmt(sy(marker[1]))}" '
                     f'r="3" fill="{COLOR_POS}"/>')
    ticks = 5
    x_ticks = [(sx(lo_x + k * (hi_x - lo_x) / (ticks - 1)),
                _label(lo_x + k * (hi_x - lo_x) / (ticks - 1))) for k in range(ticks)]
    y_ticks = [(sy(lo_y + k * (hi_y - lo_y) / (ticks - 1)),
                _label(lo_y + k * (hi_y - lo_y) / (ticks - 1))) for k in range(ticks)]
    parts.extend(_frame(title, x_label, y_label, x_ticks, y_ticks))
    return _document(parts)
