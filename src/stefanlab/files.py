"""Result files, one format each: CSV as csv-module rows (``\\r\\n`` ends)
with Python ``int`` cells as is and every other cell ``repr(float(x))``, the
shortest text that reads back to the same double; JSON as ``json.dumps(
payload, sort_keys=True, indent=2)`` plus a final newline; hand-rolled SVG
line plots (no plotting dependency)."""

from __future__ import annotations

import csv
import json
import math

import numpy as np


def write_csv(path, header, rows):
    """Write ``header`` and ``rows`` as CSV in the format above."""
    with open(path, "w", newline="") as fh:
        wr = csv.writer(fh)
        wr.writerow(header)
        wr.writerows([x if isinstance(x, int) else repr(float(x))
                      for x in row] for row in rows)


def write_json(path, payload):
    """Write ``payload`` as JSON in the format above."""
    with open(path, "w") as fh:
        fh.write(json.dumps(payload, sort_keys=True, indent=2) + "\n")


_W, _H = 640, 420
_ML, _MR, _MT, _MB = 70, 20, 20, 50


def _ticks(lo: float, hi: float):
    raw = (hi - lo) / 6
    mag = 10.0 ** math.floor(math.log10(raw))
    for mult in (1.0, 2.0, 2.5, 5.0, 10.0):
        if raw <= mult * mag:
            step = mult * mag
            break
    start = math.ceil(lo / step) * step
    out = []
    t = start
    while t <= hi + 1e-12 * abs(step):
        out.append(round(t, 12))
        t += step
    return out


def line_plot(path, xs, series, xlabel: str, ylabel: str, title: str):
    """Write an SVG with one or more (label, y-array, color) series.

    ``series`` is a list of (label, y, color) tuples sharing the x grid.
    """
    xs = np.asarray(xs, dtype=float)
    ylo = min(float(np.min(y)) for _, y, _ in series)
    yhi = max(float(np.max(y)) for _, y, _ in series)
    if yhi == ylo:
        yhi = ylo + 1.0
    pad = 0.05 * (yhi - ylo)
    ylo, yhi = ylo - pad, yhi + pad
    xlo, xhi = float(xs.min()), float(xs.max())
    if xhi == xlo:
        xhi = xlo + 1.0

    def px(x):
        return _ML + (x - xlo) / (xhi - xlo) * (_W - _ML - _MR)

    def py(y):
        return _H - _MB - (y - ylo) / (yhi - ylo) * (_H - _MT - _MB)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_W}" height="{_H}" '
        f'viewBox="0 0 {_W} {_H}">',
        f'<rect width="{_W}" height="{_H}" fill="white"/>',
        f'<rect x="{_ML}" y="{_MT}" width="{_W - _ML - _MR}" '
        f'height="{_H - _MT - _MB}" fill="none" stroke="black"/>',
    ]
    for t in _ticks(xlo, xhi):
        x = px(t)
        parts.append(f'<line x1="{x:.1f}" y1="{_H - _MB}" x2="{x:.1f}" '
                     f'y2="{_H - _MB + 5}" stroke="black"/>')
        parts.append(f'<text x="{x:.1f}" y="{_H - _MB + 18}" font-size="11" '
                     f'text-anchor="middle">{t:g}</text>')
    for t in _ticks(ylo, yhi):
        y = py(t)
        parts.append(f'<line x1="{_ML - 5}" y1="{y:.1f}" x2="{_ML}" '
                     f'y2="{y:.1f}" stroke="black"/>')
        parts.append(f'<text x="{_ML - 8}" y="{y + 4:.1f}" font-size="11" '
                     f'text-anchor="end">{t:g}</text>')
    for i, (label, ys, color) in enumerate(series):
        pts = " ".join(f"{px(x):.2f},{py(float(y)):.2f}"
                       for x, y in zip(xs, ys) if np.isfinite(y))
        parts.append(f'<polyline points="{pts}" fill="none" '
                     f'stroke="{color}" stroke-width="1.5"/>')
        yleg = _MT + 16 + 16 * i
        parts.append(f'<line x1="{_W - _MR - 120}" y1="{yleg}" '
                     f'x2="{_W - _MR - 95}" y2="{yleg}" stroke="{color}" '
                     f'stroke-width="1.5"/>')
        parts.append(f'<text x="{_W - _MR - 90}" y="{yleg + 4}" '
                     f'font-size="11">{label}</text>')
    parts.append(f'<text x="{(_ML + _W - _MR) / 2}" y="{_H - 12}" '
                 f'font-size="12" text-anchor="middle">{xlabel}</text>')
    parts.append(f'<text x="16" y="{(_MT + _H - _MB) / 2}" font-size="12" '
                 f'text-anchor="middle" transform="rotate(-90 16 '
                 f'{(_MT + _H - _MB) / 2})">{ylabel}</text>')
    parts.append(f'<text x="{(_ML + _W - _MR) / 2}" y="14" font-size="13" '
                 f'text-anchor="middle">{title}</text>')
    parts.append("</svg>")
    with open(path, "w") as fh:
        fh.write("\n".join(parts) + "\n")
