"""Minimal SVG scatter/line rendering for documentation-grade figures.

Fixed 800x600 viewBox, axis lines, tick labels at min/mid/max.  The document
is yielded in blocks of points, so a large cloud's text is never held whole.
"""

from __future__ import annotations

import math
import sys

import numpy as np

__all__ = ["render_scatter"]

_W, _H = 800, 600
_ML, _MR, _MT, _MB = 70, 20, 40, 50
_BLOCK = 4096  # points per block of text
_COLOURS = ["steelblue", "darkorange", "seagreen", "crimson", "purple", "saddlebrown"]


def _span(values):
    """(min, max) of values; a flat range widens by 1, or by one ulp where 1 rounds away."""
    lo, hi = float(values.min()), float(values.max())
    if hi == lo:
        pad = max(1.0, math.ulp(lo))
        lo, hi = max(lo - pad, -sys.float_info.max), min(hi + pad, sys.float_info.max)
    return lo, hi


def render_scatter(xs, ys, title, xlabel, ylabel, mode="points", labels=()):
    """Return an SVG document plotting (xs, ys), lists or arrays, as points or a polyline, as
    text blocks of _BLOCK points scaled as they are yielded; the input is checked at the call.
    ys may be a (len(xs), k) grid: one set of points or polyline per column, in _COLOURS."""
    xs, ys = np.asarray(xs, dtype=float), np.asarray(ys, dtype=float)
    if len(xs) != len(ys) or not len(xs):
        raise ValueError("need equal-length nonempty coordinate lists")
    (xlo, xhi), (ylo, yhi) = _span(xs), _span(ys)

    def sx(x):
        return _ML + (x - xlo) / (xhi - xlo) * (_W - _ML - _MR)

    def sy(y):
        return _H - _MB - (y - ylo) / (yhi - ylo) * (_H - _MT - _MB)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" viewBox="0 0 {_W} {_H}">',
        f'<rect width="{_W}" height="{_H}" fill="white"/>',
        f'<line x1="{_ML}" y1="{_H - _MB}" x2="{_W - _MR}" y2="{_H - _MB}" stroke="black"/>',
        f'<line x1="{_ML}" y1="{_MT}" x2="{_ML}" y2="{_H - _MB}" stroke="black"/>',
        f'<text x="{_W / 2}" y="25" text-anchor="middle" font-size="16">{title}</text>',
        f'<text x="{_W / 2}" y="{_H - 10}" text-anchor="middle" font-size="13">{xlabel}</text>',
        f'<text x="15" y="{_H / 2}" text-anchor="middle" font-size="13" '
        f'transform="rotate(-90 15 {_H / 2})">{ylabel}</text>',
    ]
    for t in (xlo, (xlo + xhi) / 2, xhi):
        parts.append(
            f'<line x1="{sx(t):.2f}" y1="{_H - _MB}" x2="{sx(t):.2f}" y2="{_H - _MB + 6}" stroke="black"/>'
        )
        parts.append(
            f'<text x="{sx(t):.2f}" y="{_H - _MB + 20}" text-anchor="middle" '
            f'font-size="12">{t:.4g}</text>'
        )
    for t in (ylo, (ylo + yhi) / 2, yhi):
        parts.append(
            f'<line x1="{_ML - 6}" y1="{sy(t):.2f}" x2="{_ML}" y2="{sy(t):.2f}" stroke="black"/>'
        )
        parts.append(
            f'<text x="{_ML - 10}" y="{sy(t):.2f}" text-anchor="end" '
            f'font-size="12">{t:.4g}</text>'
        )
    columns = ys.reshape(len(ys), -1).T
    colours = _COLOURS * len(columns)  # cycled, one per column
    if len(columns) > 1:  # the legend, one label per column
        parts += [f'<text x="{_W - _MR - 10}" y="{_MT + 15 * i}" text-anchor="end" font-size="12" '
                  f'fill="{colours[i - 1]}">{label}</text>' for i, label in enumerate(labels, 1)]
    # a block is one %-template: a line's points are joined by spaces, circles end lines
    if mode == "line":
        head, point, sep = '<polyline points="', "%.2f,%.2f", " "
        tail = '" fill="none" stroke="{}" stroke-width="1.5"/>\n'
    else:
        point = '<circle cx="%.2f" cy="%.2f" r="2" fill="{}"/>\n'
        head = sep = tail = ""

    def document():
        yield "\n".join(parts) + "\n"
        for column, colour in zip(columns, colours):
            yield head
            for lo in range(0, len(xs), _BLOCK):
                with np.errstate(all="ignore"):  # as float arithmetic: silent where not finite
                    xy = np.column_stack((sx(xs[lo:lo + _BLOCK]), sy(column[lo:lo + _BLOCK])))
                yield (sep if lo else "") + sep.join([point.format(colour)] * len(xy)) % tuple(
                    xy.ravel().tolist())
            yield tail.format(colour)
        yield "</svg>\n"

    return document()
