"""Minimal deterministic SVG scatter plots.

Hand-rolled so report files are byte-stable: no library version strings, no
timestamps, fixed float formatting throughout.
"""
from __future__ import annotations

import math
import sys
from typing import Sequence

_W, _H = 640, 480
_ML, _MR, _MT, _MB = 72, 24, 48, 56


def _fmt(v: float) -> str:
    return f"{v:.2f}"


def _nice_step(span: float) -> float:
    raw = span / 5.0
    mag = 10.0 ** math.floor(math.log10(raw))
    for mult in (1.0, 2.0, 5.0, 10.0):
        if raw <= mult * mag:
            return mult * mag
    return 10.0 * mag


def _ticks(lo: float, hi: float) -> list[float]:
    step = _nice_step(hi - lo)
    first = math.ceil(lo / step) * step
    ticks = []
    t = first
    while t <= hi + step * 1e-9:
        ticks.append(0.0 if abs(t) < step * 1e-9 else t)
        t += step
    return ticks


#: A span below this share of the values' magnitude, or below the smallest
#: normal double, is drawn as a point: its tick step would round to 0 or
#: vanish in the rounding of the tick values.
_MIN_SPAN = 1e-12


def _expand(lo: float, hi: float) -> tuple[float, float]:
    if hi - lo <= max(abs(lo), abs(hi)) * _MIN_SPAN or hi - lo < sys.float_info.min:
        pad = max(abs(lo), 1.0) * 0.1
        return lo - pad, hi + pad
    pad = (hi - lo) * 0.05
    return lo - pad, hi + pad


def scatter_svg(
    points: Sequence[tuple[float, float]],
    title: str,
    xlabel: str,
    ylabel: str,
    ref_line: tuple[float, float],
) -> str:
    """Scatter plot as an SVG document string, with the reference line
    ``ref_line`` = (slope, intercept) drawn dashed across the x-range."""
    xs = [p[0] for p in points]
    ys = [p[1] for p in points]
    xlo, xhi = _expand(min(xs, default=0.0), max(xs, default=1.0))
    ylo, yhi = _expand(min(ys, default=0.0), max(ys, default=1.0))
    slope, inter = ref_line
    for x in (xlo, xhi):
        y = slope * x + inter
        ylo, yhi = min(ylo, y), max(yhi, y)

    def px(x: float) -> float:
        return _ML + (x - xlo) / (xhi - xlo) * (_W - _ML - _MR)

    def py(y: float) -> float:
        return _H - _MB - (y - ylo) / (yhi - ylo) * (_H - _MT - _MB)

    out = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_W}" height="{_H}" '
        f'viewBox="0 0 {_W} {_H}">',
        f'<rect width="{_W}" height="{_H}" fill="white"/>',
        f'<text x="{_W / 2:.0f}" y="24" font-family="sans-serif" font-size="15" '
        f'text-anchor="middle">{_esc(title)}</text>',
    ]
    # axes
    out.append(
        f'<path d="M {_fmt(_ML)} {_fmt(_MT)} L {_fmt(_ML)} {_fmt(_H - _MB)} '
        f'L {_fmt(_W - _MR)} {_fmt(_H - _MB)}" stroke="black" fill="none"/>'
    )
    for t in _ticks(xlo, xhi):
        x = px(t)
        out.append(
            f'<line x1="{_fmt(x)}" y1="{_fmt(_H - _MB)}" x2="{_fmt(x)}" '
            f'y2="{_fmt(_H - _MB + 5)}" stroke="black"/>'
        )
        out.append(
            f'<text x="{_fmt(x)}" y="{_fmt(_H - _MB + 18)}" font-family="sans-serif" '
            f'font-size="11" text-anchor="middle">{t:.4g}</text>'
        )
    for t in _ticks(ylo, yhi):
        y = py(t)
        out.append(
            f'<line x1="{_fmt(_ML - 5)}" y1="{_fmt(y)}" x2="{_fmt(_ML)}" '
            f'y2="{_fmt(y)}" stroke="black"/>'
        )
        out.append(
            f'<text x="{_fmt(_ML - 8)}" y="{_fmt(y + 4)}" font-family="sans-serif" '
            f'font-size="11" text-anchor="end">{t:.4g}</text>'
        )
    out.append(
        f'<text x="{(_ML + _W - _MR) / 2:.0f}" y="{_H - 12}" '
        f'font-family="sans-serif" font-size="12" text-anchor="middle">{_esc(xlabel)}</text>'
    )
    out.append(
        f'<text x="18" y="{(_MT + _H - _MB) / 2:.0f}" font-family="sans-serif" '
        f'font-size="12" text-anchor="middle" '
        f'transform="rotate(-90 18 {(_MT + _H - _MB) / 2:.0f})">{_esc(ylabel)}</text>'
    )
    out.append(
        f'<line x1="{_fmt(px(xlo))}" y1="{_fmt(py(slope * xlo + inter))}" '
        f'x2="{_fmt(px(xhi))}" y2="{_fmt(py(slope * xhi + inter))}" '
        f'stroke="#888" stroke-dasharray="5,4"/>'
    )
    for x, y in points:
        out.append(
            f'<circle cx="{_fmt(px(x))}" cy="{_fmt(py(y))}" r="3.5" '
            f'fill="#1f6fb0" fill-opacity="0.8"/>'
        )
    out.append("</svg>")
    return "\n".join(out) + "\n"


def _esc(text: str) -> str:
    return (
        text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")
    )
