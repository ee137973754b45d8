"""Minimal deterministic SVG line plots.

Pure text assembly: identical input yields byte-identical output, which
keeps plot files diffable and testable.
"""

from __future__ import annotations

import math
from typing import Sequence

Series = tuple[str, Sequence[float], Sequence[float]]

_PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b")

_WIDTH = 720
_HEIGHT = 440
_MARGIN_L = 62
_MARGIN_R = 16
_MARGIN_T = 34
_MARGIN_B = 46
_N_TICKS = 6


def _check_series(series: Sequence[Series]):
    if not series:
        raise ValueError("at least one series is required")
    for name, xs, ys in series:
        if len(xs) == 0 or len(ys) == 0:
            raise ValueError(f"series {name!r} is empty")
        if len(xs) != len(ys):
            raise ValueError(f"series {name!r}: x/y length mismatch")
        for v in xs:
            if not math.isfinite(v):
                raise ValueError(f"series {name!r}: non-finite x value {v!r}")
        for v in ys:
            if not math.isfinite(v):
                raise ValueError(f"series {name!r}: non-finite y value {v!r}")


def _span(lo: float, hi: float) -> tuple[float, float]:
    if hi > lo:
        return lo, hi
    pad = max(abs(lo), 1.0) * 0.5
    return lo - pad, hi + pad


def render_svg_plot(series: Sequence[Series], x_label: str = "", y_label: str = "",
                    y_range: tuple[float, float] | None = None) -> str:
    """Render named (x, y) series as a standalone SVG document.

    y_range pins the vertical axis (e.g. (0, 100) for BIS); otherwise the
    data range is used.  Non-finite values are rejected.
    """
    _check_series(series)
    x_lo, x_hi = _span(min(min(s[1]) for s in series), max(max(s[1]) for s in series))
    if y_range is not None:
        y_lo, y_hi = _span(float(y_range[0]), float(y_range[1]))
    else:
        y_lo, y_hi = _span(min(min(s[2]) for s in series), max(max(s[2]) for s in series))

    plot_w = _WIDTH - _MARGIN_L - _MARGIN_R
    plot_h = _HEIGHT - _MARGIN_T - _MARGIN_B

    def px(x: float) -> float:
        return _MARGIN_L + (x - x_lo) / (x_hi - x_lo) * plot_w

    def py(y: float) -> float:
        return _MARGIN_T + (y_hi - y) / (y_hi - y_lo) * plot_h

    out = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_WIDTH}" height="{_HEIGHT}" '
        f'viewBox="0 0 {_WIDTH} {_HEIGHT}">',
        f'<rect x="0" y="0" width="{_WIDTH}" height="{_HEIGHT}" fill="white"/>',
    ]

    # axes
    x0, y0 = _MARGIN_L, _MARGIN_T + plot_h
    out.append(f'<line x1="{x0}" y1="{y0}" x2="{x0 + plot_w}" y2="{y0}" '
               'stroke="black" stroke-width="1"/>')
    out.append(f'<line x1="{x0}" y1="{_MARGIN_T}" x2="{x0}" y2="{y0}" '
               'stroke="black" stroke-width="1"/>')

    for i in range(_N_TICKS):
        fx = x_lo + (x_hi - x_lo) * i / (_N_TICKS - 1)
        fy = y_lo + (y_hi - y_lo) * i / (_N_TICKS - 1)
        tx, ty = px(fx), py(fy)
        out.append(f'<line x1="{tx:.2f}" y1="{y0}" x2="{tx:.2f}" y2="{y0 + 4}" '
                   'stroke="black" stroke-width="1"/>')
        out.append(f'<text x="{tx:.2f}" y="{y0 + 18}" text-anchor="middle" '
                   f'font-family="sans-serif" font-size="11">{fx:.6g}</text>')
        out.append(f'<line x1="{x0 - 4}" y1="{ty:.2f}" x2="{x0}" y2="{ty:.2f}" '
                   'stroke="black" stroke-width="1"/>')
        out.append(f'<text x="{x0 - 7}" y="{ty + 4:.2f}" text-anchor="end" '
                   f'font-family="sans-serif" font-size="11">{fy:.6g}</text>')

    if x_label:
        out.append(f'<text x="{_MARGIN_L + plot_w / 2:.2f}" y="{_HEIGHT - 10}" '
                   f'text-anchor="middle" font-family="sans-serif" font-size="12">'
                   f'{x_label}</text>')
    if y_label:
        cx, cy = 16, _MARGIN_T + plot_h / 2
        out.append(f'<text x="{cx}" y="{cy:.2f}" text-anchor="middle" '
                   f'font-family="sans-serif" font-size="12" '
                   f'transform="rotate(-90 {cx} {cy:.2f})">{y_label}</text>')

    for idx, (name, xs, ys) in enumerate(series):
        color = _PALETTE[idx % len(_PALETTE)]
        pts = " ".join(f"{px(x):.2f},{py(y):.2f}" for x, y in zip(xs, ys))
        out.append(f'<polyline fill="none" stroke="{color}" stroke-width="1.5" '
                   f'points="{pts}"/>')
        ly = _MARGIN_T + 14 + 16 * idx
        lx = _MARGIN_L + plot_w - 150
        out.append(f'<line x1="{lx}" y1="{ly - 4}" x2="{lx + 22}" y2="{ly - 4}" '
                   f'stroke="{color}" stroke-width="1.5"/>')
        out.append(f'<text x="{lx + 28}" y="{ly}" font-family="sans-serif" '
                   f'font-size="11">{name}</text>')

    out.append("</svg>")
    return "\n".join(out) + "\n"
