"""Minimal deterministic SVG line plots (no rendering dependencies).

Output is plain SVG text built with fixed-precision coordinates, so identical
data produces byte-identical files that can be diffed in tests.
"""
from __future__ import annotations

import math
from typing import Sequence

__all__ = ["line_plot"]

PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b")

WIDTH, HEIGHT = 640, 420
MARGIN_L, MARGIN_R, MARGIN_T, MARGIN_B = 64, 16, 36, 48


def _bounds(values: list[float]) -> tuple[float, float]:
    lo, hi = min(values), max(values)
    if hi - lo < 1e-30:
        lo, hi = lo - 0.5, hi + 0.5
    pad = 0.05 * (hi - lo)
    return lo - pad, hi + pad


def _ticks(lo: float, hi: float, n: int = 5) -> list[float]:
    return [lo + (hi - lo) * i / (n - 1) for i in range(n)]


def _fmt(value: float) -> str:
    return f"{value:.4g}"


def _escape(text: str) -> str:
    # what xml.sax.saxutils.escape does, without importing urllib and http through it
    return text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


def line_plot(
    series: Sequence[tuple[str, Sequence[float], Sequence[float]]],
    *,
    title: str = "",
    xlabel: str = "",
    ylabel: str = "",
    markers: bool = False,
) -> str:
    """Render (label, xs, ys) series into one SVG document string."""
    if not series:
        raise ValueError("nothing to plot")
    xs_all = [float(x) for _, xs, _ in series for x in xs if math.isfinite(x)]
    ys_all = [float(y) for _, _, ys in series for y in ys if math.isfinite(y)]
    if not xs_all or not ys_all:
        raise ValueError("no finite data to plot")
    x_lo, x_hi = _bounds(xs_all)
    y_lo, y_hi = _bounds(ys_all)
    plot_w = WIDTH - MARGIN_L - MARGIN_R
    plot_h = HEIGHT - MARGIN_T - MARGIN_B

    def sx(x: float) -> float:
        return MARGIN_L + (x - x_lo) / (x_hi - x_lo) * plot_w

    def sy(y: float) -> float:
        return MARGIN_T + (y_hi - y) / (y_hi - y_lo) * plot_h

    out = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" height="{HEIGHT}" '
        f'viewBox="0 0 {WIDTH} {HEIGHT}">',
        f'<rect width="{WIDTH}" height="{HEIGHT}" fill="white"/>',
        f'<rect x="{MARGIN_L}" y="{MARGIN_T}" width="{plot_w}" height="{plot_h}" '
        f'fill="none" stroke="#333333" stroke-width="1"/>',
    ]
    if title:
        out.append(
            f'<text x="{WIDTH / 2:.1f}" y="22" text-anchor="middle" '
            f'font-family="sans-serif" font-size="15">{_escape(title)}</text>'
        )
    for x in _ticks(x_lo, x_hi):
        px = sx(x)
        out.append(
            f'<line x1="{px:.2f}" y1="{MARGIN_T + plot_h}" x2="{px:.2f}" '
            f'y2="{MARGIN_T + plot_h + 5}" stroke="#333333"/>'
        )
        out.append(
            f'<text x="{px:.2f}" y="{MARGIN_T + plot_h + 20}" text-anchor="middle" '
            f'font-family="sans-serif" font-size="11">{_fmt(x)}</text>'
        )
    for y in _ticks(y_lo, y_hi):
        py = sy(y)
        out.append(
            f'<line x1="{MARGIN_L - 5}" y1="{py:.2f}" x2="{MARGIN_L}" y2="{py:.2f}" stroke="#333333"/>'
        )
        out.append(
            f'<text x="{MARGIN_L - 8}" y="{py + 4:.2f}" text-anchor="end" '
            f'font-family="sans-serif" font-size="11">{_fmt(y)}</text>'
        )
    if xlabel:
        out.append(
            f'<text x="{MARGIN_L + plot_w / 2:.1f}" y="{HEIGHT - 10}" text-anchor="middle" '
            f'font-family="sans-serif" font-size="13">{_escape(xlabel)}</text>'
        )
    if ylabel:
        out.append(
            f'<text x="16" y="{MARGIN_T + plot_h / 2:.1f}" text-anchor="middle" '
            f'font-family="sans-serif" font-size="13" '
            f'transform="rotate(-90 16 {MARGIN_T + plot_h / 2:.1f})">{_escape(ylabel)}</text>'
        )
    for idx, (label, xs, ys) in enumerate(series):
        color = PALETTE[idx % len(PALETTE)]
        points = " ".join(
            f"{sx(float(x)):.2f},{sy(float(y)):.2f}"
            for x, y in zip(xs, ys)
            if math.isfinite(float(x)) and math.isfinite(float(y))
        )
        out.append(
            f'<polyline fill="none" stroke="{color}" stroke-width="1.5" points="{points}"/>'
        )
        if markers and len(xs):
            out.append(
                f'<circle cx="{sx(float(xs[0])):.2f}" cy="{sy(float(ys[0])):.2f}" r="4" '
                f'fill="{color}"/>'
            )
        ly = MARGIN_T + 16 + 16 * idx
        lx = MARGIN_L + plot_w - 150
        out.append(
            f'<line x1="{lx}" y1="{ly - 4}" x2="{lx + 22}" y2="{ly - 4}" '
            f'stroke="{color}" stroke-width="2"/>'
        )
        out.append(
            f'<text x="{lx + 28}" y="{ly}" font-family="sans-serif" font-size="12">{_escape(label)}</text>'
        )
    out.append("</svg>")
    return "\n".join(out) + "\n"
