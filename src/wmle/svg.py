"""Self-contained SVG line charts, no plotting dependency.

Fixed 800x600 viewBox, axis ticks at round numbers, one polyline per
series with a distinguishable stroke style, and a legend.  Non-finite
y-values split a series into separate segments (gaps).
"""

from __future__ import annotations

import math
import operator

import numpy as np

from .errors import DomainError

__all__ = ["render_line_chart"]

_WIDTH = 800
_HEIGHT = 600
_MARGIN_LEFT = 80
_MARGIN_RIGHT = 30
_MARGIN_TOP = 50
_MARGIN_BOTTOM = 65

_STYLES = (
    ("#1b6ca8", ""),
    ("#c23b22", "9,5"),
    ("#5a5a5a", "3,4"),
)


def _nice_step(span: float, target_ticks: int = 6) -> float:
    """A round step near ``span / target_ticks``; 0.0 where it underflows."""
    raw = span / max(target_ticks, 1)
    magnitude = 10.0 ** math.floor(math.log10(raw)) if raw > 0 else 0.0
    if magnitude == 0.0:
        return 0.0
    for mult in (1.0, 2.0, 2.5, 5.0, 10.0):
        if mult * magnitude >= raw:
            return mult * magnitude
    return 10.0 * magnitude


def _ticks(lo: float, hi: float) -> list[float]:
    if not (hi > lo):
        hi = lo + 1.0
    step = _nice_step(hi - lo)
    first = math.ceil(lo / step - 1e-9) * step
    ticks = []
    t = first
    while t <= hi + 1e-9 * step:
        ticks.append(round(t, 12))
        if t + step == t:  # a step below half an ulp of t adds nothing
            break
        t += step
    return ticks


def _fmt(value: float) -> str:
    return f"{value:.6g}"


def render_line_chart(x, series, *, title: str, x_label: str, y_label: str) -> str:
    """Render ``series`` (an ordered mapping label -> y array) against ``x``.

    Returns the SVG document as a string.
    """
    x = np.asarray(x, dtype=float)
    labels = list(series)
    ys = [np.asarray(series[label], dtype=float) for label in labels]
    finite_y = np.concatenate([y[np.isfinite(y)] for y in ys]) if ys else np.array([])
    if x.size == 0 or finite_y.size == 0:
        raise DomainError("chart needs at least one finite data point")
    if any(y.shape != x.shape for y in ys):
        raise DomainError("every series needs one y value per x value")
    x_lo, x_hi = float(np.min(x)), float(np.max(x))
    y_lo, y_hi = float(np.min(finite_y)), float(np.max(finite_y))
    pad = 0.04 * (y_hi - y_lo)
    if _nice_step((y_hi + pad) - (y_lo - pad)) == 0.0:
        # A flat series, or one narrower than a subnormal tick step.
        half = max(0.5, math.ulp(y_lo))  # y +- 0.5 may round to y from 2**52
        y_lo -= half
        y_hi += half
        pad = 0.04 * (y_hi - y_lo)
    y_lo -= pad
    y_hi += pad

    plot_w = _WIDTH - _MARGIN_LEFT - _MARGIN_RIGHT
    plot_h = _HEIGHT - _MARGIN_TOP - _MARGIN_BOTTOM

    def sx(value):
        if x_hi == x_lo:
            return _MARGIN_LEFT + plot_w / 2.0
        return _MARGIN_LEFT + (value - x_lo) / (x_hi - x_lo) * plot_w

    def sy(value):
        return _MARGIN_TOP + (y_hi - value) / (y_hi - y_lo) * plot_h

    out = [
        f'<svg xmlns="http://www.w3.org/2000/svg" viewBox="0 0 {_WIDTH} {_HEIGHT}" '
        f'width="{_WIDTH}" height="{_HEIGHT}">',
        f'<rect x="0" y="0" width="{_WIDTH}" height="{_HEIGHT}" fill="white"/>',
        f'<text x="{_WIDTH / 2:.1f}" y="28" text-anchor="middle" '
        f'font-family="sans-serif" font-size="18">{title}</text>',
    ]

    # Grid and ticks.
    for tick in _ticks(x_lo, x_hi):
        px = sx(tick)
        out.append(
            f'<line x1="{px:.2f}" y1="{_MARGIN_TOP}" x2="{px:.2f}" '
            f'y2="{_HEIGHT - _MARGIN_BOTTOM}" stroke="#dddddd" stroke-width="1"/>'
        )
        out.append(
            f'<text x="{px:.2f}" y="{_HEIGHT - _MARGIN_BOTTOM + 20}" text-anchor="middle" '
            f'font-family="sans-serif" font-size="12">{_fmt(tick)}</text>'
        )
    for tick in _ticks(y_lo, y_hi):
        py = sy(tick)
        out.append(
            f'<line x1="{_MARGIN_LEFT}" y1="{py:.2f}" x2="{_WIDTH - _MARGIN_RIGHT}" '
            f'y2="{py:.2f}" stroke="#dddddd" stroke-width="1"/>'
        )
        out.append(
            f'<text x="{_MARGIN_LEFT - 8}" y="{py + 4:.2f}" text-anchor="end" '
            f'font-family="sans-serif" font-size="12">{_fmt(tick)}</text>'
        )

    # Axes.
    out.append(
        f'<line x1="{_MARGIN_LEFT}" y1="{_HEIGHT - _MARGIN_BOTTOM}" '
        f'x2="{_WIDTH - _MARGIN_RIGHT}" y2="{_HEIGHT - _MARGIN_BOTTOM}" '
        f'stroke="black" stroke-width="1.5"/>'
    )
    out.append(
        f'<line x1="{_MARGIN_LEFT}" y1="{_MARGIN_TOP}" x2="{_MARGIN_LEFT}" '
        f'y2="{_HEIGHT - _MARGIN_BOTTOM}" stroke="black" stroke-width="1.5"/>'
    )
    out.append(
        f'<text x="{_MARGIN_LEFT + plot_w / 2:.1f}" y="{_HEIGHT - 18}" text-anchor="middle" '
        f'font-family="sans-serif" font-size="14">{x_label}</text>'
    )
    out.append(
        f'<text x="22" y="{_MARGIN_TOP + plot_h / 2:.1f}" text-anchor="middle" '
        f'font-family="sans-serif" font-size="14" '
        f'transform="rotate(-90 22 {_MARGIN_TOP + plot_h / 2:.1f})">{y_label}</text>'
    )

    # Series.  sx and sy run over whole arrays: per point they take the same
    # IEEE operations as on a float, so they give the same digits.  The x
    # coordinates are formatted once for every series, each series' y
    # coordinates in one call; a run of finite points is one segment.
    n = x.size
    px = np.broadcast_to(sx(x), x.shape).tolist()
    x_text = ("%.2f, " * n % tuple(px)).split(" ")
    for idx, (label, y) in enumerate(zip(labels, ys)):
        color, dash = _STYLES[idx % len(_STYLES)]
        dash_attr = f' stroke-dasharray="{dash}"' if dash else ""
        y_text = ("%.2f " * n % tuple(sy(y).tolist())).split(" ")
        points = list(map(operator.add, x_text, y_text))
        edges = np.flatnonzero(np.diff(np.isfinite(y), prepend=False, append=False)).tolist()
        for begin, end in zip(edges[::2], edges[1::2]):
            if end - begin == 1:
                cx, cy = x_text[begin][:-1], y_text[begin]
                out.append(f'<circle cx="{cx}" cy="{cy}" r="2.5" fill="{color}"/>')
            else:
                out.append(
                    f'<polyline fill="none" stroke="{color}" stroke-width="2"{dash_attr} '
                    f'points="{" ".join(points[begin:end])}"/>'
                )

    # Legend, top-right corner of the plot area.
    legend_x = _WIDTH - _MARGIN_RIGHT - 170
    legend_y = _MARGIN_TOP + 12
    out.append(
        f'<rect x="{legend_x - 10}" y="{legend_y - 16}" width="180" '
        f'height="{22 * len(labels) + 10}" fill="white" stroke="#999999"/>'
    )
    for idx, label in enumerate(labels):
        color, dash = _STYLES[idx % len(_STYLES)]
        dash_attr = f' stroke-dasharray="{dash}"' if dash else ""
        y_pos = legend_y + 22 * idx
        out.append(
            f'<line x1="{legend_x}" y1="{y_pos - 4}" x2="{legend_x + 34}" y2="{y_pos - 4}" '
            f'stroke="{color}" stroke-width="2"{dash_attr}/>'
        )
        out.append(
            f'<text x="{legend_x + 42}" y="{y_pos}" font-family="sans-serif" '
            f'font-size="13">{label}</text>'
        )

    out.append("</svg>")
    return "\n".join(out) + "\n"
