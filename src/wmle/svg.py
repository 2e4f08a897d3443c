"""Self-contained SVG line charts, no plotting dependency.

Fixed 800x600 viewBox, axis ticks at round numbers, one polyline per
series with a distinguishable stroke style, and a legend.  Non-finite
y-values split a series into separate segments (gaps).
"""

from __future__ import annotations

import math

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


def _nice_step(span: float) -> float:
    """A round step near ``span / 6``; 0.0 where it underflows or ``span``
    is not finite."""
    raw = span / 6
    magnitude = 10.0 ** math.floor(math.log10(raw)) if 0 < raw < math.inf else 0.0
    if magnitude == 0.0:
        return 0.0
    for mult in (1.0, 2.0, 2.5, 5.0, 10.0):
        if mult * magnitude >= raw:
            return mult * magnitude
    return 10.0 * magnitude


def _axis_range(lo: float, hi: float, pad: float) -> tuple[float, float]:
    """The axis range of data from ``lo`` to ``hi``: grown by ``pad`` times its
    span each side, after widening by half a unit (an ulp where that rounds
    away) if its tick step underflows.  ``DomainError`` if the span overflows."""
    margin = pad * (hi - lo)
    half = max(0.5, math.ulp(lo)) if _nice_step((hi + margin) - (lo - margin)) == 0.0 else 0.0
    a, b = lo - half, hi + half
    margin = pad * (b - a)
    if not (b + margin) - (a - margin) < math.inf:
        raise DomainError(f"the chart axis for values from {lo!r} to {hi!r} overflows")
    return a - margin, b + margin


def _ticks(lo: float, hi: float) -> list[float]:
    step = _nice_step(hi - lo)
    t = math.ceil(lo / step - 1e-9) * step
    ticks = []
    while t <= hi + 1e-9 * step:
        ticks.append(round(t, 12))
        if t + step == t:  # a step below half an ulp of t adds nothing
            break
        t += step
    return ticks


def _runs(flags: np.ndarray) -> list[tuple[int, int]]:
    """``(begin, end)`` of every maximal run of true entries of a 1-D boolean
    array, in order: the segments of a series, the complete rows of a table."""
    padded = np.zeros(flags.size + 2, dtype=bool)
    padded[1:-1] = flags
    edges = np.flatnonzero(padded[1:] != padded[:-1]).tolist()
    return list(zip(edges[::2], edges[1::2]))


def _fmt(value: float) -> str:
    return f"{value:.6g}"


def render_line_chart(x, series, *, title: str, x_label: str, y_label: str) -> str:
    """Render ``series`` (an ordered mapping label -> y array) against ``x``.

    Returns the SVG document as a string.
    """
    x = np.asarray(x, dtype=float)
    labels = list(series)
    ys = [np.asarray(series[label], dtype=float) for label in labels]
    finites = [np.isfinite(y) for y in ys]
    finite_y = np.concatenate([y[f] for y, f in zip(ys, finites)]) if ys else np.array([])
    if x.size == 0 or finite_y.size == 0:
        raise DomainError("chart needs at least one finite data point")
    if any(y.shape != x.shape for y in ys):
        raise DomainError("every series needs one y value per x value")
    x_lo, x_hi = _axis_range(float(np.min(x)), float(np.max(x)), 0.0)
    y_lo, y_hi = _axis_range(float(np.min(finite_y)), float(np.max(finite_y)), 0.04)

    plot_w = _WIDTH - _MARGIN_LEFT - _MARGIN_RIGHT
    plot_h = _HEIGHT - _MARGIN_TOP - _MARGIN_BOTTOM

    def sx(value):
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
    # coordinates are formatted once for every series; a run of finite points
    # is one segment, whose y coordinates one call formats beside their x text.
    points = [None] * (2 * x.size)
    points[::2] = ("%.2f " * x.size % tuple(np.broadcast_to(sx(x), x.shape).tolist())).split()
    for idx, (y, finite) in enumerate(zip(ys, finites)):
        color, dash = _STYLES[idx % len(_STYLES)]
        dash_attr = f' stroke-dasharray="{dash}"' if dash else ""
        points[1::2] = sy(y).tolist()
        for begin, end in _runs(finite):
            if end - begin == 1:
                cx, cy = points[2 * begin : 2 * end]
                out.append(f'<circle cx="{cx}" cy="{cy:.2f}" r="2.5" fill="{color}"/>')
            else:
                segment = "%s,%.2f " * (end - begin) % tuple(points[2 * begin : 2 * end])
                out.append(f'<polyline fill="none" stroke="{color}" stroke-width="2"{dash_attr} '
                           f'points="{segment[:-1]}"/>')

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
