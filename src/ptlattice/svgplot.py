"""Self-contained SVG line charts (no plotting dependencies).

Just enough for the run outputs: several series over a shared x axis,
optional log-x, dashed styling for analytic reference curves, a small
legend.  Output is a single standalone .svg file; each line is drawn
with at most four points per pixel column (M4 decimation).

A line's points are written as "{:.2f}" writes each coordinate, but in
whole-array operations (_points): the coordinates times 100, rounded by
np.rint, split into a whole part and cents that index digit tables
(0-999 padded on the left with NUL, .00-.99), one 8-byte cell a
coordinate with its separator, the NUL padding then dropped.  This is
exact where every coordinate is at or above +0.0 and rounds below
1000.00: there v*100 is within 7.3e-12 (half its last-place unit) of
its exact value, so it rounds as the exact value does unless it lies
within 1e-9 of a half-integer.  A line with any coordinate outside that
(pixel coordinates lie in 0-640, so in practice a near-tie) is formatted
point by point instead.
"""

from __future__ import annotations

import html
import math
import sys
from dataclasses import dataclass
from functools import partial
from pathlib import Path

import numpy as np

# element text escaping (&, <, >); html, unlike xml.sax, imports no urllib
escape = partial(html.escape, quote=False)

PALETTE = ["#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b", "#17becf"]

# "{:.2f}" text of a coordinate as one 8-byte cell, a uint64: the whole part
# 0-999 (bytes 0-2, NUL for each leading 0), the cents .00-.99 (bytes 3-5)
# and the separator (byte 6) are OR-ed from three tables, on either byte order
_DIGITS = np.arange(1000)[:, None] // [100, 10, 1]
_ASCII = _DIGITS % 10 + ord("0")
_CELLS = np.zeros((1102, 8), dtype=np.uint8)
_CELLS[:1000, :3] = np.where((_DIGITS > 0) | [False, False, True], _ASCII, 0)
_CELLS[1000:1100, 3] = ord(".")
_CELLS[1000:1100, 4:6] = _ASCII[:100, 1:]
_CELLS[1100:, 6] = (ord(","), ord(" "))
_WHOLE, _CENTS, _SEPARATORS = np.split(_CELLS.view(np.uint64).ravel(), [1000, 1100])

WIDTH, HEIGHT = 640, 440
MARGIN_L, MARGIN_R, MARGIN_T, MARGIN_B = 64, 16, 40, 48


@dataclass
class Series:
    label: str
    x: np.ndarray
    y: np.ndarray
    dashed: bool = False


def _nice_ticks(lo: float, hi: float, target: int = 6) -> list[float]:
    # in halves: a span of two doubles may overflow; at least the smallest double
    raw = max((hi / 2 - lo / 2) / target * 2, math.ulp(0.0))
    mag = 10.0 ** math.floor(math.log10(raw))
    # raw itself where mag, a subnormal power of ten, rounds too far down
    step = next((mult * mag for mult in (1.0, 2.0, 5.0, 10.0) if raw <= mult * mag), raw)
    ticks = []
    t = math.ceil(lo / step) * step
    while t <= hi + 1e-12 * step:
        ticks.append(0.0 if abs(t) < step * 1e-9 else t)
        if not t < t + step < math.inf:  # past the largest double, or below its spacing at t
            break
        t += step
    return ticks


def _widen(lo: float, hi: float) -> tuple[float, float]:
    """(lo, hi) within the finite doubles; a single value widens by max(0.5, 1e-9 of it).

    A span below the smallest normal double counts as a single value; no
    rounding undoes the widening.
    """
    if hi - lo < sys.float_info.min:
        half = max(0.5, 1e-9 * abs(lo))
        lo, hi = lo - half, hi + half
    return max(lo, -sys.float_info.max), min(hi, sys.float_info.max)


def _labels(ticks: list[float]) -> list[str]:
    """Tick labels in the fewest significant digits, at least {:g}'s 6, that tell them apart."""
    for digits in range(6, 18):
        labels = [f"{t:.{digits}g}" for t in ticks]
        if len(set(labels)) == len(labels):
            break
    return labels


def _starts(a: np.ndarray) -> np.ndarray:
    """Mask of the entries that differ from the one before them; the first always does."""
    out = np.ones(a.size, dtype=bool)
    np.not_equal(a[1:], a[:-1], out=out[1:])
    return out


def _m4(px: np.ndarray, py: np.ndarray) -> np.ndarray:
    """Mask of the points a polyline needs at pixel resolution (M4 decimation).

    Consecutive points in one pixel column (floor of px) form a run; only
    the run's first, last, lowest and highest points are kept, in their
    order, so each column's drawn vertical extent is unchanged and a run of
    at most two points keeps all of them.
    """
    first = _starts(np.floor(px))
    keep = np.ones(first.size, dtype=bool)  # the last point ends its run
    np.logical_or(first[:-1], first[1:], out=keep[:-1])
    run = np.cumsum(first) - 1
    for extreme in (np.minimum, np.maximum):
        hit = np.flatnonzero(py == extreme.reduceat(py, np.flatnonzero(first))[run])
        keep[hit[_starts(run[hit])]] = True  # the first hit in each run
    return keep


def _points(x: np.ndarray, y: np.ndarray) -> str:
    """Polyline points "x,y x,y ...", each coordinate as "{:.2f}" writes it (module docstring)."""
    xy = np.column_stack((x, y))
    scaled = xy * 100
    rounded = np.rint(scaled)
    if (np.signbit(xy).any() or not (rounded < 100_000).all()
            or (np.abs(scaled - rounded) > 0.5 - 1e-9).any()):
        return " ".join(map("{:.2f},{:.2f}".format, x.tolist(), y.tolist()))
    whole, cents = np.divmod(rounded.astype(np.int64), 100)
    cells = _WHOLE[whole] | _CENTS[cents] | _SEPARATORS
    return cells.tobytes().translate(None, b"\0")[:-1].decode("ascii")


def render_line_chart(
    path,
    series: list[Series],
    *,
    title: str = "",
    x_label: str = "",
    y_label: str = "",
    x_log: bool = False,
) -> Path:
    cleaned = []
    for s in series:
        x = np.asarray(s.x, dtype=float)
        y = np.asarray(s.y, dtype=float)
        keep = np.isfinite(x) & np.isfinite(y)
        if x_log:
            keep &= x > 0
        if np.any(keep):
            cleaned.append((s, x[keep], y[keep]))
    if not cleaned:
        raise ValueError("nothing to plot")

    xs = np.concatenate([x for _, x, _ in cleaned])
    ys = np.concatenate([y for _, _, y in cleaned])
    x_min, x_max = float(xs.min()), float(xs.max())
    if x_log:
        xs = np.log10(xs)
    (x_lo, x_hi), (y_lo, y_hi) = (_widen(float(v.min()), float(v.max())) for v in (xs, ys))
    pad = 0.08 * (y_hi / 2 - y_lo / 2)  # 4% of the span, in halves as in _nice_ticks
    y_lo, y_hi = _widen(y_lo - pad, y_hi + pad)

    plot_w = WIDTH - MARGIN_L - MARGIN_R
    plot_h = HEIGHT - MARGIN_T - MARGIN_B

    # pixel coordinates of scalars or whole arrays; halves keep the differences finite
    def px(x):
        return MARGIN_L + (x / 2 - x_lo / 2) / (x_hi / 2 - x_lo / 2) * plot_w

    def py(y):
        return MARGIN_T + (y_hi / 2 - y / 2) / (y_hi / 2 - y_lo / 2) * plot_h

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" height="{HEIGHT}" '
        f'viewBox="0 0 {WIDTH} {HEIGHT}" font-family="sans-serif" font-size="12">',
        f'<rect width="{WIDTH}" height="{HEIGHT}" fill="white"/>',
    ]
    if title:
        parts.append(
            f'<text x="{WIDTH / 2}" y="20" text-anchor="middle" font-size="14">{escape(title)}</text>'
        )

    # axes box
    parts.append(
        f'<rect x="{MARGIN_L}" y="{MARGIN_T}" width="{plot_w}" height="{plot_h}" '
        'fill="none" stroke="black"/>'
    )

    if x_log:  # decades, where the range holds one
        decades = range(math.floor(x_lo), math.ceil(x_hi) + 1)
        x_ticks = [d for d in decades if x_lo - 1e-9 <= d <= x_hi + 1e-9]
        x_tick_labels = [f"1e{d}" for d in x_ticks]
        if not x_ticks:  # values in the data's range at their log10 (one value's axis has a decade)
            values = _nice_ticks(x_min, x_max)
            x_ticks, x_tick_labels = [math.log10(v) for v in values], _labels(values)
    else:
        x_ticks = _nice_ticks(x_lo, x_hi)
        x_tick_labels = _labels(x_ticks)
    for t, label in zip(x_ticks, x_tick_labels):
        x = px(t)
        parts.append(
            f'<line x1="{x:.1f}" y1="{MARGIN_T + plot_h}" x2="{x:.1f}" '
            f'y2="{MARGIN_T + plot_h + 5}" stroke="black"/>'
        )
        parts.append(
            f'<text x="{x:.1f}" y="{MARGIN_T + plot_h + 18}" text-anchor="middle">'
            f"{escape(label)}</text>"
        )
    y_ticks = _nice_ticks(y_lo, y_hi)
    for t, label in zip(y_ticks, _labels(y_ticks)):
        y = py(t)
        parts.append(
            f'<line x1="{MARGIN_L - 5}" y1="{y:.1f}" x2="{MARGIN_L}" y2="{y:.1f}" stroke="black"/>'
        )
        parts.append(
            f'<text x="{MARGIN_L - 8}" y="{y + 4:.1f}" text-anchor="end">{escape(label)}</text>'
        )
    if x_label:
        parts.append(
            f'<text x="{MARGIN_L + plot_w / 2}" y="{HEIGHT - 10}" text-anchor="middle">'
            f"{escape(x_label)}</text>"
        )
    if y_label:
        y_mid = MARGIN_T + plot_h / 2
        parts.append(
            f'<text x="16" y="{y_mid}" text-anchor="middle" '
            f'transform="rotate(-90 16 {y_mid})">{escape(y_label)}</text>'
        )

    # the lines, then the legend drawn over them: an entry per line, in its style
    legend, legend_y, x0 = [], MARGIN_T + 14, WIDTH - MARGIN_R - 150
    for i, (s, x, y) in enumerate(cleaned):
        color = PALETTE[i % len(PALETTE)]
        xp, yp = px(np.log10(x) if x_log else x), py(y)
        keep = _m4(xp, yp)
        pts = _points(xp[keep], yp[keep])
        dash = ' stroke-dasharray="6,4"' if s.dashed else ""
        parts.append(
            f'<polyline points="{pts}" fill="none" stroke="{color}" stroke-width="1.5"{dash}/>'
        )
        legend.append(
            f'<line x1="{x0}" y1="{legend_y}" x2="{x0 + 24}" y2="{legend_y}" '
            f'stroke="{color}" stroke-width="1.5"{dash}/>'
        )
        legend.append(f'<text x="{x0 + 30}" y="{legend_y + 4}">{escape(s.label)}</text>')
        legend_y += 16

    parts += legend
    parts.append("</svg>")
    out = Path(path)
    out.write_text("\n".join(parts) + "\n", encoding="utf-8")
    return out
