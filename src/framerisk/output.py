"""Deterministic CSV and SVG emitters for study results.

Both writers are pure functions of their inputs: repeated calls with the
same data produce byte-identical files (fixed number formatting, fixed
palette, no timestamps), which keeps them diff- and golden-test-friendly.
"""

from __future__ import annotations

import csv
import math
import sys
import warnings
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Sequence


def format_value(value) -> str:
    """Floats at 6 significant digits (``nan``, ``inf``, ``-inf`` included);
    everything else verbatim."""
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def emit_csv(path: str | Path, header: Sequence[str], rows: Iterable[Sequence]) -> Path:
    """Write an RFC-4180 CSV (UTF-8, LF, header first) and return the path."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(list(header))
        for row in rows:
            writer.writerow([format_value(v) for v in row])
    return path


@dataclass(frozen=True)
class Series:
    """One named line of a chart."""

    name: str
    x: Sequence[float]
    y: Sequence[float]


_PALETTE = ("#4063d8", "#cb3c33", "#389826", "#9558b2", "#e69f00", "#56b4e9", "#666666")
_WIDTH, _HEIGHT = 960, 600
_MARGIN_L, _MARGIN_R, _MARGIN_T, _MARGIN_B = 80, 200, 60, 70
_MAX = sys.float_info.max
_TICKS = 6  # about this many ticks on a linear axis
_ESCAPES = str.maketrans({"&": "&amp;", "<": "&lt;", ">": "&gt;", '"': "&quot;"})


def _nice_ticks(lo: float, hi: float) -> list[float]:
    """About ``_TICKS`` round ticks over ``[lo, hi]``, few for every finite
    ``lo < hi``: each step moves a tick by more than an ulp, up to ``inf``."""
    if hi <= lo:
        return [lo]
    raw = (hi - lo) / _TICKS if hi - lo < math.inf else hi / _TICKS - lo / _TICKS
    if raw <= math.ulp(max(abs(lo), abs(hi))):  # an axis a few ulps wide
        return [lo, hi]
    mag = 10.0 ** math.floor(math.log10(raw))
    for mult in (1.0, 2.0, 2.5, 5.0, 10.0):
        step = mult * mag
        if raw <= step:
            break
    first = math.ceil(lo / step) * step
    ticks = []
    t = first
    while t <= hi + 1e-9 * step and t < math.inf:
        ticks.append(0.0 if abs(t) < 1e-12 * step else t)
        t += step
    return ticks


def _tick_label(value: float) -> str:
    if value == 0:
        return "0"
    if abs(value) >= 1e4 or abs(value) < 1e-3:
        return f"{value:.0e}"
    return f"{value:.4g}"


def _axis(values: Sequence[float], start: float, end: float, log: bool = False, pad: float = 0.0):
    """Pixel map and ticks of one axis from ``start`` to ``end``, over the
    span of ``values`` (a unit span about a lone value) widened by ``pad`` of
    it at each end; on a ``log`` axis the values are log10 and the ticks
    whole decades.  Every finite value maps to a finite pixel."""
    lo, hi = (min(values), max(values)) if values else (0.0, 1.0)
    if hi == lo:  # from 2**52 on, a half moves no value; an ulp does
        step = max(0.5, math.ulp(lo))
        lo, hi = max(lo - step, -_MAX), min(hi + step, _MAX)
    # a span past the float range is taken in halves, exact but for subnormals
    half = 0.5 if hi - lo == math.inf else 1.0
    widen = pad * (hi * half - lo * half) / half
    lo, hi = max(lo - widen, -_MAX), min(hi + widen, _MAX)
    half = 0.5 if hi - lo == math.inf else 1.0
    low, span = lo * half, hi * half - lo * half

    def at(v: float) -> float:
        return start + (v * half - low) / span * (end - start)

    ticks = range(math.ceil(lo - 1e-9), math.floor(hi + 1e-9) + 1) if log else _nice_ticks(lo, hi)
    return at, ticks


def emit_svg(
    series: Sequence[Series],
    path: str | Path,
    title: str = "",
    x_label: str = "",
    y_label: str = "",
    log_x: bool = False,
) -> int:
    """Write a static SVG 1.1 line chart of every finite point, of positive x
    on a log axis, whatever its magnitude, with every text XML-escaped;
    returns the count dropped."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)

    # a log axis is a linear axis over the log10 of positive x
    to_axis, x_floor = (math.log10, 0.0) if log_x else (float, -math.inf)
    cleaned: list[tuple[str, list[float], list[float]]] = []
    dropped = 0
    for s in series:
        xs, ys = [], []
        for x, y in zip(s.x, s.y):
            if math.isfinite(x) and math.isfinite(y) and x > x_floor:
                xs.append(to_axis(x))
                ys.append(float(y))
            else:
                dropped += 1
        cleaned.append((s.name, xs, ys))
    if dropped:
        warnings.warn(f"dropped {dropped} non-plottable data point(s)", stacklevel=2)

    plot_l, plot_r = _MARGIN_L, _WIDTH - _MARGIN_R
    plot_t, plot_b = _MARGIN_T, _HEIGHT - _MARGIN_B
    px, x_ticks = _axis([x for _, xs, _ in cleaned for x in xs], plot_l, plot_r, log=log_x)
    py, y_ticks = _axis([y for _, _, ys in cleaned for y in ys], plot_b, plot_t, pad=0.05)

    out: list[str] = []

    def text(x, y, size: int, body: str, anchor: str = "middle", extra: str = "") -> None:
        anchor = f' text-anchor="{anchor}"' if anchor else ""
        out.append(f'<text x="{x}" y="{y}"{anchor} font-family="Helvetica,Arial,sans-serif" '
                   f'font-size="{size}"{extra}>{body.translate(_ESCAPES)}</text>')

    def line(x1, y1, x2, y2, stroke: str = "#e3e3e3", width: int = 1) -> None:
        out.append(f'<line x1="{x1}" y1="{y1}" x2="{x2}" y2="{y2}" stroke="{stroke}" stroke-width="{width}"/>')

    out.append(
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{_WIDTH}" height="{_HEIGHT}" viewBox="0 0 {_WIDTH} {_HEIGHT}">'
    )
    out.append(f'<rect width="{_WIDTH}" height="{_HEIGHT}" fill="#ffffff"/>')
    mid_x, mid_y = f"{(plot_l + plot_r) / 2:.2f}", f"{(plot_t + plot_b) / 2:.2f}"
    if title:
        text(mid_x, 34, 19, title)

    # Gridlines and ticks.
    for t in x_ticks:
        x = f"{px(t):.2f}"
        line(x, plot_t, x, plot_b)
        text(x, plot_b + 22, 13, f"1e{t}" if log_x else _tick_label(t))
    for t in y_ticks:
        y = py(t)
        line(plot_l, f"{y:.2f}", plot_r, f"{y:.2f}")
        text(plot_l - 8, f"{y + 4:.2f}", 13, _tick_label(t), anchor="end")
    out.append(
        f'<rect x="{plot_l}" y="{plot_t}" width="{plot_r - plot_l}" height="{plot_b - plot_t}" '
        f'fill="none" stroke="#222222" stroke-width="1.5"/>'
    )
    if x_label:
        text(mid_x, _HEIGHT - 22, 15, x_label)
    if y_label:
        text(24, mid_y, 15, y_label, extra=f' transform="rotate(-90 24 {mid_y})"')

    # Series lines, markers and legend.
    for i, (name, xs, ys) in enumerate(cleaned):
        color = _PALETTE[i % len(_PALETTE)]
        pts = " ".join(f"{px(x):.2f},{py(y):.2f}" for x, y in zip(xs, ys))
        if len(xs) > 1:
            out.append(f'<polyline points="{pts}" fill="none" stroke="{color}" stroke-width="2"/>')
        for x, y in zip(xs, ys):
            out.append(f'<circle cx="{px(x):.2f}" cy="{py(y):.2f}" r="3" fill="{color}"/>')
        ly = plot_t + 10 + 22 * i
        line(plot_r + 14, f"{ly:.2f}", plot_r + 44, f"{ly:.2f}", color, 2)
        text(plot_r + 50, f"{ly + 4:.2f}", 13, name, anchor="")
    out.append("</svg>")
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("\n".join(out) + "\n")
    return dropped
