"""Deterministic CSV and SVG emitters for study results.

Both writers are pure functions of their inputs: repeated calls with the
same data produce byte-identical files (fixed number formatting, fixed
palette, no timestamps), which keeps them diff- and golden-test-friendly.
"""

from __future__ import annotations

import csv
import math
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


def _escape(text: str) -> str:
    return (
        text.replace("&", "&amp;")
        .replace("<", "&lt;")
        .replace(">", "&gt;")
        .replace('"', "&quot;")
    )


def _nice_ticks(lo: float, hi: float, target: int = 6) -> list[float]:
    """About ``target`` round ticks over ``[lo, hi]``, few for every finite
    ``lo < hi``: each step moves a tick by more than an ulp, up to ``inf``."""
    if hi <= lo:
        return [lo]
    raw = (hi - lo) / target if hi - lo < math.inf else hi / target - lo / target
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


def emit_svg(
    series: Sequence[Series],
    path: str | Path,
    title: str = "",
    x_label: str = "",
    y_label: str = "",
    log_x: bool = False,
) -> int:
    """Write a static SVG 1.1 line chart; returns the count of dropped
    non-finite (or, on a log axis, nonpositive) points."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)

    cleaned: list[tuple[str, list[float], list[float]]] = []
    dropped = 0
    for s in series:
        xs, ys = [], []
        for x, y in zip(s.x, s.y):
            ok = math.isfinite(x) and math.isfinite(y) and (not log_x or x > 0)
            if ok:
                xs.append(float(x))
                ys.append(float(y))
            else:
                dropped += 1
        cleaned.append((s.name, xs, ys))
    if dropped:
        warnings.warn(f"dropped {dropped} non-plottable data point(s)", stacklevel=2)

    all_x = [x for _, xs, _ in cleaned for x in xs]
    all_y = [y for _, _, ys in cleaned for y in ys]
    if all_x:
        x_lo, x_hi = min(all_x), max(all_x)
        y_lo, y_hi = min(all_y), max(all_y)
    else:
        x_lo, x_hi, y_lo, y_hi = 0.0, 1.0, 0.0, 1.0
    if log_x:
        x_lo, x_hi = math.log10(x_lo) if all_x else 0.0, math.log10(x_hi) if all_x else 1.0
    if x_hi == x_lo:
        x_lo, x_hi = x_lo - 0.5, x_hi + 0.5
    if y_hi == y_lo:
        y_lo, y_hi = y_lo - 0.5, y_hi + 0.5
    pad = 0.05 * (y_hi - y_lo)
    y_lo, y_hi = y_lo - pad, y_hi + pad

    plot_l, plot_r = _MARGIN_L, _WIDTH - _MARGIN_R
    plot_t, plot_b = _MARGIN_T, _HEIGHT - _MARGIN_B

    def px(x: float) -> float:
        v = math.log10(x) if log_x else x
        return plot_l + (v - x_lo) / (x_hi - x_lo) * (plot_r - plot_l)

    def py(y: float) -> float:
        return plot_b - (y - y_lo) / (y_hi - y_lo) * (plot_b - plot_t)

    out: list[str] = []
    out.append(
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{_WIDTH}" height="{_HEIGHT}" viewBox="0 0 {_WIDTH} {_HEIGHT}">'
    )
    out.append(f'<rect width="{_WIDTH}" height="{_HEIGHT}" fill="#ffffff"/>')
    if title:
        out.append(
            f'<text x="{(plot_l + plot_r) / 2:.2f}" y="34" text-anchor="middle" '
            f'font-family="Helvetica,Arial,sans-serif" font-size="19">{_escape(title)}</text>'
        )

    # Gridlines and ticks.
    if log_x:
        lo_dec, hi_dec = math.floor(x_lo), math.ceil(x_hi)
        x_ticks = [10.0**d for d in range(int(lo_dec), int(hi_dec) + 1) if x_lo - 1e-9 <= d <= x_hi + 1e-9]
    else:
        x_ticks = _nice_ticks(x_lo, x_hi)
    for t in x_ticks:
        x = px(t)
        out.append(
            f'<line x1="{x:.2f}" y1="{plot_t}" x2="{x:.2f}" y2="{plot_b}" stroke="#e3e3e3" stroke-width="1"/>'
        )
        label = f"1e{int(round(math.log10(t)))}" if log_x else _tick_label(t)
        out.append(
            f'<text x="{x:.2f}" y="{plot_b + 22}" text-anchor="middle" '
            f'font-family="Helvetica,Arial,sans-serif" font-size="13">{label}</text>'
        )
    for t in _nice_ticks(y_lo, y_hi):
        y = py(t)
        out.append(
            f'<line x1="{plot_l}" y1="{y:.2f}" x2="{plot_r}" y2="{y:.2f}" stroke="#e3e3e3" stroke-width="1"/>'
        )
        out.append(
            f'<text x="{plot_l - 8}" y="{y + 4:.2f}" text-anchor="end" '
            f'font-family="Helvetica,Arial,sans-serif" font-size="13">{_tick_label(t)}</text>'
        )
    out.append(
        f'<rect x="{plot_l}" y="{plot_t}" width="{plot_r - plot_l}" height="{plot_b - plot_t}" '
        f'fill="none" stroke="#222222" stroke-width="1.5"/>'
    )
    if x_label:
        out.append(
            f'<text x="{(plot_l + plot_r) / 2:.2f}" y="{_HEIGHT - 22}" text-anchor="middle" '
            f'font-family="Helvetica,Arial,sans-serif" font-size="15">{_escape(x_label)}</text>'
        )
    if y_label:
        out.append(
            f'<text x="24" y="{(plot_t + plot_b) / 2:.2f}" text-anchor="middle" '
            f'font-family="Helvetica,Arial,sans-serif" font-size="15" '
            f'transform="rotate(-90 24 {(plot_t + plot_b) / 2:.2f})">{_escape(y_label)}</text>'
        )

    # Series lines, markers and legend.
    for i, (name, xs, ys) in enumerate(cleaned):
        color = _PALETTE[i % len(_PALETTE)]
        pts = " ".join(f"{px(x):.2f},{py(y):.2f}" for x, y in zip(xs, ys))
        if len(xs) > 1:
            out.append(
                f'<polyline points="{pts}" fill="none" stroke="{color}" stroke-width="2"/>'
            )
        for x, y in zip(xs, ys):
            out.append(f'<circle cx="{px(x):.2f}" cy="{py(y):.2f}" r="3" fill="{color}"/>')
        ly = plot_t + 10 + 22 * i
        out.append(
            f'<line x1="{plot_r + 14}" y1="{ly:.2f}" x2="{plot_r + 44}" y2="{ly:.2f}" '
            f'stroke="{color}" stroke-width="2"/>'
        )
        out.append(
            f'<text x="{plot_r + 50}" y="{ly + 4:.2f}" font-family="Helvetica,Arial,sans-serif" '
            f'font-size="13">{_escape(name)}</text>'
        )
    out.append("</svg>")
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("\n".join(out) + "\n")
    return dropped
