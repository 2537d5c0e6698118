"""Minimal deterministic SVG charts.

Hand-rolled on purpose: the reproduction pipeline promises byte-identical
artifacts across runs and thread counts, which rules out plotting stacks
that embed timestamps, object ids, or font-dependent layout. Only the two
chart shapes the studies need are provided: multi-series lines with error
bars, and an observed-versus-estimated scatter with the identity diagonal.
"""

from __future__ import annotations

import math

_WIDTH = 720.0
_HEIGHT = 540.0
_LEFT, _RIGHT = 85.0, 700.0
_TOP, _BOTTOM = 45.0, 470.0
_PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b")


def _fmt(v: float) -> str:
    return f"{v:.2f}"


class _Axis:
    """Maps data values to pixels, linearly or in log10 space."""

    def __init__(self, values, log: bool, lo_px: float, hi_px: float):
        finite = [v for v in values if math.isfinite(v)]
        if log:
            finite = [v for v in finite if v > 0.0]
        if not finite:
            finite = [0.1, 1.0]
        lo, hi = min(finite), max(finite)
        if log:
            self.floor = lo
            lo, hi = math.log10(lo), math.log10(hi)
        if hi - lo < 1e-12:
            lo, hi = lo - 0.5, hi + 0.5
        pad = 0.05 * (hi - lo)
        self.lo, self.hi = lo - pad, hi + pad
        self.log = log
        self.lo_px, self.hi_px = lo_px, hi_px

    def to_px(self, v: float) -> float:
        if self.log:
            v = math.log10(max(v, self.floor))  # clamp keeps bars drawable
        frac = (v - self.lo) / (self.hi - self.lo)
        return self.lo_px + frac * (self.hi_px - self.lo_px)

    def ticks(self) -> list[tuple[float, str]]:
        if self.log:
            decades = range(math.ceil(self.lo), math.floor(self.hi) + 1)
            marks = [(10.0 ** d, f"{10.0 ** d:g}") for d in decades]
            if len(marks) >= 2:
                return marks
        out = []
        for i in range(5):
            v = self.lo + (self.hi - self.lo) * i / 4.0
            shown = 10.0 ** v if self.log else v
            out.append((shown, f"{shown:.3g}"))
        return out


def _header(title: str) -> list[str]:
    return [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_WIDTH:g}" '
        f'height="{_HEIGHT:g}" viewBox="0 0 {_WIDTH:g} {_HEIGHT:g}">',
        f'<rect width="{_WIDTH:g}" height="{_HEIGHT:g}" fill="white"/>',
        f'<text x="{_fmt((_LEFT + _RIGHT) / 2)}" y="25" text-anchor="middle" '
        f'font-family="sans-serif" font-size="16">{_escape(title)}</text>',
        f'<rect x="{_fmt(_LEFT)}" y="{_fmt(_TOP)}" width="{_fmt(_RIGHT - _LEFT)}" '
        f'height="{_fmt(_BOTTOM - _TOP)}" fill="none" stroke="black"/>',
    ]


def _escape(text: str) -> str:
    return (text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;"))


def _axes(parts: list[str], xaxis: _Axis, yaxis: _Axis,
          x_label: str, y_label: str) -> None:
    for value, label in xaxis.ticks():
        px = xaxis.to_px(value)
        if not (_LEFT - 0.5 <= px <= _RIGHT + 0.5):
            continue
        parts.append(f'<line x1="{_fmt(px)}" y1="{_fmt(_BOTTOM)}" '
                     f'x2="{_fmt(px)}" y2="{_fmt(_BOTTOM + 5)}" stroke="black"/>')
        parts.append(f'<text x="{_fmt(px)}" y="{_fmt(_BOTTOM + 20)}" '
                     f'text-anchor="middle" font-family="sans-serif" '
                     f'font-size="12">{label}</text>')
    for value, label in yaxis.ticks():
        py = yaxis.to_px(value)
        if not (_TOP - 0.5 <= py <= _BOTTOM + 0.5):
            continue
        parts.append(f'<line x1="{_fmt(_LEFT - 5)}" y1="{_fmt(py)}" '
                     f'x2="{_fmt(_LEFT)}" y2="{_fmt(py)}" stroke="black"/>')
        parts.append(f'<text x="{_fmt(_LEFT - 8)}" y="{_fmt(py + 4)}" '
                     f'text-anchor="end" font-family="sans-serif" '
                     f'font-size="12">{label}</text>')
    parts.append(f'<text x="{_fmt((_LEFT + _RIGHT) / 2)}" y="{_fmt(_HEIGHT - 15)}" '
                 f'text-anchor="middle" font-family="sans-serif" '
                 f'font-size="13">{_escape(x_label)}</text>')
    parts.append(f'<text x="20" y="{_fmt((_TOP + _BOTTOM) / 2)}" '
                 f'text-anchor="middle" font-family="sans-serif" font-size="13" '
                 f'transform="rotate(-90 20 {_fmt((_TOP + _BOTTOM) / 2)})">'
                 f'{_escape(y_label)}</text>')


def line_chart(series, *, title: str, x_label: str, y_label: str,
               x_log: bool = False) -> str:
    """Multi-series line chart on a log10 y axis; each series is
    (label, xs, ys, errs or None)."""
    all_x = [x for _, xs, _, _ in series for x in xs]
    all_y = []
    for _, _, ys, errs in series:
        all_y.extend(ys)
        if errs is not None:
            all_y.extend(y + e for y, e in zip(ys, errs))
    xaxis = _Axis(all_x, x_log, _LEFT, _RIGHT)
    yaxis = _Axis(all_y, True, _BOTTOM, _TOP)
    parts = _header(title)
    _axes(parts, xaxis, yaxis, x_label, y_label)
    for s, (label, xs, ys, errs) in enumerate(series):
        color = _PALETTE[s % len(_PALETTE)]
        pts = [(xaxis.to_px(x), yaxis.to_px(y)) for x, y in zip(xs, ys)]
        coords = " ".join(f"{_fmt(px)},{_fmt(py)}" for px, py in pts)
        parts.append(f'<polyline points="{coords}" fill="none" '
                     f'stroke="{color}" stroke-width="1.5"/>')
        if errs is not None:
            for x, y, e in zip(xs, ys, errs):
                px = xaxis.to_px(x)
                top = yaxis.to_px(y + e)
                bot = yaxis.to_px(max(y - e, yaxis.floor))
                parts.append(f'<line x1="{_fmt(px)}" y1="{_fmt(top)}" '
                             f'x2="{_fmt(px)}" y2="{_fmt(bot)}" '
                             f'stroke="{color}" stroke-width="1"/>')
        for px, py in pts:
            parts.append(f'<circle cx="{_fmt(px)}" cy="{_fmt(py)}" r="3" '
                         f'fill="{color}"/>')
        ly = _TOP + 16 + 16 * s
        parts.append(f'<line x1="{_fmt(_RIGHT - 150)}" y1="{_fmt(ly - 4)}" '
                     f'x2="{_fmt(_RIGHT - 125)}" y2="{_fmt(ly - 4)}" '
                     f'stroke="{color}" stroke-width="2"/>')
        parts.append(f'<text x="{_fmt(_RIGHT - 120)}" y="{_fmt(ly)}" '
                     f'font-family="sans-serif" font-size="12">'
                     f'{_escape(label)}</text>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def scatter_chart(xs, ys, *, title: str, x_label: str, y_label: str) -> str:
    """Scatter of paired values on log10 axes with the identity diagonal."""
    pooled = list(xs) + list(ys)
    xaxis = _Axis(pooled, True, _LEFT, _RIGHT)
    yaxis = _Axis(pooled, True, _BOTTOM, _TOP)
    parts = _header(title)
    _axes(parts, xaxis, yaxis, x_label, y_label)
    lo, hi = 10.0 ** xaxis.lo, 10.0 ** xaxis.hi
    parts.append(f'<line x1="{_fmt(xaxis.to_px(lo))}" '
                 f'y1="{_fmt(yaxis.to_px(lo))}" '
                 f'x2="{_fmt(xaxis.to_px(hi))}" '
                 f'y2="{_fmt(yaxis.to_px(hi))}" '
                 f'stroke="gray" stroke-dasharray="6,4"/>')
    for x, y in zip(xs, ys):
        parts.append(f'<circle cx="{_fmt(xaxis.to_px(x))}" '
                     f'cy="{_fmt(yaxis.to_px(y))}" r="3.5" '
                     f'fill="{_PALETTE[0]}" fill-opacity="0.6"/>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def write_svg(path: str, content: str) -> None:
    with open(path, "w", newline="") as fh:
        fh.write(content)
