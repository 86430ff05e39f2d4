"""Self-contained SVG charts for analysis reports.

Pure string assembly with fixed float formats: the same report always
renders to the same bytes.  MI-style reports become grouped bars (one
group per target kind, one bar per strategy, whiskers when a seed
spread is present); JSD reports become one line per target kind over a
log-tau axis; undefined curve points leave gaps.  A plotted cell that
is not a finite number, a negative value, or a tau that is not positive
raises DataError.
"""

from __future__ import annotations

import math
from pathlib import Path
from typing import Optional, Sequence

from .errors import DataError
from .report import AnalysisReport

_WIDTH = 680
_HEIGHT = 420
_MARGIN_L = 70
_MARGIN_R = 160
_MARGIN_T = 40
_MARGIN_B = 60
_X0, _Y0 = _MARGIN_L, _HEIGHT - _MARGIN_B  # the plot's bottom left corner
_PLOT_W, _PLOT_H = _WIDTH - _MARGIN_R - _MARGIN_L, _Y0 - _MARGIN_T

_PALETTE = ("#4878a8", "#e49444", "#5fa052", "#c65b5b", "#8268a8", "#a8a24e")


def _fmt(v: float) -> str:
    return f"{v:.2f}"


def _esc(text: str) -> str:
    return (
        str(text).replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")
    )


def _number(row: dict[str, str], column: str, positive: bool = False) -> float:
    """A plotted cell as a float: finite and nonnegative, or positive
    where the axis is logarithmic."""
    text = row[column]
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not (math.isfinite(value) and (value > 0 if positive else value >= 0)):
        need = "positive" if positive else "nonnegative"
        raise DataError(f"report cell {column}={text!r} is not a finite {need} number")
    return value


def _nice_max(value: float) -> float:
    if value <= 0:
        return 1.0
    exp = math.floor(math.log10(value))
    frac = value / 10**exp
    for step in (1.0, 2.0, 2.5, 5.0, 10.0):
        if frac <= step:
            return step * 10**exp
    return 10.0 ** (exp + 1)


def _axes(y_max: float, y_label: str, title: str) -> list[str]:
    x0, y0, x1, y1 = _X0, _Y0, _X0 + _PLOT_W, _MARGIN_T
    parts = [
        f'<text x="{_WIDTH // 2}" y="22" text-anchor="middle" '
        f'font-size="15" font-family="sans-serif">{_esc(title)}</text>',
        f'<line x1="{x0}" y1="{y0}" x2="{x1}" y2="{y0}" stroke="#333" stroke-width="1"/>',
        f'<line x1="{x0}" y1="{y0}" x2="{x0}" y2="{y1}" stroke="#333" stroke-width="1"/>',
        f'<text x="16" y="{(y0 + y1) // 2}" text-anchor="middle" font-size="12" '
        f'font-family="sans-serif" transform="rotate(-90 16 {(y0 + y1) // 2})">{_esc(y_label)}</text>',
    ]
    for i in range(5):
        frac = i / 4
        y = y0 - frac * (y0 - y1)
        value = frac * y_max
        parts.append(
            f'<line x1="{x0 - 4}" y1="{_fmt(y)}" x2="{x0}" y2="{_fmt(y)}" stroke="#333" stroke-width="1"/>'
        )
        parts.append(
            f'<text x="{x0 - 8}" y="{_fmt(y + 4)}" text-anchor="end" '
            f'font-size="11" font-family="sans-serif">{value:.3g}</text>'
        )
    return parts


_NO_DATA = (
    f'<text x="{_X0 + _PLOT_W // 2}" y="{_Y0 - _PLOT_H // 2}" text-anchor="middle" font-size="14" '
    f'fill="#888" font-family="sans-serif">no data</text>'
)


def _legend(parts: list[str], names: Sequence[str]) -> None:
    x = _WIDTH - _MARGIN_R + 16
    for i, name in enumerate(names):
        y = _MARGIN_T + 10 + 18 * i
        color = _PALETTE[i % len(_PALETTE)]
        parts.append(f'<rect x="{x}" y="{y}" width="12" height="12" fill="{color}"/>')
        parts.append(
            f'<text x="{x + 18}" y="{y + 10}" font-size="11" '
            f'font-family="sans-serif">{_esc(name)}</text>'
        )


def _bars(groups: list[tuple[str, list[tuple[int, float, float]]]], series: Sequence[str],
          y_max: float) -> list[str]:
    """Grouped bars: each group is its label and its bars, each a
    (series index, value, std) with a whisker where std > 0."""
    parts: list[str] = []
    group_w = _PLOT_W / len(groups)
    bar_w = min(40.0, group_w * 0.8 / len(series))
    for gi, (label, bars) in enumerate(groups):
        start = _X0 + gi * group_w + (group_w - bar_w * len(bars)) / 2
        for bi, (si, value, std) in enumerate(bars):
            height = max(0.0, value / y_max * _PLOT_H)
            x = start + bi * bar_w
            parts.append(
                f'<rect x="{_fmt(x)}" y="{_fmt(_Y0 - height)}" width="{_fmt(bar_w - 2)}" '
                f'height="{_fmt(height)}" fill="{_PALETTE[si % len(_PALETTE)]}"/>'
            )
            if std > 0:
                cx = x + (bar_w - 2) / 2
                lo = _Y0 - max(0.0, (value - std) / y_max * _PLOT_H)
                hi = _Y0 - min(_PLOT_H, (value + std) / y_max * _PLOT_H)
                parts.append(
                    f'<line x1="{_fmt(cx)}" y1="{_fmt(lo)}" x2="{_fmt(cx)}" y2="{_fmt(hi)}" '
                    f'stroke="#222" stroke-width="1"/>'
                )
        parts.append(
            f'<text x="{_fmt(_X0 + gi * group_w + group_w / 2)}" y="{_Y0 + 18}" '
            f'text-anchor="middle" font-size="11" font-family="sans-serif">{_esc(label)}</text>'
        )
    _legend(parts, series)
    return parts


def _render_mi(rows: list[dict[str, str]]) -> Optional[tuple[float, list[str]]]:
    if not rows:
        return None
    groups: list[str] = []
    strategies: list[str] = []
    values: dict[tuple[str, str], tuple[float, float]] = {}
    for row in rows:
        g, s = row["target_kind"], row["strategy"]
        if g not in groups:
            groups.append(g)
        if s not in strategies:
            strategies.append(s)
        std = _number(row, "seed_std") if row.get("seed_std") else 0.0
        values[(g, s)] = (_number(row, "mi_bits"), std)
    y_max = _nice_max(max(v + s for v, s in values.values()))
    bars = [(g, [(si, *values[(g, s)]) for si, s in enumerate(strategies) if (g, s) in values])
            for g in groups]
    return y_max, _bars(bars, strategies, y_max)


def _render_jsd(rows: list[dict[str, str]]) -> Optional[tuple[float, list[str]]]:
    defined_rows = [r for r in rows if r.get("defined") in ("1", "True", "true")]
    if not defined_rows:
        return None

    series: dict[str, list[tuple[float, float]]] = {}
    for row in defined_rows:
        series.setdefault(row["target_kind"], []).append(
            (_number(row, "tau", positive=True), _number(row, "jsd_bits"))
        )
    taus = sorted({_number(r, "tau", positive=True) for r in rows})
    log_lo, log_hi = math.log10(taus[0]), math.log10(taus[-1])
    span = (log_hi - log_lo) or 1.0
    y_max = _nice_max(max(v for pts in series.values() for _, v in pts))
    parts: list[str] = []

    def to_xy(tau: float, value: float) -> tuple[float, float]:
        x = _X0 + (math.log10(tau) - log_lo) / span * _PLOT_W
        y = _Y0 - value / y_max * _PLOT_H
        return x, y

    for tau in taus:
        x, _ = to_xy(tau, 0.0)
        parts.append(
            f'<text x="{_fmt(x)}" y="{_Y0 + 18}" text-anchor="middle" '
            f'font-size="10" font-family="sans-serif">{tau:g}</text>'
        )
    parts.append(
        f'<text x="{(_X0 + _WIDTH - _MARGIN_R) // 2}" y="{_Y0 + 38}" text-anchor="middle" '
        f'font-size="12" font-family="sans-serif">marginal threshold tau (log scale)</text>'
    )

    names = list(series)
    for i, name in enumerate(names):
        pts = sorted(series[name], key=lambda p: p[0], reverse=True)
        color = _PALETTE[i % len(_PALETTE)]
        coords = [to_xy(tau, v) for tau, v in pts]
        if len(coords) > 1:
            path = " ".join(f"{_fmt(x)},{_fmt(y)}" for x, y in coords)
            parts.append(
                f'<polyline points="{path}" fill="none" stroke="{color}" stroke-width="2"/>'
            )
        for x, y in coords:
            parts.append(f'<circle cx="{_fmt(x)}" cy="{_fmt(y)}" r="3" fill="{color}"/>')
    _legend(parts, names)
    return y_max, parts


def _render_coverage(rows: list[dict[str, str]]) -> Optional[tuple[float, list[str]]]:
    if not rows:
        return None
    metrics = ("overlap_ratio", "mean_r", "median_r")
    bars = [(row["dataset"], [(mi, min(1.0, _number(row, m)), 0.0) for mi, m in enumerate(metrics)])
            for row in rows]
    return 1.0, _bars(bars, metrics, 1.0)


# Each report kind's y-axis label, title and renderer; a renderer
# returns the y-axis maximum and the chart's body, or None for no data.
_CHARTS = {
    "mi": ("MI (bits)", "mutual information", _render_mi),
    "jsd": ("JSD (bits)", "low-frequency divergence", _render_jsd),
    "coverage": ("ratio", "vocabulary coverage", _render_coverage),
}


def render_svg(report: AnalysisReport, path: Optional[str | Path] = None) -> str:
    """Render a report to SVG markup; optionally write it to a file.

    Dispatch follows report.kind (any other kind draws as MI); an empty
    report still yields a valid chart frame with a "no data" annotation.
    """
    y_label, title, render = _CHARTS.get(report.kind, _CHARTS["mi"])
    rows = [dict(zip(report.columns, map(str, row))) for row in report.rows]
    y_max, body = render(rows) or (1.0, [_NO_DATA])
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_WIDTH}" height="{_HEIGHT}" '
        f'viewBox="0 0 {_WIDTH} {_HEIGHT}">',
        f'<rect width="{_WIDTH}" height="{_HEIGHT}" fill="white"/>',
        *_axes(y_max, y_label, title),
        *body,
        "</svg>",
    ]
    markup = "\n".join(parts) + "\n"
    if path is not None:
        with open(path, "w", encoding="utf-8", newline="\n") as handle:
            handle.write(markup)
    return markup
