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

_PALETTE = ("#4878a8", "#e49444", "#5fa052", "#c65b5b", "#8268a8", "#a8a24e")


def _fmt(v: float) -> str:
    return f"{v:.2f}"


def _esc(text: str) -> str:
    return (
        str(text).replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")
    )


def _row_maps(report: AnalysisReport) -> list[dict[str, str]]:
    return [dict(zip(report.columns, (str(c) for c in row))) for row in report.rows]


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
    x0, y0 = _MARGIN_L, _HEIGHT - _MARGIN_B
    x1, y1 = _WIDTH - _MARGIN_R, _MARGIN_T
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


def _no_data(parts: list[str]) -> None:
    cx = (_MARGIN_L + _WIDTH - _MARGIN_R) // 2
    cy = (_MARGIN_T + _HEIGHT - _MARGIN_B) // 2
    parts.append(
        f'<text x="{cx}" y="{cy}" text-anchor="middle" font-size="14" '
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


def _render_mi(report: AnalysisReport) -> list[str]:
    rows = _row_maps(report)
    parts: list[str] = []
    if not rows:
        parts.extend(_axes(1.0, "MI (bits)", "mutual information"))
        _no_data(parts)
        return parts

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
    parts.extend(_axes(y_max, "MI (bits)", "mutual information"))
    x0, y0 = _MARGIN_L, _HEIGHT - _MARGIN_B
    plot_w = _WIDTH - _MARGIN_R - _MARGIN_L
    plot_h = y0 - _MARGIN_T
    group_w = plot_w / len(groups)
    bar_w = min(40.0, group_w * 0.8 / len(strategies))

    for gi, group in enumerate(groups):
        present = [s for s in strategies if (group, s) in values]
        total_w = bar_w * len(present)
        start = x0 + gi * group_w + (group_w - total_w) / 2
        for bi, strategy in enumerate(present):
            value, std = values[(group, strategy)]
            height = max(0.0, value / y_max * plot_h)
            x = start + bi * bar_w
            color = _PALETTE[strategies.index(strategy) % len(_PALETTE)]
            parts.append(
                f'<rect x="{_fmt(x)}" y="{_fmt(y0 - height)}" width="{_fmt(bar_w - 2)}" '
                f'height="{_fmt(height)}" fill="{color}"/>'
            )
            if std > 0:
                cx = x + (bar_w - 2) / 2
                lo = y0 - max(0.0, (value - std) / y_max * plot_h)
                hi = y0 - min(plot_h, (value + std) / y_max * plot_h)
                parts.append(
                    f'<line x1="{_fmt(cx)}" y1="{_fmt(lo)}" x2="{_fmt(cx)}" y2="{_fmt(hi)}" '
                    f'stroke="#222" stroke-width="1"/>'
                )
        parts.append(
            f'<text x="{_fmt(x0 + gi * group_w + group_w / 2)}" y="{y0 + 18}" '
            f'text-anchor="middle" font-size="11" font-family="sans-serif">{_esc(group)}</text>'
        )
    _legend(parts, strategies)
    return parts


def _render_jsd(report: AnalysisReport) -> list[str]:
    rows = _row_maps(report)
    defined_rows = [r for r in rows if r.get("defined") in ("1", "True", "true")]
    parts: list[str] = []
    if not defined_rows:
        parts.extend(_axes(1.0, "JSD (bits)", "low-frequency divergence"))
        _no_data(parts)
        return parts

    series: dict[str, list[tuple[float, float]]] = {}
    for row in defined_rows:
        series.setdefault(row["target_kind"], []).append(
            (_number(row, "tau", positive=True), _number(row, "jsd_bits"))
        )
    taus = sorted({_number(r, "tau", positive=True) for r in rows})
    log_lo, log_hi = math.log10(taus[0]), math.log10(taus[-1])
    span = (log_hi - log_lo) or 1.0
    y_max = _nice_max(max(v for pts in series.values() for _, v in pts))
    parts.extend(_axes(y_max, "JSD (bits)", "low-frequency divergence"))

    x0, y0 = _MARGIN_L, _HEIGHT - _MARGIN_B
    plot_w = _WIDTH - _MARGIN_R - _MARGIN_L
    plot_h = y0 - _MARGIN_T

    def to_xy(tau: float, value: float) -> tuple[float, float]:
        x = x0 + (math.log10(tau) - log_lo) / span * plot_w
        y = y0 - value / y_max * plot_h
        return x, y

    for tau in taus:
        x, _ = to_xy(tau, 0.0)
        parts.append(
            f'<text x="{_fmt(x)}" y="{y0 + 18}" text-anchor="middle" '
            f'font-size="10" font-family="sans-serif">{tau:g}</text>'
        )
    parts.append(
        f'<text x="{(x0 + _WIDTH - _MARGIN_R) // 2}" y="{y0 + 38}" text-anchor="middle" '
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
    return parts


def _render_coverage(report: AnalysisReport) -> list[str]:
    rows = _row_maps(report)
    parts: list[str] = []
    if not rows:
        parts.extend(_axes(1.0, "ratio", "vocabulary coverage"))
        _no_data(parts)
        return parts
    metrics = ("overlap_ratio", "mean_r", "median_r")
    parts.extend(_axes(1.0, "ratio", "vocabulary coverage"))
    x0, y0 = _MARGIN_L, _HEIGHT - _MARGIN_B
    plot_w = _WIDTH - _MARGIN_R - _MARGIN_L
    plot_h = y0 - _MARGIN_T
    group_w = plot_w / len(rows)
    bar_w = min(40.0, group_w * 0.8 / len(metrics))
    for gi, row in enumerate(rows):
        start = x0 + gi * group_w + (group_w - bar_w * len(metrics)) / 2
        for bi, metric in enumerate(metrics):
            value = _number(row, metric)
            height = max(0.0, min(1.0, value)) * plot_h
            parts.append(
                f'<rect x="{_fmt(start + bi * bar_w)}" y="{_fmt(y0 - height)}" '
                f'width="{_fmt(bar_w - 2)}" height="{_fmt(height)}" '
                f'fill="{_PALETTE[bi % len(_PALETTE)]}"/>'
            )
        parts.append(
            f'<text x="{_fmt(x0 + gi * group_w + group_w / 2)}" y="{y0 + 18}" '
            f'text-anchor="middle" font-size="11" font-family="sans-serif">{_esc(row["dataset"])}</text>'
        )
    _legend(parts, metrics)
    return parts


def render_svg(report: AnalysisReport, path: Optional[str | Path] = None) -> str:
    """Render a report to SVG markup; optionally write it to a file.

    Dispatch follows report.kind; an empty report still yields a valid
    chart frame with a "no data" annotation.
    """
    if report.kind == "jsd":
        body = _render_jsd(report)
    elif report.kind == "coverage":
        body = _render_coverage(report)
    else:
        body = _render_mi(report)
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_WIDTH}" height="{_HEIGHT}" '
        f'viewBox="0 0 {_WIDTH} {_HEIGHT}">',
        f'<rect width="{_WIDTH}" height="{_HEIGHT}" fill="white"/>',
        *body,
        "</svg>",
    ]
    markup = "\n".join(parts) + "\n"
    if path is not None:
        with open(path, "w", newline="\n") as handle:
            handle.write(markup)
    return markup
