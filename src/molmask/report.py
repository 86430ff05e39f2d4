"""Report tables and their CSV form.

An AnalysisReport is a kind, a column tuple and rows.  Its CSV bytes
are deterministic: fixed column order, one float format and
newline-terminated lines.  This module needs only the standard library,
so reading a report back (for ``plot``) loads no analysis layer.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field
from pathlib import Path

from .errors import DataError, ShapeMismatch, open_text

MI_COLUMNS = (
    "dataset", "target_kind", "strategy", "mi_bits", "h_y_bits",
    "relative_gain", "n_pairs", "seed_mean", "seed_std",
    "version", "seed", "config_hash",
)
JSD_COLUMNS = (
    "dataset", "target_kind", "tau", "jsd_bits", "labels_kept", "defined",
    "version", "seed", "config_hash",
)
COVERAGE_COLUMNS = (
    "dataset", "overlap_ratio", "mean_r", "median_r",
    "pct_r_ge_080", "pct_r_le_020",
    "version", "seed", "config_hash",
)


@dataclass
class AnalysisReport:
    """Rows ready for CSV or SVG emission."""

    kind: str
    columns: tuple[str, ...]
    rows: list[tuple] = field(default_factory=list)


def _format_cell(value) -> str:
    if isinstance(value, float):
        if math.isnan(value):
            return "nan"
        return f"{value:.10g}"
    return str(value)


def write_report_csv(report: AnalysisReport, path: str | Path) -> None:
    """Emit a report deterministically: fixed column order, fixed float
    format, newline-terminated lines, UTF-8."""
    with open(path, "w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(report.columns)
        for row in report.rows:
            writer.writerow([_format_cell(cell) for cell in row])


def read_report_csv(path: str | Path) -> AnalysisReport:
    """Load a report CSV back; kind is given by its header, which must
    be one of the report column sets.  A row whose width differs from
    the header raises ShapeMismatch naming its line."""
    with open_text(path, newline="") as handle:
        reader = csv.reader(handle)
        header = next(reader, None)
        if header is None:
            raise DataError(f"report {path} is empty")
        columns = tuple(header)
        kinds = {MI_COLUMNS: "mi", JSD_COLUMNS: "jsd", COVERAGE_COLUMNS: "coverage"}
        if columns not in kinds:
            raise DataError(f"{path} is not a report: its header matches no report column set")
        rows = []
        for row in reader:
            if len(row) != len(columns):
                raise ShapeMismatch(
                    f"{path}:{reader.line_num}: row has {len(row)} cells, "
                    f"the header {len(columns)}"
                )
            rows.append(tuple(row))
    return AnalysisReport(kind=kinds[columns], columns=columns, rows=rows)
