"""SVG rendering: well-formed, deterministic, self-contained."""

import xml.etree.ElementTree as ET

from molmask import (
    render_svg,
    run_coverage,
    run_jsd_analysis,
    run_mask_sim,
    run_mi_analysis,
    MaskConfig,
)
from molmask.workbench import AnalysisReport, COVERAGE_COLUMNS, JSD_COLUMNS, MI_COLUMNS

from conftest import counted_column, signature_lists, usable_records, vocab_of


def reports(records):
    usable = usable_records(records)
    vocab = vocab_of([r.graph for r in usable])
    columns = [counted_column(records, kind, vocab) for kind in ("atom_type", "motif")]
    return [
        run_mi_analysis(records, columns, dataset_name="d"),
        run_jsd_analysis(records, columns, dataset_name="d"),
        run_coverage(vocab, signature_lists([r.graph for r in usable]), dataset_name="d"),
        run_mask_sim(
            records[:20], ["uniform", "motifpred"], MaskConfig(ratio=0.25),
            dataset_name="d", repeats=2,
        ),
    ]


class TestRenderSvg:
    def test_well_formed_xml(self, ring_marker_records):
        for report in reports(ring_marker_records):
            markup = render_svg(report)
            root = ET.fromstring(markup)
            assert root.tag.endswith("svg")

    def test_deterministic(self, ring_marker_records):
        for report in reports(ring_marker_records):
            assert render_svg(report) == render_svg(report)

    def test_no_external_references(self, ring_marker_records):
        # Only the SVG namespace URI may appear; no linked resources.
        for report in reports(ring_marker_records):
            markup = render_svg(report)
            assert "href" not in markup
            assert "url(" not in markup

    def test_writes_file(self, ring_marker_records, tmp_path):
        report = reports(ring_marker_records)[0]
        path = tmp_path / "mi.svg"
        markup = render_svg(report, path)
        assert path.read_text() == markup

    def test_empty_reports_annotated(self):
        for kind, columns in (
            ("mi", MI_COLUMNS),
            ("jsd", JSD_COLUMNS),
            ("coverage", COVERAGE_COLUMNS),
        ):
            markup = render_svg(AnalysisReport(kind=kind, columns=columns))
            ET.fromstring(markup)
            assert "no data" in markup

    def test_undefined_jsd_points_rendered(self, ring_marker_records):
        # A grid reaching far below the rarest label produces undefined
        # points; the curve must still render as valid markup.
        usable = usable_records(ring_marker_records)
        vocab = vocab_of([r.graph for r in usable])
        report = run_jsd_analysis(
            ring_marker_records, [counted_column(ring_marker_records, "motif", vocab)],
            dataset_name="d", taus=(1.0, 0.5, 1e-9),
        )
        flags = [row[5] for row in report.rows]
        assert False in flags and True in flags
        ET.fromstring(render_svg(report))
