"""Corpus ingestion, exact counting, analysis runners, report files."""

import math

import numpy as np
import pytest

import molmask
from molmask import (
    DataError,
    DatasetManifest,
    EmptyCounts,
    LabeledRecord,
    MaskConfig,
    MissingColumn,
    ShapeMismatch,
    analysis_records,
    build_vocab,
    build_vocab_tsv,
    config_hash,
    entropy_y,
    exact_joint_counts,
    ingest,
    load_vocab_tsv,
    mutual_information,
    parallel_map,
    parse_smiles,
    read_report_csv,
    run_coverage,
    run_jsd_analysis,
    run_mask_sim,
    run_mi_analysis,
    run_shuffle_control,
    write_report_csv,
)
from molmask.workbench import JSD_COLUMNS, MI_COLUMNS

from test_infotheory import cells


def _square(x):
    return x * x


def record(smiles, y):
    return LabeledRecord(graph=parse_smiles(smiles), label=y)


class TestConfigHash:
    def test_order_insensitive(self):
        assert config_hash({"b": 1, "a": [2, 3]}) == config_hash({"a": [2, 3], "b": 1})

    def test_value_sensitive(self):
        assert config_hash({"a": 1}) != config_hash({"a": 2})

    def test_short_hex(self):
        h = config_hash({"analysis": "mi"})
        assert len(h) == 12
        int(h, 16)


class TestParallelMap:
    def test_order_preserved(self):
        items = list(range(37))
        expected = [x * x for x in items]
        assert parallel_map(_square, items, workers=1) == expected
        assert parallel_map(_square, items, workers=3) == expected


class TestIngest:
    def test_mixed_corpus_stats(self, corpus_dir):
        manifest = DatasetManifest(
            path=str(corpus_dir / "mixed.csv"),
            smiles_column="smiles",
            label_column="activity",
            name="mixed",
        )
        records, stats = ingest(manifest)
        assert stats.rows_total == 129
        assert stats.parsed == 125
        assert len(records) == 125
        assert sum(stats.parse_failures.values()) == 4
        assert stats.parse_failures == {
            "UnclosedRing": 1,
            "UnbalancedParen": 1,
            "MultiFragment": 1,
            "UnknownToken": 1,
        }
        assert stats.invalid_labels == 0
        assert stats.singletons == 3

    def test_missing_columns(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("smiles,activity\nCC,1\n")
        with pytest.raises(MissingColumn):
            ingest(DatasetManifest(path=str(path), smiles_column="mol"))
        with pytest.raises(MissingColumn):
            ingest(DatasetManifest(path=str(path), label_column="label"))

    def test_invalid_label_counted(self, tmp_path):
        path = tmp_path / "labels.csv"
        path.write_text("smiles,activity\nCC,1\nCC,2\nCC,yes\nCC,\nCC,0.0\n")
        records, stats = ingest(
            DatasetManifest(path=str(path), label_column="activity")
        )
        assert stats.invalid_labels == 2
        assert [r.label for r in records] == [1, None, None, None, 0]

    def test_short_row_names_its_line(self, tmp_path):
        path = tmp_path / "short.csv"
        path.write_text("activity,smiles\n1,CCO\n0\n1,CCN\n")
        with pytest.raises(ShapeMismatch, match=r"short\.csv:3: row has fewer cells"):
            ingest(DatasetManifest(path=str(path), label_column="activity"))

    def test_byte_order_mark_is_skipped(self, tmp_path):
        # Spreadsheets save "CSV UTF-8" with a BOM before the header.
        text = "smiles,activity\nCCO,1\nC,0\nC1CC,1\nc1ccccc1,x\n"
        plain, marked = tmp_path / "plain.csv", tmp_path / "bom.csv"
        plain.write_bytes(text.encode())
        marked.write_bytes(b"\xef\xbb\xbf" + text.encode())
        read = [ingest(DatasetManifest(path=str(p), label_column="activity"))
                for p in (plain, marked)]
        assert read[0] == read[1]
        assert read[1][1].parsed == 3


class TestAnalysisRecords:
    def test_skip_reasons(self):
        records = [
            record("CCO", 0),
            record("C", 1),
            LabeledRecord(graph=parse_smiles("CCN"), label=None),
            record("CCS", 1),
        ]
        kept, skipped = analysis_records(records)
        assert [r.graph.source_smiles for r in kept] == ["CCO", "CCS"]
        assert skipped == {"missing_label": 1, "singleton": 1}


class TestExactJointCounts:
    def test_atom_type_counts(self):
        records = [record("CCO", 0), record("CCN", 1)]
        joint, info = exact_joint_counts(records, "atom_type")
        assert cells(joint) == {(6, 0): 2, (8, 0): 1, (6, 1): 2, (7, 1): 1}
        assert info == {"missing_label": 0, "singleton": 0, "excluded_unk": 0}

    def test_motif_unk_excluded_but_tallied(self):
        vocab = build_vocab([parse_smiles("c1ccccc1")])
        records = [record("Cc1ccccc1", 0), record("c1ccccc1", 1)]
        joint, info = exact_joint_counts(records, "motif", vocab=vocab)
        # Ring id 0 appears once per graph; the methyl motif is unseen.
        assert cells(joint) == {(0, 0): 1, (0, 1): 1}
        assert info["excluded_unk"] == 1

    @pytest.mark.parametrize("kind, usable, unk", [
        ("atom_type", [], 0),
        # The vocabulary lacks the one motif of CC(N)O.
        ("motif", [record("CC(N)O", 0)], 1),
    ], ids=["atom_type", "motif"])
    def test_nothing_to_count_says_why(self, kind, usable, unk):
        vocab = build_vocab([parse_smiles("C1CCCCC1")])
        records = [record("CCO", None), record("C", 1), *usable]
        with pytest.raises(EmptyCounts) as err:
            exact_joint_counts(records, kind, vocab=vocab)
        assert str(err.value) == (
            f"no {kind} units to count: 1 graphs skipped for a missing label, "
            f"1 single-atom graphs skipped, {unk} motifs excluded as UNK"
        )

    def test_motif_requires_vocab(self):
        with pytest.raises(DataError):
            exact_joint_counts([record("CCO", 0)], "motif")

    def test_resources_keyed_by_corpus_position(self):
        # A skipped singleton sits between two usable graphs; embedding
        # rows must still be looked up by original position.
        records = [record("CC", 0), record("C", 1), record("CO", 1)]
        embeddings = {
            0: np.array([[0.0, 0.0], [0.0, 0.1]]),
            2: np.array([[5.0, 5.0], [5.0, 5.1]]),
        }
        codebook = np.array([[0.0, 0.0], [5.0, 5.0]])
        joint, info = exact_joint_counts(
            records, "vq_code", embeddings=embeddings, codebook=codebook
        )
        assert cells(joint) == {(0, 0): 2, (1, 1): 2}
        assert info["singleton"] == 1

    def test_missing_embeddings_rejected(self):
        records = [record("CC", 0)]
        with pytest.raises((DataError, ShapeMismatch)):
            exact_joint_counts(
                records, "vq_code", embeddings={}, codebook=np.zeros((2, 2))
            )

    def test_argmax_counts(self):
        records = [record("CC", 0), record("CO", 1)]
        logits = {
            0: np.array([[1.0, 0.0], [1.0, 0.0]]),
            1: np.array([[0.0, 1.0], [0.0, 1.0]]),
        }
        joint, _ = exact_joint_counts(records, "argmax_token", logits=logits)
        assert cells(joint) == {(0, 0): 2, (1, 1): 2}


class TestRunners:
    def test_mi_report_values(self, ring_marker_records):
        usable, _ = analysis_records(ring_marker_records)
        vocab = build_vocab([r.graph for r in usable])
        report = run_mi_analysis(
            ring_marker_records,
            ["atom_type", "motif"],
            dataset_name="ring_marker",
            vocab=vocab,
        )
        assert report.kind == "mi"
        assert report.columns == MI_COLUMNS
        assert len(report.rows) == 2
        by_kind = {row[1]: row for row in report.rows}
        joint, _ = exact_joint_counts(ring_marker_records, "atom_type")
        np.testing.assert_allclose(by_kind["atom_type"][3], mutual_information(joint))
        np.testing.assert_allclose(by_kind["atom_type"][4], entropy_y(joint))
        assert by_kind["atom_type"][6] == joint.total
        assert by_kind["motif"][3] > by_kind["atom_type"][3]
        for row in report.rows:
            assert row[9] == molmask.__version__
            assert len(row[11]) == 12

    def test_jsd_report_layout(self, ring_marker_records):
        usable, _ = analysis_records(ring_marker_records)
        vocab = build_vocab([r.graph for r in usable])
        taus = (0.5, 0.05, 1.0)
        report = run_jsd_analysis(
            ring_marker_records,
            ["motif"],
            dataset_name="ring_marker",
            taus=taus,
            vocab=vocab,
        )
        assert report.columns == JSD_COLUMNS
        assert [row[2] for row in report.rows] == [1.0, 0.5, 0.05]
        for row in report.rows:
            value, defined = row[3], row[5]
            if defined:
                assert not math.isnan(value)
            else:
                assert math.isnan(value)

    def test_shuffle_control_rows(self, ring_marker_records):
        usable, _ = analysis_records(ring_marker_records)
        vocab = build_vocab([r.graph for r in usable])
        report = run_shuffle_control(
            ring_marker_records, "motif", dataset_name="ring_marker", vocab=vocab
        )
        assert [row[2] for row in report.rows] == ["exact", "shuffled"]
        exact_row, shuffled_row = report.rows
        assert shuffled_row[3] < exact_row[3]
        assert shuffled_row[8] >= 0.0  # seed_std column

    def test_mask_sim_workers_byte_identical(self, ring_marker_records, tmp_path):
        subset = ring_marker_records[:30]
        config = MaskConfig(ratio=0.25)
        paths = []
        for workers in (1, 2):
            report = run_mask_sim(
                subset,
                ["uniform", "moama"],
                config,
                dataset_name="ring_marker",
                repeats=3,
                seed=5,
                workers=workers,
            )
            path = tmp_path / f"mask_sim_w{workers}.csv"
            write_report_csv(report, path)
            paths.append(path)
        assert paths[0].read_bytes() == paths[1].read_bytes()

    @pytest.mark.parametrize("strategies", [["uniform"], ["uniform", "pagerank", "moama", "motifpred"]])
    def test_mask_sim_builds_one_generator_per_cell(self, strategies, ring_marker_records, monkeypatch):
        # Every strategy reads the one stream of a (repeat, graph) cell.
        built = []
        default_rng = np.random.default_rng

        def counting_rng(*args, **kwargs):
            built.append(args)
            return default_rng(*args, **kwargs)

        monkeypatch.setattr(np.random, "default_rng", counting_rng)
        records = ring_marker_records[:20]
        run_mask_sim(records, strategies, MaskConfig(ratio=0.25), dataset_name="ring_marker",
                     repeats=3)
        assert len(built) == 3 * len(analysis_records(records)[0])

    def test_mask_sim_columns(self, ring_marker_records):
        report = run_mask_sim(
            ring_marker_records[:20],
            ["uniform"],
            MaskConfig(ratio=0.25),
            dataset_name="ring_marker",
            repeats=3,
        )
        (row,) = report.rows
        assert row[1] == "atom_type"
        assert row[2] == "uniform"
        assert row[3] == row[7]  # mi_bits mirrors seed_mean
        assert row[8] >= 0.0

    def test_coverage_report(self, ring_marker_records):
        usable, _ = analysis_records(ring_marker_records)
        vocab = build_vocab([r.graph for r in usable])
        report = run_coverage(vocab, usable, dataset_name="ring_marker")
        (row,) = report.rows
        assert row[1] == 1.0
        assert row[2] == 1.0
        assert row[4] == 100.0
        assert row[5] == 0.0


class TestReportFiles:
    def test_round_trip_and_kind_inference(self, ring_marker_records, tmp_path):
        usable, _ = analysis_records(ring_marker_records)
        vocab = build_vocab([r.graph for r in usable])
        mi = run_mi_analysis(
            ring_marker_records, ["atom_type"], dataset_name="d", vocab=vocab
        )
        jsd_rep = run_jsd_analysis(
            ring_marker_records, ["motif"], dataset_name="d", vocab=vocab
        )
        cov = run_coverage(vocab, usable, dataset_name="d")
        for report in (mi, jsd_rep, cov):
            path = tmp_path / f"{report.kind}_{report.columns[1]}.csv"
            write_report_csv(report, path)
            back = read_report_csv(path)
            assert back.kind == report.kind
            assert back.columns == report.columns
            assert len(back.rows) == len(report.rows)

    def test_float_formatting(self, tmp_path):
        from molmask.workbench import AnalysisReport

        report = AnalysisReport(kind="mi", columns=("a", "b", "c"))
        report.rows.append((1 / 3, float("nan"), "x"))
        path = tmp_path / "fmt.csv"
        write_report_csv(report, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "a,b,c"
        assert lines[1] == "0.3333333333,nan,x"

    def test_header_must_be_a_report(self, tmp_path):
        for header in ("a,b", ",".join(MI_COLUMNS[:-1])):
            path = tmp_path / "other.csv"
            path.write_text(f"{header}\n1,2\n")
            with pytest.raises(DataError):
                read_report_csv(path)

    @pytest.mark.parametrize("row", ["d,motif,0.5", "d,motif,0.5,0.1,3,1,0.1.0,0,abc,extra"],
                             ids=["short", "long"])
    def test_row_width_must_match_header(self, row, tmp_path):
        path = tmp_path / "jsd.csv"
        path.write_text(",".join(JSD_COLUMNS) + "\nd,motif,1,0.2,4,1,0.1.0,0,abc\n" + row + "\n")
        with pytest.raises(ShapeMismatch, match=r"jsd\.csv:3:"):
            read_report_csv(path)

    def test_empty_report_file(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("")
        with pytest.raises(DataError):
            read_report_csv(path)


class TestVocabTsv:
    def test_round_trip(self, fixture_graphs, tmp_path):
        vocab = build_vocab(fixture_graphs)
        path = tmp_path / "vocab.tsv"
        build_vocab_tsv(vocab, path)
        loaded = load_vocab_tsv(path)
        assert loaded.ids == vocab.ids
        assert loaded.counts == vocab.counts
        header = path.read_text().splitlines()[0]
        assert header == "signature\tid\tcount"

    def test_dense_id_validation(self, tmp_path):
        path = tmp_path / "vocab.tsv"
        path.write_text("signature\tid\tcount\nsig_a\t0\t3\nsig_b\t2\t1\n")
        with pytest.raises(ShapeMismatch):
            load_vocab_tsv(path)

    @pytest.mark.parametrize("row", ["foo\tx\t3", "foo\t0\t3.5"])
    def test_non_integer_fields(self, row, tmp_path):
        path = tmp_path / "vocab.tsv"
        path.write_text(f"signature\tid\tcount\nsig_a\t1\t2\n{row}\n")
        with pytest.raises(ShapeMismatch, match=r"vocab\.tsv:3:"):
            load_vocab_tsv(path)

    def test_repeated_signature_names_both_lines(self, tmp_path):
        path = tmp_path / "vocab.tsv"
        path.write_text("signature\tid\tcount\nA\t0\t5\nB\t1\t3\nA\t0\t9\n")
        with pytest.raises(ShapeMismatch, match=r"vocab\.tsv:4: signature already listed on line 2"):
            load_vocab_tsv(path)

    def test_header_validation(self, tmp_path):
        path = tmp_path / "vocab.tsv"
        path.write_text("sig\tid\tn\n")
        with pytest.raises(MissingColumn):
            load_vocab_tsv(path)
