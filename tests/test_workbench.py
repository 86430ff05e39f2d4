"""Corpus ingestion, exact counting, analysis runners, report files."""

import fcntl
import gc
import math
import os
import signal
import stat
import time
import warnings

import numpy as np
import pytest

import molmask
from molmask import (
    STRATEGIES,
    DataError,
    DatasetManifest,
    EmptyCounts,
    LabeledRecord,
    MaskConfig,
    MissingColumn,
    NodeScores,
    ShapeMismatch,
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
    usable_positions,
    write_report_csv,
)
from molmask import masking
from molmask.cli import main
from molmask.workbench import JSD_COLUMNS, MI_COLUMNS

from conftest import (
    counted_column,
    ring_marker_corpus,
    usable_records,
    vocab_of,
    write_corpus_csv,
)
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


class _ExitWhenPickled:
    def __reduce__(self):
        os._exit(3)


def _pipe_ends() -> set[tuple[int, int]]:
    """(descriptor, access mode) of each pipe end this process holds
    below descriptor 256."""
    ends = set()
    for fd in range(256):
        try:
            if stat.S_ISFIFO(os.fstat(fd).st_mode):
                ends.add((fd, fcntl.fcntl(fd, fcntl.F_GETFL) & os.O_ACCMODE))
        except OSError:
            pass
    return ends


def _timed_out(signum, frame):
    raise TimeoutError("parallel_map did not finish in 30 s")


@pytest.mark.usefixtures("four_cpus")
class TestParallelMap:
    """Each case must end with every forked child reaped and every pipe
    closed; a case that would hang fails after 30 s instead."""

    @pytest.fixture(autouse=True)
    def no_process_or_file_left(self):
        previous = signal.signal(signal.SIGALRM, _timed_out)
        signal.setitimer(signal.ITIMER_REAL, 30)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", ResourceWarning)
            try:
                yield
            finally:
                signal.setitimer(signal.ITIMER_REAL, 0)
                signal.signal(signal.SIGALRM, previous)
            gc.collect()
        assert not [w for w in caught if issubclass(w.category, ResourceWarning)]
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    def test_order_preserved(self):
        items = list(range(37))
        for workers in (1, 2, 3, 4, 64):
            assert parallel_map(_square, items, workers=workers) == [x * x for x in items]

    def test_each_shard_runs_in_its_own_process(self):
        pids = parallel_map(lambda _: os.getpid(), range(8), workers=4)
        assert pids[0::2] == pids[1::2]  # contiguous shards of two
        assert pids[0] == os.getpid() and len(set(pids)) == 4

    def test_child_exception_is_raised_here(self):
        def fn(x):
            if x == 36:
                raise KeyError(f"bad item {x}")
            return x

        with pytest.raises(KeyError, match="bad item 36"):
            parallel_map(fn, range(37), workers=3)

    @pytest.mark.parametrize("child", [
        lambda x: bytes(2 << 20),  # more than the pipe holds until it is read
        lambda x: time.sleep(600),
    ], ids=["holding_a_large_result", "still_mapping"])
    def test_parent_exception_reaps_every_child(self, child):
        """The first shard raises while each child still holds a 2 MB
        result it cannot write until its pipe is read, or is still
        mapping its shard."""
        def fn(x):
            if x == 0:
                raise ValueError("bad item 0")
            return child(x)

        with pytest.raises(ValueError, match="bad item 0"):
            parallel_map(fn, range(6), workers=3)

    @pytest.mark.parametrize("child", [
        lambda x: os._exit(3),
        lambda x: [bytes(1 << 20), _ExitWhenPickled()],
    ], ids=["before_writing", "while_writing"])
    def test_child_ending_without_a_result_names_its_status(self, child):
        with pytest.raises(RuntimeError, match="exit status 3 and no result"):
            parallel_map(lambda x: child(x) if x == 36 else x, range(37), workers=3)

    def test_child_holds_only_its_own_write_end(self):
        """A child holds no read end of any pipe, so with the parent
        gone its write fails and it ends instead of blocking."""
        before = _pipe_ends()
        held = parallel_map(lambda _: _pipe_ends() - before, range(3), workers=3)
        assert [[mode for _, mode in ends] for ends in held[1:]] == [[os.O_WRONLY]] * 2

    def test_megabyte_results(self):
        """Results far larger than a pipe's buffer come back whole."""
        results = parallel_map(lambda x: bytes([x]) * (1 << 20), range(6), workers=3)
        assert results == [bytes([x]) * (1 << 20) for x in range(6)]

    @pytest.mark.parametrize("affinity", [True, False], ids=["affinity", "cpu_count"])
    def test_forks_at_most_one_less_than_usable_cpus(self, affinity, monkeypatch):
        if affinity:
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
            monkeypatch.setattr(os, "cpu_count", lambda: 64)
        else:
            monkeypatch.delattr(os, "sched_getaffinity", raising=False)
            monkeypatch.setattr(os, "cpu_count", lambda: 2)
        forks = []
        fork = os.fork

        def counted_fork():
            forks.append(1)
            return fork()

        monkeypatch.setattr(os, "fork", counted_fork)
        assert parallel_map(_square, range(37), workers=64) == [x * x for x in range(37)]
        assert len(forks) == 1

    def test_serial_without_fork(self, monkeypatch):
        monkeypatch.delattr(os, "fork")
        assert parallel_map(lambda _: os.getpid(), range(8), workers=4) == [os.getpid()] * 8


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
        kept, skipped = usable_positions(records)
        assert kept == [0, 3]
        assert skipped == {"missing_label": 1, "singleton": 1}


class TestExactJointCounts:
    def test_atom_type_counts(self):
        records = [record("CCO", 0), record("CCN", 1)]
        joint, info = exact_joint_counts(records, counted_column(records, "atom_type"))
        assert cells(joint) == {(6, 0): 2, (8, 0): 1, (6, 1): 2, (7, 1): 1}
        assert info == {"missing_label": 0, "singleton": 0, "excluded_unk": 0}

    def test_motif_unk_excluded_but_tallied(self):
        vocab = vocab_of([parse_smiles("c1ccccc1")])
        records = [record("Cc1ccccc1", 0), record("c1ccccc1", 1)]
        joint, info = exact_joint_counts(records, counted_column(records, "motif", vocab))
        # Ring id 0 appears once per graph; the methyl motif is unseen.
        assert cells(joint) == {(0, 0): 1, (0, 1): 1}
        assert info["excluded_unk"] == 1

    @pytest.mark.parametrize("kind, usable, unk", [
        ("atom_type", [], 0),
        # The vocabulary lacks the one motif of CC(N)O.
        ("motif", [record("CC(N)O", 0)], 1),
    ], ids=["atom_type", "motif"])
    def test_nothing_to_count_says_why(self, kind, usable, unk):
        vocab = vocab_of([parse_smiles("C1CCCCC1")])
        records = [record("CCO", None), record("C", 1), *usable]
        with pytest.raises(EmptyCounts) as err:
            exact_joint_counts(records, counted_column(records, kind, vocab))
        assert str(err.value) == (
            f"no {kind} units to count: 1 graphs skipped for a missing label, "
            f"1 single-atom graphs skipped, {unk} motifs excluded as UNK"
        )

    def test_motif_requires_vocab(self):
        with pytest.raises(DataError):
            counted_column([record("CCO", 0)], "motif")

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
            records, counted_column(records, "vq_code", embeddings=embeddings, codebook=codebook)
        )
        assert cells(joint) == {(0, 0): 2, (1, 1): 2}
        assert info["singleton"] == 1

    def test_missing_embeddings_rejected(self):
        records = [record("CC", 0)]
        with pytest.raises((DataError, ShapeMismatch)):
            counted_column(records, "vq_code", embeddings={}, codebook=np.zeros((2, 2)))

    def test_argmax_counts(self):
        records = [record("CC", 0), record("CO", 1)]
        logits = {
            0: np.array([[1.0, 0.0], [1.0, 0.0]]),
            1: np.array([[0.0, 1.0], [0.0, 1.0]]),
        }
        joint, _ = exact_joint_counts(records, counted_column(records, "argmax_token", logits=logits))
        assert cells(joint) == {(0, 0): 2, (1, 1): 2}


class TestRunners:
    def test_mi_report_values(self, ring_marker_records):
        usable = usable_records(ring_marker_records)
        vocab = vocab_of([r.graph for r in usable])
        report = run_mi_analysis(
            ring_marker_records,
            [counted_column(ring_marker_records, kind, vocab) for kind in ("atom_type", "motif")],
            dataset_name="ring_marker",
        )
        assert report.kind == "mi"
        assert report.columns == MI_COLUMNS
        assert len(report.rows) == 2
        by_kind = {row[1]: row for row in report.rows}
        joint, _ = exact_joint_counts(ring_marker_records, counted_column(ring_marker_records, "atom_type"))
        np.testing.assert_allclose(by_kind["atom_type"][3], mutual_information(joint))
        np.testing.assert_allclose(by_kind["atom_type"][4], entropy_y(joint))
        assert by_kind["atom_type"][6] == joint.total
        assert by_kind["motif"][3] > by_kind["atom_type"][3]
        for row in report.rows:
            assert row[9] == molmask.__version__
            assert len(row[11]) == 12

    def test_jsd_report_layout(self, ring_marker_records):
        usable = usable_records(ring_marker_records)
        vocab = vocab_of([r.graph for r in usable])
        taus = (0.5, 0.05, 1.0)
        report = run_jsd_analysis(
            ring_marker_records,
            [counted_column(ring_marker_records, "motif", vocab)],
            dataset_name="ring_marker",
            taus=taus,
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
        usable = usable_records(ring_marker_records)
        vocab = vocab_of([r.graph for r in usable])
        report = run_shuffle_control(
            ring_marker_records, counted_column(ring_marker_records, "motif", vocab),
            dataset_name="ring_marker",
        )
        assert [row[2] for row in report.rows] == ["exact", "shuffled"]
        exact_row, shuffled_row = report.rows
        assert shuffled_row[3] < exact_row[3]
        assert shuffled_row[8] >= 0.0  # seed_std column

    @pytest.mark.usefixtures("four_cpus")
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
        assert len(built) == 3 * len(usable_positions(records)[0])

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
        usable = usable_records(ring_marker_records)
        vocab = vocab_of([r.graph for r in usable])
        report = run_coverage(vocab, usable, dataset_name="ring_marker")
        (row,) = report.rows
        assert row[1] == 1.0
        assert row[2] == 1.0
        assert row[4] == 100.0
        assert row[5] == 0.0


@pytest.fixture
def calls(monkeypatch):
    """What masking.pagerank_all and masking.decompose are called on,
    one entry per call."""
    calls = {"pagerank_all": [], "decompose": []}
    for name, seen in calls.items():
        def counted(arg, *rest, seen=seen, original=getattr(masking, name), **kwargs):
            seen.append(arg)
            return original(arg, *rest, **kwargs)

        monkeypatch.setattr(masking, name, counted)
    return calls


class TestPerRunInputs:
    """PageRank runs once per run that asks for it, over the whole
    corpus, and each graph is decomposed at most once, however many
    motif strategies read its partition."""

    @pytest.mark.parametrize("strategies", [
        ["uniform"], ["uniform", "pagerank"], ["external", "moama", "motifpred"], list(STRATEGIES),
    ])
    def test_mask_sim(self, strategies, calls, ring_marker_records):
        records = ring_marker_records[:20]
        external = [
            NodeScores(values=tuple(float(i % 3) for i in range(r.graph.n_atoms)), source="external")
            for r in records
        ]
        run_mask_sim(records, strategies, MaskConfig(ratio=0.25), dataset_name="ring_marker",
                     repeats=2, external_scores=external)
        usable = [id(r.graph) for r in usable_records(records)]
        pagerank_runs = [[id(g) for g in graphs] for graphs in calls["pagerank_all"]]
        assert pagerank_runs == ([usable] if "pagerank" in strategies else [])
        motif = "moama" in strategies or "motifpred" in strategies
        assert sorted(map(id, calls["decompose"])) == (sorted(usable) if motif else [])

    @pytest.mark.parametrize("strategy, target, pagerank_runs, decomposed", [
        ("uniform", "atom_type", 0, False),
        ("pagerank", "atom_type", 1, False),
        ("moama", "atom_type", 0, True),
        # The motif target's pass supplies the partitions.
        ("motifpred", "motif", 0, False),
    ])
    def test_export_views(self, strategy, target, pagerank_runs, decomposed, calls, tmp_path, capsys):
        corpus = write_corpus_csv(tmp_path / "corpus.csv", ring_marker_corpus(5, seed=2))
        argv = ["export-views", "--input", corpus, "--strategy", strategy, "--target", target,
                "--draws-per-graph", "2", "--output", tmp_path / "views.jsonl"]
        assert main([str(a) for a in argv]) == 0
        assert len(calls["pagerank_all"]) == pagerank_runs
        assert len(set(map(id, calls["decompose"]))) == len(calls["decompose"])
        assert len(calls["decompose"]) == (10 if decomposed else 0)

    def test_given_partitions_are_not_recomputed(self, calls, fixture_graphs):
        partitions = [molmask.decompose(g) for g in fixture_graphs]
        bind = molmask.bind_corpus(["moama", "motifpred"], MaskConfig(), fixture_graphs,
                                   partitions=partitions)
        for g in range(len(fixture_graphs)):
            bind(g)
        assert calls["decompose"] == []

    @pytest.mark.parametrize("strategies", [["pagerank", "random"], ["pagerank", "external"]])
    def test_bad_request_raises_before_pagerank(self, strategies, calls, ring_marker_records):
        with pytest.raises(ValueError):
            run_mask_sim(ring_marker_records[:20], strategies, MaskConfig(),
                         dataset_name="ring_marker", repeats=1)
        assert calls["pagerank_all"] == []


class TestReportFiles:
    def test_round_trip_and_kind_inference(self, ring_marker_records, tmp_path):
        usable = usable_records(ring_marker_records)
        vocab = vocab_of([r.graph for r in usable])
        mi = run_mi_analysis(
            ring_marker_records, [counted_column(ring_marker_records, "atom_type")], dataset_name="d"
        )
        jsd_rep = run_jsd_analysis(
            ring_marker_records, [counted_column(ring_marker_records, "motif", vocab)], dataset_name="d"
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
        vocab = vocab_of(fixture_graphs)
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
