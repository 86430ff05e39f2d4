"""Command line behavior: subcommands, outputs, exit codes."""

import json
import os
import re
from dataclasses import replace
from functools import partial
from pathlib import Path

import pytest

from molmask import masking, pagerank_all
from molmask.cli import main
from molmask.report import JSD_COLUMNS, MI_COLUMNS

from conftest import ring_marker_corpus, write_corpus_csv


@pytest.fixture(scope="module")
def cli_corpus(tmp_path_factory):
    base = tmp_path_factory.mktemp("cli")
    return write_corpus_csv(base / "small.csv", ring_marker_corpus(30, seed=3))


def run(argv):
    return main([str(a) for a in argv])


class TestBasics:
    def test_version(self, capsys):
        assert run(["--version"]) == 0
        assert "molmask" in capsys.readouterr().out

    def test_help(self, capsys):
        assert run(["--help"]) == 0

    def test_no_command_is_usage_error(self, capsys):
        assert run([]) == 1

    def test_unknown_command(self, capsys):
        assert run(["frobnicate"]) == 1


class TestParseCheck:
    def test_reports_counts(self, cli_corpus, capsys):
        code = run(["parse-check", "--input", cli_corpus, "--label-col", "activity"])
        assert code == 0
        out = capsys.readouterr().out
        assert "rows: 60" in out
        assert "parsed: 60" in out

    def test_missing_file(self, tmp_path, capsys):
        code = run(["parse-check", "--input", tmp_path / "absent.csv"])
        assert code == 2


class TestDecompose:
    def test_inline_smiles(self, capsys):
        assert run(["decompose", "--smiles", "C1CC1CCC1CC1"]) == 0
        out = capsys.readouterr().out
        assert "motif 0: atoms 0,1,2" in out
        assert "motif 2: atoms 5,6,7" in out

    def test_needs_source(self, capsys):
        assert run(["decompose"]) == 1

    def test_bad_smiles_is_data_error(self, capsys):
        assert run(["decompose", "--smiles", "C1CC"]) == 2


class TestVocab:
    def test_build_and_coverage(self, cli_corpus, tmp_path, capsys):
        vocab_path = tmp_path / "nested" / "vocab.tsv"
        code = run([
            "vocab", "build", "--input", cli_corpus, "--output", vocab_path,
        ])
        assert code == 0
        header = vocab_path.read_text().splitlines()[0]
        assert header == "signature\tid\tcount"

        cov_path = tmp_path / "coverage.csv"
        code = run([
            "vocab", "coverage", "--input", cli_corpus,
            "--vocab", vocab_path, "--output", cov_path,
        ])
        assert code == 0
        rows = cov_path.read_text().splitlines()
        assert rows[0].startswith("dataset,overlap_ratio")
        assert rows[1].split(",")[1] == "1"  # self coverage

    def test_coverage_needs_vocab_file(self, cli_corpus, tmp_path, capsys):
        code = run([
            "vocab", "coverage", "--input", cli_corpus,
            "--vocab", tmp_path / "absent.tsv",
        ])
        assert code == 2

    def test_coverage_of_empty_vocab_is_data_error(self, cli_corpus, tmp_path, capsys):
        vocab_path = tmp_path / "empty.tsv"
        vocab_path.write_text("signature\tid\tcount\n")
        out = tmp_path / "coverage.csv"
        assert run([
            "vocab", "coverage", "--input", cli_corpus, "--vocab", vocab_path, "--output", out,
        ]) == 2
        err = capsys.readouterr().err
        assert err.startswith("data error:") and err.count("\n") == 1
        assert not out.exists()


class TestAnalysisCommands:
    def test_mi_default_targets(self, cli_corpus, tmp_path, capsys):
        out = tmp_path / "mi.csv"
        code = run([
            "mi", "--input", cli_corpus, "--label-col", "activity",
            "--output", out,
        ])
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0].startswith("dataset,target_kind,strategy,mi_bits")
        assert len(lines) == 3  # header + atom_type + motif

    def test_mi_needs_label(self, cli_corpus, capsys):
        assert run(["mi", "--input", cli_corpus]) == 1

    def test_mi_bad_target(self, cli_corpus, capsys):
        code = run([
            "mi", "--input", cli_corpus, "--label-col", "activity",
            "--targets", "bogus",
        ])
        assert code == 1

    def test_jsd_custom_grid(self, cli_corpus, tmp_path, capsys):
        out = tmp_path / "jsd.csv"
        code = run([
            "jsd", "--input", cli_corpus, "--label-col", "activity",
            "--targets", "motif", "--taus", "0.5,1.0", "--output", out,
        ])
        assert code == 0
        lines = out.read_text().splitlines()
        assert len(lines) == 3
        assert [line.split(",")[2] for line in lines[1:]] == ["1", "0.5"]

    def test_mask_sim(self, cli_corpus, tmp_path, capsys):
        out = tmp_path / "sim.csv"
        code = run([
            "mask-sim", "--input", cli_corpus, "--label-col", "activity",
            "--strategies", "uniform,motifpred", "--repeats", "2",
            "--output", out,
        ])
        assert code == 0
        lines = out.read_text().splitlines()
        assert len(lines) == 3
        assert [line.split(",")[2] for line in lines[1:]] == ["uniform", "motifpred"]

    def test_mask_sim_bad_strategy(self, cli_corpus, capsys):
        code = run([
            "mask-sim", "--input", cli_corpus, "--label-col", "activity",
            "--strategies", "bogus",
        ])
        assert code == 1

    def test_mask_sim_beta_default_is_per_strategy(self, tmp_path, capsys):
        corpus = tmp_path / "beta.csv"
        corpus.write_text(
            "smiles,activity\nCCO,0\nc1ccccc1O,1\nCC(C)CC,0\nc1ccncc1C,1\nCCCCO,0\nOC1CCCCC1,1\n"
        )
        scores = tmp_path / "scores.csv"
        scores.write_text("".join(
            ",".join(str((i * 7 + a * 3) % 5) for a in range(n)) + "\n"
            for i, n in enumerate((3, 7, 5, 7, 5, 7))
        ))

        def external_row(strategies, *extra):
            out = tmp_path / "sim.csv"
            assert run([
                "mask-sim", "--input", corpus, "--label-col", "activity",
                "--strategies", strategies, "--repeats", "3", "--scores", scores,
                *extra, "--output", out,
            ]) == 0
            rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
            (row,) = [r for r in rows if r[2] == "external"]
            return row[3], row[8]  # mi_bits, seed_std

        default = external_row("external")
        assert external_row("uniform,external") == default
        explicit = external_row("external", "--beta", "10")
        assert external_row("uniform,external", "--beta", "10") == explicit
        assert explicit != default

    def test_shuffle_control(self, cli_corpus, tmp_path, capsys):
        out = tmp_path / "shuffle.csv"
        code = run([
            "shuffle-control", "--input", cli_corpus, "--label-col", "activity",
            "--target", "motif", "--output", out,
        ])
        assert code == 0
        lines = out.read_text().splitlines()
        assert [line.split(",")[2] for line in lines[1:]] == ["exact", "shuffled"]

    def test_shuffle_control_single_kind_only(self, cli_corpus, capsys):
        code = run([
            "shuffle-control", "--input", cli_corpus, "--label-col", "activity",
            "--target", "atom_type,motif",
        ])
        assert code == 1


class TestExportViews:
    def test_logits_missing_a_graph_is_data_error(self, tmp_path, capsys):
        corpus = tmp_path / "two.csv"
        corpus.write_text("smiles\nCCO\nc1ccccc1\n")
        logits = tmp_path / "logits.csv"
        logits.write_text("0,0,1.0,0.0\n0,1,0.0,1.0\n0,2,1.0,0.0\n")
        code = run([
            "export-views", "--input", corpus, "--strategy", "uniform",
            "--target", "argmax_token", "--logits", logits,
            "--output", tmp_path / "views.jsonl",
        ])
        assert code == 2
        assert "data error" in capsys.readouterr().err

    def test_atom_type_views(self, cli_corpus, tmp_path, capsys):
        out = tmp_path / "views.jsonl"
        code = run([
            "export-views", "--input", cli_corpus, "--label-col", "activity",
            "--strategy", "moama", "--target", "motif",
            "--draws-per-graph", "2", "--output", out,
        ])
        assert code == 0
        lines = out.read_text().splitlines()
        assert len(lines) == 120
        view = json.loads(lines[0])
        assert sorted(view) == [
            "masked_atoms", "seed", "smiles", "strategy", "target_type", "targets",
        ]
        assert view["strategy"] == "moama"
        assert view["target_type"] == "motif"

    def test_vq_needs_resources(self, cli_corpus, capsys):
        code = run([
            "export-views", "--input", cli_corpus, "--label-col", "activity",
            "--target", "vq_code",
        ])
        assert code == 1

    def test_deterministic_bytes(self, cli_corpus, tmp_path, capsys):
        outs = []
        for name in ("a.jsonl", "b.jsonl"):
            out = tmp_path / name
            assert run([
                "--seed", "11",
                "export-views", "--input", cli_corpus, "--label-col", "activity",
                "--strategy", "motifpred", "--target", "atom_type",
                "--output", out,
            ]) == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]


class TestPlot:
    def test_mi_and_jsd_plots(self, cli_corpus, tmp_path, capsys):
        import xml.etree.ElementTree as ET

        mi_csv = tmp_path / "mi.csv"
        assert run([
            "mi", "--input", cli_corpus, "--label-col", "activity",
            "--output", mi_csv,
        ]) == 0
        svg_path = tmp_path / "mi.svg"
        assert run(["plot", "--report", mi_csv, "--output", svg_path]) == 0
        ET.fromstring(svg_path.read_text())

        jsd_csv = tmp_path / "jsd.csv"
        assert run([
            "jsd", "--input", cli_corpus, "--label-col", "activity",
            "--targets", "motif", "--output", jsd_csv,
        ]) == 0
        assert run(["plot", "--report", jsd_csv]) == 0
        assert jsd_csv.with_suffix(".svg").exists()

    def test_missing_report(self, tmp_path, capsys):
        assert run(["plot", "--report", tmp_path / "none.csv"]) == 2


@pytest.mark.parametrize("command", ["mask-sim", "export-views"])
@pytest.mark.parametrize("flag, value", [
    ("--ratio", "0"),
    ("--beta", "-1"),
    ("--beta", "nan"),
    ("--beta", "inf"),
    ("--epoch", "0"),
    ("--max-epoch", "0"),
    ("--intra-frac", "0"),
])
def test_bad_mask_flag_is_usage_error(command, flag, value, cli_corpus, tmp_path, capsys):
    out = tmp_path / "out"
    assert run([command, "--input", cli_corpus, "--label-col", "activity",
                flag, value, "--output", out]) == 1
    err = capsys.readouterr().err
    assert err.startswith("usage error:") and err.count("\n") == 1
    assert not out.exists()


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("argv", [
    ["mi", "--targets", "atom_type,motif"],
    ["jsd"],
    ["shuffle-control", "--target", "motif"],
    ["shuffle-control", "--target", "atom_type"],
    ["mask-sim", "--strategies", "uniform,pagerank,moama,motifpred"],
])
def test_no_usable_graph_is_data_error(argv, workers, tmp_path, capsys):
    # Every graph is unlabeled or a single atom, so nothing is counted.
    corpus = write_corpus_csv(tmp_path / "empty.csv", [
        ("C", 1), ("O", 0), ("[Na+]", 1), ("CCO", ""), ("c1ccccc1", "na"),
    ])
    out = tmp_path / "out.csv"
    assert run(["--workers", workers, *argv, "--input", corpus, "--label-col", "activity",
                "--output", out]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("data error:") and captured.err.count("\n") == 1
    assert captured.out == ""
    assert not out.exists()


def data_error_line(argv, corpus, tmp_path, capsys) -> str:
    """The one stderr line of a run that fails with a data error and
    writes nothing."""
    out = tmp_path / "out.csv"
    assert run([*argv, "--input", corpus, "--label-col", "activity", "--output", out]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and not out.exists()
    return captured.err


@pytest.mark.parametrize("argv", [
    ["mi", "--targets", "motif"],
    ["jsd", "--targets", "motif"],
    ["shuffle-control", "--target", "motif"],
], ids=lambda argv: argv[0])
def test_vocab_covering_no_motif_says_why(argv, tmp_path, capsys):
    corpus = write_corpus_csv(tmp_path / "corpus.csv", [("CCO", 1), ("c1ccccc1C", 0), ("C", 1)])
    vocab = tmp_path / "vocab.tsv"
    vocab.write_text("signature\tid\tcount\nnot-a-motif\t0\t1\n")
    err = data_error_line([*argv, "--vocab", vocab], corpus, tmp_path, capsys)
    assert err == (
        "data error: no motif units to count: 0 graphs skipped for a missing label, "
        "1 single-atom graphs skipped, 3 motifs excluded as UNK\n"
    )


@pytest.mark.parametrize("argv, unk", [
    (["mi", "--targets", "atom_type"], ", 0 motifs excluded as UNK"),
    (["mask-sim", "--strategies", "uniform"], ""),
], ids=["mi", "mask-sim"])
def test_all_labels_missing_says_why(argv, unk, tmp_path, capsys):
    corpus = write_corpus_csv(tmp_path / "corpus.csv", [("CCO", ""), ("C", "na"), ("CCN", "")])
    err = data_error_line(argv, corpus, tmp_path, capsys)
    assert err == (
        "data error: no atom_type units to count: 3 graphs skipped for a missing label, "
        f"0 single-atom graphs skipped{unk}\n"
    )


@pytest.mark.parametrize("command, flag, value", [
    ("mask-sim", "--repeats", "0"),
    ("shuffle-control", "--repeats", "0"),
    ("export-views", "--draws-per-graph", "0"),
    ("export-views", "--draws-per-graph", "-1"),
])
def test_count_flag_below_one_is_usage_error(command, flag, value, cli_corpus, tmp_path, capsys):
    out = tmp_path / "out"
    assert run([command, "--input", cli_corpus, "--label-col", "activity",
                flag, value, "--output", out]) == 1
    err = capsys.readouterr().err
    assert err.startswith("usage error:") and err.count("\n") == 1
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["--workers", "0", "mi"],
    ["--workers", "-3", "mi"],
    ["jsd", "--taus", "abc"],
    ["jsd", "--taus", "1.0,,0.1"],
    ["jsd", "--taus", "nan"],
    ["jsd", "--taus", "0"],
    ["jsd", "--taus=-1"],
    ["mask-sim", "--strategies", "uniform", "--scores", "missing.csv"],
    ["export-views", "--strategy", "pagerank", "--scores", "missing.csv"],
    ["--seed=-1", "shuffle-control"],
    ["--seed=-1", "mask-sim"],
    ["--seed=-1", "export-views"],
    ["--seed", "1.5", "mask-sim"],
    ["shuffle-control", "--target", "motif,motif"],
    ["export-views", "--target", "atom_type,motif"],
])
def test_bad_flag_value_is_usage_error(argv, cli_corpus, tmp_path, capsys):
    out = tmp_path / "out"
    assert run([*argv, "--input", cli_corpus, "--label-col", "activity", "--output", out]) == 1
    err = capsys.readouterr().err
    assert err.startswith("usage error:") and err.count("\n") == 1
    assert not out.exists()


@pytest.mark.parametrize("command", ["mi", "jsd", "shuffle-control", "export-views"])
@pytest.mark.parametrize("flags, message", [
    (["vq_code"], "target 'vq_code' needs --embeddings and --codebook"),
    (["vq_code", "--embeddings", "emb.csv"], "target 'vq_code' needs --embeddings and --codebook"),
    (["vq_code", "--codebook", "book.csv"], "target 'vq_code' needs --embeddings and --codebook"),
    (["argmax_token"], "target 'argmax_token' needs --logits"),
], ids=["vq_code", "vq_code_no_codebook", "vq_code_no_embeddings", "argmax_token"])
def test_target_without_its_input_is_usage_error(command, flags, message, tmp_path, capsys):
    """Checked before the corpus is read: the corpus named here does not
    exist, and the error is still a usage error."""
    target_flag = "--targets" if command in ("mi", "jsd") else "--target"
    out = tmp_path / "out"
    assert run([command, "--input", tmp_path / "absent.csv", "--label-col", "activity",
                target_flag, *flags, "--output", out]) == 1
    assert capsys.readouterr().err == f"usage error: {message}\n"
    assert not out.exists()


@pytest.mark.parametrize("argv, message", [
    (["mask-sim", "--strategies", "uniform,pagerank,uniform"], "strategy 'uniform'"),
    (["mi", "--targets", "motif,motif"], "target kind 'motif'"),
    (["jsd", "--targets", "atom_type,motif,atom_type"], "target kind 'atom_type'"),
], ids=["mask-sim", "mi", "jsd"])
def test_name_given_twice_is_usage_error(argv, message, tmp_path, capsys):
    """Found before the corpus, which does not exist here, is read."""
    out = tmp_path / "out"
    assert run([*argv, "--input", tmp_path / "absent.csv", "--label-col", "activity",
                "--output", out]) == 1
    assert capsys.readouterr().err == f"usage error: {message} given more than once\n"
    assert not out.exists()


@pytest.mark.parametrize("name, text, argv", [
    ("vocab.tsv", "signature\tid\tcount\nfoo\tx\t3\n", ["mi", "--targets", "motif", "--vocab"]),
    ("report.csv", "a,b\n1,2\n", ["plot", "--report"]),
], ids=["vocab", "plot"])
def test_malformed_input_file_is_data_error(name, text, argv, cli_corpus, tmp_path, capsys):
    path = tmp_path / name
    path.write_text(text)
    extra = [] if argv[0] == "plot" else ["--input", cli_corpus, "--label-col", "activity"]
    assert run([*argv, path, *extra, "--output", tmp_path / "out"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("data error:") and err.count("\n") == 1


@pytest.mark.parametrize("argv", [
    ["mask-sim", "--strategies", "uniform,pagerank", "--repeats", "2"],
    ["export-views", "--strategy", "pagerank"],
], ids=["mask-sim", "export-views"])
def test_unconverged_pagerank_is_reported(argv, cli_corpus, tmp_path, capsys, monkeypatch):
    out = tmp_path / "out"
    argv = [*argv, "--input", cli_corpus, "--label-col", "activity", "--output", out]
    assert run(argv) == 0
    quiet = capsys.readouterr()
    assert quiet.err == ""
    report = out.read_bytes()

    # Same scores, flagged unconverged: one stderr line, same report.
    def flagged(graphs):
        return [replace(s, converged=False) for s in pagerank_all(graphs)]

    monkeypatch.setattr(masking, "pagerank_all", flagged)
    assert run(argv) == 0
    loud = capsys.readouterr()
    assert re.fullmatch(r"pagerank: (\d+) of \1 graphs did not converge in \d+ iterations\n", loud.err)
    assert loud.out == quiet.out and out.read_bytes() == report

    # A real iteration budget of one leaves most graphs unconverged.
    monkeypatch.setattr(masking, "pagerank_all", partial(pagerank_all, max_iter=1))
    assert run(argv) == 0
    match = re.fullmatch(
        r"pagerank: (\d+) of (\d+) graphs did not converge in 1 iterations\n",
        capsys.readouterr().err,
    )
    assert match and 0 < int(match[1]) <= int(match[2])


GOLDEN = Path(__file__).resolve().parent / "golden"
DEMO_CORPUS = Path(__file__).resolve().parent.parent / "demos" / "data" / "demo_corpus.csv"


GOLDEN_CASES = [
    ("mi.csv", ["mi", "--label-col", "activity", "--targets", "atom_type,motif"]),
    ("jsd.csv", ["jsd", "--label-col", "activity"]),
    ("shuffle.csv", ["shuffle-control", "--label-col", "activity", "--target", "motif"]),
    ("mask_sim.csv", ["mask-sim", "--label-col", "activity",
                      "--strategies", "uniform,pagerank,moama,motifpred", "--repeats", "2"]),
    ("views.jsonl", ["export-views", "--strategy", "moama", "--target", "motif",
                     "--draws-per-graph", "2"]),
    ("views_pagerank.jsonl", ["export-views", "--strategy", "pagerank", "--target", "atom_type",
                              "--draws-per-graph", "2"]),
    # At epoch 30 the annealed bonus pool is smaller than the mask, so
    # the pool's cut falls inside the score ranking.
    ("views_pagerank_epoch.jsonl", ["export-views", "--strategy", "pagerank", "--epoch", "30",
                                    "--target", "atom_type", "--draws-per-graph", "2"]),
    ("shuffle_atom_type.csv", ["shuffle-control", "--label-col", "activity",
                               "--target", "atom_type", "--repeats", "7"]),
    ("vocab.tsv", ["vocab", "build"]),
    # A .txt case pins the command's stdout; it writes no file.
    ("parse_check.txt", ["parse-check", "--label-col", "activity"]),
    ("decompose.txt", ["decompose"]),
    # An annealed pool that cuts inside the score ranking, and masks of
    # several motifs, which the default-config case has neither of.
    ("mask_sim_epoch.csv", ["mask-sim", "--label-col", "activity",
                            "--strategies", "uniform,pagerank,moama,motifpred", "--ratio", "0.3",
                            "--epoch", "30", "--intra-frac", "0.4", "--repeats", "2"]),
]


def golden_output(name, argv, workers, tmp_path, capsys) -> bytes:
    """Run a golden case on the demo corpus; return the bytes it wrote,
    or its stdout for a .txt case."""
    out = tmp_path / name
    stdout_case = name.endswith(".txt")
    output = [] if stdout_case else ["--output", out]
    capsys.readouterr()
    assert run(["--workers", workers, *argv, "--input", DEMO_CORPUS, *output]) == 0
    return capsys.readouterr().out.encode() if stdout_case else out.read_bytes()


# A case keeps its plain id at --workers 1 and gains a "-w2" suffix at 2.
@pytest.mark.usefixtures("four_cpus")
@pytest.mark.parametrize("name, argv, workers", [
    pytest.param(name, argv, workers, id=f"{name}-argv{i}" + ("" if workers == 1 else "-w2"))
    for workers in (1, 2)
    for i, (name, argv) in enumerate(GOLDEN_CASES)
])
def test_golden_bytes(name, argv, workers, tmp_path, capsys):
    """Report bytes on the demo corpus match the committed reference
    files at one and two workers."""
    assert golden_output(name, argv, workers, tmp_path, capsys) == (GOLDEN / name).read_bytes()


class _Forked(Exception):
    pass


def _no_fork():
    raise _Forked("a process was forked")


# parallel_map looks os.fork up when it fans out, so that is the name to
# patch; four_cpus lets it fan out to two workers on any host.


@pytest.mark.usefixtures("four_cpus")
@pytest.mark.parametrize("name, argv", [
    pytest.param(name, argv, id=f"{name}-argv{i}")
    for i, (name, argv) in enumerate(GOLDEN_CASES)
    if argv[0] != "mask-sim"
])
def test_per_molecule_stages_start_no_pool(name, argv, tmp_path, monkeypatch, capsys):
    """Parse, decompose and sign run in the main process at any
    --workers: with no process to be forked, every command but
    mask-sim still writes its golden bytes."""
    monkeypatch.setattr(os, "fork", _no_fork)
    assert golden_output(name, argv, 2, tmp_path, capsys) == (GOLDEN / name).read_bytes()


@pytest.mark.usefixtures("four_cpus")
def test_mask_sim_sampling_fans_out(tmp_path, monkeypatch):
    monkeypatch.setattr(os, "fork", _no_fork)
    name, argv = next(case for case in GOLDEN_CASES if case[1][0] == "mask-sim")
    with pytest.raises(_Forked):
        run(["--workers", 2, *argv, "--input", DEMO_CORPUS, "--output", tmp_path / name])


def test_short_csv_row_is_data_error(tmp_path, capsys):
    corpus = tmp_path / "short.csv"
    corpus.write_text("activity,smiles\n0\n")
    out = tmp_path / "mi.csv"
    assert run(["mi", "--input", corpus, "--label-col", "activity", "--output", out]) == 2
    err = capsys.readouterr().err
    assert err.startswith("data error:") and err.count("\n") == 1
    assert "short.csv:2:" in err
    assert not out.exists()


def test_long_csv_row_is_data_error(tmp_path, capsys):
    """A row with more cells than the header is not read as its first
    cells: it fails like a short row."""
    corpus = tmp_path / "long.csv"
    corpus.write_text("name,smiles,activity\nx,CC,1\ny,C,C,N,0\n")
    assert run(["parse-check", "--input", corpus, "--label-col", "activity"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("data error:") and err.count("\n") == 1
    assert "long.csv:3: row has more cells than the header" in err


@pytest.mark.parametrize("embeddings, codebook", [
    ("0,0,nan\n0,1,1.0\n0,2,0.0\n1,0,1.0\n1,1,0.0\n1,2,1.0\n", "0.0\n1.0\n"),
    ("0,0,0.0\n0,1,1.0\n0,2,0.0\n1,0,1.0\n1,1,0.0\n1,2,1.0\n", "0.0\ninf\n"),
], ids=["embeddings", "codebook"])
def test_non_finite_vq_inputs_are_data_errors(embeddings, codebook, tmp_path, capsys):
    corpus = tmp_path / "two.csv"
    corpus.write_text("smiles,activity\nCCO,1\nCCN,0\n")
    (tmp_path / "emb.csv").write_text(embeddings)
    (tmp_path / "book.csv").write_text(codebook)
    out = tmp_path / "mi.csv"
    assert run(["mi", "--input", corpus, "--label-col", "activity", "--targets", "vq_code",
                "--embeddings", tmp_path / "emb.csv", "--codebook", tmp_path / "book.csv",
                "--output", out]) == 2
    err = capsys.readouterr().err
    assert err.startswith("data error:") and err.count("\n") == 1
    assert not out.exists()


def test_plot_golden_bytes(tmp_path, capsys):
    """The JSD chart of the golden JSD report is pinned byte for byte."""
    out = tmp_path / "jsd.svg"
    assert run(["plot", "--report", GOLDEN / "jsd.csv", "--output", out]) == 0
    assert out.read_bytes() == (GOLDEN / "jsd.svg").read_bytes()


def test_plot_output_directory_is_created(tmp_path, capsys):
    out = tmp_path / "charts" / "new" / "jsd.svg"
    assert run(["plot", "--report", GOLDEN / "jsd.csv", "--output", out]) == 0
    assert out.read_bytes() == (GOLDEN / "jsd.svg").read_bytes()


_JSD_ROW = "d,motif,{tau},{jsd},3,1,0.1.0,0,abc"
_MI_ROW = "d,motif,exact,{mi},1,0.1,10,,{std},0.1.0,0,abc"


@pytest.mark.parametrize("columns, row, message", [
    (JSD_COLUMNS, _JSD_ROW.format(tau="0", jsd="0.1"), "tau='0'"),
    (JSD_COLUMNS, _JSD_ROW.format(tau="-0.5", jsd="0.1"), "tau='-0.5'"),
    (JSD_COLUMNS, _JSD_ROW.format(tau="0.5", jsd="inf"), "jsd_bits='inf'"),
    (JSD_COLUMNS, _JSD_ROW.format(tau="0.5", jsd="nan"), "jsd_bits='nan'"),
    (MI_COLUMNS, _MI_ROW.format(mi="zz", std=""), "mi_bits='zz'"),
    (MI_COLUMNS, _MI_ROW.format(mi="-0.1", std=""), "mi_bits='-0.1'"),
    (MI_COLUMNS, _MI_ROW.format(mi="0.1", std="inf"), "seed_std='inf'"),
    (JSD_COLUMNS, "d,motif,0.5", "report.csv:3:"),
], ids=["tau-zero", "tau-negative", "jsd-inf", "jsd-nan", "mi-text", "mi-negative",
        "std-inf", "short-row"])
def test_unplottable_report_is_data_error(columns, row, message, tmp_path, capsys):
    """A report cell the chart cannot draw is a data error (exit 2, one
    line), not a traceback or a silent "no data" chart."""
    good = _JSD_ROW.format(tau="1", jsd="0.2") if columns == JSD_COLUMNS else _MI_ROW.format(
        mi="0.2", std="")
    report = tmp_path / "report.csv"
    report.write_text(",".join(columns) + f"\n{good}\n{row}\n")
    out = tmp_path / "chart.svg"
    assert run(["plot", "--report", report, "--output", out]) == 2
    err = capsys.readouterr().err
    assert err.startswith("data error:") and err.count("\n") == 1
    assert message in err
    assert not out.exists()
