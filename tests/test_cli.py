"""Command line behavior: subcommands, outputs, exit codes."""

import argparse
import json
import os
import re
from dataclasses import replace
from functools import partial
from pathlib import Path

import pytest

from molmask import masking, pagerank_all
from molmask.cli import build_parser, main
from molmask.report import JSD_COLUMNS, MI_COLUMNS

from conftest import ring_marker_corpus, write_corpus_csv


@pytest.fixture(scope="module")
def cli_corpus(tmp_path_factory):
    base = tmp_path_factory.mktemp("cli")
    return write_corpus_csv(base / "small.csv", ring_marker_corpus(30, seed=3))


def run(argv):
    return main([str(a) for a in argv])


# The commands that read a corpus's label column.
LABELLED = {"parse-check", "mask-sim", "mi", "jsd", "shuffle-control"}


def label_col(argv) -> list:
    """--label-col activity, when the command in ``argv`` reads labels."""
    return ["--label-col", "activity"] if LABELLED & set(map(str, argv)) else []


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

    def test_coverage_of_empty_vocab_is_data_error(self, cli_corpus, tmp_path, capsys,
                                                   motif_passes):
        """Found before the corpus's motifs are signed."""
        vocab_path = tmp_path / "empty.tsv"
        vocab_path.write_text("signature\tid\tcount\n")
        out = tmp_path / "coverage.csv"
        assert run([
            "vocab", "coverage", "--input", cli_corpus, "--vocab", vocab_path, "--output", out,
        ]) == 2
        err = capsys.readouterr().err
        assert err.startswith("data error:") and err.count("\n") == 1
        assert not out.exists()
        assert motif_passes == []


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
            "export-views", "--input", cli_corpus,
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
            "export-views", "--input", cli_corpus, "--target", "vq_code",
        ])
        assert code == 1

    def test_deterministic_bytes(self, cli_corpus, tmp_path, capsys):
        outs = []
        for name in ("a.jsonl", "b.jsonl"):
            out = tmp_path / name
            assert run([
                "--seed", "11",
                "export-views", "--input", cli_corpus,
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
    ("--ratio", "2"),
    ("--beta", "-1"),
    ("--beta", "nan"),
    ("--beta", "inf"),
    ("--epoch", "0"),
    ("--max-epoch", "0"),
    ("--intra-frac", "0"),
])
def test_bad_mask_flag_is_usage_error(command, flag, value, tmp_path, capsys):
    """Found before the corpus, which does not exist here, is read."""
    out = tmp_path / "out"
    assert run([command, "--input", tmp_path / "absent.csv", *label_col([command]),
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
    assert run([command, "--input", cli_corpus, *label_col([command]),
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
    ["mask-sim", "--strategy", "moama"],
])
def test_bad_flag_value_is_usage_error(argv, cli_corpus, tmp_path, capsys):
    out = tmp_path / "out"
    assert run([*argv, "--input", cli_corpus, *label_col(argv), "--output", out]) == 1
    err = capsys.readouterr().err
    assert err.startswith("usage error:") and err.count("\n") == 1
    assert not out.exists()


def target_flag(command: str) -> str:
    return "--targets" if command in ("mi", "jsd") else "--target"


NEEDED_INPUTS = [
    ("vq_code", ["vq_code"], "target 'vq_code' needs --embeddings and --codebook"),
    ("vq_code_no_codebook", ["vq_code", "--embeddings", "emb.csv"],
     "target 'vq_code' needs --embeddings and --codebook"),
    ("vq_code_no_embeddings", ["vq_code", "--codebook", "book.csv"],
     "target 'vq_code' needs --embeddings and --codebook"),
    ("argmax_token", ["argmax_token"], "target 'argmax_token' needs --logits"),
]


@pytest.mark.parametrize("command, flags, message", [
    *(pytest.param(command, [target_flag(command), *flags], message, id=f"{case}-{command}")
      for command in ("mi", "jsd", "shuffle-control", "export-views")
      for case, flags, message in NEEDED_INPUTS),
    pytest.param("mask-sim", ["--strategies", "uniform,external"],
                 "strategy 'external' needs --scores", id="external-mask-sim"),
    pytest.param("export-views", ["--strategy", "external"],
                 "strategy 'external' needs --scores", id="external-export-views"),
])
def test_target_without_its_input_is_usage_error(command, flags, message, tmp_path, capsys):
    """A target kind or strategy without an input it reads is checked
    before the corpus is read: the corpus named here does not exist,
    and the error is still a usage error."""
    out = tmp_path / "out"
    assert run([command, "--input", tmp_path / "absent.csv", *label_col([command]),
                *flags, "--output", out]) == 1
    assert capsys.readouterr().err == f"usage error: {message}\n"
    assert not out.exists()


@pytest.mark.parametrize("argv, message", [
    (["mask-sim", "--strategies", "uniform,pagerank,uniform"], "strategy 'uniform'"),
    (["mi", "--targets", "motif,motif"], "target kind 'motif'"),
    (["jsd", "--targets", "atom_type,motif,atom_type"], "target kind 'atom_type'"),
    (["jsd", "--taus", "0.1,0.5,0.1"], "argument --taus: tau 0.1"),
], ids=["mask-sim", "mi", "jsd", "jsd-taus"])
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
    argv = [*argv, "--input", cli_corpus, *label_col(argv), "--output", out]
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
DEMO_DATA = Path(__file__).resolve().parent / "data"
# Tied per-atom scores for the demo corpus: (7 * atom + 3 * graph) % 5.
DEMO_SCORES = DEMO_DATA / "demo_scores.csv"
# Per-atom embeddings (dim 4) and logits (5 tokens) for every parsed
# demo record, and an 8-code codebook; some atoms tie between two codes
# and some logit rows between two tokens.
DEMO_EMBEDDINGS = DEMO_DATA / "demo_embeddings.csv"
VECTOR_TARGET_FLAGS = [
    "--embeddings", DEMO_EMBEDDINGS, "--codebook", DEMO_DATA / "demo_codebook.csv",
    "--logits", DEMO_DATA / "demo_logits.csv",
]


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
    # Masks that hide part of a motif, some of them parts of several.
    ("views_motifpred.jsonl", ["export-views", "--strategy", "motifpred", "--target", "motif",
                               "--draws-per-graph", "2"]),
    # The external strategy's score handling, with ties in every graph.
    ("mask_sim_external.csv", ["mask-sim", "--label-col", "activity", "--strategies", "external,moama",
                               "--repeats", "2", "--scores", DEMO_SCORES]),
    # Every target kind, the vectors read from their files.
    ("mi_vectors.csv", ["mi", "--label-col", "activity",
                        "--targets", "atom_type,motif,vq_code,argmax_token", *VECTOR_TARGET_FLAGS]),
    # A vocabulary read from --vocab, not built by the command's motif pass.
    ("jsd_vocab.csv", ["jsd", "--label-col", "activity", "--vocab", GOLDEN / "vocab.tsv"]),
    # Views of the vector kinds, their labels read from their files.
    ("views_vq.jsonl", ["export-views", "--strategy", "uniform", "--target", "vq_code",
                        *VECTOR_TARGET_FLAGS[:4], "--draws-per-graph", "2"]),
    ("views_argmax.jsonl", ["export-views", "--strategy", "uniform", "--target", "argmax_token",
                            *VECTOR_TARGET_FLAGS[4:], "--draws-per-graph", "2"]),
    ("views_vq_normalized.jsonl", ["export-views", "--strategy", "uniform", "--target", "vq_code",
                                   *VECTOR_TARGET_FLAGS[:4], "--vq-normalize",
                                   "--draws-per-graph", "2"]),
    # Coverage of the demo corpus by the vocabulary built from it.
    ("coverage.csv", ["vocab", "coverage", "--vocab", GOLDEN / "vocab.tsv"]),
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


@pytest.mark.parametrize("text, line, message", [
    ("0.1,0.2,0.3\n\n0.5,0.6\n", 3, "2 scores but graph 1 has 3 atoms"),
    ("0.1,0.2,0.3\n\n\n0.5,nan,0.6\n", 4, "non-finite score"),
    ("\n0.1,x,0.3\n0.4,0.5,0.6\n", 2, "non-numeric score cell"),
], ids=["short", "non-finite", "non-numeric"])
def test_bad_score_row_names_its_file_line(text, line, message, tmp_path, capsys):
    """A bad row of --scores is named by its 1-based line in the file,
    blank lines counted."""
    corpus = write_corpus_csv(tmp_path / "corpus.csv", [("CCO", 1), ("CCN", 0)])
    scores = tmp_path / "scores.csv"
    scores.write_text(text)
    err = data_error_line(["mask-sim", "--strategies", "external", "--scores", scores],
                          corpus, tmp_path, capsys)
    assert err == f"data error: {scores}:{line}: {message}\n"


@pytest.mark.parametrize("text, argv", [
    (b"smiles,activity\nCCO,1\nC\xffC,0\n", ["mi", "--input", "BAD"]),
    (b"signature\tid\tcount\nC\xff\t0\t1\n", ["mi", "--targets", "motif", "--vocab", "BAD"]),
    (b"0.1,0.2,0.3\n\xff,0.5,0.6\n", ["mask-sim", "--strategies", "external", "--scores", "BAD"]),
    (b"dataset,target_kind\n\xff,mi\n", ["plot", "--report", "BAD"]),
], ids=["corpus", "vocab", "scores", "report"])
def test_non_utf8_input_is_data_error(text, argv, tmp_path, capsys):
    """A text input that is not UTF-8 fails as one data error line
    naming the file, with exit code 2."""
    bad = tmp_path / "bad.txt"
    bad.write_bytes(text)
    argv = [bad if a == "BAD" else a for a in argv]
    if argv[0] != "plot":
        argv += ["--label-col", "activity"]
        if "--input" not in argv:
            argv += ["--input", write_corpus_csv(tmp_path / "corpus.csv", [("CCO", 1), ("CCN", 0)])]
    out = tmp_path / "out"
    assert run([*argv, "--output", out]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith(f"data error: {bad} is not UTF-8 text")
    assert captured.err.count("\n") == 1 and not out.exists()


def subparser(parser: argparse.ArgumentParser, name: str) -> argparse.ArgumentParser:
    subs = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return subs.choices[name]


@pytest.mark.parametrize("command", [
    "parse-check", "decompose", "vocab build", "vocab coverage", "mask-sim", "mi", "jsd",
    "shuffle-control", "export-views", "plot",
], ids=lambda command: command.replace(" ", "-"))
def test_help_describes_every_flag(command, monkeypatch, capsys):
    """--help gives every flag of every command a text of its own; a
    command with a target or strategy flag has every input flag its
    choices read."""
    monkeypatch.setenv("COLUMNS", "200")  # one line per flag, nothing wrapped
    sub = build_parser()
    for name in command.split():
        sub = subparser(sub, name)
    assert run([*command.split(), "--help"]) == 0
    text = " ".join(capsys.readouterr().out.split())
    formatter = sub._get_formatter()
    flags = [a for a in sub._actions if a.option_strings and a.dest != "help"]
    names = {flag for action in flags for flag in action.option_strings}
    targets = {"--vocab", "--embeddings", "--codebook", "--logits", "--vq-normalize"}
    assert (targets <= names) == bool({"--target", "--targets"} & names)
    assert ("--scores" in names) == bool({"--strategy", "--strategies"} & names)
    assert ("--output" in names) == (command not in ("parse-check", "decompose"))
    assert ("--label-col" in names) == (command in LABELLED)
    assert ("--dataset-name" in names) == (command in LABELLED | {"vocab coverage"})
    for action in flags:
        assert action.help, action.option_strings
        assert f"{formatter._format_action_invocation(action)} {action.help}" in text


@pytest.mark.parametrize("golden, argv", [
    ("mi.csv", ["mi", "--input", DEMO_CORPUS, "--label-col", "activity"]),
    ("views.jsonl", ["export-views", "--input", DEMO_CORPUS, "--strategy", "moama",
                     "--target", "motif", "--draws-per-graph", "2"]),
    ("jsd.svg", ["plot", "--report", GOLDEN / "jsd.csv"]),
    ("vocab.tsv", ["vocab", "build", "--input", DEMO_CORPUS]),
], ids=["mi", "export-views", "plot", "vocab-build"])
def test_outputs_are_written_as_utf8(golden, argv, tmp_path):
    """Every writer names its encoding, so no output depends on the
    locale: with EncodingWarning an error, the command still writes its
    golden bytes."""
    import subprocess
    import sys

    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ,
               PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    out = tmp_path / golden
    proc = subprocess.run(
        [sys.executable, "-X", "warn_default_encoding", "-W", "error::EncodingWarning",
         "-m", "molmask.cli", *map(str, argv), "--output", str(out)],
        env=env, capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert out.read_bytes() == (GOLDEN / golden).read_bytes()


@pytest.mark.parametrize("argv", [
    ["vocab", "build", "--dataset-name", "demo"],
    ["export-views", "--dataset-name", "demo"],
    ["export-views", "--label-col", "activity"],
], ids=["vocab-build-dataset-name", "export-views-dataset-name", "export-views-label-col"])
def test_flag_the_command_does_not_read_is_unrecognized(argv, tmp_path, capsys):
    """A command offers --dataset-name only when its output names the
    corpus, and --label-col only when it reads labels."""
    out = tmp_path / "out"
    assert run([*argv, "--input", DEMO_CORPUS, "--output", out]) == 1
    unread = " ".join(argv[-2:])
    assert capsys.readouterr().err == f"usage error: unrecognized arguments: {unread}\n"
    assert not out.exists()


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


@pytest.mark.parametrize("command", ["mi", "jsd", "shuffle-control", "mask-sim"])
def test_label_col_is_checked_before_the_corpus_is_read(command, tmp_path, capsys):
    """A command that needs labels and has no --label-col is a usage
    error, whether or not its --input can be read."""
    assert run([command, "--input", tmp_path / "absent.csv"]) == 1
    assert capsys.readouterr().err == f"usage error: {command} needs --label-col\n"


@pytest.mark.parametrize("name, argv, source", [
    ("mask_sim_external.csv", ["mask-sim", "--input", DEMO_CORPUS, "--label-col", "activity",
                               "--strategies", "external,moama", "--repeats", "2", "--scores", "BOM"],
     DEMO_SCORES),
    ("jsd_vocab.csv", ["jsd", "--input", DEMO_CORPUS, "--label-col", "activity", "--vocab", "BOM"],
     GOLDEN / "vocab.tsv"),
    ("jsd.svg", ["plot", "--report", "BOM"], GOLDEN / "jsd.csv"),
    ("mi_vectors.csv", ["mi", "--input", DEMO_CORPUS, "--label-col", "activity",
                        "--targets", "atom_type,motif,vq_code,argmax_token",
                        *["BOM" if a == DEMO_EMBEDDINGS else a for a in VECTOR_TARGET_FLAGS]],
     DEMO_EMBEDDINGS),
], ids=["scores", "vocab", "report", "embeddings"])
def test_byte_order_mark_is_accepted(name, argv, source, tmp_path, capsys):
    """A text input that starts with a UTF-8 byte-order mark, as
    spreadsheets save "CSV UTF-8", reads as the same file without it."""
    marked = tmp_path / f"bom_{source.name}"
    marked.write_bytes(b"\xef\xbb\xbf" + source.read_bytes())
    out = tmp_path / name
    assert run([marked if a == "BOM" else a for a in argv] + ["--output", out]) == 0
    assert out.read_bytes() == (GOLDEN / name).read_bytes()


@pytest.fixture
def motif_passes(monkeypatch):
    """The graphs graph_motifs is called on, one entry per call, in
    every molmask module that holds it by name."""
    import sys

    from molmask import motif

    seen = []
    original = motif.graph_motifs

    def counted(graph):
        seen.append(graph)
        return original(graph)

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "molmask" and getattr(module, "graph_motifs", None) is original:
            monkeypatch.setattr(module, "graph_motifs", counted)
    return seen


@pytest.mark.parametrize("argv, passes", [
    (["mi", "--label-col", "activity", "--targets", "atom_type,motif"], 1),
    (["jsd", "--label-col", "activity"], 1),
    (["shuffle-control", "--label-col", "activity", "--target", "motif"], 1),
    (["mi", "--label-col", "activity", "--targets", "atom_type"], 0),
    (["vocab", "build"], 1),
    (["vocab", "coverage", "--vocab", GOLDEN / "vocab.tsv"], 1),
    (["decompose"], 1),
    (["export-views", "--target", "motif"], 1),
    (["export-views", "--strategy", "moama", "--target", "atom_type"], 0),
], ids=["mi", "jsd", "shuffle-control", "mi-atom_type", "vocab-build", "vocab-coverage",
        "decompose", "export-views-motif", "export-views-moama-atom_type"])
def test_motif_pass_runs_once_per_command(argv, passes, motif_passes, tmp_path, capsys):
    """A command that reads motif signatures decomposes and signs every
    parsed record once, however many analyses read them; one that reads
    none never does, even when its strategy masks whole motifs."""
    from molmask import DatasetManifest, ingest

    records, _ = ingest(DatasetManifest(path=str(DEMO_CORPUS), label_column="activity"))
    output = [] if argv[0] == "decompose" else ["--output", tmp_path / "out"]
    assert run([*argv, "--input", DEMO_CORPUS, *output]) == 0
    assert motif_passes == [rec.graph for rec in records] * passes


def test_library_motif_count_runs_no_motif_pass(motif_passes):
    """A motif column reads the motifs it is given: without them it is
    a DataError, not a motif pass of its own."""
    from molmask import DataError, build_vocab, parse_smiles, target_column

    vocab = build_vocab([["a signature"]])
    with pytest.raises(DataError, match="motif targets need motifs"):
        target_column("motif", [parse_smiles("c1ccccc1CCO")], {"vocab": vocab})
    assert motif_passes == []


UNREAD_INPUTS = [
    ("atom_type", "--vocab", "--vocab is read only by the 'motif' target"),
    ("atom_type", "--embeddings", "--embeddings is read only by the 'vq_code' target"),
    ("motif", "--codebook", "--codebook is read only by the 'vq_code' target"),
    ("vq_code", "--logits", "--logits is read only by the 'argmax_token' target"),
    ("argmax_token", "--vq-normalize", "--vq-normalize is read only by the 'vq_code' target"),
]
SCORES_UNREAD = "--scores is read only by the 'external' strategy"


@pytest.mark.parametrize("command, choice, flag, message", [
    *(pytest.param(command, [target_flag(command), kind], flag, message,
                   id=f"{command}-{flag[2:]}")
      for command in ("mi", "jsd", "shuffle-control", "export-views")
      for kind, flag, message in UNREAD_INPUTS),
    pytest.param("mask-sim", ["--strategies", "uniform,moama"], "--scores", SCORES_UNREAD,
                 id="mask-sim-scores"),
    pytest.param("export-views", ["--strategy", "pagerank"], "--scores", SCORES_UNREAD,
                 id="export-views-scores"),
])
def test_unread_target_input_is_usage_error(command, choice, flag, message, tmp_path, capsys):
    """An input flag that no requested target kind or strategy reads is
    a usage error, found before the corpus, which does not exist here,
    or the flag's file is read."""
    needs = {"vq_code": ["--embeddings", "e.csv", "--codebook", "b.csv"],
             "argmax_token": ["--logits", "l.csv"]}.get(choice[-1], [])
    value = [] if flag == "--vq-normalize" else [tmp_path / "bad.tsv"]
    out = tmp_path / "out"
    assert run([command, "--input", tmp_path / "absent.csv", *label_col([command]),
                *choice, *needs, flag, *value, "--output", out]) == 1
    assert capsys.readouterr().err == f"usage error: {message}\n"
    assert not out.exists()


# Rows for graphs 0 and 3 only: graph 1 has a missing label and graph 2
# is a single atom, so an analysis counts neither.
UNEVEN_CORPUS = [("CCO", 1), ("CCN", ""), ("C", 0), ("CCCl", 0)]
UNEVEN_ROWS = "".join(f"{g},{a},{a % 2}.0,1.0\n" for g in (0, 3) for a in range(3))


def uneven_inputs(tmp_path):
    """The uneven corpus, and the flags of each vector kind's inputs."""
    corpus = write_corpus_csv(tmp_path / "corpus.csv", UNEVEN_CORPUS)
    (tmp_path / "rows.csv").write_text(UNEVEN_ROWS)
    (tmp_path / "book.csv").write_text("0.0,1.0\n1.0,1.0\n")
    return corpus, {
        "vq_code": ["--embeddings", tmp_path / "rows.csv", "--codebook", tmp_path / "book.csv"],
        "argmax_token": ["--logits", tmp_path / "rows.csv"],
    }


def test_uncounted_graphs_need_no_rows(tmp_path, capsys):
    """mi labels only the graphs it counts, so the vector inputs need
    no rows for the others."""
    corpus, flags = uneven_inputs(tmp_path)
    out = tmp_path / "mi.csv"
    assert run(["mi", "--input", corpus, "--label-col", "activity",
                "--targets", "vq_code,argmax_token", *flags["vq_code"], *flags["argmax_token"],
                "--output", out]) == 0
    rows = out.read_text().splitlines()[1:]
    assert [row.split(",")[MI_COLUMNS.index("n_pairs")] for row in rows] == ["6", "6"]


@pytest.mark.parametrize("kind, what", [("vq_code", "embeddings"), ("argmax_token", "logits")])
def test_export_views_missing_rows_leave_no_file(kind, what, tmp_path, capsys):
    """export-views labels every record before it opens its output, so
    rows missing for a later graph leave no partial views file."""
    corpus, flags = uneven_inputs(tmp_path)
    out = tmp_path / "views.jsonl"
    assert run(["export-views", "--input", corpus, "--target", kind, *flags[kind],
                "--output", out]) == 2
    assert capsys.readouterr().err == f"data error: no {what} for graph at corpus position 1\n"
    assert not out.exists()
