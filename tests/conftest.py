"""Shared fixtures: molecule sets, synthetic labeled corpora, dataset
discovery for the real-data checks, and the acceptance summary hook."""

from __future__ import annotations

import csv
import os
import random
from pathlib import Path

import pytest

from molmask import ingest

# Diverse, hand-picked molecules exercising every token family the
# parser supports.  Parser, signature, and masking property tests all
# draw from this list.
FIXTURE_SMILES = [
    "C",
    "CC",
    "CCO",
    "CCN",
    "C#N",
    "C=C=C",
    "CC(C)O",
    "CC(C)(C)C",
    "C1CC1",
    "C1CCCCC1",
    "c1ccccc1",
    "c1ccncc1",
    "c1ccoc1",
    "c1ccsc1",
    "c1cc[nH]c1",
    "C1CC1CCC1CC1",
    "c1ccc2ccccc2c1",
    "N1CC2CCC1CC2",
    "C%10CCCCC%10",
    "c1ccc(cc1)-c1ccccc1",
    "c1ccc(cc1)c1ccccc1",
    "CCCl",
    "CCBr",
    "CCI",
    "FC(F)(F)c1ccccc1",
    "[NH4+]",
    "[O-]C(=O)C",
    "[13CH3][C@@H](N)C(=O)[O-]",
    "CC(=O)Nc1ccc(O)cc1",
    "OC(=O)c1ccccc1OC(C)=O",
    "CN1C=NC2=C1C(=O)N(C)C(=O)N2C",
    "CC(C)CC1=CC=C(C=C1)C(C)C(=O)O",
    "O=C(O)CCCCC1CCSS1",
    "C/C=C/C",
    "N[Pt](N)(Cl)Cl",
]

# Class-specific rare marker fragments and shared filler for the
# synthetic corpora: common structure is class-neutral, markers are
# class-exclusive and rare, so low-frequency analyses have something to
# find.
_TAILS = ["C", "CC", "CCC", "CCO", "CC(C)C"]
_MARKERS_POS = ["c1ccncc1", "c1ccoc1", "c1ccsc1", "c1cc[nH]c1"]
_MARKERS_NEG = ["C1CC1", "C1CCC1", "C1COC1", "C1CCCC1"]

_TEMPLATES_POS = [
    "ClCCCl", "BrCCBr", "ClC(Cl)C", "BrC(Br)C",
    "ClCCCCl", "ICCI", "ClCC(Cl)C", "BrCCCBr",
]
_TEMPLATES_NEG = [
    "OCCO", "NCCN", "OC(O)C", "NC(N)C",
    "OCCCO", "OCCN", "OCC(O)C", "NCCCN",
]


def ring_marker_corpus(n_per_class: int = 200, seed: int = 11) -> list[tuple[str, int]]:
    """Benzene-cored molecules; class-exclusive rare ring markers."""
    rng = random.Random(seed)
    rows = []
    for y in (0, 1):
        markers = _MARKERS_POS if y else _MARKERS_NEG
        for _ in range(n_per_class):
            tail = rng.choice(_TAILS)
            if rng.random() < 0.35:
                marker = rng.choice(markers)
                smiles = f"{marker}{tail}c1ccccc1"
            else:
                smiles = f"{tail}c1ccccc1"
            rows.append((smiles, y))
    rng.shuffle(rows)
    return rows


def template_corpus(n_per_class: int = 150, seed: int = 23) -> list[tuple[str, int]]:
    """Acyclic molecules drawn from class-exclusive template pools."""
    rng = random.Random(seed)
    rows = []
    for y in (0, 1):
        pool = _TEMPLATES_POS if y else _TEMPLATES_NEG
        for _ in range(n_per_class):
            rows.append((rng.choice(pool), y))
    rng.shuffle(rows)
    return rows


def mixed_corpus(seed: int = 37) -> list[tuple[str, object]]:
    """Ring corpus plus singletons, missing labels, and broken rows."""
    rows: list[tuple[str, object]] = list(ring_marker_corpus(60, seed=seed))
    rows += [("C", 0), ("N", 1), ("[Fe]", 0)]
    rows += [("c1ccccc1CC", ""), ("CCOC", "")]
    rows += [("C1CC", 1), ("CC(C", 0), ("CC.CC", 1), ("C$C", 0)]
    random.Random(seed + 1).shuffle(rows)
    return rows


def write_corpus_csv(path: Path, rows) -> Path:
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["smiles", "activity"])
        for smiles, y in rows:
            writer.writerow([smiles, y])
    return path


def counted_column(records, kind, vocab=None, **inputs):
    """The ``kind`` target column over the records an analysis counts,
    built the way a command builds it: with a vocabulary, one
    graph_motifs pass over every record next to it; other inputs as
    given, keyed by position in ``records``."""
    from molmask import graph_motifs, target_column, usable_positions

    graphs = [rec.graph for rec in records]
    if vocab is not None:
        inputs.update(vocab=vocab, motifs=[graph_motifs(graph) for graph in graphs])
    return target_column(kind, graphs, inputs, usable_positions(records)[0])


def usable_records(records):
    """The records a label analysis counts, in corpus order."""
    from molmask import usable_positions

    return [records[pos] for pos in usable_positions(records)[0]]


def signature_lists(graphs):
    """Each graph's motif signatures, from one graph_motifs pass."""
    from molmask import graph_motifs

    return [graph_motifs(graph).signatures for graph in graphs]


def vocab_of(graphs):
    """The motif vocabulary counted over ``graphs``."""
    from molmask import build_vocab

    return build_vocab(signature_lists(graphs))


def atoms_signature(graph, atoms):
    """The signature of the subgraph that ``atoms`` induce, signed as
    the one motif of a partition made by hand; the other atoms are in
    no motif."""
    from molmask import MotifPartition, motif_signatures

    motif = tuple(sorted(set(atoms)))
    motif_of = tuple(0 if atom in motif else -1 for atom in range(graph.n_atoms))
    [signature] = motif_signatures(graph, MotifPartition((motif,), (), motif_of))
    return signature


def signature_golden_smiles() -> list[str]:
    """The molecules of golden/signatures.txt, which ``decompose``
    prints one unindented line each, before their motifs."""
    golden = Path(__file__).resolve().parent / "golden" / "signatures.txt"
    return [line for line in golden.read_text().splitlines() if not line.startswith(" ")]


@pytest.fixture
def four_cpus(monkeypatch):
    """Four usable CPUs, whatever the host has, so that parallel_map
    forks one process per worker up to four."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2, 3}, raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 4)


@pytest.fixture(scope="session")
def fixture_graphs():
    from molmask import parse_smiles

    return [parse_smiles(s) for s in FIXTURE_SMILES]


@pytest.fixture(scope="session")
def corpus_dir(tmp_path_factory) -> Path:
    base = tmp_path_factory.mktemp("corpora")
    write_corpus_csv(base / "ring_marker.csv", ring_marker_corpus())
    write_corpus_csv(base / "template.csv", template_corpus())
    write_corpus_csv(base / "mixed.csv", mixed_corpus())
    return base


@pytest.fixture(scope="session")
def ring_marker_records(corpus_dir):
    records, _ = ingest(corpus_dir / "ring_marker.csv", label_column="activity")
    return records


# Real downstream datasets are optional: the heavy reference checks run
# only when the files are present (see README for where to put them).
DATA_DIR = Path(os.environ.get("MOLMASK_DATA_DIR", Path(__file__).resolve().parent.parent / "data"))

_SMILES_CANDIDATES = ("smiles", "mol", "SMILES")
_LABEL_CANDIDATES = ("Class", "p_np", "activity", "label", "HIV_active")


def load_reference_dataset(stem: str):
    """Load data/<stem>.csv if present, else skip the calling test."""
    for name in (f"{stem}.csv", f"{stem.lower()}.csv", f"{stem.upper()}.csv"):
        path = DATA_DIR / name
        if path.exists():
            break
    else:
        pytest.skip(
            f"reference dataset {stem}.csv not present under {DATA_DIR}; "
            "see README section 'Reference datasets'"
        )
    with open(path, newline="") as handle:
        header = next(csv.reader(handle))
    smiles_col = next((c for c in _SMILES_CANDIDATES if c in header), None)
    label_col = next((c for c in _LABEL_CANDIDATES if c in header), None)
    if smiles_col is None or label_col is None:
        pytest.skip(f"{path} lacks a recognizable smiles/label column pair: {header}")
    return ingest(path, smiles_col, label_col)


# Acceptance reporting: every test marked criterion(n, title) feeds one
# PASS/FAIL/SKIP line into the terminal summary.
_CRITERION_RESULTS: dict[int, tuple[str, str, str]] = {}


def pytest_configure(config):
    config.addinivalue_line(
        "markers", "criterion(num, title): numbered acceptance criterion"
    )


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_makereport(item, call):
    outcome = yield
    report = outcome.get_result()
    marker = item.get_closest_marker("criterion")
    if marker is None:
        return
    num, title = marker.args
    if report.when == "call" or (report.when == "setup" and report.skipped):
        if report.passed:
            status, detail = "PASS", f"{report.duration:.2f}s"
        elif report.skipped:
            status = "SKIP"
            detail = report.longrepr[2] if isinstance(report.longrepr, tuple) else str(report.longrepr)
        else:
            status, detail = "FAIL", ""
        _CRITERION_RESULTS[num] = (title, status, detail)


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _CRITERION_RESULTS:
        return
    terminalreporter.write_sep("-", "acceptance criteria")
    for num in sorted(_CRITERION_RESULTS):
        title, status, detail = _CRITERION_RESULTS[num]
        suffix = f" ({detail})" if detail else ""
        terminalreporter.write_line(f"criterion {num:>2} {status:<4} {title}{suffix}")
