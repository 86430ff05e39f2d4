"""Import budgets: each command loads only the modules it runs.

pytest has numpy and every molmask module loaded already, so each
budget is checked in a fresh interpreter.
"""

import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import molmask

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden"
DEMO_CORPUS = ROOT / "demos" / "data" / "demo_corpus.csv"

# Every name the package exported when it still imported all of its
# modules eagerly, by the module it was imported from then, less the
# library-only target wrappers, masked-graph builder, one-graph PageRank,
# Atom/Bond classes, MaskPlan, read_views and ring_membership deleted or
# moved to the tests since, with bind_strategy and strategy_scores
# folded into bind_corpus, with the target-column names added, and with
# canonical_signature and analysis_records deleted and graph_motifs, the
# one motif pass, added, with the NodeScores, DatasetManifest and
# ShuffleResult wrappers deleted, with low_freq_conditionals and
# EmptySupport folded into jsd_curve, and with the report CSV functions
# looked up in report, which defines them, not in workbench.
PUBLIC_NAMES = {
    "errors": "DataError DimMismatch DisconnectedMotif EmptyCounts MissingColumn "
              "MolmaskError MultiFragment NonFiniteScore OutOfRangeIndex ParseError "
              "ShapeMismatch UnbalancedParen UnclosedRing UnknownToken",
    "molgraph": "LabeledRecord MASK_SENTINEL MolGraph parse_smiles write_smiles",
    "motif": "CoverageStats MotifPartition MotifVocab build_vocab coverage decompose "
             "graph_motifs motif_adjacency motif_signatures",
    "scoring": "load_external_scores pagerank_all",
    "masking": "MaskConfig STRATEGIES bind_corpus export_views mask_count substream",
    "targets": "TargetColumn load_codebook load_embeddings target_column target_columns",
    "infotheory": "DEFAULT_TAUS JointCounts JsdCurve SampledMi entropy_y jsd "
                  "jsd_curve mutual_information relative_gain "
                  "sample_pairs_for_graph shuffle_control",
    "workbench": "AnalysisReport IngestStats build_vocab_tsv "
                 "config_hash exact_joint_counts ingest load_vocab_tsv parallel_map "
                 "run_coverage run_jsd_analysis run_mask_sim run_mi_analysis "
                 "run_shuffle_control usable_positions",
    "report": "read_report_csv write_report_csv",
    "svg": "render_svg",
    "_version": "__version__",
}
ALL_NAMES = sorted(name for names in PUBLIC_NAMES.values() for name in names.split())


def run_fresh(code: str, cwd: Path) -> list[str]:
    """Run code in a new interpreter with the sources on its path; the
    words of its last stdout line."""
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    proc = subprocess.run(
        [sys.executable, "-c", code], cwd=cwd, env=env, capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()[-1].split()


def test_import_molmask_loads_only_the_version(tmp_path):
    loaded = run_fresh(
        "import sys, molmask\n"
        f"missing = set({ALL_NAMES!r}) - set(dir(molmask))\n"
        "assert not missing, missing\n"
        "print(*sorted(m for m in sys.modules if m == 'numpy' or m.startswith('molmask')))\n",
        tmp_path,
    )
    assert loaded == ["molmask", "molmask._version"]


def test_public_names_are_the_defining_objects():
    wrong = [
        name
        for module, names in PUBLIC_NAMES.items()
        for name in names.split()
        if getattr(molmask, name) is not getattr(importlib.import_module(f"molmask.{module}"), name)
    ]
    assert not wrong
    assert set(ALL_NAMES) <= set(dir(molmask))


def test_unknown_name_is_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        molmask.no_such_name
    assert not hasattr(molmask, "frobnicate")
    with pytest.raises(ImportError):
        from molmask import no_such_name  # noqa: F401


@pytest.mark.parametrize("name", [
    "MaskPlan", "read_views", "ring_membership", "bind_strategy", "strategy_scores",
    "analysis_records", "canonical_signature", "vocab_from_signatures",
    "NodeScores", "DatasetManifest", "ShuffleResult", "low_freq_conditionals", "EmptySupport",
])
def test_removed_names_are_attribute_errors(name):
    # A mask is its sorted atom tuple, views are plain JSON lines, the
    # ring-flag oracle lives in tests/ring_reference.py, a run binds its
    # strategies and scores through bind_corpus, a graph's motifs are
    # signed only by graph_motifs and counted by build_vocab, and the
    # usable records are read by position (usable_positions).  Scores
    # are float64 arrays, ingest takes the corpus path and columns, and
    # shuffle_control returns a SampledMi.  jsd_curve keeps a
    # threshold's labels and flags an undefined point itself.
    with pytest.raises(AttributeError, match=name):
        getattr(molmask, name)


def test_version_and_plot_run_without_numpy(tmp_path):
    """--version and plot import no numpy: with numpy unimportable both
    still succeed, and the charts match the golden bytes."""
    loaded = run_fresh(
        "import sys\n"
        "sys.modules['numpy'] = None\n"
        "from molmask import cli\n"
        "assert cli.main(['--version']) == 0\n"
        f"assert cli.main(['plot', '--report', {str(GOLDEN / 'jsd.csv')!r},"
        " '--output', 'jsd.svg']) == 0\n"
        f"assert cli.main(['plot', '--report', {str(GOLDEN / 'mi.csv')!r},"
        " '--output', 'mi.svg']) == 0\n"
        "print(*sorted(m for m in sys.modules if m.startswith('molmask')))\n",
        tmp_path,
    )
    assert (tmp_path / "jsd.svg").read_bytes() == (GOLDEN / "jsd.svg").read_bytes()
    assert (tmp_path / "mi.svg").read_text().startswith("<svg")
    assert "molmask.workbench" not in loaded


# statistics brings fractions and decimal with it; parallel_map forks
# without the process-pool modules.
NOT_LOADED_BY_ANALYSES = ("statistics", "concurrent.futures", "multiprocessing")


@pytest.mark.parametrize("argv", [
    ["mi", "--label-col", "activity", "--targets", "atom_type,motif"],
    ["jsd", "--label-col", "activity"],
    ["shuffle-control", "--label-col", "activity", "--target", "motif"],
], ids=lambda argv: argv[0])
def test_exact_commands_load_no_masking_scoring_svg_or_pool(argv, tmp_path):
    loaded = run_fresh(
        "import sys\n"
        "from molmask import cli\n"
        f"assert cli.main(['--workers', '1', *{argv!r}, '--input', {str(DEMO_CORPUS)!r},"
        " '--output', 'out.csv']) == 0\n"
        "print(*sorted(sys.modules))\n",
        tmp_path,
    )
    assert (tmp_path / "out.csv").exists()
    for module in ("molmask.masking", "molmask.scoring", "molmask.svg", *NOT_LOADED_BY_ANALYSES):
        assert module not in loaded


def test_mask_sim_fans_out_without_pool_modules(tmp_path):
    """Two workers on two usable CPUs, whatever the host has: the golden
    report, and neither statistics nor a process-pool module loaded."""
    name, argv = "mask_sim.csv", ["mask-sim", "--label-col", "activity", "--strategies",
                                  "uniform,pagerank,moama,motifpred", "--repeats", "2"]
    loaded = run_fresh(
        "import os, sys\n"
        "os.sched_getaffinity = lambda pid: {0, 1}\n"
        "forks = []\n"
        "fork = os.fork\n"
        "os.fork = lambda: forks.append(1) or fork()\n"
        "from molmask import cli\n"
        f"assert cli.main(['--workers', '2', *{argv!r}, '--input', {str(DEMO_CORPUS)!r},"
        f" '--output', {name!r}]) == 0\n"
        "assert forks == [1], forks\n"
        "print(*sorted(sys.modules))\n",
        tmp_path,
    )
    assert (tmp_path / name).read_bytes() == (GOLDEN / name).read_bytes()
    assert not set(NOT_LOADED_BY_ANALYSES) & set(loaded)
