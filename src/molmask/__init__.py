"""molmask: masking-signal analysis for molecular graphs.

Parse SMILES into heavy-atom graphs, cut them into motifs, mask atoms
under the strategies used for self-supervised pretraining, extract the
matching prediction targets, and measure how informative each target
signal is about a downstream binary label (mutual information and
low-frequency Jensen-Shannon divergence).

Every public name below is importable from the package, but resolved
on first use (PEP 562): ``import molmask`` loads only the version, and
``from molmask import render_svg`` loads the SVG and report modules,
not numpy.  Each name is the same object as in the module that defines
it.
"""

from importlib import import_module as _import_module

from ._version import __version__

_EXPORTS = {
    "errors": (
        "DataError", "DimMismatch", "DisconnectedMotif", "EmptyCounts",
        "MissingColumn", "MolmaskError", "MultiFragment",
        "NonFiniteScore", "OutOfRangeIndex", "ParseError", "ShapeMismatch",
        "UnbalancedParen", "UnclosedRing", "UnknownToken",
    ),
    "choices": ("DEFAULT_TAUS", "STRATEGIES", "TARGET_KINDS"),
    "molgraph": (
        "LabeledRecord", "MASK_SENTINEL", "MolGraph", "parse_smiles", "write_smiles",
    ),
    "motif": (
        "CoverageStats", "MotifPartition", "MotifVocab", "build_vocab",
        "coverage", "decompose", "graph_motifs", "motif_adjacency", "motif_signatures",
    ),
    "scoring": ("load_external_scores", "pagerank_all"),
    "masking": (
        "MaskConfig", "bind_corpus", "export_views", "mask_count", "substream",
    ),
    "targets": (
        "TargetColumn", "load_codebook", "load_embeddings", "target_column", "target_columns",
    ),
    "infotheory": (
        "JointCounts", "JsdCurve", "SampledMi", "entropy_y",
        "jsd", "jsd_curve", "mutual_information",
        "relative_gain", "sample_pairs_for_graph", "shuffle_control",
    ),
    "report": ("AnalysisReport", "read_report_csv", "write_report_csv"),
    "workbench": (
        "IngestStats", "build_vocab_tsv",
        "config_hash", "exact_joint_counts", "ingest", "load_vocab_tsv",
        "parallel_map", "run_coverage", "run_jsd_analysis", "run_mask_sim",
        "run_mi_analysis", "run_shuffle_control", "usable_positions",
    ),
    "svg": ("render_svg",),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = ["__version__", *_MODULE_OF]


def __getattr__(name: str):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(_import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(_MODULE_OF))
