"""molmask: masking-signal analysis for molecular graphs.

Parse SMILES into heavy-atom graphs, cut them into motifs, mask atoms
under the strategies used for self-supervised pretraining, extract the
matching prediction targets, and measure how informative each target
signal is about a downstream binary label (mutual information and
low-frequency Jensen-Shannon divergence).
"""

from ._version import __version__
from .errors import (
    DataError,
    DimMismatch,
    DisconnectedMotif,
    EmptyCounts,
    EmptySupport,
    MissingColumn,
    MolmaskError,
    MultiFragment,
    NonFiniteScore,
    OutOfRangeIndex,
    ParseError,
    ShapeMismatch,
    UnbalancedParen,
    UnclosedRing,
    UnknownToken,
)
from .molgraph import (
    Atom,
    Bond,
    LabeledRecord,
    MASK_SENTINEL,
    MolGraph,
    parse_smiles,
    ring_membership,
    write_smiles,
)
from .motif import (
    CoverageStats,
    MotifPartition,
    MotifVocab,
    build_vocab,
    canonical_signature,
    coverage,
    decompose,
    motif_adjacency,
    motif_signatures,
)
from .scoring import NodeScores, load_external_scores, pagerank, pagerank_all
from .masking import (
    MaskConfig,
    MaskedGraph,
    MaskPlan,
    STRATEGIES,
    apply_mask,
    bind_strategy,
    export_views,
    mask_count,
    read_views,
    strategy_scores,
    substream,
)
from .targets import (
    ATOM_TYPE_SPACE,
    TARGET_KINDS,
    TargetAssignment,
    argmax_targets,
    atom_type_targets,
    load_codebook,
    load_embeddings,
    motif_targets,
    vq_targets,
)
from .infotheory import (
    DEFAULT_TAUS,
    JointCounts,
    JsdCurve,
    SampledMi,
    ShuffleResult,
    entropy_y,
    jsd,
    jsd_curve,
    low_freq_conditionals,
    mutual_information,
    relative_gain,
    sample_pairs_for_graph,
    shuffle_control,
)
from .workbench import (
    AnalysisReport,
    DatasetManifest,
    IngestStats,
    analysis_records,
    build_vocab_tsv,
    config_hash,
    exact_joint_counts,
    ingest,
    load_vocab_tsv,
    parallel_map,
    read_report_csv,
    run_coverage,
    run_jsd_analysis,
    run_mask_sim,
    run_mi_analysis,
    run_shuffle_control,
    write_report_csv,
)
from .svg import render_svg
