"""Dataset ingestion and end-to-end analyses with deterministic reports.

Every run function returns an AnalysisReport whose CSV emission is
byte-for-byte reproducible: floats use one fixed format, provenance
columns carry the toolkit version, base seed, and a hash of the
analysis configuration, and worker results come back in corpus order
before they are counted, so --workers never changes any output byte.
"""

from __future__ import annotations

import csv
import hashlib
import json
import os
import pickle
from dataclasses import dataclass, field, replace
from functools import partial
from pathlib import Path
from typing import TYPE_CHECKING, Any, Callable, Optional, Sequence

import numpy as np

from ._version import __version__
from .errors import DataError, EmptyCounts, MissingColumn, ParseError, ShapeMismatch
from .infotheory import (
    DEFAULT_TAUS,
    JointCounts,
    entropy_y,
    jsd_curve,
    mutual_information,
    relative_gain,
    repeat_mi,
    sample_pairs_for_graph,
    shuffle_control,
)
from .molgraph import LabeledRecord, parse_smiles
from .motif import MotifVocab, coverage, decompose
# read_report_csv and write_report_csv stay importable from here, where
# perfbench/spans.py looks them up.
from .report import (
    COVERAGE_COLUMNS,
    JSD_COLUMNS,
    MI_COLUMNS,
    AnalysisReport,
    read_report_csv,
    write_report_csv,
)
from .targets import TargetResources, atom_labels, graph_motifs

if TYPE_CHECKING:
    from .masking import MaskConfig
    from .scoring import NodeScores


@dataclass(frozen=True)
class DatasetManifest:
    """Where a labeled SMILES corpus lives and how to read it."""

    path: str
    smiles_column: str = "smiles"
    label_column: str = ""
    name: str = ""

    @property
    def display_name(self) -> str:
        return self.name or Path(self.path).stem


@dataclass
class IngestStats:
    """What happened while reading a corpus."""

    rows_total: int = 0
    parsed: int = 0
    parse_failures: dict[str, int] = field(default_factory=dict)
    invalid_labels: int = 0
    singletons: int = 0


def config_hash(params: dict[str, Any]) -> str:
    """Short stable hash of the analysis configuration.

    Runtime-only knobs (worker count, output paths) must not be passed
    in: they may vary between byte-identical runs.
    """
    blob = json.dumps(params, sort_keys=True, default=str)
    return hashlib.sha256(blob.encode()).hexdigest()[:12]


def parallel_map(fn: Callable, items: Sequence, workers: int = 1) -> list:
    """Order-preserving map over at most ``workers`` processes, and no
    more than items or usable CPUs: this one maps the first contiguous
    shard, a forked child each other.  A child's exception is raised
    here, as is RuntimeError naming the exit status of a child ending
    with no result; every child is reaped first.  Serial without fork."""
    items = list(items)
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    shards = max(1, min(workers, len(items), cpus or 1)) if hasattr(os, "fork") else 1
    bounds = [len(items) * k // shards for k in range(shards + 1)]
    import signal  # only mask-sim loads it
    pipes, pids = [], []  # every child's read end; the children not yet reaped
    try:
        for start, stop in zip(bounds[1:-1], bounds[2:]):
            pids.append(_fork_shard(fn, items[start:stop], pipes))
        results = [fn(item) for item in items[: bounds[1]]]
        for pipe in pipes:
            payload = pipe.read()  # all of it before the reap: a child blocks on a full pipe
            pipe.close()
            status = os.waitpid(pids[0], 0)[1]
            pid = pids.pop(0)
            if status or not payload:
                code = os.waitstatus_to_exitcode(status)
                raise RuntimeError(f"worker process {pid} ended with exit status {code} and no result")
            ok, value = pickle.loads(payload)
            if not ok:
                raise value
            results += value
        return results
    finally:  # closed read ends fail a child's write, the kill ends its map: waitpid returns
        for pipe in pipes:
            pipe.close()
        for pid in pids:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)


def _fork_shard(fn: Callable, shard: Sequence, pipes: list) -> int:
    """Fork a child that pickles (True, results) or (False, exception)
    into a new pipe whose read end joins ``pipes``; return its pid.  It
    leaves by ``os._exit``: no return into our frames, no stdio flush."""
    read_fd, write_fd = os.pipe()
    pipes.append(open(read_fd, "rb"))
    with open(write_fd, "wb") as out:
        pid = os.fork()
        if pid:
            return pid
        status = 1
        try:
            for pipe in pipes:  # with no read end held, its write fails once the parent's closes
                pipe.close()
            try:
                payload = (True, [fn(item) for item in shard])
            except Exception as exc:
                payload = (False, exc)
            pickle.dump(payload, out, protocol=pickle.HIGHEST_PROTOCOL)
            out.flush()
            status = 0
        finally:
            os._exit(status)


def _read_label(cell: str) -> tuple[Optional[int], bool]:
    """Parse one label cell; (label, was_invalid)."""
    text = cell.strip()
    if not text or text.lower() in ("na", "nan", "none"):
        return None, False
    try:
        value = float(text)
    except ValueError:
        return None, True
    if value == 0.0:
        return 0, False
    if value == 1.0:
        return 1, False
    return None, True


def ingest(manifest: DatasetManifest) -> tuple[list[LabeledRecord], IngestStats]:
    """Read a CSV corpus into labeled records.

    Rows whose SMILES fail to parse are skipped and tallied by failure
    kind.  Each record's label comes from ``manifest.label_column`` (no
    column: every label is missing); unparseable or non-binary label
    cells become missing labels.  A row with fewer or more cells than
    the header raises ShapeMismatch naming its line.  The file is read
    as UTF-8, with or without a byte-order mark.
    Single-atom molecules are kept but counted, since the analysis
    stages will skip them.  Parsing runs in this process: a parsed
    graph costs more to ship back from a worker than to parse.
    """
    stats = IngestStats()
    records: list[LabeledRecord] = []
    with open(manifest.path, newline="", encoding="utf-8-sig") as handle:
        reader = csv.DictReader(handle)
        header = reader.fieldnames or []
        if manifest.smiles_column not in header:
            raise MissingColumn(
                f"column {manifest.smiles_column!r} not in {manifest.path}"
            )
        if manifest.label_column and manifest.label_column not in header:
            raise MissingColumn(f"column {manifest.label_column!r} not in {manifest.path}")
        for row in reader:
            if None in row.values() or None in row:
                raise ShapeMismatch(
                    f"{manifest.path}:{reader.line_num}: row has "
                    f"{'more' if None in row else 'fewer'} cells than the header"
                )
            stats.rows_total += 1
            try:
                graph = parse_smiles(row[manifest.smiles_column].strip())
            except ParseError as exc:
                tag = type(exc).__name__
                stats.parse_failures[tag] = stats.parse_failures.get(tag, 0) + 1
                continue
            label, bad = None, False
            if manifest.label_column:
                label, bad = _read_label(row[manifest.label_column])
            stats.invalid_labels += int(bad)
            records.append(LabeledRecord(graph=graph, label=label))
            stats.parsed += 1
            stats.singletons += int(graph.is_singleton)
    return records, stats


def _usable_positions(records: Sequence[LabeledRecord]) -> tuple[list[int], dict[str, int]]:
    """Corpus positions of the records usable for label analyses, and
    what was skipped: graphs with a missing label and single-atom
    graphs."""
    kept = []
    skipped = {"missing_label": 0, "singleton": 0}
    for pos, record in enumerate(records):
        if record.label is None:
            skipped["missing_label"] += 1
        elif record.graph.is_singleton:
            skipped["singleton"] += 1
        else:
            kept.append(pos)
    return kept, skipped


def _nothing_to_count(kind: str, tallies: dict[str, int]) -> EmptyCounts:
    """EmptyCounts for a run with no unit left to count, saying why."""
    reasons = {"missing_label": "graphs skipped for a missing label",
               "singleton": "single-atom graphs skipped", "excluded_unk": "motifs excluded as UNK"}
    return EmptyCounts(f"no {kind} units to count: "
                       + ", ".join(f"{n} {reasons[r]}" for r, n in tallies.items()))


def analysis_records(records: Sequence[LabeledRecord]) -> tuple[list[LabeledRecord], dict[str, int]]:
    """Keep records usable for label analyses; count what was skipped.

    Skips graphs with a missing label and single-atom graphs.
    """
    positions, skipped = _usable_positions(records)
    return [records[pos] for pos in positions], skipped


def exact_joint_counts(
    records: Sequence[LabeledRecord],
    kind: str,
    **resources,
) -> tuple[JointCounts, dict[str, int]]:
    """Enumerate every unit of every usable graph into joint counts.

    Units are atoms for atom_type / argmax_token / vq_code and motifs
    for motif.  Motifs outside the vocabulary are excluded from the
    counts and tallied under 'excluded_unk'.  ``resources`` are
    TargetResources fields (vocab, motifs, embeddings, codebook, logits,
    vq_normalize), per-graph ones keyed by position in ``records``;
    without ``motifs``, a motif count first decomposes and signs every
    graph, serially.  Raises EmptyCounts, with the skip tallies, when no
    unit is left to count.
    """
    target = TargetResources(**resources)
    positions, extras = _usable_positions(records)
    extras["excluded_unk"] = 0
    unk = None
    if kind == "motif":
        if target.vocab is None:
            raise DataError("motif analysis needs a vocabulary")
        if target.motifs is None:
            target = replace(target, motifs=[graph_motifs(rec.graph) for rec in records])
        unk = target.vocab.unk_id
    xs: list[int] = []
    ys: list[int] = []
    for pos in positions:
        record = records[pos]
        units = target.unit_labels(kind, pos, record.graph)
        xs += units
        ys += [record.label] * len(units)
    x, y = np.asarray(xs, dtype=np.int64), np.asarray(ys, dtype=np.int64)
    if unk is not None:
        keep = x != unk
        extras["excluded_unk"] = int(np.count_nonzero(~keep))
        x, y = x[keep], y[keep]
    if not x.size:
        raise _nothing_to_count(kind, extras)
    return JointCounts.from_arrays(x, y), extras


def run_mi_analysis(
    records: Sequence[LabeledRecord],
    kinds: Sequence[str],
    *,
    dataset_name: str,
    seed: int = 0,
    **resources,
) -> AnalysisReport:
    """Exact MI of each target kind against the graph label.

    ``resources`` are TargetResources fields, as for exact_joint_counts.
    """
    chash = config_hash(
        {"analysis": "mi", "dataset": dataset_name, "kinds": list(kinds), "seed": seed}
    )
    report = AnalysisReport(kind="mi", columns=MI_COLUMNS)
    for kind in kinds:
        joint, _ = exact_joint_counts(records, kind, **resources)
        mi = mutual_information(joint)
        h_y = entropy_y(joint)
        report.rows.append((
            dataset_name, kind, "exact",
            mi, h_y, relative_gain(mi, h_y), joint.total, "", "",
            __version__, seed, chash,
        ))
    return report


def run_jsd_analysis(
    records: Sequence[LabeledRecord],
    kinds: Sequence[str],
    *,
    dataset_name: str,
    taus: Sequence[float] = DEFAULT_TAUS,
    seed: int = 0,
    **resources,
) -> AnalysisReport:
    """Low-frequency JSD curves of each target kind; ``resources`` as
    for run_mi_analysis."""
    chash = config_hash(
        {
            "analysis": "jsd", "dataset": dataset_name, "kinds": list(kinds),
            "taus": [float(t) for t in taus], "seed": seed,
        }
    )
    report = AnalysisReport(kind="jsd", columns=JSD_COLUMNS)
    for kind in kinds:
        joint, _ = exact_joint_counts(records, kind, **resources)
        curve = jsd_curve(joint, taus)
        for tau, value, kept, ok in zip(curve.taus, curve.values, curve.labels_kept, curve.defined):
            report.rows.append((
                dataset_name, kind, tau, value, kept, int(ok),
                __version__, seed, chash,
            ))
    return report


def _sample_graph(
    task: tuple,
    strategies: Sequence[str],
    config: MaskConfig,
    repeats: int,
    seed: int,
) -> np.ndarray:
    """One graph's sampled unit labels under every strategy: a
    (strategies, repeats, n_atoms) array of the task's labels.

    Self-contained per graph so the corpus can be partitioned across
    processes freely; determinism comes from value-keyed substreams
    inside sample_pairs_for_graph.  The graph is decomposed at most
    once, and the motif strategies share its partition; ``scores`` maps
    each scored strategy to this graph's scores.
    """
    from .masking import MOTIF_STRATEGIES, bind_strategy

    graph, graph_index, labels, scores = task
    partition = decompose(graph) if set(strategies) & set(MOTIF_STRATEGIES) else None
    bound = [
        bind_strategy(strategy, config)(graph, scores.get(strategy), partition)
        for strategy in strategies
    ]
    return sample_pairs_for_graph(graph, graph_index, labels, bound, repeats, seed)


def run_mask_sim(
    records: Sequence[LabeledRecord],
    strategies: Sequence[str],
    config: MaskConfig,
    *,
    dataset_name: str,
    repeats: int = 5,
    seed: int = 0,
    workers: int = 1,
    external_scores: Optional[Sequence[NodeScores]] = None,
) -> AnalysisReport:
    """Sampled atom-type MI under each masking strategy.

    Per repeat and graph, as many atoms are sampled as the graph has;
    rows report the across-repeat mean and sample standard deviation.
    The corpus fans out once, one task per graph covering every
    strategy; PageRank runs once, over the usable graphs, before it.
    External scores are keyed by position in ``records``.  Raises
    EmptyCounts, with the skip tallies, when no graph is usable.
    """
    from .masking import strategy_scores

    positions, skipped = _usable_positions(records)
    if not positions:
        raise _nothing_to_count("atom_type", skipped)
    chash = config_hash(
        {
            "analysis": "mask_sim", "dataset": dataset_name,
            "strategies": list(strategies), "repeats": repeats, "seed": seed,
            "ratio": config.ratio, "beta": config.beta,
            "epoch": config.effective_epoch, "max_epoch": config.max_epoch,
            "intra": config.intra_motif_fraction,
            # Settings of earlier versions, kept so the hash stays the same.
            "samples_per_graph": None, "unique_nodes": False,
        }
    )
    scored = strategy_scores(
        strategies, [records[pos].graph for pos in positions],
        None if external_scores is None else [external_scores[pos] for pos in positions],
    )
    # Atom types fit uint8 (the parser emits 0..118 and MolGraph bounds
    # the rest to 0..119), which keeps the label arrays the workers send
    # back small.
    tasks = [
        (
            records[pos].graph, g, np.asarray(atom_labels(records[pos].graph), dtype=np.uint8),
            {strategy: scores[g] for strategy, scores in scored.items()},
        )
        for g, pos in enumerate(positions)
    ]
    worker = partial(
        _sample_graph,
        strategies=tuple(strategies), config=config, repeats=repeats, seed=seed,
    )
    per_graph = parallel_map(worker, tasks, workers)
    graph_labels = [records[pos].label for pos in positions]
    report = AnalysisReport(kind="mi", columns=MI_COLUMNS)
    for s, strategy in enumerate(strategies):
        sampled = repeat_mi([samples[s] for samples in per_graph], graph_labels, repeats)
        report.rows.append((
            dataset_name, "atom_type", strategy,
            sampled.mean, sampled.h_y, relative_gain(sampled.mean, sampled.h_y),
            sampled.n_pairs, sampled.mean, sampled.std, __version__, seed, chash,
        ))
    return report


def run_shuffle_control(
    records: Sequence[LabeledRecord],
    kind: str,
    *,
    dataset_name: str,
    repeats: int = 5,
    seed: int = 0,
    **resources,
) -> AnalysisReport:
    """Original MI next to its label-shuffled control; ``resources`` as
    for run_mi_analysis."""
    chash = config_hash(
        {
            "analysis": "shuffle", "dataset": dataset_name, "kind": kind,
            "repeats": repeats, "seed": seed,
        }
    )
    joint, _ = exact_joint_counts(records, kind, **resources)
    mi = mutual_information(joint)
    h_y = entropy_y(joint)
    shuffled = shuffle_control(joint, repeats=repeats, seed=seed)
    report = AnalysisReport(kind="mi", columns=MI_COLUMNS)
    report.rows.append((
        dataset_name, kind, "exact",
        mi, h_y, relative_gain(mi, h_y), joint.total, "", "",
        __version__, seed, chash,
    ))
    report.rows.append((
        dataset_name, kind, "shuffled",
        shuffled.mean, h_y, relative_gain(shuffled.mean, h_y), joint.total,
        shuffled.mean, shuffled.std, __version__, seed, chash,
    ))
    return report


def run_coverage(
    vocab: MotifVocab,
    records: Sequence[LabeledRecord],
    *,
    dataset_name: str,
    seed: int = 0,
) -> AnalysisReport:
    """Vocabulary coverage of a downstream corpus."""
    chash = config_hash({"analysis": "coverage", "dataset": dataset_name, "seed": seed})
    stats = coverage(vocab, [rec.graph for rec in records])
    report = AnalysisReport(kind="coverage", columns=COVERAGE_COLUMNS)
    report.rows.append((
        dataset_name, stats.overlap_ratio, stats.mean_r, stats.median_r,
        stats.pct_r_ge_080, stats.pct_r_le_020,
        __version__, seed, chash,
    ))
    return report


def build_vocab_tsv(vocab: MotifVocab, path: str | Path) -> None:
    """Write a vocabulary as TSV: signature, id, count."""
    ranked = sorted(vocab.ids.items(), key=lambda kv: kv[1])
    with open(path, "w", newline="") as handle:
        handle.write("signature\tid\tcount\n")
        for sig, idx in ranked:
            handle.write(f"{sig}\t{idx}\t{vocab.counts[sig]}\n")


def load_vocab_tsv(path: str | Path) -> MotifVocab:
    """Read a vocabulary TSV written by build_vocab_tsv.  A signature
    listed twice raises ShapeMismatch naming both lines."""
    ids: dict[str, int] = {}
    counts: dict[str, int] = {}
    seen: dict[str, int] = {}  # the line each signature is listed on
    with open(path) as handle:
        header = handle.readline().rstrip("\n")
        if header.split("\t") != ["signature", "id", "count"]:
            raise MissingColumn(f"{path} is not a vocabulary TSV")
        for line_no, line in enumerate(handle, start=2):
            line = line.rstrip("\n")
            if not line:
                continue
            parts = line.split("\t")
            if len(parts) != 3:
                raise ShapeMismatch(f"{path}:{line_no}: expected 3 tab-separated fields")
            sig, idx, count = parts
            if sig in seen:
                raise ShapeMismatch(f"{path}:{line_no}: signature already listed on line {seen[sig]}")
            seen[sig] = line_no
            try:
                ids[sig] = int(idx)
                counts[sig] = int(count)
            except ValueError:
                raise ShapeMismatch(f"{path}:{line_no}: id and count must be integers") from None
    if sorted(ids.values()) != list(range(len(ids))):
        raise ShapeMismatch(f"{path}: ids must be dense 0..{len(ids) - 1}")
    return MotifVocab(ids=ids, counts=counts)
