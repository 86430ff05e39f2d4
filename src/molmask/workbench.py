"""Dataset ingestion and end-to-end analyses with deterministic reports.

Every run function returns an AnalysisReport whose CSV emission is
byte-for-byte reproducible: floats use one fixed format, provenance
columns carry the toolkit version, base seed, and a hash of the
analysis configuration, and worker results come back in corpus order
before they are counted, so --workers never changes any output byte.
"""

from __future__ import annotations

import codecs
import csv
import hashlib
import json
import os
import pickle
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING, Any, Callable, Iterable, Optional, Sequence

import numpy as np

from ._version import __version__
from .errors import EmptyCounts, MissingColumn, ParseError, ShapeMismatch, open_text
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
from .motif import MotifVocab, coverage
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
from .targets import TargetColumn, target_column

if TYPE_CHECKING:
    from .masking import MaskConfig


@dataclass
class IngestStats:
    """What happened while reading a corpus."""

    rows_total: int = 0
    parsed: int = 0
    parse_failures: dict[str, int] = field(default_factory=dict)
    invalid_labels: int = 0
    singletons: int = 0


def config_hash(params: dict[str, Any], inputs: Optional[dict[str, Any]] = None) -> str:
    """Short stable hash of the analysis configuration.

    ``inputs`` maps each input flag of the run, by name, to its path or,
    for a switch, its value.  Each given file is hashed as the sha256 of
    its bytes, a leading UTF-8 byte-order mark left out as open_text
    leaves it, so the same content at another path hashes the same; a
    run given none keeps the hash of ``params`` alone.  Runtime-only
    knobs (worker count, output paths) must not be passed in: they may
    vary between byte-identical runs.
    """
    read = {
        name: True if value is True else _file_sha256(value)
        for name, value in (inputs or {}).items() if value
    }
    if read:
        params = {**params, "inputs": read}
    blob = json.dumps(params, sort_keys=True, default=str)
    return hashlib.sha256(blob.encode()).hexdigest()[:12]


def _file_sha256(path: str | Path) -> str:
    """Hex sha256 of a file's bytes less a leading UTF-8 byte-order
    mark, read 64 KiB at a time so that memory does not grow with it."""
    with open(path, "rb") as handle:
        digest = hashlib.sha256(handle.read(1 << 16).removeprefix(codecs.BOM_UTF8))
        while chunk := handle.read(1 << 16):
            digest.update(chunk)
    return digest.hexdigest()


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
    return (int(value), False) if value in (0.0, 1.0) else (None, True)


def ingest(
    path: str | Path, smiles_column: str = "smiles", label_column: str = ""
) -> tuple[list[LabeledRecord], IngestStats]:
    """Read a CSV corpus into labeled records.

    Rows whose SMILES fail to parse are skipped and tallied by failure
    kind.  Each record's label comes from ``label_column`` (no column:
    every label is missing); unparseable or non-binary label cells
    become missing labels.  A row with fewer or more cells than the
    header raises ShapeMismatch naming its line.  The file is read as
    UTF-8, with or without a byte-order mark.
    Single-atom molecules are kept but counted, since the analysis
    stages will skip them.  Parsing runs in this process: on a shared
    two-core host a worker parsing half the rows can run at half speed,
    and then saves nothing and adds the pickling of its graphs.
    """
    stats = IngestStats()
    records: list[LabeledRecord] = []
    with open_text(path, newline="") as handle:
        reader = csv.DictReader(handle)
        header = reader.fieldnames or []
        for column in (smiles_column, label_column):
            if column and column not in header:
                raise MissingColumn(f"column {column!r} not in {path}")
        for row in reader:
            if None in row.values() or None in row:
                raise ShapeMismatch(
                    f"{path}:{reader.line_num}: row has "
                    f"{'more' if None in row else 'fewer'} cells than the header"
                )
            stats.rows_total += 1
            try:
                graph = parse_smiles(row[smiles_column].strip())
            except ParseError as exc:
                tag = type(exc).__name__
                stats.parse_failures[tag] = stats.parse_failures.get(tag, 0) + 1
                continue
            label, bad = None, False
            if label_column:
                label, bad = _read_label(row[label_column])
            stats.invalid_labels += int(bad)
            records.append(LabeledRecord(graph=graph, label=label))
            stats.parsed += 1
            stats.singletons += int(graph.is_singleton)
    return records, stats


def usable_positions(records: Sequence[LabeledRecord]) -> tuple[list[int], dict[str, int]]:
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


def exact_joint_counts(
    records: Sequence[LabeledRecord], column: TargetColumn
) -> tuple[JointCounts, dict[str, int]]:
    """Count every unit of every usable graph against its graph label:
    the usable graphs' slices of ``column``, built over ``records``.
    Units with the column's UNK label are excluded and tallied under
    'excluded_unk', and one stderr line counts them when some units are
    left.  Raises ShapeMismatch when the column does not label every
    usable record and EmptyCounts, with the skip tallies, when no unit
    is left to count.
    """
    positions, extras = usable_positions(records)
    sizes = np.diff(column.offsets)
    if len(sizes) != len(records) or not sizes[positions].all():
        raise ShapeMismatch(f"the {column.kind} column does not label every usable record")
    counted = np.zeros(len(records), dtype=bool)
    counted[positions] = True
    keep = np.repeat(counted, sizes)
    extras["excluded_unk"] = 0
    if column.unk is not None:
        unk = keep & (column.labels == column.unk)
        extras["excluded_unk"] = int(np.count_nonzero(unk))
        keep &= ~unk
    if not keep.any():
        raise _nothing_to_count(column.kind, extras)
    n_unk = extras["excluded_unk"]
    if n_unk:
        print(f"{column.kind}: {n_unk} of {n_unk + int(np.count_nonzero(keep))} units excluded as UNK "
              "(not in the vocabulary)", file=sys.stderr)
    y = np.repeat([record.label or 0 for record in records], sizes)
    return JointCounts.from_arrays(column.labels[keep], y[keep]), extras


def _mi_row(dataset_name: str, kind: str, strategy: str, mi: float, h_y: float, n_pairs: int,
            seed: int, chash: str, spread: tuple = ("", "")) -> tuple:
    """One MI_COLUMNS row; ``spread`` is a sampled row's (seed_mean, seed_std)."""
    return (dataset_name, kind, strategy, mi, h_y, relative_gain(mi, h_y), n_pairs, *spread,
            __version__, seed, chash)


def run_mi_analysis(
    records: Sequence[LabeledRecord],
    columns: Sequence[TargetColumn],
    *,
    dataset_name: str,
    seed: int = 0,
    inputs: Optional[dict[str, Any]] = None,
) -> AnalysisReport:
    """Exact MI of each target column against the graph label, counted
    as by exact_joint_counts; ``inputs`` as config_hash takes them."""
    kinds = [column.kind for column in columns]
    chash = config_hash(
        {"analysis": "mi", "dataset": dataset_name, "kinds": kinds, "seed": seed}, inputs
    )
    report = AnalysisReport(kind="mi", columns=MI_COLUMNS)
    for column in columns:
        joint, _ = exact_joint_counts(records, column)
        report.rows.append(_mi_row(dataset_name, column.kind, "exact", mutual_information(joint),
                                   entropy_y(joint), joint.total, seed, chash))
    return report


def run_jsd_analysis(
    records: Sequence[LabeledRecord],
    columns: Sequence[TargetColumn],
    *,
    dataset_name: str,
    taus: Sequence[float] = DEFAULT_TAUS,
    seed: int = 0,
    inputs: Optional[dict[str, Any]] = None,
) -> AnalysisReport:
    """Low-frequency JSD curves of each target column, counted as by
    exact_joint_counts; ``inputs`` as config_hash takes them."""
    chash = config_hash({"analysis": "jsd", "dataset": dataset_name, "seed": seed,
                         "kinds": [c.kind for c in columns],
                         "taus": [float(t) for t in taus]}, inputs)
    report = AnalysisReport(kind="jsd", columns=JSD_COLUMNS)
    for column in columns:
        joint, _ = exact_joint_counts(records, column)
        curve = jsd_curve(joint, taus)
        for tau, value, kept, ok in zip(curve.taus, curve.values, curve.labels_kept, curve.defined):
            report.rows.append((dataset_name, column.kind, tau, value, kept, int(ok),
                                __version__, seed, chash))
    return report


def run_mask_sim(
    records: Sequence[LabeledRecord],
    strategies: Sequence[str],
    config: MaskConfig,
    *,
    dataset_name: str,
    repeats: int = 5,
    seed: int = 0,
    workers: int = 1,
    external_scores: Optional[Sequence[np.ndarray]] = None,
    inputs: Optional[dict[str, Any]] = None,
) -> AnalysisReport:
    """Sampled atom-type MI under each masking strategy.

    Per repeat and graph, as many atoms are sampled as the graph has;
    rows report the across-repeat mean and sample standard deviation.
    The corpus fans out once, one task per graph covering every
    strategy; PageRank runs once, over the usable graphs, before it.
    External scores are keyed by position in ``records``; ``inputs``
    as config_hash takes them.  Raises
    EmptyCounts, with the skip tallies, when no graph is usable.
    """
    from .masking import bind_corpus

    positions, skipped = usable_positions(records)
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
        },
        inputs,
    )
    graphs = [records[pos].graph for pos in positions]
    bind = bind_corpus(
        strategies, config, graphs,
        None if external_scores is None else [external_scores[pos] for pos in positions],
    )
    # The atom-type column is uint8, which keeps the label arrays the
    # workers send back small.
    atom_types = target_column("atom_type", graphs)
    # Each graph is bound in its worker as it is sampled: binding the
    # corpus up front would hold every graph's bindings at once.
    per_graph = parallel_map(
        lambda g: sample_pairs_for_graph(
            graphs[g], g, atom_types.graph_labels(g), bind(g), repeats, seed),
        range(len(graphs)), workers,
    )
    graph_labels = [records[pos].label for pos in positions]
    report = AnalysisReport(kind="mi", columns=MI_COLUMNS)
    for s, strategy in enumerate(strategies):
        sampled = repeat_mi([samples[s] for samples in per_graph], graph_labels, repeats)
        report.rows.append(_mi_row(dataset_name, "atom_type", strategy, sampled.mean, sampled.h_y,
                                   sampled.n_pairs, seed, chash, (sampled.mean, sampled.std)))
    return report


def run_shuffle_control(
    records: Sequence[LabeledRecord],
    column: TargetColumn,
    *,
    dataset_name: str,
    repeats: int = 5,
    seed: int = 0,
    inputs: Optional[dict[str, Any]] = None,
) -> AnalysisReport:
    """Original MI of a target column next to its label-shuffled
    control, counted as by exact_joint_counts; ``inputs`` as
    config_hash takes them."""
    kind = column.kind
    chash = config_hash(
        {
            "analysis": "shuffle", "dataset": dataset_name, "kind": kind,
            "repeats": repeats, "seed": seed,
        },
        inputs,
    )
    joint, _ = exact_joint_counts(records, column)
    shuffled = shuffle_control(joint, repeats=repeats, seed=seed)
    return AnalysisReport(kind="mi", columns=MI_COLUMNS, rows=[
        _mi_row(dataset_name, kind, "exact", mutual_information(joint), shuffled.h_y,
                shuffled.n_pairs, seed, chash),
        _mi_row(dataset_name, kind, "shuffled", shuffled.mean, shuffled.h_y, shuffled.n_pairs,
                seed, chash, (shuffled.mean, shuffled.std)),
    ])


def run_coverage(
    vocab: MotifVocab,
    signature_lists: Iterable[Sequence[str]],
    *,
    dataset_name: str,
    seed: int = 0,
    inputs: Optional[dict[str, Any]] = None,
) -> AnalysisReport:
    """Vocabulary coverage of a downstream corpus, given as each graph's
    motif signatures (coverage reads them); ``inputs`` as config_hash
    takes them."""
    chash = config_hash({"analysis": "coverage", "dataset": dataset_name, "seed": seed}, inputs)
    stats = coverage(vocab, signature_lists)
    report = AnalysisReport(kind="coverage", columns=COVERAGE_COLUMNS)
    report.rows.append((
        dataset_name, stats.overlap_ratio, stats.mean_r, stats.median_r,
        stats.pct_r_ge_080, stats.pct_r_le_020,
        __version__, seed, chash,
    ))
    return report


# Tag "v2": exact signatures.  A file headed "signature\tid\tcount" is
# of the older format, which signed some motifs by refinement classes.
_VOCAB_HEADER = "signature:v2\tid\tcount"


def build_vocab_tsv(vocab: MotifVocab, path: str | Path) -> None:
    """Write a vocabulary as TSV: signature, id, count.  The header's
    first field tags the signature format."""
    ranked = sorted(vocab.ids.items(), key=lambda kv: kv[1])
    with open(path, "w", encoding="utf-8", newline="") as handle:
        handle.write(_VOCAB_HEADER + "\n")
        for sig, idx in ranked:
            handle.write(f"{sig}\t{idx}\t{vocab.counts[sig]}\n")


def load_vocab_tsv(path: str | Path) -> MotifVocab:
    """Read a vocabulary TSV written by build_vocab_tsv.  Another
    header, such as that of an older signature format, raises
    MissingColumn; a signature listed twice raises ShapeMismatch naming
    both lines."""
    ids: dict[str, int] = {}
    counts: dict[str, int] = {}
    seen: dict[str, int] = {}  # the line each signature is listed on
    with open_text(path) as handle:
        header = handle.readline().rstrip("\n")
        if header != _VOCAB_HEADER:
            raise MissingColumn(
                f"{path} is not a vocabulary TSV of this signature format; "
                "rebuild it with `molmask vocab build`"
            )
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
