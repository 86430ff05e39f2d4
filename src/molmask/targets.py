"""Prediction-target extraction for masked views.

Four target families: raw atom types, motif vocabulary ids, argmax
tokens from externally supplied logits, and nearest-codebook (vector
quantized) codes from externally supplied embeddings.  Every kind's
labels come from TargetResources.unit_labels, built on the whole-graph
label helpers; exact analyses count all units, masked views select the
hidden ones.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Optional, Sequence

import numpy as np

from .choices import TARGET_KINDS  # noqa: F401  (still importable from here)
from .errors import DataError, DimMismatch, NonFiniteScore, ShapeMismatch
from .molgraph import MolGraph
from .motif import MotifPartition, MotifVocab, decompose, motif_signatures

if TYPE_CHECKING:
    from .masking import MaskPlan

# Atom-type labels live in {0..118}: 0 unknown, 1..118 element numbers.
ATOM_TYPE_SPACE = 119


@dataclass(frozen=True)
class TargetAssignment:
    """Labels for the masked units of one view.

    unit_ids are atom indices (atom-level kinds) or motif indices
    (motif kind), ascending.  unknown_count says how many motif labels
    fell outside the vocabulary and were mapped to the reserved UNK id.
    """

    kind: str
    unit_ids: tuple[int, ...]
    labels: tuple[int, ...]
    label_space: int
    unknown_count: int = 0

    def __post_init__(self):
        if len(self.unit_ids) != len(self.labels):
            raise ValueError("one label per unit required")
        for label in self.labels:
            if not (0 <= label < self.label_space):
                raise ValueError(f"label {label} outside space {self.label_space}")


def atom_labels(graph: MolGraph) -> list[int]:
    """Atom-type label of every atom."""
    return [atom.atomic_number for atom in graph.atoms]


def argmax_labels(logits: np.ndarray) -> list[int]:
    """Argmax token per row; ties resolve to the lower token index."""
    if logits.ndim != 2:
        raise ShapeMismatch("logits must be a 2-d array (units x tokens)")
    return [int(i) for i in np.argmax(logits, axis=1)]


def vq_labels(
    embeddings: np.ndarray, codebook: np.ndarray, normalize: bool = False
) -> list[int]:
    """Nearest codebook row (Euclidean) per embedding row.

    Ties resolve to the lower code index.  Embeddings are used as given;
    normalize=True switches both sides to unit L2 norm first.
    """
    if embeddings.ndim != 2 or codebook.ndim != 2:
        raise ShapeMismatch("embeddings and codebook must be 2-d arrays")
    if embeddings.shape[1] != codebook.shape[1]:
        raise DimMismatch(
            f"embedding dim {embeddings.shape[1]} != codebook dim {codebook.shape[1]}"
        )
    emb = embeddings.astype(float)
    book = codebook.astype(float)
    if normalize:
        emb = emb / np.maximum(np.linalg.norm(emb, axis=1, keepdims=True), 1e-12)
        book = book / np.maximum(np.linalg.norm(book, axis=1, keepdims=True), 1e-12)
    # Squared distances suffice for the argmin and keep ties exact when
    # inputs are exactly symmetric.
    d2 = np.sum(emb * emb, axis=1, keepdims=True) - 2.0 * emb @ book.T + np.sum(book * book, axis=1)
    return [int(i) for i in np.argmin(d2, axis=1)]


@dataclass(frozen=True)
class GraphMotifs:
    """One graph's motif partition and the signature of each motif."""

    partition: MotifPartition
    signatures: tuple[str, ...]


def graph_motifs(graph: MolGraph) -> GraphMotifs:
    """Decompose a graph and sign each of its motifs."""
    partition = decompose(graph)
    return GraphMotifs(partition, tuple(motif_signatures(graph, partition)))


def _atom_rows(
    table: Optional[dict[int, np.ndarray]], what: str, pos: int, graph: MolGraph
) -> np.ndarray:
    """The per-atom rows of the graph at corpus position pos."""
    if table is None:
        raise DataError(f"these targets need per-atom {what}")
    rows = table.get(pos)
    if rows is None:
        raise ShapeMismatch(f"no {what} for graph at corpus position {pos}")
    if rows.ndim != 2 or rows.shape[0] != graph.n_atoms:
        raise ShapeMismatch(
            f"graph {pos}: {what} of shape {rows.shape} for {graph.n_atoms} atoms"
        )
    return rows


def _plan_motifs(partition: MotifPartition, plan: MaskPlan) -> tuple[int, ...]:
    if plan.masked_motifs:
        return plan.masked_motifs
    return tuple(sorted({partition.motif_of[a] for a in plan.masked_atoms}))


@dataclass(frozen=True)
class TargetResources:
    """What target labels are read from, besides the graph itself.

    Per-graph entries are keyed by corpus position: ``motifs`` holds one
    graph_motifs result per graph, ``embeddings`` and ``logits`` are as
    load_embeddings returns them.
    """

    vocab: Optional[MotifVocab] = None
    motifs: Optional[Sequence[GraphMotifs]] = None
    embeddings: Optional[dict[int, np.ndarray]] = None
    codebook: Optional[np.ndarray] = None
    logits: Optional[dict[int, np.ndarray]] = None
    vq_normalize: bool = False

    def unit_labels(self, kind: str, pos: int, graph: MolGraph) -> list[int]:
        """Label of every unit of the graph at corpus position ``pos``.

        Units are atoms, or motifs for kind 'motif'; motifs outside the
        vocabulary get its UNK id.  Raises DataError when the kind's
        resources are absent and ShapeMismatch when the graph's rows are
        missing or do not match its atom count.
        """
        if kind == "atom_type":
            return atom_labels(graph)
        if kind == "motif":
            if self.vocab is None or self.motifs is None:
                raise DataError("motif targets need a vocabulary and the corpus motifs")
            return [self.vocab.lookup(sig) for sig in self.motifs[pos].signatures]
        if kind == "argmax_token":
            return argmax_labels(_atom_rows(self.logits, "logits", pos, graph))
        if kind == "vq_code":
            if self.codebook is None:
                raise DataError("vq_code targets need a codebook")
            rows = _atom_rows(self.embeddings, "embeddings", pos, graph)
            return vq_labels(rows, self.codebook, normalize=self.vq_normalize)
        raise DataError(f"unknown target kind {kind!r}")

    def view_targets(
        self, kind: str, pos: int, graph: MolGraph, plan: MaskPlan
    ) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """(unit ids, labels) of what a plan hides: its masked atoms, or
        for kind 'motif' its masked motifs (derived from the masked atoms
        when the plan names none)."""
        labels = self.unit_labels(kind, pos, graph)
        if kind == "motif":
            units = _plan_motifs(self.motifs[pos].partition, plan)
        else:
            units = plan.masked_atoms
        return units, tuple(labels[u] for u in units)


def atom_type_targets(graph: MolGraph, plan: MaskPlan) -> TargetAssignment:
    """Atomic-number labels of the masked atoms."""
    units, labels = TargetResources().view_targets("atom_type", 0, graph, plan)
    return TargetAssignment("atom_type", units, labels, ATOM_TYPE_SPACE)


def motif_targets(
    graph: MolGraph,
    partition: MotifPartition,
    plan: MaskPlan,
    vocab: MotifVocab,
) -> TargetAssignment:
    """Vocabulary ids of the masked motifs.

    Motifs the vocabulary has never seen map to the reserved UNK id
    (vocab.size) and are tallied in unknown_count; analyses exclude UNK
    from information measures but report the tally.
    """
    motifs = GraphMotifs(partition, tuple(motif_signatures(graph, partition)))
    resources = TargetResources(vocab=vocab, motifs=(motifs,))
    units, labels = resources.view_targets("motif", 0, graph, plan)
    return TargetAssignment(
        "motif", units, labels, vocab.size + 1, unknown_count=labels.count(vocab.unk_id)
    )


def argmax_targets(graph: MolGraph, plan: MaskPlan, logits: np.ndarray) -> TargetAssignment:
    """Argmax-token labels of the masked atoms, from per-atom logits."""
    resources = TargetResources(logits={0: logits})
    units, labels = resources.view_targets("argmax_token", 0, graph, plan)
    return TargetAssignment("argmax_token", units, labels, logits.shape[1])


def vq_targets(
    graph: MolGraph,
    plan: MaskPlan,
    embeddings: np.ndarray,
    codebook: np.ndarray,
    normalize: bool = False,
) -> TargetAssignment:
    """Vector-quantized code labels of the masked atoms."""
    resources = TargetResources(
        embeddings={0: embeddings}, codebook=codebook, vq_normalize=normalize
    )
    units, labels = resources.view_targets("vq_code", 0, graph, plan)
    return TargetAssignment("vq_code", units, labels, codebook.shape[0])


def _read_matrix(path: str | Path, what: str) -> np.ndarray:
    """A headerless numeric CSV as one 2-d float array; blank lines are
    skipped.  Raises ShapeMismatch on ragged rows or non-numeric cells
    and NonFiniteScore on NaN or infinity."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)  # empty input: checked by callers
        try:
            table = np.loadtxt(path, delimiter=",", ndmin=2, comments=None, quotechar='"')
        except ValueError as exc:
            raise ShapeMismatch(f"{what} {path}: {exc}") from None
    finite = np.isfinite(table).all(axis=1)
    if not finite.all():
        row = int(np.argmin(finite)) + 1
        raise NonFiniteScore(f"{what} {path}: data row {row} has a non-finite cell")
    return table


def load_codebook(path: str | Path) -> np.ndarray:
    """Read a codebook: CSV, one row per code vector, no header.
    Raises ShapeMismatch on ragged or empty files and NonFiniteScore on
    NaN or infinity."""
    book = _read_matrix(path, "codebook")
    if book.size == 0:
        raise ShapeMismatch("codebook file is empty")
    return book


def load_embeddings(path: str | Path) -> dict[int, np.ndarray]:
    """Read per-atom embeddings keyed by graph.

    CSV rows are (graph_index, atom_index, v0, v1, ...); within each
    graph the atom indices must form 0..n-1 exactly once.  Returns
    {graph_index: (n_atoms, dim) array}.  Raises ShapeMismatch on bad
    widths or indices and NonFiniteScore on NaN or infinity.
    """
    table = _read_matrix(path, "embeddings")
    if table.size == 0:
        return {}
    if table.shape[1] < 3:
        raise ShapeMismatch(f"embeddings {path}: rows need graph, atom and at least one value")
    index = table[:, :2]
    if not np.array_equal(index, np.trunc(index)):
        raise ShapeMismatch(f"embeddings {path}: graph and atom indices must be whole numbers")
    graphs, atoms = index.astype(np.int64).T
    order = np.lexsort((atoms, graphs))
    graphs, atoms, values = graphs[order], atoms[order], table[order, 2:]
    bounds = np.flatnonzero(np.diff(graphs)) + 1
    out: dict[int, np.ndarray] = {}
    for start, stop in zip([0, *bounds], [*bounds, len(graphs)]):
        g = int(graphs[start])
        if not np.array_equal(atoms[start:stop], np.arange(stop - start)):
            raise ShapeMismatch(f"graph {g}: atom indices must cover 0..{stop - start - 1}")
        out[g] = values[start:stop]
    return out
