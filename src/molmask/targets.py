"""Prediction targets as corpus columns.

A target kind labels every unit of a graph: its atoms by atomic number
(atom_type), by the argmax token of per-atom logits (argmax_token) or
by the nearest codebook row of per-atom embeddings (vq_code), or its
motifs by vocabulary id (motif).  ``target_column`` labels the graphs a
command labels into one column plus per-graph offsets, the layout of
PyTorch Geometric's ``Batch``: exact analyses count the counted graphs'
slices, and a masked view reads its units from its graph's slice.
``target_columns`` reads what the kinds read (choices.TARGET_INPUTS)
once per command.
"""

from __future__ import annotations

import itertools
import warnings
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Mapping, Optional, Sequence

import numpy as np

from .choices import TARGET_INPUTS
from .errors import DataError, DimMismatch, NonFiniteScore, ShapeMismatch
from .molgraph import MolGraph
from .motif import MotifPartition, build_vocab, graph_motifs


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


def _atom_rows(inputs: Mapping[str, Any], what: str, pos: int, graph: MolGraph) -> np.ndarray:
    """The rows of per-atom input ``what`` for the graph at corpus
    position pos."""
    rows = inputs[what].get(pos)
    if rows is None:
        raise ShapeMismatch(f"no {what} for graph at corpus position {pos}")
    if rows.ndim != 2 or rows.shape[0] != graph.n_atoms:
        raise ShapeMismatch(
            f"graph {pos}: {what} of shape {rows.shape} for {graph.n_atoms} atoms"
        )
    return rows


@dataclass(frozen=True)
class TargetColumn:
    """One target kind's labels for a corpus, as one column.

    Graph g's units are labelled ``labels[offsets[g]:offsets[g + 1]]``;
    a graph the column does not label has an empty slice.  The units
    are atoms, or the motifs of ``partitions``; ``unk``, if not None,
    labels the motifs outside the vocabulary, which counts exclude.
    """

    kind: str
    labels: np.ndarray
    offsets: np.ndarray
    partitions: Optional[Sequence[MotifPartition]] = None
    unk: Optional[int] = None

    def graph_labels(self, g: int) -> np.ndarray:
        return self.labels[self.offsets[g]:self.offsets[g + 1]]

    def view_targets(self, g: int, atoms: Sequence[int]) -> list[int]:
        """Labels of what a mask of graph g hides: its atoms, or the
        sorted motifs that hold at least one of them, whole or in part."""
        units = atoms if self.partitions is None else sorted(
            {self.partitions[g].motif_of[a] for a in atoms})
        return self.graph_labels(g)[list(units)].tolist()


def _motif_ids(graph: MolGraph, pos: int, inputs: Mapping[str, Any]) -> list[int]:
    motifs = inputs["motifs"][pos]
    if len(motifs.partition.motif_of) != graph.n_atoms:
        raise ShapeMismatch(f"graph {pos}: its motif partition is of another graph")
    return [inputs["vocab"].lookup(sig) for sig in motifs.signatures]


# Each kind's column dtype, the inputs it cannot do without, its
# labeller, (graph, corpus position, inputs) -> the labels of the
# graph's units, and whether those units are the graph's motifs in
# inputs["motifs"], not its atoms.  Atom types fit uint8: the parser
# emits 0..118 and MolGraph bounds the rest to 0..119.
_LABELLERS = {
    "atom_type": (np.uint8, (), lambda graph, pos, inputs: graph.z, False),
    "motif": (np.int32, ("vocab", "motifs"), _motif_ids, True),
    "argmax_token": (np.int32, ("logits",), lambda graph, pos, inputs: argmax_labels(
        _atom_rows(inputs, "logits", pos, graph)), False),
    "vq_code": (np.int32, ("embeddings", "codebook"), lambda graph, pos, inputs: vq_labels(
        _atom_rows(inputs, "embeddings", pos, graph), inputs["codebook"],
        inputs.get("vq_normalize", False)), False),
}


def target_column(
    kind: str, graphs: Sequence[MolGraph], inputs: Mapping[str, Any] = {},
    positions: Optional[Sequence[int]] = None,
) -> TargetColumn:
    """Label every unit of the graphs at ``positions`` (default: all)
    into one column over ``graphs``.

    ``inputs`` holds what the kind reads, loaded: ``vocab``,
    ``motifs`` (one graph_motifs per graph), ``embeddings`` and
    ``logits`` (as load_embeddings returns them, keyed by position in
    ``graphs``), ``codebook`` and ``vq_normalize``.  Raises DataError
    for an unknown kind or a missing input, and ShapeMismatch when a
    labelled graph's rows are missing or do not fit it, or the motifs
    are not those of the graphs.
    """
    if kind not in _LABELLERS:
        raise DataError(f"unknown target kind {kind!r}")
    dtype, needs, label, motif_units = _LABELLERS[kind]
    missing = [name for name in needs if inputs.get(name) is None]
    if missing:
        raise DataError(f"{kind} targets need {' and '.join(missing)}")
    partitions = unk = None
    if motif_units:
        partitions, unk = [m.partition for m in inputs["motifs"]], inputs["vocab"].unk_id
        if len(partitions) != len(graphs):
            raise ShapeMismatch(f"{len(partitions)} motif partitions for {len(graphs)} graphs")
    positions = range(len(graphs)) if positions is None else positions
    per_graph = [label(graphs[pos], pos, inputs) for pos in positions]
    sizes = np.zeros(len(graphs), dtype=np.int64)
    sizes[list(positions)] = [len(labels) for labels in per_graph]
    offsets = np.concatenate(([0], np.cumsum(sizes)))
    labels = np.fromiter(itertools.chain.from_iterable(per_graph), dtype, int(offsets[-1]))
    return TargetColumn(kind, labels, offsets, partitions, unk)


def target_columns(
    kinds: Sequence[str], graphs: Sequence[MolGraph], flags: Mapping[str, Any] = {},
    positions: Optional[Sequence[int]] = None,
) -> list[TargetColumn]:
    """Each kind's target_column, its inputs read once: each input of
    the kinds that ``flags`` names (a path, or True for
    ``vq_normalize``) and, for a motif kind, the ``motifs`` of one
    graph_motifs pass over ``graphs`` and, without a ``vocab``, the
    vocabulary counted from their signatures."""
    from .workbench import load_vocab_tsv

    readers = {"vocab": load_vocab_tsv, "embeddings": load_embeddings,
               "codebook": load_codebook, "logits": load_embeddings, "vq_normalize": bool}
    names = dict.fromkeys(name for kind in kinds for name in TARGET_INPUTS[kind])
    inputs = {name: readers[name](flags[name]) for name in names if flags.get(name)}
    if "motif" in kinds:
        inputs["motifs"] = [graph_motifs(graph) for graph in graphs]
        if "vocab" not in inputs:
            inputs["vocab"] = build_vocab(m.signatures for m in inputs["motifs"])
    return [target_column(kind, graphs, inputs, positions) for kind in kinds]


def _read_matrix(path: str | Path, what: str) -> np.ndarray:
    """A headerless numeric CSV, UTF-8 with or without a byte-order
    mark, as one 2-d float array; blank lines are skipped.  Raises
    ShapeMismatch on ragged rows, non-numeric cells or bytes that are
    not UTF-8 and NonFiniteScore on NaN or infinity."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)  # empty input: checked by callers
        try:
            table = np.loadtxt(path, delimiter=",", ndmin=2, comments=None, quotechar='"',
                               encoding="utf-8-sig")
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
