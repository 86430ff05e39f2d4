"""Per-node importance scores used by guided masking.

PageRank follows the random-surfer recurrence with a uniform teleport
vector: x <- alpha * A D^-1 x + (1 - alpha) * p.  On a connected
undirected graph every column of A D^-1 sums to one, so the iterate
stays a probability vector and dangling nodes cannot occur outside the
single-atom case, which is handled directly.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from itertools import chain
from pathlib import Path
from typing import Sequence

import numpy as np

from .errors import NonFiniteScore, ShapeMismatch, open_text
from .molgraph import MolGraph


@dataclass(frozen=True)
class NodeScores:
    """One score per atom plus how the scores were produced.

    For pagerank the values sum to 1 (within 1e-9) and ``iterations``
    reports the power-iteration count actually spent, which is always
    <= max_iter; ``converged`` is False when the tolerance was not
    reached within the budget.
    """

    values: tuple[float, ...]
    source: str
    iterations: int = 0
    converged: bool = True

    def __len__(self) -> int:
        return len(self.values)

    def as_array(self) -> np.ndarray:
        return np.asarray(self.values, dtype=float)


def pagerank_all(
    graphs: Sequence[MolGraph],
    alpha: float = 0.85,
    tol: float = 1e-8,
    max_iter: int = 200,
) -> list[NodeScores]:
    """Power-iteration PageRank with uniform teleport, for a whole corpus.

    Iterates x <- alpha * A D^-1 x + (1 - alpha) * p until the L1 change
    drops below tol; each result is normalized to sum exactly 1.  Hitting
    max_iter returns the last iterate with converged=False rather than
    raising.

    The multi-atom graphs share one edge list, with per-graph atom
    offsets, so an iteration is one sparse matvec (np.bincount) and one
    per-graph L1 change (np.add.reduceat) over every graph still running.
    A graph leaves the batch at the first iteration where its own change
    drops below tol, so its values, iterations and converged flag do not
    depend on what else is in the batch.
    """
    out = [NodeScores(values=(1.0,), source="pagerank")] * len(graphs)
    ids = np.flatnonzero([g.n_atoms > 1 for g in graphs])
    if not ids.size:
        return out
    sizes = np.array([graphs[g].n_atoms for g in ids])
    starts = _starts(sizes)
    neighbors = [nb for g in ids for nb in graphs[g].adjacency]
    degrees = np.fromiter(map(len, neighbors), dtype=np.intp, count=len(neighbors))
    # Edge j -> i for each neighbor j of atom i, grouped by i, so every
    # atom sums its neighbors' shares in ascending neighbor order.  The
    # indices are intp: narrower ones would be widened on every gather.
    dst = np.repeat(np.arange(len(neighbors)), degrees)
    src = np.fromiter(chain.from_iterable(neighbors), dtype=np.intp, count=len(dst))
    src += np.repeat(np.repeat(starts, sizes), degrees)
    inv_degree = 1.0 / degrees
    x = np.repeat(1.0 / sizes, sizes)  # the teleport vector p is the start
    leak = (1.0 - alpha) * x

    iterations = 0
    for iterations in range(1, max_iter + 1):
        x_next = alpha * np.bincount(dst, weights=(x * inv_degree)[src], minlength=len(x)) + leak
        done = np.add.reduceat(np.abs(x_next - x), starts) < tol
        x = x_next
        if not done.any():
            continue
        _store(out, ids[done], x, starts[done], sizes[done], iterations, True)
        if done.all():
            return out
        # Drop the converged graphs; renumbering keeps the atom order, so
        # each remaining atom still sums its neighbors in the same order.
        keep = ~done
        kept_atoms = np.repeat(keep, sizes)
        renumber = np.cumsum(kept_atoms) - 1
        kept_edges = kept_atoms[dst]
        dst, src = renumber[dst[kept_edges]], renumber[src[kept_edges]]
        x, inv_degree, leak = x[kept_atoms], inv_degree[kept_atoms], leak[kept_atoms]
        ids, sizes = ids[keep], sizes[keep]
        starts = _starts(sizes)
    _store(out, ids, x, starts, sizes, iterations, False)
    return out


def _starts(sizes: np.ndarray) -> np.ndarray:
    """Offset of each graph's first atom in the concatenated atoms."""
    return np.concatenate(([0], np.cumsum(sizes)[:-1]))


def _store(out, ids, x, starts, sizes, iterations: int, converged: bool) -> None:
    """Normalize graph ids[i]'s slice of x into out[ids[i]]."""
    for g, start, size in zip(ids.tolist(), starts.tolist(), sizes.tolist()):
        values = x[start:start + size]
        out[g] = NodeScores(
            values=tuple((values / values.sum()).tolist()),
            source="pagerank",
            iterations=iterations,
            converged=converged,
        )


def load_external_scores(path: str | Path, atom_counts: Sequence[int]) -> list[NodeScores]:
    """Load per-atom scores from a CSV file, one row per graph.

    Blank lines are skipped; the i-th non-blank row must hold exactly
    atom_counts[i] comma-separated floats.  Raises ShapeMismatch on any
    row-count or row-length disagreement and NonFiniteScore on NaN or
    infinity; a bad row is named by its 1-based line in the file.
    """
    rows: list[tuple[int, list[float]]] = []
    with open_text(path, newline="") as handle:
        reader = csv.reader(handle)
        for row in reader:
            if not row or (len(row) == 1 and not row[0].strip()):
                continue
            try:
                values = [float(cell) for cell in row]
            except ValueError as exc:
                raise ShapeMismatch(f"{path}:{reader.line_num}: non-numeric score cell") from exc
            rows.append((reader.line_num, values))

    if len(rows) != len(atom_counts):
        raise ShapeMismatch(
            f"score file has {len(rows)} rows but the corpus has {len(atom_counts)} graphs"
        )
    out = []
    for i, ((line, values), expected) in enumerate(zip(rows, atom_counts)):
        if len(values) != expected:
            raise ShapeMismatch(
                f"{path}:{line}: {len(values)} scores but graph {i} has {expected} atoms"
            )
        if not all(np.isfinite(values)):
            raise NonFiniteScore(f"{path}:{line}: non-finite score")
        out.append(NodeScores(values=tuple(values), source="external"))
    return out
