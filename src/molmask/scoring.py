"""Per-node importance scores used by guided masking.

PageRank follows the random-surfer recurrence with a uniform teleport
vector: x <- alpha * A D^-1 x + (1 - alpha) * p.  On a connected
undirected graph every column of A D^-1 sums to one, so the iterate
stays a probability vector and dangling nodes cannot occur outside the
single-atom case, which is handled directly.
"""

from __future__ import annotations

import csv
from itertools import chain
from pathlib import Path
from typing import Sequence

import numpy as np

from .errors import NonFiniteScore, ShapeMismatch, open_text
from .molgraph import MolGraph

MAX_ITER = 200
"""pagerank_all's default iteration budget."""

BLOCK_ATOMS = 4096
"""Most atoms in one pagerank_all batch; a larger graph is a batch of
its own.  A batch's temporaries take about 130 bytes per atom, so about
0.5 MB here whatever the corpus size; smaller blocks save little more
and pay the per-iteration overhead more often."""


def pagerank_all(
    graphs: Sequence[MolGraph],
    alpha: float = 0.85,
    tol: float = 1e-8,
    max_iter: int = MAX_ITER,
) -> tuple[list[np.ndarray], int]:
    """Power-iteration PageRank with uniform teleport, for a whole corpus.

    Iterates x <- alpha * A D^-1 x + (1 - alpha) * p until the L1 change
    drops below tol; each graph's float64 scores are normalized to sum
    1 (within 1e-9), and a single atom scores [1.0].  Returns the
    scores and how many graphs did not converge: those spent all
    max_iter iterations and keep their last iterate, rather than
    raising.

    The multi-atom graphs are split, in corpus order, into consecutive
    blocks of at most BLOCK_ATOMS atoms, and each block is one batch:
    its graphs share one edge list, with per-graph atom offsets, so an
    iteration is one sparse matvec (np.bincount) and one per-graph L1
    change (np.add.reduceat) over every graph of the block still
    running.  A graph leaves its batch at the first iteration where its
    own change drops below tol, so its scores and whether it converged
    do not depend on what else is in the batch, and the blocks bound
    the batch's memory without changing any score.
    """
    out: list = [None] * len(graphs)
    unconverged = 0
    block: list[int] = []
    atoms = 0
    for g, graph in enumerate(graphs):
        if graph.n_atoms < 2:
            out[g] = np.ones(1)
            continue
        if block and atoms + graph.n_atoms > BLOCK_ATOMS:
            unconverged += _pagerank_batch(graphs, block, out, alpha, tol, max_iter)
            block, atoms = [], 0
        block.append(g)
        atoms += graph.n_atoms
    if block:
        unconverged += _pagerank_batch(graphs, block, out, alpha, tol, max_iter)
    return out, unconverged


def _pagerank_batch(graphs, block, out, alpha, tol, max_iter) -> int:
    """Run the graphs ``graphs[g]`` for g in ``block`` (each of two or
    more atoms) as one batch, storing each graph's scores in out[g];
    returns how many did not converge."""
    ids = np.array(block, dtype=np.intp)
    sizes = np.array([graphs[g].n_atoms for g in block])
    starts = _starts(sizes)
    neighbors = [nb for g in block for nb in graphs[g].adjacency]
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

    for _ in range(max_iter):
        x_next = alpha * np.bincount(dst, weights=(x * inv_degree)[src], minlength=len(x)) + leak
        done = np.add.reduceat(np.abs(x_next - x), starts) < tol
        x = x_next
        if not done.any():
            continue
        _store(out, ids[done], x, starts[done], sizes[done])
        if done.all():
            return 0
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
    _store(out, ids, x, starts, sizes)
    return len(ids)


def _starts(sizes: np.ndarray) -> np.ndarray:
    """Offset of each graph's first atom in the concatenated atoms."""
    return np.concatenate(([0], np.cumsum(sizes)[:-1]))


def _store(out, ids, x, starts, sizes) -> None:
    """Normalize graph ids[i]'s slice of x into out[ids[i]]."""
    for g, start, size in zip(ids.tolist(), starts.tolist(), sizes.tolist()):
        values = x[start:start + size]
        out[g] = values / values.sum()


def load_external_scores(path: str | Path, atom_counts: Sequence[int]) -> list[np.ndarray]:
    """Load per-atom scores from a CSV file, one float64 row per graph.

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
        scores = np.array(values)
        if not np.isfinite(scores).all():
            raise NonFiniteScore(f"{path}:{line}: non-finite score")
        out.append(scores)
    return out
