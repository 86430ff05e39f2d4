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
from pathlib import Path
from typing import Sequence

import numpy as np

from .errors import NonFiniteScore, ShapeMismatch
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


def pagerank(
    graph: MolGraph,
    alpha: float = 0.85,
    tol: float = 1e-8,
    max_iter: int = 200,
) -> NodeScores:
    """Power-iteration PageRank with uniform teleport.

    Iterates x <- alpha * A D^-1 x + (1 - alpha) * p until the L1 change
    drops below tol; the result is normalized to sum exactly 1.  Hitting
    max_iter returns the last iterate with converged=False rather than
    raising.
    """
    n = graph.n_atoms
    if n == 1:
        return NodeScores(values=(1.0,), source="pagerank", iterations=0, converged=True)

    adj = np.zeros((n, n), dtype=float)
    for bond in graph.bonds:
        adj[bond.u, bond.v] = 1.0
        adj[bond.v, bond.u] = 1.0
    degrees = adj.sum(axis=0)
    # Column-normalized walk matrix; molecules are connected, so no
    # zero-degree column exists once n > 1.
    walk = adj / degrees[np.newaxis, :]

    teleport = np.full(n, 1.0 / n)
    x = teleport.copy()
    converged = False
    iterations = 0
    for iterations in range(1, max_iter + 1):
        x_next = alpha * (walk @ x) + (1.0 - alpha) * teleport
        delta = np.abs(x_next - x).sum()
        x = x_next
        if delta < tol:
            converged = True
            break
    x = x / x.sum()
    return NodeScores(
        values=tuple(float(v) for v in x),
        source="pagerank",
        iterations=iterations,
        converged=converged,
    )


def load_external_scores(path: str | Path, atom_counts: Sequence[int]) -> list[NodeScores]:
    """Load per-atom scores from a CSV file, one row per graph.

    Row i must hold exactly atom_counts[i] comma-separated floats.
    Raises ShapeMismatch on any row-count or row-length disagreement and
    NonFiniteScore on NaN or infinity.
    """
    rows: list[list[float]] = []
    with open(path, newline="") as handle:
        for line_no, row in enumerate(csv.reader(handle), start=1):
            if not row or (len(row) == 1 and not row[0].strip()):
                continue
            try:
                values = [float(cell) for cell in row]
            except ValueError as exc:
                raise ShapeMismatch(f"line {line_no}: non-numeric score cell") from exc
            rows.append(values)

    if len(rows) != len(atom_counts):
        raise ShapeMismatch(
            f"score file has {len(rows)} rows but the corpus has {len(atom_counts)} graphs"
        )
    out = []
    for i, (values, expected) in enumerate(zip(rows, atom_counts)):
        if len(values) != expected:
            raise ShapeMismatch(
                f"row {i} has {len(values)} scores but graph {i} has {expected} atoms"
            )
        if not all(np.isfinite(values)):
            raise NonFiniteScore(f"row {i} contains a non-finite score")
        out.append(NodeScores(values=tuple(values), source="external"))
    return out
