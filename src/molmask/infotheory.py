"""Plug-in information measures over (unit label, graph label) pairs.

Every measure reads one count table, JointCounts: the sorted distinct
unit labels X that were observed, and their (|X|, 2) counts against the
binary graph label Y.  JointCounts.from_arrays is the only way to build
one, whether from a corpus enumeration, sampled masks or a shuffle.

Everything is empirical: probabilities are relative frequencies, with no
bias correction, and every logarithm is base 2, so all quantities come
out in bits.  The 0 * log 0 convention is 0 throughout.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Sequence

import numpy as np

from .choices import DEFAULT_TAUS
from .errors import EmptyCounts, EmptySupport
from .molgraph import MolGraph

if TYPE_CHECKING:
    from .masking import BoundStrategy


@dataclass(frozen=True, eq=False)
class JointCounts:
    """Contingency counts N(x, y) for an integer label X and binary Y.

    ``labels`` holds the distinct observed x labels, sorted; row i of
    the int64 ``table`` counts label ``labels[i]`` against y = 0 and
    y = 1.  Labels never observed have no row.
    """

    labels: np.ndarray
    table: np.ndarray

    @classmethod
    def from_arrays(cls, x, y) -> "JointCounts":
        """Count the pairs (x[i], y[i]); ValueError unless y is 0 or 1
        everywhere and x and y have the same length."""
        x = np.asarray(x, dtype=np.int64)
        y = np.asarray(y)
        if x.ndim != 1 or x.shape != y.shape:
            raise ValueError(f"x and y must be 1-d and equally long, got {x.shape} and {y.shape}")
        if not np.all((y == 0) | (y == 1)):
            raise ValueError("graph label must be 0 or 1")
        labels, rows = np.unique(x, return_inverse=True)
        cells = np.bincount(2 * rows + y.astype(np.int64), minlength=2 * len(labels))
        return cls(labels=labels, table=cells.reshape(-1, 2))

    @property
    def total(self) -> int:
        return int(self.table.sum())


def mutual_information(counts: JointCounts) -> float:
    """Plug-in mutual information I(X; Y) in bits.

    Sum of p(x,y) * log2(p(x,y) / (p(x) p(y))) over observed cells; zero
    cells contribute nothing.  Raises EmptyCounts on an empty table.
    """
    total = counts.total
    if total == 0:
        raise EmptyCounts("mutual information of zero observations")
    p = counts.table / total
    px = p.sum(axis=1, keepdims=True)
    py = p.sum(axis=0, keepdims=True)
    mask = p > 0
    mi = float(np.sum(p[mask] * np.log2(p[mask] / (px @ py)[mask])))
    # The analytic value is nonnegative; clear rounding dust.
    return max(mi, 0.0)


def entropy_y(counts: JointCounts) -> float:
    """Entropy of the binary graph label, in bits."""
    total = counts.total
    if total == 0:
        raise EmptyCounts("entropy of zero observations")
    py = counts.table.sum(axis=0) / total
    return float(-sum(q * math.log2(q) for q in py if q > 0))


def relative_gain(mi: float, h_y: float) -> float:
    """MI as a fraction of the label entropy; NaN when H(Y) = 0."""
    if h_y <= 0.0:
        return float("nan")
    return mi / h_y


@dataclass(frozen=True)
class SampledMi:
    """MI estimated over several seeded repeats: their mean and sample
    standard deviation (0 for one repeat), and the pair count and label
    entropy of the tables they share."""

    mean: float
    std: float
    per_repeat: tuple[float, ...]
    n_pairs: int
    h_y: float

    @classmethod
    def from_estimates(cls, estimates: Sequence[float], joint: JointCounts) -> "SampledMi":
        """Summarize the estimates; n_pairs and h_y are ``joint``'s."""
        return cls(
            mean=float(np.mean(estimates)),
            std=float(np.std(estimates, ddof=1)) if len(estimates) > 1 else 0.0,
            per_repeat=tuple(estimates),
            n_pairs=joint.total,
            h_y=entropy_y(joint),
        )


SAMPLE_BLOCK_DOUBLES = 16384
"""Most doubles in one block of sample_pairs_for_graph's draw buffer; a
graph whose one repeat draws more is a block of one repeat.  So the
sampling transient (tracemalloc) no longer grows with the repeat
count: five strategies at five repeats of a 97-atom graph take 0.32 MB,
not 1.7 MB as one stack, and four strategies on a 242-atom chain take
1.65 MB at any repeat count, not 8.3 MB at 4 repeats and 66 MB at 32.
Half this budget saves little more and costs mask-sim about 5% of its
time."""


def sample_pairs_for_graph(
    graph: MolGraph,
    graph_index: int,
    labels: Sequence[int],
    strategies: Sequence[BoundStrategy],
    repeats: int,
    seed: int,
) -> np.ndarray:
    """Draw one graph's sampled unit labels for every strategy and repeat.

    The generator for (repeat r, graph g) is derived from the seed by
    value, never by schedule, so any partitioning of the corpus across
    workers reproduces the same samples.  Each (repeat, graph) cell
    draws as many masks as the graph has atoms under each strategy (the
    graph's BoundStrategy), and picks one masked atom per mask,
    uniformly, so samples follow the strategy's true inclusion
    marginal.  One sample = one mask.

    Every strategy reads the same stream: a cell's generator is built
    once and draws one buffer of doubles, as long as the hungriest
    strategy needs.  Each strategy decodes its masks (``members``) from
    the buffer's prefix and takes its picks from the doubles after
    them: the doubles its ``draw`` and then one pick per mask would
    read from a fresh generator.  The masks of consecutive repeats
    decode as one stack, in blocks of at most SAMPLE_BLOCK_DOUBLES
    drawn doubles, so memory does not grow with the repeat count; the
    block size changes no sample.  Returns a (strategies, repeats,
    n_atoms) array of ``labels``' dtype: [s, r] holds the labels of the
    atoms sampled under strategy s in repeat r, in draw order.
    """
    from .masking import nth_member

    labels = np.asarray(labels)
    m = graph.n_atoms
    width = max(sum(bound.widths) for bound in strategies) + 1  # and a pick per mask
    step = max(1, SAMPLE_BLOCK_DOUBLES // (m * width))
    buffers = np.empty((min(step, repeats), m * width))
    out = np.empty((len(strategies), repeats, m), dtype=labels.dtype)
    for start in range(0, repeats, step):
        drawn = buffers[: min(step, repeats - start)]
        for r, row in enumerate(drawn, start):
            cell = np.random.SeedSequence(entropy=seed, spawn_key=(r, graph_index))
            np.random.default_rng(cell).random(out=row)
        rows = len(drawn)
        for s, bound in enumerate(strategies):
            edges = m * np.cumsum((0, *bound.widths, 1))
            *blocks, picks = [drawn[:, a:b].reshape(rows * m, -1) for a, b in zip(edges, edges[1:])]
            sampled = labels[nth_member(bound.members(*blocks), picks[:, 0])]
            out[s, start : start + rows] = sampled.reshape(rows, m)
    return out


def repeat_mi(
    per_graph: Sequence[np.ndarray], graph_labels: Sequence[int], repeats: int
) -> SampledMi:
    """Pool sampled labels into one joint table per repeat and summarize.

    ``per_graph[g]`` is graph g's (repeats, samples) label array (what
    sample_pairs_for_graph returns) and ``graph_labels[g]`` is graph
    g's label.  The spread over repeats is the sample standard
    deviation; n_pairs and h_y describe repeat 0.
    """
    if repeats < 1:
        raise ValueError("sampled MI needs at least one repeat")
    sizes = [samples.shape[1] for samples in per_graph]
    x = np.concatenate(per_graph, axis=1) if per_graph else np.empty((repeats, 0), dtype=np.int64)
    y = np.repeat(np.asarray(graph_labels, dtype=np.int64), sizes)
    per_repeat = [JointCounts.from_arrays(x[r], y) for r in range(repeats)]
    estimates = [mutual_information(joint) for joint in per_repeat]
    return SampledMi.from_estimates(estimates, per_repeat[0])


def low_freq_conditionals(
    counts: JointCounts, tau: float
) -> tuple[np.ndarray, np.ndarray, list[int]]:
    """Class conditionals restricted to labels with marginal P(x) < tau.

    Returns (p for y=0, p for y=1, kept labels sorted).  Raises
    EmptySupport when no label qualifies or either class has zero mass
    on the qualifying set.
    """
    total = counts.total
    if total == 0:
        raise EmptyCounts("conditionals of zero observations")
    keep = counts.table.sum(axis=1) / total < tau
    if not keep.any():
        raise EmptySupport(f"no label has marginal below {tau}")
    sub = counts.table[keep]
    mass = sub.sum(axis=0)
    if mass[0] == 0 or mass[1] == 0:
        raise EmptySupport(f"a class has no mass on labels below {tau}")
    return sub[:, 0] / mass[0], sub[:, 1] / mass[1], counts.labels[keep].tolist()


def jsd(p: np.ndarray, q: np.ndarray) -> float:
    """Jensen-Shannon divergence in bits; 0 for identical distributions,
    1 for disjoint supports."""
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    if p.shape != q.shape:
        raise ValueError("distributions must share a support")
    m = 0.5 * (p + q)

    def kl(a: np.ndarray) -> float:
        mask = a > 0
        return float(np.sum(a[mask] * np.log2(a[mask] / m[mask])))

    value = 0.5 * kl(p) + 0.5 * kl(q)
    return min(max(value, 0.0), 1.0)


@dataclass(frozen=True)
class JsdCurve:
    """JSD of low-frequency conditionals across a threshold grid.

    Points where the conditionals are undefined (empty qualifying set or
    a massless class) carry NaN and defined=False.
    """

    taus: tuple[float, ...]
    values: tuple[float, ...]
    labels_kept: tuple[int, ...]
    defined: tuple[bool, ...]


def jsd_curve(counts: JointCounts, taus: Sequence[float] = DEFAULT_TAUS) -> JsdCurve:
    """Evaluate the low-frequency JSD at each threshold, largest first."""
    ordered = sorted(taus, reverse=True)
    values: list[float] = []
    kept: list[int] = []
    defined: list[bool] = []
    for tau in ordered:
        try:
            p0, p1, labels = low_freq_conditionals(counts, tau)
        except EmptySupport:
            values.append(float("nan"))
            kept.append(_count_below(counts, tau))
            defined.append(False)
            continue
        values.append(jsd(p0, p1))
        kept.append(len(labels))
        defined.append(True)
    return JsdCurve(
        taus=tuple(ordered),
        values=tuple(values),
        labels_kept=tuple(kept),
        defined=tuple(defined),
    )


def _count_below(counts: JointCounts, tau: float) -> int:
    return int(np.sum(counts.table.sum(axis=1) / counts.total < tau))


def shuffle_control(counts: JointCounts, repeats: int = 5, seed: int = 0) -> SampledMi:
    """Permute the unit labels across all units of the table, keeping
    each unit's Y fixed, and recompute MI.  A permutation keeps the
    pair count and label entropy, so those are ``counts``'.

    The table expands once into one (x, y) unit per count, in (x, y)
    order; repeat r permutes the x column with the generator keyed by
    (seed, r).  What survives is finite-sample bias, not signal.  Units
    move one by one, not graph by graph, so the spread understates that
    of a null that permutes whole graphs.
    """
    if counts.total == 0:
        raise EmptyCounts("shuffle control of zero observations")
    cells = counts.table.ravel()
    x = np.repeat(np.repeat(counts.labels, 2), cells)
    y = np.repeat(np.tile([0, 1], len(counts.labels)), cells)
    estimates = []
    for r in range(repeats):
        rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(r,)))
        shuffled = JointCounts.from_arrays(x[rng.permutation(len(x))], y)
        estimates.append(mutual_information(shuffled))
    return SampledMi.from_estimates(estimates, counts)
