"""Plug-in information measures over (unit label, graph label) pairs.

Everything is empirical: probabilities are relative frequencies, with no
bias correction, and every logarithm is base 2, so all quantities come
out in bits.  The 0 * log 0 convention is 0 throughout.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable, Mapping, Optional, Sequence

import numpy as np

from .errors import EmptyCounts, EmptySupport
from .masking import BatchDraw
from .molgraph import MolGraph

DEFAULT_TAUS = (1.0, 0.5, 0.2, 0.1, 0.05, 0.02, 0.01, 0.005, 0.001)


@dataclass
class JointCounts:
    """Contingency counts N(x, y) for an integer label X and binary Y."""

    counts: dict[tuple[int, int], int] = field(default_factory=dict)

    @property
    def total(self) -> int:
        return sum(self.counts.values())

    def add(self, x: int, y: int, weight: int = 1) -> None:
        if y not in (0, 1):
            raise ValueError(f"graph label must be 0 or 1, got {y!r}")
        self.counts[(x, y)] = self.counts.get((x, y), 0) + weight

    def accumulate(self, pairs: Iterable[tuple[int, int]]) -> "JointCounts":
        for x, y in pairs:
            self.add(x, y)
        return self

    @classmethod
    def from_pairs(cls, pairs: Iterable[tuple[int, int]]) -> "JointCounts":
        return cls().accumulate(pairs)

    def table(self) -> tuple[list[int], np.ndarray]:
        """Sorted distinct x labels and the (|X|, 2) count matrix."""
        xs = sorted({x for x, _ in self.counts})
        mat = np.zeros((len(xs), 2), dtype=float)
        index = {x: i for i, x in enumerate(xs)}
        for (x, y), n in self.counts.items():
            mat[index[x], y] = n
        return xs, mat


def mutual_information(counts: JointCounts) -> float:
    """Plug-in mutual information I(X; Y) in bits.

    Sum of p(x,y) * log2(p(x,y) / (p(x) p(y))) over observed cells; zero
    cells contribute nothing.  Raises EmptyCounts on an empty table.
    """
    total = counts.total
    if total == 0:
        raise EmptyCounts("mutual information of zero observations")
    _, mat = counts.table()
    p = mat / total
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
    _, mat = counts.table()
    py = mat.sum(axis=0) / total
    return float(-sum(q * math.log2(q) for q in py if q > 0))


def relative_gain(mi: float, h_y: float) -> float:
    """MI as a fraction of the label entropy; NaN when H(Y) = 0."""
    if h_y <= 0.0:
        return float("nan")
    return mi / h_y


@dataclass(frozen=True)
class SampledMi:
    """Monte-Carlo MI estimate over several seeded repeats."""

    mean: float
    std: float
    per_repeat: tuple[float, ...]
    n_pairs: int
    h_y: float


def sample_pairs_for_graph(
    graph: MolGraph,
    graph_index: int,
    labels: Sequence[int],
    y: int,
    draw: BatchDraw,
    repeats: int,
    seed: int,
    samples_per_graph: Optional[int] = None,
    unique_nodes: bool = False,
) -> list[list[tuple[int, int]]]:
    """Draw one graph's (x, y) samples for every repeat.

    The generator for (repeat r, graph g) is derived from the seed by
    value, never by schedule, so any partitioning of the corpus across
    workers reproduces the same samples.  Each (repeat, graph) cell
    draws its masks as one batch from ``draw`` (the graph's
    BoundStrategy.draw) and picks one masked atom per mask, uniformly,
    so samples follow the strategy's true inclusion marginal.  One
    sample = one mask.
    """
    budget = graph.n_atoms if samples_per_graph is None else samples_per_graph
    out: list[list[tuple[int, int]]] = []
    for r in range(repeats):
        rng = np.random.default_rng(
            np.random.SeedSequence(entropy=seed, spawn_key=(r, graph_index))
        )
        if unique_nodes:
            atoms = _unique_atoms(draw, rng, budget, graph.n_atoms)
        else:
            atoms = _pick_atoms(draw(rng, budget), rng)
        out.append([(labels[a], y) for a in atoms])
    return out


def _pick_atoms(masks: list[list[int]], rng: np.random.Generator) -> list[int]:
    """One atom per mask, uniform among the mask's atoms."""
    return [mask[int(u * len(mask))] for mask, u in zip(masks, rng.random(len(masks)).tolist())]


def _unique_atoms(
    draw: BatchDraw, rng: np.random.Generator, budget: int, n_atoms: int
) -> list[int]:
    """Up to ``budget`` distinct atoms.

    Each sample takes the next pick (one atom of one fresh mask) that is
    not yet taken, trying at most 100 picks; after that it takes an
    untaken atom uniformly.  Picks come in batches of ``budget`` masks.
    Once every atom is taken, sampling stops.
    """
    fallback = rng.random(budget).tolist()
    taken: dict[int, None] = {}  # insertion-ordered set
    picks: list[int] = []
    for j in range(min(budget, n_atoms)):
        for _ in range(100):
            if not picks:
                picks = _pick_atoms(draw(rng, budget), rng)[::-1]
            atom = picks.pop()
            if atom not in taken:
                break
        else:
            remaining = [a for a in range(n_atoms) if a not in taken]
            atom = remaining[int(fallback[j] * len(remaining))]
        taken[atom] = None
    return list(taken)


def repeat_mi(
    per_graph: Iterable[Sequence[Mapping[tuple[int, int], int]]], repeats: int
) -> SampledMi:
    """Pool sampled pairs into one joint table per repeat and summarize.

    ``per_graph`` yields, for each graph, the (x, y) counts of every
    repeat (Counters of the pairs sample_pairs_for_graph returns).
    Pooling is a commutative count sum, so the order graphs arrive in is
    moot.  The spread over repeats is the sample standard deviation;
    n_pairs and h_y describe repeat 0.
    """
    if repeats < 1:
        raise ValueError("sampled MI needs at least one repeat")
    per_repeat = [JointCounts() for _ in range(repeats)]
    for repeat_counts in per_graph:
        for joint, counts in zip(per_repeat, repeat_counts):
            for (x, y), n in counts.items():
                joint.add(x, y, n)
    estimates = [mutual_information(joint) for joint in per_repeat]
    return SampledMi(
        mean=float(np.mean(estimates)),
        std=float(np.std(estimates, ddof=1)) if repeats > 1 else 0.0,
        per_repeat=tuple(estimates),
        n_pairs=per_repeat[0].total,
        h_y=entropy_y(per_repeat[0]),
    )


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
    xs, mat = counts.table()
    marginal = mat.sum(axis=1) / total
    keep = marginal < tau
    if not keep.any():
        raise EmptySupport(f"no label has marginal below {tau}")
    sub = mat[keep]
    mass = sub.sum(axis=0)
    if mass[0] == 0 or mass[1] == 0:
        raise EmptySupport(f"a class has no mass on labels below {tau}")
    kept_labels = [x for x, flag in zip(xs, keep) if flag]
    return sub[:, 0] / mass[0], sub[:, 1] / mass[1], kept_labels


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
    total = counts.total
    xs, mat = counts.table()
    marginal = mat.sum(axis=1) / total
    return int(np.sum(marginal < tau))


@dataclass(frozen=True)
class ShuffleResult:
    """MI after destroying the X-Y pairing, over several permutations."""

    mean: float
    std: float
    per_repeat: tuple[float, ...]


def shuffle_control(
    pairs: Sequence[tuple[int, int]],
    repeats: int = 5,
    seed: int = 0,
) -> ShuffleResult:
    """Permute the unit labels across the corpus, keeping Y fixed, and
    recompute MI.  What survives is finite-sample bias, not signal."""
    if not pairs:
        raise EmptyCounts("shuffle control of zero observations")
    xs = [x for x, _ in pairs]
    ys = [y for _, y in pairs]
    estimates = []
    for r in range(repeats):
        rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(r,)))
        perm = rng.permutation(len(xs))
        joint = JointCounts()
        for i, y in enumerate(ys):
            joint.add(xs[int(perm[i])], y)
        estimates.append(mutual_information(joint))
    mean = float(np.mean(estimates))
    std = float(np.std(estimates, ddof=1)) if repeats > 1 else 0.0
    return ShuffleResult(mean=mean, std=std, per_repeat=tuple(estimates))
