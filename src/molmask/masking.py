"""Masking strategies: which atoms get hidden, and how views are exported.

All strategies draw from numpy Generators handed in by the caller; the
``substream`` helper derives a per-(graph, draw) generator from one base
seed so results never depend on scheduling or worker count.

Each strategy has one batch draw: it returns m independent masks of a
graph and takes its randomness in a fixed number of Generator calls,
whatever m is.  bind_corpus binds each strategy of a run to one graph
at a time; the binding's plan(rng) is that draw at m = 1.

Each strategy also decodes the same masks as arrays (the binding's
``members``): from the uniform doubles its draw would read, one
(masks, atoms) boolean membership matrix.  The fixed-k strategies take
the top k of each row of noise plus bonus; the motif strategies walk
their pools one step at a time for every row at once.  Sampled MI
decodes all of a graph's masks this way; views and plans use the
draw, which is faster for one mask.
"""

from __future__ import annotations

import json
import math
import sys
from dataclasses import dataclass, replace
from pathlib import Path
from typing import TYPE_CHECKING, Callable, Iterable, NamedTuple, Optional, Sequence

import numpy as np

from .choices import STRATEGIES
from .errors import OutOfRangeIndex
from .molgraph import MolGraph
from .motif import MotifPartition, decompose, motif_adjacency
from .scoring import NodeScores, pagerank_all

if TYPE_CHECKING:
    from .targets import TargetColumn

@dataclass(frozen=True)
class MaskConfig:
    """Knobs shared by every masking strategy.

    epoch=None means the final epoch, where the annealed candidate ratio
    equals the target ratio exactly.  beta=None means the strategy's own
    default bonus (see bind_corpus).
    """

    ratio: float = 0.15
    beta: Optional[float] = None
    epoch: Optional[int] = None
    max_epoch: int = 100
    intra_motif_fraction: float = 0.5

    def __post_init__(self):
        if not (0.0 < self.ratio <= 1.0):
            raise ValueError("mask ratio must lie in (0, 1]")
        if self.beta is not None and not (0.0 <= self.beta < math.inf):
            raise ValueError("beta must be finite and nonnegative")
        if self.max_epoch < 1:
            raise ValueError("max_epoch must be at least 1")
        if self.epoch is not None and not (1 <= self.epoch <= self.max_epoch):
            raise ValueError("epoch must lie in [1, max_epoch]")
        if not (0.0 < self.intra_motif_fraction <= 1.0):
            raise ValueError("intra_motif_fraction must lie in (0, 1]")

    @property
    def effective_epoch(self) -> int:
        return self.max_epoch if self.epoch is None else self.epoch

    @property
    def annealed_ratio(self) -> float:
        """Candidate-pool ratio gamma_i = gamma * sqrt(i / E); equals the
        target ratio exactly at the final epoch."""
        i = self.effective_epoch
        if i == self.max_epoch:
            return self.ratio
        return self.ratio * math.sqrt(i / self.max_epoch)


def mask_count(ratio: float, n_atoms: int) -> int:
    """Budget k = max(1, round(ratio * n)), rounding halves up."""
    return max(1, math.floor(ratio * n_atoms + 0.5))


def substream(seed: int, graph_index: int, draw_index: int = 0) -> np.random.Generator:
    """Independent generator for one (graph, draw) cell.

    Keyed by value, not by schedule, so any worker partitioning of the
    corpus reproduces identical draws.
    """
    return np.random.default_rng(
        np.random.SeedSequence(entropy=seed, spawn_key=(graph_index, draw_index))
    )


BatchDraw = Callable[[np.random.Generator, int], list[list[int]]]
"""(rng, m) -> m independent masks of one graph, each a sorted list of
distinct atom indices."""

Members = Callable[..., np.ndarray]
"""(*blocks) -> the (rows, n_atoms) boolean membership matrix of one mask
per row: the batch draw's masks, decoded from its uniform doubles."""


def _top_rows(keys: np.ndarray, k: int) -> list[list[int]]:
    """The k largest keys of each row, as sorted atom lists; ties go to
    the lower atom index."""
    order = (-keys).argsort(axis=1, kind="stable")
    return [sorted(row) for row in order[:, :k].tolist()]


def _top_members(keys: np.ndarray, k: int) -> np.ndarray:
    """_top_rows as a membership matrix."""
    n = keys.shape[1]
    members = keys >= np.partition(keys, n - k, axis=1)[:, n - k, None]
    # Keys tied with a row's k-th largest can overfill it; those rows
    # take the lower-index ties, as the stable sort does.
    over = np.flatnonzero(np.count_nonzero(members, axis=1) > k)
    if over.size:
        members[over] = False
        members[over[:, None], (-keys[over]).argsort(axis=1, kind="stable")[:, :k]] = True
    return members


def nth_member(members: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Column of row i's floor(u[i] * |row i|)-th True entry (0-based, in
    ascending column order), as ``row[int(u * len(row))]`` picks from a
    sorted list.  Every row needs at least one True entry."""
    counts = np.count_nonzero(members, axis=1)
    starts = counts.cumsum() - counts
    return np.flatnonzero(members)[starts + (u * counts).astype(np.int64)] % members.shape[1]


def _uniform_draw(graph: MolGraph, config: MaskConfig) -> tuple[BatchDraw, Members, tuple[int, ...]]:
    """k(gamma, n) atoms chosen uniformly without replacement."""
    n = graph.n_atoms
    k = mask_count(config.ratio, n)
    return (
        lambda rng, m: _top_rows(rng.random((m, n)), k),
        lambda noise: _top_members(noise, k),
        (n,),
    )


def _perturbed_topk_draw(
    graph: MolGraph, scores: NodeScores, config: MaskConfig
) -> tuple[BatchDraw, Members, tuple[int, ...]]:
    """Score-guided masking via noisy top-k selection.

    An annealed candidate pool (the top k(gamma_i, n) scored atoms) gets
    a bonus beta added to fresh uniform noise; the mask is the top
    k(gamma, n) atoms of the perturbed noise.  Tied scores, and tied
    noise, go to the lower atom index.  With beta > 1 the mask is a
    subset of the candidate pool whenever the pool is at least as large
    as the mask.
    """
    n = graph.n_atoms
    if len(scores) != n:
        raise OutOfRangeIndex(f"scores cover {len(scores)} atoms, graph has {n}")
    k_final = mask_count(config.ratio, n)
    order = (-scores.as_array()).argsort(kind="stable")
    bonus = np.zeros(n)
    bonus[order[: mask_count(config.annealed_ratio, n)]] = config.beta
    return (
        lambda rng, m: _top_rows(rng.random((m, n)) + bonus, k_final),
        lambda noise: _top_members(noise + bonus, k_final),
        (n,),
    )


def _moama_draw(
    graph: MolGraph,
    partition: MotifPartition,
    adjacency: Sequence[Sequence[int]],
    config: MaskConfig,
) -> tuple[BatchDraw, Members, tuple[int, ...]]:
    """Whole-motif masking with a non-adjacency constraint.

    Draws motifs uniformly; each accepted motif evicts itself and its
    neighbors from the pool, so no two masked motifs are ever adjacent.
    The first motif is always accepted; after that the loop stops before
    the atom budget k(gamma, n) would be exceeded, rather than trimming
    a motif down to fit.
    """
    k = mask_count(config.ratio, graph.n_atoms)
    n_motifs = partition.n_motifs
    motifs = partition.motifs

    def draw(rng: np.random.Generator, m: int) -> list[list[int]]:
        # Each step evicts the picked motif from the pool, so a mask
        # takes at most n_motifs numbers.
        masks = []
        for picks in rng.random((m, n_motifs)).tolist():
            pool = list(range(n_motifs))
            atoms: list[int] = []
            for u in picks:
                motif = pool[int(u * len(pool))]
                if atoms and len(atoms) + len(motifs[motif]) > k:
                    break
                atoms += motifs[motif]
                near = adjacency[motif]
                pool = [p for p in pool if p != motif and p not in near]
                if not pool:
                    break
            atoms.sort()
            masks.append(atoms)
        return masks

    def members(picks: np.ndarray) -> np.ndarray:
        sizes = np.array([len(atoms) for atoms in motifs])
        # Row i: motif i and its neighbors, the motifs that accepting i evicts.
        evicts = np.eye(n_motifs, dtype=bool)
        for motif, near in enumerate(adjacency):
            evicts[motif, list(near)] = True
        # Step j runs draw's loop body once for every row still drawing.
        pool = np.ones(picks.shape, dtype=bool)
        chosen = np.zeros(picks.shape, dtype=bool)
        total = np.zeros(len(picks), dtype=np.int64)
        live = np.arange(len(picks))
        for j in range(n_motifs):
            motif = nth_member(pool[live], picks[live, j])
            fits = (total[live] == 0) | (total[live] + sizes[motif] <= k)
            live, motif = live[fits], motif[fits]
            chosen[live, motif] = True
            total[live] += sizes[motif]
            pool[live] &= ~evicts[motif]
            live = live[pool[live].any(axis=1)]
            if not live.size:
                break
        return chosen[:, partition.motif_of]

    return draw, members, (n_motifs,)


def _motifpred_draw(
    graph: MolGraph, partition: MotifPartition, config: MaskConfig
) -> tuple[BatchDraw, Members, tuple[int, ...]]:
    """Motif-prediction masking: partial atom masking inside sampled motifs.

    Motifs are drawn uniformly without replacement until the masked-atom
    budget k(gamma, n) is met; each selected motif hides
    ceil(intra_motif_fraction * |motif|) of its atoms, chosen uniformly.
    The last motif may overshoot the budget.
    """
    n = graph.n_atoms
    k = mask_count(config.ratio, n)
    n_motifs = partition.n_motifs
    motifs = partition.motifs
    hidden = [math.ceil(config.intra_motif_fraction * len(atoms)) for atoms in motifs]

    def draw(rng: np.random.Generator, m: int) -> list[list[int]]:
        # One number per motif orders the pool; one key per atom picks
        # the lowest-keyed atoms inside each selected motif.
        masks = []
        picks_by_mask = rng.random((m, n_motifs)).tolist()
        keys_by_mask = rng.random((m, n)).tolist()
        for picks, keys in zip(picks_by_mask, keys_by_mask):
            pool = list(range(n_motifs))
            atoms: list[int] = []
            for u in picks:
                motif = pool.pop(int(u * len(pool)))
                atoms += sorted(motifs[motif], key=keys.__getitem__)[: hidden[motif]]
                if len(atoms) >= k:
                    break
            atoms.sort()
            masks.append(atoms)
        return masks

    def members(picks: np.ndarray, keys: np.ndarray) -> np.ndarray:
        hidden_of = np.array(hidden)
        # Every row pops one motif per step, so the pool shrinks alike.
        pool = np.ones(picks.shape, dtype=bool)
        total = np.zeros(len(picks), dtype=np.int64)
        live = np.arange(len(picks))
        for j in range(n_motifs):
            motif = nth_member(pool[live], picks[live, j])
            pool[live, motif] = False
            total[live] += hidden_of[motif]
            live = live[total[live] < k]
            if not live.size:
                break
        # Each motif's lowest-keyed hidden[motif] atoms, whether or not
        # the row selected it; a stable sort sends ties to the lower atom.
        lowest = np.zeros(keys.shape, dtype=bool)
        rows = np.arange(len(keys))[:, None]
        for atoms, h in zip(motifs, hidden):
            if h == len(atoms):
                lowest[:, atoms] = True
            else:
                atoms = np.array(atoms)
                lowest[rows, atoms[keys[:, atoms].argsort(axis=1, kind="stable")[:, :h]]] = True
        return lowest & ~pool[:, partition.motif_of]

    return draw, members, (n_motifs, n)


class BoundStrategy(NamedTuple):
    """One strategy bound to one graph's inputs: its batch draw and array decode.

    ``draw(rng, m)`` returns m independent masks, each a sorted list of
    atom indices; ``plan(rng)`` is that draw at m = 1, as a tuple.

    ``members`` decodes the same masks as arrays.  Each mask reads
    ``sum(widths)`` uniform doubles in ``widths``-wide blocks: of the
    doubles ``draw(rng, m)`` reads, block b of all m masks is the next
    m * widths[b], as an (m, widths[b]) matrix.  ``members(*blocks)``
    returns the (m, n_atoms) boolean matrix whose row i marks mask i's
    atoms; rows of several draws may be stacked.
    """

    draw: BatchDraw
    members: Members
    widths: tuple[int, ...]
    strategy: str

    def plan(self, rng: np.random.Generator) -> tuple[int, ...]:
        (atoms,) = self.draw(rng, 1)
        return tuple(atoms)


def bind_corpus(
    strategies: Sequence[str],
    config: MaskConfig,
    graphs: Sequence[MolGraph],
    external: Optional[Sequence[NodeScores]] = None,
    partitions: Optional[Sequence[MotifPartition]] = None,
) -> Callable[[int], tuple[BoundStrategy, ...]]:
    """Resolve strategy names once per run, into a per-graph binder.

    ``bind(g)`` returns graph g's BoundStrategy under each strategy, in
    the order given; a sampled-MI run decodes all of a graph's masks
    with one ``members`` call per strategy.  Per-run inputs are made
    here, once: 'pagerank' gets one pagerank_all over ``graphs`` (when
    some graphs do not converge, one line on stderr says how many), and
    'external' reads ``external``, aligned with ``graphs``.  Without an
    explicit beta, pagerank uses 0.25 and external 0.5.  The motif
    strategies share one partition per graph: ``partitions[g]`` if
    given, else one decompose at bind time.  An unknown name, or
    'external' without scores, raises ValueError before any of that.
    This is the one place where strategy names are told apart.
    """
    for strategy in strategies:
        if strategy not in STRATEGIES:
            raise ValueError(f"unknown strategy {strategy!r}; choose from {STRATEGIES}")
    if "external" in strategies and external is None:
        raise ValueError("external strategy needs loaded scores")
    scores = {"external": external}
    if "pagerank" in strategies:
        scores["pagerank"] = pagerank_all(graphs)
        stuck = [s for s in scores["pagerank"] if not s.converged]
        if stuck:
            print(
                f"pagerank: {len(stuck)} of {len(graphs)} graphs did not converge "
                f"in {stuck[0].iterations} iterations",
                file=sys.stderr,
            )

    def scored(strategy: str, beta: float):
        beta_config = config if config.beta is not None else replace(config, beta=beta)
        return lambda g, partition: _perturbed_topk_draw(graphs[g], scores[strategy][g], beta_config)

    draws = {
        "uniform": lambda g, partition: _uniform_draw(graphs[g], config),
        "pagerank": scored("pagerank", 0.25),
        "external": scored("external", 0.5),
        "moama": lambda g, partition: _moama_draw(
            graphs[g], partition, motif_adjacency(graphs[g], partition), config
        ),
        "motifpred": lambda g, partition: _motifpred_draw(graphs[g], partition, config),
    }
    motifs = not {"moama", "motifpred"}.isdisjoint(strategies)

    def bind(g: int) -> tuple[BoundStrategy, ...]:
        partition = None
        if motifs:
            partition = decompose(graphs[g]) if partitions is None else partitions[g]
        return tuple(BoundStrategy(*draws[s](g, partition), s) for s in strategies)

    return bind


def export_views(
    corpus: Sequence[MolGraph],
    strategies: Iterable[BoundStrategy],
    column: TargetColumn,
    path: str | Path,
    draws_per_graph: int = 1,
    seed: int = 0,
) -> int:
    """Write masked views with their prediction targets as JSON lines.

    ``strategies`` gives each graph's BoundStrategy in corpus order, so
    a generator binds each graph only when its views are written; the
    targets are ``column``'s, built over ``corpus``.  One line per
    (graph, draw): smiles, masked_atoms, target_type, targets,
    strategy, seed.  Output is byte-identical across runs with
    the same inputs and seed.  Returns the number of lines written.
    """
    lines = 0
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        for graph_index, (graph, bound) in enumerate(zip(corpus, strategies, strict=True)):
            for draw in range(draws_per_graph):
                atoms = bound.plan(substream(seed, graph_index, draw))
                record = {
                    "smiles": graph.source_smiles,
                    "masked_atoms": list(atoms),
                    "target_type": column.kind,
                    "targets": column.view_targets(graph_index, atoms),
                    "strategy": bound.strategy,
                    "seed": seed,
                }
                handle.write(json.dumps(record, sort_keys=True, separators=(",", ":")))
                handle.write("\n")
                lines += 1
    return lines
