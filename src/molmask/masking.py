"""Masking strategies: which atoms get hidden, and how views are exported.

All strategies draw from numpy Generators handed in by the caller; the
``substream`` helper derives a per-(graph, draw) generator from one base
seed so results never depend on scheduling or worker count.

Each strategy has one batch draw: it returns m independent masks of a
graph and takes its randomness in a fixed number of Generator calls,
whatever m is.  bind_strategy binds a strategy to one graph; the
binding's plan(rng) is that draw at m = 1.
"""

from __future__ import annotations

import json
import math
import sys
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Callable, Iterable, NamedTuple, Optional, Sequence

import numpy as np

from .choices import STRATEGIES
from .errors import OutOfRangeIndex
from .molgraph import MASK_SENTINEL, MolGraph
from .motif import MotifPartition, decompose, motif_adjacency
from .scoring import NodeScores, pagerank_all

MOTIF_STRATEGIES = ("moama", "motifpred")


@dataclass(frozen=True)
class MaskConfig:
    """Knobs shared by every masking strategy.

    epoch=None means the final epoch, where the annealed candidate ratio
    equals the target ratio exactly.  beta=None means the strategy's own
    default bonus (see bind_strategy).
    """

    ratio: float = 0.15
    beta: Optional[float] = None
    epoch: Optional[int] = None
    max_epoch: int = 100
    intra_motif_fraction: float = 0.5

    def __post_init__(self):
        if not (0.0 < self.ratio <= 1.0):
            raise ValueError("mask ratio must lie in (0, 1]")
        if self.beta is not None and self.beta < 0.0:
            raise ValueError("beta must be nonnegative")
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


@dataclass(frozen=True)
class MaskPlan:
    """Outcome of one masking draw.

    masked_atoms is sorted and duplicate-free.  masked_motifs is empty
    for node-level strategies; for moama it lists whole motifs whose
    atom union equals masked_atoms.
    """

    masked_atoms: tuple[int, ...]
    strategy: str
    masked_motifs: tuple[int, ...] = ()

    def __post_init__(self):
        if list(self.masked_atoms) != sorted(set(self.masked_atoms)):
            raise ValueError("masked_atoms must be sorted and unique")


@dataclass(frozen=True)
class MaskedGraph:
    """A graph with mask sentinels applied to the planned atoms."""

    graph: MolGraph
    masked_atoms: tuple[int, ...]
    mask_token_applied: bool


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


def _top_rows(keys: np.ndarray, k: int) -> list[list[int]]:
    """The k largest keys of each row, as sorted atom lists; ties go to
    the lower atom index."""
    order = (-keys).argsort(axis=1, kind="stable")
    return [sorted(row) for row in order[:, :k].tolist()]


def _uniform_draw(graph: MolGraph, config: MaskConfig) -> BatchDraw:
    """k(gamma, n) atoms chosen uniformly without replacement."""
    n = graph.n_atoms
    k = mask_count(config.ratio, n)
    return lambda rng, m: _top_rows(rng.random((m, n)), k)


def _perturbed_topk_draw(graph: MolGraph, scores: NodeScores, config: MaskConfig) -> BatchDraw:
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
    return lambda rng, m: _top_rows(rng.random((m, n)) + bonus, k_final)


def _moama_draw(
    graph: MolGraph,
    partition: MotifPartition,
    adjacency: Sequence[Sequence[int]],
    config: MaskConfig,
) -> BatchDraw:
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

    return draw


def _motifpred_draw(graph: MolGraph, partition: MotifPartition, config: MaskConfig) -> BatchDraw:
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

    return draw


def apply_mask(graph: MolGraph, plan: MaskPlan) -> MaskedGraph:
    """Stamp the mask sentinel onto the planned atoms.

    The input graph is never touched; masked atoms keep every attribute
    except atomic_number, which becomes the sentinel 119.  An empty plan
    returns the input graph unchanged with the applied flag off.
    """
    for idx in plan.masked_atoms:
        if not (0 <= idx < graph.n_atoms):
            raise OutOfRangeIndex(f"masked atom {idx} outside graph of {graph.n_atoms}")
    if not plan.masked_atoms:
        return MaskedGraph(graph=graph, masked_atoms=(), mask_token_applied=False)
    masked_set = set(plan.masked_atoms)
    atoms = tuple(
        replace(atom, atomic_number=MASK_SENTINEL) if atom.index in masked_set else atom
        for atom in graph.atoms
    )
    new_graph = MolGraph(
        atoms=atoms,
        bonds=graph.bonds,
        adjacency=graph.adjacency,
        source_smiles=graph.source_smiles,
    )
    return MaskedGraph(
        graph=new_graph,
        masked_atoms=plan.masked_atoms,
        mask_token_applied=True,
    )


class BoundStrategy(NamedTuple):
    """One strategy bound to one graph's inputs: the graph's one batch draw.

    ``draw(rng, m)`` returns m independent masks, each a sorted list of
    atom indices; ``plan(rng)`` is that draw at m = 1, as a MaskPlan
    labelled with the strategy name.  Motif strategies' plans list the
    motifs their masked atoms fall in.
    """

    draw: BatchDraw
    strategy: str
    partition: Optional[MotifPartition] = None

    def plan(self, rng: np.random.Generator) -> MaskPlan:
        (atoms,) = self.draw(rng, 1)
        motifs = () if self.partition is None else {self.partition.motif_of[a] for a in atoms}
        return MaskPlan(tuple(atoms), self.strategy, tuple(sorted(motifs)))


def bind_strategy(strategy: str, config: MaskConfig) -> Callable[..., BoundStrategy]:
    """Resolve a strategy name once, into a per-graph binder.

    The binder takes (graph, scores=None, partition=None) and returns the
    graph's BoundStrategy.  Per-graph work (the motif partition, unless
    supplied) happens at bind time, not per draw, and each (repeat,
    graph) cell of a sampled-MI run takes all of its masks from one
    ``draw`` call.  'pagerank' and 'external' read the supplied scores
    (see strategy_scores) and raise ValueError without them.  Without an
    explicit beta, pagerank uses 0.25 and external 0.5.  This is the one
    place where strategy names are told apart, apart from
    MOTIF_STRATEGIES, the ones that read a motif partition, and
    strategy_scores, which supplies the scores.
    """
    if strategy == "uniform":
        def bind(graph, scores=None, partition=None):
            return BoundStrategy(_uniform_draw(graph, config), "uniform")
    elif strategy in ("pagerank", "external"):
        if config.beta is None:
            config = replace(config, beta=0.25 if strategy == "pagerank" else 0.5)
        def bind(graph, scores=None, partition=None):
            if scores is None:
                raise ValueError(f"{strategy} strategy needs per-graph scores")
            return BoundStrategy(_perturbed_topk_draw(graph, scores, config), strategy)
    elif strategy == "moama":
        def bind(graph, scores=None, partition=None):
            if partition is None:
                partition = decompose(graph)
            draw = _moama_draw(graph, partition, motif_adjacency(graph, partition), config)
            return BoundStrategy(draw, "moama", partition)
    elif strategy == "motifpred":
        def bind(graph, scores=None, partition=None):
            if partition is None:
                partition = decompose(graph)
            return BoundStrategy(_motifpred_draw(graph, partition, config), "motifpred", partition)
    else:
        raise ValueError(f"unknown strategy {strategy!r}; choose from {STRATEGIES}")
    return bind


def strategy_scores(
    strategies: Iterable[str],
    graphs: Sequence[MolGraph],
    external: Optional[Sequence[NodeScores]] = None,
) -> dict[str, Sequence[NodeScores]]:
    """Per-graph scores of each scored strategy, computed once per run.

    'pagerank' gets one pagerank_all over ``graphs``; when some graphs
    do not converge, one line on stderr says how many.  'external' gets
    ``external``, aligned with ``graphs`` (ValueError without it).  The
    other strategies read no scores and get no entry.
    """
    out: dict[str, Sequence[NodeScores]] = {}
    for strategy in strategies:
        if strategy == "pagerank":
            out[strategy] = pagerank_all(graphs)
            stuck = [s for s in out[strategy] if not s.converged]
            if stuck:
                print(
                    f"pagerank: {len(stuck)} of {len(graphs)} graphs did not converge "
                    f"in {stuck[0].iterations} iterations",
                    file=sys.stderr,
                )
        elif strategy == "external":
            if external is None:
                raise ValueError("external strategy needs loaded scores")
            out[strategy] = external
    return out


TargetFn = Callable[[MolGraph, int, MaskPlan], tuple[str, list[int]]]


def export_views(
    corpus: Sequence[MolGraph],
    strategies: Iterable[BoundStrategy],
    target_fn: TargetFn,
    path: str | Path,
    draws_per_graph: int = 1,
    seed: int = 0,
) -> int:
    """Write masked views with their prediction targets as JSON lines.

    ``strategies`` gives each graph's BoundStrategy in corpus order, so
    a generator binds each graph only when its views are written.  One
    line per (graph, draw): smiles, masked_atoms, target_type,
    targets, strategy, seed.  Output is byte-identical across runs with
    the same inputs and seed.  Returns the number of lines written.
    """
    lines = 0
    with open(path, "w", newline="\n") as handle:
        for graph_index, (graph, bound) in enumerate(zip(corpus, strategies, strict=True)):
            for draw in range(draws_per_graph):
                plan = bound.plan(substream(seed, graph_index, draw))
                target_type, targets = target_fn(graph, graph_index, plan)
                record = {
                    "smiles": graph.source_smiles,
                    "masked_atoms": list(plan.masked_atoms),
                    "target_type": target_type,
                    "targets": list(targets),
                    "strategy": plan.strategy,
                    "seed": seed,
                }
                handle.write(json.dumps(record, sort_keys=True, separators=(",", ":")))
                handle.write("\n")
                lines += 1
    return lines


def read_views(path: str | Path) -> list[dict]:
    """Load a views file written by export_views."""
    out = []
    with open(path) as handle:
        for line in handle:
            line = line.strip()
            if line:
                out.append(json.loads(line))
    return out
