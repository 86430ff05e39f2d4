"""Masking strategies: which atoms get hidden, and how views are exported.

All strategies draw from numpy Generators handed in by the caller; the
``substream`` helper derives a per-(graph, draw) generator from one base
seed so results never depend on scheduling or worker count.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, replace
from functools import partial
from pathlib import Path
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import OutOfRangeIndex
from .molgraph import MASK_SENTINEL, MolGraph
from .motif import MotifPartition, decompose, motif_adjacency
from .scoring import NodeScores, pagerank

STRATEGIES = ("uniform", "pagerank", "external", "moama", "motifpred")


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


def _topk_by_score(scores: np.ndarray, k: int) -> np.ndarray:
    """Indices of the k largest scores; ties go to the lower atom index."""
    n = len(scores)
    order = np.lexsort((np.arange(n), -scores))
    return order[:k]


def uniform_mask(graph: MolGraph, config: MaskConfig, rng: np.random.Generator) -> MaskPlan:
    """Mask k atoms chosen uniformly without replacement."""
    n = graph.n_atoms
    k = mask_count(config.ratio, n)
    chosen = rng.choice(n, size=k, replace=False)
    return MaskPlan(
        masked_atoms=tuple(sorted(int(i) for i in chosen)),
        strategy="uniform",
    )


def perturbed_topk(
    graph: MolGraph,
    scores: NodeScores,
    config: MaskConfig,
    rng: np.random.Generator,
) -> MaskPlan:
    """Score-guided masking via noisy top-k selection.

    An annealed candidate pool (the top k(gamma_i, n) scored atoms) gets
    a bonus beta added to fresh uniform noise; the final mask is the top
    k(gamma, n) atoms of the perturbed noise.  With beta > 1 the mask is
    a subset of the candidate pool whenever the pool is at least as
    large as the mask.
    """
    n = graph.n_atoms
    if len(scores) != n:
        raise OutOfRangeIndex(f"scores cover {len(scores)} atoms, graph has {n}")
    if config.beta is None:
        raise ValueError("perturbed_topk needs an explicit beta")
    k_final = mask_count(config.ratio, n)
    k_candidates = mask_count(config.annealed_ratio, n)
    candidates = _topk_by_score(scores.as_array(), k_candidates)
    noise = rng.random(n)
    noise[candidates] += config.beta
    masked = _topk_by_score(noise, k_final)
    return MaskPlan(
        masked_atoms=tuple(sorted(int(i) for i in masked)),
        strategy=scores.source,
    )


def moama_mask(
    graph: MolGraph,
    partition: MotifPartition,
    adjacency: Sequence[Sequence[int]],
    config: MaskConfig,
    rng: np.random.Generator,
) -> MaskPlan:
    """Whole-motif masking with a non-adjacency constraint.

    Draws motifs uniformly; each accepted motif evicts itself and its
    neighbors from the pool, so no two masked motifs are ever adjacent.
    The first motif is always accepted; after that the loop stops before
    the atom budget k(gamma, n) would be exceeded, rather than trimming
    a motif down to fit.
    """
    k = mask_count(config.ratio, graph.n_atoms)
    pool = list(range(partition.n_motifs))
    selected: list[int] = []
    masked_total = 0
    while pool:
        m = pool[int(rng.integers(len(pool)))]
        size = len(partition.motifs[m])
        if selected and masked_total + size > k:
            break
        selected.append(m)
        masked_total += size
        banned = {m, *adjacency[m]}
        pool = [p for p in pool if p not in banned]
    atoms = sorted(a for m in selected for a in partition.motifs[m])
    return MaskPlan(
        masked_atoms=tuple(atoms),
        strategy="moama",
        masked_motifs=tuple(sorted(selected)),
    )


def motifpred_mask(
    graph: MolGraph,
    partition: MotifPartition,
    config: MaskConfig,
    rng: np.random.Generator,
) -> MaskPlan:
    """Motif-prediction masking: partial atom masking inside sampled motifs.

    Motifs are drawn uniformly without replacement until the masked-atom
    budget k(gamma, n) is met; each selected motif hides
    ceil(intra_motif_fraction * |motif|) of its atoms.  The final motif
    may overshoot the budget.
    """
    k = mask_count(config.ratio, graph.n_atoms)
    pool = list(range(partition.n_motifs))
    selected: list[int] = []
    masked: list[int] = []
    while pool and len(masked) < k:
        m = pool.pop(int(rng.integers(len(pool))))
        selected.append(m)
        motif_atoms = partition.motifs[m]
        n_mask = math.ceil(config.intra_motif_fraction * len(motif_atoms))
        picks = rng.choice(len(motif_atoms), size=n_mask, replace=False)
        masked.extend(motif_atoms[int(p)] for p in picks)
    return MaskPlan(
        masked_atoms=tuple(sorted(masked)),
        strategy="motifpred",
        masked_motifs=tuple(sorted(selected)),
    )


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


DrawFn = Callable[[np.random.Generator], MaskPlan]
PlanFn = Callable[[MolGraph, int, np.random.Generator], MaskPlan]


def bind_strategy(strategy: str, config: MaskConfig) -> Callable[..., DrawFn]:
    """Resolve a strategy name once, into a per-graph binder.

    The binder takes (graph, scores=None, partition=None) and returns the
    graph's rng -> MaskPlan draw function.  Per-graph work (PageRank, and
    the motif partition unless supplied) happens at bind time, not per
    draw.  'external' reads the supplied scores and raises ValueError
    without them.  Without an explicit beta, pagerank uses 0.25 and
    external 0.5.  This is the one place where strategy names are told
    apart.
    """
    if strategy == "uniform":
        def bind(graph, scores=None, partition=None):
            return partial(uniform_mask, graph, config)
    elif strategy == "pagerank":
        config = _beta_default(config, 0.25)

        def bind(graph, scores=None, partition=None):
            return partial(perturbed_topk, graph, pagerank(graph), config)
    elif strategy == "external":
        config = _beta_default(config, 0.5)

        def bind(graph, scores=None, partition=None):
            if scores is None:
                raise ValueError("external strategy needs loaded scores")
            return partial(perturbed_topk, graph, scores, config)
    elif strategy == "moama":
        def bind(graph, scores=None, partition=None):
            if partition is None:
                partition = decompose(graph)
            adjacency = motif_adjacency(graph, partition)
            return partial(moama_mask, graph, partition, adjacency, config)
    elif strategy == "motifpred":
        def bind(graph, scores=None, partition=None):
            if partition is None:
                partition = decompose(graph)
            return partial(motifpred_mask, graph, partition, config)
    else:
        raise ValueError(f"unknown strategy {strategy!r}; choose from {STRATEGIES}")
    return bind


def _beta_default(config: MaskConfig, beta: float) -> MaskConfig:
    return config if config.beta is not None else replace(config, beta=beta)


def build_plan_fn(
    strategy: str,
    config: MaskConfig,
    external_scores: Optional[Sequence[NodeScores]] = None,
    partitions: Optional[Sequence[MotifPartition]] = None,
) -> PlanFn:
    """Wire a strategy name to a (graph, graph_index, rng) -> MaskPlan
    function.  Per-graph inputs are keyed by graph_index; each graph is
    bound once, on its first draw."""
    bind = bind_strategy(strategy, config)
    draws: dict[int, DrawFn] = {}

    def plan(graph: MolGraph, graph_index: int, rng: np.random.Generator) -> MaskPlan:
        draw = draws.get(graph_index)
        if draw is None:
            draw = draws[graph_index] = bind(
                graph,
                None if external_scores is None else external_scores[graph_index],
                None if partitions is None else partitions[graph_index],
            )
        return draw(rng)

    return plan


TargetFn = Callable[[MolGraph, int, MaskPlan], tuple[str, list[int]]]


def export_views(
    corpus: Sequence[MolGraph],
    plan_fn: PlanFn,
    target_fn: TargetFn,
    path: str | Path,
    draws_per_graph: int = 1,
    seed: int = 0,
) -> int:
    """Write masked views with their prediction targets as JSON lines.

    One line per (graph, draw): smiles, masked_atoms, target_type,
    targets, strategy, seed.  Output is byte-identical across runs with
    the same inputs and seed.  Returns the number of lines written.
    """
    lines = 0
    with open(path, "w", newline="\n") as handle:
        for graph_index, graph in enumerate(corpus):
            for draw in range(draws_per_graph):
                rng = substream(seed, graph_index, draw)
                plan = plan_fn(graph, graph_index, rng)
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
