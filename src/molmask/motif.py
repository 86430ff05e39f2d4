"""Motif decomposition, canonical motif signatures, and vocabularies.

Decomposition severs acyclic single bonds at fragment boundaries (rule
in ``decompose``); the resulting connected components are the motifs.
Signatures come from iterative color refinement with a bounded
exhaustive tie-break, so isomorphic motifs map to the same string no
matter which molecule or atom order produced them.

A signature depends only on the motif's labelled subgraph: its atoms'
(atomic number, aromatic) pairs in ascending atom order and its bonds
renumbered to that order.  ``_signature_keys`` reduces motifs to those
keys, all of a molecule's motifs in one pass over its bond columns
(``motif_signatures``) or one atom set (``canonical_signature``).  Each
key is looked up in an LRU memo of at most ``_SIGNATURE_MEMO_SIZE``
(16,384) keys, so each distinct labelled motif is signed once while the
memo holds it.  A 5,000-molecule synthetic corpus has 4,014 keys for
its 24,911 motifs.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from typing import Iterable, Sequence

from .errors import DataError, DisconnectedMotif
from .molgraph import SINGLE, MolGraph

# Exhaustive tie-break budget: orderings beyond this fall back to a
# refinement-class emission that is coarser but still order-invariant.
_TIE_BREAK_LIMIT = 8

# Bound of the signature memo, in distinct labelled motifs (a motif read
# in another atom order is another key); about 1.5 kB each.
_SIGNATURE_MEMO_SIZE = 1 << 14

_ORDER_CHAR = {"single": "-", "double": "=", "triple": "#", "aromatic": ":"}


@dataclass(frozen=True)
class MotifPartition:
    """A partition of one graph's atoms into motifs.

    motifs[i] is a tuple of atom indices in ascending order; every atom
    belongs to exactly one motif; cut_bonds are the severed bond index
    pairs (u < v).
    """

    motifs: tuple[tuple[int, ...], ...]
    cut_bonds: tuple[tuple[int, int], ...]
    motif_of: tuple[int, ...]

    @property
    def n_motifs(self) -> int:
        return len(self.motifs)


@dataclass(frozen=True)
class MotifVocab:
    """Signature -> dense id mapping, ids 0..size-1 by descending count.

    Ties in count break lexicographically on the signature string, which
    makes the mapping independent of corpus order.
    """

    ids: dict[str, int]
    counts: dict[str, int]

    @property
    def size(self) -> int:
        return len(self.ids)

    @property
    def unk_id(self) -> int:
        """Reserved id for motifs outside the vocabulary."""
        return len(self.ids)

    def lookup(self, signature: str) -> int:
        return self.ids.get(signature, self.unk_id)


@dataclass(frozen=True)
class CoverageStats:
    """How well a pretraining vocabulary covers a downstream corpus."""

    overlap_ratio: float
    per_graph_r: tuple[float, ...]
    mean_r: float
    median_r: float
    pct_r_ge_080: float
    pct_r_le_020: float


def decompose(graph: MolGraph) -> MotifPartition:
    """Split a molecule into motifs.

    Two kinds of acyclic single bonds are severed: bonds with at least
    one endpoint on a ring, and bonds whose two endpoints each have at
    least two further neighbors (junctions between branching atoms).
    Ring systems stay intact because ring bonds are never cut; plain
    chains stay intact because terminal bonds have a degree-1 endpoint
    and interior chain atoms have only one further neighbor each.
    """
    atom_ring, adjacency = graph.atom_ring, graph.adjacency
    cut: list[tuple[int, int]] = []
    for u, v, order, in_ring in zip(graph.bond_u, graph.bond_v, graph.bond_order, graph.bond_ring):
        if in_ring or order != SINGLE:
            continue
        if atom_ring[u] or atom_ring[v] or (len(adjacency[u]) >= 3 and len(adjacency[v]) >= 3):
            cut.append((u, v))

    cut_set = set(cut)
    # Connected components of the graph minus the cut bonds.
    motif_of = [-1] * graph.n_atoms
    motifs: list[tuple[int, ...]] = []
    for start in range(graph.n_atoms):
        if motif_of[start] != -1:
            continue
        label = len(motifs)
        component = []
        stack = [start]
        motif_of[start] = label
        while stack:
            node = stack.pop()
            component.append(node)
            for nb in adjacency[node]:
                key = (node, nb) if node < nb else (nb, node)
                if key in cut_set or motif_of[nb] != -1:
                    continue
                motif_of[nb] = label
                stack.append(nb)
        motifs.append(tuple(sorted(component)))
    return MotifPartition(
        motifs=tuple(motifs),
        cut_bonds=tuple(sorted(cut)),
        motif_of=tuple(motif_of),
    )


def motif_adjacency(graph: MolGraph, partition: MotifPartition) -> tuple[tuple[int, ...], ...]:
    """Neighbor motifs of each motif; two motifs are adjacent when a cut
    bond joins them."""
    neighbors: list[set[int]] = [set() for _ in partition.motifs]
    for u, v in partition.cut_bonds:
        mu, mv = partition.motif_of[u], partition.motif_of[v]
        if mu != mv:
            neighbors[mu].add(mv)
            neighbors[mv].add(mu)
    return tuple(tuple(sorted(ns)) for ns in neighbors)


def _refine_colors(
    attrs: Sequence[tuple[int, bool]],
    edges: Sequence[list[tuple[int, str]]],
) -> list[int]:
    """Iterative color refinement over nodes 0..k-1; returns canonical
    dense colors.

    Colors are assigned each round by sorting signature tuples, so two
    isomorphic inputs end with identical color assignments.
    """
    ranks = {sig: i for i, sig in enumerate(sorted(set(attrs)))}
    colors = [ranks[attr] for attr in attrs]
    n_classes = len(ranks)
    while True:
        sigs = [
            (colors[node], tuple(sorted((order, colors[nb]) for nb, order in node_edges)))
            for node, node_edges in enumerate(edges)
        ]
        ranks = {sig: i for i, sig in enumerate(sorted(set(sigs)))}
        new_colors = [ranks[sig] for sig in sigs]
        if len(ranks) == n_classes:
            return new_colors
        n_classes = len(ranks)
        colors = new_colors


def canonical_signature(graph: MolGraph, atoms: Iterable[int]) -> str:
    """Canonical string for the subgraph induced by ``atoms``.

    Raises DisconnectedMotif when the induced subgraph is not connected.
    Relabeling the molecule's atoms never changes the signature; for
    subgraphs whose symmetry exceeds the tie-break budget the emission
    collapses to refinement classes, which stays order-invariant but may
    merge some rare non-isomorphic pairs.  The subgraph is reduced to
    its labelled form in relative atom order, and the signature of that
    key is memoised (``_signature_of``).
    """
    node_list = tuple(sorted(set(atoms)))
    if not node_list:
        raise DisconnectedMotif("empty atom set has no signature")
    for i in node_list:
        if not (0 <= i < graph.n_atoms):
            raise DisconnectedMotif(f"atom index {i} outside graph")
    motif_of = [-1] * graph.n_atoms
    for i in node_list:
        motif_of[i] = 0
    (key,) = _signature_keys(graph, (node_list,), motif_of)
    return _signature_of(*key)


def _signature_keys(
    graph: MolGraph, motifs: Sequence[tuple[int, ...]], motif_of: Sequence[int]
) -> list[tuple[tuple[tuple[int, bool], ...], tuple[tuple[int, int, str], ...]]]:
    """The ``_signature_of`` key of each atom set in ``motifs`` (disjoint,
    each in ascending atom order), from one pass over the bonds:
    motif_of[a] is the index of the set holding atom a, or -1."""
    z, aromatic = graph.z, graph.aromatic
    local = [0] * graph.n_atoms
    for motif in motifs:
        for pos, atom in enumerate(motif):
            local[atom] = pos
    edges: list[list[tuple[int, int, str]]] = [[] for _ in motifs]
    for u, v, order in zip(graph.bond_u, graph.bond_v, graph.bond_order):
        m = motif_of[u]
        if m >= 0 and m == motif_of[v]:
            edges[m].append((local[u], local[v], order))
    return [
        (tuple([(z[a], aromatic[a]) for a in motif]), tuple(sorted(motif_edges)))
        for motif, motif_edges in zip(motifs, edges)
    ]


@functools.lru_cache(maxsize=_SIGNATURE_MEMO_SIZE)
def _signature_of(
    labels: tuple[tuple[int, bool], ...], edges: tuple[tuple[int, int, str], ...]
) -> str:
    """Signature of a labelled graph on atoms 0..k-1: ``labels[i]`` is
    atom i's (atomic number, aromatic) and ``edges`` the (i, j, order)
    bonds with i < j.  A pure function of its key, so it is memoised;
    a DisconnectedMotif raised here is never cached."""
    k = len(labels)
    adjacency: list[list[tuple[int, str]]] = [[] for _ in range(k)]
    for u, v, order in edges:
        adjacency[u].append((v, order))
        adjacency[v].append((u, order))

    # Connectivity check over the induced subgraph.
    seen = {0}
    stack = [0]
    while stack:
        node = stack.pop()
        for nb, _ in adjacency[node]:
            if nb not in seen:
                seen.add(nb)
                stack.append(nb)
    if len(seen) != k:
        raise DisconnectedMotif("atom set induces a disconnected subgraph")

    colors = _refine_colors(labels, adjacency)

    classes: dict[int, list[int]] = {}
    for node in range(k):
        classes.setdefault(colors[node], []).append(node)
    class_order = sorted(classes)

    def attr_text(node: int) -> str:
        z, arom = labels[node]
        return f"{z}{'a' if arom else ''}"

    n_orderings = 1
    for color in class_order:
        n_orderings *= _factorial_capped(len(classes[color]))
        if n_orderings > _TIE_BREAK_LIMIT:
            break

    if n_orderings <= _TIE_BREAK_LIMIT:
        # Exhaustive tie-break: try every ordering consistent with the
        # refinement classes, keep the lexicographically smallest string.
        best = None
        pools = [classes[color] for color in class_order]
        for perm_combo in itertools.product(*(itertools.permutations(p) for p in pools)):
            flat = [node for pool in perm_combo for node in pool]
            position = [0] * k
            for pos, node in enumerate(flat):
                position[node] = pos
            node_part = ",".join(attr_text(node) for node in flat)
            edge_part = ";".join(
                sorted(
                    "{}-{}{}".format(
                        min(position[u], position[v]),
                        max(position[u], position[v]),
                        _ORDER_CHAR[order],
                    )
                    for u, v, order in edges
                )
            )
            candidate = f"{k}|{node_part}|{edge_part}"
            if best is None or candidate < best:
                best = candidate
        return best

    # Fallback: emit refinement classes and the edge multiset between
    # them.  Depends only on the refined partition, never on atom order.
    node_part = ",".join(
        f"{len(classes[color])}x{attr_text(classes[color][0])}" for color in class_order
    )
    edge_counts: dict[tuple[int, int, str], int] = {}
    for u, v, order in edges:
        cu, cv = colors[u], colors[v]
        key = (min(cu, cv), max(cu, cv), order)
        edge_counts[key] = edge_counts.get(key, 0) + 1
    edge_part = ";".join(
        f"{cu}~{cv}{_ORDER_CHAR[order]}x{count}"
        for (cu, cv, order), count in sorted(edge_counts.items())
    )
    return f"{k}|cls:{node_part}|{edge_part}"


def _factorial_capped(k: int) -> int:
    out = 1
    for i in range(2, k + 1):
        out *= i
        if out > _TIE_BREAK_LIMIT:
            return out
    return out


def motif_signatures(graph: MolGraph, partition: MotifPartition | None = None) -> list[str]:
    """Signatures of every motif of a graph, in motif index order."""
    if partition is None:
        partition = decompose(graph)
    keys = _signature_keys(graph, partition.motifs, partition.motif_of)
    return [_signature_of(labels, edges) for labels, edges in keys]


def build_vocab(graphs: Iterable[MolGraph]) -> MotifVocab:
    """Count motif signatures over a corpus and assign dense ids."""
    return vocab_from_signatures(motif_signatures(graph) for graph in graphs)


def vocab_from_signatures(signature_lists: Iterable[Iterable[str]]) -> MotifVocab:
    """Count already computed motif signatures (one list per graph) and
    assign dense ids.

    Ids go to frequent signatures first; equal counts order by signature
    string, so any corpus ordering yields the same vocabulary.
    """
    counts: dict[str, int] = {}
    for sigs in signature_lists:
        for sig in sigs:
            counts[sig] = counts.get(sig, 0) + 1
    ranked = sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))
    ids = {sig: i for i, (sig, _) in enumerate(ranked)}
    return MotifVocab(ids=ids, counts=dict(counts))


def coverage(vocab: MotifVocab, graphs: Iterable[MolGraph]) -> CoverageStats:
    """Coverage of a downstream corpus by a pretraining vocabulary.

    overlap_ratio is the fraction of the downstream corpus's distinct
    signatures present in the vocabulary; r(G) is the per-graph fraction
    of motif occurrences whose signature the vocabulary knows.  An
    empty vocabulary raises DataError.
    """
    import statistics  # with fractions and decimal: only this command needs them
    if vocab.size == 0:
        raise DataError("coverage needs a non-empty vocabulary")
    downstream_sigs: set[str] = set()
    per_graph_r: list[float] = []
    for graph in graphs:
        sigs = motif_signatures(graph)
        downstream_sigs.update(sigs)
        known = sum(1 for sig in sigs if sig in vocab.ids)
        per_graph_r.append(known / len(sigs))
    if not per_graph_r:
        raise ValueError("coverage needs at least one downstream graph")
    overlap = len(downstream_sigs & set(vocab.ids)) / len(downstream_sigs)
    rs = per_graph_r
    return CoverageStats(
        overlap_ratio=overlap,
        per_graph_r=tuple(rs),
        mean_r=sum(rs) / len(rs),
        median_r=statistics.median(rs),
        pct_r_ge_080=100.0 * sum(1 for r in rs if r >= 0.8) / len(rs),
        pct_r_le_020=100.0 * sum(1 for r in rs if r <= 0.2) / len(rs),
    )
