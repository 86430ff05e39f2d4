"""Motif decomposition, canonical motif signatures, and vocabularies.

Decomposition severs acyclic single bonds at fragment boundaries (rule
in ``decompose``); the resulting connected components are the motifs.
Signatures are exact: two motifs get the same string if and only if
they are isomorphic, whatever molecule or atom order produced them.
The string is the smallest leaf of an individualization-refinement
search (McKay & Piperno 2014) over colour refinement on integer
colours: an atom's bond to a neighbour of colour c is keyed
``rank * k + c``, with rank the bond order's rank and k the atom count.

``graph_motifs`` is the one motif pass: it decomposes a graph and signs
its motifs.  Vocabularies (``build_vocab``) and coverage (``coverage``)
count the signature lists it returns, one list per graph.

A signature depends only on the motif's labelled subgraph: its atoms'
(atomic number, aromatic) pairs in ascending atom order and its bonds
renumbered to that order.  ``_signature_keys`` reduces all of a
partition's motifs to those keys in one pass over the graph's bond
columns.  A key is two strings of one code point per number: a label
string with ``2 * Z + aromatic`` per atom, and a bond string with
three per bond, the two positions and the order's rank, the triples
sorted.  Each key is looked up in an LRU memo of at most
``_SIGNATURE_MEMO_SIZE`` (16,384) keys, so each distinct labelled motif
is signed once while the memo holds it.  A 5,000-molecule synthetic
corpus has 4,014 keys for its 24,911 motifs.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Iterable, Sequence

from .errors import DataError, DisconnectedMotif
from .molgraph import SINGLE, MolGraph

# Bound of the signature memo, in distinct labelled motifs (a motif read
# in another atom order is another key).  An entry (key, signature and
# LRU link) took 300 B on average over the 1,077 keys of a 700-molecule
# synthetic corpus and 337 B over the 4,014 of a 5,000-molecule one
# (tracemalloc), so a full memo holds about 5.5 MB.
_SIGNATURE_MEMO_SIZE = 1 << 14

_ORDER_CHAR = {"single": "-", "double": "=", "triple": "#", "aromatic": ":"}
# A bond order's rank among the sorted order names: aromatic 0, double
# 1, single 2, triple 3.
_ORDER_RANK = {order: rank for rank, order in enumerate(sorted(_ORDER_CHAR))}
_RANK_CODE = {order: chr(rank) for order, rank in _ORDER_RANK.items()}
_RANK_CHAR = [_ORDER_CHAR[order] for order in sorted(_ORDER_CHAR)]


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


@dataclass(frozen=True)
class GraphMotifs:
    """One graph's motif partition and the signature of each motif."""

    partition: MotifPartition
    signatures: tuple[str, ...]


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


def _signature_keys(graph: MolGraph, partition: MotifPartition) -> list[tuple[str, str]]:
    """The ``_signature_of`` key of each motif of ``partition``, from
    one pass over the bonds; an atom whose motif_of is -1 is in no
    motif."""
    motifs, motif_of = partition.motifs, partition.motif_of
    z, aromatic = graph.z, graph.aromatic
    local = [""] * graph.n_atoms
    for motif in motifs:
        for pos, atom in enumerate(motif):
            local[atom] = chr(pos)
    edges: list[list[str]] = [[] for _ in motifs]
    for u, v, order in zip(graph.bond_u, graph.bond_v, graph.bond_order):
        m = motif_of[u]
        if m >= 0 and m == motif_of[v]:
            edges[m].append(local[u] + local[v] + _RANK_CODE[order])
    return [
        ("".join([chr(2 * z[a] + aromatic[a]) for a in motif]), "".join(sorted(motif_edges)))
        for motif, motif_edges in zip(motifs, edges)
    ]


@functools.lru_cache(maxsize=_SIGNATURE_MEMO_SIZE)
def _signature_of(labels: str, edges: str) -> str:
    """Signature of a labelled graph on atoms 0..k-1, given as its memo
    key: ``labels`` has one code point per atom, ``2 * Z + aromatic``,
    and ``edges`` three per bond, ``i``, ``j`` (i < j) and the order's
    rank in ``_ORDER_RANK``, the triples in sorted order.  A pure
    function of its key, so it is memoised; the key is decoded only on
    a miss, and a DisconnectedMotif raised here is never cached.

    Colours are dense integers 0..n-1, first the ranks of the sorted
    labels.  A refinement round keys each atom by its colour and the
    sorted keys ``rank * k + colour`` of its bonds, where rank is the
    bond order's place in ``_ORDER_RANK``; colours stay below k, so a
    key never collides and keys sort as (order, colour) pairs.  The
    ranks of the atom keys are the new colours, and rounds stop when no
    class splits.  While some colour is shared, the search branches
    once per atom of the lowest shared colour s: colours above s move up
    one, that atom takes s + 1, and refinement runs again.  Each
    discrete colouring is a leaf that orders the atoms, written as
    ``k|node_part|edge_part``: the atoms' labels in that order and the
    sorted bonds between positions.  The smallest leaf string is the
    signature.  The tree is the same for every atom order of the graph,
    so isomorphic graphs get the same signature, and a leaf spells out
    the whole graph, so non-isomorphic ones cannot."""
    k = len(labels)
    if not k:
        raise DisconnectedMotif("an empty atom set has no signature")
    codes = [ord(code) for code in edges]
    bonds = list(zip(codes[0::3], codes[1::3], codes[2::3]))  # (i, j, rank)
    adjacency: list[list[tuple[int, int]]] = [[] for _ in range(k)]  # (neighbour, rank * k)
    for u, v, rank in bonds:
        weight = rank * k
        adjacency[u].append((v, weight))
        adjacency[v].append((u, weight))

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

    def refined(colors: list[int]) -> list[int]:
        n_classes = len(set(colors))
        while True:
            keys = [
                (colors[node], tuple(sorted([weight + colors[nb] for nb, weight in bonds])))
                for node, bonds in enumerate(adjacency)
            ]
            ranks = {key: i for i, key in enumerate(sorted(set(keys)))}
            if len(ranks) == n_classes:
                return colors
            n_classes = len(ranks)
            colors = [ranks[key] for key in keys]

    texts = [f"{ord(label) >> 1}{'a' if ord(label) & 1 else ''}" for label in labels]
    # Code points sort as (Z, aromatic) pairs.
    ranks = {label: i for i, label in enumerate(sorted(set(labels)))}
    best = None
    pending = [refined([ranks[label] for label in labels])]  # colourings still to branch on
    while pending:
        colors = pending.pop()
        counts = [0] * k
        for color in colors:
            counts[color] += 1
        shared = next((color for color, count in enumerate(counts) if count > 1), None)
        if shared is not None:
            bumped = [color + (color > shared) for color in colors]
            for pick in range(k):
                if colors[pick] == shared:
                    branch = bumped.copy()
                    branch[pick] = shared + 1
                    pending.append(refined(branch))
            continue
        # Discrete: each atom's colour is its position.
        node_part = ",".join(texts[node] for node in sorted(range(k), key=colors.__getitem__))
        edge_part = ";".join(sorted(
            f"{min(colors[u], colors[v])}-{max(colors[u], colors[v])}{_RANK_CHAR[rank]}"
            for u, v, rank in bonds
        ))
        leaf = f"{k}|{node_part}|{edge_part}"
        if best is None or leaf < best:
            best = leaf
    return best


def motif_signatures(graph: MolGraph, partition: MotifPartition) -> list[str]:
    """Signatures of every motif of a partition of ``graph``, in motif
    index order.  Raises DisconnectedMotif for a motif whose atoms
    induce a disconnected subgraph."""
    return [_signature_of(labels, edges) for labels, edges in _signature_keys(graph, partition)]


def graph_motifs(graph: MolGraph) -> GraphMotifs:
    """Decompose a graph and sign each of its motifs."""
    partition = decompose(graph)
    return GraphMotifs(partition, tuple(motif_signatures(graph, partition)))


def build_vocab(signature_lists: Iterable[Iterable[str]]) -> MotifVocab:
    """Count motif signatures (one list per graph, as graph_motifs
    gives them) and assign dense ids.

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


def coverage(vocab: MotifVocab, signature_lists: Iterable[Sequence[str]]) -> CoverageStats:
    """Coverage of a downstream corpus, given as the motif signatures of
    each graph, by a pretraining vocabulary.

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
    for sigs in signature_lists:
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
