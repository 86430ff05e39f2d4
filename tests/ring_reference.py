"""Ring flags by low-link bridge detection, kept as the reference the
parser's ring flags are tested against.  It reads only a graph's bond
columns, so it is independent of how the parser derives the flags from
the SMILES string."""

from __future__ import annotations

from typing import Sequence

from molmask.molgraph import MolGraph


def _find_bridges(n_atoms: int, edges: Sequence[tuple[int, int]]) -> list[bool]:
    """Flag each edge as a bridge using an iterative low-link traversal.

    Parallel edges cannot occur here (duplicate bonds are rejected), so
    tracking the parent edge index is enough to avoid revisiting it.
    """
    adj: list[list[tuple[int, int]]] = [[] for _ in range(n_atoms)]
    for idx, (u, v) in enumerate(edges):
        adj[u].append((v, idx))
        adj[v].append((u, idx))

    disc = [-1] * n_atoms
    low = [0] * n_atoms
    is_bridge = [False] * len(edges)
    timer = 0

    for root in range(n_atoms):
        if disc[root] != -1:
            continue
        stack: list[tuple[int, int, int]] = [(root, -1, 0)]
        disc[root] = low[root] = timer
        timer += 1
        while stack:
            node, parent_edge, ptr = stack.pop()
            if ptr < len(adj[node]):
                stack.append((node, parent_edge, ptr + 1))
                nxt, edge_idx = adj[node][ptr]
                if edge_idx == parent_edge:
                    continue
                if disc[nxt] == -1:
                    disc[nxt] = low[nxt] = timer
                    timer += 1
                    stack.append((nxt, edge_idx, 0))
                else:
                    low[node] = min(low[node], disc[nxt])
            elif parent_edge != -1:
                u, v = edges[parent_edge]
                parent = u if disc[u] < disc[v] else v
                child = v if parent == u else u
                low[parent] = min(low[parent], low[child])
                if low[child] > disc[parent]:
                    is_bridge[parent_edge] = True
    return is_bridge


def ring_membership(graph: MolGraph) -> tuple[tuple[bool, ...], tuple[bool, ...]]:
    """Per-atom and per-bond ring flags.

    A bond lies on a ring exactly when it is not a bridge; an atom lies on
    a ring exactly when at least one incident bond does.
    """
    edges = list(zip(graph.bond_u, graph.bond_v))
    bridges = _find_bridges(graph.n_atoms, edges)
    bond_flags = tuple(not b for b in bridges)
    atom_flags = [False] * graph.n_atoms
    for (u, v), in_ring in zip(edges, bond_flags):
        if in_ring:
            atom_flags[u] = True
            atom_flags[v] = True
    return tuple(atom_flags), bond_flags
