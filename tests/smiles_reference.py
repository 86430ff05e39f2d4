"""The object-building SMILES parser that molmask used before its parser
wrote columns, kept as the reference the column parser is tested
against.  Bracket atoms go through the library's own ``_parse_bracket``;
everything else (tokens, checks, error messages, ring flags, default
bond orders) is this module's own.  It builds its graph through
MolGraph's checked constructor, so every graph it returns passes every
check the parser's graphs skip."""

from __future__ import annotations

from typing import Optional

from molmask.errors import MultiFragment, UnbalancedParen, UnclosedRing, UnknownToken
from molmask.molgraph import (
    _AROMATIC_ORGANIC,
    _BOND_SYMBOLS,
    _ORGANIC,
    AROMATIC,
    PERIODIC_TABLE,
    SINGLE,
    MolGraph,
    _parse_bracket,
)


class _RawAtom:
    __slots__ = ("atomic_number", "aromatic", "charge")

    def __init__(self, atomic_number: int, aromatic: bool, charge: int):
        self.atomic_number = atomic_number
        self.aromatic = aromatic
        self.charge = charge


def reference_parse_smiles(smiles: str) -> MolGraph:
    """Parse one SMILES string into a MolGraph, one atom and one bond
    object at a time.

    Raises UnknownToken, UnclosedRing, UnbalancedParen, or MultiFragment
    on malformed input.  Dots are rejected: one connected fragment per
    string.  Unknown element symbols in brackets parse to atomic number 0.
    """
    text = smiles.strip()
    if not text:
        raise UnknownToken("empty SMILES string", smiles, 0)

    raw_atoms: list[_RawAtom] = []
    # (u, v, explicit order or None); default orders resolved after ring
    # perception because aromaticity of a default bond depends on it.
    raw_bonds: list[list] = []
    bond_keys: set[tuple[int, int]] = set()
    # Per atom, the raw_bonds index of the tree bond to its parent (the
    # atom it was bonded to when read; -1 for the first atom).
    parent_bond: list[int] = []
    closures: list[int] = []  # raw_bonds indices of ring-closure bonds
    prev_atom: Optional[int] = None
    pending_bond: Optional[str] = None
    branch_stack: list[Optional[int]] = []
    ring_map: dict[str, tuple[int, Optional[str], int]] = {}

    def add_bond(u: int, v: int, order: Optional[str], pos: int) -> None:
        if u == v:
            raise UnknownToken("ring closure bonds an atom to itself", text, pos)
        key = (u, v) if u < v else (v, u)
        if key in bond_keys:
            raise UnknownToken("duplicate bond between one atom pair", text, pos)
        bond_keys.add(key)
        raw_bonds.append([key[0], key[1], order])

    def add_atom(atom: _RawAtom, pos: int) -> None:
        nonlocal prev_atom, pending_bond
        raw_atoms.append(atom)
        idx = len(raw_atoms) - 1
        if prev_atom is not None:
            parent_bond.append(len(raw_bonds))
            add_bond(prev_atom, idx, pending_bond, pos)
        elif pending_bond is not None:
            raise UnknownToken("bond symbol before any atom", text, pos)
        else:
            parent_bond.append(-1)
        pending_bond = None
        prev_atom = idx

    def close_or_open_ring(label: str, pos: int) -> None:
        nonlocal pending_bond
        if prev_atom is None:
            raise UnknownToken("ring closure before any atom", text, pos)
        if label in ring_map:
            partner, open_order, _ = ring_map.pop(label)
            order = pending_bond if pending_bond is not None else open_order
            closures.append(len(raw_bonds))
            add_bond(partner, prev_atom, order, pos)
        else:
            ring_map[label] = (prev_atom, pending_bond, pos)
        pending_bond = None

    i = 0
    while i < len(text):
        ch = text[i]
        if ch == "[":
            *fields, i = _parse_bracket(text, i)
            add_atom(_RawAtom(*fields), i)
        elif text[i : i + 2] in ("Cl", "Br"):
            add_atom(_RawAtom(PERIODIC_TABLE[text[i : i + 2]], False, 0), i)
            i += 2
        elif ch in _ORGANIC:
            add_atom(_RawAtom(PERIODIC_TABLE[ch], False, 0), i)
            i += 1
        elif ch in _AROMATIC_ORGANIC:
            add_atom(_RawAtom(PERIODIC_TABLE[ch.upper()], True, 0), i)
            i += 1
        elif ch in _BOND_SYMBOLS:
            if pending_bond is not None:
                raise UnknownToken("two bond symbols in a row", text, i)
            pending_bond = _BOND_SYMBOLS[ch]
            i += 1
        elif ch in "/\\":
            i += 1  # cis/trans marker: treated as a default bond
        elif ch.isdigit():
            close_or_open_ring(ch, i)
            i += 1
        elif ch == "%":
            label = text[i + 1 : i + 3]
            if len(label) < 2 or not label.isdigit():
                raise UnknownToken("%% ring label needs two digits", text, i)
            close_or_open_ring(label, i)
            i += 3
        elif ch == "(":
            if prev_atom is None or pending_bond is not None:
                raise UnbalancedParen("branch opened in an illegal position", text, i)
            branch_stack.append(prev_atom)
            i += 1
        elif ch == ")":
            if not branch_stack:
                raise UnbalancedParen("branch closed without matching open", text, i)
            if pending_bond is not None:
                raise UnknownToken("dangling bond symbol before ')'", text, i)
            prev_atom = branch_stack.pop()
            i += 1
        elif ch == ".":
            raise MultiFragment("multi-fragment SMILES are not supported", text, i)
        else:
            raise UnknownToken(f"unrecognized character {ch!r}", text, i)

    if not raw_atoms:
        raise UnknownToken("SMILES contains no atoms", text, 0)
    if pending_bond is not None:
        raise UnknownToken("trailing bond symbol", text, len(text) - 1)
    if branch_stack:
        raise UnbalancedParen("unclosed branch parenthesis", text, len(text) - 1)
    if ring_map:
        label, (_, _, pos) = next(iter(ring_map.items()))
        raise UnclosedRing(f"ring label {label} never closed", text, pos)

    n = len(raw_atoms)
    # A closure's cycle is the closure bond plus the tree path between
    # its endpoints; a tree parent always has the lower index, so
    # stepping the higher end up reaches the common ancestor.
    bond_in_ring = [False] * len(raw_bonds)
    for b in closures:
        bond_in_ring[b] = True
        lo, hi = raw_bonds[b][0], raw_bonds[b][1]
        while hi != lo:
            if hi < lo:
                lo, hi = hi, lo
            tree_bond = parent_bond[hi]
            bond_in_ring[tree_bond] = True
            hi = raw_bonds[tree_bond][0]

    orders = []
    atom_in_ring = [False] * n
    for (u, v, order), in_ring in zip(raw_bonds, bond_in_ring):
        if order is None:
            # Default order: aromatic only for ring bonds between two
            # aromatic atoms, single everywhere else.
            both_aromatic = raw_atoms[u].aromatic and raw_atoms[v].aromatic
            order = AROMATIC if (both_aromatic and in_ring) else SINGLE
        orders.append(order)
        if in_ring:
            atom_in_ring[u] = True
            atom_in_ring[v] = True

    adjacency = [[] for _ in range(n)]
    for u, v, _ in raw_bonds:
        adjacency[u].append(v)
        adjacency[v].append(u)
    return MolGraph(
        z=tuple(raw.atomic_number for raw in raw_atoms),
        aromatic=tuple(raw.aromatic for raw in raw_atoms),
        charge=tuple(raw.charge for raw in raw_atoms),
        atom_ring=tuple(atom_in_ring),
        bond_u=tuple(u for u, _, _ in raw_bonds),
        bond_v=tuple(v for _, v, _ in raw_bonds),
        bond_order=tuple(orders),
        bond_ring=tuple(bond_in_ring),
        adjacency=tuple(tuple(sorted(nb)) for nb in adjacency),
        source_smiles=smiles,
    )
