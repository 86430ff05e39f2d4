"""Molecular graphs parsed from a SMILES subset.

The parser covers the organic subset (B, C, N, O, P, S, F, Cl, Br, I),
bracket atoms with charge and explicit hydrogen counts, bond symbols
``- = # :``, branches, ring closures (single digits and ``%nn``), and
aromatic lowercase atoms.  Stereo markers (``/ \\ @ @@``) and isotope
prefixes are parsed and discarded.  Hydrogens are never materialized as
nodes: every graph is a heavy-atom graph.  No valence model and no
kekulization; aromaticity is purely syntactic.

The parser reads one token per step with a compiled regular expression
matched at the cursor, dispatching on the group that matched; bracket
atoms go to ``_parse_bracket``.  It appends to plain per-atom lists
(atomic number, aromatic flag, charge) and per-bond lists (endpoints,
order).  A MolGraph is those columns as tuples, with ring flags,
adjacency and the source string, and nothing else.  Its constructor
takes the columns and checks them; the parser's graphs skip those
checks, since it rules out every case they catch (bonds out of range
or repeated, adjacency that disagrees with the bonds).

Graphs are immutable.  A bond lies on a ring exactly when it is not a
bridge.  The parser reads this off the SMILES itself: chain and branch
bonds form a spanning tree in which every parent has a lower index than
its child, and each ring-closure bond flags the tree path between its
endpoints (step the higher-indexed end to its parent until the two
meet).  The tree bonds no closure flags are the bridges.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Optional

from .errors import (
    MultiFragment,
    UnbalancedParen,
    UnclosedRing,
    UnknownToken,
)

# Atoms the parser may emit.  0 is the unknown-element label; 119 is
# reserved as the mask sentinel and never produced by parsing.
UNKNOWN_ELEMENT = 0
MASK_SENTINEL = 119

SINGLE = "single"
DOUBLE = "double"
TRIPLE = "triple"
AROMATIC = "aromatic"
BOND_ORDERS = (SINGLE, DOUBLE, TRIPLE, AROMATIC)

_BOND_SYMBOLS = {"-": SINGLE, "=": DOUBLE, "#": TRIPLE, ":": AROMATIC}

# Symbol -> atomic number for the full periodic table; bracket atoms with
# symbols not found here parse to atomic number 0 (unknown).
PERIODIC_TABLE = {
    "H": 1, "He": 2, "Li": 3, "Be": 4, "B": 5, "C": 6, "N": 7, "O": 8,
    "F": 9, "Ne": 10, "Na": 11, "Mg": 12, "Al": 13, "Si": 14, "P": 15,
    "S": 16, "Cl": 17, "Ar": 18, "K": 19, "Ca": 20, "Sc": 21, "Ti": 22,
    "V": 23, "Cr": 24, "Mn": 25, "Fe": 26, "Co": 27, "Ni": 28, "Cu": 29,
    "Zn": 30, "Ga": 31, "Ge": 32, "As": 33, "Se": 34, "Br": 35, "Kr": 36,
    "Rb": 37, "Sr": 38, "Y": 39, "Zr": 40, "Nb": 41, "Mo": 42, "Tc": 43,
    "Ru": 44, "Rh": 45, "Pd": 46, "Ag": 47, "Cd": 48, "In": 49, "Sn": 50,
    "Sb": 51, "Te": 52, "I": 53, "Xe": 54, "Cs": 55, "Ba": 56, "La": 57,
    "Ce": 58, "Pr": 59, "Nd": 60, "Pm": 61, "Sm": 62, "Eu": 63, "Gd": 64,
    "Tb": 65, "Dy": 66, "Ho": 67, "Er": 68, "Tm": 69, "Yb": 70, "Lu": 71,
    "Hf": 72, "Ta": 73, "W": 74, "Re": 75, "Os": 76, "Ir": 77, "Pt": 78,
    "Au": 79, "Hg": 80, "Tl": 81, "Pb": 82, "Bi": 83, "Po": 84, "At": 85,
    "Rn": 86, "Fr": 87, "Ra": 88, "Ac": 89, "Th": 90, "Pa": 91, "U": 92,
    "Np": 93, "Pu": 94, "Am": 95, "Cm": 96, "Bk": 97, "Cf": 98, "Es": 99,
    "Fm": 100, "Md": 101, "No": 102, "Lr": 103, "Rf": 104, "Db": 105,
    "Sg": 106, "Bh": 107, "Hs": 108, "Mt": 109, "Ds": 110, "Rg": 111,
    "Cn": 112, "Nh": 113, "Fl": 114, "Mc": 115, "Lv": 116, "Ts": 117,
    "Og": 118,
}

SYMBOL_BY_NUMBER = {z: sym for sym, z in PERIODIC_TABLE.items()}

# Bare (unbracketed) atoms allowed by the subset grammar.
_ORGANIC = {"B", "C", "N", "O", "P", "S", "F", "Cl", "Br", "I"}
_AROMATIC_ORGANIC = {"b", "c", "n", "o", "p", "s"}
_BARE_ATOMS = {  # symbol -> (atomic number, aromatic, charge)
    sym: (PERIODIC_TABLE[sym.capitalize()], sym.islower(), 0)
    for sym in _ORGANIC | _AROMATIC_ORGANIC
}

# One SMILES token per match at the cursor; the group that matched
# (m.lastindex) is its kind.  Digits outside ASCII match nothing and
# reach the ring-label branch through str.isdigit.
_TOKEN = re.compile(r"(Cl|Br|[BCNOPSFIbcnops])|(\[)|([-=#:])|([0-9])|(%)|(\()|(\))|([/\\])")
_BARE, _BRACKET, _BOND, _DIGIT, _PERCENT, _OPEN, _CLOSE, _STEREO = range(1, 9)


@dataclass(frozen=True)
class MolGraph:
    """Immutable heavy-atom molecular graph, stored as columns.

    Per atom: ``z`` (atomic number, 0..119), ``aromatic``, ``charge``
    and ``atom_ring``.  Per bond: ``bond_u`` < ``bond_v``,
    ``bond_order`` (one of BOND_ORDERS) and ``bond_ring``.
    adjacency[i] lists the neighbors of atom i in ascending order.
    Every column is a tuple.  Graphs have at least one atom and no
    duplicate bonds; the constructor checks that, and that the
    adjacency is the one the bonds give, and raises ValueError.
    Two graphs are equal when their columns are.
    """

    z: tuple[int, ...]
    aromatic: tuple[bool, ...]
    charge: tuple[int, ...]
    atom_ring: tuple[bool, ...]
    bond_u: tuple[int, ...]
    bond_v: tuple[int, ...]
    bond_order: tuple[str, ...]
    bond_ring: tuple[bool, ...]
    adjacency: tuple[tuple[int, ...], ...]
    source_smiles: str = ""

    def __post_init__(self):
        per_atom = (self.z, self.aromatic, self.charge, self.atom_ring)
        per_bond = (self.bond_u, self.bond_v, self.bond_order, self.bond_ring)
        # Tuples keep the graph hashable and equal to its parsed twin.
        if not all(type(col) is tuple for col in per_atom + per_bond):
            raise ValueError("columns must be tuples")
        n = len(self.z)
        if n == 0:
            raise ValueError("a molecular graph needs at least one atom")
        if any(len(col) != n for col in (*per_atom, self.adjacency)):
            raise ValueError("every per-atom column and the adjacency need one entry per atom")
        if any(len(col) != len(self.bond_u) for col in per_bond):
            raise ValueError("per-bond columns differ in length")
        edges = list(zip(self.bond_u, self.bond_v))
        if not all(0 <= z <= MASK_SENTINEL for z in self.z):
            raise ValueError(f"atomic numbers must lie in 0..{MASK_SENTINEL}")
        if not all(0 <= u < v < n for u, v in edges):
            raise ValueError("every bond needs endpoints 0 <= u < v < n_atoms")
        if not set(self.bond_order) <= set(BOND_ORDERS):
            raise ValueError(f"bond orders must be among {BOND_ORDERS}")
        if len(set(edges)) != len(edges):
            raise ValueError("duplicate bond")
        rebuilt = [[] for _ in range(n)]
        for u, v in edges:
            rebuilt[u].append(v)
            rebuilt[v].append(u)
        if tuple(tuple(sorted(nb)) for nb in rebuilt) != self.adjacency:
            raise ValueError("adjacency inconsistent with bond list")

    @property
    def n_atoms(self) -> int:
        return len(self.z)

    @property
    def is_singleton(self) -> bool:
        """Single-atom molecules parse fine but analysis stages skip them."""
        return len(self.z) == 1


@dataclass(frozen=True)
class LabeledRecord:
    """A graph plus an optional binary label (None = missing)."""

    graph: MolGraph
    label: Optional[int] = None

    def __post_init__(self):
        if self.label is not None and self.label not in (0, 1):
            raise ValueError(f"label {self.label!r} is not binary")


def _parse_bracket(smiles: str, start: int) -> tuple[int, bool, int, int]:
    """Parse a bracket atom starting at ``[``; returns its atomic number,
    aromatic flag and charge, and the index just past the closing
    bracket."""
    end = smiles.find("]", start)
    if end == -1:
        raise UnknownToken("unterminated bracket atom", smiles, start)
    body = smiles[start + 1 : end]
    i = 0
    # Isotope prefix: parsed, then dropped.
    while i < len(body) and body[i].isdigit():
        i += 1
    sym_start = i
    if i < len(body) and body[i].isalpha():
        i += 1
        if i < len(body) and body[i].islower():
            i += 1
    symbol = body[sym_start:i]
    if not symbol:
        raise UnknownToken("bracket atom without element symbol", smiles, start)
    aromatic = symbol[0].islower()
    atomic_number = PERIODIC_TABLE.get(symbol.capitalize(), UNKNOWN_ELEMENT)
    # "H" inside the symbol position is a real (explicit) hydrogen atom;
    # an H *suffix* after another element is a hydrogen count.
    charge = 0
    while i < len(body):
        ch = body[i]
        if ch == "@":
            i += 1  # chirality marker, discarded
        elif ch == "H":
            i += 1
            while i < len(body) and body[i].isdigit():
                i += 1  # explicit hydrogen count, discarded
        elif ch in "+-":
            sign = 1 if ch == "+" else -1
            i += 1
            if i < len(body) and body[i].isdigit():
                num_start = i
                while i < len(body) and body[i].isdigit():
                    i += 1
                charge = sign * int(body[num_start:i])
            else:
                charge = sign
                while i < len(body) and body[i] == ch:
                    charge += sign
                    i += 1
        elif ch == ":":
            i += 1
            num_start = i
            while i < len(body) and body[i].isdigit():
                i += 1
            if i == num_start:
                raise UnknownToken("atom class without digits", smiles, start)
        else:
            raise UnknownToken(f"unexpected {ch!r} in bracket atom", smiles, start)
    return atomic_number, aromatic, charge, end + 1


def parse_smiles(smiles: str) -> MolGraph:
    """Parse one SMILES string into a MolGraph.

    Raises UnknownToken, UnclosedRing, UnbalancedParen, or MultiFragment
    on malformed input.  Dots are rejected: one connected fragment per
    string.  Unknown element symbols in brackets parse to atomic number 0.
    """
    text = smiles.strip()
    if not text:
        raise UnknownToken("empty SMILES string", smiles, 0)

    z: list[int] = []
    aromatic: list[bool] = []
    charge: list[int] = []
    # An order of None is a default bond, resolved after ring perception
    # because whether it is aromatic depends on it.
    bond_u: list[int] = []
    bond_v: list[int] = []
    bond_order: list[Optional[str]] = []
    # Per atom, the index of the tree bond to its parent (the atom it
    # was bonded to when read; -1 for the first atom).  Every tree bond
    # runs from the parent, the lower index, to its child.
    parent_bond: list[int] = []
    closures: list[int] = []  # indices of ring-closure bonds
    closed: set[tuple[int, int]] = set()  # their endpoint pairs
    prev = -1
    pending: Optional[str] = None
    branch_stack: list[int] = []
    ring_map: dict[str, tuple[int, Optional[str], int]] = {}

    match = _TOKEN.match
    i = 0
    while i < len(text):
        m = match(text, i)
        kind = m.lastindex if m else 0
        if kind == _BARE or kind == _BRACKET:
            if kind == _BARE:
                number, arom, chg = _BARE_ATOMS[m[_BARE]]
                pos, i = i, m.end()
            else:
                number, arom, chg, i = _parse_bracket(text, i)
                pos = i
            atom = len(z)
            z.append(number)
            aromatic.append(arom)
            charge.append(chg)
            if prev >= 0:
                parent_bond.append(len(bond_u))
                bond_u.append(prev)
                bond_v.append(atom)
                bond_order.append(pending)
            elif pending is not None:
                raise UnknownToken("bond symbol before any atom", text, pos)
            else:
                parent_bond.append(-1)
            pending = None
            prev = atom
        elif kind == _BOND:
            if pending is not None:
                raise UnknownToken("two bond symbols in a row", text, i)
            pending = _BOND_SYMBOLS[text[i]]
            i += 1
        elif kind == _DIGIT or kind == _PERCENT or (not kind and text[i].isdigit()):
            if kind == _PERCENT:
                label, end = text[i + 1 : i + 3], i + 3
                if len(label) < 2 or not label.isdigit():
                    raise UnknownToken("%% ring label needs two digits", text, i)
            else:
                label, end = text[i], i + 1
            if prev < 0:
                raise UnknownToken("ring closure before any atom", text, i)
            opened = ring_map.pop(label, None)
            if opened is None:
                ring_map[label] = (prev, pending, i)
            else:
                partner, open_order, _ = opened
                if partner == prev:
                    raise UnknownToken("ring closure bonds an atom to itself", text, i)
                lo, hi = (partner, prev) if partner < prev else (prev, partner)
                if (lo, hi) in closed or bond_u[parent_bond[hi]] == lo:
                    raise UnknownToken("duplicate bond between one atom pair", text, i)
                closed.add((lo, hi))
                closures.append(len(bond_u))
                bond_u.append(lo)
                bond_v.append(hi)
                bond_order.append(pending if pending is not None else open_order)
            pending = None
            i = end
        elif kind == _OPEN:
            if prev < 0 or pending is not None:
                raise UnbalancedParen("branch opened in an illegal position", text, i)
            branch_stack.append(prev)
            i += 1
        elif kind == _CLOSE:
            if not branch_stack:
                raise UnbalancedParen("branch closed without matching open", text, i)
            if pending is not None:
                raise UnknownToken("dangling bond symbol before ')'", text, i)
            prev = branch_stack.pop()
            i += 1
        elif kind == _STEREO:
            i += 1  # cis/trans marker: treated as a default bond
        elif text[i] == ".":
            raise MultiFragment("multi-fragment SMILES are not supported", text, i)
        else:
            raise UnknownToken(f"unrecognized character {text[i]!r}", text, i)

    if not z:
        raise UnknownToken("SMILES contains no atoms", text, 0)
    if pending is not None:
        raise UnknownToken("trailing bond symbol", text, len(text) - 1)
    if branch_stack:
        raise UnbalancedParen("unclosed branch parenthesis", text, len(text) - 1)
    if ring_map:
        label, (_, _, pos) = next(iter(ring_map.items()))
        raise UnclosedRing(f"ring label {label} never closed", text, pos)

    # A closure's cycle is the closure bond plus the tree path between
    # its endpoints; a tree parent always has the lower index, so
    # stepping the higher end up reaches the common ancestor.
    bond_ring = [False] * len(bond_u)
    for b in closures:
        bond_ring[b] = True
        lo, hi = bond_u[b], bond_v[b]
        while hi != lo:
            if hi < lo:
                lo, hi = hi, lo
            tree_bond = parent_bond[hi]
            bond_ring[tree_bond] = True
            hi = bond_u[tree_bond]

    atom_ring = [False] * len(z)
    adjacency: list[list[int]] = [[] for _ in z]
    for b, (u, v, in_ring) in enumerate(zip(bond_u, bond_v, bond_ring)):
        if bond_order[b] is None:
            # Default order: aromatic only for ring bonds between two
            # aromatic atoms, single everywhere else.
            bond_order[b] = AROMATIC if in_ring and aromatic[u] and aromatic[v] else SINGLE
        if in_ring:
            atom_ring[u] = atom_ring[v] = True
        adjacency[u].append(v)
        adjacency[v].append(u)
    # Every check of MolGraph's constructor holds by construction, so
    # the graph is built without them: no second pass over the bonds.
    graph = object.__new__(MolGraph)
    vars(graph).update(
        z=tuple(z), aromatic=tuple(aromatic), charge=tuple(charge), atom_ring=tuple(atom_ring),
        bond_u=tuple(bond_u), bond_v=tuple(bond_v), bond_order=tuple(bond_order),
        bond_ring=tuple(bond_ring), adjacency=tuple(tuple(sorted(nb)) for nb in adjacency),
        source_smiles=smiles,
    )
    return graph


def _atom_token(z: int, aromatic: bool, charge: int) -> str:
    symbol = SYMBOL_BY_NUMBER.get(z)
    if symbol is None:
        return "[Xx]"  # unknown element or mask sentinel
    if charge == 0:
        if aromatic and symbol.lower() in _AROMATIC_ORGANIC:
            return symbol.lower()
        if not aromatic and symbol in _ORGANIC:
            return symbol
    body = symbol.lower() if aromatic else symbol
    if charge == 0:
        suffix = ""
    elif charge == 1:
        suffix = "+"
    elif charge == -1:
        suffix = "-"
    else:
        suffix = f"{'+' if charge > 0 else '-'}{abs(charge)}"
    return f"[{body}{suffix}]"


def _bond_token(graph: MolGraph, b: int) -> str:
    order = graph.bond_order[b]
    both_aromatic = graph.aromatic[graph.bond_u[b]] and graph.aromatic[graph.bond_v[b]]
    if order == SINGLE:
        # Explicit when a default would re-resolve to aromatic.
        return "-" if both_aromatic else ""
    if order == DOUBLE:
        return "="
    if order == TRIPLE:
        return "#"
    # Aromatic: implicit only where the default rule reproduces it.
    if both_aromatic and graph.bond_ring[b]:
        return ""
    return ":"


def write_smiles(graph: MolGraph) -> str:
    """Emit a SMILES string that re-parses to an isomorphic graph.

    Output is one deterministic spanning-tree emission, not a canonical
    form.  Atoms with no element symbol (unknown 0, mask sentinel 119)
    come out as the unknown placeholder [Xx].
    """
    n = graph.n_atoms
    visited = [False] * n
    ring_tokens: dict[int, list[str]] = {i: [] for i in range(n)}
    # Per atom, its (child, bond index) pairs in the spanning tree.
    tree_children: dict[int, list[tuple[int, int]]] = {i: [] for i in range(n)}
    edges = list(zip(graph.bond_u, graph.bond_v))
    bond_index = {edge: b for b, edge in enumerate(edges)}

    def bond_for(u: int, v: int) -> int:
        return bond_index[(u, v) if u < v else (v, u)]

    # Spanning-tree walk; back edges become ring closures.  Labels stay
    # unique per molecule; %nn covers anything past 9.
    next_label = 1

    order: list[int] = []
    stack = [0]
    visited[0] = True
    parent: dict[int, Optional[int]] = {0: None}
    while stack:
        node = stack.pop()
        order.append(node)
        for nb in reversed(graph.adjacency[node]):
            if not visited[nb]:
                visited[nb] = True
                parent[nb] = node
                tree_children[node].append((nb, bond_for(node, nb)))
                stack.append(nb)

    seen_in_order = {node: i for i, node in enumerate(order)}
    for b, (u, v) in enumerate(edges):
        if parent.get(v) == u or parent.get(u) == v:
            continue
        first, second = (u, v) if seen_in_order[u] < seen_in_order[v] else (v, u)
        label = next_label
        next_label += 1
        digit = str(label) if label < 10 else f"%{label:02d}"
        sym = _bond_token(graph, b)
        ring_tokens[first].append(sym + digit)
        ring_tokens[second].append(digit)

    out: list[str] = []

    def emit(node: int, incoming: Optional[int]) -> None:
        if incoming is not None:
            out.append(_bond_token(graph, incoming))
        out.append(_atom_token(graph.z[node], graph.aromatic[node], graph.charge[node]))
        out.extend(ring_tokens[node])
        children = tree_children[node]
        for child, bond in children[:-1]:
            out.append("(")
            emit(child, bond)
            out.append(")")
        if children:
            child, bond = children[-1]
            emit(child, bond)

    emit(0, None)
    return "".join(out)
