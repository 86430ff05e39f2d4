"""Parser, graph model, ring membership, and SMILES writer tests."""

import csv
import dataclasses
import pickle
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from molmask import (
    LabeledRecord,
    MolGraph,
    MultiFragment,
    ParseError,
    UnbalancedParen,
    UnclosedRing,
    UnknownToken,
    parse_smiles,
    write_smiles,
)
from molmask.molgraph import AROMATIC, DOUBLE, SINGLE, TRIPLE

from conftest import (
    FIXTURE_SMILES,
    atoms_signature,
    mixed_corpus,
    ring_marker_corpus,
    template_corpus,
)
from ring_reference import ring_membership
from smiles_reference import reference_parse_smiles

DEMO_CORPUS = Path(__file__).resolve().parent.parent / "demos" / "data" / "demo_corpus.csv"


def columns(graph):
    """A graph's columns by field name: the keyword arguments that
    rebuild it."""
    return {field.name: getattr(graph, field.name) for field in dataclasses.fields(graph)}


def bfs_connected(n, edges, skip, start, goal):
    """Reachability with one edge removed; oracle for bridge detection."""
    adj = [[] for _ in range(n)]
    for idx, (u, v) in enumerate(edges):
        if idx == skip:
            continue
        adj[u].append(v)
        adj[v].append(u)
    seen = {start}
    queue = [start]
    while queue:
        node = queue.pop()
        for nxt in adj[node]:
            if nxt not in seen:
                seen.add(nxt)
                queue.append(nxt)
    return goal in seen


class TestParser:
    def test_linear_chain(self):
        g = parse_smiles("CCO")
        assert g.n_atoms == 3
        assert len(g.bond_u) == 2
        assert g.z == (6, 6, 8)
        assert not any(g.aromatic)
        assert g.bond_order == (SINGLE, SINGLE)
        assert g.adjacency == ((1,), (0, 2), (1,))

    def test_bond_orders(self):
        assert parse_smiles("C=C").bond_order == (DOUBLE,)
        assert parse_smiles("C#N").bond_order == (TRIPLE,)
        assert parse_smiles("C-C").bond_order == (SINGLE,)

    def test_two_char_elements(self):
        g = parse_smiles("CCl")
        assert g.z == (6, 17)
        g = parse_smiles("CBr")
        assert g.z == (6, 35)

    def test_branches(self):
        g = parse_smiles("CC(C)(C)C")
        assert g.n_atoms == 5
        assert g.adjacency[1] == (0, 2, 3, 4)

    def test_aromatic_ring(self):
        g = parse_smiles("c1ccccc1")
        assert g.n_atoms == 6
        assert all(g.aromatic)
        assert all(g.atom_ring)
        assert g.bond_order == (AROMATIC,) * 6
        assert all(g.bond_ring)

    def test_pyridine_heteroatom(self):
        g = parse_smiles("c1ccncc1")
        assert sorted(g.z) == [6, 6, 6, 6, 6, 7]

    def test_biphenyl_link_is_single(self):
        # The inter-ring bond joins two aromatic atoms but is a bridge,
        # so the default bond resolves to a single bond.
        for smiles in ("c1ccc(cc1)c1ccccc1", "c1ccc(cc1)-c1ccccc1"):
            g = parse_smiles(smiles)
            assert g.bond_order.count(SINGLE) == 1, smiles
            assert g.bond_order.count(AROMATIC) == 12, smiles
            assert not g.bond_ring[g.bond_order.index(SINGLE)]

    def test_percent_ring_label(self):
        g = parse_smiles("C%10CCCCC%10")
        ref = parse_smiles("C1CCCCC1")
        assert g.n_atoms == ref.n_atoms == 6
        assert len(g.bond_u) == len(ref.bond_u) == 6
        assert all(g.bond_ring)

    def test_ring_bond_symbol_on_closing_side(self):
        g = parse_smiles("C1CCCCC=1")
        assert 5 in g.adjacency[0]
        assert g.bond_order[list(zip(g.bond_u, g.bond_v)).index((0, 5))] == DOUBLE

    def test_bracket_charge(self):
        g = parse_smiles("[NH4+]")
        assert g.n_atoms == 1
        assert g.z == (7,)
        assert g.charge == (1,)
        g = parse_smiles("[O-]C")
        assert g.charge[0] == -1
        g = parse_smiles("[Cu+2]O")
        assert g.charge[0] == 2

    def test_bracket_isotope_and_stereo_discarded(self):
        g = parse_smiles("[13CH3][C@@H](N)C(=O)[O-]")
        assert g.z == (6, 6, 7, 6, 8, 8)
        assert g.charge == (0, 0, 0, 0, 0, -1)

    def test_bracket_unknown_symbol_maps_to_zero(self):
        g = parse_smiles("[Xx]C")
        assert g.z[0] == 0

    def test_cis_trans_markers_ignored(self):
        g = parse_smiles("C/C=C/C")
        assert g.n_atoms == 4
        assert (g.bond_u, g.bond_v, g.bond_order) == ((0, 1, 2), (1, 2, 3), (SINGLE, DOUBLE, SINGLE))

    def test_fused_rings(self):
        g = parse_smiles("c1ccc2ccccc2c1")
        assert g.n_atoms == 10
        assert len(g.bond_u) == 11
        assert all(g.atom_ring)
        assert all(g.bond_ring)

    def test_parse_errors(self):
        with pytest.raises(UnclosedRing):
            parse_smiles("C1CC")
        with pytest.raises(UnbalancedParen):
            parse_smiles("CC(C")
        with pytest.raises(UnbalancedParen):
            parse_smiles("CC)C")
        with pytest.raises(MultiFragment):
            parse_smiles("CC.CC")
        with pytest.raises(UnknownToken):
            parse_smiles("C$C")
        with pytest.raises(UnknownToken):
            parse_smiles("")

    def test_parse_error_carries_position(self):
        try:
            parse_smiles("CC(C")
        except ParseError as err:
            assert err.smiles == "CC(C"
            assert isinstance(err.position, int)
        else:
            pytest.fail("expected a parse error")

    def test_all_fixtures_parse(self, fixture_graphs):
        assert len(fixture_graphs) == len(FIXTURE_SMILES)
        for g in fixture_graphs:
            assert g.n_atoms >= 1


class TestRingMembership:
    def test_matches_bridge_oracle(self, fixture_graphs):
        for g in fixture_graphs:
            edges = list(zip(g.bond_u, g.bond_v))
            atom_flags, bond_flags = ring_membership(g)
            for idx, (u, v) in enumerate(edges):
                in_ring = bfs_connected(g.n_atoms, edges, idx, u, v)
                assert bond_flags[idx] == in_ring, (g.source_smiles, idx)
            for i in range(g.n_atoms):
                expected = any(
                    bond_flags[k]
                    for k, (u, v) in enumerate(edges)
                    if i in (u, v)
                )
                assert atom_flags[i] == expected

    def test_parser_flags_agree_with_recomputation(self, fixture_graphs):
        for g in fixture_graphs:
            atom_flags, bond_flags = ring_membership(g)
            assert g.atom_ring == atom_flags
            assert g.bond_ring == bond_flags

    def test_random_cactus_graphs(self):
        # Random trees plus one extra edge: exactly the cycle closed by
        # that edge is flagged.
        rng = np.random.default_rng(42)
        for _ in range(50):
            n = int(rng.integers(4, 12))
            edges = []
            for v in range(1, n):
                u = int(rng.integers(0, v))
                edges.append((u, v))
            extra = tuple(int(x) for x in sorted(rng.choice(n, size=2, replace=False)))
            if extra in edges:
                continue
            edges = sorted(edges + [extra])
            adj = [[] for _ in range(n)]
            for u, v in edges:
                adj[u].append(v)
                adj[v].append(u)
            g = MolGraph(
                z=(6,) * n,
                aromatic=(False,) * n,
                charge=(0,) * n,
                atom_ring=(False,) * n,
                bond_u=tuple(u for u, _ in edges),
                bond_v=tuple(v for _, v in edges),
                bond_order=(SINGLE,) * len(edges),
                bond_ring=(False,) * len(edges),
                adjacency=tuple(tuple(sorted(a)) for a in adj),
            )
            _, bond_flags = ring_membership(g)
            for idx, (u, v) in enumerate(edges):
                assert bond_flags[idx] == bfs_connected(n, edges, idx, u, v)


@st.composite
def ring_smiles(draw):
    """A one-fragment SMILES with nested branches, optional bond symbols,
    and ring closures that open and close anywhere in the string: in a
    later sibling branch (``C(C1)C1``), after leaving a branch, with
    single-digit and ``%nn`` labels, and with labels reused after they
    close.  Closures never bond an atom to itself or to a neighbor."""
    tokens: list[str] = []
    bonded: set[tuple[int, int]] = set()
    open_labels: dict[int, tuple[int, int]] = {}  # label -> (atom, token index)
    n_atoms = 0

    def label_text(label: int) -> str:
        return str(label) if label < 10 else f"%{label:02d}"

    def chain(depth: int, prev: int | None) -> None:
        nonlocal n_atoms
        for _ in range(draw(st.integers(1, 4))):
            if n_atoms >= 24:
                return
            if prev is not None:
                tokens.append(draw(st.sampled_from(["", "", "-", "="])))
            tokens.append(draw(st.sampled_from(["C", "c", "N", "n", "O", "[NH+]", "Cl"])))
            atom = n_atoms
            n_atoms += 1
            if prev is not None:
                bonded.add((prev, atom))
            for _ in range(draw(st.integers(0, 2))):
                closable = [
                    label for label, (partner, _) in open_labels.items()
                    if partner != atom and (partner, atom) not in bonded
                ]
                if closable and draw(st.booleans()):
                    label = draw(st.sampled_from(sorted(closable)))
                    partner, _ = open_labels.pop(label)
                    bonded.add((partner, atom))
                    tokens.append(label_text(label))
                else:
                    free = [x for x in (1, 2, 3, 9, 10, 11, 42, 99) if x not in open_labels]
                    if not free:
                        continue
                    label = draw(st.sampled_from(free))
                    open_labels[label] = (atom, len(tokens))
                    tokens.append(label_text(label))
            if depth < 3:
                for _ in range(draw(st.integers(0, 2))):
                    if n_atoms >= 24:
                        break
                    tokens.append("(")
                    chain(depth + 1, atom)
                    tokens.append(")")
            prev = atom

    chain(0, None)
    for _, token_index in open_labels.values():
        tokens[token_index] = ""  # never closed: drop the opening label
    return "".join(tokens)


class TestRingPerceptionProperty:
    @settings(max_examples=300, deadline=None)
    @given(ring_smiles())
    def test_parser_flags_match_both_oracles(self, smiles):
        g = parse_smiles(smiles)
        atom_flags, bond_flags = ring_membership(g)
        assert g.bond_ring == bond_flags
        assert g.atom_ring == atom_flags
        edges = list(zip(g.bond_u, g.bond_v))
        for idx, (u, v) in enumerate(edges):
            assert g.bond_ring[idx] == bfs_connected(g.n_atoms, edges, idx, u, v)

    @pytest.mark.parametrize("smiles, ring_bonds", [
        ("C(C1)C1", {(0, 1), (0, 2), (1, 2)}),
        ("CC(C(C%12)C)C%12C", {(1, 2), (2, 3), (1, 5), (3, 5)}),
        ("C1CC(CC1)C2CC2", {(0, 1), (1, 2), (2, 3), (3, 4), (0, 4),
                            (5, 6), (6, 7), (5, 7)}),
    ])
    def test_closures_across_branches(self, smiles, ring_bonds):
        g = parse_smiles(smiles)
        assert {edge for edge, in_ring in zip(zip(g.bond_u, g.bond_v), g.bond_ring) if in_ring} == ring_bonds


def assert_same_parse(smiles):
    """The column parser and the object-building reference give the same
    columns, or the same error type and message."""
    try:
        expected = reference_parse_smiles(smiles)
    except Exception as exc:
        with pytest.raises(Exception) as got:
            parse_smiles(smiles)
        assert type(got.value) is type(exc), smiles
        assert str(got.value) == str(exc), smiles
        return
    g = parse_smiles(smiles)
    assert columns(g) == columns(expected), smiles
    assert g == expected, smiles


# Organic and aromatic atoms, bracket atoms, bond and stereo symbols,
# ring digits and %nn labels, branches, dots, and junk: "²" is a digit
# to str.isdigit but not to a [0-9] class; "٣" is a non-ASCII decimal.
_SMILES_TOKENS = [
    "C", "C", "c", "c", "N", "n", "O", "o", "S", "s", "P", "p", "B", "b", "F", "Cl", "Br", "I",
    "[NH4+]", "[O-]", "[nH]", "[13CH3]", "[C@@H]", "[Cu+2]", "[Xx]", "[se]", "[C:1]", "[Fe--]",
    "-", "=", "#", ":", "/", "\\", "1", "1", "2", "3", "9", "%10", "%99", "%1", "%a",
    "(", "(", ")", ")", ".", "[", "]", "[C", "$", "x", "H", " ", "²", "٣",
]


# Strings that reach each check on a ring label (self bond, duplicate of
# a tree or a closure bond, label before any atom, label never closed)
# and bond orders set on either side of a closure.
_CLOSURE_CASES = [
    "C1C1", "C12CC12", "C11", "C1CC1C1", "C(C1)C1", "C=1CC1", "C1CC=1", "C=1CC-1",
    "c1ccccc1-c1ccccc1", "c1cc2ccccc2cc1", "C%12CC%12", "C²CC²", "C1.C1", "1C", "C1(C)C1",
]


class TestReferenceParser:
    def test_fixture_corpora(self):
        corpora = [FIXTURE_SMILES, _CLOSURE_CASES]
        corpora += [[smiles for smiles, _ in rows]
                    for rows in (ring_marker_corpus(), template_corpus(), mixed_corpus())]
        with open(DEMO_CORPUS, newline="") as handle:
            corpora.append([row["smiles"] for row in csv.DictReader(handle)])
        for corpus in corpora:
            for smiles in corpus:
                assert_same_parse(smiles)

    @settings(max_examples=400, deadline=None)
    @given(st.one_of(
        st.lists(st.sampled_from(_SMILES_TOKENS), max_size=24).map("".join),
        ring_smiles(),
    ))
    def test_random_token_strings(self, smiles):
        assert_same_parse(smiles)


# Ethanol's columns, and per check of the constructor a change to them
# that fails it, with the start of that check's message.
_ETHANOL = columns(parse_smiles("CCO"))
_MALFORMED = {
    "no_atoms": (dict(z=(), aromatic=(), charge=(), atom_ring=(), bond_u=(), bond_v=(),
                      bond_order=(), bond_ring=(), adjacency=()), "a molecular graph needs"),
    "list_column": (dict(bond_order=[SINGLE, SINGLE]), "columns must be tuples"),
    "short_atom_column": (dict(charge=(0, 0)), "every per-atom column"),
    "short_adjacency": (dict(adjacency=((1,), (0, 2))), "every per-atom column"),
    "short_bond_column": (dict(bond_ring=(False,)), "per-bond columns"),
    "long_bond_column": (dict(bond_v=(1, 2, 2)), "per-bond columns"),
    "atomic_number_below_0": (dict(z=(6, -1, 8)), "atomic numbers"),
    "atomic_number_above_119": (dict(z=(6, 120, 8)), "atomic numbers"),
    "endpoint_out_of_range": (dict(bond_v=(1, 3)), "every bond needs"),
    "negative_endpoint": (dict(bond_u=(-1, 1), bond_v=(0, 2)), "every bond needs"),
    "endpoints_not_distinct": (dict(bond_v=(1, 1), adjacency=((1,), (0, 1, 1), ())),
                               "every bond needs"),
    "high_index_first": (dict(bond_u=(1, 2), bond_v=(0, 1)), "every bond needs"),
    "unknown_bond_order": (dict(bond_order=(SINGLE, "quadruple")), "bond orders"),
    "duplicate_bond": (dict(bond_u=(0, 0), bond_v=(1, 1), adjacency=((1, 1), (0, 0), ())),
                       "duplicate bond"),
    "inconsistent_adjacency": (dict(adjacency=((1,), (0,), ())), "adjacency inconsistent"),
}


class TestMolGraphModel:
    def test_parsed_graph_equals_constructed(self, fixture_graphs):
        # The checked constructor accepts every parsed graph's columns
        # and rebuilds an equal graph.
        for g in fixture_graphs:
            built = MolGraph(**columns(g))
            assert built == g and g == built, g.source_smiles
            assert hash(built) == hash(g), g.source_smiles

    @pytest.mark.parametrize("change, message", _MALFORMED.values(), ids=_MALFORMED.keys())
    def test_malformed_columns_rejected(self, change, message):
        MolGraph(**_ETHANOL)
        with pytest.raises(ValueError, match=f"^{message}"):
            MolGraph(**{**_ETHANOL, **change})

    def test_unequal_graphs(self):
        g = parse_smiles("CC")
        assert g != parse_smiles("CO")
        assert g != parse_smiles("C=C")
        assert g != parse_smiles(" CC")  # same atoms, other source string
        assert g != "CC"

    def test_pickle_round_trip(self, fixture_graphs):
        for g in fixture_graphs:
            again = pickle.loads(pickle.dumps(g, protocol=pickle.HIGHEST_PROTOCOL))
            assert again == g and hash(again) == hash(g), g.source_smiles
            assert columns(again) == columns(g), g.source_smiles

    @pytest.mark.parametrize("name", [
        "z", "aromatic", "charge", "atom_ring", "bond_u", "bond_v", "bond_order",
        "bond_ring", "adjacency", "source_smiles", "n_atoms", "extra",
    ])
    def test_attributes_cannot_be_assigned(self, name):
        g = parse_smiles("c1ccccc1O")
        with pytest.raises(AttributeError):
            setattr(g, name, ())
        with pytest.raises(AttributeError):
            delattr(g, name)
        assert g == parse_smiles("c1ccccc1O")

    def test_singleton_flag(self):
        assert parse_smiles("C").is_singleton
        assert not parse_smiles("CC").is_singleton

    def test_labeled_record(self):
        g = parse_smiles("CC")
        assert LabeledRecord(graph=g, label=0).label == 0
        assert LabeledRecord(graph=g, label=1).label == 1
        assert LabeledRecord(graph=g).label is None
        assert LabeledRecord(graph=g, label=None).label is None
        for bad in (2, -1, 0.5):
            with pytest.raises(ValueError):
                LabeledRecord(graph=g, label=bad)


class TestWriter:
    def test_round_trip_preserves_structure(self, fixture_graphs):
        for g in fixture_graphs:
            text = write_smiles(g)
            h = parse_smiles(text)
            assert h.n_atoms == g.n_atoms, g.source_smiles
            assert len(h.bond_u) == len(g.bond_u), g.source_smiles
            key = lambda graph: sorted(
                zip(graph.z, graph.aromatic, graph.charge, graph.atom_ring)
            )
            assert key(h) == key(g), g.source_smiles
            assert sorted(map(len, h.adjacency)) == sorted(map(len, g.adjacency))
            orders = lambda graph: sorted(graph.bond_order)
            assert orders(h) == orders(g), g.source_smiles

    def test_round_trip_is_isomorphic(self, fixture_graphs):
        for g in fixture_graphs:
            h = parse_smiles(write_smiles(g))
            sig_g = atoms_signature(g, range(g.n_atoms))
            sig_h = atoms_signature(h, range(h.n_atoms))
            assert sig_g == sig_h, g.source_smiles

    def test_charge_survives_round_trip(self):
        g = parse_smiles("[NH4+]")
        h = parse_smiles(write_smiles(g))
        assert h.charge == (1,)
