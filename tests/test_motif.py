"""Motif decomposition, canonical signatures, vocabulary, coverage."""

import random

import numpy as np
import pytest

from molmask import (
    DisconnectedMotif,
    MolGraph,
    build_vocab,
    coverage,
    decompose,
    graph_motifs,
    motif_adjacency,
    motif_signatures,
    parse_smiles,
)
from molmask.errors import ParseError
from molmask.motif import _signature_of
from molmask.workbench import build_vocab_tsv

from conftest import (
    atoms_signature,
    mixed_corpus,
    ring_marker_corpus,
    signature_lists,
    template_corpus,
    vocab_of,
)



def permuted(graph, perm):
    """Relabel atoms so old index i becomes perm[i]."""
    n = graph.n_atoms
    old = [0] * n  # old index of each new atom
    for i in range(n):
        old[perm[i]] = i
    bonds = sorted(
        (min(perm[u], perm[v]), max(perm[u], perm[v]), order, in_ring)
        for u, v, order, in_ring in zip(graph.bond_u, graph.bond_v, graph.bond_order, graph.bond_ring)
    )
    adj = [[] for _ in range(n)]
    for u, v, _, _ in bonds:
        adj[u].append(v)
        adj[v].append(u)
    bond_u, bond_v, bond_order, bond_ring = zip(*bonds) if bonds else ((), (), (), ())
    return MolGraph(
        z=tuple(graph.z[i] for i in old),
        aromatic=tuple(graph.aromatic[i] for i in old),
        charge=tuple(graph.charge[i] for i in old),
        atom_ring=tuple(graph.atom_ring[i] for i in old),
        bond_u=bond_u,
        bond_v=bond_v,
        bond_order=bond_order,
        bond_ring=bond_ring,
        adjacency=tuple(tuple(sorted(a)) for a in adj),
    )


class TestDecompose:
    def test_two_rings_with_linker(self):
        p = decompose(parse_smiles("C1CC1CCC1CC1"))
        assert p.motifs == ((0, 1, 2), (3, 4), (5, 6, 7))
        assert p.cut_bonds == ((2, 3), (4, 5))

    def test_ring_substituent_cut(self):
        p = decompose(parse_smiles("Cc1ccccc1"))
        assert p.motifs == ((0,), (1, 2, 3, 4, 5, 6))
        assert p.cut_bonds == ((0, 1),)

    def test_junction_junction_cut(self):
        # Both endpoints of the central bond have three or more heavy
        # neighbors, so the bond is cut even with no ring in sight.
        p = decompose(parse_smiles("CC(C)(C)C(C)(C)C"))
        assert p.motifs == ((0, 1, 2, 3), (4, 5, 6, 7))
        assert p.cut_bonds == ((1, 4),)

    def test_plain_chain_not_cut(self):
        assert decompose(parse_smiles("CC(=O)N")).motifs == ((0, 1, 2, 3),)
        assert decompose(parse_smiles("CCO")).motifs == ((0, 1, 2),)

    def test_pendant_carbon(self):
        p = decompose(parse_smiles("C1CCCCC1C"))
        assert p.motifs == ((0, 1, 2, 3, 4, 5), (6,))

    def test_double_bond_never_cut(self):
        # C=C between two junctions stays intact: only single acyclic
        # bonds are candidates.
        p = decompose(parse_smiles("CC(C)=C(C)C"))
        assert p.motifs == ((0, 1, 2, 3, 4, 5),)

    def test_fused_rings_stay_whole(self):
        p = decompose(parse_smiles("c1ccc2ccccc2c1"))
        assert p.motifs == (tuple(range(10)),)
        assert p.cut_bonds == ()

    def test_paracetamol(self):
        p = decompose(parse_smiles("CC(=O)Nc1ccc(O)cc1"))
        assert p.motifs == ((0, 1, 2, 3), (4, 5, 6, 7, 9, 10), (8,))
        assert p.cut_bonds == ((3, 4), (7, 8))

    def test_motif_of_partitions_atoms(self, fixture_graphs):
        for g in fixture_graphs:
            p = decompose(g)
            seen = sorted(i for motif in p.motifs for i in motif)
            assert seen == list(range(g.n_atoms)), g.source_smiles
            for m_idx, motif in enumerate(p.motifs):
                for atom in motif:
                    assert p.motif_of[atom] == m_idx

    def test_cut_bonds_cross_motifs(self, fixture_graphs):
        for g in fixture_graphs:
            p = decompose(g)
            cuts = set(p.cut_bonds)
            for u, v in zip(g.bond_u, g.bond_v):
                crosses = p.motif_of[u] != p.motif_of[v]
                assert ((u, v) in cuts) == crosses, g.source_smiles

    def test_motif_adjacency(self):
        g = parse_smiles("C1CC1CCC1CC1")
        adj = motif_adjacency(g, decompose(g))
        assert adj == ((1,), (0, 2), (1,))


class TestCanonicalSignature:
    def test_known_identities(self):
        pairs = [
            ("C1CCCCC1", "C%10CCCCC%10"),
            ("c1ccncc1", "n1ccccc1"),
            ("CCO", "OCC"),
            ("CC(C)C", "C(C)(C)C"),
        ]
        for a, b in pairs:
            ga, gb = parse_smiles(a), parse_smiles(b)
            sa = atoms_signature(ga, range(ga.n_atoms))
            sb = atoms_signature(gb, range(gb.n_atoms))
            assert sa == sb, (a, b)

    def test_known_distinctions(self):
        molecules = ["c1ccccc1", "C1CCCCC1", "c1ccncc1", "CCO", "CCN",
                     "CC(C)C", "CCCC", "C1CC1", "C=CC", "CCC"]
        sigs = []
        for s in molecules:
            g = parse_smiles(s)
            sigs.append(atoms_signature(g, range(g.n_atoms)))
        assert len(set(sigs)) == len(sigs)

    def test_permutation_invariance(self, fixture_graphs):
        rng = np.random.default_rng(42)
        for g in fixture_graphs:
            base = atoms_signature(g, range(g.n_atoms))
            base_motif_sigs = sorted(graph_motifs(g).signatures)
            for trial in range(200):
                perm = [int(x) for x in rng.permutation(g.n_atoms)]
                h = permuted(g, perm)
                mapped = [perm[i] for i in range(g.n_atoms)]
                assert atoms_signature(h, mapped) == base, g.source_smiles
                if trial % 20 == 0:
                    # Motif structure is also label-independent.
                    assert sorted(graph_motifs(h).signatures) == base_motif_sigs

    def test_charge_not_in_signature(self):
        # Signatures see element and aromaticity, not formal charge:
        # protonation states collapse to one motif identity.
        ga = parse_smiles("[O-]C")
        gb = parse_smiles("OC")
        sa = atoms_signature(ga, range(2))
        sb = atoms_signature(gb, range(2))
        assert sa == sb

    def test_bond_order_distinguishes(self):
        ga = parse_smiles("C=CC")
        gb = parse_smiles("CC=C")
        gc = parse_smiles("CCC")
        sa = atoms_signature(ga, range(3))
        sb = atoms_signature(gb, range(3))
        sc = atoms_signature(gc, range(3))
        assert sa == sb
        assert sa != sc

    def test_disconnected_motif_rejected(self):
        g = parse_smiles("CCO")
        with pytest.raises(DisconnectedMotif):
            atoms_signature(g, (0, 2))
        with pytest.raises(DisconnectedMotif):
            atoms_signature(g, ())

    def test_symmetric_ring_uses_stable_fallback(self):
        # A six-ring has 720 same-class orderings, far past the
        # exhaustive limit; the class-level form must still be stable.
        g = parse_smiles("C1CCCCC1")
        sig = atoms_signature(g, range(6))
        assert sig == atoms_signature(g, range(6))
        benz = parse_smiles("c1ccccc1")
        assert sig != atoms_signature(benz, range(6))


def fixture_corpus_graphs(fixture_graphs):
    """Every parseable molecule of the fixture list and the three
    synthetic fixture corpora."""
    graphs = list(fixture_graphs)
    for smiles, _ in ring_marker_corpus() + template_corpus() + mixed_corpus():
        try:
            graphs.append(parse_smiles(smiles))
        except ParseError:
            pass
    return graphs


class TestSignatureMemo:
    def test_cached_equals_uncached(self, fixture_graphs):
        # Whole molecules as well as motifs, so that keys which differ
        # only in bond order (CCC, C=CC, C=C=C) all pass through the memo.
        units = [
            (g, atoms)
            for g in fixture_corpus_graphs(fixture_graphs)
            for atoms in (*decompose(g).motifs, tuple(range(g.n_atoms)))
        ]
        _signature_of.cache_clear()
        cached = [atoms_signature(g, atoms) for g, atoms in units]
        assert _signature_of.cache_info().hits > 0
        for (g, atoms), sig in zip(units, cached):
            _signature_of.cache_clear()
            assert atoms_signature(g, atoms) == sig, (g.source_smiles, atoms)

    def test_shuffled_corpus_gives_identical_vocab_tsv(self, fixture_graphs, tmp_path):
        graphs = fixture_corpus_graphs(fixture_graphs)
        _signature_of.cache_clear()
        build_vocab_tsv(vocab_of(graphs), tmp_path / "forward.tsv")
        # Other corpus order and other atom orders: other keys are
        # computed first and every graph's motifs get new keys.
        rng = random.Random(5)
        shuffled = [
            permuted(g, rng.sample(range(g.n_atoms), g.n_atoms))
            for g in rng.sample(graphs, len(graphs))
        ]
        _signature_of.cache_clear()
        build_vocab_tsv(vocab_of(shuffled), tmp_path / "shuffled.tsv")
        assert (tmp_path / "shuffled.tsv").read_bytes() == (tmp_path / "forward.tsv").read_bytes()

    def test_motif_signatures_reuse_induced_subgraph_keys(self, fixture_graphs):
        """The one-pass key builder gives each motif the key of its
        induced subgraph, read off the columns bond by bond: signing a
        graph's motifs after those keys adds no memo entry."""
        for g in fixture_corpus_graphs(fixture_graphs):
            partition = decompose(g)
            _signature_of.cache_clear()
            expected = []
            for motif in partition.motifs:
                pos = {atom: i for i, atom in enumerate(motif)}
                labels = tuple((g.z[a], g.aromatic[a]) for a in motif)
                edges = tuple(sorted(
                    (pos[u], pos[v], order)
                    for u, v, order in zip(g.bond_u, g.bond_v, g.bond_order)
                    if u in pos and v in pos
                ))
                expected.append(_signature_of(labels, edges))
            misses = _signature_of.cache_info().misses
            assert motif_signatures(g, partition) == expected, g.source_smiles
            assert [atoms_signature(g, m) for m in partition.motifs] == expected
            assert _signature_of.cache_info().misses == misses, g.source_smiles

    def test_graph_motifs_signs_the_decomposition(self, fixture_graphs):
        for g in fixture_graphs:
            motifs = graph_motifs(g)
            assert motifs.partition == decompose(g)
            assert motifs.signatures == tuple(motif_signatures(g, motifs.partition))

    def test_disconnected_motif_is_not_cached(self):
        g = parse_smiles("CCO")
        _signature_of.cache_clear()
        for _ in range(2):
            with pytest.raises(DisconnectedMotif):
                atoms_signature(g, (0, 2))
        assert _signature_of.cache_info().currsize == 0
        atoms_signature(g, (0, 1))
        assert _signature_of.cache_info().currsize == 1


class TestVocab:
    def test_counts_signature_lists(self):
        vocab = build_vocab([("b", "a"), ("a",), ()])
        assert vocab.ids == {"a": 0, "b": 1}
        assert vocab.counts == {"a": 2, "b": 1}

    def test_ids_dense_and_frequency_ranked(self, fixture_graphs):
        vocab = vocab_of(fixture_graphs)
        assert sorted(vocab.ids.values()) == list(range(vocab.size))
        ranked = sorted(vocab.ids, key=vocab.ids.get)
        counts = [vocab.counts[s] for s in ranked]
        assert counts == sorted(counts, reverse=True)
        # Equal counts break by signature string.
        for a, b in zip(ranked, ranked[1:]):
            if vocab.counts[a] == vocab.counts[b]:
                assert a < b

    def test_order_independent(self, fixture_graphs):
        forward = vocab_of(fixture_graphs)
        backward = vocab_of(list(reversed(fixture_graphs)))
        assert forward.ids == backward.ids
        assert forward.counts == backward.counts

    def test_lookup_and_unk(self, fixture_graphs):
        vocab = vocab_of(fixture_graphs)
        assert vocab.unk_id == vocab.size
        for sig, idx in vocab.ids.items():
            assert vocab.lookup(sig) == idx
        assert vocab.lookup("nonexistent-signature") == vocab.unk_id


class TestCoverage:
    def test_self_coverage_is_exact(self, fixture_graphs):
        vocab = vocab_of(fixture_graphs)
        stats = coverage(vocab, signature_lists(fixture_graphs))
        assert stats.overlap_ratio == 1.0
        assert all(r == 1.0 for r in stats.per_graph_r)
        assert stats.mean_r == 1.0
        assert stats.median_r == 1.0
        assert stats.pct_r_ge_080 == 100.0
        assert stats.pct_r_le_020 == 0.0

    def test_disjoint_coverage_is_zero(self):
        vocab = vocab_of([parse_smiles("c1ccccc1")])
        stats = coverage(vocab, signature_lists([parse_smiles("CCO"), parse_smiles("CCN")]))
        assert stats.overlap_ratio == 0.0
        assert stats.mean_r == 0.0
        assert stats.pct_r_le_020 == 100.0

    def test_partial_coverage(self):
        vocab = vocab_of([parse_smiles("c1ccccc1")])
        downstream = [
            parse_smiles("c1ccccc1"),
            parse_smiles("Cc1ccccc1"),
            parse_smiles("CCO"),
        ]
        stats = coverage(vocab, signature_lists(downstream))
        np.testing.assert_allclose(stats.per_graph_r, [1.0, 0.5, 0.0])
        # Downstream distinct signatures: ring, methyl, CCO chain.
        np.testing.assert_allclose(stats.overlap_ratio, 1.0 / 3.0)
        np.testing.assert_allclose(stats.mean_r, 0.5)
        np.testing.assert_allclose(stats.median_r, 0.5)
        np.testing.assert_allclose(stats.pct_r_ge_080, 100.0 / 3.0)
        np.testing.assert_allclose(stats.pct_r_le_020, 100.0 / 3.0)
