"""Target extraction: atom types, motif ids, argmax tokens, VQ codes.

Masked views get their labels from TargetResources.view_targets, the
path export-views takes; exact analyses read every unit through
unit_labels.
"""

import numpy as np
import pytest

from molmask import (
    STRATEGIES,
    DataError,
    DimMismatch,
    MaskConfig,
    NodeScores,
    NonFiniteScore,
    ShapeMismatch,
    bind_corpus,
    build_vocab,
    canonical_signature,
    load_codebook,
    load_embeddings,
    parse_smiles,
    substream,
)
from molmask.targets import TargetResources, argmax_labels, graph_motifs, vq_labels


def brute_force_vq(embeddings, codebook):
    """Independent nearest-code scan with explicit norms and loops."""
    out = []
    for vec in embeddings:
        best, best_d = 0, float("inf")
        for c, code in enumerate(codebook):
            d = float(np.linalg.norm(vec - code))
            if d < best_d - 1e-15:
                best, best_d = c, d
        out.append(best)
    return out


class TestAtomTypeTargets:
    def test_labels_are_atomic_numbers(self):
        g = parse_smiles("CCO")
        units, labels = TargetResources().view_targets("atom_type", 0, g, (0, 2))
        assert units == (0, 2)
        assert labels == (6, 8)

    def test_unknown_element_is_label_zero(self):
        g = parse_smiles("[Xx]C")
        assert TargetResources().view_targets("atom_type", 0, g, (0,)) == ((0,), (0,))


def motif_view(vocab, graph, atoms):
    resources = TargetResources(vocab=vocab, motifs=[graph_motifs(graph)])
    return resources.view_targets("motif", 0, graph, atoms)


class TestMotifTargets:
    def test_known_and_unknown(self):
        vocab = build_vocab([parse_smiles("c1ccccc1")])
        g = parse_smiles("Cc1ccccc1")
        units, labels = motif_view(vocab, g, tuple(range(7)))
        assert units == (0, 1)
        # Methyl motif is unseen, ring is known.
        assert labels[0] == vocab.unk_id
        assert labels[1] != vocab.unk_id

    def test_motifs_derived_from_atoms_when_absent(self):
        vocab = build_vocab([parse_smiles("Cc1ccccc1")])
        g = parse_smiles("Cc1ccccc1")
        units, labels = motif_view(vocab, g, (2, 3))
        assert units == (1,)
        assert vocab.unk_id not in labels

    def test_same_signature_same_id(self):
        corpus = [parse_smiles("c1ccccc1"), parse_smiles("Cc1ccccc1")]
        vocab = build_vocab(corpus)
        ring_sig = canonical_signature(parse_smiles("c1ccccc1"), range(6))
        for smiles in ("c1ccccc1C", "c1ccccc1"):
            g = parse_smiles(smiles)
            partition = graph_motifs(g).partition
            ring_motif = max(range(len(partition.motifs)), key=lambda m: len(partition.motifs[m]))
            _, labels = motif_view(vocab, g, partition.motifs[ring_motif])
            assert labels == (vocab.lookup(ring_sig),)


@pytest.mark.parametrize("strategy", STRATEGIES)
def test_motif_units_are_the_motifs_of_the_masked_atoms(strategy, fixture_graphs):
    """Under every strategy, a view's motif units are the motifs of the
    resources' partition that hold a masked atom, whole or in part, and
    its labels are those motifs' vocabulary ids."""
    motifs = [graph_motifs(g) for g in fixture_graphs]
    # A vocabulary of half the corpus, so that some units are UNK.
    vocab = build_vocab(fixture_graphs[::2])
    resources = TargetResources(vocab=vocab, motifs=motifs)
    external = [
        NodeScores(values=tuple(float(i) for i in range(g.n_atoms)), source="external")
        for g in fixture_graphs
    ]
    bind = bind_corpus(
        [strategy], MaskConfig(ratio=0.4), fixture_graphs, external, [m.partition for m in motifs],
    )
    for pos, graph in enumerate(fixture_graphs):
        partition = motifs[pos].partition
        (bound,) = bind(pos)
        for draw in range(3):
            atoms = bound.plan(substream(2, pos, draw))
            units, labels = resources.view_targets("motif", pos, graph, atoms)
            assert list(units) == sorted({partition.motif_of[a] for a in atoms})
            assert labels == tuple(vocab.lookup(motifs[pos].signatures[u]) for u in units)


class TestArgmaxTargets:
    def test_argmax_rows(self):
        g = parse_smiles("CCO")
        logits = np.array([[0.1, 0.9, 0.0], [0.5, 0.2, 0.3], [0.0, 0.0, 1.0]])
        resources = TargetResources(logits={0: logits})
        units, labels = resources.view_targets("argmax_token", 0, g, (0, 1, 2))
        assert units == (0, 1, 2)
        assert labels == (1, 0, 2)

    def test_ties_take_lower_token(self):
        logits = np.array([[0.5, 0.5, 0.1], [9.0, 0.0, 0.0], [0.2, 0.7, 0.7]])
        assert argmax_labels(logits) == [0, 0, 1]
        resources = TargetResources(logits={0: logits})
        _, labels = resources.view_targets("argmax_token", 0, parse_smiles("CCO"), (0, 2))
        assert labels == (0, 1)

    def test_shape_checked(self):
        g = parse_smiles("CCO")
        resources = TargetResources(logits={0: np.zeros((2, 4))})
        with pytest.raises(ShapeMismatch):
            resources.view_targets("argmax_token", 0, g, (0,))
        with pytest.raises(ShapeMismatch):
            argmax_labels(np.zeros(3))


class TestVqTargets:
    def test_matches_brute_force(self):
        rng = np.random.default_rng(42)
        for _ in range(20):
            n, d, c = int(rng.integers(2, 9)), int(rng.integers(2, 6)), int(rng.integers(2, 12))
            emb = rng.normal(size=(n, d))
            book = rng.normal(size=(c, d))
            assert vq_labels(emb, book) == brute_force_vq(emb, book)

    def test_ties_take_lower_code(self):
        emb = np.array([[0.0, 0.0]])
        book = np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0]])
        assert vq_labels(emb, book) == [0]
        # Atoms 1 and 2 sit halfway between codes 1 and 2, and 0 and 2.
        resources = TargetResources(
            embeddings={0: np.array([[1.0, 0.0], [-0.5, 0.5], [0.5, 0.5]])}, codebook=book
        )
        _, labels = resources.view_targets("vq_code", 0, parse_smiles("CCO"), (1, 2))
        assert labels == (1, 0)

    def test_normalize_flag(self):
        # Unnormalized, the long vector is nearer code 1; on the unit
        # sphere direction wins and code 0 takes over.
        emb = np.array([[10.0, 0.0]])
        book = np.array([[0.5, 0.0], [8.0, 3.0]])
        assert vq_labels(emb, book, normalize=False) == [1]
        assert vq_labels(emb, book, normalize=True) == [0]

    def test_graph_wrapper(self):
        # view_targets wraps vq_labels for the masked atoms of one graph.
        g = parse_smiles("CCO")
        emb = np.array([[0.0, 0.0], [1.0, 1.0], [5.0, 5.0]])
        book = np.array([[0.0, 0.0], [5.0, 5.0]])
        resources = TargetResources(embeddings={0: emb}, codebook=book)
        assert resources.view_targets("vq_code", 0, g, (1, 2)) == ((1, 2), (0, 1))

    def test_dim_mismatch(self):
        with pytest.raises(DimMismatch):
            vq_labels(np.zeros((2, 3)), np.zeros((4, 2)))

    def test_embedding_row_count_checked(self):
        g = parse_smiles("CCO")
        resources = TargetResources(embeddings={0: np.zeros((2, 3))}, codebook=np.zeros((4, 3)))
        with pytest.raises(ShapeMismatch):
            resources.view_targets("vq_code", 0, g, (0,))


class TestUnitLabelErrors:
    @pytest.mark.parametrize("kind, resources", [
        ("motif", {}),
        ("motif", {"vocab": build_vocab([parse_smiles("CO")])}),
        ("motif", {"motifs": [graph_motifs(parse_smiles("CO"))]}),
        ("vq_code", {"embeddings": {0: np.zeros((2, 2))}}),
        ("argmax_token", {}),
    ], ids=["motif-none", "motif-no-motifs", "motif-no-vocab", "vq-no-codebook", "argmax-no-logits"])
    def test_missing_resources_are_data_errors(self, kind, resources):
        with pytest.raises(DataError) as err:
            TargetResources(**resources).unit_labels(kind, 0, parse_smiles("CO"))
        assert type(err.value) is DataError

    def test_unknown_kind(self):
        with pytest.raises(DataError, match="unknown target kind 'charge'"):
            TargetResources().unit_labels("charge", 0, parse_smiles("CO"))

    @pytest.mark.parametrize("kind, resources", [
        ("vq_code", {"embeddings": {0: np.zeros((2, 2))}, "codebook": np.zeros((3, 2))}),
        ("argmax_token", {"logits": {0: np.zeros((2, 4))}}),
    ], ids=["vq", "argmax"])
    def test_position_without_rows(self, kind, resources):
        with pytest.raises(ShapeMismatch, match="corpus position 1"):
            TargetResources(**resources).unit_labels(kind, 1, parse_smiles("CO"))


class TestLoaders:
    def test_codebook_round_trip(self, tmp_path):
        path = tmp_path / "codebook.csv"
        path.write_text("1.0,2.0\n3.0,4.0\n")
        book = load_codebook(path)
        np.testing.assert_array_equal(book, [[1.0, 2.0], [3.0, 4.0]])

    def test_codebook_errors(self, tmp_path):
        ragged = tmp_path / "ragged.csv"
        ragged.write_text("1.0,2.0\n3.0\n")
        with pytest.raises(ShapeMismatch):
            load_codebook(ragged)
        empty = tmp_path / "empty.csv"
        empty.write_text("")
        with pytest.raises(ShapeMismatch):
            load_codebook(empty)

    def test_embeddings_round_trip(self, tmp_path):
        path = tmp_path / "emb.csv"
        path.write_text("0,0,1.0,0.0\n0,1,0.0,1.0\n1,0,2.0,2.0\n")
        emb = load_embeddings(path)
        assert sorted(emb) == [0, 1]
        np.testing.assert_array_equal(emb[0], [[1.0, 0.0], [0.0, 1.0]])
        np.testing.assert_array_equal(emb[1], [[2.0, 2.0]])

    def test_embeddings_contiguity_checked(self, tmp_path):
        path = tmp_path / "emb.csv"
        path.write_text("0,0,1.0\n0,2,2.0\n")
        with pytest.raises(ShapeMismatch):
            load_embeddings(path)

    def test_embeddings_width_checked(self, tmp_path):
        path = tmp_path / "emb.csv"
        path.write_text("0,0,1.0,2.0\n0,1,3.0\n")
        with pytest.raises(ShapeMismatch):
            load_embeddings(path)

    @pytest.mark.parametrize("text", [
        "0,0\n",  # no value column
        "0,0.5,1.0\n",  # fractional atom index
        "1.5,0,1.0\n",  # fractional graph index
        "0,0,x\n",  # non-numeric cell
        "0,0,1.0\n0,0,2.0\n",  # atom 0 twice
    ])
    def test_embeddings_shape_errors(self, text, tmp_path):
        path = tmp_path / "emb.csv"
        path.write_text(text)
        with pytest.raises(ShapeMismatch):
            load_embeddings(path)

    def test_embeddings_rows_in_any_order(self, tmp_path):
        path = tmp_path / "emb.csv"
        path.write_text("1,0,5.0\n\n0,1,2.0\n0,0,1.0\n")
        emb = load_embeddings(path)
        np.testing.assert_array_equal(emb[0], [[1.0], [2.0]])
        np.testing.assert_array_equal(emb[1], [[5.0]])

    @pytest.mark.parametrize("cell", ["nan", "inf", "-inf", "NaN"])
    def test_non_finite_cells_rejected(self, cell, tmp_path):
        emb = tmp_path / "emb.csv"
        emb.write_text(f"0,0,1.0\n0,1,{cell}\n")
        with pytest.raises(NonFiniteScore):
            load_embeddings(emb)
        book = tmp_path / "book.csv"
        book.write_text(f"1.0,2.0\n{cell},0.0\n")
        with pytest.raises(NonFiniteScore):
            load_codebook(book)
