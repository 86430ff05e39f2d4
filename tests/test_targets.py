"""Target extraction: atom types, motif ids, argmax tokens, VQ codes."""

import numpy as np
import pytest

from molmask import (
    ATOM_TYPE_SPACE,
    DimMismatch,
    MaskPlan,
    NonFiniteScore,
    ShapeMismatch,
    TargetAssignment,
    argmax_targets,
    atom_type_targets,
    build_vocab,
    canonical_signature,
    decompose,
    load_codebook,
    load_embeddings,
    motif_targets,
    parse_smiles,
    vq_targets,
)
from molmask.targets import argmax_labels, vq_labels


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
        plan = MaskPlan(masked_atoms=(0, 2), strategy="uniform")
        t = atom_type_targets(g, plan)
        assert t.kind == "atom_type"
        assert t.unit_ids == (0, 2)
        assert t.labels == (6, 8)
        assert t.label_space == ATOM_TYPE_SPACE
        assert t.unknown_count == 0

    def test_unknown_element_is_label_zero(self):
        g = parse_smiles("[Xx]C")
        t = atom_type_targets(g, MaskPlan(masked_atoms=(0,), strategy="uniform"))
        assert t.labels == (0,)

    def test_label_space_validated(self):
        with pytest.raises(ValueError):
            TargetAssignment(
                kind="atom_type", unit_ids=(0,), labels=(119,), label_space=119
            )


class TestMotifTargets:
    def test_known_and_unknown(self):
        vocab = build_vocab([parse_smiles("c1ccccc1")])
        g = parse_smiles("Cc1ccccc1")
        partition = decompose(g)
        plan = MaskPlan(
            masked_atoms=tuple(range(7)),
            strategy="moama",
            masked_motifs=(0, 1),
        )
        t = motif_targets(g, partition, plan, vocab)
        assert t.kind == "motif"
        assert t.unit_ids == (0, 1)
        assert t.label_space == vocab.size + 1
        # Methyl motif is unseen, ring is known.
        assert t.labels[0] == vocab.unk_id
        assert t.labels[1] != vocab.unk_id
        assert t.unknown_count == 1

    def test_motifs_derived_from_atoms_when_absent(self):
        vocab = build_vocab([parse_smiles("Cc1ccccc1")])
        g = parse_smiles("Cc1ccccc1")
        partition = decompose(g)
        plan = MaskPlan(masked_atoms=(2, 3), strategy="motifpred")
        t = motif_targets(g, partition, plan, vocab)
        assert t.unit_ids == (1,)
        assert t.unknown_count == 0

    def test_same_signature_same_id(self):
        corpus = [parse_smiles("c1ccccc1"), parse_smiles("Cc1ccccc1")]
        vocab = build_vocab(corpus)
        for smiles in ("c1ccccc1C", "c1ccccc1"):
            g = parse_smiles(smiles)
            partition = decompose(g)
            ring_motif = max(range(len(partition.motifs)), key=lambda m: len(partition.motifs[m]))
            plan = MaskPlan(
                masked_atoms=partition.motifs[ring_motif],
                strategy="moama",
                masked_motifs=(ring_motif,),
            )
            t = motif_targets(g, partition, plan, vocab)
            ring_sig = canonical_signature(parse_smiles("c1ccccc1"), range(6))
            assert t.labels[0] == vocab.lookup(ring_sig)


class TestArgmaxTargets:
    def test_argmax_rows(self):
        g = parse_smiles("CCO")
        logits = np.array([[0.1, 0.9, 0.0], [0.5, 0.2, 0.3], [0.0, 0.0, 1.0]])
        t = argmax_targets(g, MaskPlan(masked_atoms=(0, 1, 2), strategy="uniform"), logits)
        assert t.labels == (1, 0, 2)
        assert t.label_space == 3

    def test_ties_take_lower_token(self):
        logits = np.array([[0.5, 0.5, 0.1], [0.2, 0.7, 0.7]])
        assert argmax_labels(logits) == [0, 1]

    def test_shape_checked(self):
        g = parse_smiles("CCO")
        with pytest.raises(ShapeMismatch):
            argmax_targets(
                g, MaskPlan(masked_atoms=(0,), strategy="uniform"), np.zeros((2, 4))
            )
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

    def test_normalize_flag(self):
        # Unnormalized, the long vector is nearer code 1; on the unit
        # sphere direction wins and code 0 takes over.
        emb = np.array([[10.0, 0.0]])
        book = np.array([[0.5, 0.0], [8.0, 3.0]])
        assert vq_labels(emb, book, normalize=False) == [1]
        assert vq_labels(emb, book, normalize=True) == [0]

    def test_graph_wrapper(self):
        g = parse_smiles("CCO")
        emb = np.array([[0.0, 0.0], [1.0, 1.0], [5.0, 5.0]])
        book = np.array([[0.0, 0.0], [5.0, 5.0]])
        t = vq_targets(g, MaskPlan(masked_atoms=(1, 2), strategy="uniform"), emb, book)
        assert t.kind == "vq_code"
        assert t.labels == (0, 1)
        assert t.label_space == 2

    def test_dim_mismatch(self):
        with pytest.raises(DimMismatch):
            vq_labels(np.zeros((2, 3)), np.zeros((4, 2)))

    def test_embedding_row_count_checked(self):
        g = parse_smiles("CCO")
        with pytest.raises(ShapeMismatch):
            vq_targets(
                g,
                MaskPlan(masked_atoms=(0,), strategy="uniform"),
                np.zeros((2, 3)),
                np.zeros((4, 3)),
            )


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
