"""Target extraction: atom types, motif ids, argmax tokens, VQ codes.

Every kind's labels come from target_column, as one TargetColumn per
command; masked views read theirs with TargetColumn.view_targets, the
path export-views takes, and exact analyses count the column's slices.
"""

import numpy as np
import pytest

from molmask import (
    STRATEGIES,
    TARGET_KINDS,
    DataError,
    DimMismatch,
    MaskConfig,
    NonFiniteScore,
    ShapeMismatch,
    bind_corpus,
    graph_motifs,
    load_codebook,
    load_embeddings,
    parse_smiles,
    substream,
    target_column,
)
from molmask.targets import _LABELLERS, argmax_labels, vq_labels

from conftest import atoms_signature, vocab_of


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


def test_every_target_kind_has_a_labeller():
    assert tuple(_LABELLERS) == TARGET_KINDS


def view(kind, graph, atoms, **inputs):
    """The targets of one mask of a one-graph corpus."""
    return target_column(kind, [graph], inputs).view_targets(0, atoms)


class TestAtomTypeTargets:
    def test_labels_are_atomic_numbers(self):
        g = parse_smiles("CCO")
        assert view("atom_type", g, (0, 2)) == [6, 8]
        column = target_column("atom_type", [g, parse_smiles("N")])
        assert column.labels.dtype == np.uint8
        assert column.offsets.tolist() == [0, 3, 4]

    def test_unknown_element_is_label_zero(self):
        assert view("atom_type", parse_smiles("[Xx]C"), (0,)) == [0]


def motif_view(vocab, graph, atoms):
    return view("motif", graph, atoms, vocab=vocab, motifs=[graph_motifs(graph)])


class TestMotifTargets:
    def test_known_and_unknown(self):
        vocab = vocab_of([parse_smiles("c1ccccc1")])
        g = parse_smiles("Cc1ccccc1")
        labels = motif_view(vocab, g, tuple(range(7)))
        # Two motifs: the methyl is unseen, the ring is known.
        assert len(labels) == 2
        assert labels[0] == vocab.unk_id
        assert labels[1] != vocab.unk_id

    def test_motifs_derived_from_atoms_when_absent(self):
        vocab = vocab_of([parse_smiles("Cc1ccccc1")])
        g = parse_smiles("Cc1ccccc1")
        labels = motif_view(vocab, g, (2, 3))
        assert len(labels) == 1
        assert vocab.unk_id not in labels

    def test_same_signature_same_id(self):
        corpus = [parse_smiles("c1ccccc1"), parse_smiles("Cc1ccccc1")]
        vocab = vocab_of(corpus)
        ring_sig = atoms_signature(parse_smiles("c1ccccc1"), range(6))
        for smiles in ("c1ccccc1C", "c1ccccc1"):
            g = parse_smiles(smiles)
            partition = graph_motifs(g).partition
            ring_motif = max(range(len(partition.motifs)), key=lambda m: len(partition.motifs[m]))
            labels = motif_view(vocab, g, partition.motifs[ring_motif])
            assert labels == [vocab.lookup(ring_sig)]


@pytest.mark.parametrize("strategy", STRATEGIES)
def test_motif_units_are_the_motifs_of_the_masked_atoms(strategy, fixture_graphs):
    """Under every strategy, a view's motif units are the motifs of the
    column's partition that hold a masked atom, whole or in part, and
    its labels are those motifs' vocabulary ids."""
    motifs = [graph_motifs(g) for g in fixture_graphs]
    # A vocabulary of half the corpus, so that some units are UNK.
    vocab = vocab_of(fixture_graphs[::2])
    column = target_column("motif", fixture_graphs, {"vocab": vocab, "motifs": motifs})
    assert column.partitions == [m.partition for m in motifs]
    external = [np.arange(float(g.n_atoms)) for g in fixture_graphs]
    bind = bind_corpus([strategy], MaskConfig(ratio=0.4), fixture_graphs, external, column.partitions)
    for pos, graph in enumerate(fixture_graphs):
        partition = motifs[pos].partition
        (bound,) = bind(pos)
        for draw in range(3):
            atoms = bound.plan(substream(2, pos, draw))
            units = sorted({partition.motif_of[a] for a in atoms})
            assert column.view_targets(pos, atoms) == [
                vocab.lookup(motifs[pos].signatures[u]) for u in units
            ]


class TestArgmaxTargets:
    def test_argmax_rows(self):
        g = parse_smiles("CCO")
        logits = np.array([[0.1, 0.9, 0.0], [0.5, 0.2, 0.3], [0.0, 0.0, 1.0]])
        assert view("argmax_token", g, (0, 1, 2), logits={0: logits}) == [1, 0, 2]

    def test_ties_take_lower_token(self):
        logits = np.array([[0.5, 0.5, 0.1], [9.0, 0.0, 0.0], [0.2, 0.7, 0.7]])
        assert argmax_labels(logits) == [0, 0, 1]
        assert view("argmax_token", parse_smiles("CCO"), (0, 2), logits={0: logits}) == [0, 1]

    def test_shape_checked(self):
        g = parse_smiles("CCO")
        with pytest.raises(ShapeMismatch):
            target_column("argmax_token", [g], {"logits": {0: np.zeros((2, 4))}})
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
        embeddings = {0: np.array([[1.0, 0.0], [-0.5, 0.5], [0.5, 0.5]])}
        labels = view("vq_code", parse_smiles("CCO"), (1, 2), embeddings=embeddings, codebook=book)
        assert labels == [1, 0]

    def test_normalize_flag(self):
        # Unnormalized, the long vector is nearer code 1; on the unit
        # sphere direction wins and code 0 takes over.
        emb = np.array([[10.0, 0.0]])
        book = np.array([[0.5, 0.0], [8.0, 3.0]])
        assert vq_labels(emb, book, normalize=False) == [1]
        assert vq_labels(emb, book, normalize=True) == [0]
        g = parse_smiles("C")
        for normalize, code in ((False, 1), (True, 0)):
            labels = view("vq_code", g, (0,), embeddings={0: emb}, codebook=book,
                          vq_normalize=normalize)
            assert labels == [code]

    def test_graph_wrapper(self):
        # The column wraps vq_labels for the masked atoms of one graph.
        g = parse_smiles("CCO")
        emb = np.array([[0.0, 0.0], [1.0, 1.0], [5.0, 5.0]])
        book = np.array([[0.0, 0.0], [5.0, 5.0]])
        assert view("vq_code", g, (1, 2), embeddings={0: emb}, codebook=book) == [0, 1]

    def test_dim_mismatch(self):
        with pytest.raises(DimMismatch):
            vq_labels(np.zeros((2, 3)), np.zeros((4, 2)))

    def test_embedding_row_count_checked(self):
        g = parse_smiles("CCO")
        with pytest.raises(ShapeMismatch):
            target_column("vq_code", [g], {"embeddings": {0: np.zeros((2, 3))},
                                           "codebook": np.zeros((4, 3))})


class TestUnitLabelErrors:
    @pytest.mark.parametrize("kind, inputs", [
        ("motif", {}),
        ("motif", {"vocab": vocab_of([parse_smiles("CO")])}),
        ("motif", {"motifs": [graph_motifs(parse_smiles("CO"))]}),
        ("vq_code", {"embeddings": {0: np.zeros((2, 2))}}),
        ("argmax_token", {}),
    ], ids=["motif-none", "motif-no-motifs", "motif-no-vocab", "vq-no-codebook", "argmax-no-logits"])
    def test_missing_resources_are_data_errors(self, kind, inputs):
        with pytest.raises(DataError) as err:
            target_column(kind, [parse_smiles("CO")], inputs)
        assert type(err.value) is DataError

    def test_unknown_kind(self):
        with pytest.raises(DataError, match="unknown target kind 'charge'"):
            target_column("charge", [parse_smiles("CO")])

    @pytest.mark.parametrize("kind, inputs", [
        ("vq_code", {"embeddings": {0: np.zeros((2, 2))}, "codebook": np.zeros((3, 2))}),
        ("argmax_token", {"logits": {0: np.zeros((2, 4))}}),
    ], ids=["vq", "argmax"])
    def test_position_without_rows(self, kind, inputs):
        graphs = [parse_smiles("CO"), parse_smiles("CO")]
        with pytest.raises(ShapeMismatch, match="corpus position 1"):
            target_column(kind, graphs, inputs)
        # A graph the column does not label needs no rows.
        column = target_column(kind, graphs, inputs, positions=[0])
        assert column.offsets.tolist() == [0, 2, 2]

    @pytest.mark.parametrize("order", [[0], [1, 0]], ids=["short", "swapped"])
    def test_motifs_must_match_the_graphs(self, order):
        """Motifs that are too few, or belong to other graphs, are a
        ShapeMismatch, not an IndexError or a silent miscount."""
        graphs = [parse_smiles("c1ccccc1CCO"), parse_smiles("C1CCCCC1N")]
        motifs = [graph_motifs(graph) for graph in graphs]
        inputs = {"vocab": vocab_of(graphs), "motifs": [motifs[i] for i in order]}
        with pytest.raises(ShapeMismatch):
            target_column("motif", graphs, inputs)


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
