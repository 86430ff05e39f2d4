"""Information measures: plug-in MI, sampled MI, low-frequency JSD."""

import itertools
import math

import numpy as np
import pytest

from molmask import (
    DEFAULT_TAUS,
    EmptyCounts,
    EmptySupport,
    JointCounts,
    MaskConfig,
    entropy_y,
    exact_joint_counts,
    jsd,
    jsd_curve,
    low_freq_conditionals,
    mutual_information,
    parse_smiles,
    relative_gain,
    run_mask_sim,
    shuffle_control,
)
from molmask.molgraph import LabeledRecord

from conftest import counted_column, usable_records, vocab_of


def brute_force_mi(matrix):
    """Plug-in MI from a count matrix, written as bare nested loops."""
    matrix = [[float(c) for c in row] for row in matrix]
    total = sum(sum(row) for row in matrix)
    n_x, n_y = len(matrix), len(matrix[0])
    px = [sum(matrix[i]) / total for i in range(n_x)]
    py = [sum(matrix[i][j] for i in range(n_x)) / total for j in range(n_y)]
    mi = 0.0
    for i in range(n_x):
        for j in range(n_y):
            p = matrix[i][j] / total
            if p > 0:
                mi += p * math.log2(p / (px[i] * py[j]))
    return mi


def counts_from_matrix(matrix):
    """Joint counts with N(x, y) = matrix[x][y]; all-zero rows vanish."""
    cells = np.asarray(matrix, dtype=np.int64).ravel()
    x = np.repeat(np.arange(len(cells)) // 2, cells)
    y = np.repeat(np.arange(len(cells)) % 2, cells)
    return JointCounts.from_arrays(x, y)


def cells(joint):
    """The table's nonzero cells as {(x, y): count}."""
    return {
        (int(x), y): int(n)
        for x, row in zip(joint.labels, joint.table)
        for y, n in enumerate(row)
        if n
    }


def brute_force_cells(x, y):
    """Count (x, y) pairs one at a time into a dict."""
    counts = {}
    for pair in zip(x, y):
        counts[pair] = counts.get(pair, 0) + 1
    return counts


def reference_mi(counts):
    """Plug-in MI of a {(x, y): n} dict, computed the way the dict-backed
    table did: a float matrix over the sorted labels, then the same
    numpy expression as mutual_information."""
    xs = sorted({x for x, _ in counts})
    mat = np.zeros((len(xs), 2), dtype=float)
    index = {x: i for i, x in enumerate(xs)}
    for (x, y), n in counts.items():
        mat[index[x], y] = n
    p = mat / sum(counts.values())
    px = p.sum(axis=1, keepdims=True)
    py = p.sum(axis=0, keepdims=True)
    mask = p > 0
    return max(float(np.sum(p[mask] * np.log2(p[mask] / (px @ py)[mask]))), 0.0)


def reference_shuffle(pairs, repeats, seed):
    """The pair-list shuffle control: permute the x of a list of (x, y)
    pairs with the generator keyed by (seed, r) and recount in Python."""
    xs = [x for x, _ in pairs]
    ys = [y for _, y in pairs]
    estimates = []
    for r in range(repeats):
        rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(r,)))
        perm = rng.permutation(len(xs))
        estimates.append(reference_mi(brute_force_cells([xs[int(i)] for i in perm], ys)))
    return tuple(estimates)


def sorted_pairs(joint):
    """One (x, y) pair per count, in (x, y) order."""
    return [pair for pair, n in sorted(cells(joint).items()) for _ in range(n)]


class TestMutualInformation:
    def test_hand_values(self):
        # Perfectly dependent and perfectly independent tables.
        assert mutual_information(counts_from_matrix([[5, 0], [0, 5]])) == pytest.approx(1.0, abs=1e-12)
        assert mutual_information(counts_from_matrix([[2, 2], [3, 3]])) == pytest.approx(0.0, abs=1e-12)
        # 0.8 log2(1.6) + 0.2 log2(0.4), worked out by hand.
        np.testing.assert_allclose(
            mutual_information(counts_from_matrix([[4, 1], [1, 4]])),
            0.2780719051126378,
            rtol=1e-12,
        )

    def test_matches_brute_force_on_random_tables(self):
        rng = np.random.default_rng(42)
        for _ in range(50):
            n_x = int(rng.integers(1, 7))
            matrix = rng.integers(0, 30, size=(n_x, 2))
            if matrix.sum() == 0:
                matrix[0, 0] = 1
            joint = counts_from_matrix(matrix)
            np.testing.assert_allclose(
                mutual_information(joint), brute_force_mi(matrix), atol=1e-12
            )

    def test_matches_scipy_entropies(self):
        # MI = H(X) + H(Y) - H(X, Y), computed through scipy.
        from scipy.stats import entropy

        rng = np.random.default_rng(7)
        for _ in range(20):
            matrix = rng.integers(1, 40, size=(int(rng.integers(2, 6)), 2)).astype(float)
            p = matrix / matrix.sum()
            expected = (
                entropy(p.sum(axis=1), base=2)
                + entropy(p.sum(axis=0), base=2)
                - entropy(p.ravel(), base=2)
            )
            np.testing.assert_allclose(
                mutual_information(counts_from_matrix(matrix)), expected, atol=1e-10
            )

    def test_bounded_by_entropies(self):
        rng = np.random.default_rng(3)
        for _ in range(100):
            matrix = rng.integers(0, 25, size=(int(rng.integers(1, 9)), 2))
            if matrix.sum() == 0:
                matrix[0, 1] = 2
            joint = counts_from_matrix(matrix)
            mi = mutual_information(joint)
            assert mi >= 0.0
            assert mi <= entropy_y(joint) + 1e-12

    def test_empty_counts(self):
        with pytest.raises(EmptyCounts):
            mutual_information(JointCounts.from_arrays([], []))

    def test_zero_zero_convention(self):
        # Rows and columns full of zeros contribute nothing; X still
        # determines Y, so MI = H(Y) for the 3/7 split.
        sparse = counts_from_matrix([[3, 0], [0, 0], [0, 7]])
        h_y = -0.3 * math.log2(0.3) - 0.7 * math.log2(0.7)
        np.testing.assert_allclose(mutual_information(sparse), h_y, rtol=1e-12)


class TestEntropyAndGain:
    def test_entropy_values(self):
        assert entropy_y(counts_from_matrix([[5, 5]])) == pytest.approx(1.0, abs=1e-12)
        assert entropy_y(counts_from_matrix([[10, 0]])) == pytest.approx(0.0, abs=1e-12)
        np.testing.assert_allclose(
            entropy_y(counts_from_matrix([[9, 1]])),
            -0.9 * math.log2(0.9) - 0.1 * math.log2(0.1),
            rtol=1e-12,
        )

    def test_relative_gain(self):
        np.testing.assert_allclose(relative_gain(0.05, 1.0), 0.05)
        np.testing.assert_allclose(relative_gain(0.043, 0.999), 0.043 / 0.999)
        assert math.isnan(relative_gain(0.0, 0.0))


class TestJointCounts:
    def test_rejects_bad_y(self):
        for y in ([2], [-1], [0.5], [True, 3]):
            with pytest.raises(ValueError):
                JointCounts.from_arrays([3] * len(y), y)

    def test_rejects_length_mismatch(self):
        with pytest.raises(ValueError):
            JointCounts.from_arrays([1, 2], [0])
        with pytest.raises(ValueError):
            JointCounts.from_arrays([[1, 2]], [[0, 1]])

    def test_table_layout(self):
        joint = JointCounts.from_arrays([5, 2, 5, 2], [1, 0, 1, 1])
        np.testing.assert_array_equal(joint.labels, [2, 5])
        np.testing.assert_array_equal(joint.table, [[1, 1], [0, 2]])
        assert joint.table.dtype == np.int64
        assert joint.total == 4

    def test_matches_brute_force_counter(self):
        # Dense small labels, sparse large ones (vq codes, UNK-sized ids
        # past a vocabulary, ids beyond 32 bits) and one-class tables.
        rng = np.random.default_rng(17)
        pools = [
            np.arange(6),
            np.arange(64),
            np.array([0, 7, 2913, 10**6, 2**40]),
            rng.integers(0, 2**50, size=30),
        ]
        for trial in range(60):
            pool = pools[trial % len(pools)]
            size = int(rng.integers(1, 300))
            x = rng.choice(pool, size=size).tolist()
            y = (rng.random(size) < [0.5, 1.0, 0.0][trial % 3]).astype(int).tolist()
            joint = JointCounts.from_arrays(x, y)
            expected = brute_force_cells(x, y)
            assert cells(joint) == expected
            assert joint.labels.tolist() == sorted({a for a, _ in expected})
            assert np.all(joint.table.sum(axis=1) > 0)
            assert joint.total == size
            assert mutual_information(joint) == reference_mi(expected)

    def test_empty(self):
        joint = JointCounts.from_arrays([], [])
        assert joint.table.shape == (0, 2)
        assert joint.total == 0
        with pytest.raises(EmptyCounts):
            mutual_information(joint)
        with pytest.raises(EmptyCounts):
            entropy_y(joint)


class TestSampledMi:
    """Sampled MI through run_mask_sim, the one sampled-MI driver."""

    @staticmethod
    def _sim(smiles, ys, ratio, **kwargs):
        records = [
            LabeledRecord(graph=parse_smiles(s), label=y) for s, y in zip(smiles, ys)
        ]
        report = run_mask_sim(
            records, ["uniform"], MaskConfig(ratio=ratio), dataset_name="t", **kwargs
        )
        (row,) = report.rows
        return dict(zip(report.columns, row))

    def test_deterministic_corpus_recovers_entropy(self):
        # Atom type determines the graph label exactly, so every repeat
        # lands on MI = H(Y) = 1 bit with zero spread.
        row = self._sim(("CCCC", "CCCC", "OOOO", "OOOO"), [0, 0, 1, 1], 0.25, repeats=5, seed=0)
        np.testing.assert_allclose(row["mi_bits"], 1.0, atol=1e-12)
        np.testing.assert_allclose(row["h_y_bits"], 1.0, atol=1e-12)
        np.testing.assert_allclose(row["seed_std"], 0.0, atol=1e-12)
        assert row["n_pairs"] == 16

    # Every atom of a graph is the same element, so whichever atoms a
    # mask picks, a graph's n_atoms samples carry its one element
    # n_atoms times: the sampled table is the exact table for any seed.
    # Class sizes are unequal (5 atoms labeled 1, 17 labeled 0).
    HOMOGENEOUS = ("CCCC", "OOO", "CCCCCC", "NN", "OO", "NNNNN")
    HOMOGENEOUS_YS = (0, 1, 0, 0, 1, 0)

    @staticmethod
    def _exact_mi(smiles, ys):
        records = [LabeledRecord(graph=parse_smiles(s), label=y) for s, y in zip(smiles, ys)]
        exact, _ = exact_joint_counts(records, counted_column(records, "atom_type"))
        return mutual_information(exact)

    def test_homogeneous_graphs_equal_exact_enumeration(self):
        expected = self._exact_mi(self.HOMOGENEOUS, self.HOMOGENEOUS_YS)
        for seed in (0, 1, 99):
            row = self._sim(self.HOMOGENEOUS, self.HOMOGENEOUS_YS, 0.3, repeats=3, seed=seed)
            np.testing.assert_allclose(row["mi_bits"], expected, atol=1e-12)
            np.testing.assert_allclose(row["seed_std"], 0.0, atol=1e-12)
            assert row["n_pairs"] == 22

    def test_graph_labels_stay_with_their_graphs(self):
        # Every other assignment of these labels to the graphs gives a
        # different exact MI, so pairing any graph's samples with
        # another graph's label cannot reproduce it.
        ys = self.HOMOGENEOUS_YS
        expected = self._exact_mi(self.HOMOGENEOUS, ys)
        for other in set(itertools.permutations(ys)) - {ys}:
            assert abs(self._exact_mi(self.HOMOGENEOUS, other) - expected) > 1e-3
        records = [
            LabeledRecord(graph=parse_smiles(s), label=y) for s, y in zip(self.HOMOGENEOUS, ys)
        ]
        for workers in (1, 2):
            report = run_mask_sim(
                records, ["uniform", "pagerank", "moama", "motifpred"], MaskConfig(ratio=0.3),
                dataset_name="t", repeats=2, seed=4, workers=workers,
            )
            for row in report.rows:
                np.testing.assert_allclose(row[3], expected, atol=1e-12)

    def test_reproducible_and_seed_sensitive(self):
        smiles = ("CCOCN", "NCCOC", "OCNCC", "CNOCC")
        ys = [0, 1, 0, 1]
        a = self._sim(smiles, ys, 0.2, repeats=4, seed=5)
        b = self._sim(smiles, ys, 0.2, repeats=4, seed=5)
        assert a == b
        c = self._sim(smiles, ys, 0.2, repeats=4, seed=6)
        assert (a["mi_bits"], a["seed_std"]) != (c["mi_bits"], c["seed_std"])


class TestShuffleControl:
    def test_destroys_dependence(self):
        joint = counts_from_matrix([[50, 0], [0, 50]])
        exact = mutual_information(joint)
        np.testing.assert_allclose(exact, 1.0, atol=1e-12)
        result = shuffle_control(joint, repeats=5, seed=0)
        assert result.mean < 0.4 * exact
        assert result.std < 0.1
        assert all(v >= 0 for v in result.per_repeat)

    def test_deterministic(self):
        joint = JointCounts.from_arrays([x % 3 for x in range(60)], [x % 2 for x in range(60)])
        a = shuffle_control(joint, repeats=3, seed=2)
        b = shuffle_control(joint, repeats=3, seed=2)
        assert a == b

    def test_empty_rejected(self):
        with pytest.raises(EmptyCounts):
            shuffle_control(JointCounts.from_arrays([], []))

    def test_matches_pair_list_reference_on_random_tables(self):
        rng = np.random.default_rng(5)
        for trial in range(25):
            matrix = rng.integers(0, 12, size=(int(rng.integers(1, 9)), 2))
            matrix[0, trial % 2] += 1
            joint = counts_from_matrix(matrix)
            result = shuffle_control(joint, repeats=4, seed=trial)
            assert result.per_repeat == reference_shuffle(sorted_pairs(joint), 4, trial)
            # A permutation keeps the table's pair count and label entropy.
            assert (result.n_pairs, result.h_y) == (joint.total, entropy_y(joint))
            assert result.std == np.std(result.per_repeat, ddof=1)

    @pytest.mark.parametrize("kind", ["atom_type", "motif"])
    def test_matches_pair_list_reference_on_fixture_corpora(self, kind, ring_marker_records):
        usable = usable_records(ring_marker_records)
        vocab = vocab_of([r.graph for r in usable])
        joint, _ = exact_joint_counts(
            ring_marker_records, counted_column(ring_marker_records, kind, vocab))
        result = shuffle_control(joint, repeats=5, seed=3)
        assert result.per_repeat == reference_shuffle(sorted_pairs(joint), 5, 3)


class TestLowFreqConditionals:
    def _table(self):
        # One dominant neutral label, two rare skewed ones.
        return counts_from_matrix([[50, 50], [9, 1], [1, 9]])

    def test_strict_threshold(self):
        joint = self._table()
        p0, p1, kept = low_freq_conditionals(joint, 0.5)
        assert kept == [1, 2]
        np.testing.assert_allclose(p0, [0.9, 0.1])
        np.testing.assert_allclose(p1, [0.1, 0.9])
        # Marginal of the rare labels is exactly 10/120; a threshold at
        # that value excludes them (strict less-than).
        with pytest.raises(EmptySupport):
            low_freq_conditionals(joint, 10 / 120)

    def test_massless_class(self):
        joint = counts_from_matrix([[50, 50], [5, 0]])
        with pytest.raises(EmptySupport):
            low_freq_conditionals(joint, 0.2)

    def test_single_label_never_qualifies(self):
        joint = counts_from_matrix([[30, 20]])
        with pytest.raises(EmptySupport):
            low_freq_conditionals(joint, 1.0)

    def test_empty_counts(self):
        with pytest.raises(EmptyCounts):
            low_freq_conditionals(JointCounts.from_arrays([], []), 0.5)


class TestJsd:
    def test_hand_value(self):
        np.testing.assert_allclose(
            jsd(np.array([0.9, 0.1]), np.array([0.1, 0.9])),
            0.5310044064107189,
            rtol=1e-12,
        )

    def test_identical_and_disjoint(self):
        p = np.array([0.25, 0.75])
        assert jsd(p, p) == pytest.approx(0.0, abs=1e-15)
        assert jsd(np.array([1.0, 0.0]), np.array([0.0, 1.0])) == pytest.approx(1.0, abs=1e-12)

    def test_matches_scipy(self):
        from scipy.spatial.distance import jensenshannon

        rng = np.random.default_rng(19)
        for _ in range(50):
            n = int(rng.integers(2, 10))
            p = rng.random(n)
            q = rng.random(n)
            p, q = p / p.sum(), q / q.sum()
            np.testing.assert_allclose(
                jsd(p, q), jensenshannon(p, q, base=2) ** 2, atol=1e-10
            )

    def test_bounds(self):
        rng = np.random.default_rng(31)
        for _ in range(200):
            n = int(rng.integers(2, 8))
            p = rng.random(n)
            q = rng.random(n)
            value = jsd(p / p.sum(), q / q.sum())
            assert 0.0 <= value <= 1.0

    def test_symmetric(self):
        rng = np.random.default_rng(8)
        for _ in range(50):
            p = rng.random(5)
            q = rng.random(5)
            p, q = p / p.sum(), q / q.sum()
            np.testing.assert_allclose(jsd(p, q), jsd(q, p), rtol=1e-12)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            jsd(np.array([1.0]), np.array([0.5, 0.5]))


class TestJsdCurve:
    def test_default_grid(self):
        assert DEFAULT_TAUS == (1.0, 0.5, 0.2, 0.1, 0.05, 0.02, 0.01, 0.005, 0.001)

    def test_hand_curve(self):
        joint = counts_from_matrix([[50, 50], [9, 1], [1, 9]])
        curve = jsd_curve(joint, taus=(0.05, 1.0, 0.5))
        assert curve.taus == (1.0, 0.5, 0.05)
        np.testing.assert_allclose(curve.values[0], 0.08850073440178649, rtol=1e-12)
        np.testing.assert_allclose(curve.values[1], 0.5310044064107189, rtol=1e-12)
        assert math.isnan(curve.values[2])
        assert curve.defined == (True, True, False)
        assert curve.labels_kept == (3, 2, 0)
        # Restricting to rare labels exposes more class contrast here.
        assert curve.values[1] > curve.values[0]

    def test_all_defined_flags_match_values(self):
        joint = counts_from_matrix([[40, 38], [3, 1], [1, 4], [2, 2]])
        curve = jsd_curve(joint)
        for value, flag in zip(curve.values, curve.defined):
            assert flag == (not math.isnan(value))
