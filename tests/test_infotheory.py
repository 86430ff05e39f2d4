"""Information measures: plug-in MI, sampled MI, low-frequency JSD."""

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
    joint = JointCounts()
    for x, row in enumerate(matrix):
        for y, n in enumerate(row):
            if n:
                joint.add(x, y, weight=int(n))
    return joint


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
            mutual_information(JointCounts())

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
    def test_add_validates_y(self):
        with pytest.raises(ValueError):
            JointCounts().add(3, 2)

    def test_table_layout(self):
        joint = JointCounts.from_pairs([(5, 1), (2, 0), (5, 1), (2, 1)])
        xs, mat = joint.table()
        assert xs == [2, 5]
        np.testing.assert_array_equal(mat, [[1, 1], [0, 2]])
        assert joint.total == 4


class TestSampledMi:
    """Sampled MI through run_mask_sim, the one sampled-MI driver."""

    @staticmethod
    def _sim(smiles, ys, ratio, **kwargs):
        records = [
            LabeledRecord(graph=parse_smiles(s), task_labels=(y,)) for s, y in zip(smiles, ys)
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

    def test_unique_full_budget_equals_exact_enumeration(self):
        # Sampling every atom exactly once is enumeration: the estimate
        # must equal the exact plug-in MI for any seed.
        smiles = ("CCO", "CCN", "c1ccncc1", "OCCO")
        ys = [0, 1, 1, 0]
        records = [
            LabeledRecord(graph=parse_smiles(s), task_labels=(y,)) for s, y in zip(smiles, ys)
        ]
        exact, _ = exact_joint_counts(records, "atom_type")
        expected = mutual_information(exact)
        for seed in (0, 1, 99):
            row = self._sim(smiles, ys, 0.3, repeats=3, seed=seed, unique_nodes=True)
            np.testing.assert_allclose(row["mi_bits"], expected, atol=1e-12)
            np.testing.assert_allclose(row["seed_std"], 0.0, atol=1e-12)

    def test_reproducible_and_seed_sensitive(self):
        smiles = ("CCOCN", "NCCOC", "OCNCC", "CNOCC")
        ys = [0, 1, 0, 1]
        a = self._sim(smiles, ys, 0.2, repeats=4, seed=5)
        b = self._sim(smiles, ys, 0.2, repeats=4, seed=5)
        assert a == b
        c = self._sim(smiles, ys, 0.2, repeats=4, seed=6)
        assert (a["mi_bits"], a["seed_std"]) != (c["mi_bits"], c["seed_std"])

    def test_samples_per_graph_override(self):
        row = self._sim(
            ("CCCC", "CCCC", "OOOO", "OOOO"), [0, 0, 1, 1], 0.25,
            repeats=2, seed=0, samples_per_graph=3,
        )
        assert row["n_pairs"] == 12


class TestShuffleControl:
    def test_destroys_dependence(self):
        pairs = [(0, 0)] * 50 + [(1, 1)] * 50
        exact = mutual_information(JointCounts.from_pairs(pairs))
        np.testing.assert_allclose(exact, 1.0, atol=1e-12)
        result = shuffle_control(pairs, repeats=5, seed=0)
        assert result.mean < 0.4 * exact
        assert result.std < 0.1
        assert all(v >= 0 for v in result.per_repeat)

    def test_deterministic(self):
        pairs = [(x % 3, x % 2) for x in range(60)]
        a = shuffle_control(pairs, repeats=3, seed=2)
        b = shuffle_control(pairs, repeats=3, seed=2)
        assert a == b

    def test_empty_rejected(self):
        with pytest.raises(EmptyCounts):
            shuffle_control([])


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
            low_freq_conditionals(JointCounts(), 0.5)


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
