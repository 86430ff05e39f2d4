"""Node scoring: PageRank against a dense solve, batched PageRank,
external files."""

import numpy as np
import pytest

from molmask import (
    NonFiniteScore,
    ShapeMismatch,
    NodeScores,
    load_external_scores,
    pagerank_all,
    parse_smiles,
)


def dense_pagerank(graph, alpha=0.85):
    """Direct linear solve of (I - alpha A D^-1) x = (1 - alpha) p."""
    n = graph.n_atoms
    if n == 1:
        return np.array([1.0])
    adj = np.zeros((n, n))
    adj[graph.bond_u, graph.bond_v] = adj[graph.bond_v, graph.bond_u] = 1.0
    walk = adj / adj.sum(axis=0)[np.newaxis, :]
    p = np.full(n, 1.0 / n)
    x = np.linalg.solve(np.eye(n) - alpha * walk, (1.0 - alpha) * p)
    return x / x.sum()


def dense_power_iteration(graph, alpha=0.85, tol=1e-8, max_iter=200):
    """The per-graph dense loop that pagerank_all replaced: (values,
    iterations, converged)."""
    n = graph.n_atoms
    if n == 1:
        return np.array([1.0]), 0, True
    adj = np.zeros((n, n))
    adj[graph.bond_u, graph.bond_v] = adj[graph.bond_v, graph.bond_u] = 1.0
    walk = adj / adj.sum(axis=0)[np.newaxis, :]
    teleport = np.full(n, 1.0 / n)
    x = teleport.copy()
    converged, iterations = False, 0
    for iterations in range(1, max_iter + 1):
        x_next = alpha * (walk @ x) + (1.0 - alpha) * teleport
        delta = np.abs(x_next - x).sum()
        x = x_next
        if delta < tol:
            converged = True
            break
    return x / x.sum(), iterations, converged


class TestPagerank:
    def test_three_node_path(self):
        # Hand solution of the linear system: ends 19/74, middle 18/37.
        scores = pagerank_all([parse_smiles("CCO")])[0]
        np.testing.assert_allclose(
            scores.as_array(), [19 / 74, 36 / 74, 19 / 74], atol=1e-8
        )

    def test_matches_dense_solve_on_fixtures(self, fixture_graphs):
        checked = 0
        for g in fixture_graphs:
            if g.n_atoms > 12:
                continue
            expected = dense_pagerank(g)
            got = pagerank_all([g])[0].as_array()
            np.testing.assert_allclose(got, expected, atol=1e-7, err_msg=g.source_smiles)
            checked += 1
        assert checked >= 15

    def test_probability_vector(self, fixture_graphs):
        for g in fixture_graphs:
            scores = pagerank_all([g])[0]
            arr = scores.as_array()
            assert np.all(arr > 0)
            np.testing.assert_allclose(arr.sum(), 1.0, atol=1e-12)
            assert scores.converged
            assert scores.source == "pagerank"

    def test_symmetry_on_benzene(self):
        arr = pagerank_all([parse_smiles("c1ccccc1")])[0].as_array()
        np.testing.assert_allclose(arr, np.full(6, 1 / 6), atol=1e-9)

    def test_star_center_dominates(self):
        g = parse_smiles("CC(C)(C)C")
        arr = pagerank_all([g])[0].as_array()
        assert arr[1] == arr.max()
        assert np.all(arr[1] > np.delete(arr, 1))

    def test_single_atom(self):
        scores = pagerank_all([parse_smiles("C")])[0]
        assert scores.values == (1.0,)
        assert scores.converged

    def test_iteration_budget(self):
        # One iteration cannot converge on an asymmetric graph; the
        # result must still come back, flagged unconverged.
        scores = pagerank_all([parse_smiles("CCO")], max_iter=1)[0]
        assert not scores.converged
        assert scores.iterations == 1
        np.testing.assert_allclose(scores.as_array().sum(), 1.0, atol=1e-12)

    def test_alpha_zero_is_uniform(self):
        arr = pagerank_all([parse_smiles("CC(C)O")], alpha=0.0)[0].as_array()
        np.testing.assert_allclose(arr, np.full(4, 0.25), atol=1e-12)


class TestPagerankBatch:
    def test_batch_matches_alone_and_shuffled(self, fixture_graphs, ring_marker_records):
        # Graphs converge after many different iteration counts here, so
        # the batch drops graphs at many points along the way.
        graphs = list(fixture_graphs) + [rec.graph for rec in ring_marker_records]
        batch = pagerank_all(graphs)
        order = np.random.default_rng(0).permutation(len(graphs))
        shuffled = pagerank_all([graphs[i] for i in order])
        assert len({s.iterations for s in batch}) >= 10
        for i, g in enumerate(graphs):
            # Float equality of positive finite values is bit equality.
            assert batch[i] == pagerank_all([g])[0], g.source_smiles
        for j, i in enumerate(order):
            assert shuffled[j] == batch[i], graphs[i].source_smiles

    def test_mixed_batch_reports_each_graph(self):
        graphs = [parse_smiles(s) for s in ("C", "c1ccccc1", "CCO")]
        single, benzene, path = pagerank_all(graphs, max_iter=1)
        assert single == NodeScores(values=(1.0,), source="pagerank", iterations=0, converged=True)
        # The uniform start is benzene's fixed point: the first change is 0.
        assert benzene.converged and benzene.iterations == 1
        np.testing.assert_allclose(benzene.as_array(), np.full(6, 1 / 6), atol=1e-15)
        assert not path.converged and path.iterations == 1
        assert [single, benzene, path] == [pagerank_all([g], max_iter=1)[0] for g in graphs]

    def test_matches_dense_loop(self, fixture_graphs, ring_marker_records):
        # Only the summation order of each matvec differs from the dense
        # loop, so values agree to a few ulps and iteration counts match.
        graphs = list(fixture_graphs) + [rec.graph for rec in ring_marker_records]
        for g, scores in zip(graphs, pagerank_all(graphs)):
            values, iterations, converged = dense_power_iteration(g)
            np.testing.assert_allclose(scores.as_array(), values, rtol=0, atol=1e-15)
            assert (scores.iterations, scores.converged) == (iterations, converged)

    def test_empty_batch(self):
        assert pagerank_all([]) == []


class TestExternalScores:
    def _write(self, path, rows):
        with open(path, "w") as handle:
            for row in rows:
                handle.write(",".join(str(v) for v in row) + "\n")

    def test_round_trip(self, tmp_path):
        path = tmp_path / "scores.csv"
        self._write(path, [[0.5, 1.5, 2.5], [3.0, 4.0]])
        scores = load_external_scores(path, [3, 2])
        assert scores[0].values == (0.5, 1.5, 2.5)
        assert scores[1].values == (3.0, 4.0)
        assert all(s.source == "external" for s in scores)

    def test_row_count_mismatch(self, tmp_path):
        path = tmp_path / "scores.csv"
        self._write(path, [[1.0, 2.0]])
        with pytest.raises(ShapeMismatch):
            load_external_scores(path, [2, 3])

    def test_row_length_mismatch(self, tmp_path):
        path = tmp_path / "scores.csv"
        self._write(path, [[1.0, 2.0], [3.0]])
        with pytest.raises(ShapeMismatch):
            load_external_scores(path, [2, 2])

    def test_non_finite_rejected(self, tmp_path):
        path = tmp_path / "scores.csv"
        self._write(path, [[1.0, float("nan")]])
        with pytest.raises(NonFiniteScore):
            load_external_scores(path, [2])

    def test_non_numeric_rejected(self, tmp_path):
        path = tmp_path / "scores.csv"
        path.write_text("1.0,abc\n")
        with pytest.raises(ShapeMismatch):
            load_external_scores(path, [2])
