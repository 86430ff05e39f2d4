"""Node scoring: PageRank against a dense solve, batched PageRank,
external files."""

import tracemalloc

import numpy as np
import pytest

from molmask import (
    NonFiniteScore,
    ShapeMismatch,
    load_external_scores,
    pagerank_all,
    parse_smiles,
    scoring,
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
        (scores,), _ = pagerank_all([parse_smiles("CCO")])
        np.testing.assert_allclose(scores, [19 / 74, 36 / 74, 19 / 74], atol=1e-8)

    def test_matches_dense_solve_on_fixtures(self, fixture_graphs):
        checked = 0
        for g in fixture_graphs:
            if g.n_atoms > 12:
                continue
            expected = dense_pagerank(g)
            (got,), _ = pagerank_all([g])
            np.testing.assert_allclose(got, expected, atol=1e-7, err_msg=g.source_smiles)
            checked += 1
        assert checked >= 15

    def test_probability_vector(self, fixture_graphs):
        for g in fixture_graphs:
            (arr,), unconverged = pagerank_all([g])
            assert arr.dtype == np.float64
            assert np.all(arr > 0)
            np.testing.assert_allclose(arr.sum(), 1.0, atol=1e-12)
            assert unconverged == 0

    def test_symmetry_on_benzene(self):
        (arr,), _ = pagerank_all([parse_smiles("c1ccccc1")])
        np.testing.assert_allclose(arr, np.full(6, 1 / 6), atol=1e-9)

    def test_star_center_dominates(self):
        g = parse_smiles("CC(C)(C)C")
        (arr,), _ = pagerank_all([g])
        assert arr[1] == arr.max()
        assert np.all(arr[1] > np.delete(arr, 1))

    def test_single_atom(self):
        (scores,), unconverged = pagerank_all([parse_smiles("C")])
        assert scores.dtype == np.float64 and scores.tolist() == [1.0]
        assert unconverged == 0

    def test_iteration_budget(self):
        # One iteration cannot converge on an asymmetric graph; the
        # result must still come back, counted unconverged.
        (scores,), unconverged = pagerank_all([parse_smiles("CCO")], max_iter=1)
        assert unconverged == 1
        np.testing.assert_allclose(scores.sum(), 1.0, atol=1e-12)

    def test_alpha_zero_is_uniform(self):
        (arr,), _ = pagerank_all([parse_smiles("CC(C)O")], alpha=0.0)
        np.testing.assert_allclose(arr, np.full(4, 0.25), atol=1e-12)


class TestPagerankBatch:
    def test_batch_matches_alone_and_shuffled(self, fixture_graphs, ring_marker_records):
        # Graphs converge after many different iteration counts here, so
        # the batch drops graphs at many points along the way.
        graphs = list(fixture_graphs) + [rec.graph for rec in ring_marker_records]
        batch, _ = pagerank_all(graphs)
        order = np.random.default_rng(0).permutation(len(graphs))
        shuffled, _ = pagerank_all([graphs[i] for i in order])
        assert len({dense_power_iteration(g)[1] for g in graphs}) >= 10
        for i, g in enumerate(graphs):
            # Float equality of positive finite values is bit equality.
            assert np.array_equal(batch[i], pagerank_all([g])[0][0]), g.source_smiles
        for j, i in enumerate(order):
            assert np.array_equal(shuffled[j], batch[i]), graphs[i].source_smiles

    def test_mixed_batch_reports_each_graph(self):
        graphs = [parse_smiles(s) for s in ("C", "c1ccccc1", "CCO")]
        (single, benzene, path), unconverged = pagerank_all(graphs, max_iter=1)
        assert single.tolist() == [1.0]
        # The uniform start is benzene's fixed point: the first change is
        # 0, so only the path is left unconverged.
        np.testing.assert_allclose(benzene, np.full(6, 1 / 6), atol=1e-15)
        assert unconverged == 1
        alone = [pagerank_all([g], max_iter=1) for g in graphs]
        assert [stuck for _, stuck in alone] == [0, 0, 1]
        for scores, ((by_itself,), _) in zip((single, benzene, path), alone):
            assert np.array_equal(scores, by_itself)

    def test_matches_dense_loop(self, fixture_graphs, ring_marker_records):
        # Only the summation order of each matvec differs from the dense
        # loop, so values agree to a few ulps; one iteration more or fewer
        # moves a graph whose iterate still changes by far more than that.
        graphs = list(fixture_graphs) + [rec.graph for rec in ring_marker_records]
        for max_iter in (200, 20):
            batch, unconverged = pagerank_all(graphs, max_iter=max_iter)
            dense = [dense_power_iteration(g, max_iter=max_iter) for g in graphs]
            for g, scores, (values, _, _) in zip(graphs, batch, dense):
                np.testing.assert_allclose(scores, values, rtol=0, atol=1e-15,
                                           err_msg=g.source_smiles)
            assert unconverged == sum(not converged for _, _, converged in dense)

    def test_empty_batch(self):
        assert pagerank_all([]) == ([], 0)

    @pytest.mark.parametrize("block_atoms", [1, 7, 64])
    def test_blocks_change_no_score(self, block_atoms, monkeypatch, fixture_graphs,
                                    ring_marker_records):
        """Blocks so small that the corpus spans many of them (and at 1
        and 7 atoms, most graphs are each larger than one): every score
        and unconverged count is that of one batch over the corpus."""
        graphs = list(fixture_graphs) + [rec.graph for rec in ring_marker_records]
        assert max(g.n_atoms for g in graphs) > 7
        assert sum(g.n_atoms for g in graphs) > 20 * block_atoms
        monkeypatch.setattr(scoring, "BLOCK_ATOMS", sum(g.n_atoms for g in graphs))
        whole = [pagerank_all(graphs, max_iter=max_iter) for max_iter in (200, 20)]
        monkeypatch.setattr(scoring, "BLOCK_ATOMS", block_atoms)
        for max_iter, (scores, unconverged) in zip((200, 20), whole):
            blocked, blocked_unconverged = pagerank_all(graphs, max_iter=max_iter)
            assert blocked_unconverged == unconverged
            for g, got, want in zip(graphs, blocked, scores):
                assert np.array_equal(got, want), g.source_smiles
        self.test_batch_matches_alone_and_shuffled(fixture_graphs, ring_marker_records)
        self.test_mixed_batch_reports_each_graph()

    def test_transient_does_not_grow_with_the_corpus(self, ring_marker_records):
        """The memory pagerank_all frees before it returns is that of
        one block, however many blocks the corpus fills."""
        def transient(graphs):
            tracemalloc.start()
            try:
                scores = pagerank_all(graphs)  # held, so current counts the scores
                current, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            return peak - current

        graphs = [rec.graph for rec in ring_marker_records]
        assert 2 * sum(g.n_atoms for g in graphs) > scoring.BLOCK_ATOMS
        small, large = transient(graphs * 2), transient(graphs * 8)
        assert large <= small + 32 * 1024, (small, large)


class TestExternalScores:
    def _write(self, path, rows):
        with open(path, "w") as handle:
            for row in rows:
                handle.write(",".join(str(v) for v in row) + "\n")

    def test_round_trip(self, tmp_path):
        path = tmp_path / "scores.csv"
        self._write(path, [[0.5, 1.5, 2.5], [3.0, 4.0]])
        scores = load_external_scores(path, [3, 2])
        assert [s.tolist() for s in scores] == [[0.5, 1.5, 2.5], [3.0, 4.0]]
        assert all(s.dtype == np.float64 for s in scores)

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
