"""Masking strategies: budgets, guided selection, motif masking, views."""

import csv
import json
import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from molmask import (
    STRATEGIES,
    MaskConfig,
    OutOfRangeIndex,
    bind_corpus,
    decompose,
    infotheory,
    mask_count,
    motif_adjacency,
    pagerank_all,
    parse_smiles,
    export_views,
    sample_pairs_for_graph,
    substream,
    target_column,
)
from test_molgraph import ring_smiles


def masked_motifs(partition, atoms):
    """The motifs a mask's atoms fall in, whole or in part."""
    return sorted({partition.motif_of[a] for a in atoms})


# Reference samplers: one mask per call, one Generator call per choice.
# They are the per-draw implementations that decoding uniform doubles
# replaced, kept as oracles for the decoders' distributions.

def ref_uniform(graph, config, rng):
    n = graph.n_atoms
    return sorted(int(i) for i in rng.choice(n, size=mask_count(config.ratio, n), replace=False))


def ref_perturbed_topk(graph, scores, config, rng):
    n = graph.n_atoms
    candidates = np.lexsort((np.arange(n), -scores))[: mask_count(config.annealed_ratio, n)]
    noise = rng.random(n)
    noise[candidates] += config.beta
    return sorted(int(i) for i in np.lexsort((np.arange(n), -noise))[: mask_count(config.ratio, n)])


def ref_moama(graph, partition, adjacency, config, rng):
    k = mask_count(config.ratio, graph.n_atoms)
    pool = list(range(partition.n_motifs))
    selected, masked_total = [], 0
    while pool:
        m = pool[int(rng.integers(len(pool)))]
        size = len(partition.motifs[m])
        if selected and masked_total + size > k:
            break
        selected.append(m)
        masked_total += size
        banned = {m, *adjacency[m]}
        pool = [p for p in pool if p not in banned]
    return sorted(a for m in selected for a in partition.motifs[m])


def ref_motifpred(graph, partition, config, rng):
    k = mask_count(config.ratio, graph.n_atoms)
    pool = list(range(partition.n_motifs))
    masked = []
    while pool and len(masked) < k:
        m = pool.pop(int(rng.integers(len(pool))))
        atoms = partition.motifs[m]
        n_mask = math.ceil(config.intra_motif_fraction * len(atoms))
        masked.extend(atoms[int(p)] for p in rng.choice(len(atoms), size=n_mask, replace=False))
    return sorted(masked)


BATCH_CONFIG = MaskConfig(ratio=0.25, epoch=30, max_epoch=100, intra_motif_fraction=0.4)


def tied_scores(graph):
    """External scores with many ties, so the tie rule is exercised."""
    return np.arange(graph.n_atoms) * 7 % 3.0


def supplied_scores(strategy, graph):
    """The scores bound_for's binding reads: PageRank for 'pagerank',
    tied external scores otherwise (the unscored strategies ignore them)."""
    return pagerank_all([graph])[0][0] if strategy == "pagerank" else tied_scores(graph)


def reference_fn(strategy, graph):
    """rng -> sorted atom list under the reference sampler."""
    if strategy == "uniform":
        return lambda rng: ref_uniform(graph, BATCH_CONFIG, rng)
    if strategy in ("pagerank", "external"):
        beta = 0.25 if strategy == "pagerank" else 0.5
        scores = supplied_scores(strategy, graph)
        config = MaskConfig(**{**BATCH_CONFIG.__dict__, "beta": beta})
        return lambda rng: ref_perturbed_topk(graph, scores, config, rng)
    partition = decompose(graph)
    if strategy == "moama":
        adjacency = motif_adjacency(graph, partition)
        return lambda rng: ref_moama(graph, partition, adjacency, BATCH_CONFIG, rng)
    return lambda rng: ref_motifpred(graph, partition, BATCH_CONFIG, rng)


def bind_one(strategy, config, graph, scores=None, partition=None):
    """The graph's binding under one strategy, as bind_corpus makes it
    for a corpus of that one graph."""
    return bind_corpus(
        [strategy], config, [graph],
        None if scores is None else [scores],
        None if partition is None else [partition],
    )(0)[0]


def bound_for(strategy, graph, config=BATCH_CONFIG):
    """The binding a run makes: PageRank over the graph for 'pagerank',
    tied external scores for 'external'."""
    return bind_one(strategy, config, graph, tied_scores(graph))


def random_blocks(bound, rng, m):
    """Uniform doubles for m masks of ``bound``: one (m, width) block per width."""
    return [rng.random((m, width)) for width in bound.widths]


def decoded_masks(bound, blocks):
    """bound.mask on each row of ``blocks``: row i of every block decodes mask i."""
    return [bound.mask(*rows) for rows in zip(*blocks)]


def member_masks(bound, blocks):
    """Each row of bound.members(*blocks), as a sorted atom tuple."""
    return [tuple(np.flatnonzero(row).tolist()) for row in bound.members(*blocks)]


class CountingRng:
    """A Generator proxy that counts the calls made on it."""

    def __init__(self, seed):
        self._rng = np.random.default_rng(seed)
        self.calls = 0

    def __getattr__(self, name):
        method = getattr(self._rng, name)

        def counted(*args, **kwargs):
            self.calls += 1
            return method(*args, **kwargs)

        return counted


def quarters(u):
    """Uniform numbers rounded down to a multiple of 1/4: four values, so
    some keys tie and others do not."""
    return np.floor(4 * u) / 4


class TestMaskCount:
    def test_rounding_table(self):
        # Budget is max(1, round(ratio * n)) with halves rounding up.
        cases = [
            (0.15, 10, 2),
            (0.15, 3, 1),
            (0.15, 1, 1),
            (0.25, 10, 3),
            (0.35, 10, 4),
            (0.25, 2, 1),
            (0.5, 5, 3),
            (0.3, 10, 3),
            (1.0, 7, 7),
            (0.01, 50, 1),
        ]
        for ratio, n, expected in cases:
            assert mask_count(ratio, n) == expected, (ratio, n)

    def test_never_zero(self):
        for n in range(1, 30):
            assert mask_count(0.01, n) >= 1


class TestAnnealing:
    def test_final_epoch_is_exact(self):
        config = MaskConfig(ratio=0.15)
        assert config.annealed_ratio == 0.15
        config = MaskConfig(ratio=0.15, epoch=100, max_epoch=100)
        assert config.annealed_ratio == 0.15

    @given(ratio=st.floats(0.0, 1.0, exclude_min=True), max_epoch=st.integers(1, 10**9))
    def test_final_epoch_is_exact_for_any_ratio(self, ratio, max_epoch):
        # ratio * sqrt(E / E) is ratio * 1.0, the ratio bit for bit.
        assert MaskConfig(ratio=ratio, max_epoch=max_epoch).annealed_ratio == ratio

    def test_schedule_value(self):
        config = MaskConfig(ratio=0.15, epoch=25, max_epoch=100)
        np.testing.assert_allclose(config.annealed_ratio, 0.075)

    def test_monotone_in_epoch(self):
        values = [
            MaskConfig(ratio=0.3, epoch=i, max_epoch=50).annealed_ratio
            for i in range(1, 51)
        ]
        assert all(a <= b for a, b in zip(values, values[1:]))
        assert values[-1] == 0.3

    def test_validation(self):
        with pytest.raises(ValueError):
            MaskConfig(ratio=0.0)
        with pytest.raises(ValueError):
            MaskConfig(ratio=1.5)
        with pytest.raises(ValueError):
            MaskConfig(beta=-0.1)
        with pytest.raises(ValueError):
            MaskConfig(epoch=0)
        with pytest.raises(ValueError):
            MaskConfig(epoch=11, max_epoch=10)
        with pytest.raises(ValueError):
            MaskConfig(intra_motif_fraction=0.0)


class TestUniformMask:
    def test_size_and_order(self):
        g = parse_smiles("CCCCCCCCCC")
        bound = bind_one("uniform", MaskConfig(ratio=0.3), g)
        rng = np.random.default_rng(0)
        assert bound.strategy == "uniform"
        for _ in range(50):
            atoms = bound.plan(rng)
            assert len(atoms) == 3
            assert list(atoms) == sorted(set(atoms))

    def test_deterministic_per_stream(self):
        g = parse_smiles("CCCCCCCCCC")
        bound = bind_one("uniform", MaskConfig(ratio=0.3), g)
        a = bound.plan(substream(7, 3, 1))
        b = bound.plan(substream(7, 3, 1))
        assert a == b
        c = bound.plan(substream(7, 3, 2))
        d = bound.plan(substream(8, 3, 1))
        assert a != c or a != d  # different cells almost surely differ

    def test_inclusion_frequency(self):
        # Uniform choice without replacement: every atom appears with
        # probability exactly k/n.
        g = parse_smiles("CCCCCCCCCC")
        bound = bind_one("uniform", MaskConfig(ratio=0.3), g)
        rng = np.random.default_rng(123)
        hits = np.zeros(10)
        draws = 20000
        for _ in range(draws):
            for i in bound.plan(rng):
                hits[i] += 1
        np.testing.assert_allclose(hits / draws, np.full(10, 0.3), atol=0.02)


class TestPerturbedTopk:
    def test_large_beta_recovers_exact_topk(self):
        g = parse_smiles("CCCCCCCCCC")
        scores = np.arange(10.0)
        bound = bind_one("external", MaskConfig(ratio=0.3, beta=10.0), g, scores)
        rng = np.random.default_rng(5)
        for _ in range(100):
            assert bound.plan(rng) == (7, 8, 9)

    def test_tied_scores_prefer_low_index(self):
        g = parse_smiles("CCCCCCCCCC")
        scores = np.ones(10)
        bound = bind_one("external", MaskConfig(ratio=0.3, beta=10.0), g, scores)
        assert bound.plan(np.random.default_rng(0)) == (0, 1, 2)

    def test_beta_zero_ignores_scores(self):
        g = parse_smiles("CCCCCCCCCC")
        scores = np.arange(10.0)
        bound = bind_one("external", MaskConfig(ratio=0.3, beta=0.0), g, scores)
        rng = np.random.default_rng(11)
        hits = np.zeros(10)
        draws = 20000
        for _ in range(draws):
            for i in bound.plan(rng):
                hits[i] += 1
        np.testing.assert_allclose(hits / draws, np.full(10, 0.3), atol=0.02)

    def test_early_epoch_pool_always_included_under_large_beta(self):
        # At epoch 1 the candidate pool shrinks to a single top-scored
        # atom; a large bonus forces it into every mask.
        g = parse_smiles("CCCCCCCCCC")
        scores = np.arange(10.0)
        config = MaskConfig(ratio=0.3, beta=10.0, epoch=1, max_epoch=100)
        bound = bind_one("external", config, g, scores)
        rng = np.random.default_rng(3)
        for _ in range(100):
            atoms = bound.plan(rng)
            assert 9 in atoms
            assert len(atoms) == 3

    def test_mask_size_fixed_across_epochs(self):
        g = parse_smiles("CCCCCCCCCC")
        scores = np.arange(10.0)
        rng = np.random.default_rng(9)
        for epoch in (1, 10, 50, 100):
            config = MaskConfig(ratio=0.3, beta=0.5, epoch=epoch, max_epoch=100)
            assert len(bind_one("external", config, g, scores).plan(rng)) == 3

    def test_score_length_mismatch(self):
        g = parse_smiles("CCO")
        scores = np.array([0.1, 0.2])
        with pytest.raises(OutOfRangeIndex):
            bind_one("external", MaskConfig(), g, scores)


class TestMoamaMask:
    def _setup(self, smiles):
        g = parse_smiles(smiles)
        partition = decompose(g)
        adjacency = motif_adjacency(g, partition)
        return g, partition, adjacency

    @staticmethod
    def _bind(g, partition, config):
        return bind_one("moama", config, g, partition=partition)

    def test_single_motif_graph_fully_masked(self):
        # The first drawn motif is accepted unconditionally, even when
        # it alone exceeds the atom budget.
        g, partition, adjacency = self._setup("c1ccccc1")
        config = MaskConfig(ratio=0.15)
        atoms = self._bind(g, partition, config).plan(np.random.default_rng(0))
        assert atoms == (0, 1, 2, 3, 4, 5)
        assert masked_motifs(partition, atoms) == [0]

    def test_whole_motifs_only(self):
        g, partition, adjacency = self._setup("C1CC1CCC1CC1CCC1CC1CCC1CC1")
        config = MaskConfig(ratio=0.4)
        bound = self._bind(g, partition, config)
        rng = np.random.default_rng(21)
        for _ in range(200):
            atoms = bound.plan(rng)
            expected = sorted(
                a for m in masked_motifs(partition, atoms) for a in partition.motifs[m]
            )
            assert list(atoms) == expected

    def test_no_adjacent_motifs(self):
        g, partition, adjacency = self._setup("C1CC1CCC1CC1CCC1CC1CCC1CC1")
        config = MaskConfig(ratio=0.6)
        bound = self._bind(g, partition, config)
        rng = np.random.default_rng(8)
        for _ in range(300):
            chosen = set(masked_motifs(partition, bound.plan(rng)))
            for m in chosen:
                assert not (chosen - {m}) & set(adjacency[m])

    def test_budget_respected_after_first(self):
        g, partition, adjacency = self._setup("C1CC1CCC1CC1CCC1CC1CCC1CC1")
        k = mask_count(0.4, g.n_atoms)
        config = MaskConfig(ratio=0.4)
        bound = self._bind(g, partition, config)
        rng = np.random.default_rng(77)
        for _ in range(300):
            atoms = bound.plan(rng)
            if len(masked_motifs(partition, atoms)) > 1:
                assert len(atoms) <= k

    def test_deterministic(self):
        g, partition, adjacency = self._setup("C1CC1CCC1CC1")
        config = MaskConfig(ratio=0.5)
        bound = self._bind(g, partition, config)
        a = bound.plan(substream(1, 0, 0))
        b = bound.plan(substream(1, 0, 0))
        assert a == b


class TestMotifpredMask:
    def _setup(self, smiles):
        g = parse_smiles(smiles)
        return g, decompose(g)

    def test_budget_met_when_pool_suffices(self):
        g, partition = self._setup("C1CC1CCC1CC1CCC1CC1CCC1CC1")
        config = MaskConfig(ratio=0.3, intra_motif_fraction=0.5)
        k = mask_count(0.3, g.n_atoms)
        bound = bind_one("motifpred", config, g, partition=partition)
        rng = np.random.default_rng(4)
        for _ in range(200):
            atoms = bound.plan(rng)
            assert len(atoms) >= k
            # Overshoot is bounded by the last motif's contribution.
            largest = max(
                math.ceil(0.5 * len(partition.motifs[m]))
                for m in masked_motifs(partition, atoms)
            )
            assert len(atoms) - k < largest

    def test_per_motif_fraction(self):
        g, partition = self._setup("C1CC1CCC1CC1")
        config = MaskConfig(ratio=0.9, intra_motif_fraction=0.5)
        bound = bind_one("motifpred", config, g, partition=partition)
        rng = np.random.default_rng(2)
        for _ in range(100):
            atoms = bound.plan(rng)
            motifs = masked_motifs(partition, atoms)
            expected = sum(math.ceil(0.5 * len(partition.motifs[m])) for m in motifs)
            assert len(atoms) == expected
            union = {a for m in motifs for a in partition.motifs[m]}
            assert set(atoms) <= union

    def test_full_fraction_masks_whole_motifs(self):
        g, partition = self._setup("C1CC1CCC1CC1")
        config = MaskConfig(ratio=0.5, intra_motif_fraction=1.0)
        bound = bind_one("motifpred", config, g, partition=partition)
        atoms = bound.plan(np.random.default_rng(6))
        expected = sorted(a for m in masked_motifs(partition, atoms) for a in partition.motifs[m])
        assert list(atoms) == expected


class TestBatchDraw:
    """Masks decoded in batches: ``members`` on blocks of many rows, the
    path that sampled MI takes."""

    @pytest.mark.parametrize("strategy", STRATEGIES)
    def test_pick_frequencies_match_reference(self, strategy, fixture_graphs):
        # Per-atom frequency of the sampled atom (one atom of one mask),
        # as sample_pairs_for_graph decodes it, and per-atom inclusion
        # frequency, from one membership matrix of 20,000 masks, each
        # against the per-draw reference, within four binomial standard
        # errors of the difference.  The sampler's ~30k picks come from
        # repeats of n picks each.  With 3,000 reference draws, the
        # reference frequency of one moama atom sat 3.8 standard errors
        # from its long-run value (0.064 vs 0.083).
        n_ref, n_members = 10000, 20000
        graphs = [g for g in fixture_graphs if decompose(g).n_motifs >= 2]
        assert len(graphs) >= 5
        for gi, graph in enumerate(graphs):
            n = graph.n_atoms
            bound = bound_for(strategy, graph)
            (picked,) = sample_pairs_for_graph(
                graph, gi, list(range(n)), [bound], repeats=-(-30000 // n), seed=11,
            )
            n_batch = picked.size
            batch = np.bincount(picked.ravel(), minlength=n) / n_batch
            included = bound.members(*random_blocks(bound, np.random.default_rng(gi), n_members))
            inclusion = included.mean(axis=0)
            reference = reference_fn(strategy, graph)
            rng = np.random.default_rng(gi)
            hits, ref_inclusion = np.zeros(n), np.zeros(n)
            for _ in range(n_ref):
                atoms = reference(rng)
                ref_inclusion[atoms] += 1
                hits[atoms[int(rng.integers(len(atoms)))]] += 1
            for got, n_got, ref in ((batch, n_batch, hits / n_ref),
                                    (inclusion, n_members, ref_inclusion / n_ref)):
                p = (got + ref) / 2
                se = np.sqrt(p * (1 - p) * (1 / n_ref + 1 / n_got))
                assert np.all(np.abs(got - ref) <= 4 * se + 1e-12), (
                    strategy, graph.source_smiles, got, ref,
                )

    @pytest.mark.parametrize("strategy", STRATEGIES)
    def test_rows_sorted_unique_in_range(self, strategy, fixture_graphs):
        for gi, graph in enumerate(fixture_graphs):
            bound = bound_for(strategy, graph)
            blocks = random_blocks(bound, np.random.default_rng(gi), 40)
            masks = decoded_masks(bound, blocks)
            assert masks == member_masks(bound, blocks)
            assert len(masks) == 40
            for atoms in masks:
                assert atoms and atoms == tuple(sorted(set(atoms)))
                assert 0 <= atoms[0] and atoms[-1] < graph.n_atoms

    @pytest.mark.parametrize("strategy", ["uniform", "pagerank", "external"])
    def test_node_level_rows_have_exactly_k(self, strategy, fixture_graphs):
        for gi, graph in enumerate(fixture_graphs):
            k = mask_count(BATCH_CONFIG.ratio, graph.n_atoms)
            bound = bound_for(strategy, graph)
            members = bound.members(*random_blocks(bound, np.random.default_rng(gi), 2000))
            assert np.all(np.count_nonzero(members, axis=1) == k)

    def test_moama_rows_are_spaced_whole_motifs(self, fixture_graphs):
        # The cyclopropane chain at ratio 0.6 fits several motifs per
        # mask, so adjacency and budget both bind.
        chain = parse_smiles("C1CC1CCC1CC1CCC1CC1CCC1CC1")
        cases = [(g, BATCH_CONFIG) for g in fixture_graphs] + [(chain, MaskConfig(ratio=0.6))]
        multi = 0
        for gi, (graph, config) in enumerate(cases):
            partition = decompose(graph)
            adjacency = motif_adjacency(graph, partition)
            k = mask_count(config.ratio, graph.n_atoms)
            bound = bind_one("moama", config, graph)
            for atoms in member_masks(bound, random_blocks(bound, np.random.default_rng(gi), 40)):
                chosen = {partition.motif_of[a] for a in atoms}
                assert list(atoms) == sorted(a for m in chosen for a in partition.motifs[m])
                for m in chosen:
                    assert not (chosen - {m}) & set(adjacency[m])
                if len(chosen) > 1:
                    multi += 1
                    assert len(atoms) <= k
        assert multi >= 20

    def test_motifpred_rows_hide_fixed_fraction(self, fixture_graphs):
        for gi, graph in enumerate(fixture_graphs):
            partition = decompose(graph)
            k = mask_count(BATCH_CONFIG.ratio, graph.n_atoms)
            hidden = [math.ceil(0.4 * len(atoms)) for atoms in partition.motifs]
            bound = bound_for("motifpred", graph)
            for atoms in member_masks(bound, random_blocks(bound, np.random.default_rng(gi), 40)):
                per_motif = {}
                for a in atoms:
                    m = partition.motif_of[a]
                    per_motif[m] = per_motif.get(m, 0) + 1
                assert all(count == hidden[m] for m, count in per_motif.items())
                if len(per_motif) < partition.n_motifs:
                    assert len(atoms) >= k
                assert len(atoms) - k < max(hidden[m] for m in per_motif)

    def test_tied_scores_prefer_low_index_in_every_row(self):
        g = parse_smiles("CCCCCCCCCC")
        equal = np.ones(10)
        bound = bind_one("external", MaskConfig(ratio=0.3, beta=10.0), g, equal)
        blocks = random_blocks(bound, np.random.default_rng(0), 50)
        assert member_masks(bound, blocks) == [(0, 1, 2)] * 50
        # Tied noise as well: every key equal.
        for strategy in ("uniform", "external"):
            bound = bind_one(strategy, MaskConfig(ratio=0.3), g, equal)
            assert member_masks(bound, [np.full((5, 10), 0.5)]) == [(0, 1, 2)] * 5, strategy
            assert bound.mask(np.full(10, 0.5)) == (0, 1, 2), strategy

    @pytest.mark.parametrize("strategy", STRATEGIES)
    def test_plan_draws_once_per_width_block(self, strategy, fixture_graphs):
        graph = fixture_graphs[-6]  # CC(C)CC1=CC=C(C=C1)C(C)C(=O)O, four motifs
        bound = bound_for(strategy, graph)
        rng = CountingRng(0)
        bound.plan(rng)
        assert rng.calls == len(bound.widths)

    def test_plan_is_the_first_batch_row(self, fixture_graphs):
        # A binding's plan decodes the rows its generator draws, one per
        # width block: stacked above other rows, they decode to the same
        # mask as the batch's first row.
        for strategy in STRATEGIES:
            for gi, graph in enumerate(fixture_graphs):
                bound = bound_for(strategy, graph)
                plan = bound.plan(substream(3, gi, 0))
                rng = substream(3, gi, 0)
                first = [rng.random(w) for w in bound.widths]
                more = random_blocks(bound, rng, 4)
                blocks = [np.vstack([row, rows]) for row, rows in zip(first, more)]
                assert member_masks(bound, blocks)[0] == plan


LARGE_CORPUS = Path(__file__).resolve().parent / "data" / "large_corpus.csv"


class TestMembers:
    """The array decode of each strategy against its one-mask decode."""

    @staticmethod
    def assert_row_identity(graph, config, seed, m):
        # Same doubles, same masks: row i of members marks the atoms of
        # mask on row i of every block.  With every key equal, and with
        # keys of four values (ties among some atoms only, which the
        # default argsort breaks differently from the stable one), ties
        # go to the lower index on both paths.
        for strategy in STRATEGIES:
            bound = bound_for(strategy, graph, config)
            noise = random_blocks(bound, np.random.default_rng(seed), m)
            for blocks in (noise, [np.full(b.shape, 0.5) for b in noise],
                           [quarters(b) for b in noise]):
                assert member_masks(bound, blocks) == decoded_masks(bound, blocks), strategy

    @settings(max_examples=150, deadline=None)
    @given(
        smiles=ring_smiles(),
        ratio=st.floats(0.05, 0.6),
        epoch=st.integers(1, 100),
        intra=st.floats(0.05, 1.0),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_rows_are_the_draws_masks(self, smiles, ratio, epoch, intra, seed):
        config = MaskConfig(ratio=ratio, epoch=epoch, intra_motif_fraction=intra)
        self.assert_row_identity(parse_smiles(smiles), config, seed, 6)

    @pytest.mark.parametrize("config", [
        BATCH_CONFIG, MaskConfig(ratio=0.6, epoch=1, intra_motif_fraction=1.0),
    ])
    def test_rows_are_the_masks_on_large_chains(self, config):
        # The two 242-atom chains, whose repeats sample_pairs_for_graph
        # decodes in blocks of one repeat each.
        with open(LARGE_CORPUS, encoding="utf-8", newline="") as handle:
            graphs = [parse_smiles(row["smiles"]) for row in csv.DictReader(handle)]
        chains = [g for g in graphs if g.n_atoms == 242]
        assert len(chains) == 2
        for seed, graph in enumerate(chains):
            self.assert_row_identity(graph, config, seed, 12)

    @pytest.mark.parametrize("config", [
        BATCH_CONFIG, MaskConfig(ratio=0.6, epoch=1, intra_motif_fraction=1.0),
    ])
    def test_samples_are_the_per_strategy_draws(self, config, fixture_graphs):
        # The reference builds each strategy's own generator per
        # (repeat, graph) cell, draws an (n, width) block per width and
        # then one pick per mask, and decodes each mask on its own.
        repeats, seed = 3, 17
        for gi, graph in enumerate(fixture_graphs):
            n = graph.n_atoms
            labels = np.arange(n) * 5 % 7
            bound = [bound_for(strategy, graph, config) for strategy in STRATEGIES]
            sampled = sample_pairs_for_graph(graph, gi, labels, bound, repeats, seed)
            assert sampled.shape == (len(STRATEGIES), repeats, n)
            for s, strategy in enumerate(bound):
                for r in range(repeats):
                    rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(r, gi)))
                    blocks = random_blocks(strategy, rng, n)
                    picks = rng.random(n)
                    masks = decoded_masks(strategy, blocks)
                    expected = [labels[mask[int(u * len(mask))]] for mask, u in zip(masks, picks)]
                    assert sampled[s, r].tolist() == expected, (strategy.strategy, graph.source_smiles)


class TestSampleBlocks:
    """sample_pairs_for_graph draws and decodes its repeats in blocks of
    at most SAMPLE_BLOCK_DOUBLES drawn doubles."""

    REPEATS = 7

    @staticmethod
    def doubles_per_repeat(bound, graph):
        return graph.n_atoms * (max(sum(b.widths) for b in bound) + 1)

    def test_any_budget_gives_the_same_samples(self, fixture_graphs, ring_marker_records,
                                               monkeypatch):
        graphs = list(fixture_graphs) + [rec.graph for rec in ring_marker_records]
        bind = bind_corpus(STRATEGIES, BATCH_CONFIG, graphs, [tied_scores(g) for g in graphs])
        cases = [(g, graph, np.arange(graph.n_atoms) * 5 % 7, bind(g))
                 for g, graph in enumerate(graphs)]
        sizes = [self.doubles_per_repeat(bound, graph) for _, graph, _, bound in cases]
        # Above every graph's whole stack, every graph is one block; at
        # seven times the median repeat, the larger graphs split and the
        # smaller ones do not; at 1, each repeat is a block of its own.
        whole = self.REPEATS * max(sizes)
        some = self.REPEATS * int(np.median(sizes))
        assert min(sizes) * self.REPEATS <= some < max(sizes) * self.REPEATS
        expected = {}
        for budget in (whole, some, 1):
            monkeypatch.setattr(infotheory, "SAMPLE_BLOCK_DOUBLES", budget)
            for g, graph, labels, bound in cases:
                got = sample_pairs_for_graph(graph, g, labels, bound, self.REPEATS, 29)
                assert got.shape == (len(STRATEGIES), self.REPEATS, graph.n_atoms)
                want = expected.setdefault(g, got)
                assert np.array_equal(got, want), (budget, graph.source_smiles)

    def test_transient_does_not_grow_with_repeats(self):
        # 242 atoms: one repeat draws more doubles than a block holds.
        graph = parse_smiles("C" + "c1ccc(cc1)CC" * 30 + "O")
        bound = [bound_for(strategy, graph) for strategy in STRATEGIES]
        labels = np.arange(graph.n_atoms) % 7
        assert self.doubles_per_repeat(bound, graph) > infotheory.SAMPLE_BLOCK_DOUBLES

        def transient(repeats):
            tracemalloc.start()
            try:
                samples = sample_pairs_for_graph(graph, 0, labels, bound, repeats, 3)
                current, peak = tracemalloc.get_traced_memory()  # current holds the samples
            finally:
                tracemalloc.stop()
            assert samples.shape == (len(STRATEGIES), repeats, graph.n_atoms)
            return peak - current

        small, large = transient(4), transient(32)
        assert large <= small + 64 * 1024, (small, large)


class TestSubstream:
    def test_schedule_independence(self):
        a = substream(3, 10, 2).random(4)
        b = substream(3, 10, 2).random(4)
        np.testing.assert_array_equal(a, b)

    def test_cells_differ(self):
        base = substream(3, 10, 2).random(4)
        for seed, g, d in [(3, 10, 3), (3, 11, 2), (4, 10, 2)]:
            assert not np.array_equal(substream(seed, g, d).random(4), base)


class TestPlanFn:
    """bind_corpus's per-graph bindings and their plan functions."""

    def test_unknown_strategy(self):
        with pytest.raises(ValueError, match="random"):
            bind_corpus(["uniform", "random"], MaskConfig(), [parse_smiles("CCO")])

    def test_external_requires_scores(self):
        with pytest.raises(ValueError):
            bind_corpus(["external"], MaskConfig(), [parse_smiles("CCO")])

    def test_pagerank_scores_are_pagerank_all(self, fixture_graphs):
        # PageRank is a per-run input the binder computes itself: its
        # masks are those of 'external' given pagerank_all of the corpus.
        config = MaskConfig(ratio=0.3, beta=10.0, epoch=30)
        pagerank = bind_corpus(["pagerank"], config, fixture_graphs)
        external = bind_corpus(["external"], config, fixture_graphs, pagerank_all(fixture_graphs)[0])
        for g in range(len(fixture_graphs)):
            (by_pagerank,), (by_external,) = pagerank(g), external(g)
            assert by_pagerank.plan(substream(1, g)) == by_external.plan(substream(1, g))
            blocks = random_blocks(by_pagerank, substream(1, g), 20)
            assert np.array_equal(by_pagerank.members(*blocks), by_external.members(*blocks))

    def test_all_strategies_produce_plans(self, fixture_graphs):
        external = [np.arange(float(g.n_atoms)) for g in fixture_graphs]
        bind = bind_corpus(STRATEGIES, MaskConfig(ratio=0.25), fixture_graphs, external)
        for gi, g in enumerate(fixture_graphs):
            bound = bind(gi)
            assert [b.strategy for b in bound] == list(STRATEGIES)
            for b in bound:
                atoms = b.plan(substream(0, gi, 0))
                assert atoms, (b.strategy, g.source_smiles)
                assert list(atoms) == sorted(set(atoms))
                assert all(0 <= a < g.n_atoms for a in atoms)
                assert b._fields == ("mask", "members", "widths", "strategy")

    def test_replay_reproduces(self, fixture_graphs):
        bind = bind_corpus(["moama"], MaskConfig(ratio=0.25), fixture_graphs)
        bound = [bind(g)[0] for g in range(len(fixture_graphs))]
        first = [b.plan(substream(5, i, 0)) for i, b in enumerate(bound)]
        second = [b.plan(substream(5, i, 0)) for i, b in enumerate(bound)]
        rebound = [bind(i)[0].plan(substream(5, i, 0)) for i in range(len(fixture_graphs))]
        assert first == second == rebound


def bind_all(strategy, config, corpus):
    bind = bind_corpus([strategy], config, corpus)
    return (bind(g)[0] for g in range(len(corpus)))


class TestViews:
    def test_round_trip(self, tmp_path):
        corpus = [parse_smiles(s) for s in ("CCO", "c1ccccc1", "CC(C)O")]
        path = tmp_path / "views.jsonl"
        bound = bind_all("uniform", MaskConfig(ratio=0.34), corpus)
        n = export_views(corpus, bound, target_column("atom_type", corpus), path,
                         draws_per_graph=2, seed=9)
        assert n == 6
        views = [json.loads(line) for line in path.read_text().splitlines()]
        assert len(views) == 6
        for view in views:
            assert sorted(view) == [
                "masked_atoms", "seed", "smiles", "strategy", "target_type", "targets",
            ]
            assert view["strategy"] == "uniform"
            assert view["seed"] == 9
            assert len(view["targets"]) == len(view["masked_atoms"])
            graph = next(g for g in corpus if g.source_smiles == view["smiles"])
            assert view["targets"] == [graph.z[a] for a in view["masked_atoms"]]

    def test_byte_identical_reruns(self, tmp_path):
        corpus = [parse_smiles(s) for s in ("CCO", "c1ccccc1")]
        column = target_column("atom_type", corpus)
        p1, p2 = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        config = MaskConfig(ratio=0.3)
        export_views(corpus, bind_all("motifpred", config, corpus), column, p1,
                     draws_per_graph=3, seed=4)
        export_views(corpus, bind_all("motifpred", config, corpus), column, p2,
                     draws_per_graph=3, seed=4)
        assert p1.read_bytes() == p2.read_bytes()
