"""Draw masks under every strategy and see what a masked view records.

Run from the repository root:

    python3 demos/03_masking_strategies.py
"""

from molmask import (
    MaskConfig,
    STRATEGIES,
    bind_corpus,
    mask_count,
    pagerank_all,
    parse_smiles,
    substream,
    target_column,
)

g = parse_smiles("CC(=O)Nc1ccc(O)cc1")
config = MaskConfig(ratio=0.25, beta=10.0, intra_motif_fraction=0.5)
print(f"molecule: {g.source_smiles} ({g.n_atoms} atoms)")
print(f"mask budget at ratio 0.25: {mask_count(config.ratio, g.n_atoms)} atoms\n")

# bind_corpus resolves the strategies once for a corpus, here of one
# graph, and makes what they need once per run: PageRank scores for
# perturbed top-k (one pagerank_all over the whole corpus), and for the
# motif-aware strategies one motif partition per graph, which they
# share.  External reads caller-supplied scores, here PageRank's again.
# bind(0) binds every strategy to graph 0.  A plan is one mask: the
# sorted tuple of the atoms it hides.
scores = pagerank_all([g])
for bound in bind_corpus(STRATEGIES, config, [g], external=scores)(0):
    atoms = bound.plan(substream(seed=0, graph_index=0, draw_index=0))
    print(f"{bound.strategy:15} masks atoms {atoms}")

# Motif-aware strategies mask whole motifs or fixed fractions inside
# them, so masked atoms arrive in contiguous chemical units rather than
# scattered singletons.

# A view leaves the graph as it is: it records the indices of the
# masked atoms and the targets read off them, here their atom types
# from the corpus's atom-type column (graph 0's slice).
(bound,) = bind_corpus(["moama"], config, [g])(0)
atoms = bound.plan(substream(seed=0, graph_index=0, draw_index=1))
atom_types = target_column("atom_type", [g]).view_targets(0, atoms)
print(f"\nmoama view: masked atoms {atoms}, atom types {atom_types}")

# Draws are seeded per (graph, draw) cell, so replaying a cell gives
# the same plan no matter what was drawn before it.
replay = bound.plan(substream(seed=0, graph_index=0, draw_index=1))
print(f"replayed draw identical: {replay == atoms}")

# Score-guided strategies pick atoms by noisy top-k, and the candidate
# pool anneals with the epoch: early epochs sample from a small pool of
# the top-scored atoms, the final epoch recovers the exact top-k.
print("\nannealed noisy top-k over pagerank scores (ratio 0.25, beta 10):")
for epoch in (1, 25, 100):
    cfg = MaskConfig(ratio=0.25, beta=10.0, epoch=epoch, max_epoch=100)
    (bound,) = bind_corpus(["pagerank"], cfg, [g])(0)
    atoms = bound.plan(substream(seed=0, graph_index=0, draw_index=2))
    print(f"  epoch {epoch:3}: {atoms}")
